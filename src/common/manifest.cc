#include "common/manifest.hh"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/stats.hh"

namespace imo::manifest
{

std::string
makeRunId(const std::string &tool)
{
    auto now = std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::system_clock::now().time_since_epoch())
                   .count();
    return tool + "-" + std::to_string(now) + "-" +
           std::to_string(::getpid());
}

namespace
{

void
emitString(std::ostream &os, const char *key, const std::string &val)
{
    os << "\"" << key << "\":\"" << stats::jsonEscape(val) << "\"";
}

} // anonymous namespace

void
writeManifestJson(std::ostream &os, const Manifest &m)
{
    os << "{\"manifest_schema_version\":" << manifestSchemaVersion << ",\n ";
    emitString(os, "tool", m.tool);
    os << ",\n ";
    emitString(os, "run_id", m.runId);
    os << ",\n \"args\":[";
    for (std::size_t i = 0; i < m.args.size(); ++i) {
        os << (i ? "," : "") << "\"" << stats::jsonEscape(m.args[i])
           << "\"";
    }
    os << "],\n \"report_schema_version\":" << m.reportSchemaVersion
       << ",\n \"protocol_version\":" << m.protocolVersion << ",\n ";
    emitString(os, "fault_spec", m.faultSpec);
    os << ",\n \"fault_seed\":" << m.faultSeed << ",\n ";
    emitString(os, "status", m.status);
    os << ",\n ";
    emitString(os, "error_code", m.errorCode);
    os << ",\n ";
    emitString(os, "error_message", m.errorMessage);
    os << ",\n \"elapsed_ms\":" << m.elapsedMs
       << ",\n \"points_total\":" << m.pointsTotal
       << ",\n \"points_done\":" << m.pointsDone
       << ",\n \"multi_cache_groups\":[";
    for (std::size_t i = 0; i < m.multiCacheGroups.size(); ++i) {
        const MultiCacheGroupEntry &g = m.multiCacheGroups[i];
        os << (i ? "," : "") << "\n  {\"members\":" << g.members
           << ",\"configs\":" << g.configs
           << ",\"stream_length\":" << g.streamLength
           << ",\"prefetches\":" << g.prefetches
           << ",\"windows\":" << g.windows << ",\"shared\":"
           << (g.shared ? "true" : "false") << "}";
    }
    os << (m.multiCacheGroups.empty() ? "]" : "\n ]")
       << ",\n \"points\":[";
    for (std::size_t i = 0; i < m.points.size(); ++i) {
        const PointEntry &p = m.points[i];
        os << (i ? "," : "") << "\n  {";
        emitString(os, "key", p.key);
        os << ",";
        emitString(os, "desc", p.desc);
        os << ",";
        emitString(os, "status", p.status);
        os << ",\"store_hit\":" << (p.storeHit ? "true" : "false")
           << ",\"attempts\":" << p.attempts
           << ",\"queue_wait_ms\":" << p.queueWaitMs
           << ",\"simulate_ms\":" << p.simulateMs
           << ",\"serialize_ms\":" << p.serializeMs
           << ",\"store_put_ms\":" << p.storePutMs
           << ",\"start_ms\":" << p.startMs << ",\"end_ms\":" << p.endMs
           << ",\"multi_cache_group\":" << p.multiCacheGroup << ",";
        emitString(os, "error", p.error);
        os << "}";
    }
    os << "\n ],\n \"stats\":";
    if (m.statsJson.empty()) {
        os << "null";
    } else {
        // Embedded verbatim; the producer's stats dump is already JSON
        // (possibly newline-terminated — trim so the document stays
        // well-formed).
        std::string s = m.statsJson;
        while (!s.empty() && (s.back() == '\n' || s.back() == '\r'))
            s.pop_back();
        os << s;
    }
    os << "}\n";
}

bool
writeManifestFile(const std::string &path, const Manifest &m,
                  std::string &err)
{
    std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            err = "cannot open " + tmp + " for writing";
            return false;
        }
        writeManifestJson(out, m);
        out.flush();
        if (!out) {
            err = "write failed for " + tmp;
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        err = "rename " + tmp + " -> " + path + " failed";
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace imo::manifest
