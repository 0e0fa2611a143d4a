#include "farm/store.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <dirent.h>
#include <sys/stat.h>

#include "common/checkpoint.hh"
#include "common/error.hh"
#include "common/logging.hh"

namespace imo::farm
{

namespace
{

/** FNV-1a 64-bit over an incremental byte stream. */
class Fnv64
{
  public:
    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < len; ++i) {
            _h ^= p[i];
            _h *= 0x100000001b3ull;
        }
    }

    void
    str(const std::string &s)
    {
        const std::uint64_t n = s.size();
        bytes(&n, 8); // length prefix: ("ab","c") != ("a","bc")
        bytes(s.data(), s.size());
    }

    void u32(std::uint32_t v) { bytes(&v, 4); }
    void u64(std::uint64_t v) { bytes(&v, 8); }

    void
    f64(double v)
    {
        std::uint64_t b;
        std::memcpy(&b, &v, 8);
        u64(b);
    }

    std::uint64_t value() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ull;
};

const char *const kRecordSuffix = ".imores";

} // anonymous namespace

std::string
PointKey::hex() const
{
    return simFormat("%016llx%016llx%08x",
                     static_cast<unsigned long long>(configHash),
                     static_cast<unsigned long long>(programHash),
                     schemaVersion);
}

namespace
{

/** The point fields every key digests, in declaration order. */
void
mixPoint(Fnv64 &cfg, const sweep::SweepPoint &point)
{
    cfg.str(point.machine);
    cfg.str(point.workload);
    cfg.u32(static_cast<std::uint32_t>(point.mode));
    cfg.u32(point.handlerLen);
    cfg.f64(point.scale);
    cfg.u64(point.seed);
    cfg.u64(point.l1SizeBytes);
    cfg.u32(point.l1Assoc);
    cfg.u64(point.l2SizeBytes);
    cfg.u32(point.l2Assoc);
    cfg.u64(point.l2Latency);
    cfg.u64(point.memLatency);
    cfg.u32(point.mshrs);
    cfg.str(point.sample);
}

} // anonymous namespace

PointKey
keyForTask(const Task &task)
{
    sim_throw_if(task.points.empty(), ErrCode::BadConfig,
                 "result store: cannot key a task without points");
    PointKey key;
    Fnv64 cfg;
    // Domain tag of the task records, then the kind tag the v6 format
    // gave its (then only surviving) Points kind, kept as a constant
    // so records written since v6 stay valid. Records written under
    // earlier formats (a raw point fragment, not a bundle) never match.
    cfg.str("farm-task");
    cfg.u32(0);
    cfg.u64(task.points.size());
    for (const sweep::SweepPoint &p : task.points)
        mixPoint(cfg, p);
    key.programHash = task.points.front().buildProgram().fingerprint();
    key.configHash = cfg.value();
    key.schemaVersion = sweep::reportSchemaVersion;
    return key;
}

PointKey
keyForPoint(const sweep::SweepPoint &point)
{
    Task task;
    task.points = {point};
    return keyForTask(task);
}

ResultStore::ResultStore(std::string dir, bool allowExisting)
    : _dir(std::move(dir))
{
    sim_throw_if(_dir.empty(), ErrCode::BadConfig,
                 "result store: empty directory path");

    struct stat st;
    if (::stat(_dir.c_str(), &st) == 0) {
        sim_throw_if(!S_ISDIR(st.st_mode), ErrCode::BadConfig,
                     "result store: '%s' exists and is not a directory",
                     _dir.c_str());
        if (!allowExisting) {
            // Count existing records; an empty directory is fine.
            DIR *d = ::opendir(_dir.c_str());
            sim_throw_if(!d, ErrCode::BadConfig,
                         "result store: cannot open '%s': %s",
                         _dir.c_str(), std::strerror(errno));
            bool has_records = false;
            while (const dirent *e = ::readdir(d)) {
                const std::string name = e->d_name;
                if (name.size() > std::strlen(kRecordSuffix) &&
                    name.rfind(kRecordSuffix) ==
                        name.size() - std::strlen(kRecordSuffix)) {
                    has_records = true;
                    break;
                }
            }
            ::closedir(d);
            sim_throw_if(has_records, ErrCode::BadConfig,
                         "result store '%s' already holds records; pass "
                         "--resume to reuse them (memoized re-run or "
                         "resume of an interrupted farm)",
                         _dir.c_str());
        }
    } else {
        sim_throw_if(::mkdir(_dir.c_str(), 0777) != 0 && errno != EEXIST,
                     ErrCode::BadConfig,
                     "result store: cannot create '%s': %s",
                     _dir.c_str(), std::strerror(errno));
    }
}

std::string
ResultStore::recordPath(const PointKey &key) const
{
    return _dir + "/" + key.hex() + kRecordSuffix;
}

StoreGet
ResultStore::get(const PointKey &key, std::vector<std::uint8_t> *fragment)
{
    const std::string path = recordPath(key);
    struct stat st;
    if (::stat(path.c_str(), &st) != 0)
        return StoreGet::Miss;

    try {
        Deserializer d(Deserializer::readFile(path));
        d.openSection("key");
        PointKey stored;
        stored.configHash = d.u64();
        stored.programHash = d.u64();
        stored.schemaVersion = d.u32();
        d.closeSection();
        sim_throw_if(!(stored == key), ErrCode::StoreCorrupt,
                     "store record '%s' embeds key %s", path.c_str(),
                     stored.hex().c_str());
        d.openSection("fragment");
        std::vector<std::uint8_t> bytes = d.vecU8();
        d.closeSection();
        if (fragment)
            *fragment = std::move(bytes);
        return StoreGet::Hit;
    } catch (const SimException &e) {
        // Quarantine the damaged record (keep the evidence) and treat
        // the key as absent: corruption costs a re-simulation, never a
        // wrong report.
        ++_corrupt;
        warn("result store: quarantining corrupt record %s: %s",
             path.c_str(), e.error().message.c_str());
        // Uniquify the quarantine name: repeated corruption of the
        // same key (re-simulated, re-stored, rotted again) must keep
        // every piece of evidence, not overwrite the previous one.
        std::string bad;
        for (unsigned n = 1;; ++n) {
            bad = path + ".bad." + std::to_string(n);
            struct stat bad_st;
            if (::stat(bad.c_str(), &bad_st) != 0)
                break;
        }
        if (std::rename(path.c_str(), bad.c_str()) != 0)
            std::remove(path.c_str());
        return StoreGet::Corrupt;
    }
}

void
ResultStore::put(const PointKey &key,
                 const std::vector<std::uint8_t> &fragment)
{
    Serializer s;
    s.beginSection("key");
    s.u64(key.configHash);
    s.u64(key.programHash);
    s.u32(key.schemaVersion);
    s.endSection();
    s.beginSection("fragment");
    s.vecU8(fragment);
    s.endSection();
    try {
        writeCheckpointFile(recordPath(key), s.finish());
    } catch (const SimException &e) {
        throw SimException(SimError{ErrCode::StoreCorrupt,
                                    simFormat("result store: cannot "
                                              "write record for %s",
                                              key.hex().c_str()),
                                    {e.error().message}});
    }
}

bool
ResultStore::verifyOrRepair(const PointKey &key,
                            const std::vector<std::uint8_t> &expect)
{
    std::vector<std::uint8_t> stored;
    const StoreGet got = get(key, &stored);
    if (got == StoreGet::Hit && stored == expect)
        return true;
    if (got == StoreGet::Hit) {
        // Valid container, wrong bytes: a key collision or a foreign
        // writer. Count it as corruption and restore the truth.
        ++_corrupt;
        warn("result store: record %s holds mismatching bytes; "
             "rewriting", recordPath(key).c_str());
    }
    put(key, expect);
    return false;
}

} // namespace imo::farm
