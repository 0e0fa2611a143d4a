#include "cli.hh"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/logging.hh"
#include "sweep/gridcli.hh"

namespace imo::cli
{

int
exitCodeFor(ErrCode code)
{
    switch (code) {
      case ErrCode::None:
        return 0;
      case ErrCode::BadConfig:
      case ErrCode::BadProgram:
        return kExitBadInput;
      case ErrCode::Interrupted:
        return kExitInterrupted;
      default:
        return kExitFailure;
    }
}

bool
Args::next()
{
    if (_next >= _args.size())
        return false;
    _flag = _args[_next++];
    return true;
}

std::string
Args::value()
{
    if (_next >= _args.size())
        throw UsageError("missing value for " + _flag);
    return _args[_next++];
}

std::uint64_t
Args::u64(std::uint64_t max)
{
    const std::string text = value();
    const std::uint64_t v = sweep::parseU64(text, _flag.c_str());
    sim_throw_if(v > max, ErrCode::BadConfig,
                 "%s must be at most %llu, got '%s'", _flag.c_str(),
                 static_cast<unsigned long long>(max), text.c_str());
    return v;
}

double
Args::real()
{
    return sweep::parseFiniteDouble(value(), _flag.c_str());
}

std::string
Args::oneOf(std::initializer_list<const char *> choices)
{
    const std::string v = value();
    for (const char *c : choices) {
        if (v == c)
            return v;
    }
    throw UsageError("bad " + _flag + " value '" + v + "'");
}

void
Args::unknown() const
{
    throw UsageError("unknown option '" + _flag + "'");
}

void
printError(const char *tool, const SimError &err)
{
    std::fprintf(stderr, "%s: error [%s] %s\n", tool,
                 errCodeName(err.code), err.message.c_str());
    for (const std::string &note : err.context)
        std::fprintf(stderr, "    %s\n", note.c_str());
}

int
run(const char *tool, void (*usage)(), const std::function<int()> &body,
    const std::function<void(const SimError &)> &onError)
{
    SimError err;
    try {
        return body();
    } catch (const UsageError &e) {
        if (*e.what())
            std::fprintf(stderr, "%s: %s\n", tool, e.what());
        usage();
        return kExitUsage;
    } catch (const SimException &e) {
        err = e.error();
    } catch (const std::exception &e) {
        err = SimError{ErrCode::Internal, e.what(), {}};
    }
    if (onError)
        onError(err);
    printError(tool, err);
    return exitCodeFor(err.code);
}

namespace
{

volatile std::sig_atomic_t g_stop = 0;

extern "C" void
onStopSignal(int)
{
    g_stop = 1;
}

} // anonymous namespace

const volatile std::sig_atomic_t *
installStopHandlers()
{
    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    sa.sa_flags = SA_RESETHAND;
    for (const int sig : {SIGINT, SIGTERM})
        ::sigaction(sig, &sa, nullptr);
    return &g_stop;
}

std::uint64_t
steadyMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
writeTrace(const obs::TraceSink &trace, const std::string &path,
           const std::string &format)
{
    if (path.empty())
        return;
    std::ofstream out(path);
    sim_throw_if(!out, ErrCode::BadConfig, "cannot write '%s'",
                 path.c_str());
    if (format == "chrome")
        trace.writeChromeTrace(out);
    else
        trace.writeJsonl(out);
    if (trace.dropped()) {
        warn("trace capacity reached: %llu events dropped",
             static_cast<unsigned long long>(trace.dropped()));
    }
}

void
writeStatsJson(const std::string &path, const std::string &json)
{
    if (path.empty())
        return;
    if (path == "-") {
        std::fputs(json.c_str(), stdout);
        return;
    }
    std::ofstream out(path);
    sim_throw_if(!out, ErrCode::BadConfig, "cannot write '%s'",
                 path.c_str());
    out << json;
}

manifest::Manifest
manifestHeader(const char *tool, const Args &args, const SimError &err,
               std::uint64_t elapsedMs)
{
    manifest::Manifest m;
    m.tool = tool;
    m.runId = manifest::makeRunId(tool);
    m.args = args.all();
    if (!err.ok()) {
        m.status = err.code == ErrCode::Interrupted ? "interrupted"
                                                    : "failed";
        m.errorCode = errCodeName(err.code);
        m.errorMessage = err.message;
    }
    m.elapsedMs = elapsedMs;
    return m;
}

void
writeManifest(const std::string &path, const manifest::Manifest &m)
{
    std::string err;
    if (!path.empty() && !manifest::writeManifestFile(path, m, err))
        warn("%s: %s", m.tool.c_str(), err.c_str());
}

} // namespace imo::cli
