#include "sweep/gridcli.hh"

#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/error.hh"
#include "sample/sample.hh"
#include "workloads/suite.hh"

namespace imo::sweep
{

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty())
            out.push_back(item);
    }
    return out;
}

std::vector<std::uint64_t>
parseU64List(const std::string &s, const char *what)
{
    std::vector<std::uint64_t> out;
    for (const std::string &item : splitCsv(s))
        out.push_back(parseU64(item, what));
    return out;
}

namespace
{

/** The digits of @p s after one optional leading '+' (a '-' stays and
 *  fails the parse). */
const char *
skipPlus(const std::string &s)
{
    return s.c_str() + (!s.empty() && s[0] == '+' ? 1 : 0);
}

} // anonymous namespace

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    const char *first = skipPlus(s);
    const char *last = s.c_str() + s.size();
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v);
    sim_throw_if(first == last || ec != std::errc() || end != last,
                 ErrCode::BadConfig, "bad %s value '%s'", what, s.c_str());
    return v;
}

double
parseFiniteDouble(const std::string &s, const char *what)
{
    const char *first = skipPlus(s);
    const char *last = s.c_str() + s.size();
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    sim_throw_if(first == last || ec != std::errc() || end != last ||
                     !std::isfinite(v) || std::signbit(v),
                 ErrCode::BadConfig, "bad %s value '%s'", what, s.c_str());
    return v;
}

double
parseScale(const std::string &s)
{
    const double v = parseFiniteDouble(s, "--scale");
    sim_throw_if(v == 0.0, ErrCode::BadConfig,
                 "--scale must be positive, got '%s'", s.c_str());
    return v;
}

core::InformingMode
parseModeName(const std::string &m)
{
    if (m == "N")
        return core::InformingMode::None;
    if (m == "S")
        return core::InformingMode::TrapSingle;
    if (m == "U")
        return core::InformingMode::TrapUnique;
    if (m == "CC")
        return core::InformingMode::CondCode;
    throwSimError(ErrCode::BadConfig,
                  "unknown mode '%s' (N, S, U, or CC)", m.c_str());
}

const char *
gridAxesHelp()
{
    return
        "axes (comma-separated values; the grid is their cartesian "
        "product):\n"
        "  --workloads A,B,...     workload names (default espresso)\n"
        "  --machines M,...        ooo,inorder (default ooo)\n"
        "  --modes M,...           N,S,U,CC (default N)\n"
        "  --lens K,...            generic handler lengths "
        "(default 10)\n"
        "  --l1-sizes KB,...       L1 size override in KB (default: "
        "machine default)\n"
        "  --l1-assocs A,...       L1 associativity override\n"
        "  --l2-lats N,...         L2 latency override, cycles\n"
        "  --mem-lats N,...        memory latency override, cycles\n"
        "  --mshrs N,...           MSHR count override\n"
        "  --samples S,...         sampling schedules: 'full' for the "
        "detailed\n"
        "                          simulation, or U:W:M (e.g. "
        "10000:500:500)\n"
        "  --scale F               workload scale factor (default 1)\n"
        "  --seed N                workload seed\n";
}

bool
applyGridArg(SweepGrid *grid, const std::string &arg,
             const std::function<std::string()> &value)
{
    if (arg == "--workloads") {
        grid->workloads = splitCsv(value());
    } else if (arg == "--machines") {
        grid->machines = splitCsv(value());
    } else if (arg == "--modes") {
        grid->modes.clear();
        for (const std::string &m : splitCsv(value()))
            grid->modes.push_back(parseModeName(m));
    } else if (arg == "--lens") {
        grid->handlerLens.clear();
        for (const std::uint64_t v :
             parseU64List(value(), "handler length"))
            grid->handlerLens.push_back(static_cast<std::uint32_t>(v));
    } else if (arg == "--l1-sizes") {
        grid->l1SizesBytes.clear();
        for (const std::uint64_t kb : parseU64List(value(), "L1 size"))
            grid->l1SizesBytes.push_back(kb * 1024);
    } else if (arg == "--l1-assocs") {
        grid->l1Assocs.clear();
        for (const std::uint64_t v : parseU64List(value(), "L1 assoc"))
            grid->l1Assocs.push_back(static_cast<std::uint32_t>(v));
    } else if (arg == "--l2-lats") {
        grid->l2Latencies = parseU64List(value(), "L2 latency");
    } else if (arg == "--mem-lats") {
        grid->memLatencies = parseU64List(value(), "memory latency");
    } else if (arg == "--mshrs") {
        grid->mshrCounts.clear();
        for (const std::uint64_t v : parseU64List(value(), "MSHR count"))
            grid->mshrCounts.push_back(static_cast<std::uint32_t>(v));
    } else if (arg == "--samples") {
        grid->samples.clear();
        for (const std::string &s : splitCsv(value()))
            grid->samples.push_back(s == "full" ? "" : s);
    } else if (arg == "--scale") {
        grid->scale = parseScale(value());
    } else if (arg == "--seed") {
        grid->seed = parseU64(value(), "--seed");
    } else {
        return false;
    }
    return true;
}

unsigned
parseParallelism(const std::string &text, const char *flag)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    sim_throw_if(end == text.c_str() || *end != '\0' || errno != 0,
                 ErrCode::BadConfig, "%s: bad value '%s'", flag,
                 text.c_str());
    sim_throw_if(v < 0, ErrCode::BadConfig,
                 "%s must be non-negative (0 means one per hardware "
                 "thread), got %lld",
                 flag, v);
    if (v == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        return hw == 0 ? 1 : hw;
    }
    return static_cast<unsigned>(v);
}

void
validatePoints(const std::vector<SweepPoint> &points)
{
    for (const SweepPoint &p : points) {
        p.resolveConfig().validate();
        sim_throw_if(!workloads::find(p.workload), ErrCode::BadConfig,
                     "unknown workload '%s'", p.workload.c_str());
        if (!p.sample.empty())
            sample::SampleParams::parse(p.sample);
    }
}

} // namespace imo::sweep
