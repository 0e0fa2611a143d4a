#include "sweep/sweep.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <ostream>
#include <thread>
#include <unordered_map>

#include "common/error.hh"
#include "pipeline/simulate.hh"
#include "sample/sharedpass.hh"
#include "sweep/engine.hh"
#include "workloads/suite.hh"

namespace imo::sweep
{

pipeline::MachineConfig
SweepPoint::resolveConfig() const
{
    pipeline::MachineConfig cfg;
    if (machine == "ooo") {
        cfg = pipeline::makeOutOfOrderConfig();
    } else if (machine == "inorder") {
        cfg = pipeline::makeInOrderConfig();
    } else {
        throwSimError(ErrCode::BadConfig,
                      "sweep: unknown machine '%s' (ooo or inorder)",
                      machine.c_str());
    }
    if (l1SizeBytes)
        cfg.l1.sizeBytes = l1SizeBytes;
    if (l1Assoc)
        cfg.l1.assoc = l1Assoc;
    if (l2SizeBytes)
        cfg.l2.sizeBytes = l2SizeBytes;
    if (l2Assoc)
        cfg.l2.assoc = l2Assoc;
    if (l2Latency)
        cfg.mem.l2Latency = l2Latency;
    if (memLatency)
        cfg.mem.memLatency = memLatency;
    if (mshrs)
        cfg.mem.mshrs = mshrs;
    return cfg;
}

isa::Program
SweepPoint::buildProgram() const
{
    workloads::WorkloadParams wp;
    wp.scale = scale;
    wp.seed = seed;
    return core::instrument(workloads::build(workload, wp), mode,
                            {.length = handlerLen});
}

std::vector<SweepPoint>
expandGrid(const SweepGrid &grid)
{
    auto axis = [](const auto &values, auto fallback) {
        using V = std::decay_t<decltype(fallback)>;
        return values.empty() ? std::vector<V>{fallback}
                              : std::vector<V>(values.begin(),
                                               values.end());
    };
    const auto machines = axis(grid.machines, std::string("ooo"));
    const auto workloads = axis(grid.workloads, std::string("espresso"));
    const auto modes = axis(grid.modes, core::InformingMode::None);
    const auto lens = axis(grid.handlerLens, std::uint32_t{10});
    const auto l1_sizes = axis(grid.l1SizesBytes, std::uint64_t{0});
    const auto l1_assocs = axis(grid.l1Assocs, std::uint32_t{0});
    const auto l2_lats = axis(grid.l2Latencies, std::uint64_t{0});
    const auto mem_lats = axis(grid.memLatencies, std::uint64_t{0});
    const auto mshr_counts = axis(grid.mshrCounts, std::uint32_t{0});
    const auto samples = axis(grid.samples, std::string(""));

    std::vector<SweepPoint> points;
    for (const std::string &machine : machines)
        for (const std::string &workload : workloads)
            for (const core::InformingMode mode : modes)
                for (const std::uint32_t len : lens)
                    for (const std::uint64_t l1s : l1_sizes)
                        for (const std::uint32_t l1a : l1_assocs)
                            for (const std::uint64_t l2l : l2_lats)
                                for (const std::uint64_t ml : mem_lats)
                                    for (const std::uint32_t ms :
                                         mshr_counts)
                                        for (const std::string &smp :
                                             samples) {
                                            SweepPoint p;
                                            p.machine = machine;
                                            p.workload = workload;
                                            p.mode = mode;
                                            p.handlerLen = len;
                                            p.scale = grid.scale;
                                            p.seed = grid.seed;
                                            p.l1SizeBytes = l1s;
                                            p.l1Assoc = l1a;
                                            p.l2Latency = l2l;
                                            p.memLatency = ml;
                                            p.mshrs = ms;
                                            p.sample = smp;
                                            points.push_back(p);
                                        }
    return points;
}

SweepOutcome
runPoint(const SweepPoint &point)
{
    return runPoint(point, nullptr, nullptr);
}

SweepOutcome
runPoint(const SweepPoint &point,
         const std::shared_ptr<const sample::LivePointLibrary> &replay,
         std::shared_ptr<const sample::LivePointLibrary> *capture)
{
    SweepOutcome out;
    out.point = point;

    const pipeline::MachineConfig cfg = point.resolveConfig();
    const isa::Program prog = point.buildProgram();
    if (point.sample.empty()) {
        out.result = pipeline::simulate(prog, cfg);
    } else {
        // parse() throws BadConfig on a malformed spec; runSweep's
        // callers validate up front, so here it indicates a driver bug
        // and is allowed to propagate into the engine's error path.
        sample::Sampler sampler(
            prog, cfg, sample::SampleParams::parse(point.sample));
        if (replay)
            sampler.setLibrary(replay);
        if (capture)
            sampler.setRetainCapture(true);
        out.estimate = sampler.run();
        if (capture)
            *capture = sampler.capturedLibrary();
    }
    return out;
}

namespace
{

/** Grouping key for library sharing: every input the capture pass
 *  depends on. Points with equal keys can replay one library. */
std::string
libraryKey(const SweepPoint &p)
{
    return simFormat(
        "%s|%s|%s|%u|%.17g|%llu|%s|%016llx", p.machine.c_str(),
        p.workload.c_str(), core::informingModeName(p.mode),
        p.handlerLen, p.scale,
        static_cast<unsigned long long>(p.seed), p.sample.c_str(),
        static_cast<unsigned long long>(
            sample::captureDigest(p.resolveConfig())));
}

/** Grouping key for multi-cache shared passes: every non-geometry
 *  input. Points with equal keys can share one reference stream. */
std::string
multiCacheKey(const SweepPoint &p)
{
    return simFormat("%s|%s|%s|%u|%.17g|%llu|%s", p.machine.c_str(),
                     p.workload.c_str(),
                     core::informingModeName(p.mode), p.handlerLen,
                     p.scale, static_cast<unsigned long long>(p.seed),
                     p.sample.c_str());
}

} // anonymous namespace

std::vector<std::vector<std::size_t>>
planMultiCacheGroups(const std::vector<SweepPoint> &points)
{
    std::unordered_map<std::string, std::size_t> slot;
    std::vector<std::vector<std::size_t>> cands;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const SweepPoint &p = points[i];
        if (p.sample.empty())
            continue;
        try {
            // A member whose config cannot validate would poison the
            // whole shared pass; leave it on the dedicated path, where
            // the sampler's envelope turns it into an error estimate.
            p.resolveConfig().validate();
        } catch (const SimException &) {
            continue;
        }
        const auto [it, fresh] = slot.try_emplace(multiCacheKey(p),
                                                  cands.size());
        if (fresh)
            cands.emplace_back();
        cands[it->second].push_back(i);
    }

    std::vector<std::vector<std::size_t>> groups;
    for (std::vector<std::size_t> &members : cands) {
        if (members.size() < 2)
            continue; // nothing to amortize
        // One program build per candidate decides eligibility: an
        // informing-mode program's stream depends on cache outcomes,
        // so it cannot share a pass and stays dedicated.
        try {
            if (!sample::sharedPassEligible(
                    points[members[0]].buildProgram()))
                continue;
        } catch (const SimException &) {
            continue; // workload/instrument errors surface per point
        }
        groups.push_back(std::move(members));
    }
    return groups;
}

std::vector<std::vector<std::size_t>>
planTasks(const std::vector<SweepPoint> &points, bool multiCache)
{
    std::vector<std::vector<std::size_t>> tasks;
    if (multiCache)
        tasks = planMultiCacheGroups(points);
    std::vector<bool> grouped(points.size(), false);
    for (const std::vector<std::size_t> &members : tasks)
        for (const std::size_t i : members)
            grouped[i] = true;
    for (std::size_t i = 0; i < points.size(); ++i)
        if (!grouped[i])
            tasks.push_back({i});
    std::sort(tasks.begin(), tasks.end(),
              [](const auto &a, const auto &b) {
                  return a.front() < b.front();
              });
    return tasks;
}

std::vector<SweepOutcome>
runPointGroup(const std::vector<SweepPoint> &members,
              MultiCacheGroup *prov)
{
    sim_throw_if(members.empty(), ErrCode::BadConfig,
                 "multi-cache group: no members");
    if (members.size() == 1)
        return {runPoint(members[0])};
    const SweepPoint &p0 = members[0];
    for (const SweepPoint &p : members) {
        sim_throw_if(p.machine != p0.machine ||
                     p.workload != p0.workload || p.mode != p0.mode ||
                     p.handlerLen != p0.handlerLen ||
                     p.scale != p0.scale || p.seed != p0.seed ||
                     p.sample != p0.sample,
                     ErrCode::BadConfig,
                     "multi-cache group: members differ in a "
                     "non-geometry input (%s vs %s)",
                     describePoint(p).c_str(),
                     describePoint(p0).c_str());
    }

    std::vector<SweepOutcome> outs(members.size());
    try {
        const isa::Program prog = p0.buildProgram();
        const sample::SampleParams params =
            sample::SampleParams::parse(p0.sample);
        std::vector<pipeline::MachineConfig> cfgs;
        cfgs.reserve(members.size());
        for (const SweepPoint &p : members)
            cfgs.push_back(p.resolveConfig());

        const sample::SharedPassResult shared =
            sample::runSharedGeometryPass(prog, cfgs, params);

        for (std::size_t m = 0; m < members.size(); ++m) {
            outs[m].point = members[m];
            sample::Sampler sampler(prog, cfgs[m], params);
            outs[m].estimate = sampler.runFromSharedPass(
                shared.totals[m], shared.samples[m]);
        }
        if (prov) {
            prov->configs = shared.configs;
            prov->streamLength = shared.streamLength;
            prov->prefetches = shared.prefetches;
            prov->windows = shared.windows;
            prov->shared = true;
        }
    } catch (const SimException &e) {
        // The shared pass refused the group (an ineligible program, a
        // runaway past the instruction budget, ...): run each member
        // on its dedicated path, which reports its own failure in its
        // fragment. An Internal error (an IMO_PARANOID_XCHECK
        // divergence) stays loud.
        if (e.code() == ErrCode::Internal)
            throw;
        for (std::size_t m = 0; m < members.size(); ++m)
            outs[m] = runPoint(members[m]);
        if (prov)
            prov->shared = false;
    }
    return outs;
}

std::vector<SweepOutcome>
runSweep(const std::vector<SweepPoint> &points, unsigned jobs,
         const volatile std::sig_atomic_t *cancel,
         std::vector<std::uint8_t> *completed,
         std::vector<PointTiming> *timings,
         LibrarySharing *sharing, MultiCache *multiCache)
{
    if (timings) {
        timings->clear();
        timings->resize(points.size());
    }
    const auto steady_ms = [] {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    };

    // Every task writes its members' pre-sized slots (outcome, timing,
    // completion flag) directly, so results assemble in point order
    // regardless of scheduling and the report stays byte-identical for
    // any job count.
    std::vector<SweepOutcome> outcomes(points.size());
    if (completed)
        completed->assign(points.size(), 0);

    // Each multi-point task of the plan records its provenance in its
    // own MultiCacheGroup (reserved up front, so the pointers stay
    // valid).
    const std::vector<std::vector<std::size_t>> tasks =
        planTasks(points, multiCache != nullptr);
    std::vector<MultiCacheGroup *> prov(tasks.size(), nullptr);
    if (multiCache) {
        multiCache->groups.clear();
        multiCache->groups.reserve(tasks.size());
        for (std::size_t t = 0; t < tasks.size(); ++t) {
            if (tasks[t].size() > 1) {
                multiCache->groups.push_back({.members = tasks[t]});
                prov[t] = &multiCache->groups.back();
            }
        }
    }

    // Library-sharing plan over the one-point sampled tasks: the first
    // point of each geometry-matching group captures ("leader"), the
    // rest replay ("follower"). Points served by a multi-point task
    // need no functional warming at all, so they opt out.
    enum class Role : std::uint8_t { Independent, Leader, Follower };
    std::vector<Role> role(points.size(), Role::Independent);
    std::vector<std::size_t> leaderOf(points.size(), 0);
    std::vector<std::shared_ptr<const sample::LivePointLibrary>>
        capturedLibs(points.size());
    if (sharing) {
        std::unordered_map<std::string, std::vector<std::size_t>>
            groups;
        for (const std::vector<std::size_t> &members : tasks) {
            if (members.size() == 1 && !points[members[0]].sample.empty())
                groups[libraryKey(points[members[0]])].push_back(
                    members[0]);
        }
        for (const auto &[key, members] : groups) {
            (void)key;
            if (members.size() < 2)
                continue; // nothing to amortize
            role[members[0]] = Role::Leader;
            for (std::size_t m = 1; m < members.size(); ++m) {
                role[members[m]] = Role::Follower;
                leaderOf[members[m]] = members[0];
            }
        }
    }

    // One body for every task. A multi-point task is one shared pass
    // (runPointGroup() falls back to dedicated per-member runs when
    // the pass is refused); a one-point task replays or captures per
    // its role. Leaders retain their capture in their own slot of
    // capturedLibs (pre-sized, no synchronisation needed — same
    // discipline as the timing slots), and phase 1 has joined before
    // any follower reads it.
    const auto makeTask = [&](std::size_t t) {
        return std::function<int()>([&, t] {
            const std::vector<std::size_t> &idx = tasks[t];
            const std::uint64_t t0 = steady_ms();
            const std::uint64_t tid = std::hash<std::thread::id>{}(
                std::this_thread::get_id());
            std::vector<SweepOutcome> outs;
            if (idx.size() > 1) {
                std::vector<SweepPoint> members;
                members.reserve(idx.size());
                for (const std::size_t i : idx)
                    members.push_back(points[i]);
                outs = runPointGroup(members, prov[t]);
            } else {
                const std::size_t i = idx[0];
                std::shared_ptr<const sample::LivePointLibrary> replay;
                if (role[i] == Role::Follower)
                    replay = capturedLibs[leaderOf[i]];
                outs.push_back(runPoint(
                    points[i], replay,
                    role[i] == Role::Leader ? &capturedLibs[i] : nullptr));
            }
            const std::uint64_t t1 = steady_ms();
            for (std::size_t k = 0; k < idx.size(); ++k) {
                outcomes[idx[k]] = std::move(outs[k]);
                if (timings)
                    (*timings)[idx[k]] = PointTiming{t0, t1, tid, true};
                if (completed)
                    (*completed)[idx[k]] = 1;
            }
            return 0;
        });
    };

    // Phase 1: multi-point tasks, leaders, and independents in
    // parallel (captures land in capturedLibs). Phase 2: followers in
    // parallel, replaying. Both queues keep plan order.
    std::vector<std::function<int()>> phase1;
    std::vector<std::function<int()>> phase2;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        const bool follower = role[tasks[t].front()] == Role::Follower;
        (follower ? phase2 : phase1).push_back(makeTask(t));
    }
    runOrdered(phase1, jobs, cancel);

    if (sharing) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (capturedLibs[i])
                ++sharing->captured;
        }
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (role[i] != Role::Follower)
                continue;
            // A leader that failed (or was cancelled) leaves its
            // followers libraryless; they fall back to a full run.
            if (capturedLibs[leaderOf[i]])
                ++sharing->reused;
        }
    }
    if (multiCache) {
        for (const MultiCacheGroup &g : multiCache->groups) {
            if (g.shared)
                multiCache->pointsShared += g.members.size();
        }
    }

    runOrdered(phase2, jobs, cancel);
    return outcomes;
}

namespace
{

void
jsonEscape(std::ostream &os, const std::string &s)
{
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\' << c;
        else
            os << c;
    }
}

} // anonymous namespace

const char *const reportJsonPrefix = "{\"sweep\":{\"points\":[";
const char *const reportJsonSuffix = "]}}\n";

void
writePointJson(std::ostream &os, const SweepOutcome &o)
{
    {
        const SweepPoint &p = o.point;
        const pipeline::RunResult &r = o.result;
        const pipeline::MachineConfig cfg = p.resolveConfig();

        os << "{\"machine\":\"";
        jsonEscape(os, cfg.name);
        os << "\",\"workload\":\"";
        jsonEscape(os, p.workload);
        os << "\",\"mode\":\"" << core::informingModeName(p.mode)
           << "\",\"handler_len\":" << p.handlerLen
           << ",\"scale\":" << p.scale
           << ",\"seed\":" << p.seed
           << ",\"l1_bytes\":" << cfg.l1.sizeBytes
           << ",\"l1_assoc\":" << cfg.l1.assoc
           << ",\"l2_bytes\":" << cfg.l2.sizeBytes
           << ",\"l2_assoc\":" << cfg.l2.assoc
           << ",\"l2_latency\":" << cfg.mem.l2Latency
           << ",\"mem_latency\":" << cfg.mem.memLatency
           << ",\"mshrs\":" << cfg.mem.mshrs
           << ",\"sample\":\"";
        jsonEscape(os, p.sample);
        os << '"';
        if (!p.sample.empty()) {
            const sample::SampleEstimate &e = o.estimate;
            os << ",\"ok\":" << (e.ok ? "true" : "false");
            if (!e.ok) {
                os << ",\"error\":\"";
                jsonEscape(os, e.error.message);
                os << '"';
            }
            os << ",\"windows\":" << e.windows
               << ",\"passes\":" << e.passes
               << ",\"cpi_mean\":" << e.cpiMean
               << ",\"cpi_ci95\":" << e.cpiCi95
               << ",\"est_cycles\":" << e.estCycles()
               << ",\"instructions\":" << e.instructions
               << ",\"ipc\":" << e.ipcMean()
               << ",\"data_refs\":" << e.dataRefs
               << ",\"l1_misses\":" << e.l1Misses
               << ",\"traps\":" << e.traps
               << ",\"miss_rate_mean\":" << e.missRateMean
               << ",\"miss_rate_ci95\":" << e.missRateCi95
               << ",\"exact_miss_rate\":" << e.exactMissRate()
               << ",\"detailed_instructions\":"
               << e.detailedInstructions << '}';
            return;
        }
        os << ",\"ok\":" << (r.ok ? "true" : "false");
        if (!r.ok) {
            os << ",\"error\":\"";
            jsonEscape(os, r.error.message);
            os << '"';
        }
        os << ",\"cycles\":" << r.cycles
           << ",\"instructions\":" << r.instructions
           << ",\"ipc\":" << r.ipc()
           << ",\"data_refs\":" << r.dataRefs
           << ",\"l1_misses\":" << r.l1Misses
           << ",\"traps\":" << r.traps
           << ",\"replay_traps\":" << r.replayTraps
           << ",\"cond_branches\":" << r.condBranches
           << ",\"mispredicts\":" << r.mispredicts
           << ",\"cache_stall_slots\":" << r.cacheStallSlots
           << ",\"other_stall_slots\":" << r.otherStallSlots
           << ",\"handler_instructions\":" << r.handlerInstructions
           << ",\"mshr_full_rejects\":" << r.mshrFullRejects
           << ",\"bank_conflicts\":" << r.bankConflicts
           << '}';
    }
}

void
writeReportJson(std::ostream &os,
                const std::vector<SweepOutcome> &outcomes)
{
    os << reportJsonPrefix;
    bool first_point = true;
    for (const SweepOutcome &o : outcomes) {
        if (!first_point)
            os << ',';
        first_point = false;
        writePointJson(os, o);
    }
    os << reportJsonSuffix;
}

std::string
describePoint(const SweepPoint &point)
{
    const pipeline::MachineConfig cfg = point.resolveConfig();
    std::string desc = simFormat(
        "%s %s mode=%s len=%u scale=%g L1=%lluKB/%u-way "
        "l2lat=%llu memlat=%llu mshrs=%u",
        cfg.name.c_str(), point.workload.c_str(),
        core::informingModeName(point.mode), point.handlerLen,
        point.scale,
        static_cast<unsigned long long>(cfg.l1.sizeBytes / 1024),
        cfg.l1.assoc,
        static_cast<unsigned long long>(cfg.mem.l2Latency),
        static_cast<unsigned long long>(cfg.mem.memLatency),
        cfg.mem.mshrs);
    if (!point.sample.empty())
        desc += simFormat(" sample=%s", point.sample.c_str());
    return desc;
}

} // namespace imo::sweep
