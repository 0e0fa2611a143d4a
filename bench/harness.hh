/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 */

#ifndef IMO_BENCH_HARNESS_HH
#define IMO_BENCH_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "common/table.hh"
#include "core/informing.hh"
#include "pipeline/simulate.hh"
#include "workloads/suite.hh"

namespace imo::bench
{

/**
 * Worker count for harnesses that run their grid on the sweep engine:
 * IMO_SWEEP_JOBS when it is a positive number, else the hardware
 * concurrency. Results are identical for any count.
 */
inline unsigned
jobsFromEnv()
{
    if (const char *env = std::getenv("IMO_SWEEP_JOBS")) {
        const unsigned n =
            static_cast<unsigned>(std::strtoul(env, nullptr, 10));
        if (n)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/** One Figure-2-style configuration: mode + generic handler length. */
struct FigConfig
{
    const char *label;
    core::InformingMode mode;
    std::uint32_t handlerLength;
};

/** The five bars of Figures 2-3: N, S/U x 1/10-instruction handlers. */
inline const FigConfig fig2Configs[] = {
    {"N", core::InformingMode::None, 1},
    {"S-1", core::InformingMode::TrapSingle, 1},
    {"U-1", core::InformingMode::TrapUnique, 1},
    {"S-10", core::InformingMode::TrapSingle, 10},
    {"U-10", core::InformingMode::TrapUnique, 10},
};

/** Run one benchmark in one informing configuration on one machine. */
inline pipeline::RunResult
runConfig(const isa::Program &base, const FigConfig &fc,
          const pipeline::MachineConfig &machine)
{
    const isa::Program prog =
        core::instrument(base, fc.mode,
                         {.length = fc.handlerLength});
    return pipeline::simulate(prog, machine);
}

/** Print the machine's Table-1 parameters (provenance header). */
inline void
printMachineHeader(const pipeline::MachineConfig &m)
{
    std::printf("machine %s: %u-wide, %s, L1 %lluKB/%u-way, "
                "L2 %lluKB/%u-way, L2 lat %llu, mem lat %llu, "
                "%u MSHRs, %u banks\n",
                m.name.c_str(), m.issueWidth,
                m.outOfOrder ? "out-of-order (ROB 32)" : "in-order",
                static_cast<unsigned long long>(m.l1.sizeBytes / 1024),
                m.l1.assoc,
                static_cast<unsigned long long>(m.l2.sizeBytes / 1024),
                m.l2.assoc,
                static_cast<unsigned long long>(m.mem.l2Latency),
                static_cast<unsigned long long>(m.mem.memLatency),
                m.mem.mshrs, m.mem.banks);
}

/**
 * Format the paper's stacked-bar decomposition: total normalized time
 * split into busy / cache-stall / other-stall graduation slots, all
 * relative to the baseline's cycle count.
 */
inline std::vector<std::string>
barCells(const pipeline::RunResult &r, Cycle baseline_cycles)
{
    const double scale =
        static_cast<double>(r.cycles) / baseline_cycles;
    return {TextTable::num(scale, 3),
            TextTable::num(scale * r.busyFraction(), 3),
            TextTable::num(scale * r.cacheStallFraction(), 3),
            TextTable::num(scale * r.otherStallFraction(), 3)};
}

} // namespace imo::bench

#endif // IMO_BENCH_HARNESS_HH
