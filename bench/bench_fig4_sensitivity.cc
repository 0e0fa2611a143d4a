/**
 * @file
 * Section 4.3.2 sensitivity study: "either smaller network latencies
 * or larger primary cache sizes tend to improve the relative
 * performance of the informing memory implementation."
 *
 * Every machine run of the three tables is one cell on the sweep
 * engine's ordered worker pool (IMO_SWEEP_JOBS, default: hardware
 * concurrency); each cell constructs its own CoherentMachine and the
 * tables are printed from the ordered results, so output is identical
 * for any job count.
 */

#include <cstdio>
#include <iostream>

#include "coherence/kernels.hh"
#include "common/table.hh"
#include "harness.hh"
#include "sweep/engine.hh"

namespace
{

using namespace imo;
using namespace imo::coherence;

/** One machine run: a kernel under one machine and method. */
struct Cell
{
    CoherenceParams params;
    AccessMethod method;
    const ParallelWorkload *workload;
};

constexpr AccessMethod sweptMethods[] = {AccessMethod::ReferenceCheck,
                                         AccessMethod::EccFault,
                                         AccessMethod::Informing};

/** Queue one sweep point: every kernel under each swept method. */
void
addPoint(std::vector<Cell> &cells, const CoherenceParams &cp,
         const std::vector<ParallelWorkload> &kernels)
{
    for (const auto &wl : kernels) {
        for (const AccessMethod method : sweptMethods)
            cells.push_back({cp, method, &wl});
    }
}

/**
 * Consume one sweep point's execution times from @p t (advanced past
 * them): the mean advantage of informing over the two alternatives.
 */
void
takePoint(const Cycle *&t, std::size_t kernels, double &ref_over_inf,
          double &ecc_over_inf)
{
    double sr = 0, se = 0;
    for (std::size_t k = 0; k < kernels; ++k, t += 3) {
        sr += static_cast<double>(t[0]) / t[2];
        se += static_cast<double>(t[1]) / t[2];
    }
    ref_over_inf = sr / kernels;
    ecc_over_inf = se / kernels;
}

} // namespace

int
main()
{
    std::printf("== Section 4.3.2 sensitivity: network latency and L1 "
                "size ==\n\n");

    KernelParams kp;
    kp.scale = 0.5;
    const auto kernels = makeAllKernels(kp);

    const Cycle latencies[] = {300, 600, 900, 1500, 3000};
    const std::uint64_t l1Kbs[] = {4, 8, 16, 32, 64};

    // Queue every run in print order: the latency sweep, the L1 sweep,
    // then per kernel {ECC, informing} x {centralized, distributed}.
    std::vector<Cell> cells;
    for (const Cycle lat : latencies) {
        CoherenceParams cp;
        cp.messageLatency = lat;
        addPoint(cells, cp, kernels);
    }
    for (const std::uint64_t kb : l1Kbs) {
        CoherenceParams cp;
        cp.l1.sizeBytes = kb * 1024;
        addPoint(cells, cp, kernels);
    }
    CoherenceParams central;
    CoherenceParams dist;
    dist.distributedHomes = true;
    for (const auto &wl : kernels) {
        for (const AccessMethod m : {AccessMethod::EccFault,
                                     AccessMethod::Informing}) {
            cells.push_back({central, m, &wl});
            cells.push_back({dist, m, &wl});
        }
    }

    std::vector<std::function<Cycle()>> tasks;
    tasks.reserve(cells.size());
    for (const Cell &cell : cells) {
        tasks.emplace_back([&cell] {
            CoherentMachine machine(cell.params, cell.method);
            return machine.run(*cell.workload).execTime;
        });
    }
    const std::vector<Cycle> times =
        sweep::runOrdered(tasks, bench::jobsFromEnv());
    const Cycle *t = times.data();

    {
        TextTable table("one-way message latency sweep (16KB L1)");
        table.header({"latency", "ref/informing", "ecc/informing"});
        for (const Cycle lat : latencies) {
            double r, e;
            takePoint(t, kernels.size(), r, e);
            table.row({std::to_string(lat), TextTable::num(r, 3),
                       TextTable::num(e, 3)});
        }
        table.print(std::cout);
        std::printf("\n");
    }

    {
        TextTable table("primary cache size sweep (900-cycle messages)");
        table.header({"L1 size", "ref/informing", "ecc/informing"});
        for (const std::uint64_t kb : l1Kbs) {
            double r, e;
            takePoint(t, kernels.size(), r, e);
            table.row({std::to_string(kb) + "KB", TextTable::num(r, 3),
                       TextTable::num(e, 3)});
        }
        table.print(std::cout);
        std::printf("\n");
    }

    {
        TextTable table("network model: centralized round trips vs. "
                        "3-hop distributed homes");
        table.header({"kernel", "central ecc/inf", "dist ecc/inf",
                      "informing speedup central->dist"});
        for (const auto &wl : kernels) {
            // t: ECC central, ECC dist, informing central, informing
            // dist.
            table.row({wl.name,
                       TextTable::num(static_cast<double>(t[0]) / t[2],
                                      3),
                       TextTable::num(static_cast<double>(t[1]) / t[3],
                                      3),
                       TextTable::num(static_cast<double>(t[2]) / t[3],
                                      3)});
            t += 4;
        }
        table.print(std::cout);
    }

    std::printf("\npaper check: the informing scheme's advantage grows "
                "as messages get faster (its cheap handlers matter "
                "more) and as the primary cache grows (fewer benign "
                "misses pay the lookup).\n");
    return 0;
}
