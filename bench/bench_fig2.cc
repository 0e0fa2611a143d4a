/**
 * @file
 * Figure 2 reproduction: performance of generic miss handlers (1 and
 * 10 instructions) across the thirteen regular SPEC92-like benchmarks
 * on both processor models.
 *
 * For every benchmark and machine, five bars are reported exactly as
 * in the paper: N (no informing operations), S (single miss handler)
 * and U (unique handler per static reference) for both handler sizes.
 * Each bar is the execution time normalized to N, decomposed into
 * busy / cache-stall / other-stall graduation slots.
 *
 * The grid runs on the sweep engine: every (machine, benchmark, bar)
 * cell is an isolated simulation dispatched to a worker pool
 * (IMO_SWEEP_JOBS, default: hardware concurrency), and the table is
 * printed from the ordered results — output is identical to the
 * sequential driver for any job count.
 */

#include "harness.hh"
#include "sweep/engine.hh"

int
main()
{
    using namespace imo;
    using namespace imo::bench;

    std::printf("== Figure 2: generic miss handlers, 1 and 10 "
                "instructions ==\n");
    const auto ooo = pipeline::makeOutOfOrderConfig();
    const auto ino = pipeline::makeInOrderConfig();
    printMachineHeader(ooo);
    printMachineHeader(ino);
    std::printf("\n");

    // One task per (machine, benchmark, bar) cell, in print order.
    struct Cell
    {
        const pipeline::MachineConfig *machine;
        const workloads::BenchmarkInfo *bm;
        const FigConfig *fc;
    };
    std::vector<Cell> cells;
    for (const auto *machine : {&ooo, &ino}) {
        for (const auto &bm : workloads::suite()) {
            if (bm.name == "su2cor")
                continue;  // shown separately (Figure 3)
            for (const FigConfig &fc : fig2Configs)
                cells.push_back(Cell{machine, &bm, &fc});
        }
    }
    std::vector<std::function<pipeline::RunResult()>> tasks;
    tasks.reserve(cells.size());
    for (const Cell &cell : cells) {
        tasks.emplace_back([cell] {
            const isa::Program base = cell.bm->build({});
            return runConfig(base, *cell.fc, *cell.machine);
        });
    }
    const std::vector<pipeline::RunResult> results =
        sweep::runOrdered(tasks, jobsFromEnv());

    std::size_t i = 0;
    for (const auto &machine : {ooo, ino}) {
        TextTable table("Figure 2, " + machine.name);
        table.header({"benchmark", "bar", "norm.time", "busy",
                      "cache-stall", "other-stall", "insts", "traps"});

        for (const auto &bm : workloads::suite()) {
            if (bm.name == "su2cor")
                continue;

            Cycle baseline = 0;
            for (const FigConfig &fc : fig2Configs) {
                const pipeline::RunResult &r = results[i++];
                if (fc.mode == core::InformingMode::None)
                    baseline = r.cycles;
                auto bars = barCells(r, baseline);
                table.row({bm.name, fc.label, bars[0], bars[1],
                           bars[2], bars[3],
                           std::to_string(r.instructions),
                           std::to_string(r.traps)});
            }
        }
        table.print(std::cout);
        std::printf("\n");
    }

    std::printf("paper check: execution overhead stays below ~40%% for "
                "these thirteen benchmarks (tomcatv's in-order 10-"
                "instruction case is the noted exception).\n");
    return 0;
}
