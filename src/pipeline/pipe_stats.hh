/**
 * @file
 * PipeStats: the push-side stats both timing models update on their
 * hot path. RunResult's per-run figures are *derived* from this
 * registry (see CpuCore::result()) rather than
 * maintained in a parallel set of hand-threaded fields, and the whole
 * group round-trips through checkpoints name-checked, so a resumed
 * run's final stats match an uninterrupted run bit-identically.
 */

#ifndef IMO_PIPELINE_PIPE_STATS_HH
#define IMO_PIPELINE_PIPE_STATS_HH

#include "common/checkpoint.hh"
#include "common/stats.hh"

namespace imo::pipeline
{

struct PipeStats
{
    stats::StatGroup group{"retire"};

    stats::Counter dataRefs{group, "data_refs",
                            "data references consumed by the timing model"};
    stats::Counter l1Misses{group, "l1_misses", "primary-cache misses"};
    stats::Counter traps{group, "traps", "informing miss traps dispatched"};
    stats::Counter replayTraps{group, "replay_traps",
                               "hit-shadow replay traps (in-order model)"};
    stats::Counter condBranches{group, "cond_branches",
                                "conditional branches resolved"};
    stats::Counter mispredicts{group, "mispredicts",
                               "mispredicted branches (incl. taken BRMISS)"};
    stats::Counter handlerInstructions{group, "handler_instructions",
                                       "instructions retired inside miss "
                                       "handlers"};
    stats::Histogram trapService{group, "trap_service",
                                 "informing trap dispatch to RETMH "
                                 "completion, cycles", 16, 4};

    void save(Serializer &s) const { group.save(s); }
    void restore(Deserializer &d) { group.restore(d); }
};

} // namespace imo::pipeline

#endif // IMO_PIPELINE_PIPE_STATS_HH
