#include "pipeline/config.hh"

#include "common/error.hh"

namespace imo::pipeline
{

namespace
{

bool
powerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // anonymous namespace

std::vector<std::string>
MachineConfig::check() const
{
    std::vector<std::string> issues;
    auto bad = [&](std::string text) { issues.push_back(std::move(text)); };

    if (issueWidth == 0)
        bad("issue width is zero");
    else if (issueWidth > 64)
        bad(simFormat("issue width %u is unreasonably large", issueWidth));
    if (outOfOrder && robSize == 0)
        bad("out-of-order machine with an empty reorder buffer");
    // Only in order may memory operations share the integer units.
    if (outOfOrder && fus.memUnits == 0)
        bad("out-of-order machine with no memory unit");
    if (fus.intUnits == 0)
        bad("no integer units");
    if (fus.fpUnits == 0)
        bad("no floating-point units");
    if (fus.branchUnits == 0)
        bad("no branch units");
    if (!powerOfTwo(predictorEntries))
        bad(simFormat("predictor table size %u is not a power of two",
                      predictorEntries));
    if (!powerOfTwo(btbEntries))
        bad(simFormat("BTB size %u is not a power of two", btbEntries));
    if (maxInstructions == 0)
        bad("instruction budget (maxInstructions) is zero");

    std::string why;
    if (!l1.wellFormed(&why))
        bad(simFormat("L1 %s", why.c_str()));
    if (!l2.wellFormed(&why))
        bad(simFormat("L2 %s", why.c_str()));

    if (mem.banks == 0)
        bad("timing memory system has zero banks");
    if (!powerOfTwo(mem.lineBytes))
        bad(simFormat("timing line size %u is not a power of two",
                      mem.lineBytes));
    if (mem.mshrs == 0)
        bad("MSHR file has zero entries");

    // Cross-parameter consistency: the timing model and the functional
    // reference hierarchy must agree on the transfer unit, and a
    // memory access cannot be faster than a secondary hit.
    if (powerOfTwo(mem.lineBytes) && l1.wellFormed()) {
        if (mem.lineBytes != l1.lineBytes)
            bad(simFormat("timing line size %u differs from functional "
                          "L1 line size %u", mem.lineBytes, l1.lineBytes));
    }
    if (l1.wellFormed() && l2.wellFormed() &&
        l1.lineBytes != l2.lineBytes) {
        bad(simFormat("L1 line size %u differs from L2 line size %u",
                      l1.lineBytes, l2.lineBytes));
    }
    if (mem.memLatency < mem.l2Latency)
        bad(simFormat("memory latency %llu below secondary latency %llu",
                      static_cast<unsigned long long>(mem.memLatency),
                      static_cast<unsigned long long>(mem.l2Latency)));

    return issues;
}

void
MachineConfig::validate() const
{
    const std::vector<std::string> issues = check();
    if (issues.empty())
        return;
    SimException ex(ErrCode::BadConfig,
                    simFormat("machine config '%s': %s", name.c_str(),
                              issues.front().c_str()));
    for (std::size_t i = 1; i < issues.size(); ++i)
        ex.withContext(issues[i]);
    throw ex;
}

MachineConfig
makeOutOfOrderConfig()
{
    MachineConfig c;
    c.name = "ooo-r10k";
    c.outOfOrder = true;
    c.issueWidth = 4;
    c.robSize = 32;
    c.fus = FuPool{.intUnits = 2, .fpUnits = 2, .branchUnits = 1,
                   .memUnits = 1};
    c.lat = LatencyTable{.intAlu = 1, .intMul = 12, .intDiv = 76,
                         .fpAlu = 2, .fpDiv = 15, .fpSqrt = 20};

    c.l1 = memory::CacheGeometry{.sizeBytes = 32 * 1024, .lineBytes = 32,
                                 .assoc = 2};
    c.l2 = memory::CacheGeometry{.sizeBytes = 2 * 1024 * 1024,
                                 .lineBytes = 32, .assoc = 2};
    c.mem = memory::TimingMemoryParams{.lineBytes = 32,
                                       .l1HitLatency = 2,
                                       .l2Latency = 12,
                                       .memLatency = 75,
                                       .mshrs = 8,
                                       .banks = 2,
                                       .fillCycles = 4,
                                       .memBandwidth = 20};
    return c;
}

MachineConfig
makeInOrderConfig()
{
    MachineConfig c;
    c.name = "inorder-21164";
    c.outOfOrder = false;
    c.issueWidth = 4;
    c.fus = FuPool{.intUnits = 2, .fpUnits = 2, .branchUnits = 1,
                   .memUnits = 0};
    c.lat = LatencyTable{.intAlu = 1, .intMul = 12, .intDiv = 76,
                         .fpAlu = 4, .fpDiv = 17, .fpSqrt = 20};

    c.l1 = memory::CacheGeometry{.sizeBytes = 8 * 1024, .lineBytes = 32,
                                 .assoc = 1};
    c.l2 = memory::CacheGeometry{.sizeBytes = 2 * 1024 * 1024,
                                 .lineBytes = 32, .assoc = 4};
    c.mem = memory::TimingMemoryParams{.lineBytes = 32,
                                       .l1HitLatency = 2,
                                       .l2Latency = 11,
                                       .memLatency = 50,
                                       .mshrs = 8,
                                       .banks = 2,
                                       .fillCycles = 4,
                                       .memBandwidth = 20};
    return c;
}

} // namespace imo::pipeline
