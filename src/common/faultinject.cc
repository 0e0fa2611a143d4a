#include "common/faultinject.hh"

#include <cstdlib>

#include "common/checkpoint.hh"
#include "common/error.hh"

namespace imo
{

const char *
faultPointName(FaultPoint point)
{
    switch (point) {
      case FaultPoint::MemLatencySpike: return "mem-latency-spike";
      case FaultPoint::MshrExhaustion: return "mshr-exhaustion";
      case FaultPoint::MispredictStorm: return "mispredict-storm";
      case FaultPoint::StuckFill: return "stuck-fill";
      case FaultPoint::HardFault: return "hard-fault";
      case FaultPoint::DroppedInvalidation: return "dropped-inval";
      case FaultPoint::DelayedAck: return "delayed-ack";
      case FaultPoint::WorkerKill: return "worker-kill";
      case FaultPoint::WorkerStall: return "worker-stall";
      case FaultPoint::DroppedResult: return "dropped-result";
      case FaultPoint::StoreBitFlip: return "store-bit-flip";
      case FaultPoint::LeaseWriteFail: return "lease-write-fail";
      case FaultPoint::ConnDrop: return "conn-drop";
      case FaultPoint::ConnStutter: return "conn-stutter";
      case FaultPoint::HandshakeCorrupt: return "handshake-corrupt";
      case FaultPoint::NumPoints: break;
    }
    return "?";
}

bool
faultPointFromName(const std::string &name, FaultPoint *out)
{
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        const auto point = static_cast<FaultPoint>(i);
        if (name == faultPointName(point)) {
            if (out)
                *out = point;
            return true;
        }
    }
    return false;
}

bool
parseFaultSpec(const std::string &spec, FaultSchedule &schedule)
{
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size())
        return false;
    FaultPoint point;
    if (!faultPointFromName(spec.substr(0, eq), &point))
        return false;
    char *end = nullptr;
    const double prob = std::strtod(spec.c_str() + eq + 1, &end);
    // Written so that a NaN ("nan") fails the range test too.
    if (end == nullptr || *end != '\0' || !(prob >= 0.0 && prob <= 1.0))
        return false;
    schedule.setProbability(point, prob);
    return true;
}

double
FaultSchedule::probabilityOf(FaultPoint point) const
{
    switch (point) {
      case FaultPoint::MemLatencySpike: return memLatencySpike;
      case FaultPoint::MshrExhaustion: return mshrExhaustion;
      case FaultPoint::MispredictStorm: return mispredictStorm;
      case FaultPoint::StuckFill: return stuckFill;
      case FaultPoint::HardFault: return hardFault;
      case FaultPoint::DroppedInvalidation: return droppedInvalidation;
      case FaultPoint::DelayedAck: return delayedAck;
      case FaultPoint::WorkerKill: return workerKill;
      case FaultPoint::WorkerStall: return workerStall;
      case FaultPoint::DroppedResult: return droppedResult;
      case FaultPoint::StoreBitFlip: return storeBitFlip;
      case FaultPoint::LeaseWriteFail: return leaseWriteFail;
      case FaultPoint::ConnDrop: return connDrop;
      case FaultPoint::ConnStutter: return connStutter;
      case FaultPoint::HandshakeCorrupt: return handshakeCorrupt;
      case FaultPoint::NumPoints: break;
    }
    return 0.0;
}

void
FaultSchedule::setProbability(FaultPoint point, double p)
{
    switch (point) {
      case FaultPoint::MemLatencySpike: memLatencySpike = p; return;
      case FaultPoint::MshrExhaustion: mshrExhaustion = p; return;
      case FaultPoint::MispredictStorm: mispredictStorm = p; return;
      case FaultPoint::StuckFill: stuckFill = p; return;
      case FaultPoint::HardFault: hardFault = p; return;
      case FaultPoint::DroppedInvalidation:
        droppedInvalidation = p;
        return;
      case FaultPoint::DelayedAck: delayedAck = p; return;
      case FaultPoint::WorkerKill: workerKill = p; return;
      case FaultPoint::WorkerStall: workerStall = p; return;
      case FaultPoint::DroppedResult: droppedResult = p; return;
      case FaultPoint::StoreBitFlip: storeBitFlip = p; return;
      case FaultPoint::LeaseWriteFail: leaseWriteFail = p; return;
      case FaultPoint::ConnDrop: connDrop = p; return;
      case FaultPoint::ConnStutter: connStutter = p; return;
      case FaultPoint::HandshakeCorrupt: handshakeCorrupt = p; return;
      case FaultPoint::NumPoints: break;
    }
}

bool
FaultSchedule::any() const
{
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        if (probabilityOf(static_cast<FaultPoint>(i)) > 0.0)
            return true;
    }
    return false;
}

FaultInjector::FaultInjector(const FaultSchedule &schedule)
    : _enabled(schedule.any()), _schedule(schedule)
{
    // One independent stream per point: the golden-ratio stride keeps
    // the expanded seeds distinct even for small consecutive seeds.
    for (std::size_t i = 0; i < numFaultPoints; ++i)
        _rng[i] = Rng(schedule.seed + 0x9e3779b97f4a7c15ull * (i + 1));
}

std::uint64_t
FaultInjector::totalFired() const
{
    std::uint64_t total = 0;
    for (const std::uint64_t c : _count)
        total += c;
    return total;
}

std::string
FaultInjector::summary() const
{
    std::string out;
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        if (_count[i] == 0)
            continue;
        if (!out.empty())
            out += ", ";
        out += simFormat("%s=%llu",
                         faultPointName(static_cast<FaultPoint>(i)),
                         static_cast<unsigned long long>(_count[i]));
    }
    return out.empty() ? "none" : out;
}

void
FaultInjector::save(Serializer &s) const
{
    s.b(_enabled);
    s.u64(_schedule.seed);
    s.u32(static_cast<std::uint32_t>(numFaultPoints));
    for (std::size_t i = 0; i < numFaultPoints; ++i)
        s.f64(_schedule.probabilityOf(static_cast<FaultPoint>(i)));
    s.u64(_schedule.spikeCycles);
    s.u64(_schedule.stuckCycles);
    s.u64(_schedule.ackDelayCycles);
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        std::uint64_t words[4];
        _rng[i].saveState(words);
        for (const std::uint64_t w : words)
            s.u64(w);
        s.u64(_count[i]);
    }
}

void
FaultInjector::restore(Deserializer &d)
{
    _enabled = d.b();
    _schedule.seed = d.u64();
    const std::uint32_t points = d.u32();
    sim_throw_if(points != numFaultPoints, ErrCode::BadCheckpoint,
                 "checkpoint has %u fault-injection points, this build "
                 "has %zu", points, numFaultPoints);
    for (std::size_t i = 0; i < numFaultPoints; ++i)
        _schedule.setProbability(static_cast<FaultPoint>(i), d.f64());
    _schedule.spikeCycles = d.u64();
    _schedule.stuckCycles = d.u64();
    _schedule.ackDelayCycles = d.u64();
    for (std::size_t i = 0; i < numFaultPoints; ++i) {
        std::uint64_t words[4];
        for (std::uint64_t &w : words)
            w = d.u64();
        _rng[i].restoreState(words);
        _count[i] = d.u64();
    }
}

} // namespace imo
