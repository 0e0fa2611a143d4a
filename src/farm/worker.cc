#include "farm/worker.hh"

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "core/informing.hh"
#include "farm/transport.hh"
#include "pipeline/inorder/cpu.hh"
#include "pipeline/ooo/cpu.hh"
#include "sample/livepoint.hh"
#include "sweep/engine.hh"
#include "sweep/sweep.hh"
#include "workloads/suite.hh"

namespace imo::farm
{

namespace
{

/** Wall-clock milliseconds (steady), for worker-side timings. */
std::uint64_t
steadyMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Frame writer shared by the session's main loop and its heartbeat
 * side thread (frames must never interleave mid-frame), with the
 * network fault points injected per send.
 */
class Writer
{
  public:
    Writer(int wfd, bool isSocket, FaultInjector &inject)
        : _wfd(wfd), _socket(isSocket), _inject(inject)
    {
    }

    /** Send one whole frame; may fire conn-drop / conn-stutter. */
    void
    send(FrameType type, const std::vector<std::uint8_t> &payload)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        const std::vector<std::uint8_t> bytes =
            buildFrame(type, payload);
        if (_inject.fire(FaultPoint::ConnDrop)) {
            // The link dies mid-frame: half the bytes make it out,
            // then the connection is torn down. The coordinator sees
            // a dirty EOF; the daemon reconnects.
            writeAll(bytes.data(), bytes.size() / 2);
            if (_socket)
                ::shutdown(_wfd, SHUT_RDWR);
            else
                ::close(_wfd);
            throwSimError(ErrCode::WorkerLost,
                          "farm worker: injected conn-drop mid-frame");
        }
        if (_inject.fire(FaultPoint::ConnStutter)) {
            // One byte per write(), with a forced segment boundary
            // after the first: the coordinator must reassemble the
            // frame from arbitrary fragments.
            for (std::size_t i = 0; i < bytes.size(); ++i) {
                writeAll(bytes.data() + i, 1);
                if (i == 0)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
            return;
        }
        writeAll(bytes.data(), bytes.size());
    }

    /** Send pre-built frame bytes verbatim (handshake path, where the
     *  caller may have corrupted them deliberately). */
    void
    sendRaw(const std::vector<std::uint8_t> &bytes)
    {
        std::lock_guard<std::mutex> lock(_mutex);
        writeAll(bytes.data(), bytes.size());
    }

  private:
    void
    writeAll(const std::uint8_t *data, std::size_t len)
    {
        std::size_t done = 0;
        while (done < len) {
            const ssize_t n =
                _socket ? ::send(_wfd, data + done, len - done,
                                 MSG_NOSIGNAL)
                        : ::write(_wfd, data + done, len - done);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                throwSimError(ErrCode::WorkerLost,
                              "farm worker: write failed: %s",
                              std::strerror(errno));
            }
            done += static_cast<std::size_t>(n);
        }
    }

    std::mutex _mutex;
    int _wfd;
    bool _socket;
    FaultInjector &_inject;
};

enum class Wait : std::uint8_t
{
    GotFrame,
    Eof,
    Stopped,
};

/** Block for the next frame, polling @p stop every 200ms. */
Wait
waitFrame(int rfd, Frame *out, const volatile std::sig_atomic_t *stop)
{
    for (;;) {
        if (stop && *stop)
            return Wait::Stopped;
        struct pollfd pfd = {rfd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, 200);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            throwSimError(ErrCode::WorkerLost,
                          "farm worker: poll failed: %s",
                          std::strerror(errno));
        }
        if (rc == 0)
            continue;
        return readFrame(rfd, out) ? Wait::GotFrame : Wait::Eof;
    }
}

/**
 * Injected stall: go silent until the coordinator gives up on us (it
 * SIGKILLs local workers and closes remote sockets). A remote worker
 * recovers by reconnecting once the peer is gone.
 */
[[noreturn]] void
hangUntilPeerGone(int rfd, const volatile std::sig_atomic_t *stop)
{
    for (;;) {
        if (stop && *stop)
            throwSimError(ErrCode::Interrupted,
                          "farm worker: interrupted while stalled");
        struct pollfd pfd = {rfd, 0, 0};
        const int rc = ::poll(&pfd, 1, 500);
        if (rc > 0 && (pfd.revents & (POLLHUP | POLLERR)))
            throwSimError(ErrCode::WorkerLost,
                          "farm worker: coordinator dropped a stalled "
                          "worker");
    }
}

/**
 * Executes Window tasks, caching the expensive per-point setup — the
 * instrumented program, machine config, and the executor inside the
 * WindowRunner — across consecutive leases of the same sweep point.
 * The coordinator shards one capture's windows across workers, so a
 * session typically sees a long run of leases whose point is
 * identical; rebuilding the workload and instrumenting it per window
 * would rival the window itself. Each run() is still a pure function
 * of the lease bytes (restoreExecImage() overwrites all executor
 * state), so shards of one capture produce identical samples wherever
 * they run; restoreExecImage() rejects images whose program
 * fingerprint disagrees with the rebuilt program (deterministic
 * BadCheckpoint).
 */
class WindowLeaseRunner
{
  public:
    sample::WindowSample
    run(const Task &task)
    {
        if (!_ready || !(task.points.front() == _point))
            rebuild(task.points.front());
        sample::LivePoint point;
        point.warmImage = task.warmImage;
        point.execImage = task.execImage;
        return _cfg.outOfOrder
                   ? _ooo->run(point, _sp.warmup, _sp.measure)
                   : _inorder->run(point, _sp.warmup, _sp.measure);
    }

  private:
    void
    rebuild(const sweep::SweepPoint &p)
    {
        _ready = false;
        _ooo.reset();
        _inorder.reset();
        _point = p;
        _cfg = p.resolveConfig();
        _sp = sample::SampleParams::parse(p.sample);
        workloads::WorkloadParams wp;
        wp.scale = p.scale;
        wp.seed = p.seed;
        const isa::Program prog =
            core::instrument(workloads::build(p.workload, wp), p.mode,
                             {.length = p.handlerLen});
        // The runner keeps a reference to the config, so it must point
        // at the stable member, not a local.
        if (_cfg.outOfOrder)
            _ooo.emplace(prog, _cfg);
        else
            _inorder.emplace(prog, _cfg);
        _ready = true;
    }

    bool _ready = false;
    sweep::SweepPoint _point;
    pipeline::MachineConfig _cfg;
    sample::SampleParams _sp;
    std::optional<sample::WindowRunner<pipeline::OooCpu>> _ooo;
    std::optional<sample::WindowRunner<pipeline::InOrderCpu>> _inorder;
};

/** A finished task: its Result bytes and its Stats frame. */
struct TaskOutput
{
    std::vector<std::uint8_t> bytes;
    StatsMsg stats;
};

/**
 * Run one task. A Points task answers with a fragment bundle (one
 * report fragment per member); a Window task answers with the
 * fixed-width WindowSample encoding, which the coordinator folds into
 * the point's estimate itself. The stats carry simulated cycles and
 * instructions (zeros for a sampled point, whose result is an
 * estimate); the result bytes stay the only source of truth for the
 * merged report.
 */
TaskOutput
runTask(const Task &task, WindowLeaseRunner &windows)
{
    TaskOutput out;
    std::uint64_t cycles = 0, instructions = 0;
    const std::uint64_t t0 = steadyMs();
    std::uint64_t t1 = t0;
    if (task.kind == Task::Kind::Window) {
        const sample::WindowSample ws = windows.run(task);
        t1 = steadyMs();
        const std::string text = sample::encodeWindowSample(ws);
        out.bytes.assign(text.begin(), text.end());
        cycles = ws.cycles;
        instructions = ws.measured;
    } else {
        const std::vector<sweep::SweepOutcome> outcomes =
            sweep::runPointGroup(task.points);
        t1 = steadyMs();
        std::vector<std::vector<std::uint8_t>> frags;
        frags.reserve(outcomes.size());
        for (const sweep::SweepOutcome &o : outcomes) {
            std::ostringstream one;
            sweep::writePointJson(one, o);
            const std::string text = one.str();
            frags.emplace_back(text.begin(), text.end());
            cycles += o.result.cycles;
            instructions += o.result.instructions;
        }
        out.bytes = encodeFragmentBundle(frags);
    }
    out.stats.simulateMs = t1 - t0;
    out.stats.serializeMs = steadyMs() - t1;
    out.stats.statsJson = simFormat(
        "{\"cycles\":%llu,\"instructions\":%llu}",
        static_cast<unsigned long long>(cycles),
        static_cast<unsigned long long>(instructions));
    return out;
}

} // anonymous namespace

SessionEnd
serveSession(int rfd, int wfd, const SessionParams &params,
             FaultInjector &inject,
             const volatile std::sig_atomic_t *stop, bool *admitted)
{
    const bool is_socket = rfd == wfd;
    Writer writer(wfd, is_socket, inject);

    std::string run_id;
    const auto event = [&](const char *name, std::uint64_t slot,
                           std::string detail = {}) {
        if (params.onEvent)
            params.onEvent(
                SessionEvent{name, slot, run_id, std::move(detail)});
    };

    // --- Admission handshake ----------------------------------------
    Frame frame;
    switch (waitFrame(rfd, &frame, stop)) {
      case Wait::Eof: return SessionEnd::PeerClosed;
      case Wait::Stopped: return SessionEnd::Stopped;
      case Wait::GotFrame: break;
    }
    sim_throw_if(frame.type != FrameType::Challenge, ErrCode::WorkerLost,
                 "farm worker: expected Challenge, got frame type %u",
                 static_cast<unsigned>(frame.type));
    const ChallengeMsg challenge = decodeChallenge(frame.payload);
    sim_throw_if(challenge.protoVersion != protocolVersion ||
                     challenge.schemaVersion !=
                         sweep::reportSchemaVersion,
                 ErrCode::AuthFailed,
                 "farm worker: coordinator speaks protocol v%u / "
                 "report schema v%u; this worker speaks v%u / v%u",
                 challenge.protoVersion, challenge.schemaVersion,
                 protocolVersion, sweep::reportSchemaVersion);
    run_id = challenge.runId;
    event("challenge", 0);

    HelloMsg hello;
    hello.response = authDigest(params.token, challenge.nonce);
    std::vector<std::uint8_t> hello_frame =
        buildFrame(FrameType::Hello, encodeHello(hello));
    if (inject.fire(FaultPoint::HandshakeCorrupt)) {
        // Wire corruption after the CRC was computed: the coordinator
        // rejects the frame and drops us; the reconnect handshake
        // heals it. (A *valid* Hello with a wrong digest would be a
        // deterministic AuthFailed instead.)
        hello_frame[frameHeaderBytes +
                    (hello_frame.size() - frameHeaderBytes) / 2] ^= 0x40;
    }
    writer.sendRaw(hello_frame);

    // --- Lease loop -------------------------------------------------
    WindowLeaseRunner window_runner;
    for (;;) {
        switch (waitFrame(rfd, &frame, stop)) {
          case Wait::Eof: return SessionEnd::PeerClosed;
          case Wait::Stopped: return SessionEnd::Stopped;
          case Wait::GotFrame: break;
        }
        if (frame.type == FrameType::Shutdown) {
            if (admitted)
                *admitted = true;
            event("shutdown", 0);
            return SessionEnd::ShutdownReceived;
        }
        if (frame.type == FrameType::AuthReject) {
            // Carry the coordinator's structured rejection out as our
            // own failure; reconnecting cannot fix a version or token
            // mismatch.
            SimError err = decodeError(frame.payload).error;
            if (err.code != ErrCode::AuthFailed)
                err.code = ErrCode::AuthFailed;
            event("auth-reject", 0, err.format());
            throw SimException(std::move(err));
        }
        sim_throw_if(frame.type != FrameType::Lease, ErrCode::WorkerLost,
                     "farm worker: unexpected frame type %u from "
                     "coordinator",
                     static_cast<unsigned>(frame.type));
        if (admitted)
            *admitted = true;
        const LeaseMsg lease = decodeLease(frame.payload);
        event("lease", lease.slot, describeTask(lease.task));

        if (inject.fire(FaultPoint::WorkerKill)) {
            // Crash / preemption: die without a word mid-lease.
            event("fault-worker-kill", lease.slot);
            ::kill(::getpid(), SIGKILL);
        }
        if (inject.fire(FaultPoint::WorkerStall)) {
            event("fault-worker-stall", lease.slot);
            hangUntilPeerGone(rfd, stop);
        }

        // Heartbeat while the simulation runs, so a long point is
        // distinguishable from a dead worker. The end of the simulation
        // cuts the wait short, so the lease ends with it instead of on
        // the next heartbeat tick. The mutex guards only the wait, never
        // a send, so a slow heartbeat write cannot hold the stop back.
        std::mutex beat_mutex;
        std::condition_variable beat_cv;
        bool beat_stop = false;
        std::thread heartbeat([&] {
            std::unique_lock<std::mutex> lock(beat_mutex);
            while (!beat_cv.wait_for(
                lock, std::chrono::milliseconds(params.heartbeatMs),
                [&] { return beat_stop; })) {
                lock.unlock();
                try {
                    writer.send(FrameType::Heartbeat,
                                encodeHeartbeat(lease.slot));
                } catch (const SimException &) {
                    return; // peer is gone; main loop will see EOF
                }
                lock.lock();
            }
        });

        TaskOutput output;
        bool sim_ok = true;
        SimError sim_err;
        try {
            output = runTask(lease.task, window_runner);
        } catch (const SimException &e) {
            sim_ok = false;
            sim_err = e.error();
        }
        {
            std::lock_guard<std::mutex> lock(beat_mutex);
            beat_stop = true;
        }
        beat_cv.notify_one();
        heartbeat.join();

        if (!sim_ok) {
            // A point the simulator itself rejects fails
            // deterministically — retrying cannot help. Carry the
            // structured diagnosis back so the coordinator fails the
            // farm fast with the real error instead of burning the
            // lease/retry budget.
            std::fprintf(stderr, "imo-farm worker: point failed: %s\n",
                         sim_err.format().c_str());
            event("error", lease.slot, sim_err.format());
            ErrorMsg err;
            err.slot = lease.slot;
            err.error = std::move(sim_err);
            writer.send(FrameType::Error, encodeError(err));
            continue;
        }

        if (inject.fire(FaultPoint::DroppedResult)) {
            // Completed but the result is lost in transit: fall
            // silent. The lease expires and the point is retried —
            // the Stats frame below is intentionally dropped with it.
            event("fault-dropped-result", lease.slot);
            hangUntilPeerGone(rfd, stop);
        }

        // Per-point timings/stats ride immediately ahead of the
        // result, so the coordinator attributes them to this lease.
        // Protocol v2 coordinators never see this frame (the version
        // handshake rejects the session first).
        output.stats.slot = lease.slot;
        writer.send(FrameType::Stats, encodeStats(output.stats));

        ResultMsg result;
        result.slot = lease.slot;
        result.fragment = std::move(output.bytes);
        writer.send(FrameType::Result, encodeResult(result));
        event("result", lease.slot,
              simFormat("%zu bytes, %llu ms simulate",
                        result.fragment.size(),
                        static_cast<unsigned long long>(
                            output.stats.simulateMs)));
    }
}

SimError
runWorker(const WorkerOptions &options,
          const volatile std::sig_atomic_t *stop)
{
    if (options.port == 0)
        return SimError{ErrCode::BadConfig,
                        "worker: coordinator port must be nonzero", {}};
    if (options.heartbeatMs == 0)
        return SimError{ErrCode::BadConfig,
                        "worker: --heartbeat-ms must be nonzero", {}};

    FaultInjector inject(options.faults);
    SessionParams params;
    params.token = options.token;
    params.heartbeatMs = options.heartbeatMs;
    params.onEvent = options.onEvent;

    unsigned failures = 0;
    for (;;) {
        if (stop && *stop)
            return SimError{ErrCode::Interrupted,
                            "worker: interrupted", {}};

        try {
            const int fd = connectTcp(options.host, options.port,
                                      options.connectTimeoutMs);
            bool admitted = false;
            SessionEnd end;
            try {
                end = serveSession(fd, fd, params, inject, stop,
                                   &admitted);
            } catch (...) {
                ::close(fd);
                throw;
            }
            ::close(fd);
            switch (end) {
              case SessionEnd::ShutdownReceived:
                return {}; // clean exit
              case SessionEnd::Stopped:
                return SimError{ErrCode::Interrupted,
                                "worker: interrupted", {}};
              case SessionEnd::PeerClosed:
                break; // transient: reconnect below
            }
            if (admitted)
                failures = 0;
        } catch (const SimException &e) {
            if (e.code() == ErrCode::AuthFailed ||
                e.code() == ErrCode::Interrupted)
                return e.error(); // deterministic / final: do not retry
            warn("imo-worker: %s", e.error().format().c_str());
        }

        ++failures;
        if (options.maxRetries != 0 && failures > options.maxRetries)
            return SimError{
                ErrCode::WorkerLost,
                simFormat("worker: giving up on %s:%u after %u failed "
                          "connection attempts",
                          options.host.c_str(),
                          static_cast<unsigned>(options.port),
                          failures),
                {}};

        // Capped exponential backoff, sliced so a stop signal lands
        // promptly.
        std::uint64_t backoff = options.backoffBaseMs;
        for (unsigned i = 1; i < failures && backoff < options.backoffCapMs;
             ++i)
            backoff *= 2;
        if (backoff > options.backoffCapMs)
            backoff = options.backoffCapMs;
        while (backoff > 0) {
            if (stop && *stop)
                return SimError{ErrCode::Interrupted,
                                "worker: interrupted", {}};
            const std::uint64_t slice = backoff > 100 ? 100 : backoff;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(slice));
            backoff -= slice;
        }
    }
}

} // namespace imo::farm
