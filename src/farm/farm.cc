#include "farm/farm.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/manifest.hh"
#include "common/rng.hh"
#include "farm/proto.hh"
#include "farm/store.hh"
#include "farm/telemetry.hh"
#include "farm/transport.hh"
#include "farm/worker.hh"
#include "sample/sharedpass.hh"
#include "sweep/engine.hh"

namespace imo::farm
{

namespace
{

std::uint64_t
nowMs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(
        duration_cast<milliseconds>(steady_clock::now().time_since_epoch())
            .count());
}

/** Worker-side fault plan: a fresh PRNG stream per spawned process, so
 *  a replacement for a killed worker draws differently than its
 *  predecessor and retries converge. */
FaultSchedule
scheduleForSpawn(const FaultSchedule &base, std::uint64_t spawn_index)
{
    FaultSchedule s = base;
    s.seed = base.seed + spawn_index * 0x9e3779b97f4a7c15ull;
    return s;
}

// --- Coordinator ----------------------------------------------------

/** One unique content-addressed unit of work: one farm Task. */
struct Slot
{
    PointKey key;
    Task task;
    std::string desc; //!< describeTask()

    std::vector<std::uint8_t> fragment; //!< the task's result bytes
    bool done = false;
    bool queued = false;       //!< sitting in the pending queue
    unsigned attempts = 0;     //!< failure-path leases granted
    int activeLeases = 0;      //!< workers currently running it
    std::uint64_t readyAtMs = 0; //!< backoff gate for re-dispatch
    std::uint64_t leaseStartMs = 0; //!< earliest active lease start
};

/**
 * Coordinator-side view of one worker peer. Local fork+pipe workers
 * (pid > 0) and remote TCP daemons (pid == -1) differ only in how they
 * are created and destroyed; the lease protocol between admission and
 * loss is identical.
 */
struct Peer
{
    std::unique_ptr<Transport> io;
    pid_t pid = -1;    //!< > 0 for a local fork+pipe worker
    bool alive = false;
    bool ready = false; //!< admitted: authenticated Hello accepted
    std::uint64_t nonce = 0;     //!< challenge nonce awaiting its echo
    std::uint64_t admitByMs = 0; //!< admission (handshake) deadline
    long slot = -1;               //!< active lease, -1 when idle
    std::uint64_t deadlineMs = 0; //!< lease expiry (heartbeat-refreshed)
};

class Coordinator
{
  public:
    Coordinator(std::vector<Slot> slots, const FarmOptions &opt,
                ResultStore *store, FarmTelemetry &tel,
                const volatile std::sig_atomic_t *stop)
        : _slots(std::move(slots)), _opt(opt), _store(store), _tel(tel),
          _stop(stop), _inject(opt.faults),
          _nonceRng(opt.faults.seed ^ 0xa11ce5ced0c05eedull)
    {
        for (std::size_t i = 0; i < _slots.size(); ++i) {
            if (_slots[i].done)
                ++_doneCount;
            else
                enqueue(i, 0);
        }
    }

    FarmStats &stats() { return _stats; }

    /** Drive the farm to completion (or failure). @return the error. */
    SimError
    run()
    {
        // A worker dying mid-write must be an EPIPE we handle, not a
        // process-killing SIGPIPE. (Socket sends additionally use
        // MSG_NOSIGNAL, so worker threads sharing this process are
        // safe even after the handler is restored.)
        struct sigaction ignore_pipe{}, old_pipe{};
        ignore_pipe.sa_handler = SIG_IGN;
        ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

        try {
            if (_opt.listen) {
                _listener.emplace(_opt.listenHost, _opt.listenPort);
                if (_opt.onListen)
                    _opt.onListen(_listener->boundPort());
            }
            const std::uint64_t now = nowMs();
            for (unsigned i = 0; i < _opt.workers && !allDone(); ++i)
                spawnWorker(now);
            loop();
        } catch (const SimException &e) {
            fail(e.error());
        }

        teardown();
        ::sigaction(SIGPIPE, &old_pipe, nullptr);
        return _error;
    }

    std::vector<Slot> takeSlots() { return std::move(_slots); }

  private:
    bool allDone() const { return _doneCount == _slots.size(); }
    bool failed() const { return !_error.ok(); }

    void
    fail(SimError error)
    {
        if (_error.ok())
            _error = std::move(error);
    }

    void
    enqueue(std::size_t slot, std::uint64_t ready_at)
    {
        _slots[slot].queued = true;
        _slots[slot].readyAtMs = ready_at;
        _pending.push_back(slot);
        _tel.noteEnqueue(slot, nowMs());
    }

    /** Stable seat index of a peer (its position in the poll set). */
    unsigned
    seatIndex(const Peer &p) const
    {
        return static_cast<unsigned>(&p - _peers.data());
    }

    /** Seat a new peer, reusing a dead seat so the poll set (and the
     *  iterator stability loseWorker-inside-iteration relies on) stays
     *  intact. @return the seated peer. */
    Peer &
    seat(Peer &&p)
    {
        for (Peer &s : _peers) {
            if (!s.alive) {
                s = std::move(p);
                return s;
            }
        }
        _peers.push_back(std::move(p));
        return _peers.back();
    }

    /** Open admission: send the versioned challenge and start the
     *  handshake deadline. */
    void
    sendChallenge(Peer &p, std::uint64_t now)
    {
        p.nonce = _nonceRng.next();
        p.admitByMs = now + _opt.leaseMs;
        ChallengeMsg challenge;
        challenge.nonce = p.nonce;
        challenge.runId = _opt.runId;
        try {
            p.io->sendFrame(FrameType::Challenge,
                            encodeChallenge(challenge));
        } catch (const SimException &) {
            losePeer(p, now);
        }
    }

    void
    spawnWorker(std::uint64_t now)
    {
        int to_pipe[2], from_pipe[2];
        sim_throw_if(::pipe(to_pipe) != 0, ErrCode::WorkerLost,
                     "farm: cannot create worker pipe: %s",
                     std::strerror(errno));
        if (::pipe(from_pipe) != 0) {
            ::close(to_pipe[0]);
            ::close(to_pipe[1]);
            throwSimError(ErrCode::WorkerLost,
                          "farm: cannot create worker pipe: %s",
                          std::strerror(errno));
        }

        const std::uint64_t spawn_index = _spawnCounter++;
        const pid_t pid = ::fork();
        sim_throw_if(pid < 0, ErrCode::WorkerLost,
                     "farm: fork failed: %s", std::strerror(errno));
        if (pid == 0) {
            // Child: keep only this worker's two pipe ends.
            ::close(to_pipe[1]);
            ::close(from_pipe[0]);
            for (Peer &p : _peers)
                if (p.alive)
                    p.io->close();
            if (_listener)
                _listener->close();
            try {
                FaultInjector inject(
                    scheduleForSpawn(_opt.faults, spawn_index));
                SessionParams params;
                params.token = _opt.token;
                params.heartbeatMs = _opt.heartbeatMs;
                serveSession(to_pipe[0], from_pipe[1], params, inject,
                             nullptr);
            } catch (const SimException &e) {
                std::fprintf(stderr, "imo-farm worker: %s\n",
                             e.error().format().c_str());
                _exit(1);
            } catch (...) {
                _exit(1);
            }
            _exit(0);
        }

        ::close(to_pipe[0]);
        ::close(from_pipe[1]);

        Peer p;
        p.io = Transport::pipePair(from_pipe[0], to_pipe[1]);
        p.pid = pid;
        p.alive = true;
        Peer &seated = seat(std::move(p));
        _tel.noteSpawn(seatIndex(seated), /*remote=*/false, now);
        sendChallenge(seated, now);
    }

    /** Admit every connection queued on the listener. */
    void
    acceptPeers(std::uint64_t now)
    {
        while (std::unique_ptr<Transport> io = _listener->accept()) {
            Peer p;
            p.io = std::move(io);
            p.pid = -1;
            p.alive = true;
            Peer &seated = seat(std::move(p));
            _tel.noteSpawn(seatIndex(seated), /*remote=*/true, now);
            sendChallenge(seated, now);
        }
    }

    /** The peer died or spoke garbage: kill (local), requeue, replace
     *  (local — a remote daemon replaces itself by reconnecting). */
    void
    losePeer(Peer &p, std::uint64_t now)
    {
        if (!p.alive)
            return;
        ++_stats.workersLost;
        _tel.notePeerLost(seatIndex(p), now);
        if (p.pid > 0) {
            ::kill(p.pid, SIGKILL);
            ::waitpid(p.pid, nullptr, 0);
        }
        p.io->close();
        p.alive = false;
        p.ready = false;
        if (p.slot >= 0) {
            const auto slot = static_cast<std::size_t>(p.slot);
            p.slot = -1;
            --_slots[slot].activeLeases;
            requeueAfterFailure(slot, now);
        }
        if (p.pid > 0 && !failed() && !allDone())
            spawnWorker(now);
    }

    /** Admission denied: tell the peer why (structured AuthFailed) and
     *  drop it. A deliberate rejection, not a lost worker — and no
     *  local respawn, which could only fail the same way forever. */
    void
    rejectPeer(Peer &p, SimError err, std::uint64_t now)
    {
        ++_stats.authFailures;
        _tel.noteAuthReject(seatIndex(p), now);
        warn("farm: %s", err.format().c_str());
        ErrorMsg msg;
        msg.error = std::move(err);
        try {
            p.io->sendFrame(FrameType::AuthReject, encodeError(msg));
        } catch (const SimException &) {
        }
        if (p.pid > 0) {
            ::kill(p.pid, SIGKILL);
            ::waitpid(p.pid, nullptr, 0);
        }
        p.io->close();
        p.alive = false;
        p.ready = false;
    }

    /** First frame from an unadmitted peer: verify the challenge
     *  response. Throws (to the caller's losePeer) on a malformed
     *  payload; a *well-formed* mismatch is an AuthFailed rejection. */
    void
    admitPeer(Peer &p, const Frame &frame, std::uint64_t now)
    {
        const HelloMsg hello = decodeHello(frame.payload);
        if (hello.protoVersion != protocolVersion ||
            hello.schemaVersion != sweep::reportSchemaVersion) {
            rejectPeer(p, SimError{
                ErrCode::AuthFailed,
                simFormat("farm: peer speaks protocol v%u / report "
                          "schema v%u; this coordinator speaks "
                          "v%u / v%u — upgrade the older side",
                          hello.protoVersion, hello.schemaVersion,
                          protocolVersion, sweep::reportSchemaVersion),
                {}}, now);
            return;
        }
        if (hello.response != authDigest(_opt.token, p.nonce)) {
            rejectPeer(p, SimError{
                ErrCode::AuthFailed,
                "farm: peer failed the shared-token challenge; check "
                "--token on both sides",
                {}}, now);
            return;
        }
        p.ready = true;
        _tel.noteAdmit(seatIndex(p), p.pid < 0, now);
        if (p.pid < 0)
            ++_stats.remotesAdmitted;
    }

    void
    requeueAfterFailure(std::size_t slot, std::uint64_t now)
    {
        Slot &s = _slots[slot];
        if (s.done || s.queued || s.activeLeases > 0)
            return; // a twin lease is still running, or already handled
        if (s.attempts >= _opt.maxAttempts) {
            fail(SimError{
                ErrCode::LeaseExpired,
                simFormat("farm: point gave up after %u lease attempts",
                          s.attempts),
                {s.desc}});
            return;
        }
        ++_stats.retries;
        std::uint64_t backoff = _opt.backoffBaseMs;
        for (unsigned i = 1; i < s.attempts && backoff < _opt.backoffCapMs;
             ++i)
            backoff *= 2;
        if (backoff > _opt.backoffCapMs)
            backoff = _opt.backoffCapMs;
        _tel.noteRetry(slot, s.attempts, backoff, now);
        enqueue(slot, now + backoff);
    }

    void
    grantLease(Peer &w, std::size_t slot, bool straggler,
               std::uint64_t now)
    {
        if (_inject.fire(FaultPoint::LeaseWriteFail) && w.pid > 0) {
            // Injected "idle worker died unseen" (OOM-kill, external
            // preemption): kill it and wait for its fd teardown —
            // WNOWAIT leaves the zombie for losePeer() to reap —
            // so the write below hits the genuine EPIPE path.
            ::kill(w.pid, SIGKILL);
            siginfo_t info{};
            ::waitid(P_PID, static_cast<id_t>(w.pid), &info,
                     WEXITED | WNOWAIT);
        }
        LeaseMsg msg;
        msg.slot = slot;
        msg.task = _slots[slot].task;
        try {
            w.io->sendFrame(FrameType::Lease, encodeLease(msg));
        } catch (const SimException &) {
            // The lease never reached the worker. Put the slot back
            // exactly as dispatch() found it (still queued, backoff
            // unchanged) before replacing the worker — w.slot is
            // still -1, so losePeer() alone would orphan the slot
            // with queued=true and the farm would hang forever. A
            // straggler grant has nothing to restore: the original
            // lease is still active.
            if (!straggler)
                _pending.push_back(slot);
            losePeer(w, now);
            return;
        }
        w.slot = static_cast<long>(slot);
        w.deadlineMs = now + _opt.leaseMs;
        Slot &s = _slots[slot];
        if (s.activeLeases++ == 0)
            s.leaseStartMs = now;
        if (straggler) {
            ++_stats.redispatches;
        } else {
            s.queued = false;
            ++s.attempts;
        }
        _tel.noteGrant(slot, seatIndex(w), straggler, s.attempts, now);
    }

    void
    dispatch(std::uint64_t now)
    {
        for (Peer &w : _peers) {
            if (failed() || allDone())
                return;
            if (!w.alive || !w.ready || w.slot >= 0)
                continue;

            // Oldest pending slot whose backoff has elapsed.
            std::size_t pick = _pending.size();
            for (std::size_t i = 0; i < _pending.size(); ++i) {
                if (_slots[_pending[i]].readyAtMs <= now) {
                    pick = i;
                    break;
                }
            }
            if (pick < _pending.size()) {
                const std::size_t slot = _pending[pick];
                _pending.erase(_pending.begin() +
                               static_cast<long>(pick));
                grantLease(w, slot, /*straggler=*/false, now);
                continue;
            }

            // Nothing queued: duplicate the longest-running healthy
            // lease past the straggler threshold. First result wins;
            // the duplicate doubles as a determinism cross-check.
            if (_opt.stragglerMs == 0)
                continue;
            std::size_t straggler = _slots.size();
            for (std::size_t s = 0; s < _slots.size(); ++s) {
                const Slot &slot = _slots[s];
                if (slot.done || slot.activeLeases != 1 ||
                    now - slot.leaseStartMs < _opt.stragglerMs)
                    continue;
                if (straggler == _slots.size() ||
                    slot.leaseStartMs < _slots[straggler].leaseStartMs)
                    straggler = s;
            }
            if (straggler < _slots.size())
                grantLease(w, straggler, /*straggler=*/true, now);
        }
    }

    void
    expireLeases(std::uint64_t now)
    {
        for (Peer &w : _peers) {
            if (!w.alive)
                continue;
            if (!w.ready) {
                // Connected but never finished the handshake: a
                // half-open socket or a peer wedged mid-Hello.
                if (now >= w.admitByMs)
                    losePeer(w, now);
                continue;
            }
            if (w.slot < 0 || now < w.deadlineMs)
                continue;
            ++_stats.leasesExpired;
            _tel.noteLeaseExpired(seatIndex(w),
                                  static_cast<std::size_t>(w.slot), now);
            losePeer(w, now);
        }
    }

    /**
     * Fail fast instead of waiting forever when the farm cannot make
     * progress: if fewer than minWorkers admitted peers have been
     * available for a full lease period while work is pending, there
     * is no evidence more capacity is coming.
     */
    void
    checkMinWorkers(std::uint64_t now)
    {
        unsigned avail = 0;
        for (const Peer &p : _peers)
            if (p.alive && p.ready)
                ++avail;
        if (avail >= _opt.minWorkers) {
            _belowMinSinceMs = 0;
            return;
        }
        if (_belowMinSinceMs == 0) {
            _belowMinSinceMs = now;
            return;
        }
        if (now - _belowMinSinceMs <= _opt.leaseMs)
            return;
        fail(SimError{
            ErrCode::WorkerLost,
            simFormat("farm: only %u of the required --min-workers=%u "
                      "workers have been available for %llums; "
                      "aborting instead of waiting forever — finished "
                      "points are in the result store",
                      avail, _opt.minWorkers,
                      static_cast<unsigned long long>(
                          now - _belowMinSinceMs)),
            {}});
    }

    void
    acceptResult(Peer &w, ResultMsg msg, std::uint64_t now)
    {
        sim_throw_if(w.slot < 0 ||
                         msg.slot != static_cast<std::uint64_t>(w.slot),
                     ErrCode::WorkerLost,
                     "farm: worker delivered slot %llu while leased "
                     "slot %ld",
                     static_cast<unsigned long long>(msg.slot), w.slot);
        Slot &s = _slots[msg.slot];
        _tel.noteResult(msg.slot, seatIndex(w), s.done,
                        msg.fragment.size(), now);
        w.slot = -1;
        --s.activeLeases;

        if (s.done) {
            // A straggler's twin finished too: the determinism
            // contract says both runs produced identical bytes.
            ++_stats.duplicateResults;
            if (msg.fragment != s.fragment)
                fail(SimError{
                    ErrCode::ResultMismatch,
                    "farm: duplicate results for one point disagree",
                    {s.desc}});
            return;
        }

        s.fragment = std::move(msg.fragment);
        s.done = true;
        ++_doneCount;
        ++_stats.simulated;
        if (_store)
            storeResult(s, now);
    }

    /** The simulator rejected the worker's point: deterministic, so
     *  fail the farm with the worker's own diagnosis, not a generic
     *  LeaseExpired after maxAttempts wasted re-simulations. */
    void
    acceptWorkerError(Peer &w, ErrorMsg msg)
    {
        sim_throw_if(w.slot < 0 ||
                         msg.slot != static_cast<std::uint64_t>(w.slot),
                     ErrCode::WorkerLost,
                     "farm: worker reported an error for slot %llu "
                     "while leased slot %ld",
                     static_cast<unsigned long long>(msg.slot), w.slot);
        Slot &s = _slots[msg.slot];
        w.slot = -1;
        --s.activeLeases;

        if (s.done) {
            // A straggler twin already delivered a *successful* result
            // for this point: determinism is broken either way.
            fail(SimError{ErrCode::ResultMismatch,
                          "farm: duplicate runs of one point disagree "
                          "(one succeeded, one failed)",
                          {msg.error.format(),
                           s.desc}});
            return;
        }
        SimError err = std::move(msg.error);
        err.context.push_back(s.desc);
        fail(std::move(err));
    }

    void
    storeResult(Slot &s, std::uint64_t now)
    {
        (void)now;
        const std::uint64_t put_start = nowMs();
        try {
            _store->put(s.key, s.fragment);
        } catch (const SimException &e) {
            // A write failure only costs memoization; the in-memory
            // fragment still reaches the report.
            warn("farm: %s", e.error().format().c_str());
            return;
        }
        const std::uint64_t put_end = nowMs();
        _tel.noteStorePut(static_cast<std::size_t>(&s - _slots.data()),
                          put_end - put_start, put_end);
        if (_inject.fire(FaultPoint::StoreBitFlip))
            flipStoredBit(s);
    }

    /** Injected disk rot: flip one payload bit of the record just
     *  written. The integrity pass (or the next run's CRC check) must
     *  catch and repair it. */
    void
    flipStoredBit(const Slot &s)
    {
        const std::string path = _store->recordPath(s.key);
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        if (!f)
            return;
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        if (size > 0) {
            const long at = size / 2;
            std::fseek(f, at, SEEK_SET);
            int byte = std::fgetc(f);
            if (byte != EOF) {
                std::fseek(f, at, SEEK_SET);
                std::fputc(byte ^ 0x10, f);
            }
        }
        std::fclose(f);
    }

    /** Drain everything readable from one peer, then dispatch every
     *  complete frame. */
    void
    drainPeer(Peer &w, std::uint64_t now)
    {
        bool open;
        try {
            open = w.io->pump();
        } catch (const SimException &) {
            losePeer(w, now); // unparseable stream
            return;
        }

        Frame frame;
        for (;;) {
            try {
                if (!w.io->nextFrame(&frame))
                    break;
            } catch (const SimException &) {
                losePeer(w, now);
                return;
            }

            if (!w.ready) {
                // Admission: the first frame must be the challenge
                // response; anything else is protocol garbage.
                if (frame.type != FrameType::Hello) {
                    losePeer(w, now);
                    return;
                }
                try {
                    admitPeer(w, frame, now);
                } catch (const SimException &) {
                    losePeer(w, now); // malformed Hello payload
                    return;
                }
                if (!w.alive)
                    return; // rejected
                continue;
            }

            switch (frame.type) {
            case FrameType::Heartbeat:
                try {
                    if (w.slot >= 0 &&
                        decodeHeartbeat(frame.payload) ==
                            static_cast<std::uint64_t>(w.slot)) {
                        w.deadlineMs = now + _opt.leaseMs;
                        _tel.noteHeartbeat(
                            seatIndex(w),
                            static_cast<std::size_t>(w.slot), now);
                    }
                } catch (const SimException &) {
                    losePeer(w, now);
                    return;
                }
                break;
            case FrameType::Stats:
                // Observational only: record the worker's per-point
                // telemetry, never let it steer scheduling.
                try {
                    const StatsMsg msg = decodeStats(frame.payload);
                    sim_throw_if(
                        w.slot < 0 ||
                            msg.slot !=
                                static_cast<std::uint64_t>(w.slot),
                        ErrCode::WorkerLost,
                        "farm: worker sent stats for slot %llu while "
                        "leased slot %ld",
                        static_cast<unsigned long long>(msg.slot),
                        w.slot);
                    _tel.noteWorkerStats(msg.slot, msg, now);
                } catch (const SimException &) {
                    losePeer(w, now);
                    return;
                }
                break;
            case FrameType::Result:
                try {
                    acceptResult(w, decodeResult(frame.payload), now);
                } catch (const SimException &) {
                    losePeer(w, now);
                    return;
                }
                if (failed())
                    return;
                break;
            case FrameType::Error:
                try {
                    acceptWorkerError(w, decodeError(frame.payload));
                } catch (const SimException &) {
                    losePeer(w, now);
                    return;
                }
                if (failed())
                    return;
                break;
            default:
                losePeer(w, now); // Lease/Shutdown/a second Hello:
                return;           // no business here
            }
            if (!w.alive)
                return;
        }

        if (!open)
            losePeer(w, now); // EOF (after honoring buffered frames)
    }

    void
    loop()
    {
        while (!allDone() && !failed()) {
            if (_stop && *_stop) {
                fail(SimError{ErrCode::Interrupted,
                              "farm interrupted; finished points are in "
                              "the result store — re-run with --resume "
                              "to continue",
                              {}});
                break;
            }
            std::uint64_t now = nowMs();
            unsigned active = 0;
            for (const Peer &p : _peers)
                if (p.alive && p.ready)
                    ++active;
            _tel.tick(_doneCount, _slots.size(), active, _stats.retries,
                      now);
            expireLeases(now);
            checkMinWorkers(now);
            if (failed())
                break;
            dispatch(now);
            if (allDone() || failed())
                break;

            // Poll set: the listener, every alive peer's read side,
            // and the write side of any peer with queued frame bytes
            // (short-write completion).
            std::vector<struct pollfd> fds;
            fds.reserve(_peers.size() + 1);
            const std::size_t listener_at = fds.size();
            if (_listener)
                fds.push_back({_listener->fd(), POLLIN, 0});
            for (const Peer &p : _peers) {
                if (!p.alive)
                    continue;
                short events = POLLIN;
                if (p.io->wantsWrite() &&
                    p.io->writeFd() == p.io->readFd())
                    events |= POLLOUT;
                fds.push_back({p.io->readFd(), events, 0});
                if (p.io->wantsWrite() &&
                    p.io->writeFd() != p.io->readFd())
                    fds.push_back({p.io->writeFd(), POLLOUT, 0});
            }
            if (fds.empty()) {
                // Everything pending is in backoff; just wait it out.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(10));
                continue;
            }
            const int rc =
                ::poll(fds.data(),
                       static_cast<nfds_t>(fds.size()), 50);
            if (rc < 0 && errno != EINTR)
                throwSimError(ErrCode::WorkerLost,
                              "farm: poll failed: %s",
                              std::strerror(errno));
            if (rc <= 0)
                continue;

            now = nowMs();
            if (_listener && (fds[listener_at].revents & POLLIN))
                acceptPeers(now);
            for (std::size_t i = 0; i < fds.size(); ++i) {
                if (_listener && i == listener_at)
                    continue;
                const struct pollfd &fd = fds[i];
                if (fd.revents == 0)
                    continue;
                Peer *peer = nullptr;
                for (Peer &p : _peers) {
                    if (p.alive && (p.io->readFd() == fd.fd ||
                                    p.io->writeFd() == fd.fd)) {
                        peer = &p;
                        break;
                    }
                }
                if (!peer)
                    continue; // lost (or replaced) since poll returned
                if (fd.revents & POLLOUT) {
                    try {
                        peer->io->flush();
                    } catch (const SimException &) {
                        losePeer(*peer, now);
                        continue;
                    }
                }
                if (fd.revents & (POLLIN | POLLHUP | POLLERR))
                    drainPeer(*peer, now);
                if (failed())
                    break;
            }
        }
    }

    void
    teardown()
    {
        for (Peer &p : _peers) {
            if (!p.alive)
                continue;
            try {
                p.io->sendFrame(FrameType::Shutdown, {});
            } catch (const SimException &) {
            }
        }
        // Remote daemons exit on the Shutdown frame (or reconnect and
        // give up when nobody answers); nothing to reap here.
        for (Peer &p : _peers) {
            if (p.alive && p.pid < 0) {
                p.io->close();
                p.alive = false;
            }
        }

        // Brief grace for clean local exits, then SIGKILL the rest
        // (stalled or mid-simulation workers have nothing we still
        // need). A worker holds the only write end of its result pipe,
        // so its exit hangs the pipe up: the wait sleeps in poll() until
        // that happens instead of re-checking on a timer. A hung-up
        // worker's read end is closed, and the worker is re-checked
        // every millisecond until it is reapable.
        const std::uint64_t grace_until = nowMs() + 200;
        std::vector<struct pollfd> fds;
        std::vector<Peer *> polled;
        for (;;) {
            fds.clear();
            polled.clear();
            bool exiting = false; // hung up, not yet reapable
            for (Peer &p : _peers) {
                if (!p.alive)
                    continue;
                if (::waitpid(p.pid, nullptr, WNOHANG) == p.pid) {
                    p.io->close();
                    p.alive = false;
                } else if (p.io->readFd() < 0) {
                    exiting = true;
                } else {
                    fds.push_back({p.io->readFd(), 0, 0});
                    polled.push_back(&p);
                }
            }
            const std::uint64_t now = nowMs();
            if ((fds.empty() && !exiting) || now >= grace_until)
                break;
            const int timeout =
                exiting ? 1 : static_cast<int>(grace_until - now);
            if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                       timeout) <= 0)
                continue;
            for (std::size_t i = 0; i < fds.size(); ++i)
                if (fds[i].revents & (POLLHUP | POLLERR))
                    polled[i]->io->close();
        }
        for (Peer &p : _peers) {
            if (!p.alive)
                continue;
            ::kill(p.pid, SIGKILL);
            ::waitpid(p.pid, nullptr, 0);
            p.io->close();
            p.alive = false;
        }
        if (_listener)
            _listener->close();
    }

    std::vector<Slot> _slots;
    const FarmOptions &_opt;
    ResultStore *_store;
    FarmTelemetry &_tel;
    const volatile std::sig_atomic_t *_stop;
    FaultInjector _inject; //!< coordinator-side draws (StoreBitFlip,
                           //!< LeaseWriteFail)
    Rng _nonceRng;         //!< deterministic admission nonces

    std::optional<Listener> _listener;
    std::vector<Peer> _peers;
    std::vector<std::size_t> _pending; //!< slot indices awaiting a lease
    std::size_t _doneCount = 0;
    std::uint64_t _spawnCounter = 0;
    std::uint64_t _belowMinSinceMs = 0; //!< min-workers watchdog epoch
    FarmStats _stats;
    SimError _error;
};

} // anonymous namespace

FarmResult
runFarm(const std::vector<sweep::SweepPoint> &points,
        const FarmOptions &options,
        const volatile std::sig_atomic_t *stop)
{
    sim_throw_if(options.workers == 0 && !options.listen,
                 ErrCode::BadConfig,
                 "farm: worker count must be at least 1 (0 means "
                 "remote-only and requires --listen)");
    sim_throw_if(options.maxAttempts == 0, ErrCode::BadConfig,
                 "farm: lease attempt budget must be at least 1");
    sim_throw_if(options.leaseMs == 0, ErrCode::BadConfig,
                 "farm: lease deadline must be nonzero");
    sim_throw_if(options.heartbeatMs == 0, ErrCode::BadConfig,
                 "farm: --heartbeat-ms must be nonzero");
    sim_throw_if(options.heartbeatMs >= options.leaseMs,
                 ErrCode::BadConfig,
                 "farm: --heartbeat-ms (%llu) must be smaller than "
                 "--lease-ms (%llu), or every lease expires between "
                 "heartbeats",
                 static_cast<unsigned long long>(options.heartbeatMs),
                 static_cast<unsigned long long>(options.leaseMs));
    sim_throw_if(options.minWorkers == 0, ErrCode::BadConfig,
                 "farm: --min-workers must be at least 1");

    // Telemetry identity: stamp a run id before anything observable
    // happens (the Challenge frame, progress files, and the manifest
    // all carry it).
    FarmOptions opt = options;
    if (opt.runId.empty())
        opt.runId = manifest::makeRunId("imo-farm");

    const std::uint64_t farm_start = nowMs();
    FarmResult res;
    res.runId = opt.runId;
    res.stats.points = points.size();

    // Every point is a member of one task of the plan, which is a
    // pure function of the point list, so a resumed farm derives
    // identical tasks and keys.
    const std::vector<std::vector<std::size_t>> tasks =
        sweep::planTasks(points, opt.multiCache);
    for (const std::vector<std::size_t> &members : tasks) {
        if (members.size() > 1) {
            ++res.stats.multiCacheGroups;
            res.stats.pointsGrouped += members.size();
        }
    }

    // Structurally identical tasks (their lease encoding covers every
    // keyed field) collapse into one slot, so overlapping grids
    // simulate once; each point remembers its slot and its position
    // in the slot's result bundle.
    struct Seat
    {
        std::size_t slot = 0;
        std::size_t member = 0;
    };
    std::vector<Seat> seats(points.size());
    std::vector<Slot> slots;
    std::map<std::string, std::size_t> slot_by_struct;
    for (const std::vector<std::size_t> &members : tasks) {
        Task task;
        for (const std::size_t i : members)
            task.points.push_back(points[i]);
        const std::vector<std::uint8_t> enc =
            encodeLease(LeaseMsg{0, task});
        const auto [it, fresh] = slot_by_struct.emplace(
            std::string(enc.begin(), enc.end()), slots.size());
        if (fresh) {
            Slot s;
            s.desc = describeTask(task);
            s.task = std::move(task);
            slots.push_back(std::move(s));
        }
        for (std::size_t k = 0; k < members.size(); ++k)
            seats[members[k]] = Seat{it->second, k};
    }

    // Content addressing builds and instruments each task's program,
    // which can rival a short simulation in cost — so key the distinct
    // slots in parallel across the worker budget.
    std::vector<std::function<PointKey()>> key_tasks;
    key_tasks.reserve(slots.size());
    for (const Slot &s : slots)
        key_tasks.emplace_back([&s] { return keyForTask(s.task); });
    const std::vector<PointKey> keys =
        sweep::runOrdered(key_tasks, std::max(1u, options.workers));
    for (std::size_t k = 0; k < slots.size(); ++k)
        slots[k].key = keys[k];

    res.stats.uniqueSlots = slots.size();

    FarmTelemetry tel(opt, farm_start);
    for (std::size_t i = 0; i < slots.size(); ++i) {
        // Group provenance (members, distinct (L1, L2) classes) for
        // multi-point tasks only, so the manifest's group table lists
        // shared passes and nothing else.
        const std::vector<sweep::SweepPoint> &members =
            slots[i].task.points;
        std::uint64_t configs = 0;
        if (members.size() > 1) {
            std::vector<pipeline::MachineConfig> cfgs;
            for (const sweep::SweepPoint &p : members)
                cfgs.push_back(p.resolveConfig());
            configs = sample::geometryClasses(cfgs).size();
        }
        tel.describeSlot(i, slots[i].key.hex(), slots[i].desc,
                         members.size() > 1 ? members.size() : 0,
                         configs);
    }

    std::optional<ResultStore> store;
    if (!opt.storeDir.empty()) {
        store.emplace(opt.storeDir, opt.resume);
        for (std::size_t i = 0; i < slots.size(); ++i) {
            Slot &s = slots[i];
            if (store->get(s.key, &s.fragment) == StoreGet::Hit) {
                s.done = true;
                ++res.stats.storeHits;
                tel.noteStoreHit(i, nowMs());
            }
        }
    }

    Coordinator coord(std::move(slots), opt,
                      store ? &*store : nullptr, tel, stop);
    res.error = coord.run();
    res.stats.simulated = coord.stats().simulated;
    res.stats.retries = coord.stats().retries;
    res.stats.workersLost = coord.stats().workersLost;
    res.stats.leasesExpired = coord.stats().leasesExpired;
    res.stats.redispatches = coord.stats().redispatches;
    res.stats.duplicateResults = coord.stats().duplicateResults;
    res.stats.authFailures = coord.stats().authFailures;
    res.stats.remotesAdmitted = coord.stats().remotesAdmitted;
    slots = coord.takeSlots();

    res.ok = res.error.ok();
    if (res.ok && store) {
        // Integrity pass: every record on disk must round-trip before
        // the report ships; a record the fault injector rotted (or a
        // foreign writer damaged) is repaired from memory.
        for (const Slot &s : slots)
            store->verifyOrRepair(s.key, s.fragment);
    }
    if (store)
        res.stats.storeCorrupt = store->corruptRecords();

    const std::uint64_t farm_end = nowMs();
    res.elapsedMs = farm_end - farm_start;
    std::size_t done_slots = 0;
    for (const Slot &s : slots)
        if (s.done)
            ++done_slots;
    const std::string status =
        res.ok ? "ok"
               : (res.error.code == ErrCode::Interrupted ? "interrupted"
                                                         : "failed");
    tel.finish(status, done_slots, slots.size(), res.stats.retries,
               farm_end);
    tel.dumpStats(res.stats, res.elapsedMs, &res.statsText,
                  &res.statsJson);
    res.slotRecords = tel.takeSlotRecords();
    if (!res.ok)
        return res;

    // Split every result bundle back into member fragments, validating
    // the member count against the task (a short bundle is a protocol
    // violation, not a retryable fault).
    std::vector<std::vector<std::vector<std::uint8_t>>> split(
        slots.size());
    try {
        for (std::size_t k = 0; k < slots.size(); ++k) {
            split[k] = decodeFragmentBundle(slots[k].fragment);
            sim_throw_if(split[k].size() != slots[k].task.points.size(),
                         ErrCode::WorkerLost,
                         "farm: result bundle holds %zu fragments for "
                         "%zu members",
                         split[k].size(), slots[k].task.points.size());
        }
    } catch (const SimException &e) {
        res.ok = false;
        res.error = e.error();
        return res;
    }
    res.fragments.reserve(points.size());
    for (const Seat &seat : seats)
        res.fragments.push_back(split[seat.slot][seat.member]);
    return res;
}

void
writeFarmReportJson(std::ostream &os, const FarmResult &result)
{
    os << sweep::reportJsonPrefix;
    bool first = true;
    for (const std::vector<std::uint8_t> &frag : result.fragments) {
        if (!first)
            os << ',';
        first = false;
        os.write(reinterpret_cast<const char *>(frag.data()),
                 static_cast<std::streamsize>(frag.size()));
    }
    os << sweep::reportJsonSuffix;
}

} // namespace imo::farm
