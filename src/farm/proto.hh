/**
 * @file
 * Framed coordinator/worker wire protocol for the sweep farm.
 *
 * Every message is one frame on a byte stream:
 *
 *   u32 magic "IMOF" | u32 type | u64 payload length
 *   u32 CRC-32 of payload | payload bytes
 *
 * The framing carries no file descriptors, shared memory, or process
 * assumptions — today it runs over pipes to local worker processes,
 * and the same byte stream works over a socket for multi-machine
 * farms. Structured payloads reuse the checkpoint container
 * (Serializer/Deserializer), so every field is length-checked and
 * CRC'd twice: once by the frame, once by the container.
 *
 * A frame that fails validation (bad magic, oversized payload, CRC
 * mismatch, truncated container) surfaces as a structured
 * SimException(WorkerLost): a misbehaving peer is indistinguishable
 * from a dead one and is handled by the same kill-and-retry path.
 */

#ifndef IMO_FARM_PROTO_HH
#define IMO_FARM_PROTO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hh"
#include "sweep/sweep.hh"

namespace imo::farm
{

/**
 * Version of the wire protocol itself (frame types, payload layouts,
 * handshake shape). Both sides verify it during admission; a mismatch
 * is a structured AuthFailed rejection, never silent misparsing.
 *  v1: Hello/Lease/Heartbeat/Result/Shutdown/Error over pipes.
 *  v2: Challenge/AuthReject admission handshake (versioned,
 *      token-authenticated) for socket transports.
 *  v3: Stats telemetry frame (worker per-point timings + stats JSON);
 *      Challenge carries the coordinator's run id.
 *  v4: Lease optionally carries one live-point window (index, library
 *      hash, warm/executor images) so a sampled point's measurement
 *      windows shard across workers.
 *  v5: Lease optionally carries a multi-cache point group; the worker
 *      answers with a fragment bundle (one report fragment per
 *      member, produced by a single shared pass).
 *  v6: Lease is {slot, Task}: one lease body for every kind of work.
 *      A Points task (a whole point is a group of one) always answers
 *      with a fragment bundle; a Window task answers with its
 *      WindowSample encoding.
 */
constexpr std::uint32_t protocolVersion = 6;

/** Wire message types. */
enum class FrameType : std::uint32_t
{
    Hello = 1,      //!< worker -> coordinator: challenge response,
                    //!< version report, ready for leases
    Lease = 2,      //!< coordinator -> worker: run this task
    Heartbeat = 3,  //!< worker -> coordinator: still alive on a point
    Result = 4,     //!< worker -> coordinator: point finished
    Shutdown = 5,   //!< coordinator -> worker: exit cleanly
    Error = 6,      //!< worker -> coordinator: the simulator rejected
                    //!< the point (deterministic; retry cannot help)
    Challenge = 7,  //!< coordinator -> worker: admission nonce +
                    //!< protocol/schema versions
    AuthReject = 8, //!< coordinator -> worker: admission denied
                    //!< (structured AuthFailed; do not reconnect)
    Stats = 9,      //!< worker -> coordinator: per-point telemetry
                    //!< (timings + stats JSON), sent before Result
};

/** One parsed frame. */
struct Frame
{
    FrameType type = FrameType::Hello;
    std::vector<std::uint8_t> payload;
};

/** Upper bound on a frame payload; larger is treated as garbage. */
constexpr std::uint64_t maxFramePayload = 64ull << 20;

/** Serialize one complete frame (header + CRC + payload) to bytes —
 *  the transport-independent building block behind writeFrame() and
 *  the buffered socket send path. */
std::vector<std::uint8_t> buildFrame(FrameType type,
                                     const std::vector<std::uint8_t> &payload);

/** Size of the fixed frame header (magic, type, length, CRC). */
constexpr std::size_t frameHeaderBytes = 4 + 4 + 8 + 4;

/**
 * Write one frame to @p fd, retrying on EINTR.
 * Throws SimException(WorkerLost) on EPIPE or any short write.
 */
void writeFrame(int fd, FrameType type,
                const std::vector<std::uint8_t> &payload);

/**
 * Blocking read of one frame from @p fd (worker side).
 * @return false on clean EOF at a frame boundary.
 * Throws SimException(WorkerLost) on mid-frame EOF or a bad frame.
 */
bool readFrame(int fd, Frame *out);

/**
 * Incremental frame parser (coordinator side, for poll()-driven
 * non-blocking reads): feed() raw bytes as they arrive, next() yields
 * complete frames. Throws SimException(WorkerLost) when the stream is
 * unparseable — the connection cannot be resynchronized after that.
 */
class FrameParser
{
  public:
    void feed(const std::uint8_t *data, std::size_t len);

    /** @return true and fill @p out if a complete frame is buffered. */
    bool next(Frame *out);

    /** @return true if partial frame bytes are buffered (dirty EOF). */
    bool midFrame() const { return !_buf.empty(); }

  private:
    std::vector<std::uint8_t> _buf;
};

// --- Message payload codecs -----------------------------------------

/** Challenge: the coordinator's half of the admission handshake. The
 *  worker must echo versions that match and prove knowledge of the
 *  shared token by responding with authDigest(token, nonce). */
struct ChallengeMsg
{
    std::uint32_t protoVersion = protocolVersion;
    std::uint32_t schemaVersion = sweep::reportSchemaVersion;
    std::uint64_t nonce = 0;
    std::string runId; //!< coordinator run id, for joinable worker logs
};

/** Hello: the worker's challenge response. */
struct HelloMsg
{
    std::uint32_t protoVersion = protocolVersion;
    std::uint32_t schemaVersion = sweep::reportSchemaVersion;
    std::uint64_t response = 0; //!< authDigest(token, challenge nonce)
};

/**
 * Keyed admission digest: a 64-bit FNV-style mix of the shared token
 * around the per-connection nonce. This gates against version skew,
 * cross-farm joins, and typo'd tokens — it is NOT cryptography and
 * must not be exposed to untrusted networks (run farms on a trusted
 * LAN or tunnel).
 */
std::uint64_t authDigest(const std::string &token, std::uint64_t nonce);

/**
 * One unit of farm work — the body of every lease and the input of
 * every store key.
 *
 *  - Points: one or more sweep points run by sweep::runPointGroup().
 *    A whole point is a Points task of one member; two or more
 *    members share one multi-cache pass. The Result is always a
 *    fragment bundle: one report-JSON fragment per member, in member
 *    order.
 *  - Window: one measurement window of a sampled point. The worker
 *    rebuilds the point's program and config, restores the shipped
 *    live point (warm and executor images), runs the W+M detailed
 *    window, and returns the fixed-width WindowSample encoding. The
 *    library content hash pins which capture the images came from, so
 *    shards of different captures never share a store record.
 */
struct Task
{
    enum class Kind : std::uint8_t
    {
        Points = 0,
        Window = 1,
    };

    Kind kind = Kind::Points;
    /** Points: the members (at least one). Window: exactly the one
     *  point the window belongs to. */
    std::vector<sweep::SweepPoint> points;

    // Window only.
    std::uint64_t windowIndex = 0;
    std::uint64_t libraryHash = 0;       //!< LivePointLibrary::contentHash
    std::vector<std::uint8_t> warmImage; //!< predictor warm state
    std::vector<std::uint8_t> execImage; //!< functional executor state

    bool operator==(const Task &o) const = default;
};

/** One line naming @p task (which has at least one point, as every
 *  decoded lease's task does), shared by worker logs and the
 *  coordinator's slot records. */
std::string describeTask(const Task &task);

/** Lease: which slot to run, and the task itself. */
struct LeaseMsg
{
    std::uint64_t slot = 0;
    Task task;
};

/** Result: the slot and the task's result bytes (a fragment bundle
 *  for a Points task, a WindowSample encoding for a Window task). */
struct ResultMsg
{
    std::uint64_t slot = 0;
    std::vector<std::uint8_t> fragment;
};

/** Error: the simulator itself rejected the slot's point. Since a
 *  point is a pure function, the failure is deterministic — the
 *  coordinator fails the farm with this diagnosis instead of burning
 *  the lease/retry budget on re-simulations. */
struct ErrorMsg
{
    std::uint64_t slot = 0;
    SimError error;
};

/** Stats: one task's worker-side telemetry, sent immediately before
 *  the matching Result. Purely observational — a coordinator may drop
 *  it without affecting the merged report. */
struct StatsMsg
{
    std::uint64_t slot = 0;
    std::uint64_t simulateMs = 0;  //!< wall time running the task
    std::uint64_t serializeMs = 0; //!< wall time serializing the result
    std::string statsJson;         //!< per-point stats dump, may be empty
};

std::vector<std::uint8_t> encodeChallenge(const ChallengeMsg &msg);
ChallengeMsg decodeChallenge(const std::vector<std::uint8_t> &payload);

std::vector<std::uint8_t> encodeHello(const HelloMsg &msg);
HelloMsg decodeHello(const std::vector<std::uint8_t> &payload);

/** A decoded lease is a well-formed task: a Points task with no
 *  members or with window fields, and a Window task with other than
 *  one point or with an empty image, are rejected as WorkerLost. */
std::vector<std::uint8_t> encodeLease(const LeaseMsg &msg);
LeaseMsg decodeLease(const std::vector<std::uint8_t> &payload);

std::vector<std::uint8_t> encodeHeartbeat(std::uint64_t slot);
std::uint64_t decodeHeartbeat(const std::vector<std::uint8_t> &payload);

std::vector<std::uint8_t> encodeResult(const ResultMsg &msg);
ResultMsg decodeResult(const std::vector<std::uint8_t> &payload);

std::vector<std::uint8_t> encodeError(const ErrorMsg &msg);
ErrorMsg decodeError(const std::vector<std::uint8_t> &payload);

std::vector<std::uint8_t> encodeStats(const StatsMsg &msg);
StatsMsg decodeStats(const std::vector<std::uint8_t> &payload);

/** Fragment bundle: the Result payload of a Points task — every
 *  member's report-JSON fragment, in member order, in one
 *  length-checked container. Also the store record of a Points slot,
 *  so memoized results split identically. */
std::vector<std::uint8_t>
encodeFragmentBundle(const std::vector<std::vector<std::uint8_t>> &fragments);
std::vector<std::vector<std::uint8_t>>
decodeFragmentBundle(const std::vector<std::uint8_t> &bundle);

} // namespace imo::farm

#endif // IMO_FARM_PROTO_HH
