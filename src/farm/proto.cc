#include "farm/proto.hh"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "common/checkpoint.hh"
#include "common/error.hh"

namespace imo::farm
{

namespace
{

constexpr std::uint32_t kFrameMagic = 0x464f4d49u; // "IMOF" little-endian

constexpr std::size_t kFrameHeaderBytes = frameHeaderBytes;

bool
validFrameType(std::uint32_t t)
{
    return t >= static_cast<std::uint32_t>(FrameType::Hello) &&
           t <= static_cast<std::uint32_t>(FrameType::Stats);
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + 4);
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const auto *p = reinterpret_cast<const std::uint8_t *>(&v);
    out.insert(out.end(), p, p + 8);
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

/**
 * Validate a parsed header. Throws WorkerLost on garbage so both the
 * blocking reader and the incremental parser reject identically.
 */
void
checkHeader(std::uint32_t magic, std::uint32_t type, std::uint64_t len)
{
    sim_throw_if(magic != kFrameMagic, ErrCode::WorkerLost,
                 "farm protocol: bad frame magic %08x", magic);
    sim_throw_if(!validFrameType(type), ErrCode::WorkerLost,
                 "farm protocol: unknown frame type %u", type);
    sim_throw_if(len > maxFramePayload, ErrCode::WorkerLost,
                 "farm protocol: frame claims %llu payload bytes "
                 "(limit %llu)",
                 static_cast<unsigned long long>(len),
                 static_cast<unsigned long long>(maxFramePayload));
}

void
checkPayloadCrc(const std::vector<std::uint8_t> &payload,
                std::uint32_t want)
{
    const std::uint32_t got = crc32(payload.data(), payload.size());
    sim_throw_if(got != want, ErrCode::WorkerLost,
                 "farm protocol: frame payload CRC %08x, expected %08x",
                 got, want);
}

/** Read exactly @p len bytes. @return bytes read (< len only at EOF). */
std::size_t
readFull(int fd, std::uint8_t *out, std::size_t len)
{
    std::size_t done = 0;
    while (done < len) {
        const ssize_t n = ::read(fd, out + done, len - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwSimError(ErrCode::WorkerLost,
                          "farm protocol: read failed: %s",
                          std::strerror(errno));
        }
        if (n == 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    return done;
}

} // anonymous namespace

std::vector<std::uint8_t>
buildFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    std::vector<std::uint8_t> buf;
    buf.reserve(kFrameHeaderBytes + payload.size());
    putU32(buf, kFrameMagic);
    putU32(buf, static_cast<std::uint32_t>(type));
    putU64(buf, payload.size());
    putU32(buf, crc32(payload.data(), payload.size()));
    buf.insert(buf.end(), payload.begin(), payload.end());
    return buf;
}

void
writeFrame(int fd, FrameType type,
           const std::vector<std::uint8_t> &payload)
{
    const std::vector<std::uint8_t> buf = buildFrame(type, payload);

    std::size_t done = 0;
    while (done < buf.size()) {
        const ssize_t n = ::write(fd, buf.data() + done,
                                  buf.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throwSimError(ErrCode::WorkerLost,
                          "farm protocol: write failed: %s",
                          std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
}

bool
readFrame(int fd, Frame *out)
{
    std::uint8_t header[kFrameHeaderBytes];
    const std::size_t got = readFull(fd, header, sizeof header);
    if (got == 0)
        return false; // clean EOF between frames
    sim_throw_if(got < sizeof header, ErrCode::WorkerLost,
                 "farm protocol: EOF inside a frame header");

    const std::uint32_t magic = getU32(header);
    const std::uint32_t type = getU32(header + 4);
    const std::uint64_t len = getU64(header + 8);
    const std::uint32_t crc = getU32(header + 16);
    checkHeader(magic, type, len);

    out->type = static_cast<FrameType>(type);
    out->payload.resize(static_cast<std::size_t>(len));
    sim_throw_if(readFull(fd, out->payload.data(), out->payload.size()) <
                     out->payload.size(),
                 ErrCode::WorkerLost,
                 "farm protocol: EOF inside a frame payload");
    checkPayloadCrc(out->payload, crc);
    return true;
}

void
FrameParser::feed(const std::uint8_t *data, std::size_t len)
{
    _buf.insert(_buf.end(), data, data + len);
}

bool
FrameParser::next(Frame *out)
{
    if (_buf.size() < kFrameHeaderBytes)
        return false;
    const std::uint32_t magic = getU32(_buf.data());
    const std::uint32_t type = getU32(_buf.data() + 4);
    const std::uint64_t len = getU64(_buf.data() + 8);
    const std::uint32_t crc = getU32(_buf.data() + 16);
    checkHeader(magic, type, len);
    if (_buf.size() < kFrameHeaderBytes + len)
        return false;

    out->type = static_cast<FrameType>(type);
    out->payload.assign(_buf.begin() + kFrameHeaderBytes,
                        _buf.begin() + kFrameHeaderBytes +
                            static_cast<std::size_t>(len));
    _buf.erase(_buf.begin(),
               _buf.begin() + kFrameHeaderBytes +
                   static_cast<std::size_t>(len));
    checkPayloadCrc(out->payload, crc);
    return true;
}

// --- Message payload codecs -----------------------------------------

namespace
{

void
savePoint(Serializer &s, const sweep::SweepPoint &p)
{
    s.str(p.machine);
    s.str(p.workload);
    s.u8(static_cast<std::uint8_t>(p.mode));
    s.u32(p.handlerLen);
    s.f64(p.scale);
    s.u64(p.seed);
    s.u64(p.l1SizeBytes);
    s.u32(p.l1Assoc);
    s.u64(p.l2SizeBytes);
    s.u32(p.l2Assoc);
    s.u64(p.l2Latency);
    s.u64(p.memLatency);
    s.u32(p.mshrs);
    s.str(p.sample);
}

sweep::SweepPoint
restorePoint(Deserializer &d)
{
    sweep::SweepPoint p;
    p.machine = d.str();
    p.workload = d.str();
    p.mode = static_cast<core::InformingMode>(d.u8());
    p.handlerLen = d.u32();
    p.scale = d.f64();
    p.seed = d.u64();
    p.l1SizeBytes = d.u64();
    p.l1Assoc = d.u32();
    p.l2SizeBytes = d.u64();
    p.l2Assoc = d.u32();
    p.l2Latency = d.u64();
    p.memLatency = d.u64();
    p.mshrs = d.u32();
    p.sample = d.str();
    return p;
}

/** Rethrow container decode errors as protocol (WorkerLost) errors. */
template <typename Fn>
auto
decodePayload(const char *what, Fn &&fn)
{
    try {
        return fn();
    } catch (const SimException &e) {
        throw SimException(
            SimError{ErrCode::WorkerLost,
                     simFormat("farm protocol: bad %s payload", what),
                     {e.error().message}});
    }
}

} // anonymous namespace

std::uint64_t
authDigest(const std::string &token, std::uint64_t nonce)
{
    // FNV-1a over token || nonce || token: the token both prefixes and
    // suffixes the nonce so neither an empty token nor a truncated
    // token aliases another. Intentionally lightweight — see proto.hh.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const std::uint8_t *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ull;
        }
    };
    const auto *tok =
        reinterpret_cast<const std::uint8_t *>(token.data());
    const std::uint64_t len = token.size();
    mix(reinterpret_cast<const std::uint8_t *>(&len), 8);
    mix(tok, token.size());
    mix(reinterpret_cast<const std::uint8_t *>(&nonce), 8);
    mix(tok, token.size());
    return h;
}

std::vector<std::uint8_t>
encodeChallenge(const ChallengeMsg &msg)
{
    Serializer s;
    s.beginSection("challenge");
    s.u32(msg.protoVersion);
    s.u32(msg.schemaVersion);
    s.u64(msg.nonce);
    s.str(msg.runId);
    s.endSection();
    return s.finish();
}

ChallengeMsg
decodeChallenge(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("challenge", [&] {
        Deserializer d(payload);
        d.openSection("challenge");
        ChallengeMsg msg;
        msg.protoVersion = d.u32();
        msg.schemaVersion = d.u32();
        msg.nonce = d.u64();
        msg.runId = d.str();
        d.closeSection();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeHello(const HelloMsg &msg)
{
    Serializer s;
    s.beginSection("hello");
    s.u32(msg.protoVersion);
    s.u32(msg.schemaVersion);
    s.u64(msg.response);
    s.endSection();
    return s.finish();
}

HelloMsg
decodeHello(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("hello", [&] {
        Deserializer d(payload);
        d.openSection("hello");
        HelloMsg msg;
        msg.protoVersion = d.u32();
        msg.schemaVersion = d.u32();
        msg.response = d.u64();
        d.closeSection();
        return msg;
    });
}

std::string
describeTask(const Task &task)
{
    const std::string first = sweep::describePoint(task.points.front());
    if (task.kind == Task::Kind::Window)
        return simFormat("%s window %llu", first.c_str(),
                         static_cast<unsigned long long>(
                             task.windowIndex));
    if (task.points.size() == 1)
        return first;
    return simFormat("multi-cache group of %zu: %s", task.points.size(),
                     first.c_str());
}

std::vector<std::uint8_t>
encodeLease(const LeaseMsg &msg)
{
    const Task &t = msg.task;
    Serializer s;
    s.beginSection("lease");
    s.u64(msg.slot);
    s.u8(static_cast<std::uint8_t>(t.kind));
    s.u32(static_cast<std::uint32_t>(t.points.size()));
    for (const sweep::SweepPoint &p : t.points)
        savePoint(s, p);
    s.u64(t.windowIndex);
    s.u64(t.libraryHash);
    s.vecU8(t.warmImage);
    s.vecU8(t.execImage);
    s.endSection();
    return s.finish();
}

LeaseMsg
decodeLease(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("lease", [&] {
        Deserializer d(payload);
        d.openSection("lease");
        LeaseMsg msg;
        Task &t = msg.task;
        msg.slot = d.u64();
        const std::uint8_t kind = d.u8();
        sim_throw_if(kind > static_cast<std::uint8_t>(Task::Kind::Window),
                     ErrCode::WorkerLost, "unknown task kind %u", kind);
        t.kind = static_cast<Task::Kind>(kind);
        // No reserve(): n is unchecked wire input; a count the payload
        // cannot hold fails inside restorePoint() instead.
        const std::uint32_t n = d.u32();
        for (std::uint32_t i = 0; i < n; ++i)
            t.points.push_back(restorePoint(d));
        t.windowIndex = d.u64();
        t.libraryHash = d.u64();
        t.warmImage = d.vecU8();
        t.execImage = d.vecU8();
        d.closeSection();

        if (t.kind == Task::Kind::Points) {
            sim_throw_if(n == 0, ErrCode::WorkerLost,
                         "points task without points");
            sim_throw_if(t.windowIndex != 0 || t.libraryHash != 0 ||
                             !t.warmImage.empty() ||
                             !t.execImage.empty(),
                         ErrCode::WorkerLost,
                         "points task carries window fields");
        } else {
            sim_throw_if(n != 1, ErrCode::WorkerLost,
                         "window task with %u points", n);
            sim_throw_if(t.warmImage.empty() || t.execImage.empty(),
                         ErrCode::WorkerLost,
                         "window task without its live point");
        }
        return msg;
    });
}

std::vector<std::uint8_t>
encodeHeartbeat(std::uint64_t slot)
{
    Serializer s;
    s.beginSection("heartbeat");
    s.u64(slot);
    s.endSection();
    return s.finish();
}

std::uint64_t
decodeHeartbeat(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("heartbeat", [&] {
        Deserializer d(payload);
        d.openSection("heartbeat");
        const std::uint64_t slot = d.u64();
        d.closeSection();
        return slot;
    });
}

std::vector<std::uint8_t>
encodeResult(const ResultMsg &msg)
{
    Serializer s;
    s.beginSection("result");
    s.u64(msg.slot);
    s.vecU8(msg.fragment);
    s.endSection();
    return s.finish();
}

ResultMsg
decodeResult(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("result", [&] {
        Deserializer d(payload);
        d.openSection("result");
        ResultMsg msg;
        msg.slot = d.u64();
        msg.fragment = d.vecU8();
        d.closeSection();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeError(const ErrorMsg &msg)
{
    Serializer s;
    s.beginSection("error");
    s.u64(msg.slot);
    s.u8(static_cast<std::uint8_t>(msg.error.code));
    s.str(msg.error.message);
    s.u32(static_cast<std::uint32_t>(msg.error.context.size()));
    for (const std::string &note : msg.error.context)
        s.str(note);
    s.endSection();
    return s.finish();
}

ErrorMsg
decodeError(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("error", [&] {
        Deserializer d(payload);
        d.openSection("error");
        ErrorMsg msg;
        msg.slot = d.u64();
        const std::uint8_t code = d.u8();
        // A "no error" or out-of-range code is wire garbage, not a
        // valid diagnosis.
        sim_throw_if(code == 0 ||
                         code > static_cast<std::uint8_t>(
                                    ErrCode::AuthFailed),
                     ErrCode::WorkerLost,
                     "farm protocol: invalid error code %u", code);
        msg.error.code = static_cast<ErrCode>(code);
        msg.error.message = d.str();
        const std::uint32_t notes = d.u32();
        for (std::uint32_t i = 0; i < notes; ++i)
            msg.error.context.push_back(d.str());
        d.closeSection();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeStats(const StatsMsg &msg)
{
    Serializer s;
    s.beginSection("stats");
    s.u64(msg.slot);
    s.u64(msg.simulateMs);
    s.u64(msg.serializeMs);
    s.str(msg.statsJson);
    s.endSection();
    return s.finish();
}

StatsMsg
decodeStats(const std::vector<std::uint8_t> &payload)
{
    return decodePayload("stats", [&] {
        Deserializer d(payload);
        d.openSection("stats");
        StatsMsg msg;
        msg.slot = d.u64();
        msg.simulateMs = d.u64();
        msg.serializeMs = d.u64();
        msg.statsJson = d.str();
        d.closeSection();
        return msg;
    });
}

std::vector<std::uint8_t>
encodeFragmentBundle(
    const std::vector<std::vector<std::uint8_t>> &fragments)
{
    Serializer s;
    s.beginSection("bundle");
    s.u32(static_cast<std::uint32_t>(fragments.size()));
    for (const std::vector<std::uint8_t> &f : fragments)
        s.vecU8(f);
    s.endSection();
    return s.finish();
}

std::vector<std::vector<std::uint8_t>>
decodeFragmentBundle(const std::vector<std::uint8_t> &bundle)
{
    return decodePayload("bundle", [&] {
        Deserializer d(bundle);
        d.openSection("bundle");
        const std::uint32_t n = d.u32(); // unchecked: no reserve()
        std::vector<std::vector<std::uint8_t>> fragments;
        for (std::uint32_t i = 0; i < n; ++i)
            fragments.push_back(d.vecU8());
        d.closeSection();
        return fragments;
    });
}

} // namespace imo::farm
