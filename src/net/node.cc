#include "net/node.hh"

#include <algorithm>

#include "curves/validate.hh"
#include "support/logging.hh"
#include "support/sha256.hh"

namespace jaavr::net
{

namespace
{

/** Consecutive MAC/signature failures before a re-key. */
constexpr uint32_t kAuthFailRekeyThreshold = 3;
/** Handshake/session failures before quarantine. */
constexpr uint32_t kFailStreakQuarantineThreshold = 3;
constexpr SimTime kHandshakeTimeoutUs = 60'000;
constexpr SimTime kQuarantineBaseUs = 250'000;  ///< first quarantine hold
constexpr SimTime kQuarantineMaxUs = 4'000'000; ///< backoff cap
constexpr size_t kTelemetryQueueCap = 256;      ///< app-level backpressure

void
putU32(std::string &s, uint32_t v)
{
    s.push_back(char(v & 0xff));
    s.push_back(char((v >> 8) & 0xff));
    s.push_back(char((v >> 16) & 0xff));
    s.push_back(char((v >> 24) & 0xff));
}

/** Length-prefixed, so names can never splice into each other. */
void
putName(std::string &s, const std::string &name)
{
    putU32(s, uint32_t(name.size()));
    s += name;
}

std::string
helloTranscript(const char *label, uint32_t epoch,
                const std::string &from, const std::string &to,
                const uint8_t *eph, size_t eph_len)
{
    std::string s(label);
    putU32(s, epoch);
    putName(s, from);
    putName(s, to);
    s.append(reinterpret_cast<const char *>(eph), eph_len);
    return s;
}

std::string
telemetryTranscript(uint32_t epoch, const std::string &from,
                    const std::string &to,
                    const std::vector<uint8_t> &app)
{
    std::string s("jaavr-telemetry");
    putU32(s, epoch);
    putName(s, from);
    putName(s, to);
    s.append(reinterpret_cast<const char *>(app.data()), app.size());
    return s;
}

/** The bytes a frame tag commits to: header fields plus payload. */
std::vector<uint8_t>
tagInput(const Frame &f)
{
    std::vector<uint8_t> in;
    in.reserve(13 + f.payload.size());
    in.push_back(uint8_t(f.type));
    for (uint32_t v : {f.session, f.seq, f.ack})
        for (int i = 0; i < 4; i++)
            in.push_back(uint8_t(v >> (8 * i)));
    in.insert(in.end(), f.payload.begin(), f.payload.end());
    return in;
}

FrameAuth::Tag
truncate16(const std::array<uint8_t, Sha256::digestSize> &digest)
{
    FrameAuth::Tag tag;
    std::copy(digest.begin(), digest.begin() + tag.size(),
              tag.begin());
    return tag;
}

/**
 * Integrity-only tag for handshake frames: anyone can compute it, so
 * it rejects transmission corruption, not forgery — the identity
 * signature inside the payload is the forgery gate.
 */
FrameAuth::Tag
unkeyedFrameTag(const Frame &f)
{
    std::vector<uint8_t> in = tagInput(f);
    std::string msg("jaavr-net-unkeyed");
    msg.append(reinterpret_cast<const char *>(in.data()), in.size());
    return truncate16(Sha256::digest(msg));
}

FrameAuth::Tag
keyedFrameTag(const std::vector<uint8_t> &key, const Frame &f)
{
    return truncate16(hmacSha256(key, tagInput(f)));
}

} // namespace

const char *
peerStateName(PeerState s)
{
    switch (s) {
    case PeerState::Idle: return "idle";
    case PeerState::Handshaking: return "handshaking";
    case PeerState::Established: return "established";
    case PeerState::Quarantined: return "quarantined";
    }
    return "?";
}

/**
 * Per-peer FrameAuth: Hello/HelloAck judged by the unkeyed tag,
 * Data/Ack by HMAC under the key of the epoch named in the frame
 * header. The last two epoch keys are retained so stale frames from
 * the epoch just superseded still verify (and are then discarded as
 * foreign by the session) instead of counting as forgeries and
 * feeding the re-key ladder a false positive.
 */
class Node::PeerAuth final : public FrameAuth
{
  public:
    Tag
    seal(const Frame &f) override
    {
        // Only sequenced/Ack traffic flows through the session; the
        // node seals its raw handshake frames itself.
        auto it = keys.find(f.session);
        static const std::vector<uint8_t> kNoKey;
        return keyedFrameTag(it == keys.end() ? kNoKey : it->second,
                             f);
    }

    bool
    accept(const Frame &f, const Tag &tag) override
    {
        if (f.type == FrameType::Hello ||
            f.type == FrameType::HelloAck)
            return tag == unkeyedFrameTag(f);
        auto it = keys.find(f.session);
        if (it == keys.end()) {
            // An epoch we hold no key for: unverifiable, dropped,
            // but NOT evidence of tampering (e.g. the keyed Ack a
            // just-keyed responder sends before our HelloAck lands).
            noKeyDropsV++;
            return false;
        }
        if (tag != keyedFrameTag(it->second, f)) {
            keyedRejectsV++;
            return false;
        }
        keyedAcceptsV++;
        return true;
    }

    void
    setKey(uint32_t epoch, std::vector<uint8_t> key)
    {
        keys[epoch] = std::move(key);
        while (keys.size() > 2)
            keys.erase(keys.begin());
    }

    uint64_t keyedRejects() const { return keyedRejectsV; }
    uint64_t keyedAccepts() const { return keyedAcceptsV; }
    uint64_t noKeyDrops() const { return noKeyDropsV; }

  private:
    std::map<uint32_t, std::vector<uint8_t>> keys;
    uint64_t keyedRejectsV = 0;
    uint64_t keyedAcceptsV = 0;
    uint64_t noKeyDropsV = 0;
};

struct Node::Peer
{
    explicit Peer(const SessionConfig &sc) : session(sc) {}

    std::string name;
    AffinePoint identityKey;
    TransmitFn transmit;

    PeerState state = PeerState::Idle;
    uint32_t epoch = 0; ///< 0 = never keyed; handshakes start at 1
    PeerAuth auth;
    ReliableSession session;

    bool initiator = false;
    EcdsaKeyPair eph; ///< our ephemeral for the epoch in progress
    SimTime handshakeDeadline = 0;

    // Raw handshake frames under node-driven retransmission; an
    // empty byte vector means nothing pending.
    std::vector<uint8_t> helloBytes;
    SimTime helloNextAt = 0;
    SimTime helloRto = 0;
    uint32_t helloRetries = 0;
    std::vector<uint8_t> helloAckBytes;
    SimTime helloAckNextAt = 0;
    SimTime helloAckRto = 0;
    uint32_t helloAckRetries = 0;
    uint64_t seenKeyedAccepts = 0; ///< auth counter watermark
    uint64_t seenKeyedRejects = 0; ///< auth counter watermark

    // Degradation ladders.
    uint32_t authFailStreak = 0;
    uint32_t failStreak = 0;
    SimTime quarantineHold = 0; ///< doubles per quarantine, capped
    SimTime quarantineUntil = 0;

    // App telemetry: raw (unsigned) payloads pending first send, and
    // the raw payload behind every in-flight Data seq so an epoch
    // switch can pull them back for re-signing. Each carries its
    // trace identity and queue time so the ack can close one
    // "telemetry" span across retransmits and re-keys.
    struct AppMsg
    {
        std::vector<uint8_t> bytes;
        uint64_t traceId = 0;
        SimTime queuedAt = 0;
    };
    std::deque<AppMsg> pendingApp;
    std::map<uint32_t, AppMsg> inflightApp;
};

Node::Node(const NodeConfig &config, const WeierstrassCurve &curve,
           const Ecdsa &dsa)
    : cfg(config), curve(curve), dsa(dsa), rng(config.seed)
{
    size_t bits = std::max(dsa.order().bitLength(),
                           curve.field().modulus().bitLength());
    scalarBytes = (bits + 7) / 8;
    identityPair = dsa.generateKey(rng);
}

Node::~Node() = default;

Node::Peer &
Node::peerRef(const std::string &peer)
{
    return *peers.at(peer);
}

const Node::Peer &
Node::peerRef(const std::string &peer) const
{
    return *peers.at(peer);
}

void
Node::addPeer(const std::string &peer,
              const AffinePoint &identity_key, TransmitFn transmit)
{
    SessionConfig sc = cfg.session;
    // Derive a per-(node, peer) jitter seed so identical nodes don't
    // retransmit in lockstep; FNV-1a over "name>peer" mixed with the
    // node seed keeps it reproducible.
    uint64_t h = 14695981039346656037ULL ^ cfg.seed;
    for (char c : cfg.name + ">" + peer)
        h = (h ^ uint8_t(c)) * 1099511628211ULL;
    sc.seed = h;

    auto owned = std::make_unique<Peer>(sc);
    Peer *p = owned.get();
    p->name = peer;
    p->identityKey = identity_key;
    p->transmit = std::move(transmit);

    p->session.setAuth(&p->auth);
    p->session.setTransmit([p](std::vector<uint8_t> data, SimTime t) {
        p->transmit(std::move(data), t);
    });
    p->session.setDeliver([this, p](const Frame &f, SimTime t) {
        if (f.type == FrameType::Data)
            handleData(*p, f, t);
    });
    p->session.setHandshake([this, p](const Frame &f, SimTime t) {
        handleHandshake(*p, f, t);
    });
    p->session.setForeign([this](const Frame &, SimTime) {
        st.staleEpochIgnored++;
    });
    p->session.setAcked([this, p](const Frame &f, SimTime t) {
        auto it = p->inflightApp.find(f.seq);
        if (it != p->inflightApp.end()) {
            // Delivery confirmed: close the end-to-end telemetry
            // span (queue time → cumulative ack, across any
            // retransmits and re-keys in between).
            if (traceRing && tracer->enabled()) {
                obs::SpanRecord s;
                s.name = "telemetry";
                s.cat = "net";
                s.traceId = it->second.traceId;
                s.spanId = tracer->newSpanId();
                s.beginUs = it->second.queuedAt;
                s.endUs = std::max(t, it->second.queuedAt);
                s.arg0Name = "seq";
                s.arg0 = f.seq;
                s.arg1Name = "epoch";
                s.arg1 = f.session;
                traceRing->push(s);
            }
            p->inflightApp.erase(it);
            st.telemetryAcked++;
        }
    });
    if (tracer)
        p->session.setTraceSink(tracer, traceRing);

    peers.emplace(peer, std::move(owned));
}

void
Node::setTracer(obs::SpanTracer *t)
{
    tracer = t;
    traceRing = tracer ? tracer->ring("node:" + cfg.name) : nullptr;
    for (auto &[name, p] : peers)
        p->session.setTraceSink(tracer, traceRing);
}

void
Node::setFlightRecorder(obs::FlightRecorder *f)
{
    flight = f;
    flightSrc = flight ? flight->source("node:" + cfg.name) : nullptr;
}

void
Node::noteEvent(const char *name, SimTime now, const char *arg0_name,
                uint64_t arg0, const char *arg1_name, uint64_t arg1,
                uint64_t trace_id)
{
    if (!traceRing || !tracer->enabled())
        return;
    obs::SpanRecord s;
    s.name = name;
    s.cat = "net";
    s.traceId = trace_id;
    s.spanId = tracer->newSpanId();
    s.beginUs = now;
    s.endUs = now;
    s.arg0Name = arg0_name;
    s.arg0 = arg0;
    s.arg1Name = arg1_name;
    s.arg1 = arg1;
    traceRing->push(s);
}

std::vector<uint8_t>
Node::sealRaw(const Frame &f) const
{
    Frame sealed = f;
    FrameAuth::Tag tag = unkeyedFrameTag(f);
    sealed.payload.insert(sealed.payload.end(), tag.begin(),
                          tag.end());
    return encodeFrame(sealed);
}

SimTime
Node::backoffStep(Peer &, SimTime &rto)
{
    SimTime jitterSpan = rto * cfg.session.jitterPermil / 1000;
    SimTime jitter = jitterSpan ? rng.below(jitterSpan + 1) : 0;
    SimTime delay = rto + jitter;
    rto = std::min<SimTime>(rto * 2, cfg.session.rtoMaxUs);
    return delay;
}

std::vector<uint8_t>
Node::helloPayload(Peer &p, const char *label)
{
    std::vector<uint8_t> out;
    out.reserve(4 * scalarBytes);
    std::vector<uint8_t> x = p.eph.q.x.toBytes(scalarBytes);
    std::vector<uint8_t> y = p.eph.q.y.toBytes(scalarBytes);
    out.insert(out.end(), x.begin(), x.end());
    out.insert(out.end(), y.begin(), y.end());
    std::string msg = helloTranscript(label, p.epoch, cfg.name,
                                      p.name, out.data(), out.size());
    EcdsaSignature sig = dsa.sign(msg, identityPair.d, rng);
    std::vector<uint8_t> r = sig.r.toBytes(scalarBytes);
    std::vector<uint8_t> s = sig.s.toBytes(scalarBytes);
    out.insert(out.end(), r.begin(), r.end());
    out.insert(out.end(), s.begin(), s.end());
    return out;
}

bool
Node::verifyHello(const Peer &p, const char *label, const Frame &f,
                  AffinePoint &eph_out) const
{
    const std::vector<uint8_t> &pl = f.payload;
    if (pl.size() != 4 * scalarBytes)
        return false;
    auto slice = [&](size_t i) {
        return BigUInt::fromBytes(std::vector<uint8_t>(
            pl.begin() + i * scalarBytes,
            pl.begin() + (i + 1) * scalarBytes));
    };
    AffinePoint eph(slice(0), slice(1));
    const BigUInt &n = dsa.order();
    if (!validatePoint(curve, eph, &n))
        return false;
    EcdsaSignature sig{slice(2), slice(3)};
    std::string msg = helloTranscript(label, f.session, p.name,
                                      cfg.name, pl.data(),
                                      2 * scalarBytes);
    if (!dsa.verify(msg, sig, p.identityKey))
        return false;
    eph_out = eph;
    return true;
}

bool
Node::deriveKey(Peer &p, const AffinePoint &peer_eph,
                const std::string &initiator,
                const std::string &responder)
{
    AffinePoint shared = curve.mulLadder(p.eph.d, peer_eph);
    if (shared.inf)
        return false;
    std::string kdf("jaavr-net-kdf");
    putU32(kdf, p.epoch);
    std::vector<uint8_t> x = shared.x.toBytes(scalarBytes);
    kdf.append(reinterpret_cast<const char *>(x.data()), x.size());
    putName(kdf, initiator);
    putName(kdf, responder);
    auto digest = Sha256::digest(kdf);
    p.auth.setKey(p.epoch,
                  std::vector<uint8_t>(digest.begin(), digest.end()));
    return true;
}

void
Node::beginHandshake(Peer &p, uint32_t epoch, SimTime now)
{
    p.epoch = epoch;
    p.state = PeerState::Handshaking;
    p.initiator = true;
    p.session.reset(epoch);
    p.eph = dsa.generateKey(rng);

    Frame h;
    h.type = FrameType::Hello;
    h.session = epoch;
    h.payload = helloPayload(p, "jaavr-hello");
    p.helloBytes = sealRaw(h);
    p.helloRto = cfg.session.rtoUs;
    p.helloRetries = 0;
    p.helloNextAt = now + backoffStep(p, p.helloRto);
    p.helloAckBytes.clear();
    p.handshakeDeadline = now + kHandshakeTimeoutUs;
    noteEvent("handshake_begin", now, "epoch", epoch, "pending",
              p.pendingApp.size());
    p.transmit(p.helloBytes, now);
}

void
Node::connect(const std::string &peer, SimTime now)
{
    Peer &p = peerRef(peer);
    if (p.state == PeerState::Quarantined ||
        p.state == PeerState::Handshaking)
        return;
    if (p.state == PeerState::Established)
        return;
    beginHandshake(p, p.epoch + 1, now);
}

void
Node::establish(Peer &p, SimTime now)
{
    p.state = PeerState::Established;
    p.handshakeDeadline = 0;
    p.failStreak = 0;
    p.authFailStreak = 0;
    p.quarantineHold = 0;
    st.handshakesCompleted++;
    noteEvent("established", now, "epoch", p.epoch, "completed",
              st.handshakesCompleted);
    flushTelemetry(p, now);
}

void
Node::quarantine(Peer &p, SimTime now)
{
    st.quarantineEvents++;
    p.state = PeerState::Quarantined;
    p.failStreak = 0;
    p.handshakeDeadline = 0;
    p.helloBytes.clear();
    p.helloAckBytes.clear();
    p.quarantineHold =
        p.quarantineHold
            ? std::min<SimTime>(p.quarantineHold * 2, kQuarantineMaxUs)
            : kQuarantineBaseUs;
    p.quarantineUntil = now + p.quarantineHold;
    noteEvent("quarantine", now, "hold_us", p.quarantineHold,
              "epoch", p.epoch);
    if (flightSrc)
        flightSrc->record(now, "quarantine",
                          csprintf("peer %s held %llu us",
                                   p.name.c_str(),
                                   static_cast<unsigned long long>(
                                       p.quarantineHold)),
                          p.quarantineHold, p.epoch);
}

void
Node::escalateFailure(Peer &p, SimTime now)
{
    st.handshakeFailures++;
    p.failStreak++;
    requeueUnacked(p);
    p.helloBytes.clear();
    p.helloAckBytes.clear();
    if (p.failStreak >= kFailStreakQuarantineThreshold)
        quarantine(p, now);
    else
        beginHandshake(p, p.epoch + 1, now);
}

void
Node::authFailure(Peer &p, SimTime now)
{
    st.authFailures++;
    if (p.state != PeerState::Established)
        return;
    p.authFailStreak++;
    noteEvent("auth_fail", now, "streak", p.authFailStreak, "epoch",
              p.epoch);
    if (p.authFailStreak >= kAuthFailRekeyThreshold) {
        st.rekeys++;
        p.authFailStreak = 0;
        // The forgery-rejection streak is a flight trigger: the
        // events leading up to the re-key are exactly the narrative
        // a postmortem wants.
        if (flightSrc) {
            flightSrc->record(
                now, "forgery_streak",
                csprintf("peer %s: %u rejects -> rekey epoch %u",
                         p.name.c_str(), kAuthFailRekeyThreshold,
                         p.epoch + 1),
                kAuthFailRekeyThreshold, p.epoch + 1);
            flight->trigger("net_forgery_streak");
        }
        noteEvent("rekey", now, "epoch", p.epoch + 1, "rekeys",
                  st.rekeys);
        requeueUnacked(p);
        beginHandshake(p, p.epoch + 1, now);
    }
}

void
Node::requeueUnacked(Peer &p)
{
    // Back to the front, highest seq first, so the pending queue
    // keeps the original submission order for re-signing.
    for (auto it = p.inflightApp.rbegin(); it != p.inflightApp.rend();
         ++it)
        p.pendingApp.push_front(std::move(it->second));
    p.inflightApp.clear();
}

std::vector<uint8_t>
Node::signTelemetry(Peer &p, const std::vector<uint8_t> &app)
{
    std::string msg =
        telemetryTranscript(p.epoch, cfg.name, p.name, app);
    EcdsaSignature sig = dsa.sign(msg, identityPair.d, rng);
    std::vector<uint8_t> out = app;
    std::vector<uint8_t> r = sig.r.toBytes(scalarBytes);
    std::vector<uint8_t> s = sig.s.toBytes(scalarBytes);
    out.insert(out.end(), r.begin(), r.end());
    out.insert(out.end(), s.begin(), s.end());
    return out;
}

void
Node::flushTelemetry(Peer &p, SimTime now)
{
    while (p.state == PeerState::Established &&
           !p.pendingApp.empty()) {
        uint32_t seq = p.session.nextSendSeq();
        std::vector<uint8_t> framed =
            signTelemetry(p, p.pendingApp.front().bytes);
        if (!p.session.send(FrameType::Data, std::move(framed), now,
                            p.pendingApp.front().traceId))
            break; // window full; tick() retries after acks
        p.inflightApp.emplace(seq, std::move(p.pendingApp.front()));
        p.pendingApp.pop_front();
    }
}

bool
Node::sendTelemetry(const std::string &peer,
                    std::vector<uint8_t> payload, SimTime now)
{
    Peer &p = peerRef(peer);
    if (p.pendingApp.size() + p.inflightApp.size() >= kTelemetryQueueCap) {
        st.telemetryRefused++;
        // Backpressure onset is a flight trigger; later refusals
        // only count (the app may hammer a saturated queue).
        if (flightSrc && st.telemetryRefused == 1) {
            flightSrc->record(now, "backpressure",
                              csprintf("peer %s app queue full",
                                       p.name.c_str()),
                              kTelemetryQueueCap, p.epoch);
            flight->trigger("net_backpressure");
        }
        return false;
    }
    st.telemetryQueued++;
    Peer::AppMsg msg;
    msg.bytes = std::move(payload);
    msg.traceId =
        tracer && tracer->enabled() ? tracer->newTraceId() : 0;
    msg.queuedAt = now;
    p.pendingApp.push_back(std::move(msg));
    if (p.state == PeerState::Established)
        flushTelemetry(p, now);
    else if (p.state == PeerState::Idle)
        connect(peer, now);
    return true;
}

void
Node::handleHello(Peer &p, const Frame &f, SimTime now)
{
    if (f.session < p.epoch) {
        st.staleEpochIgnored++;
        return;
    }
    if (f.session == p.epoch) {
        if (p.state == PeerState::Established && !p.initiator) {
            // Duplicate Hello: our HelloAck was likely lost.
            if (!p.helloAckBytes.empty()) {
                st.handshakeRetransmits++;
                p.transmit(p.helloAckBytes, now);
            }
            return;
        }
        if (p.state == PeerState::Handshaking && p.initiator &&
            cfg.name < p.name)
            return; // cross-hello: the smaller name keeps initiating
        if (p.state != PeerState::Handshaking)
            return;
        // Cross-hello, yielding side: fall through and respond with
        // the ephemeral we already committed to our own Hello.
    }

    // Verify the identity signature BEFORE touching any state: a
    // forged high-epoch Hello must not be able to reset a session.
    AffinePoint peerEph;
    if (!verifyHello(p, "jaavr-hello", f, peerEph)) {
        st.authFailures++;
        return;
    }
    if (f.session > p.epoch) {
        requeueUnacked(p);
        p.epoch = f.session;
        p.session.reset(p.epoch);
        p.eph = dsa.generateKey(rng);
    }
    p.initiator = false;
    p.helloBytes.clear();
    if (!deriveKey(p, peerEph, p.name, cfg.name)) {
        st.authFailures++;
        return;
    }

    Frame a;
    a.type = FrameType::HelloAck;
    a.session = p.epoch;
    a.payload = helloPayload(p, "jaavr-helloack");
    p.helloAckBytes = sealRaw(a);
    p.helloAckRto = cfg.session.rtoUs;
    p.helloAckRetries = 0;
    p.helloAckNextAt = now + backoffStep(p, p.helloAckRto);
    p.transmit(p.helloAckBytes, now);
    establish(p, now);
}

void
Node::handleHelloAck(Peer &p, const Frame &f, SimTime now)
{
    if (f.session != p.epoch) {
        st.staleEpochIgnored++;
        return;
    }
    if (p.state == PeerState::Established && p.initiator) {
        // Duplicate HelloAck: our keyed confirmation was lost.
        p.session.sendAck(now);
        return;
    }
    if (p.state != PeerState::Handshaking || !p.initiator)
        return;
    AffinePoint peerEph;
    if (!verifyHello(p, "jaavr-helloack", f, peerEph)) {
        st.authFailures++;
        return;
    }
    if (!deriveKey(p, peerEph, cfg.name, p.name)) {
        st.authFailures++;
        return;
    }
    p.helloBytes.clear();
    establish(p, now);
    // Keyed confirmation; the responder stops HelloAck retransmits
    // on its first accepted keyed frame.
    p.session.sendAck(now);
}

void
Node::handleHandshake(Peer &p, const Frame &f, SimTime now)
{
    if (f.type == FrameType::Hello)
        handleHello(p, f, now);
    else
        handleHelloAck(p, f, now);
}

void
Node::handleData(Peer &p, const Frame &f, SimTime now)
{
    if (f.payload.size() < 2 * scalarBytes) {
        st.telemetryRejected++;
        authFailure(p, now);
        return;
    }
    size_t appLen = f.payload.size() - 2 * scalarBytes;
    std::vector<uint8_t> app(f.payload.begin(),
                             f.payload.begin() + appLen);
    auto scalar = [&](size_t i) {
        return BigUInt::fromBytes(std::vector<uint8_t>(
            f.payload.begin() + appLen + i * scalarBytes,
            f.payload.begin() + appLen + (i + 1) * scalarBytes));
    };
    EcdsaSignature sig{scalar(0), scalar(1)};
    std::string msg =
        telemetryTranscript(f.session, p.name, cfg.name, app);
    if (!dsa.verify(msg, sig, p.identityKey)) {
        st.telemetryRejected++;
        authFailure(p, now);
        return;
    }
    st.telemetryAccepted++;
    if (onTelemetry)
        onTelemetry(p.name, app, now);
}

void
Node::onWire(const std::string &peer,
             const std::vector<uint8_t> &data, SimTime now)
{
    Peer &p = peerRef(peer);
    if (p.state == PeerState::Quarantined)
        return; // no traffic in or out while quarantined
    p.session.onWire(data, now);

    // Keyed-MAC rejects observed by the auth hook feed the re-key
    // ladder; an accepted keyed frame is the responder's cue that
    // the initiator holds the key, so HelloAck retransmission stops.
    while (p.seenKeyedRejects < p.auth.keyedRejects()) {
        p.seenKeyedRejects++;
        authFailure(p, now);
        if (p.state != PeerState::Established)
            break;
    }
    p.seenKeyedRejects = p.auth.keyedRejects();
    if (p.auth.keyedAccepts() > p.seenKeyedAccepts) {
        p.seenKeyedAccepts = p.auth.keyedAccepts();
        if (!p.initiator)
            p.helloAckBytes.clear();
    }
}

void
Node::tick(SimTime now)
{
    for (auto &[name, owned] : peers) {
        Peer &p = *owned;
        if (p.state == PeerState::Idle)
            continue;
        if (p.state == PeerState::Quarantined) {
            if (now >= p.quarantineUntil)
                beginHandshake(p, p.epoch + 1, now);
            continue;
        }
        p.session.poll(now);
        if (p.session.failed()) {
            escalateFailure(p, now);
            continue;
        }
        if (!p.helloBytes.empty() && now >= p.helloNextAt) {
            if (p.helloRetries >= cfg.session.maxRetries) {
                escalateFailure(p, now);
                continue;
            }
            p.helloRetries++;
            st.handshakeRetransmits++;
            p.helloNextAt = now + backoffStep(p, p.helloRto);
            p.transmit(p.helloBytes, now);
        }
        if (!p.helloAckBytes.empty() && now >= p.helloAckNextAt) {
            if (p.helloAckRetries >= cfg.session.maxRetries) {
                escalateFailure(p, now);
                continue;
            }
            p.helloAckRetries++;
            st.handshakeRetransmits++;
            p.helloAckNextAt = now + backoffStep(p, p.helloAckRto);
            p.transmit(p.helloAckBytes, now);
        }
        if (p.state == PeerState::Handshaking &&
            p.handshakeDeadline && now >= p.handshakeDeadline) {
            escalateFailure(p, now);
            continue;
        }
        if (p.state == PeerState::Established)
            flushTelemetry(p, now);
    }
}

PeerState
Node::peerState(const std::string &peer) const
{
    return peerRef(peer).state;
}

uint32_t
Node::peerEpoch(const std::string &peer) const
{
    return peerRef(peer).epoch;
}

size_t
Node::peerBacklog(const std::string &peer) const
{
    const Peer &p = peerRef(peer);
    return p.pendingApp.size() + p.inflightApp.size();
}

const SessionStats &
Node::sessionStats(const std::string &peer) const
{
    return peerRef(peer).session.stats();
}

void
Node::publishMetrics(MetricsRegistry &reg) const
{
    MetricLabels nodeLabels{{"node", cfg.name}};
    auto c = [&](const char *name, uint64_t v) {
        auto &counter = reg.counter(name, nodeLabels);
        if (v > counter.value())
            counter.inc(v - counter.value());
    };
    c("net_node_handshakes_completed", st.handshakesCompleted);
    c("net_node_handshake_failures", st.handshakeFailures);
    c("net_node_handshake_retransmits", st.handshakeRetransmits);
    c("net_node_rekeys", st.rekeys);
    c("net_node_quarantine_events", st.quarantineEvents);
    c("net_node_auth_failures", st.authFailures);
    c("net_node_telemetry_queued", st.telemetryQueued);
    c("net_node_telemetry_refused", st.telemetryRefused);
    c("net_node_telemetry_acked", st.telemetryAcked);
    c("net_node_telemetry_accepted", st.telemetryAccepted);
    c("net_node_telemetry_rejected", st.telemetryRejected);
    c("net_node_stale_epoch_ignored", st.staleEpochIgnored);

    uint64_t quarantined = 0;
    for (const auto &[peerName, owned] : peers)
        if (owned->state == PeerState::Quarantined)
            quarantined++;
    reg.gauge("net_node_quarantined_peers", nodeLabels)
        .set(double(quarantined));

    for (const auto &[peerName, owned] : peers) {
        const Peer &p = *owned;
        MetricLabels labels{{"node", cfg.name}, {"peer", peerName}};
        reg.gauge("net_peer_state", labels)
            .set(double(uint8_t(p.state)));
        reg.gauge("net_peer_epoch", labels).set(double(p.epoch));
        reg.gauge("net_peer_backlog", labels)
            .set(double(p.pendingApp.size() + p.inflightApp.size()));
        p.session.publishMetrics(reg, labels);
    }
}

} // namespace jaavr::net
