/**
 * @file
 * Node: one simulated IoT endpoint. A node owns an ECDSA identity
 * key on the shared curve, and per peer a ReliableSession plus the
 * cryptographic session state: an ECDH handshake establishes an
 * epoch key, then telemetry flows as ECDSA-signed, HMAC-tagged Data
 * frames. All randomness (ephemeral keys, ECDSA nonces, backoff
 * jitter) comes from seeded Rngs, so a fixed seed replays the node
 * bit-for-bit in simulated time.
 *
 * Handshake (initiator I, responder R, epoch e):
 *   I->R  Hello    ephemeral Q_I, ECDSA_identity(I)("hello", e, ...)
 *   R->I  HelloAck ephemeral Q_R, ECDSA_identity(R)("helloack", ...)
 * Both derive K_e = SHA-256(kdf-label, e, x(d*Q_peer), I, R); from
 * then on every Data/Ack frame of epoch e carries a 16-byte
 * truncated HMAC-SHA-256 tag under K_e. Hello/HelloAck are
 * unsequenced (retransmitted by the node itself, with the session's
 * backoff policy) and carry only an unkeyed integrity tag — their
 * real gate is the identity signature, checked here before any state
 * is reset. Keeping handshake frames out of the sequence space means
 * every sequence slot is claimed by keyed traffic, so forged
 * handshake frames can never shadow genuine telemetry. Each epoch
 * starts a fresh sequence space; a higher-epoch Hello from a
 * registered peer (with a valid identity signature) supersedes the
 * session — that is how both initial connects and re-keys arrive.
 * When two nodes Hello each other simultaneously at the same epoch,
 * the lexicographically smaller name keeps the initiator role.
 *
 * Degradation ladder (the robustness story this layer exists for):
 *  1. a frame failing its keyed MAC or a telemetry payload failing
 *     signature verification bumps a consecutive-failure counter;
 *     at three in a row the node re-keys: epoch+1, fresh
 *     handshake, and every unacknowledged telemetry payload is
 *     re-signed under the new epoch and re-queued so nothing is
 *     lost;
 *  2. a handshake that times out, or a session that exhausts its
 *     retransmit budget, counts a failure streak; at three the
 *     peer is quarantined — no traffic in or out — for an
 *     exponentially growing, capped backoff (0.25 s doubling to
 *     4 s, simulated), after which the node probes again with a fresh
 *     handshake;
 *  3. every transition publishes through the MetricsRegistry
 *     (net_node_* / net_session_* names) so `monitor metrics`-style
 *     consumers and the chaos campaign read the same counters.
 */

#ifndef JAAVR_NET_NODE_HH
#define JAAVR_NET_NODE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "curves/ecdsa.hh"
#include "net/session.hh"
#include "obs/flight.hh"
#include "support/metrics.hh"

namespace jaavr::net
{

struct NodeConfig
{
    std::string name;
    uint64_t seed = 1;
    SessionConfig session;
};

enum class PeerState : uint8_t
{
    Idle,        ///< registered, no session attempted yet
    Handshaking, ///< Hello in flight, no epoch key yet
    Established, ///< keyed; telemetry flows
    Quarantined, ///< too many failures; waiting out the backoff
};

const char *peerStateName(PeerState s);

struct NodeStats
{
    uint64_t handshakesCompleted = 0;
    uint64_t handshakeFailures = 0;    ///< timeouts + session failures
    uint64_t handshakeRetransmits = 0; ///< Hello/HelloAck resends
    uint64_t rekeys = 0;               ///< auth-ladder epoch bumps
    uint64_t quarantineEvents = 0;
    uint64_t authFailures = 0;      ///< keyed-MAC + signature rejects
    uint64_t telemetryQueued = 0;   ///< accepted from the app
    uint64_t telemetryRefused = 0;  ///< app backpressure (queue cap)
    uint64_t telemetryAcked = 0;    ///< confirmed delivered
    uint64_t telemetryAccepted = 0; ///< received & fully verified
    uint64_t telemetryRejected = 0; ///< received, failed verification
    uint64_t staleEpochIgnored = 0; ///< old-epoch frames discarded
};

class Node
{
  public:
    using TransmitFn =
        std::function<void(std::vector<uint8_t>, SimTime)>;
    /** (peer name, verified telemetry payload, receive time). */
    using TelemetryFn = std::function<void(
        const std::string &, const std::vector<uint8_t> &, SimTime)>;

    /**
     * @param config node identity/knobs; config.name must be unique
     * @param curve  shared curve (must outlive the node)
     * @param dsa    signature context over the same curve and
     *               generator (must outlive the node)
     */
    Node(const NodeConfig &config, const WeierstrassCurve &curve,
         const Ecdsa &dsa);
    ~Node();

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    const std::string &name() const { return cfg.name; }

    /** This node's identity public key (provisioned to peers). */
    const AffinePoint &identity() const { return identityPair.q; }

    /**
     * Register @p peer with its provisioned identity key and the
     * transmit function for the link towards it.
     */
    void addPeer(const std::string &peer,
                 const AffinePoint &identity_key, TransmitFn transmit);

    /** Start a handshake towards @p peer (no-op while one runs). */
    void connect(const std::string &peer, SimTime now);

    /**
     * Queue @p payload for signed delivery to @p peer (handshaking
     * first if needed). Returns false when the app-level queue is
     * full (backpressure); queued payloads survive re-keys and
     * quarantines.
     */
    bool sendTelemetry(const std::string &peer,
                       std::vector<uint8_t> payload, SimTime now);

    /** Feed bytes arriving on the link from @p peer. */
    void onWire(const std::string &peer,
                const std::vector<uint8_t> &data, SimTime now);

    /** Timers: retransmits, handshake deadlines, quarantine expiry. */
    void tick(SimTime now);

    void setTelemetryHandler(TelemetryFn fn)
    {
        onTelemetry = std::move(fn);
    }

    PeerState peerState(const std::string &peer) const;
    uint32_t peerEpoch(const std::string &peer) const;
    /** Telemetry payloads not yet confirmed delivered to @p peer. */
    size_t peerBacklog(const std::string &peer) const;

    const NodeStats &stats() const { return st; }
    const SessionStats &sessionStats(const std::string &peer) const;

    /**
     * Publish node counters (net_node_*, labeled node=), per-peer
     * gauges (net_peer_*, labeled node=/peer=) and every peer
     * session's counters (net_session_*, same labels) into @p reg.
     * Safe to call repeatedly; counters are monotonic.
     */
    void publishMetrics(MetricsRegistry &reg) const;

    /**
     * Attach a span tracer (nullptr detaches). While enabled, every
     * telemetry payload gets a trace ID at sendTelemetry that
     * follows it through session send/retransmit/ack (one
     * "telemetry" span queue → delivery-confirmed, plus the
     * session's "send_ack"/"retransmit" records), and every
     * handshake / re-key / quarantine transition lands as an
     * instant event — all in deterministic simulated time, in this
     * node's own ring ("node:<name>").
     */
    void setTracer(obs::SpanTracer *t);

    /**
     * Attach a flight recorder (nullptr detaches). Auth-failure
     * streaks (the forgery-rejection ladder), re-keys, quarantines
     * and telemetry backpressure are retained; a streak reaching
     * the re-key threshold fires a dump trigger
     * ("net_forgery_streak"), as does the onset of backpressure.
     */
    void setFlightRecorder(obs::FlightRecorder *f);

  private:
    struct Peer;
    class PeerAuth;

    Peer &peerRef(const std::string &peer);
    const Peer &peerRef(const std::string &peer) const;

    void beginHandshake(Peer &p, uint32_t epoch, SimTime now);
    void quarantine(Peer &p, SimTime now);
    void escalateFailure(Peer &p, SimTime now);
    void authFailure(Peer &p, SimTime now);
    void establish(Peer &p, SimTime now);
    void flushTelemetry(Peer &p, SimTime now);
    void requeueUnacked(Peer &p);

    void handleHandshake(Peer &p, const Frame &f, SimTime now);
    void handleHello(Peer &p, const Frame &f, SimTime now);
    void handleHelloAck(Peer &p, const Frame &f, SimTime now);
    void handleData(Peer &p, const Frame &f, SimTime now);

    std::vector<uint8_t> helloPayload(Peer &p, const char *label);
    bool verifyHello(const Peer &p, const char *label, const Frame &f,
                     AffinePoint &eph_out) const;
    bool deriveKey(Peer &p, const AffinePoint &peer_eph,
                   const std::string &initiator,
                   const std::string &responder);
    std::vector<uint8_t>
    signTelemetry(Peer &p, const std::vector<uint8_t> &app);
    std::vector<uint8_t> sealRaw(const Frame &f) const;
    SimTime backoffStep(Peer &p, SimTime &rto);

    /** Instant trace event (no-op unless the tracer is enabled). */
    void noteEvent(const char *name, SimTime now,
                   const char *arg0_name, uint64_t arg0,
                   const char *arg1_name, uint64_t arg1,
                   uint64_t trace_id = 0);

    NodeConfig cfg;
    const WeierstrassCurve &curve;
    const Ecdsa &dsa;
    size_t scalarBytes; ///< serialized width of coords and scalars
    Rng rng;
    EcdsaKeyPair identityPair;
    NodeStats st;
    TelemetryFn onTelemetry;
    std::map<std::string, std::unique_ptr<Peer>> peers;

    // Observability (src/obs/): optional, deterministic sim time.
    obs::SpanTracer *tracer = nullptr;
    obs::SpanRing *traceRing = nullptr;
    obs::FlightRecorder *flight = nullptr;
    obs::FlightRecorder::Source *flightSrc = nullptr;
};

} // namespace jaavr::net

#endif // JAAVR_NET_NODE_HH
