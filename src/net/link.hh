/**
 * @file
 * LossyLink: a deterministic, seeded, simulated-time model of a bad
 * radio/UART hop. Each transmitted datagram independently suffers
 * drop, duplication, reordering (an extra hold that lets later
 * frames overtake), a single-bit flip, and a base-plus-jitter
 * delivery latency — all drawn from one Rng seeded per link, so a
 * fixed seed replays the exact same impairment sequence.
 *
 * Time is explicit: callers pass the current simulated microsecond
 * into transmit() and drain(); the link never reads a clock. That is
 * what makes the chaos campaign byte-identical across reruns.
 *
 * A LinkTap hook observes (and may mutate or veto) every datagram
 * at transmit time. FaultLinkTap adapts the PR 3 FaultInjector to
 * this hook so the same deterministic trigger machinery — including
 * the multi-shot burst schedules — can corrupt frames in flight:
 * the plan's trigger fires on (frame index, simulated time) instead
 * of (PC, cycle), the sramAddr field selects the byte offset and the
 * mask the XOR, and an InstSkip plan drops the frame outright.
 */

#ifndef JAAVR_NET_LINK_HH
#define JAAVR_NET_LINK_HH

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "avr/fault.hh"
#include "support/random.hh"

namespace jaavr::net
{

/** Simulated time in microseconds. */
using SimTime = uint64_t;

/** Impairment model of one unidirectional link. */
struct LinkConfig
{
    uint32_t dropPermil = 0;    ///< P(datagram vanishes) * 1000
    uint32_t dupPermil = 0;     ///< P(delivered twice) * 1000
    uint32_t reorderPermil = 0; ///< P(held back to overtake) * 1000
    uint32_t flipPermil = 0;    ///< P(one random bit flipped) * 1000
    SimTime latencyUs = 500;       ///< base one-way latency
    SimTime jitterUs = 200;        ///< uniform extra [0, jitterUs]
    SimTime reorderHoldUs = 2000;  ///< extra delay for reordered frames
    uint64_t seed = 1;
};

/** Counters of everything the link did to the traffic. */
struct LinkStats
{
    uint64_t transmitted = 0; ///< datagrams handed to transmit()
    uint64_t delivered = 0;   ///< datagrams handed out by drain()
    uint64_t dropped = 0;
    uint64_t duplicated = 0;
    uint64_t reordered = 0;
    uint64_t bitFlipped = 0;
    uint64_t tapDropped = 0;  ///< vetoed by the LinkTap
    uint64_t tapMutated = 0;  ///< mutated by the LinkTap
};

/** Transmit-time observer hook; see FaultLinkTap. */
class LinkTap
{
  public:
    virtual ~LinkTap() = default;

    /**
     * Called for every datagram entering the link, before the
     * impairment draws. @p index counts transmissions on this link.
     * Mutate @p data in place to corrupt; return false to drop.
     */
    virtual bool onTransmit(std::vector<uint8_t> &data, SimTime now,
                            uint64_t index) = 0;
};

class LossyLink
{
  public:
    explicit LossyLink(const LinkConfig &config)
        : cfg(config), rng(config.seed)
    {}

    /** Submit @p data at time @p now; impairments drawn here. */
    void transmit(std::vector<uint8_t> data, SimTime now);

    /** All datagrams due at or before @p now, in delivery order. */
    std::vector<std::vector<uint8_t>> drain(SimTime now);

    bool idle() const { return queue.empty(); }

    const LinkStats &stats() const { return st; }

    /** Live impairment knobs (campaigns flip rates mid-run). */
    LinkConfig &config() { return cfg; }

    /** Attach @p tap (nullptr detaches); must outlive the link. */
    void setTap(LinkTap *tap) { tapV = tap; }

  private:
    void enqueue(std::vector<uint8_t> data, SimTime at);

    LinkConfig cfg;
    Rng rng;
    LinkTap *tapV = nullptr;
    LinkStats st;
    uint64_t txIndex = 0;
    uint64_t orderCounter = 0; ///< tie-break for same-instant arrivals
    std::map<std::pair<SimTime, uint64_t>, std::vector<uint8_t>> queue;
};

/**
 * A bidirectional hop: two independently seeded LossyLinks. The
 * reverse direction derives its seed from the forward one so a
 * single campaign seed still pins both directions.
 */
struct DuplexLink
{
    explicit DuplexLink(const LinkConfig &config)
        : forward(config), backward(reverseConfig(config))
    {}

    static LinkConfig
    reverseConfig(LinkConfig c)
    {
        c.seed = c.seed * 0x9e3779b97f4a7c15ULL + 1;
        return c;
    }

    LossyLink forward;  ///< initiator -> responder
    LossyLink backward; ///< responder -> initiator
};

/**
 * FaultInjector-driven frame corruption (see file comment). The
 * injector is armed by the caller — single-shot or a burstPlans()
 * schedule — and polled here with (frame index, simulated time).
 */
class FaultLinkTap : public LinkTap
{
  public:
    explicit FaultLinkTap(FaultInjector &injector) : inj(injector) {}

    bool
    onTransmit(std::vector<uint8_t> &data, SimTime now,
               uint64_t index) override
    {
        if (!inj.pending() ||
            !inj.checkFire(static_cast<uint32_t>(index & 0xffff), now))
            return true;
        const FaultPlan &p = inj.plan();
        if (p.target == FaultTarget::InstSkip)
            return false; // "skip" drops the frame in flight
        if (!data.empty())
            data[p.sramAddr % data.size()] ^=
                static_cast<uint8_t>(p.mask ? p.mask : 1);
        return true;
    }

  private:
    FaultInjector &inj;
};

} // namespace jaavr::net

#endif // JAAVR_NET_LINK_HH
