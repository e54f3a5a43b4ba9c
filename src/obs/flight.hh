/**
 * @file
 * FlightRecorder: a crash-dump-style "last N events" recorder for
 * the service workers, network nodes, and the ISS trap layer
 * (DESIGN.md, "Request tracing & flight recorder").
 *
 * Each producer owns a Source — a bounded ring of structured events
 * (logical time, kind, detail text, two numeric arguments). Events
 * are rare by design (traps, verify mismatches, re-keys,
 * quarantines, backpressure refusals), so unlike the span rings a
 * Source takes a small mutex per record; the hot paths never record
 * anything.
 *
 * Dump triggers: any producer can call trigger(reason), which
 * rewrites the configured FLIGHT_*.json in full — header line first
 * (reason of the *latest* trigger, trigger count), then every
 * retained event ordered by (source name, per-source sequence
 * number). Rewriting on every trigger makes the final file a
 * function of the event history alone, so a deterministic workload
 * (fixed seed, simulated time) produces a byte-identical dump on
 * rerun — the same convention the VCD and leakage writers pin.
 * Producers must therefore supply *logical* time (simulated µs,
 * retired cycles, per-worker op ordinals), never the wall clock.
 *
 * dump(path, reason) is the on-demand face (the GDB server's
 * `monitor flight dump`); it does not count as a trigger.
 *
 * MachineTrapFlight is an ExecObserver that wants only traps, which
 * never makes a run observed: every fault-like trap (illegal opcode,
 * OOB access, stack overflow, ...) that stops run() lands in the ring
 * with the retired-cycle timestamp and optionally fires a dump.
 * Control-flow traps (debug breaks, cycle-budget slices) are filtered
 * out by default — a GDB continue loop raises one per slice and they
 * are not anomalies.
 */

#ifndef JAAVR_OBS_FLIGHT_HH
#define JAAVR_OBS_FLIGHT_HH

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "avr/machine.hh"

namespace jaavr::obs
{

/** One retained event. Times are logical, never wall-clock. */
struct FlightEvent
{
    uint64_t seq = 0;    ///< per-source record ordinal (1-based)
    uint64_t time = 0;   ///< producer logical time (sim µs, cycles…)
    const char *kind = ""; ///< literal: "trap", "rekey", ...
    std::string detail;  ///< formatted description
    uint64_t a = 0;      ///< numeric arguments (kind-specific)
    uint64_t b = 0;
};

class FlightRecorder
{
  public:
    /** Per-producer bounded event ring (last @p capacity events). */
    class Source
    {
      public:
        Source(std::string name, size_t capacity);

        void record(uint64_t time, const char *kind,
                    std::string detail, uint64_t a = 0,
                    uint64_t b = 0);

        const std::string &name() const { return nameV; }
        /** Total events ever recorded (any thread). */
        uint64_t recorded() const
        {
            return recordedV.load(std::memory_order_relaxed);
        }
        std::vector<FlightEvent> snapshot() const;

      private:
        std::string nameV;
        size_t cap;
        mutable std::mutex mu;
        uint64_t nextSeq = 1;
        std::deque<FlightEvent> events;
        std::atomic<uint64_t> recordedV{0};
    };

    explicit FlightRecorder(size_t capacity = 64);

    /** Look up or create a source; pointer stable for our lifetime. */
    Source *source(const std::string &name);

    /** Where trigger() dumps to; empty disables trigger dumps. */
    void setDumpPath(std::string path);
    const std::string &dumpPath() const { return dumpPathV; }

    /**
     * A dump-worthy anomaly happened: count it and, if a dump path
     * is set, rewrite the dump file. Returns false only on I/O
     * failure.
     */
    bool trigger(const std::string &reason);

    /** On-demand dump (GDB monitor); not counted as a trigger. */
    bool dump(const std::string &path, const std::string &reason) const;

    uint64_t triggers() const
    {
        return triggerCount.load(std::memory_order_relaxed);
    }
    uint64_t totalRecorded() const;
    size_t sourceCount() const;
    /** One-line status for `monitor flight`. */
    std::string statusLine() const;

  private:
    size_t capacity;
    std::string dumpPathV;
    std::string lastReason;
    std::atomic<uint64_t> triggerCount{0};
    mutable std::mutex sourcesMutex;
    std::vector<std::unique_ptr<Source>> sources;
};

/**
 * Trap observer: records Machine traps into a flight source and
 * optionally fires a recorder trigger per fault-like trap.
 */
class MachineTrapFlight final : public ExecObserver
{
  public:
    MachineTrapFlight(FlightRecorder &recorder,
                      const std::string &source);

    /** Also record DebugBreak/CycleBudget stops (default: skip). */
    void setRecordAll(bool v) { recordAll = v; }
    /** Fire recorder.trigger("iss_trap") per recorded trap. */
    void setDumpOnTrap(bool v) { dumpOnTrap = v; }

    unsigned wants() const override { return Traps; }
    void onTrap(const Machine &m, const Trap &trap) override;

  private:
    FlightRecorder &recorder;
    FlightRecorder::Source *src;
    bool recordAll = false;
    bool dumpOnTrap = true;
};

} // namespace jaavr::obs

#endif // JAAVR_OBS_FLIGHT_HH
