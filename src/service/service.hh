/**
 * @file
 * EccService: the long-running batched ECC server (DESIGN.md §14).
 *
 * Architecture: a fixed pool of worker threads, each with a private
 * WorkerContext (no shared mutable state — see context.hh) and its
 * own bounded blocking request queue (queue.hh). Submitters spread
 * requests across the queues round-robin (from one submitter, request
 * i goes to worker i mod workers), so workers never contend with each
 * other. A worker sleeps in its queue's pop until a submit wakes it,
 * and exits once stop() has closed the queue and it is empty, so
 * every accepted request runs.
 *
 * Amortization: a worker drains up to `batchMax` requests per pop
 * and partitions the drain into (op, curve) groups, one handler per
 * op: Sign/Keygen, and Derive on Weierstrass, Montgomery and Edwards
 * curves. A group's Jacobian/extended results are converted to
 * affine with one shared Montgomery batched inversion, its ECDSA
 * nonce inverses share one mod-n inversion, and its x-only ladder
 * results share one X/Z division; a drain of one request is a group
 * of one and costs what the single-call library path costs. Verify
 * and hardened Derive share no work across requests and run singly.
 * With `amortize` on (the default) fixed-base multiplications go
 * through comb tables built once at startup. With `amortize` off no
 * comb is built and a pop drains one request, so no inversion is
 * shared — the "batch size 1" baseline bench_service compares
 * against, on the same handlers.
 *
 * Completion is by request: the worker writes the outputs, then
 * release-stores ServiceRequest::done; EccService::wait spins on it
 * with an acquire load. Latency (submit to completion) and batch
 * occupancy land in per-worker histograms published through
 * publishMetrics.
 */

#ifndef JAAVR_SERVICE_SERVICE_HH
#define JAAVR_SERVICE_SERVICE_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/flight.hh"
#include "obs/trace.hh"
#include "service/context.hh"
#include "service/queue.hh"
#include "service/request.hh"
#include "support/metrics.hh"

namespace jaavr
{

struct ServiceConfig
{
    unsigned workers = 2;        ///< worker threads (>= 1)
    size_t queueCapacity = 1024; ///< per-worker queue slots (>= 1)
    size_t batchMax = 16;        ///< drain limit when amortizing (>= 1)
    bool amortize = true;        ///< combs + multi-request drains
    uint64_t rngSeed = 1;        ///< base seed; worker i uses seed + i
};

class EccService
{
  public:
    explicit EccService(const ServiceConfig &cfg);
    ~EccService();

    EccService(const EccService &) = delete;
    EccService &operator=(const EccService &) = delete;

    void start();
    /** Refuses new requests, runs every accepted one, joins the workers. */
    void stop();
    bool started() const { return !threads.empty(); }

    /**
     * Enqueue a caller-owned request on the next worker's queue
     * (round-robin); false when that queue is full (backpressure) or
     * the service has been stopped.
     * Requests submitted before start() queue up and are processed
     * when the workers launch (tests use this to pin full-batch
     * occupancy deterministically). The request must outlive its
     * completion (see request.hh).
     */
    bool trySubmit(ServiceRequest *req);

    /** trySubmit that spins on backpressure; false once stopped. */
    bool submit(ServiceRequest *req);

    /** Block (spin + yield) until the request completes. */
    static void wait(const ServiceRequest &req);

    const ServiceConfig &config() const { return cfg; }
    uint64_t opsProcessed() const;

    /**
     * Publish queue depths, per-worker op/batch counters, and the
     * latency/occupancy histograms into @p reg. Counters are raised
     * to the current totals (idempotent across calls); histograms are
     * re-emitted bucket-faithfully (counts exact per bucket, sums
     * approximated by bucket upper bounds).
     */
    void publishMetrics(MetricsRegistry &reg) const;

    /** Per-worker latency percentile estimate in microseconds. */
    double latencyPercentileUs(double p) const;

    /**
     * Attach a span tracer (nullptr detaches); call before start().
     * While the tracer is enabled, trySubmit stamps a fresh trace ID
     * on every request and each worker records one "drain" span per
     * micro-batch with per-request child spans (queue-wait /
     * drain-wait stage arguments) plus per-group amortization spans
     * into its own ring. Attached-but-disabled costs a relaxed load
     * per submit and per worker pop — results stay bit-identical
     * either way (pinned by tests/test_obs.cc).
     */
    void setTracer(obs::SpanTracer *t);

    /**
     * Attach a flight recorder (nullptr detaches); call before
     * start(). Workers record verify-mismatch / hardened-failure
     * events (and fire a dump trigger); trySubmit records the onset
     * of queue-full backpressure. Event times are logical per-worker
     * op ordinals, never the wall clock.
     */
    void setFlightRecorder(obs::FlightRecorder *f);

    /** trySubmit refusals due to a full worker queue (backpressure). */
    uint64_t backpressureRefusals() const
    {
        return refusals.load(std::memory_order_relaxed);
    }

  private:
    struct WorkerStats
    {
        std::atomic<uint64_t> ops{0};
        std::atomic<uint64_t> batches{0};
        std::atomic<uint64_t> opsByKind[4] = {};
        std::atomic<uint64_t> failed{0};
        // The histograms are plain (metrics.hh is deliberately not
        // concurrent): the owning worker records under this mutex and
        // readers snapshot under it.
        mutable std::mutex histMutex;
        Histogram latencyUs;
        Histogram occupancy;

        WorkerStats(std::vector<double> latency_bounds,
                    std::vector<double> occupancy_bounds)
            : latencyUs(std::move(latency_bounds)),
              occupancy(std::move(occupancy_bounds))
        {}
    };

    using RequestQueue = BoundedBlockingQueue<ServiceRequest *>;

    /** Stamp @p req and push it onto the next worker's queue. */
    PushResult enqueue(ServiceRequest *req);
    void workerLoop(unsigned idx);
    void processBatch(WorkerContext &ctx, WorkerStats &st,
                      std::vector<ServiceRequest *> &batch,
                      unsigned idx);
    /** Verify (order-known curve) or hardened Derive: no shared work. */
    void processSingle(WorkerContext &ctx, ServiceRequest &req);
    // One handler per amortizable op, over one curve's group.
    void processSignBatch(WorkerContext &ctx,
                          std::vector<ServiceRequest *> &reqs);
    /** Derive on a Weierstrass-family or the Edwards curve. */
    void processDeriveBatch(WorkerContext &ctx,
                            std::vector<ServiceRequest *> &reqs);
    void processDeriveMontgomeryBatch(WorkerContext &ctx,
                                      std::vector<ServiceRequest *> &reqs);

    ServiceConfig cfg;
    ServiceTables tables;
    std::vector<std::unique_ptr<WorkerContext>> contexts;
    std::vector<std::unique_ptr<RequestQueue>> queues;
    std::vector<std::unique_ptr<WorkerStats>> stats;
    std::vector<std::thread> threads;
    std::atomic<uint64_t> roundRobin{0};

    // Observability (src/obs/): optional, attach before start().
    obs::SpanTracer *tracer = nullptr;
    obs::FlightRecorder *flight = nullptr;
    std::vector<obs::SpanRing *> traceRings;        // per worker
    std::vector<obs::FlightRecorder::Source *> flightSources;
    obs::FlightRecorder::Source *flightSubmit = nullptr;
    std::atomic<uint64_t> refusals{0};
};

} // namespace jaavr

#endif // JAAVR_SERVICE_SERVICE_HH
