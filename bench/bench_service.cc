/**
 * @file
 * Load benchmark for the ECC service (DESIGN.md §14): a seeded load
 * generator drives EccService through two sweeps and verifies every
 * single result against the single-call host golden model (the bench
 * exits nonzero on any mismatch, so its rows can be trusted).
 *
 *  1. Batch sweep: a fixed ECDSA-sign workload, queued before
 *     start() on a 1-worker service, runs through the unamortized
 *     configuration (amortize = off: no comb, one request per drain,
 *     i.e. the batch-size-1 configuration of the same sign handler)
 *     and the amortized one at several drain limits. Every run must
 *     drain exactly as scheduled — one request per drain unamortized,
 *     ceil(ops / batchMax) drains amortized — a deterministic check
 *     of the worker's drain limit that holds under any host load (it
 *     does not count inversions). The full sweep also reports ops/s
 *     per configuration plus the headline batched_speedup_vs_batch1
 *     ratio the regression gate pins (acceptance: >= 2x); --smoke
 *     prints the timings but neither emits nor checks the ratio.
 *
 *  2. Offered-load sweep: submitter threads pace mixed sign/derive
 *     traffic at a fraction of the measured capacity into a running
 *     multi-worker service; reports achieved ops/s and the p50/p99
 *     submit-to-completion latency from the service histograms
 *     (Histogram::percentile).
 *
 * Before either sweep it times the process's first use of the curves
 * (the set-up row): the ServiceCurveSet snapshot, whose number
 * theory and GLV-OPF search every process pays once, and the first
 * EccService construction (comb tables and worker contexts).
 *
 * Rows go to BENCH_service.json (pinned rows gate via jaavr-report
 * against bench/baselines.json); the final sweep's labeled metrics
 * snapshot — queue depths, batch occupancy, per-worker op counters —
 * goes to METRICS_service.json.
 *
 * Observability (src/obs/): the batch sweep runs with a span tracer
 * attached but idle — so the gated ops/s rows double as the
 * "tracing compiled in but off is free" check — and the paced load
 * levels run with it enabled. The recorded spans land in
 * TRACE_service.json (JSON lines: raw spans plus the per-stage
 * latency-attribution rows the gate pins) and
 * TRACE_service_chrome.json (chrome://tracing / Perfetto). A
 * deterministic flight-recorder drill (single corrupted Verify, one
 * worker) dumps FLIGHT_service.json byte-identically per seed.
 *
 * Flags: --smoke (CI-sized sweep), --seed <n>.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_util.hh"
#include "curves/standard_curves.hh"
#include "obs/flight.hh"
#include "obs/trace.hh"
#include "service/service.hh"
#include "support/logging.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

constexpr const char *kJsonPath = "BENCH_service.json";
constexpr const char *kMetricsPath = "METRICS_service.json";
constexpr const char *kTracePath = "TRACE_service.json";
constexpr const char *kChromePath = "TRACE_service_chrome.json";
constexpr const char *kFlightPath = "FLIGHT_service.json";

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "MISMATCH: %s\n", what);
        failures++;
    }
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** The sign workload both sweeps replay: deterministic (d, k, msg)
 *  tuples on secp160r1, with the golden signature precomputed. */
struct SignCase
{
    std::string msg;
    BigUInt d;
    BigUInt k;
    EcdsaSignature expect;
};

std::vector<SignCase>
makeSignCases(size_t count, uint64_t seed)
{
    Ecdsa golden(secp160r1Curve(), secp160r1Generator().g,
                 secp160r1Generator().order);
    const BigUInt &n = golden.order();
    Rng rng(seed);
    std::vector<SignCase> cases;
    cases.reserve(count);
    for (size_t i = 0; i < count; i++) {
        SignCase c;
        c.msg = "load " + std::to_string(i);
        c.d = BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
        c.k = BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
        auto sig = golden.signWithNonce(c.msg, c.d, c.k);
        if (!sig)
            fatal("degenerate nonce in the seeded workload");
        c.expect = *sig;
        cases.push_back(std::move(c));
    }
    return cases;
}

struct SweepResult
{
    double opsPerSec = 0;
    double p50Us = 0;
    double p99Us = 0;
    uint64_t drains = 0; ///< batch sweep: drains the worker published
};

/**
 * Run @p cases through a 1-worker service (so batch occupancy is the
 * drain limit, not scheduling luck), verifying every signature and
 * the drain count the worker published.
 */
SweepResult
runBatchConfig(const std::vector<SignCase> &cases, bool amortize,
               size_t batch_max, uint64_t seed,
               jaavr::obs::SpanTracer *tracer)
{
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = cases.size() * 2;
    cfg.batchMax = batch_max;
    cfg.amortize = amortize;
    cfg.rngSeed = seed;
    EccService svc(cfg);
    svc.setTracer(tracer);

    std::vector<ServiceRequest> reqs(cases.size());
    for (size_t i = 0; i < cases.size(); i++) {
        reqs[i].op = ServiceOp::Sign;
        reqs[i].curve = ServiceCurve::Secp160r1;
        reqs[i].message = cases[i].msg;
        reqs[i].privateKey = cases[i].d;
        reqs[i].nonce = cases[i].k;
        if (!svc.trySubmit(&reqs[i]))
            fatal("queue rejected a pre-start submission");
    }

    auto t0 = std::chrono::steady_clock::now();
    svc.start();
    for (auto &r : reqs)
        EccService::wait(r);
    double secs = secondsSince(t0);
    svc.stop();

    for (size_t i = 0; i < cases.size(); i++) {
        check(reqs[i].status == ServiceStatus::Ok, "sign status");
        check(reqs[i].sigOut.r == cases[i].expect.r &&
                  reqs[i].sigOut.s == cases[i].expect.s,
              "batched signature differs from the golden model");
    }

    // Everything was queued before start(), so the worker drains
    // min(left, limit) requests per wake: the limit is batchMax when
    // amortizing and 1 otherwise.
    MetricsRegistry reg;
    svc.publishMetrics(reg);
    SweepResult res;
    res.drains = reg.counter("service_batches", {{"worker", "0"}}).value();
    size_t limit = amortize ? batch_max : 1;
    check(res.drains == (cases.size() + limit - 1) / limit,
          "drain count differs from the pre-submitted schedule");

    res.opsPerSec = double(cases.size()) / secs;
    res.p50Us = svc.latencyPercentileUs(50);
    res.p99Us = svc.latencyPercentileUs(99);
    return res;
}

/**
 * Offered-load level: submitters pace requests at @p offered ops/s
 * total into a running service; returns the achieved rate and the
 * latency percentiles. Also verifies everything.
 */
SweepResult
runLoadLevel(const std::vector<SignCase> &cases, unsigned workers,
             double offered, uint64_t seed,
             MetricsRegistry *final_metrics,
             jaavr::obs::SpanTracer *tracer)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = 1024;
    cfg.batchMax = 16;
    cfg.amortize = true;
    cfg.rngSeed = seed;
    EccService svc(cfg);
    svc.setTracer(tracer);
    svc.start();

    const AffinePoint peer =
        secp160r1Curve().mulNaf(BigUInt(20220408), secp160r1Generator().g);

    constexpr unsigned kSubmitters = 2;
    std::vector<ServiceRequest> reqs(cases.size());
    auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> submitters;
    for (unsigned s = 0; s < kSubmitters; s++)
        submitters.emplace_back([&, s] {
            // Open-loop pacing: request i of this submitter is due at
            // i * (kSubmitters / offered) seconds.
            double interval = double(kSubmitters) / offered;
            size_t local = 0;
            for (size_t i = s; i < cases.size(); i += kSubmitters) {
                double due = double(local++) * interval;
                while (secondsSince(t0) < due)
                    std::this_thread::yield();
                ServiceRequest &r = reqs[i];
                if (i % 4 == 3) {
                    r.op = ServiceOp::Derive;
                    r.curve = ServiceCurve::Secp160r1;
                    r.privateKey = cases[i].d;
                    r.peer = peer;
                } else {
                    r.op = ServiceOp::Sign;
                    r.curve = ServiceCurve::Secp160r1;
                    r.message = cases[i].msg;
                    r.privateKey = cases[i].d;
                    r.nonce = cases[i].k;
                }
                if (!svc.submit(&r))
                    fatal("service stopped during the load run");
            }
        });
    for (auto &t : submitters)
        t.join();
    for (auto &r : reqs)
        EccService::wait(r);
    double secs = secondsSince(t0);
    svc.stop();

    const WeierstrassCurve &c = secp160r1Curve();
    for (size_t i = 0; i < cases.size(); i++) {
        check(reqs[i].status == ServiceStatus::Ok, "load-run status");
        if (reqs[i].op == ServiceOp::Sign) {
            check(reqs[i].sigOut.r == cases[i].expect.r &&
                      reqs[i].sigOut.s == cases[i].expect.s,
                  "load-run signature differs from the golden model");
        } else {
            AffinePoint expect = c.mulNaf(cases[i].d, peer);
            check(reqs[i].pointOut.x == expect.x &&
                      reqs[i].pointOut.y == expect.y,
                  "load-run derive differs from the golden model");
        }
    }

    if (final_metrics)
        svc.publishMetrics(*final_metrics);

    SweepResult res;
    res.opsPerSec = double(cases.size()) / secs;
    res.p50Us = svc.latencyPercentileUs(50);
    res.p99Us = svc.latencyPercentileUs(99);
    return res;
}

/** One request's stage decomposition, read back from its span. */
struct StageSample
{
    uint64_t e2e = 0;      ///< submit -> completion
    uint64_t queue = 0;    ///< enqueue -> worker pop
    uint64_t drainWait = 0;///< pop -> batch drain begin
    uint64_t compute = 0;  ///< drain begin -> completion
};

/** Nearest-rank percentile (copy; empty -> 0). */
uint64_t
pctOf(std::vector<uint64_t> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t idx = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::min(idx ? idx - 1 : 0, v.size() - 1)];
}

/**
 * Read every per-request span out of the tracer (quiesced: all
 * traced services are stopped) and emit the latency-attribution
 * rows: independent p50/p99 per stage, plus the tiling check — the
 * p99-rank request's stages sum to its end-to-end latency exactly,
 * so p99_stage_sum_ratio is pinned at 1.0 in bench/baselines.json
 * and any stamping drift trips the gate.
 */
void
emitAttribution(const obs::SpanTracer &tracer)
{
    std::vector<StageSample> samples;
    for (const auto &[source, recs] : tracer.snapshotAll()) {
        for (const obs::SpanRecord &r : recs) {
            if (std::strcmp(r.cat, "service") != 0 ||
                std::strcmp(r.name, "drain") == 0 || !r.arg0Name ||
                std::strcmp(r.arg0Name, "queue_wait_us") != 0)
                continue;
            StageSample s;
            s.e2e = r.durUs();
            s.queue = r.arg0;
            s.drainWait = r.arg1;
            s.compute = s.e2e - std::min(s.e2e, s.queue + s.drainWait);
            samples.push_back(s);
        }
    }
    if (samples.empty()) {
        note("no request spans recorded; attribution rows skipped");
        return;
    }

    std::sort(samples.begin(), samples.end(),
              [](const StageSample &a, const StageSample &b) {
                  return a.e2e < b.e2e;
              });
    size_t idx99 = static_cast<size_t>(
        std::ceil(0.99 * double(samples.size())));
    const StageSample &at99 =
        samples[std::min(idx99 ? idx99 - 1 : 0, samples.size() - 1)];
    double e2e99 = double(at99.e2e);
    double sum99 = double(at99.queue + at99.drainWait + at99.compute);
    double ratio = e2e99 > 0 ? sum99 / e2e99 : 1.0;

    std::vector<uint64_t> qs, ds, cs;
    for (const StageSample &s : samples) {
        qs.push_back(s.queue);
        ds.push_back(s.drainWait);
        cs.push_back(s.compute);
    }

    struct StageRow
    {
        const char *stage;
        const std::vector<uint64_t> *vals;
        uint64_t at99;
    };
    const StageRow rows[] = {
        {"queue_wait", &qs, at99.queue},
        {"drain_wait", &ds, at99.drainWait},
        {"compute", &cs, at99.compute},
    };
    separator();
    note("p99 latency attribution (paced levels, traced)");
    for (const StageRow &row : rows) {
        double share = e2e99 > 0 ? double(row.at99) / e2e99 * 100 : 0;
        JsonLine line = benchLine("service");
        line.str("workload", "mixed_load")
            .str("config", "paced_trace")
            .str("stage", row.stage)
            .num("p50_us", double(pctOf(*row.vals, 50)))
            .num("p99_us", double(pctOf(*row.vals, 99)))
            .num("p99_share_pct", share);
        appendJsonLine(kTracePath, line);
        char label[64];
        std::snprintf(label, sizeof label, "  %s share at p99",
                      row.stage);
        rowMeasured(label, share, "%");
    }
    JsonLine total = benchLine("service");
    total.str("workload", "mixed_load")
        .str("config", "paced_trace")
        .str("stage", "total")
        .num("p99_e2e_us", e2e99)
        .num("p99_stage_sum_ratio", ratio)
        .num("spans", uint64_t(samples.size()))
        .num("dropped", tracer.totalDropped());
    appendJsonLine(kTracePath, total);
    rowMeasured("  p99 stage-sum / end-to-end", ratio, "x");
}

/**
 * Deterministic flight-recorder drill: one worker, one Verify whose
 * message was tampered after signing. The verify mismatch fires the
 * "service_verify_mismatch" trigger and dumps FLIGHT_service.json;
 * with per-worker op ordinals as the only timestamps the dump is
 * byte-identical per seed.
 */
void
runFlightDrill(const SignCase &c, uint64_t seed)
{
    obs::FlightRecorder flight;
    flight.setDumpPath(kFlightPath);

    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.queueCapacity = 4;
    cfg.amortize = false;
    cfg.rngSeed = seed;
    EccService svc(cfg);
    svc.setFlightRecorder(&flight);

    ServiceRequest r;
    r.op = ServiceOp::Verify;
    r.curve = ServiceCurve::Secp160r1;
    r.message = c.msg + " tampered";
    r.signature = c.expect;
    r.peer = secp160r1Curve().mulNaf(c.d, secp160r1Generator().g);
    if (!svc.trySubmit(&r))
        fatal("flight drill submission refused");
    svc.start();
    EccService::wait(r);
    svc.stop();

    check(r.status == ServiceStatus::Ok && !r.verifyOk,
          "flight drill verify unexpectedly accepted");
    check(flight.triggers() == 1,
          "verify mismatch did not fire the flight trigger");
    note(std::string("flight drill dump -> ") + kFlightPath);
}

/**
 * Times the first ServiceCurveSet::instance() call, before anything
 * else touches a curve, and then the construction of one service of
 * the default configuration (two workers, amortized: the comb tables
 * and two worker contexts). Emits both as one row; the gate pins the
 * snapshot time.
 */
void
runSetup()
{
    auto t0 = std::chrono::steady_clock::now();
    ServiceCurveSet::instance();
    double snapshotMs = secondsSince(t0) * 1e3;
    auto t1 = std::chrono::steady_clock::now();
    auto svc = std::make_unique<EccService>(ServiceConfig{});
    double serviceMs = secondsSince(t1) * 1e3;

    rowMeasured("curve snapshot (first use)", snapshotMs * 1e3, "us");
    rowMeasured("service build (tables, 2 contexts)", serviceMs * 1e3,
                "us");
    JsonLine line = benchLine("service");
    line.str("workload", "setup")
        .str("config", "first_use")
        .num("curve_snapshot_ms", snapshotMs)
        .num("service_build_ms", serviceMs);
    appendJsonLine(kJsonPath, line);
}

void
emitRow(const char *workload, const char *config, double batch_max,
        const SweepResult &r, double offered = 0)
{
    JsonLine line = benchLine("service");
    line.str("workload", workload).str("config", config);
    if (batch_max > 0)
        line.num("batch_max", batch_max);
    if (offered > 0)
        line.num("offered_ops_per_s", offered);
    line.num("ops_per_s", r.opsPerSec)
        .num("p50_us", r.p50Us)
        .num("p99_us", r.p99Us);
    appendJsonLine(kJsonPath, line);
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    uint64_t seed = 1;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--smoke"))
            smoke = true;
        else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 0);
    }

    const size_t batch_ops = smoke ? 48 : 256;
    const size_t load_ops = smoke ? 48 : 240;
    const unsigned load_workers = 2;

    // Attached for the whole run, enabled only for the paced levels:
    // the gated batch-sweep rows therefore measure the idle-tracer
    // cost (contract: none).
    obs::SpanTracer tracer;

    heading("ECC service: set-up (first use in this process)");
    runSetup();

    heading("ECC service: batch amortization sweep (ECDSA sign, "
            "secp160r1, 1 worker)");
    std::vector<SignCase> cases = makeSignCases(batch_ops, seed);

    SweepResult batch1 = runBatchConfig(cases, false, 16, seed, &tracer);
    rowMeasured("unamortized (one-request drains)", batch1.opsPerSec,
                "ops/s");
    rowMeasured("  drains", double(batch1.drains), "");
    emitRow("sign_secp160r1", "unamortized", 0, batch1);

    double best = 0;
    for (size_t bm : smoke ? std::vector<size_t>{1, 16}
                           : std::vector<size_t>{1, 4, 16, 64}) {
        SweepResult r = runBatchConfig(cases, true, bm, seed, &tracer);
        rowMeasured("amortized, batchMax=" + std::to_string(bm),
                    r.opsPerSec, "ops/s");
        rowMeasured("  drains", double(r.drains), "");
        emitRow("sign_secp160r1", "amortized", double(bm), r);
        if (double(bm) >= 16 && r.opsPerSec > best)
            best = r.opsPerSec;
    }

    double speedup = best / batch1.opsPerSec;
    separator();
    rowMeasured("batched speedup vs batch-size-1", speedup, "x");
    // The timed bound only on the full sweep: a smoke run is too short
    // to time reliably on a loaded host. Its drain counts above check
    // only how many requests each drain took, not that a drain shared
    // its inversions.
    if (!smoke) {
        JsonLine line = benchLine("service");
        line.str("workload", "sign_secp160r1")
            .str("config", "speedup")
            .num("batched_speedup_vs_batch1", speedup);
        appendJsonLine(kJsonPath, line);
        check(speedup >= 2.0,
              "amortized throughput below the 2x acceptance bound");
    }

    heading("ECC service: offered-load sweep (" +
            std::to_string(load_workers) + " workers, mixed sign/derive)");
    // Capacity estimate from an effectively unpaced burst, then paced
    // levels below/near it.
    std::vector<SignCase> load_cases = makeSignCases(load_ops, seed + 17);
    SweepResult burst =
        runLoadLevel(load_cases, load_workers, 1e9, seed, nullptr,
                     &tracer);
    rowMeasured("burst capacity", burst.opsPerSec, "ops/s");
    rowMeasured("  p50 / p99 latency", burst.p50Us, "us (p50)");
    rowMeasured("  ", burst.p99Us, "us (p99)");
    emitRow("mixed_load", "burst", 0, burst);

    // Tracing live from here: the paced levels feed the attribution
    // table and the exported span files.
    tracer.setEnabled(true);

    const double fractions[] = {0.25, 0.5, 0.8};
    MetricsRegistry reg;
    for (size_t i = 0; i < std::size(fractions); i++) {
        double offered = burst.opsPerSec * fractions[i];
        bool last = i + 1 == std::size(fractions);
        SweepResult r = runLoadLevel(load_cases, load_workers, offered,
                                     seed + i, last ? &reg : nullptr,
                                     &tracer);
        char label[96];
        std::snprintf(label, sizeof label,
                      "offered %.0f ops/s (%.0f%% of burst)", offered,
                      fractions[i] * 100);
        rowMeasured(label, r.opsPerSec, "ops/s");
        rowMeasured("  p50 / p99 latency", r.p50Us, "us (p50)");
        rowMeasured("  ", r.p99Us, "us (p99)");
        emitRow("mixed_load", "paced", 0, r, offered);
    }

    tracer.setEnabled(false);
    emitAttribution(tracer);
    if (!tracer.exportJsonLines(kTracePath, benchLine("service")) ||
        !tracer.exportChromeTrace(kChromePath))
        fatal("cannot write the trace exports");
    note(std::string("spans + attribution -> ") + kTracePath);
    note(std::string("chrome trace -> ") + kChromePath);

    heading("flight recorder drill (deterministic verify mismatch)");
    runFlightDrill(cases[0], seed);

    // The last level's labeled snapshot: queue depth, occupancy and
    // latency histograms, per-worker op counters.
    reg.writeJsonLines(kMetricsPath, benchLine("service"));
    note(std::string("metrics snapshot -> ") + kMetricsPath);
    note(std::string("bench rows -> ") + kJsonPath);

    if (failures) {
        std::fprintf(stderr, "\n%d verification failure(s)\n", failures);
        return 1;
    }
    std::printf("\nall results verified against the host golden model\n");
    return 0;
}
