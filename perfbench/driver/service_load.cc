/**
 * @file
 * Workloads against a 2-worker EccService (amortize on, batchMax 16):
 *
 *  svc_sign_closed  one client keeps 2 x workers x batchMax secp160r1
 *                   sign requests with explicit nonces outstanding, so
 *                   every batch drains full. Saturated batched signing:
 *                   bigint/field arithmetic, fixed-base combs and
 *                   batched inversion do nearly all the work.
 *  svc_mixed_paced  one generator offers a fixed 600 ops/s (about a
 *                   third of the 2-worker mixed capacity) in the mix
 *                   sign r1 : verify k1 : x-only derive Montgomery-OPF :
 *                   derive Edwards-OPF = 4 : 2 : 1 : 1. Below
 *                   saturation, so wake/drain policy and batch mix set
 *                   the latency.
 *
 * Request records come from a bounded pool that is reused, inputs
 * are drawn per op from the seed while the load runs, and every
 * result is checked against the single-call host golden model after
 * the timed window.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "curves/ecdsa.hh"
#include "curves/edwards.hh"
#include "curves/glv.hh"
#include "curves/montgomery.hh"
#include "curves/weierstrass.hh"
#include "field/secp160.hh"
#include "obs/trace.hh"
#include "service/context.hh"
#include "service/service.hh"
#include "support/metrics.hh"

#include "common.hh"

namespace perfbench
{

namespace
{

using namespace jaavr;

constexpr unsigned kWorkers = 2;
constexpr size_t kBatchMax = 16;
/** Closed-loop window: two full batches queued per worker. */
constexpr size_t kWindow = 2 * kWorkers * kBatchMax;
/**
 * Amortized 2-worker signs per second of the unmodified code (4.4k
 * to 5.0k on a 4-core x86-64 VM). Sizes the fixed op count of
 * svc_sign_closed from --seconds; never measured at run time.
 */
constexpr double kNominalSignsPerS = 4500;
/** Offered rate of svc_mixed_paced, a fixed constant. */
constexpr double kPacedRate = 600;
/** Request records of the paced generator (about 1.7 s of backlog). */
constexpr size_t kPacedPool = 1024;
/** Distinct verify inputs and derive peers, reused across ops. */
constexpr size_t kVerifyPool = 256;
constexpr size_t kPeerPool = 64;
/** Threads of the golden check (the service is stopped by then). */
constexpr unsigned kCheckThreads = 3;

constexpr uint64_t kStreamSign = 10;
constexpr uint64_t kStreamMix = 11;
constexpr uint64_t kStreamPools = 12;

ServiceConfig
serviceConfig(uint64_t seed)
{
    ServiceConfig cfg;
    cfg.workers = kWorkers;
    cfg.batchMax = kBatchMax;
    cfg.amortize = true;
    cfg.rngSeed = seed;
    return cfg;
}

/** Single-call golden models, private to one checking thread. */
struct Golden
{
    Secp160r1Field r1Field;
    Secp160k1Field k1Field;
    PrimeField opfField;
    WeierstrassCurve r1;
    GlvCurve k1;
    MontgomeryCurve mont;
    EdwardsCurve edw;
    Ecdsa ecdsaR1;
    Ecdsa ecdsaK1;

    explicit Golden(const ServiceCurveSet &s)
        : opfField(s.opfP), r1(r1Field, s.r1A, s.r1B, "secp160r1"),
          k1(k1Field, s.k1Params, "secp160k1"),
          mont(opfField, s.mA, s.mB, "montgomery-opf"),
          edw(opfField, s.eA, s.eD, "edwards-opf"),
          ecdsaR1(r1, s.r1G, s.r1N), ecdsaK1(k1)
    {}
};

/**
 * Run f(i, golden) for i in [0, n) on kCheckThreads threads. The
 * golden signers use their own comb tables: the single-call
 * signWithNonce path, independent of the service's batching.
 */
template <class F>
void
checkInParallel(size_t n, F &&f)
{
    const ServiceCurveSet &snap = ServiceCurveSet::instance();
    const ServiceTables tables = ServiceTables::build(snap);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kCheckThreads; t++)
        threads.emplace_back([&, t] {
            Golden g(snap);
            g.ecdsaR1.attachFixedBase(tables.r1.get());
            g.ecdsaK1.attachFixedBase(tables.k1.get());
            for (size_t i = t; i < n; i += kCheckThreads)
                f(i, g);
        });
    for (std::thread &t : threads)
        t.join();
}

/** Nonzero 64-bit digest of up to two values (0 marks "no result"). */
uint64_t
digest(const BigUInt &a, const BigUInt &b = BigUInt())
{
    uint64_t h = 0x6a09e667f3bcc909ULL;
    for (const BigUInt *v : {&a, &b}) {
        for (size_t i = 0; i < v->numLimbs(); i++)
            h = mix64(h ^ v->limb(i));
        h = mix64(h ^ 0xff);
    }
    return h | 1;
}

struct SignInput
{
    std::string msg;
    BigUInt d;
    BigUInt k;
};

SignInput
signInput(uint64_t seed, uint64_t stream, uint64_t i, const BigUInt &n)
{
    Rng r = opRng(seed, stream, i);
    SignInput in;
    in.msg = "op " + std::to_string(seed) + "/" + std::to_string(i);
    in.d = BigUInt(1) + BigUInt::random(r, n - BigUInt(1));
    in.k = BigUInt(1) + BigUInt::random(r, n - BigUInt(1));
    return in;
}

/** The timed set-up shared by both service workloads. */
struct ServiceSetup
{
    std::unique_ptr<EccService> svc;
    double snapshotMs = 0;
};

ServiceSetup
buildService(const Options &opt, Report &rep)
{
    ServiceSetup s;
    auto t0 = Clock::now();
    ServiceCurveSet::instance();
    auto t1 = Clock::now();
    s.svc = std::make_unique<EccService>(serviceConfig(opt.seed));
    auto t2 = Clock::now();
    s.snapshotMs = secondsBetween(t0, t1) * 1e3;
    rep.setupS = secondsBetween(t0, t2);
    return s;
}

void
serviceParams(Report &rep, size_t nOps)
{
    rep.param("ops", double(nOps));
    rep.param("workers", kWorkers);
    rep.param("batch_max", double(kBatchMax));
}

/** Per-layer set-up split, timed from outside after the load ran. */
void
setupLayers(const ServiceSetup &s, uint64_t seed, Report &rep)
{
    rep.layer("setup.curve_snapshot_ms", s.snapshotMs);
    auto t0 = Clock::now();
    ServiceTables tables = ServiceTables::build(ServiceCurveSet::instance());
    auto t1 = Clock::now();
    WorkerContext ctx(seed);
    auto t2 = Clock::now();
    rep.layer("setup.comb_tables_ms", secondsBetween(t0, t1) * 1e3);
    rep.layer("setup.worker_context_ms", secondsBetween(t1, t2) * 1e3);
}

/** What one pass of a service workload observed. */
struct Pass
{
    std::vector<uint64_t> got;    ///< result digest per op, 0 = failed
    std::vector<double> latencyUs; ///< per op; failures at kFailedLatencyUs
    std::vector<double> doneS;     ///< completion times since the window opened
    std::vector<double> lagUs;     ///< paced: submit time - due time
    uint64_t completedOk = 0;
    double windowS = 0;            ///< paced: first due time to last completion
    double rssMiB = 0;
    double occupancyMean = 0;
    uint64_t backpressure = 0;
};

void
serviceCounters(const EccService &svc, Pass &p)
{
    MetricsRegistry reg;
    svc.publishMetrics(reg);
    double ops = 0, batches = 0;
    for (unsigned w = 0; w < kWorkers; w++) {
        MetricLabels wl{{"worker", std::to_string(w)}};
        ops += double(reg.counter("service_ops", wl).value());
        batches += double(reg.counter("service_batches", wl).value());
    }
    p.occupancyMean = batches ? ops / batches : 0.0;
    p.backpressure = svc.backpressureRefusals();
}

/** Span ring size that holds every span of @p ops requests. */
size_t
ringCapacity(size_t ops)
{
    return ops + ops / 2 + 1024;
}

/** service.* layer metrics from the request and amortize spans. */
void
serviceSpanLayers(const obs::SpanTracer &tracer, Report &rep)
{
    std::vector<double> queue, drain, compute;
    std::map<std::string, std::pair<double, double>> amortize;
    for (const auto &[source, recs] : tracer.snapshotAll())
        for (const obs::SpanRecord &r : recs) {
            if (!std::strcmp(r.cat, "service") && r.arg0Name &&
                !std::strcmp(r.arg0Name, "queue_wait_us")) {
                uint64_t dur = r.durUs();
                queue.push_back(double(r.arg0));
                drain.push_back(double(r.arg1));
                compute.push_back(
                    double(dur - std::min(dur, r.arg0 + r.arg1)));
            } else if (!std::strcmp(r.cat, "amortize")) {
                auto &acc = amortize[r.name];
                acc.first += double(r.durUs());
                acc.second += double(r.arg0);
            }
        }
    const std::pair<const char *, std::vector<double> *> stages[] = {
        {"queue_wait", &queue}, {"drain_wait", &drain}, {"compute", &compute}};
    for (const auto &[name, vals] : stages) {
        rep.layer(std::string("service.") + name + "_us.p50",
                  percentile(*vals, 50));
        rep.layer(std::string("service.") + name + "_us.p99",
                  percentile(*vals, 99));
    }
    for (const char *g :
         {"sign_batch", "derive_m_batch", "derive_e_batch", "singles"}) {
        auto it = amortize.find(g);
        double v = it == amortize.end() || it->second.second == 0
                       ? 0.0
                       : it->second.first / it->second.second;
        rep.layer(std::string("service.amortize_us_per_req.") + g, v);
    }
    if (tracer.totalDropped())
        rep.note("span rings dropped " +
                 std::to_string(tracer.totalDropped()) + " spans");
}

// --- svc_sign_closed ----------------------------------------------

Pass
signClosedPass(EccService &svc, const Options &opt, size_t nOps,
               const BigUInt &n)
{
    Pass p;
    p.got.assign(nOps, 0);
    p.latencyUs.reserve(nOps);
    p.doneS.reserve(nOps);
    std::vector<ServiceRequest> pool(kWindow);
    std::vector<size_t> opOf(kWindow, SIZE_MAX);
    std::vector<Clock::time_point> sentAt(kWindow);
    size_t next = 0, finished = 0;

    auto issue = [&](size_t slot) {
        opOf[slot] = SIZE_MAX;
        while (next < nOps) {
            size_t i = next++;
            SignInput in = signInput(opt.seed, kStreamSign, i, n);
            ServiceRequest &r = pool[slot];
            r.op = ServiceOp::Sign;
            r.curve = ServiceCurve::Secp160r1;
            r.message = std::move(in.msg);
            r.privateKey = in.d;
            r.nonce = in.k;
            sentAt[slot] = Clock::now();
            if (svc.trySubmit(&r)) {
                opOf[slot] = i;
                return;
            }
            p.latencyUs.push_back(kFailedLatencyUs);
            finished++;
        }
    };

    // The first window is queued before the workers start, so the
    // first drains are full batches too.
    auto w0 = Clock::now();
    for (size_t s = 0; s < kWindow; s++)
        issue(s);
    svc.start();
    while (finished < nOps) {
        bool any = false;
        for (size_t s = 0; s < kWindow; s++) {
            if (opOf[s] == SIZE_MAX ||
                !pool[s].done.load(std::memory_order_acquire))
                continue;
            auto t = Clock::now();
            const ServiceRequest &r = pool[s];
            p.latencyUs.push_back(nsBetween(sentAt[s], t) / 1e3);
            p.doneS.push_back(secondsBetween(w0, t));
            if (r.status == ServiceStatus::Ok) {
                p.got[opOf[s]] = digest(r.sigOut.r, r.sigOut.s);
                p.completedOk++;
            }
            finished++;
            any = true;
            issue(s);
        }
        if (!any)
            std::this_thread::yield();
    }
    p.rssMiB = peakRssMiB();
    svc.stop();
    serviceCounters(svc, p);
    return p;
}

/** Golden check: every signature against Ecdsa::signWithNonce. */
uint64_t
checkSigns(const Options &opt, const Pass &p)
{
    const BigUInt &n = ServiceCurveSet::instance().r1N;
    std::vector<uint8_t> bad(p.got.size(), 0);
    checkInParallel(p.got.size(), [&](size_t i, Golden &g) {
        SignInput in = signInput(opt.seed, kStreamSign, i, n);
        auto sig = g.ecdsaR1.signWithNonce(in.msg, in.d, in.k);
        uint64_t expect = sig ? digest(sig->r, sig->s) : 0;
        if (opt.corruptGolden && i == 0)
            expect ^= 2;
        bad[i] = !expect || p.got[i] != expect;
    });
    return uint64_t(std::count(bad.begin(), bad.end(), uint8_t(1)));
}

// --- svc_mixed_paced ----------------------------------------------

enum class Kind : uint8_t { Sign, Verify, DeriveM, DeriveE };

/** Exact 4 : 2 : 1 : 1 mix, shuffled per block of 8 from the seed. */
class Mix
{
  public:
    explicit Mix(uint64_t seed) : seed(seed) {}

    Kind
    kind(uint64_t i)
    {
        uint64_t b = i / 8;
        if (b != block || !valid) {
            static constexpr Kind kBase[8] = {
                Kind::Sign,   Kind::Sign,   Kind::Sign,    Kind::Sign,
                Kind::Verify, Kind::Verify, Kind::DeriveM, Kind::DeriveE};
            std::copy(std::begin(kBase), std::end(kBase), order);
            Rng r = opRng(seed, kStreamMix, ~b);
            for (unsigned j = 7; j > 0; j--)
                std::swap(order[j], order[r.below(j + 1)]);
            block = b;
            valid = true;
        }
        return order[i % 8];
    }

  private:
    uint64_t seed;
    uint64_t block = 0;
    bool valid = false;
    Kind order[8];
};

struct VerifyCase
{
    std::string msg;
    EcdsaSignature sig;
    AffinePoint q;
};

/** Bounded input pools, drawn from the seed after set-up. */
struct MixPools
{
    std::vector<VerifyCase> verify;
    std::vector<BigUInt> montX;
    std::vector<AffinePoint> edwP;
};

MixPools
makePools(uint64_t seed)
{
    MixPools pools;
    pools.verify.resize(kVerifyPool);
    pools.montX.resize(kPeerPool);
    pools.edwP.resize(kPeerPool);
    checkInParallel(kVerifyPool, [&](size_t i, Golden &g) {
        Rng r = opRng(seed, kStreamPools, i);
        EcdsaKeyPair kp = g.ecdsaK1.generateKey(r);
        VerifyCase &c = pools.verify[i];
        c.msg = "verify " + std::to_string(seed) + "/" + std::to_string(i);
        c.sig = g.ecdsaK1.sign(c.msg, kp.d, r);
        c.q = kp.q;
        if (i < kPeerPool) {
            pools.montX[i] = g.mont.randomPoint(r).x;
            pools.edwP[i] = g.edw.randomPoint(r);
        }
    });
    return pools;
}

/** Scalar and pool index of a non-sign op. */
struct MixInput
{
    BigUInt k;
    size_t poolIdx;
};

MixInput
mixInput(uint64_t seed, uint64_t i, size_t poolSize)
{
    Rng r = opRng(seed, kStreamMix, i);
    MixInput in;
    in.k = BigUInt::randomBits(r, 160);
    if (in.k.isZero())
        in.k = BigUInt(1);
    in.poolIdx = size_t(r.below(poolSize));
    return in;
}

void
fillMixRequest(ServiceRequest &r, Kind kind, uint64_t i, uint64_t seed,
               const MixPools &pools, const BigUInt &n)
{
    r.hardened = false;
    switch (kind) {
    case Kind::Sign: {
        SignInput in = signInput(seed, kStreamMix, i, n);
        r.op = ServiceOp::Sign;
        r.curve = ServiceCurve::Secp160r1;
        r.message = std::move(in.msg);
        r.privateKey = in.d;
        r.nonce = in.k;
        return;
    }
    case Kind::Verify: {
        const VerifyCase &c =
            pools.verify[mixInput(seed, i, kVerifyPool).poolIdx];
        r.op = ServiceOp::Verify;
        r.curve = ServiceCurve::Secp160k1;
        r.message = c.msg;
        r.signature = c.sig;
        r.peer = c.q;
        return;
    }
    case Kind::DeriveM: {
        MixInput in = mixInput(seed, i, kPeerPool);
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::MontgomeryOpf;
        r.privateKey = in.k;
        r.peerX = pools.montX[in.poolIdx];
        return;
    }
    case Kind::DeriveE: {
        MixInput in = mixInput(seed, i, kPeerPool);
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::EdwardsOpf;
        r.privateKey = in.k;
        r.peer = pools.edwP[in.poolIdx];
        return;
    }
    }
}

uint64_t
mixDigest(Kind kind, const ServiceRequest &r)
{
    switch (kind) {
    case Kind::Sign:
        return digest(r.sigOut.r, r.sigOut.s);
    case Kind::Verify:
        return r.verifyOk ? 1 : 0;
    case Kind::DeriveM:
        return digest(r.xOut);
    case Kind::DeriveE:
        return digest(r.pointOut.x, r.pointOut.y);
    }
    return 0;
}

Pass
mixedPacedPass(EccService &svc, const Options &opt, size_t nOps,
               const MixPools &pools, const BigUInt &n)
{
    Pass p;
    p.got.assign(nOps, 0);
    p.latencyUs.reserve(nOps);
    p.lagUs.reserve(nOps);
    std::vector<ServiceRequest> pool(kPacedPool);
    std::vector<size_t> freeSlots(kPacedPool), busy;
    for (size_t s = 0; s < kPacedPool; s++)
        freeSlots[s] = kPacedPool - 1 - s;
    busy.reserve(kPacedPool);
    std::vector<size_t> opOf(kPacedPool);
    std::vector<Kind> kindOf(kPacedPool);
    std::vector<Clock::time_point> dueOf(kPacedPool);
    Clock::time_point last;

    auto harvest = [&] {
        for (size_t j = 0; j < busy.size();) {
            size_t s = busy[j];
            if (!pool[s].done.load(std::memory_order_acquire)) {
                j++;
                continue;
            }
            last = Clock::now();
            p.latencyUs.push_back(nsBetween(dueOf[s], last) / 1e3);
            if (pool[s].status == ServiceStatus::Ok) {
                p.got[opOf[s]] = mixDigest(kindOf[s], pool[s]);
                p.completedOk++;
            }
            freeSlots.push_back(s);
            busy[j] = busy.back();
            busy.pop_back();
        }
    };

    Mix mix(opt.seed);
    svc.start();
    const auto interval = std::chrono::duration<double>(1.0 / kPacedRate);
    const auto t0 = Clock::now() + std::chrono::milliseconds(1);
    for (size_t i = 0; i < nOps; i++) {
        auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                            interval * double(i));
        Kind kind = mix.kind(i);
        while (Clock::now() < due) {
            harvest();
            std::this_thread::yield();
        }
        auto now = Clock::now();
        p.lagUs.push_back(nsBetween(due, now) / 1e3);
        if (freeSlots.empty()) {
            p.latencyUs.push_back(kFailedLatencyUs);
            continue;
        }
        size_t s = freeSlots.back();
        freeSlots.pop_back();
        fillMixRequest(pool[s], kind, i, opt.seed, pools, n);
        opOf[s] = i;
        kindOf[s] = kind;
        dueOf[s] = due;
        if (svc.trySubmit(&pool[s])) {
            busy.push_back(s);
        } else {
            p.latencyUs.push_back(kFailedLatencyUs);
            freeSlots.push_back(s);
        }
    }
    while (!busy.empty()) {
        harvest();
        std::this_thread::yield();
    }
    p.windowS = p.completedOk ? secondsBetween(t0, last) : 0.0;
    p.rssMiB = peakRssMiB();
    svc.stop();
    serviceCounters(svc, p);
    return p;
}

/** Golden check of every mixed op (sign, verify-accepts, derives). */
uint64_t
checkMixed(const Options &opt, const Pass &p, const MixPools &pools)
{
    const BigUInt &n = ServiceCurveSet::instance().r1N;
    std::vector<uint8_t> bad(p.got.size(), 0);
    checkInParallel(p.got.size(), [&](size_t i, Golden &g) {
        Mix mix(opt.seed);
        uint64_t expect = 0;
        switch (mix.kind(i)) {
        case Kind::Sign: {
            SignInput in = signInput(opt.seed, kStreamMix, i, n);
            auto sig = g.ecdsaR1.signWithNonce(in.msg, in.d, in.k);
            expect = sig ? digest(sig->r, sig->s) : 0;
            break;
        }
        case Kind::Verify:
            expect = 1;
            break;
        case Kind::DeriveM: {
            MixInput in = mixInput(opt.seed, i, kPeerPool);
            auto x = g.mont.ladder(in.k, pools.montX[in.poolIdx]);
            expect = x ? digest(*x) : 0;
            break;
        }
        case Kind::DeriveE: {
            MixInput in = mixInput(opt.seed, i, kPeerPool);
            AffinePoint q = g.edw.mulNaf(in.k, pools.edwP[in.poolIdx]);
            expect = q.inf ? 0 : digest(q.x, q.y);
            break;
        }
        }
        if (opt.corruptGolden && i == 0)
            expect ^= 2;
        bad[i] = !expect || p.got[i] != expect;
    });
    return uint64_t(std::count(bad.begin(), bad.end(), uint8_t(1)));
}

void
loadgenLayers(const Pass &p, size_t nOps, Report &rep)
{
    rep.layer("loadgen.lag_p99_us", percentile(p.lagUs, 99));
    rep.layer("loadgen.max_lag_us", percentile(p.lagUs, 100));
    rep.layer("loadgen.latency_samples", double(nOps));
    rep.layer("service.batch_occupancy_mean", p.occupancyMean);
    rep.layer("service.backpressure_refusals", double(p.backpressure));
}

} // namespace

void
runSignClosed(const Options &opt, Report &rep)
{
    ServiceSetup setup = buildService(opt, rep);
    if (opt.setupOnly)
        return;
    const BigUInt n = ServiceCurveSet::instance().r1N;
    const size_t nOps = std::max<size_t>(
        kWindow, size_t(std::llround(opt.seconds * kNominalSignsPerS)));
    serviceParams(rep, nOps);
    rep.param("window", double(kWindow));
    rep.param("nominal_ops_per_s", kNominalSignsPerS);

    Pass p = signClosedPass(*setup.svc, opt, nOps, n);
    rep.attempted = nOps;
    rep.failed = checkSigns(opt, p);
    const double opsPerS = sliceThroughput(p.doneS);
    if (!opt.trace) {
        rep.e2e("setup_s", rep.setupS);
        rep.e2e("ops_per_s", opsPerS);
        rep.e2e("latency_p50_us", slicePercentile(p.latencyUs, 50));
        rep.e2e("latency_p90_us", slicePercentile(p.latencyUs, 90));
        rep.e2e("peak_rss_mib", p.rssMiB);
        return;
    }

    obs::SpanTracer tracer(ringCapacity(nOps));
    tracer.setEnabled(true);
    EccService traced(serviceConfig(opt.seed));
    traced.setTracer(&tracer);
    Pass t = signClosedPass(traced, opt, nOps, n);
    if (t.got != p.got)
        rep.fail("traced pass results differ from the checked pass");
    serviceSpanLayers(tracer, rep);
    loadgenLayers(p, nOps, rep);
    setupLayers(setup, opt.seed, rep);
    rep.layer("obs.overhead_pct",
              (opsPerS / sliceThroughput(t.doneS) - 1.0) * 100.0);
}

void
runMixedPaced(const Options &opt, Report &rep)
{
    ServiceSetup setup = buildService(opt, rep);
    if (opt.setupOnly)
        return;
    const BigUInt n = ServiceCurveSet::instance().r1N;
    const size_t nOps =
        std::max<size_t>(8, size_t(std::llround(opt.seconds * kPacedRate)));
    serviceParams(rep, nOps);
    rep.param("offered_ops_per_s", kPacedRate);
    const MixPools pools = makePools(opt.seed);

    Pass p = mixedPacedPass(*setup.svc, opt, nOps, pools, n);
    rep.attempted = nOps;
    rep.failed = checkMixed(opt, p, pools);
    const double p50 = slicePercentile(p.latencyUs, 50);
    if (!opt.trace) {
        rep.e2e("setup_s", rep.setupS);
        rep.e2e("ops_per_s",
                p.windowS > 0 ? double(p.completedOk) / p.windowS : 0.0);
        rep.e2e("latency_p50_us", p50);
        rep.e2e("latency_p90_us", slicePercentile(p.latencyUs, 90));
        rep.e2e("peak_rss_mib", p.rssMiB);
        rep.note("latency samples: " + std::to_string(p.latencyUs.size()) +
                 ", generator lag p99 " +
                 std::to_string(percentile(p.lagUs, 99)) + " us");
        return;
    }

    obs::SpanTracer tracer(ringCapacity(nOps));
    tracer.setEnabled(true);
    EccService traced(serviceConfig(opt.seed));
    traced.setTracer(&tracer);
    Pass t = mixedPacedPass(traced, opt, nOps, pools, n);
    if (t.got != p.got)
        rep.fail("traced pass results differ from the checked pass");
    serviceSpanLayers(tracer, rep);
    loadgenLayers(p, nOps, rep);
    setupLayers(setup, opt.seed, rep);
    rep.layer("obs.overhead_pct",
              (slicePercentile(t.latencyUs, 50) / p50 - 1.0) * 100.0);
}

} // namespace perfbench
