/**
 * @file
 * The ECC service end to end: the bounded blocking queue's contract
 * (FIFO, exact capacity, backpressure, close), every op on every
 * curve against the single-call library golden path, bit-identical
 * batched vs single-call signatures (explicit nonces), result-for-result
 * agreement of the amortized and unamortized configurations, error
 * and hardened paths, deterministic full-batch occupancy, the
 * round-robin split of one submitter's requests, and the idempotent
 * metrics publication.
 */

#include <functional>

#include <gtest/gtest.h>

#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "service/service.hh"

using namespace jaavr;

namespace
{

ServiceConfig
testConfig(unsigned workers = 2, bool amortize = true)
{
    ServiceConfig cfg;
    cfg.workers = workers;
    cfg.amortize = amortize;
    cfg.rngSeed = 7;
    return cfg;
}

BigUInt
scalarBelow(Rng &rng, const BigUInt &n)
{
    return BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
}

} // namespace

// --- BoundedBlockingQueue ----------------------------------------------

TEST(ServiceQueue, FifoAndCapacity)
{
    BoundedBlockingQueue<ServiceRequest *> q(5); // exact, not rounded
    EXPECT_EQ(q.capacity(), 5u);

    std::vector<ServiceRequest> reqs(6);
    auto ptrs = [&](std::initializer_list<size_t> idx) {
        std::vector<ServiceRequest *> v;
        for (size_t i : idx)
            v.push_back(&reqs[i]);
        return v;
    };
    for (size_t i = 0; i < 5; i++)
        EXPECT_EQ(q.push(&reqs[i]), PushResult::Ok);
    EXPECT_EQ(q.size(), 5u);
    // Full: the sixth push is the backpressure signal.
    EXPECT_EQ(q.push(&reqs[5]), PushResult::Full);

    // popBatch hands out at most max values, oldest first.
    std::vector<ServiceRequest *> out;
    ASSERT_TRUE(q.popBatch(out, 3));
    EXPECT_EQ(out, ptrs({0, 1, 2}));
    EXPECT_EQ(q.size(), 2u);

    // Wraps around the ring cleanly.
    for (int lap = 0; lap < 3; lap++) {
        for (size_t i : {5, 0, 1})
            EXPECT_EQ(q.push(&reqs[i]), PushResult::Ok);
        EXPECT_EQ(q.push(&reqs[2]), PushResult::Full);
        ASSERT_TRUE(q.popBatch(out, 3));
        EXPECT_EQ(out, ptrs({3, 4, 5}));
        ASSERT_TRUE(q.popBatch(out, 16));
        EXPECT_EQ(out, ptrs({0, 1}));
        EXPECT_EQ(q.size(), 0u);
        EXPECT_EQ(q.push(&reqs[3]), PushResult::Ok);
        EXPECT_EQ(q.push(&reqs[4]), PushResult::Ok);
    }

    // Closed: later pushes are refused, the values queued before
    // close() still pop, and then popBatch reports the end instead
    // of waiting.
    q.close();
    EXPECT_EQ(q.push(&reqs[5]), PushResult::Closed);
    ASSERT_TRUE(q.popBatch(out, 16));
    EXPECT_EQ(out, ptrs({3, 4}));
    EXPECT_FALSE(q.popBatch(out, 16));
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(q.size(), 0u);
}

// --- Service lifecycle and routing ------------------------------------

TEST(Service, RejectsAfterStop)
{
    EccService svc(testConfig(1));
    svc.start();
    svc.stop();
    ServiceRequest r;
    EXPECT_FALSE(svc.trySubmit(&r));
    EXPECT_FALSE(svc.submit(&r));
}

TEST(Service, RejectsZeroQueueCapacity)
{
    ServiceConfig cfg = testConfig(1, false);
    cfg.queueCapacity = 0;
    EXPECT_DEATH(EccService{cfg}, "queueCapacity");
}

TEST(Service, StopDrainsQueuedRequests)
{
    // Everything accepted before stop() completes, even requests that
    // were still queued when stop() was called (pre-start submission
    // queues them all).
    EccService svc(testConfig(1));
    Rng rng(1);
    const BigUInt &n = secp160r1Generator().order;
    std::vector<ServiceRequest> reqs(8);
    for (auto &r : reqs) {
        r.op = ServiceOp::Sign;
        r.curve = ServiceCurve::Secp160r1;
        r.message = "drain";
        r.privateKey = scalarBelow(rng, n);
        ASSERT_TRUE(svc.trySubmit(&r));
    }
    svc.start();
    svc.stop();
    for (auto &r : reqs) {
        EXPECT_TRUE(r.done.load());
        EXPECT_EQ(r.status, ServiceStatus::Ok) << r.error;
    }
    EXPECT_EQ(svc.opsProcessed(), reqs.size());
}

TEST(Service, RoundRobinSplitsPreStartQueue)
{
    // From one submitter request i goes to worker i mod workers, so
    // 2 x batchMax signs queued before start() are one full drain on
    // each of two workers.
    ServiceConfig cfg = testConfig(2, true);
    EccService svc(cfg);
    Rng rng(10);
    const BigUInt &n = secp160r1Generator().order;
    std::vector<ServiceRequest> reqs(2 * cfg.batchMax);
    for (auto &r : reqs) {
        r.op = ServiceOp::Sign;
        r.curve = ServiceCurve::Secp160r1;
        r.message = "split";
        r.privateKey = scalarBelow(rng, n);
        ASSERT_TRUE(svc.trySubmit(&r));
    }
    svc.start();
    for (auto &r : reqs)
        EccService::wait(r);
    svc.stop();

    for (auto &r : reqs)
        EXPECT_EQ(r.status, ServiceStatus::Ok) << r.error;
    MetricsRegistry reg;
    svc.publishMetrics(reg);
    for (unsigned w = 0; w < 2; w++) {
        MetricLabels wl{{"worker", std::to_string(w)}};
        EXPECT_EQ(reg.counter("service_batches", wl).value(), 1u) << w;
        EXPECT_EQ(reg.counter("service_ops", wl).value(), cfg.batchMax)
            << w;
    }
}

// --- Sign/Verify/Keygen against the library golden path ----------------

TEST(Service, SignMatchesSingleCallOnEveryOrderKnownCurve)
{
    // Explicit nonces make the signature deterministic: the service
    // (amortized, multi-worker) must be bit-identical to the plain
    // library call.
    Ecdsa r1(secp160r1Curve(), secp160r1Generator().g,
             secp160r1Generator().order);
    Ecdsa k1(secp160k1Curve());
    Ecdsa glv(glvOpfCurve());
    const std::pair<ServiceCurve, const Ecdsa *> goldens[] = {
        {ServiceCurve::Secp160r1, &r1},
        {ServiceCurve::Secp160k1, &k1},
        {ServiceCurve::GlvOpf, &glv},
    };

    EccService svc(testConfig(2, true));
    svc.start();
    Rng rng(2);
    for (auto [curve, signer] : goldens) {
        const BigUInt &n = signer->order();
        std::vector<ServiceRequest> reqs(6);
        std::vector<BigUInt> ds, ks;
        for (size_t i = 0; i < reqs.size(); i++) {
            ds.push_back(scalarBelow(rng, n));
            ks.push_back(scalarBelow(rng, n));
            ServiceRequest &r = reqs[i];
            r.op = ServiceOp::Sign;
            r.curve = curve;
            r.message = "msg " + std::to_string(i);
            r.privateKey = ds[i];
            r.nonce = ks[i];
            ASSERT_TRUE(svc.submit(&r));
        }
        for (size_t i = 0; i < reqs.size(); i++) {
            EccService::wait(reqs[i]);
            ASSERT_EQ(reqs[i].status, ServiceStatus::Ok)
                << serviceCurveName(curve) << ": " << reqs[i].error;
            auto expect =
                signer->signWithNonce(reqs[i].message, ds[i], ks[i]);
            ASSERT_TRUE(expect.has_value());
            EXPECT_EQ(reqs[i].sigOut.r, expect->r);
            EXPECT_EQ(reqs[i].sigOut.s, expect->s);
        }
    }
    svc.stop();
}

TEST(Service, FullBatchIsBitIdenticalToSingleCalls)
{
    // One worker, everything queued before start(): the worker's
    // first drain processes the entire micro-batch through the
    // amortized path (shared comb + batched inversions), pinned by
    // the batch counter. The signatures must still equal the
    // single-call library results.
    ServiceConfig cfg = testConfig(1, true);
    cfg.batchMax = 16;
    EccService svc(cfg);
    Ecdsa golden(secp160r1Curve(), secp160r1Generator().g,
                 secp160r1Generator().order);
    const BigUInt &n = golden.order();
    Rng rng(3);

    std::vector<ServiceRequest> reqs(12);
    std::vector<BigUInt> ds, ks;
    for (size_t i = 0; i < reqs.size(); i++) {
        ds.push_back(scalarBelow(rng, n));
        ks.push_back(scalarBelow(rng, n));
        ServiceRequest &r = reqs[i];
        r.op = ServiceOp::Sign;
        r.curve = ServiceCurve::Secp160r1;
        r.message = "batch " + std::to_string(i);
        r.privateKey = ds[i];
        r.nonce = ks[i];
        ASSERT_TRUE(svc.trySubmit(&r));
    }
    svc.start();
    for (auto &r : reqs)
        EccService::wait(r);
    svc.stop();

    for (size_t i = 0; i < reqs.size(); i++) {
        ASSERT_EQ(reqs[i].status, ServiceStatus::Ok) << reqs[i].error;
        auto expect = golden.signWithNonce(reqs[i].message, ds[i], ks[i]);
        ASSERT_TRUE(expect.has_value());
        EXPECT_EQ(reqs[i].sigOut.r, expect->r);
        EXPECT_EQ(reqs[i].sigOut.s, expect->s);
    }

    // The whole batch went through one drain.
    MetricsRegistry reg;
    svc.publishMetrics(reg);
    EXPECT_EQ(reg.counter("service_batches", {{"worker", "0"}}).value(),
              1u);
    EXPECT_EQ(reg.counter("service_ops", {{"worker", "0"}}).value(),
              reqs.size());
}

TEST(Service, UnamortizedConfigurationAgrees)
{
    // amortize = false attaches no comb and drains one request per
    // pop; amortize = true drains the whole pre-start queue into
    // mixed (op, curve) groups. Every op on every curve the service
    // accepts must give the same result either way.
    Ecdsa r1(secp160r1Curve(), secp160r1Generator().g,
             secp160r1Generator().order);
    Ecdsa k1(secp160k1Curve());
    Ecdsa glv(glvOpfCurve());
    const std::pair<ServiceCurve, const Ecdsa *> signers[] = {
        {ServiceCurve::Secp160r1, &r1},
        {ServiceCurve::Secp160k1, &k1},
        {ServiceCurve::GlvOpf, &glv},
    };
    Rng rng(4);
    std::vector<std::function<void(ServiceRequest &)>> fills;
    for (auto [curve, dsa] : signers) {
        const BigUInt &n = dsa->order();
        BigUInt d = scalarBelow(rng, n), k = scalarBelow(rng, n);
        std::string msg = std::string("cfg ") + serviceCurveName(curve);
        auto sig = dsa->signWithNonce(msg, d, k);
        ASSERT_TRUE(sig.has_value());
        AffinePoint q = dsa->mulG(d);
        AffinePoint peer = dsa->mulG(scalarBelow(rng, n));
        fills.push_back([=](ServiceRequest &r) {
            r.op = ServiceOp::Sign;
            r.curve = curve;
            r.message = msg;
            r.privateKey = d;
            r.nonce = k;
        });
        fills.push_back([=](ServiceRequest &r) {
            r.op = ServiceOp::Keygen;
            r.curve = curve;
            r.privateKey = d;
        });
        fills.push_back([=](ServiceRequest &r) {
            r.op = ServiceOp::Verify;
            r.curve = curve;
            r.message = msg;
            r.signature = *sig;
            r.peer = q;
        });
        for (bool hardened : {false, true})
            fills.push_back([=](ServiceRequest &r) {
                r.op = ServiceOp::Derive;
                r.curve = curve;
                r.hardened = hardened;
                r.privateKey = d;
                r.peer = peer;
            });
    }
    const BigUInt &p = weierstrassOpfCurve().field().modulus();
    BigUInt kw = scalarBelow(rng, p), km = scalarBelow(rng, p),
            ke = scalarBelow(rng, p);
    AffinePoint wpeer = weierstrassOpfCurve().mulNaf(
        scalarBelow(rng, p), weierstrassOpfBasePoint());
    fills.push_back([=](ServiceRequest &r) {
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::WeierstrassOpf;
        r.privateKey = kw;
        r.peer = wpeer;
    });
    fills.push_back([=](ServiceRequest &r) {
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::MontgomeryOpf;
        r.privateKey = km;
        r.peerX = montgomeryOpfBasePoint().x;
    });
    fills.push_back([=](ServiceRequest &r) {
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::EdwardsOpf;
        r.privateKey = ke;
        r.peer = edwardsOpfBasePoint();
    });

    EccService a(testConfig(1, true)), b(testConfig(1, false));
    std::vector<ServiceRequest> ra(fills.size()), rb(fills.size());
    for (size_t i = 0; i < fills.size(); i++) {
        fills[i](ra[i]);
        fills[i](rb[i]);
        ASSERT_TRUE(a.trySubmit(&ra[i]));
        ASSERT_TRUE(b.trySubmit(&rb[i]));
    }
    a.start();
    b.start();
    a.stop();
    b.stop();

    for (size_t i = 0; i < fills.size(); i++) {
        const ServiceRequest &x = ra[i], &y = rb[i];
        SCOPED_TRACE(std::string(serviceOpName(x.op)) + " " +
                     serviceCurveName(x.curve) +
                     (x.hardened ? " hardened" : ""));
        ASSERT_EQ(x.status, ServiceStatus::Ok) << x.error;
        ASSERT_EQ(y.status, ServiceStatus::Ok) << y.error;
        EXPECT_EQ(x.sigOut.r, y.sigOut.r);
        EXPECT_EQ(x.sigOut.s, y.sigOut.s);
        EXPECT_EQ(x.keyOut.d, y.keyOut.d);
        EXPECT_EQ(x.keyOut.q.x, y.keyOut.q.x);
        EXPECT_EQ(x.keyOut.q.y, y.keyOut.q.y);
        EXPECT_EQ(x.verifyOk, y.verifyOk);
        EXPECT_EQ(x.verifyOk, x.op == ServiceOp::Verify);
        EXPECT_EQ(x.pointOut.inf, y.pointOut.inf);
        EXPECT_EQ(x.pointOut.x, y.pointOut.x);
        EXPECT_EQ(x.pointOut.y, y.pointOut.y);
        EXPECT_EQ(x.xOut, y.xOut);
    }

    // 18 requests: two drains at batchMax 16, one per request without
    // amortization.
    MetricsRegistry ma, mb;
    a.publishMetrics(ma);
    b.publishMetrics(mb);
    EXPECT_EQ(ma.counter("service_batches", {{"worker", "0"}}).value(), 2u);
    EXPECT_EQ(mb.counter("service_batches", {{"worker", "0"}}).value(),
              fills.size());
}

TEST(Service, SignVerifyKeygenRoundTrip)
{
    EccService svc(testConfig(2));
    svc.start();

    ServiceRequest kg;
    kg.op = ServiceOp::Keygen;
    kg.curve = ServiceCurve::Secp160k1;
    ASSERT_TRUE(svc.submit(&kg));
    EccService::wait(kg);
    ASSERT_EQ(kg.status, ServiceStatus::Ok) << kg.error;
    EXPECT_TRUE(validatePoint(secp160k1Curve(), kg.keyOut.q,
                              &secp160k1Curve().order()));

    ServiceRequest sg;
    sg.op = ServiceOp::Sign;
    sg.curve = ServiceCurve::Secp160k1;
    sg.message = "round trip";
    sg.privateKey = kg.keyOut.d;
    ASSERT_TRUE(svc.submit(&sg));
    EccService::wait(sg);
    ASSERT_EQ(sg.status, ServiceStatus::Ok) << sg.error;

    ServiceRequest vf;
    vf.op = ServiceOp::Verify;
    vf.curve = ServiceCurve::Secp160k1;
    vf.message = "round trip";
    vf.signature = sg.sigOut;
    vf.peer = kg.keyOut.q;
    ASSERT_TRUE(svc.submit(&vf));
    EccService::wait(vf);
    ASSERT_EQ(vf.status, ServiceStatus::Ok) << vf.error;
    EXPECT_TRUE(vf.verifyOk);

    // A tampered message must not verify.
    ServiceRequest bad;
    bad.op = ServiceOp::Verify;
    bad.curve = ServiceCurve::Secp160k1;
    bad.message = "round trap";
    bad.signature = sg.sigOut;
    bad.peer = kg.keyOut.q;
    ASSERT_TRUE(svc.submit(&bad));
    EccService::wait(bad);
    ASSERT_EQ(bad.status, ServiceStatus::Ok) << bad.error;
    EXPECT_FALSE(bad.verifyOk);

    // Forced-key keygen is deterministic: q = d * G.
    Ecdsa golden(secp160k1Curve());
    ServiceRequest forced;
    forced.op = ServiceOp::Keygen;
    forced.curve = ServiceCurve::Secp160k1;
    forced.privateKey = kg.keyOut.d;
    ASSERT_TRUE(svc.submit(&forced));
    EccService::wait(forced);
    ASSERT_EQ(forced.status, ServiceStatus::Ok) << forced.error;
    EXPECT_EQ(forced.keyOut.q.x, kg.keyOut.q.x);
    EXPECT_EQ(forced.keyOut.q.y, kg.keyOut.q.y);

    svc.stop();
}

// --- Derive across all six curves --------------------------------------

TEST(Service, DeriveMatchesGoldenOnEveryCurve)
{
    EccService svc(testConfig(2));
    svc.start();
    Rng rng(5);

    // Weierstrass-family curves: peer is a generator multiple (so the
    // subgroup check passes where the order is known).
    struct WCase
    {
        ServiceCurve curve;
        const WeierstrassCurve *c;
        AffinePoint g;
        BigUInt bound;
    };
    const std::vector<WCase> wcases = {
        {ServiceCurve::Secp160r1, &secp160r1Curve(),
         secp160r1Generator().g, secp160r1Generator().order},
        {ServiceCurve::Secp160k1, &secp160k1Curve(),
         secp160k1Curve().generator(), secp160k1Curve().order()},
        {ServiceCurve::GlvOpf, &glvOpfCurve(),
         glvOpfCurve().generator(), glvOpfCurve().order()},
        {ServiceCurve::WeierstrassOpf, &weierstrassOpfCurve(),
         weierstrassOpfBasePoint(),
         weierstrassOpfCurve().field().modulus()},
    };
    for (const WCase &w : wcases) {
        BigUInt kb = scalarBelow(rng, w.bound);
        BigUInt ka = scalarBelow(rng, w.bound);
        AffinePoint peer = w.c->mulNaf(kb, w.g);
        ServiceRequest r;
        r.op = ServiceOp::Derive;
        r.curve = w.curve;
        r.privateKey = ka;
        r.peer = peer;
        ASSERT_TRUE(svc.submit(&r));
        EccService::wait(r);
        ASSERT_EQ(r.status, ServiceStatus::Ok)
            << serviceCurveName(w.curve) << ": " << r.error;
        AffinePoint expect = w.c->mulNaf(ka, peer);
        EXPECT_EQ(r.pointOut.x, expect.x);
        EXPECT_EQ(r.pointOut.y, expect.y);
    }

    // Montgomery: x-only.
    {
        const MontgomeryCurve &m = montgomeryOpfCurve();
        BigUInt k = scalarBelow(rng, m.field().modulus());
        ServiceRequest r;
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::MontgomeryOpf;
        r.privateKey = k;
        r.peerX = montgomeryOpfBasePoint().x;
        ASSERT_TRUE(svc.submit(&r));
        EccService::wait(r);
        ASSERT_EQ(r.status, ServiceStatus::Ok) << r.error;
        auto expect = m.ladder(k, montgomeryOpfBasePoint().x);
        ASSERT_TRUE(expect.has_value());
        EXPECT_EQ(r.xOut, *expect);
    }

    // Edwards.
    {
        const EdwardsCurve &e = edwardsOpfCurve();
        BigUInt k = scalarBelow(rng, e.field().modulus());
        ServiceRequest r;
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::EdwardsOpf;
        r.privateKey = k;
        r.peer = edwardsOpfBasePoint();
        ASSERT_TRUE(svc.submit(&r));
        EccService::wait(r);
        ASSERT_EQ(r.status, ServiceStatus::Ok) << r.error;
        AffinePoint expect = e.mulNaf(k, edwardsOpfBasePoint());
        EXPECT_EQ(r.pointOut.x, expect.x);
        EXPECT_EQ(r.pointOut.y, expect.y);
    }

    svc.stop();
}

TEST(Service, BatchedDeriveAgreesWithEcdh)
{
    // A full-batch derive on one worker (pre-start submission again),
    // checked with the Diffie-Hellman symmetry a*(b*G) == b*(a*G).
    ServiceConfig cfg = testConfig(1, true);
    cfg.batchMax = 16;
    EccService svc(cfg);
    const GlvCurve &c = glvOpfCurve();
    Rng rng(6);

    std::vector<BigUInt> as, bs;
    std::vector<ServiceRequest> reqs(6);
    for (size_t i = 0; i < reqs.size(); i++) {
        as.push_back(scalarBelow(rng, c.order()));
        bs.push_back(scalarBelow(rng, c.order()));
        ServiceRequest &r = reqs[i];
        r.op = ServiceOp::Derive;
        r.curve = ServiceCurve::GlvOpf;
        r.privateKey = as[i];
        r.peer = c.mulNaf(bs[i], c.generator());
        ASSERT_TRUE(svc.trySubmit(&r));
    }
    svc.start();
    for (auto &r : reqs)
        EccService::wait(r);
    svc.stop();

    for (size_t i = 0; i < reqs.size(); i++) {
        ASSERT_EQ(reqs[i].status, ServiceStatus::Ok) << reqs[i].error;
        AffinePoint other =
            c.mulNaf(bs[i], c.mulNaf(as[i], c.generator()));
        EXPECT_EQ(reqs[i].pointOut.x, other.x);
        EXPECT_EQ(reqs[i].pointOut.y, other.y);
    }
}

// --- Hardened routing ---------------------------------------------------

TEST(Service, HardenedDeriveMatchesPlain)
{
    // Hardened derive runs on exactly the curves with a signer: there
    // it equals the plain derive (GLV + JSF and the co-Z ladder on the
    // GLV curves, the co-Z ladder and NAF on secp160r1); the OPF
    // curves are refused whatever their inputs.
    EccService svc(testConfig(1));
    svc.start();
    Rng rng(8);
    struct Case
    {
        ServiceCurve curve;
        const WeierstrassCurve *c;
        AffinePoint g;
        BigUInt n;
    };
    const Case known[] = {
        {ServiceCurve::Secp160r1, &secp160r1Curve(), secp160r1Generator().g,
         secp160r1Generator().order},
        {ServiceCurve::Secp160k1, &secp160k1Curve(),
         secp160k1Curve().generator(), secp160k1Curve().order()},
        {ServiceCurve::GlvOpf, &glvOpfCurve(), glvOpfCurve().generator(),
         glvOpfCurve().order()},
    };
    for (const Case &w : known) {
        BigUInt k = scalarBelow(rng, w.n);
        AffinePoint peer = w.c->mulNaf(scalarBelow(rng, w.n), w.g);
        ServiceRequest plain, hard;
        for (ServiceRequest *r : {&plain, &hard}) {
            r->op = ServiceOp::Derive;
            r->curve = w.curve;
            r->privateKey = k;
            r->peer = peer;
        }
        hard.hardened = true;
        ASSERT_TRUE(svc.submit(&plain));
        ASSERT_TRUE(svc.submit(&hard));
        EccService::wait(plain);
        EccService::wait(hard);
        const char *name = serviceCurveName(w.curve);
        ASSERT_EQ(plain.status, ServiceStatus::Ok) << name << ": "
                                                   << plain.error;
        ASSERT_EQ(hard.status, ServiceStatus::Ok) << name << ": "
                                                  << hard.error;
        EXPECT_EQ(plain.pointOut.x, hard.pointOut.x) << name;
        EXPECT_EQ(plain.pointOut.y, hard.pointOut.y) << name;
    }

    for (ServiceCurve curve :
         {ServiceCurve::WeierstrassOpf, ServiceCurve::MontgomeryOpf,
          ServiceCurve::EdwardsOpf}) {
        ServiceRequest nope;
        nope.op = ServiceOp::Derive;
        nope.curve = curve;
        nope.hardened = true;
        nope.privateKey = BigUInt(5);
        nope.peer = curve == ServiceCurve::EdwardsOpf
                        ? edwardsOpfBasePoint()
                        : weierstrassOpfBasePoint();
        nope.peerX = montgomeryOpfBasePoint().x;
        ASSERT_TRUE(svc.submit(&nope));
        EccService::wait(nope);
        EXPECT_EQ(nope.status, ServiceStatus::InvalidRequest)
            << serviceCurveName(curve);
        EXPECT_EQ(nope.error,
                  "hardened derive requires a curve with a known order");
    }
    svc.stop();
}

// --- Error paths --------------------------------------------------------

TEST(Service, ErrorPaths)
{
    EccService svc(testConfig(1));
    svc.start();
    const BigUInt &n = secp160r1Generator().order;

    auto roundTrip = [&](ServiceRequest &r) {
        EXPECT_TRUE(svc.submit(&r));
        EccService::wait(r);
    };

    // ECDSA on an order-unknown curve.
    ServiceRequest s1;
    s1.op = ServiceOp::Sign;
    s1.curve = ServiceCurve::MontgomeryOpf;
    s1.message = "x";
    s1.privateKey = BigUInt(5);
    roundTrip(s1);
    EXPECT_EQ(s1.status, ServiceStatus::InvalidRequest);
    EXPECT_EQ(s1.error, "ECDSA requires a curve with a known order");

    // Zero / out-of-range private key.
    ServiceRequest s2;
    s2.op = ServiceOp::Sign;
    s2.curve = ServiceCurve::Secp160r1;
    s2.message = "x";
    s2.privateKey = BigUInt(0);
    roundTrip(s2);
    EXPECT_EQ(s2.status, ServiceStatus::InvalidRequest);

    ServiceRequest s3;
    s3.op = ServiceOp::Sign;
    s3.curve = ServiceCurve::Secp160r1;
    s3.message = "x";
    s3.privateKey = BigUInt(5);
    s3.nonce = n; // out of [1, n)
    roundTrip(s3);
    EXPECT_EQ(s3.status, ServiceStatus::InvalidRequest);

    // Off-curve peer point.
    ServiceRequest d1;
    d1.op = ServiceOp::Derive;
    d1.curve = ServiceCurve::Secp160r1;
    d1.privateKey = BigUInt(5);
    d1.peer = AffinePoint(secp160r1Generator().g.x,
                          secp160r1Curve().field().add(
                              secp160r1Generator().g.y, BigUInt(1)));
    roundTrip(d1);
    EXPECT_EQ(d1.status, ServiceStatus::InvalidRequest);
    EXPECT_FALSE(d1.error.empty());

    // Invalid x-only peer (0 is 2-torsion).
    ServiceRequest d2;
    d2.op = ServiceOp::Derive;
    d2.curve = ServiceCurve::MontgomeryOpf;
    d2.privateKey = BigUInt(5);
    d2.peerX = BigUInt(0);
    roundTrip(d2);
    EXPECT_EQ(d2.status, ServiceStatus::InvalidRequest);

    // Small-order Edwards peers are no shared secret whatever the
    // scalar: (0, -1) of order 2 (an even scalar sends it to the
    // neutral element (0, 1), an odd one returns it), and
    // (sqrt(-1), 0) of order 4 at k = 1 and 2 (mod 4).
    const PrimeField &fe = edwardsOpfCurve().field();
    Rng rng(3);
    const AffinePoint order2(BigUInt(0), fe.modulus() - BigUInt(1));
    const AffinePoint order4(*fe.sqrt(fe.neg(BigUInt(1)), rng), BigUInt(0));
    const std::pair<AffinePoint, uint64_t> smallOrder[] = {
        {order2, 1234}, {order2, 1235}, {order4, 1233}, {order4, 1234}};
    for (const auto &[peer, k] : smallOrder) {
        ServiceRequest d3;
        d3.op = ServiceOp::Derive;
        d3.curve = ServiceCurve::EdwardsOpf;
        d3.privateKey = BigUInt(k);
        d3.peer = peer;
        roundTrip(d3);
        EXPECT_EQ(d3.status, ServiceStatus::InvalidRequest) << k;
        EXPECT_FALSE(d3.error.empty());
    }

    svc.stop();
}

// --- Metrics ------------------------------------------------------------

TEST(Service, PublishMetricsIsIdempotent)
{
    EccService svc(testConfig(2));
    svc.start();
    Rng rng(9);
    const BigUInt &n = secp160r1Generator().order;
    std::vector<ServiceRequest> reqs(10);
    for (auto &r : reqs) {
        r.op = ServiceOp::Sign;
        r.curve = ServiceCurve::Secp160r1;
        r.message = "metrics";
        r.privateKey = scalarBelow(rng, n);
        ASSERT_TRUE(svc.submit(&r));
    }
    for (auto &r : reqs)
        EccService::wait(r);
    svc.stop();

    MetricsRegistry reg;
    svc.publishMetrics(reg);
    svc.publishMetrics(reg); // counters must not double

    uint64_t total = 0, hist = 0;
    for (unsigned w = 0; w < 2; w++) {
        MetricLabels wl{{"worker", std::to_string(w)}};
        total += reg.counter("service_ops", wl).value();
        hist += reg.histogram("service_latency_us", {}, wl).count();
    }
    EXPECT_EQ(total, reqs.size());
    EXPECT_EQ(hist, reqs.size());
    EXPECT_EQ(svc.opsProcessed(), reqs.size());
    EXPECT_GT(svc.latencyPercentileUs(99), 0.0);
    EXPECT_GE(svc.latencyPercentileUs(99), svc.latencyPercentileUs(50));
}
