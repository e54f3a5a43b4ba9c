#include "service/service.hh"

#include <algorithm>
#include <array>
#include <chrono>

#include "curves/validate.hh"
#include "field/batch_inverse.hh"
#include "support/logging.hh"

namespace jaavr
{

const char *
serviceOpName(ServiceOp op)
{
    switch (op) {
    case ServiceOp::Sign:
        return "sign";
    case ServiceOp::Verify:
        return "verify";
    case ServiceOp::Keygen:
        return "keygen";
    case ServiceOp::Derive:
        return "derive";
    }
    return "?";
}

const char *
serviceCurveName(ServiceCurve c)
{
    switch (c) {
    case ServiceCurve::Secp160r1:
        return "secp160r1";
    case ServiceCurve::Secp160k1:
        return "secp160k1";
    case ServiceCurve::GlvOpf:
        return "glv-opf";
    case ServiceCurve::WeierstrassOpf:
        return "weierstrass-opf";
    case ServiceCurve::MontgomeryOpf:
        return "montgomery-opf";
    case ServiceCurve::EdwardsOpf:
        return "edwards-opf";
    }
    return "?";
}

namespace
{

constexpr uint64_t kNoShardHint = ~uint64_t(0);

std::vector<double>
latencyBoundsUs()
{
    return {25,    50,    100,   250,    500,    1000,   2500,
            5000,  10000, 25000, 50000,  100000, 250000, 1000000};
}

std::vector<double>
occupancyBounds()
{
    return {1, 2, 4, 8, 16, 32, 64, 128};
}

void
fail(ServiceRequest &r, ServiceStatus st, const std::string &why)
{
    r.status = st;
    r.error = why;
}

BigUInt
randomScalar(Rng &rng, const BigUInt &n)
{
    return BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
}

/** Finalizing 64-bit mix (splitmix64) so adjacent hints spread. */
uint64_t
mixHint(uint64_t h)
{
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
}

} // namespace

EccService::EccService(const ServiceConfig &config)
    : cfg(config),
      tables(config.amortize
                 ? ServiceTables::build(ServiceCurveSet::instance())
                 : ServiceTables{})
{
    if (cfg.workers == 0)
        fatal("EccService: at least one worker required");
    if (cfg.batchMax == 0)
        fatal("EccService: batchMax must be >= 1");
    for (unsigned i = 0; i < cfg.workers; i++) {
        contexts.push_back(std::make_unique<WorkerContext>(
            cfg.rngSeed + i, cfg.machineMode));
        queues.push_back(std::make_unique<BoundedMpmcQueue<ServiceRequest *>>(
            cfg.queueCapacity));
        stats.push_back(std::make_unique<WorkerStats>(latencyBoundsUs(),
                                                      occupancyBounds()));
        if (cfg.amortize) {
            WorkerContext &ctx = *contexts.back();
            ctx.ecdsaR1.attachFixedBase(tables.r1.get());
            ctx.ecdsaK1.attachFixedBase(tables.k1.get());
            ctx.ecdsaGlv.attachFixedBase(tables.glv.get());
        }
    }
}

EccService::~EccService()
{
    stop();
}

void
EccService::start()
{
    if (!threads.empty())
        return;
    running.store(true, std::memory_order_release);
    for (unsigned i = 0; i < cfg.workers; i++)
        threads.emplace_back([this, i] { workerLoop(i); });
}

void
EccService::stop()
{
    accepting.store(false, std::memory_order_release);
    if (threads.empty())
        return;
    running.store(false, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();
    threads.clear();
}

void
EccService::setTracer(obs::SpanTracer *t)
{
    if (started())
        fatal("EccService::setTracer: attach before start()");
    tracer = t;
    traceRings.clear();
    if (!tracer)
        return;
    for (unsigned i = 0; i < cfg.workers; i++)
        traceRings.push_back(tracer->ring("worker" + std::to_string(i)));
}

void
EccService::setFlightRecorder(obs::FlightRecorder *f)
{
    if (started())
        fatal("EccService::setFlightRecorder: attach before start()");
    flight = f;
    flightSources.clear();
    flightSubmit = nullptr;
    if (!flight)
        return;
    for (unsigned i = 0; i < cfg.workers; i++)
        flightSources.push_back(
            flight->source("worker" + std::to_string(i)));
    flightSubmit = flight->source("submit");
}

bool
EccService::trySubmit(ServiceRequest *req)
{
    if (!accepting.load(std::memory_order_acquire))
        return false;
    req->done.store(false, std::memory_order_relaxed);
    req->status = ServiceStatus::Pending;
    req->error.clear();
    req->traceId =
        tracer && tracer->enabled() ? tracer->newTraceId() : 0;
    req->poppedAtUs = 0;
    req->enqueuedAt = std::chrono::steady_clock::now();
    size_t w = req->shardHint == kNoShardHint
                   ? roundRobin.fetch_add(1, std::memory_order_relaxed) %
                         queues.size()
                   : mixHint(req->shardHint) % queues.size();
    if (queues[w]->tryPush(req))
        return true;
    // Backpressure: the shard queue is full. Only the *onset* lands
    // in the flight ring (submit() spins here under saturation, so
    // per-refusal recording would become the hot path); the refusal
    // counter keeps the full tally.
    uint64_t n = refusals.fetch_add(1, std::memory_order_relaxed) + 1;
    if (flightSubmit && n == 1) {
        flightSubmit->record(n, "backpressure",
                             csprintf("shard %zu queue full", w),
                             static_cast<uint64_t>(w),
                             cfg.queueCapacity);
        flight->trigger("service_backpressure");
    }
    return false;
}

bool
EccService::submit(ServiceRequest *req)
{
    for (;;) {
        if (trySubmit(req))
            return true;
        if (!accepting.load(std::memory_order_acquire))
            return false;
        std::this_thread::yield();
    }
}

void
EccService::wait(const ServiceRequest &req)
{
    while (!req.done.load(std::memory_order_acquire))
        std::this_thread::yield();
}

uint64_t
EccService::opsProcessed() const
{
    uint64_t total = 0;
    for (const auto &st : stats)
        total += st->ops.load(std::memory_order_relaxed);
    return total;
}

void
EccService::workerLoop(unsigned idx)
{
    WorkerContext &ctx = *contexts[idx];
    BoundedMpmcQueue<ServiceRequest *> &q = *queues[idx];
    WorkerStats &st = *stats[idx];
    std::vector<ServiceRequest *> batch;
    batch.reserve(cfg.batchMax);
    unsigned idle = 0;

    for (;;) {
        batch.clear();
        ServiceRequest *req = nullptr;
        // One relaxed flag sample per wake: the pop-time stamps only
        // exist while tracing, so the idle-tracer drain loop stays
        // pop + push_back.
        bool tracing = tracer && tracer->enabled();
        while (batch.size() < cfg.batchMax && q.tryPop(req)) {
            if (tracing)
                req->poppedAtUs = tracer->nowUs();
            batch.push_back(req);
        }
        if (batch.empty()) {
            if (!running.load(std::memory_order_acquire)) {
                // Drain check after observing shutdown: anything a
                // producer pushed before stop() is still processed.
                if (!q.tryPop(req))
                    break;
                if (tracing)
                    req->poppedAtUs = tracer->nowUs();
                batch.push_back(req);
            } else if (idle < 64) {
                idle++;
                continue;
            } else if (idle < 128) {
                idle++;
                std::this_thread::yield();
                continue;
            } else {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                continue;
            }
        }
        idle = 0;
        processBatch(ctx, st, batch, idx);
    }
}

void
EccService::processBatch(WorkerContext &ctx, WorkerStats &st,
                         std::vector<ServiceRequest *> &batch,
                         unsigned idx)
{
    // Tracing context for this drain: one shared "drain" span, child
    // "request" spans carrying the queue-wait / drain-wait stage
    // split, and one "amortize" child per batched group. All
    // recording happens in this worker's own ring.
    obs::SpanRing *ring =
        tracer && tracer->enabled() ? traceRings[idx] : nullptr;
    uint64_t drainBeginUs = 0, drainSpan = 0;
    if (ring) {
        drainBeginUs = tracer->nowUs();
        drainSpan = tracer->newSpanId();
    }
    auto group = [&](const char *name, size_t n, auto &&fn) {
        if (!ring) {
            fn();
            return;
        }
        obs::SpanRecord s;
        s.name = name;
        s.cat = "amortize";
        s.spanId = tracer->newSpanId();
        s.parentId = drainSpan;
        s.beginUs = tracer->nowUs();
        fn();
        s.endUs = tracer->nowUs();
        s.arg0Name = "group_size";
        s.arg0 = n;
        ring->push(s);
    };

    if (!cfg.amortize || batch.size() == 1) {
        // The unamortized configuration: every request takes the
        // pre-existing single-call library path.
        for (ServiceRequest *r : batch)
            processSingle(ctx, *r);
    } else {
        // Partition the micro-batch into amortizable groups. Verify
        // and hardened requests have no cross-request amortization
        // (beyond the shared comb inside verify) and run singly.
        std::array<std::vector<ServiceRequest *>, 6> signG, deriveW;
        std::vector<ServiceRequest *> deriveM, deriveE, singles;
        for (ServiceRequest *rp : batch) {
            ServiceRequest &r = *rp;
            switch (r.op) {
            case ServiceOp::Sign:
            case ServiceOp::Keygen:
                if (!serviceOrderKnown(r.curve))
                    fail(r, ServiceStatus::InvalidRequest,
                         "ECDSA requires a curve with a known order");
                else
                    signG[size_t(r.curve)].push_back(rp);
                break;
            case ServiceOp::Verify:
                singles.push_back(rp);
                break;
            case ServiceOp::Derive:
                if (r.hardened)
                    singles.push_back(rp);
                else if (r.curve == ServiceCurve::MontgomeryOpf)
                    deriveM.push_back(rp);
                else if (r.curve == ServiceCurve::EdwardsOpf)
                    deriveE.push_back(rp);
                else
                    deriveW[size_t(r.curve)].push_back(rp);
                break;
            }
        }
        for (auto &g : signG)
            if (!g.empty())
                group("sign_batch", g.size(),
                      [&] { processSignBatch(ctx, g); });
        for (auto &g : deriveW)
            if (!g.empty())
                group("derive_w_batch", g.size(),
                      [&] { processDeriveWeierstrassBatch(ctx, g); });
        if (!deriveM.empty())
            group("derive_m_batch", deriveM.size(),
                  [&] { processDeriveMontgomeryBatch(ctx, deriveM); });
        if (!deriveE.empty())
            group("derive_e_batch", deriveE.size(),
                  [&] { processDeriveEdwardsBatch(ctx, deriveE); });
        if (!singles.empty())
            group("singles", singles.size(), [&] {
                for (ServiceRequest *r : singles)
                    processSingle(ctx, *r);
            });
    }

    for (ServiceRequest *r : batch)
        if (r->status == ServiceStatus::Pending)
            fail(*r, ServiceStatus::InvalidRequest, "unhandled request");

    auto now = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lk(st.histMutex);
        st.occupancy.observe(double(batch.size()));
        for (ServiceRequest *r : batch)
            st.latencyUs.observe(
                std::chrono::duration<double, std::micro>(now - r->enqueuedAt)
                    .count());
    }
    uint64_t failed = 0;
    for (ServiceRequest *r : batch) {
        st.opsByKind[size_t(r->op)].fetch_add(1, std::memory_order_relaxed);
        if (r->status != ServiceStatus::Ok)
            failed++;
    }
    uint64_t opsBefore =
        st.ops.fetch_add(batch.size(), std::memory_order_relaxed);
    st.batches.fetch_add(1, std::memory_order_relaxed);
    if (failed)
        st.failed.fetch_add(failed, std::memory_order_relaxed);

    if (ring) {
        // Request spans tile end-to-end latency exactly:
        // queue_wait (enqueue → pop) + drain_wait (pop → drain
        // begin) + compute (drain begin → done) == dur. All stamps
        // come from the tracer clock, so the attribution table can
        // reconstruct the p99 decomposition without residue.
        uint64_t endUs = tracer->toUs(now);
        for (ServiceRequest *r : batch) {
            uint64_t enqUs =
                std::min(tracer->toUs(r->enqueuedAt), drainBeginUs);
            uint64_t popUs =
                std::clamp(r->poppedAtUs, enqUs, drainBeginUs);
            obs::SpanRecord s;
            s.name = serviceOpName(r->op);
            s.cat = "service";
            s.traceId = r->traceId;
            s.spanId = tracer->newSpanId();
            s.parentId = drainSpan;
            s.beginUs = enqUs;
            s.endUs = std::max(endUs, drainBeginUs);
            s.arg0Name = "queue_wait_us";
            s.arg0 = popUs - enqUs;
            s.arg1Name = "drain_wait_us";
            s.arg1 = drainBeginUs - popUs;
            ring->push(s);
        }
        obs::SpanRecord d;
        d.name = "drain";
        d.cat = "service";
        d.spanId = drainSpan;
        d.beginUs = drainBeginUs;
        d.endUs = std::max(tracer->toUs(now), drainBeginUs);
        d.arg0Name = "batch";
        d.arg0 = batch.size();
        d.arg1Name = "worker";
        d.arg1 = idx;
        ring->push(d);
    }

    if (!flightSources.empty()) {
        // Flight triggers: a Verify that rejected its signature or a
        // hardened recomputation that disagreed is the service-level
        // "verify mismatch" anomaly. Times are per-worker op
        // ordinals, so a deterministic workload dumps
        // byte-identically.
        obs::FlightRecorder::Source *src = flightSources[idx];
        uint64_t ord = opsBefore;
        for (ServiceRequest *r : batch) {
            ord++;
            bool rejected = r->op == ServiceOp::Verify &&
                            r->status == ServiceStatus::Ok &&
                            !r->verifyOk;
            bool hardenedFailed =
                r->status == ServiceStatus::HardenedFailed;
            if (!rejected && !hardenedFailed)
                continue;
            src->record(ord, "verify_mismatch",
                        csprintf("%s %s %s",
                                 serviceOpName(r->op),
                                 serviceCurveName(r->curve),
                                 rejected ? "signature rejected"
                                          : r->error.c_str()),
                        r->traceId, static_cast<uint64_t>(idx));
            flight->trigger("service_verify_mismatch");
        }
    }

    // Publish the outputs: everything above happens-before this
    // release store, which the caller's acquire load in wait() pairs
    // with.
    for (ServiceRequest *r : batch)
        r->done.store(true, std::memory_order_release);
}

void
EccService::processSingle(WorkerContext &ctx, ServiceRequest &r)
{
    Ecdsa *S = ctx.signerFor(r.curve);
    switch (r.op) {
    case ServiceOp::Sign: {
        if (!S) {
            fail(r, ServiceStatus::InvalidRequest,
                 "ECDSA requires a curve with a known order");
            return;
        }
        const BigUInt &n = S->order();
        if (!validScalar(r.privateKey, n)) {
            fail(r, ServiceStatus::InvalidRequest,
                 "private key out of range");
            return;
        }
        if (!r.nonce.isZero()) {
            if (!validScalar(r.nonce, n)) {
                fail(r, ServiceStatus::InvalidRequest, "nonce out of range");
                return;
            }
            auto sig = S->signWithNonce(r.message, r.privateKey, r.nonce);
            if (!sig) {
                fail(r, ServiceStatus::InvalidRequest, "degenerate nonce");
                return;
            }
            r.sigOut = *sig;
        } else {
            r.sigOut = S->sign(r.message, r.privateKey, ctx.rng);
        }
        r.status = ServiceStatus::Ok;
        return;
    }
    case ServiceOp::Verify: {
        if (!S) {
            fail(r, ServiceStatus::InvalidRequest,
                 "ECDSA requires a curve with a known order");
            return;
        }
        r.verifyOk = S->verify(r.message, r.signature, r.peer);
        r.status = ServiceStatus::Ok;
        return;
    }
    case ServiceOp::Keygen: {
        if (!S) {
            fail(r, ServiceStatus::InvalidRequest,
                 "ECDSA requires a curve with a known order");
            return;
        }
        if (!r.privateKey.isZero()) {
            if (!validScalar(r.privateKey, S->order())) {
                fail(r, ServiceStatus::InvalidRequest,
                     "forced private key out of range");
                return;
            }
            r.keyOut.d = r.privateKey;
            r.keyOut.q = S->mulG(r.privateKey);
        } else {
            r.keyOut = S->generateKey(ctx.rng);
        }
        r.status = ServiceStatus::Ok;
        return;
    }
    case ServiceOp::Derive:
        break;
    }

    // Derive.
    if (r.hardened) {
        HardenedMul h;
        switch (r.curve) {
        case ServiceCurve::Secp160r1:
            h = hardenedMulWeierstrass(ctx.secp160r1, r.privateKey, r.peer,
                                       ctx.ecdsaR1.order());
            break;
        case ServiceCurve::Secp160k1:
            h = hardenedMulGlv(ctx.secp160k1, r.privateKey, r.peer);
            break;
        case ServiceCurve::GlvOpf:
            h = hardenedMulGlv(ctx.glvOpf, r.privateKey, r.peer);
            break;
        default:
            fail(r, ServiceStatus::InvalidRequest,
                 "hardened derive requires a curve with a known order");
            return;
        }
        if (!h.ok) {
            fail(r, ServiceStatus::HardenedFailed, h.reason);
            return;
        }
        r.pointOut = h.point;
        r.status = ServiceStatus::Ok;
        return;
    }

    switch (r.curve) {
    case ServiceCurve::MontgomeryOpf: {
        if (!validateX(ctx.montgomeryOpf, r.peerX)) {
            fail(r, ServiceStatus::InvalidRequest, "peer x invalid");
            return;
        }
        if (r.privateKey.isZero()) {
            fail(r, ServiceStatus::InvalidRequest, "zero scalar");
            return;
        }
        auto x = ctx.montgomeryOpf.ladder(r.privateKey, r.peerX);
        if (!x) {
            fail(r, ServiceStatus::InvalidRequest,
                 "derived the point at infinity");
            return;
        }
        r.xOut = *x;
        r.status = ServiceStatus::Ok;
        return;
    }
    case ServiceCurve::EdwardsOpf: {
        if (!validatePoint(ctx.edwardsOpf, r.peer)) {
            fail(r, ServiceStatus::InvalidRequest, "peer point invalid");
            return;
        }
        if (r.privateKey.isZero()) {
            fail(r, ServiceStatus::InvalidRequest, "zero scalar");
            return;
        }
        r.pointOut = ctx.edwardsOpf.mulNaf(r.privateKey, r.peer);
        r.status = ServiceStatus::Ok;
        return;
    }
    default: {
        const WeierstrassCurve *c = ctx.weierstrassFor(r.curve);
        const BigUInt *n = S ? &S->order() : nullptr;
        if (!validatePoint(*c, r.peer, n)) {
            fail(r, ServiceStatus::InvalidRequest, "peer point invalid");
            return;
        }
        if (n ? !validScalar(r.privateKey, *n) : r.privateKey.isZero()) {
            fail(r, ServiceStatus::InvalidRequest, "scalar out of range");
            return;
        }
        AffinePoint out = S ? S->mul(r.privateKey, r.peer)
                            : c->mulNaf(r.privateKey, r.peer);
        if (out.inf) {
            fail(r, ServiceStatus::InvalidRequest,
                 "derived the point at infinity");
            return;
        }
        r.pointOut = out;
        r.status = ServiceStatus::Ok;
        return;
    }
    }
}

void
EccService::processSignBatch(WorkerContext &ctx,
                             std::vector<ServiceRequest *> &reqs)
{
    ServiceCurve curve = reqs[0]->curve;
    Ecdsa *S = ctx.signerFor(curve);
    const WeierstrassCurve &c = S->curve();
    const PrimeField &fn = S->scalarField();
    const BigUInt &n = S->order();
    const FixedBaseComb *comb = S->fixedBase();

    struct Item
    {
        ServiceRequest *req;
        Fe e;             ///< hash scalar (Sign only)
        size_t nonceSlot; ///< index into nonceInv; SIZE_MAX for Keygen
    };
    std::vector<Item> items;
    std::vector<BigUInt> scalars;      ///< nonce k (Sign) / key d (Keygen)
    std::vector<JacobianPoint> points; ///< k*G resp. d*G
    std::vector<Fe> nonceInv;          ///< Sign nonces, inverted in batch
    items.reserve(reqs.size());
    scalars.reserve(reqs.size());
    points.reserve(reqs.size());

    for (ServiceRequest *rp : reqs) {
        ServiceRequest &r = *rp;
        BigUInt k;
        Item it{rp, Fe{}, SIZE_MAX};
        if (r.op == ServiceOp::Sign) {
            if (!validScalar(r.privateKey, n)) {
                fail(r, ServiceStatus::InvalidRequest,
                     "private key out of range");
                continue;
            }
            if (r.nonce.isZero()) {
                k = randomScalar(ctx.rng, n);
            } else if (validScalar(r.nonce, n)) {
                k = r.nonce;
            } else {
                fail(r, ServiceStatus::InvalidRequest, "nonce out of range");
                continue;
            }
            it.e = fn.fromBig(S->hashToScalar(r.message));
            it.nonceSlot = nonceInv.size();
            nonceInv.push_back(fn.fromBig(k));
        } else { // Keygen
            if (r.privateKey.isZero()) {
                k = randomScalar(ctx.rng, n);
            } else if (validScalar(r.privateKey, n)) {
                k = r.privateKey;
            } else {
                fail(r, ServiceStatus::InvalidRequest,
                     "forced private key out of range");
                continue;
            }
        }
        scalars.push_back(k);
        points.push_back(comb ? comb->mulJacobian(c, k)
                              : c.mulNafJacobian(k, S->generator()));
        items.push_back(std::move(it));
    }
    if (items.empty())
        return;

    // The batch's two shared inversions: one field inversion converts
    // every R/Q point to affine, one mod-n inversion serves every
    // nonce.
    std::vector<AffinePoint> affs = c.toAffineBatch(points);
    invBatch(fn, nonceInv);

    for (size_t i = 0; i < items.size(); i++) {
        ServiceRequest &r = *items[i].req;
        const AffinePoint &pt = affs[i];
        if (r.op == ServiceOp::Keygen) {
            if (!validatePoint(c, pt, &n)) {
                fail(r, ServiceStatus::InvalidRequest,
                     "generated public key failed validation");
                continue;
            }
            r.keyOut.d = scalars[i];
            r.keyOut.q = pt;
            r.status = ServiceStatus::Ok;
            continue;
        }
        bool degenerate = pt.inf;
        Fe rr;
        if (!degenerate) {
            rr = fn.fromBig(pt.x);
            degenerate = rr.isZero();
        }
        Fe s;
        if (!degenerate) {
            const Fe &kinv = nonceInv[items[i].nonceSlot];
            s = fn.mul(kinv, fn.add(items[i].e,
                                    fn.mul(rr, fn.fromBig(r.privateKey))));
            degenerate = s.isZero();
        }
        if (degenerate) {
            if (!r.nonce.isZero()) {
                fail(r, ServiceStatus::InvalidRequest, "degenerate nonce");
                continue;
            }
            // Negligible-probability path: redraw per call.
            r.sigOut = S->sign(r.message, r.privateKey, ctx.rng);
            r.status = ServiceStatus::Ok;
            continue;
        }
        r.sigOut = EcdsaSignature{rr.toBig(), s.toBig()};
        r.status = ServiceStatus::Ok;
    }
}

void
EccService::processDeriveWeierstrassBatch(WorkerContext &ctx,
                                          std::vector<ServiceRequest *> &reqs)
{
    ServiceCurve curve = reqs[0]->curve;
    const WeierstrassCurve *c = ctx.weierstrassFor(curve);
    Ecdsa *S = ctx.signerFor(curve);
    const BigUInt *n = S ? &S->order() : nullptr;

    std::vector<ServiceRequest *> live;
    std::vector<JacobianPoint> points;
    live.reserve(reqs.size());
    points.reserve(reqs.size());
    for (ServiceRequest *rp : reqs) {
        ServiceRequest &r = *rp;
        if (!validatePoint(*c, r.peer, n)) {
            fail(r, ServiceStatus::InvalidRequest, "peer point invalid");
            continue;
        }
        if (n ? !validScalar(r.privateKey, *n) : r.privateKey.isZero()) {
            fail(r, ServiceStatus::InvalidRequest, "scalar out of range");
            continue;
        }
        points.push_back(c->mulNafJacobian(r.privateKey, r.peer));
        live.push_back(rp);
    }
    if (live.empty())
        return;

    std::vector<AffinePoint> affs = c->toAffineBatch(points);
    for (size_t i = 0; i < live.size(); i++) {
        if (affs[i].inf) {
            fail(*live[i], ServiceStatus::InvalidRequest,
                 "derived the point at infinity");
            continue;
        }
        live[i]->pointOut = affs[i];
        live[i]->status = ServiceStatus::Ok;
    }
}

void
EccService::processDeriveMontgomeryBatch(WorkerContext &ctx,
                                         std::vector<ServiceRequest *> &reqs)
{
    const MontgomeryCurve &c = ctx.montgomeryOpf;
    const PrimeField &f = ctx.opfField;

    std::vector<ServiceRequest *> live;
    std::vector<XzPoint> xz;
    live.reserve(reqs.size());
    xz.reserve(reqs.size());
    for (ServiceRequest *rp : reqs) {
        ServiceRequest &r = *rp;
        if (!validateX(c, r.peerX)) {
            fail(r, ServiceStatus::InvalidRequest, "peer x invalid");
            continue;
        }
        if (r.privateKey.isZero()) {
            fail(r, ServiceStatus::InvalidRequest, "zero scalar");
            continue;
        }
        xz.push_back(c.ladderXz(r.privateKey, r.peerX));
        live.push_back(rp);
    }
    if (live.empty())
        return;

    // One shared inversion for every ladder's final X/Z division;
    // invBatch's zero passthrough marks the infinity results.
    std::vector<Fe> zs;
    zs.reserve(xz.size());
    for (const XzPoint &p : xz)
        zs.push_back(p.z);
    invBatch(f, zs);

    for (size_t i = 0; i < live.size(); i++) {
        if (xz[i].z.isZero()) {
            fail(*live[i], ServiceStatus::InvalidRequest,
                 "derived the point at infinity");
            continue;
        }
        live[i]->xOut = f.mul(xz[i].x, zs[i]).toBig();
        live[i]->status = ServiceStatus::Ok;
    }
}

void
EccService::processDeriveEdwardsBatch(WorkerContext &ctx,
                                      std::vector<ServiceRequest *> &reqs)
{
    const EdwardsCurve &c = ctx.edwardsOpf;

    std::vector<ServiceRequest *> live;
    std::vector<ExtendedPoint> points;
    live.reserve(reqs.size());
    points.reserve(reqs.size());
    for (ServiceRequest *rp : reqs) {
        ServiceRequest &r = *rp;
        if (!validatePoint(c, r.peer)) {
            fail(r, ServiceStatus::InvalidRequest, "peer point invalid");
            continue;
        }
        if (r.privateKey.isZero()) {
            fail(r, ServiceStatus::InvalidRequest, "zero scalar");
            continue;
        }
        points.push_back(c.mulNafExtended(r.privateKey, r.peer));
        live.push_back(rp);
    }
    if (live.empty())
        return;

    std::vector<AffinePoint> affs = c.toAffineBatch(points);
    for (size_t i = 0; i < live.size(); i++) {
        live[i]->pointOut = affs[i];
        live[i]->status = ServiceStatus::Ok;
    }
}

void
EccService::publishMetrics(MetricsRegistry &reg) const
{
    auto raise = [&reg](const char *name, const MetricLabels &l, uint64_t v) {
        Counter &cnt = reg.counter(name, l);
        if (v > cnt.value())
            cnt.inc(v - cnt.value());
    };

    for (size_t i = 0; i < stats.size(); i++) {
        const WorkerStats &st = *stats[i];
        MetricLabels wl{{"worker", std::to_string(i)}};
        reg.gauge("service_queue_depth", wl)
            .set(double(queues[i]->sizeApprox()));
        raise("service_ops", wl, st.ops.load(std::memory_order_relaxed));
        raise("service_batches", wl,
              st.batches.load(std::memory_order_relaxed));
        raise("service_failed", wl,
              st.failed.load(std::memory_order_relaxed));
        static const ServiceOp kOps[4] = {ServiceOp::Sign, ServiceOp::Verify,
                                          ServiceOp::Keygen,
                                          ServiceOp::Derive};
        for (ServiceOp op : kOps) {
            MetricLabels ol{{"op", serviceOpName(op)},
                            {"worker", std::to_string(i)}};
            raise("service_ops_by_kind", ol,
                  st.opsByKind[size_t(op)].load(std::memory_order_relaxed));
        }

        // Bucket-faithful histogram re-emission: raise each registry
        // bucket to the worker's level by observing the bucket's own
        // upper bound (counts stay exact; sums approximate).
        std::lock_guard<std::mutex> lk(st.histMutex);
        auto emit = [&reg, &wl](const char *name, const Histogram &src) {
            Histogram &dst = reg.histogram(name, src.bounds(), wl);
            for (size_t b = 0; b <= src.bounds().size(); b++) {
                uint64_t have = dst.bucketCount(b);
                uint64_t want = src.bucketCount(b);
                if (want > have) {
                    double v = b < src.bounds().size()
                                   ? src.bounds()[b]
                                   : src.bounds().back() + 1.0;
                    dst.observe(v, want - have);
                }
            }
        };
        emit("service_latency_us", st.latencyUs);
        emit("service_batch_occupancy", st.occupancy);
        reg.gauge("service_latency_p50_us", wl)
            .set(st.latencyUs.percentile(50));
        reg.gauge("service_latency_p99_us", wl)
            .set(st.latencyUs.percentile(99));
        reg.gauge("service_batch_occupancy_mean", wl)
            .set(st.occupancy.mean());
    }
}

double
EccService::latencyPercentileUs(double p) const
{
    Histogram merged(latencyBoundsUs());
    for (const auto &stp : stats) {
        std::lock_guard<std::mutex> lk(stp->histMutex);
        const Histogram &src = stp->latencyUs;
        for (size_t b = 0; b <= src.bounds().size(); b++) {
            uint64_t cnt = src.bucketCount(b);
            if (cnt == 0)
                continue;
            double v = b < src.bounds().size() ? src.bounds()[b]
                                               : src.bounds().back() + 1.0;
            merged.observe(v, cnt);
        }
    }
    return merged.percentile(p);
}

} // namespace jaavr
