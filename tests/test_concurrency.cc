/**
 * @file
 * Concurrency pins for the service layer's scaling contract
 * (DESIGN.md §14): per-instance Machines running on separate threads
 * are bit-identical to serial runs (no hidden globals in the ISS),
 * independent WorkerContexts evaluating one shared comb table
 * concurrently agree with the single-threaded golden results, the
 * blocking queue survives a multi-producer stress run without
 * losing or duplicating items, a running multi-worker service
 * fed from several submitter threads completes every request
 * correctly, and stop() racing those submitters leaves no accepted
 * request unprocessed. The span tracer rides the same contract: one
 * shared SpanTracer feeding per-thread rings under full contention must
 * keep span IDs globally unique and every ring internally ordered.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "curves/standard_curves.hh"
#include "obs/trace.hh"
#include "service/service.hh"

using namespace jaavr;

namespace
{

/** A register- and stack-churning program with data-dependent
 *  branches; push/pop give CA and FAST timing different totals. */
const char *kProgram = R"(
    ldi r16, 0
    ldi r17, 1
    ldi r18, 0
    ldi r19, 199
loop:
    add r16, r17
    push r16
    mov r20, r17
    mov r17, r16
    mov r16, r20
    eor r18, r16
    pop r16
    inc r16
    dec r19
    brne loop
    ret
)";

struct MachineResult
{
    uint64_t cycles;
    uint8_t r16, r17, r18;
    uint8_t sreg;
};

MachineResult
runProgram(CpuMode mode)
{
    Machine m(mode);
    m.loadProgram(assemble(kProgram, "conc").words);
    MachineResult res;
    res.cycles = m.call(0);
    res.r16 = m.reg(16);
    res.r17 = m.reg(17);
    res.r18 = m.reg(18);
    res.sreg = m.sreg();
    return res;
}

} // namespace

TEST(Concurrency, MachinesAreBitIdenticalAcrossThreads)
{
    // Serial golden runs first, then the same programs concurrently:
    // the ISS must be entirely member-state, so interleaving cannot
    // perturb cycles, registers, or flags.
    MachineResult golden_ca = runProgram(CpuMode::CA);
    MachineResult golden_ise = runProgram(CpuMode::ISE);

    constexpr int kThreads = 8;
    std::vector<MachineResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; i++)
        threads.emplace_back([&results, i] {
            results[i] = runProgram(i % 2 ? CpuMode::CA : CpuMode::ISE);
        });
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kThreads; i++) {
        const MachineResult &want = i % 2 ? golden_ca : golden_ise;
        EXPECT_EQ(results[i].cycles, want.cycles) << "thread " << i;
        EXPECT_EQ(results[i].r16, want.r16);
        EXPECT_EQ(results[i].r17, want.r17);
        EXPECT_EQ(results[i].r18, want.r18);
        EXPECT_EQ(results[i].sreg, want.sreg);
    }
    // The two interleaved timing models really were distinct (ISE
    // uses the improved-CPI stack timing, CA the classic one).
    EXPECT_NE(golden_ca.cycles, golden_ise.cycles);
}

TEST(Concurrency, WorkerContextsShareOneCombSafely)
{
    // One immutable table, many private contexts: every thread signs
    // the same (message, d, k) tuples through its own context and
    // must reproduce the single-threaded signatures exactly.
    const ServiceCurveSet &snap = ServiceCurveSet::instance();
    ServiceTables tables = ServiceTables::build(snap);

    constexpr int kThreads = 4;
    constexpr int kSigs = 5;
    WorkerContext golden_ctx(99);
    golden_ctx.ecdsaR1.attachFixedBase(tables.r1.get());
    golden_ctx.ecdsaGlv.attachFixedBase(tables.glv.get());

    struct Tuple
    {
        std::string msg;
        BigUInt d, k;
    };
    std::vector<Tuple> tuples;
    Rng rng(123);
    const BigUInt &n = golden_ctx.ecdsaR1.order();
    for (int i = 0; i < kSigs; i++)
        tuples.push_back({"m" + std::to_string(i),
                          BigUInt(1) + BigUInt::random(rng, n - BigUInt(1)),
                          BigUInt(1) + BigUInt::random(rng, n - BigUInt(1))});

    std::vector<EcdsaSignature> golden;
    for (const Tuple &t : tuples) {
        auto s = golden_ctx.ecdsaR1.signWithNonce(t.msg, t.d, t.k);
        ASSERT_TRUE(s.has_value());
        golden.push_back(*s);
    }

    std::vector<std::vector<EcdsaSignature>> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; i++)
        threads.emplace_back([&, i] {
            WorkerContext ctx(1000 + i);
            ctx.ecdsaR1.attachFixedBase(tables.r1.get());
            for (const Tuple &t : tuples) {
                auto s = ctx.ecdsaR1.signWithNonce(t.msg, t.d, t.k);
                if (s)
                    results[i].push_back(*s);
            }
        });
    for (auto &t : threads)
        t.join();

    for (int i = 0; i < kThreads; i++) {
        ASSERT_EQ(results[i].size(), golden.size()) << "thread " << i;
        for (size_t j = 0; j < golden.size(); j++) {
            EXPECT_EQ(results[i][j].r, golden[j].r);
            EXPECT_EQ(results[i][j].s, golden[j].s);
        }
    }
}

TEST(Concurrency, QueueMultiProducerStress)
{
    // 4 producers push disjoint tagged requests through one queue
    // while a consumer pops batches; every tag must arrive exactly
    // once.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 2000;
    BoundedBlockingQueue<ServiceRequest *> q(64);

    std::vector<std::vector<ServiceRequest>> reqs;
    for (int p = 0; p < kProducers; p++) {
        reqs.emplace_back(kPerProducer);
        for (int i = 0; i < kPerProducer; i++)
            reqs[p][i].traceId = uint64_t(p) * kPerProducer + i;
    }

    std::vector<char> seen(kProducers * kPerProducer, 0);
    std::thread consumer([&] {
        std::vector<ServiceRequest *> batch;
        while (q.popBatch(batch, 16))
            for (ServiceRequest *r : batch)
                seen[size_t(r->traceId)]++;
    });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; p++)
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; i++)
                while (q.push(&reqs[p][i]) != PushResult::Ok)
                    std::this_thread::yield();
        });
    for (auto &t : producers)
        t.join();
    q.close();
    consumer.join();

    for (size_t i = 0; i < seen.size(); i++)
        ASSERT_EQ(int(seen[i]), 1) << "tag " << i;
    EXPECT_EQ(q.size(), 0u);
}

TEST(Concurrency, TracerSpanIdsStayUniqueAcrossThreads)
{
    // N producer threads hammer one shared tracer, each through its
    // own ring (the single-producer contract): the atomic ID counter
    // must hand out globally unique span IDs, every ring must retain
    // its own pushes in order, and nothing may be lost below the
    // ring capacity.
    constexpr int kThreads = 8;
    constexpr int kSpans = 4000;
    obs::SpanTracer tracer(kSpans); // capacity >= pushes: no drops
    tracer.setEnabled(true);

    std::vector<obs::SpanRing *> rings;
    for (int t = 0; t < kThreads; t++)
        rings.push_back(tracer.ring("thread" + std::to_string(t)));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kSpans; i++) {
                obs::SpanRecord r;
                r.name = "tick";
                r.cat = "stress";
                r.traceId = tracer.newTraceId();
                r.spanId = tracer.newSpanId();
                r.beginUs = uint64_t(i);
                r.endUs = uint64_t(i) + 1;
                rings[t]->push(r);
            }
        });
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(tracer.totalRecorded(), uint64_t(kThreads) * kSpans);
    EXPECT_EQ(tracer.totalDropped(), 0u);
    std::set<uint64_t> ids;
    for (const auto &[source, records] : tracer.snapshotAll()) {
        ASSERT_EQ(records.size(), size_t(kSpans)) << source;
        for (size_t i = 0; i < records.size(); i++) {
            // Per-ring ordering: this producer's own push order.
            EXPECT_EQ(records[i].beginUs, uint64_t(i)) << source;
            ids.insert(records[i].spanId);
            ids.insert(records[i].traceId);
        }
    }
    // Trace and span IDs share one counter space: all distinct.
    EXPECT_EQ(ids.size(), size_t(2) * kThreads * kSpans);
}

TEST(Concurrency, ManySubmittersOneService)
{
    // Several threads hammer a running 2-worker service with mixed
    // sign/derive traffic (round-robin puts every submitter on both
    // queues); every request must complete with the deterministic
    // expected result.
    EccService svc([] {
        ServiceConfig cfg;
        cfg.workers = 2;
        cfg.queueCapacity = 8; // small: exercises backpressure spins
        cfg.rngSeed = 5;
        return cfg;
    }());
    svc.start();

    const GlvCurve &c = secp160k1Curve();
    Ecdsa golden(c);
    Rng rng(55);
    const BigUInt d = BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    const BigUInt k = BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    auto expect_sig = golden.signWithNonce("stress", d, k);
    ASSERT_TRUE(expect_sig.has_value());
    AffinePoint peer = c.mulNaf(k, c.generator());
    AffinePoint expect_pt = c.mulNaf(d, peer);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 12;
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++)
        threads.emplace_back([&] {
            for (int i = 0; i < kPerThread; i++) {
                ServiceRequest r;
                if (i % 2 == 0) {
                    r.op = ServiceOp::Sign;
                    r.curve = ServiceCurve::Secp160k1;
                    r.message = "stress";
                    r.privateKey = d;
                    r.nonce = k;
                } else {
                    r.op = ServiceOp::Derive;
                    r.curve = ServiceCurve::Secp160k1;
                    r.privateKey = d;
                    r.peer = peer;
                }
                if (!svc.submit(&r)) {
                    bad.fetch_add(1);
                    continue;
                }
                EccService::wait(r);
                bool ok = r.status == ServiceStatus::Ok;
                if (ok && i % 2 == 0)
                    ok = r.sigOut.r == expect_sig->r &&
                         r.sigOut.s == expect_sig->s;
                if (ok && i % 2 == 1)
                    ok = r.pointOut.x == expect_pt.x &&
                         r.pointOut.y == expect_pt.y;
                if (!ok)
                    bad.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();
    svc.stop();

    EXPECT_EQ(bad.load(), 0);
    EXPECT_EQ(svc.opsProcessed(), uint64_t(kThreads * kPerThread));
}

TEST(Concurrency, StopNeverStrandsAnAcceptedRequest)
{
    // stop() races three submitters, round after round: every request
    // submit() accepted must have run by the time stop() returns. Each
    // submitter waits for its request before the next, so the worker
    // keeps finding its queue empty, and stop() lands at a random
    // point of a submit. The requests carry key 0, which the worker
    // rejects at once.
    constexpr int kRounds = 1000;
    constexpr int kSubmitters = 3;
    constexpr size_t kPool = 2048;
    std::vector<std::vector<ServiceRequest>> pools;
    for (int t = 0; t < kSubmitters; t++) {
        pools.emplace_back(kPool);
        for (ServiceRequest &r : pools.back())
            r.message = "race";
    }

    uint64_t accepted = 0, stranded = 0;
    for (int round = 0; round < kRounds; round++) {
        EccService svc([] {
            ServiceConfig cfg;
            cfg.workers = 1;
            cfg.amortize = false;
            return cfg;
        }());
        svc.start();
        std::atomic<int> ready{0};
        // Ends the wait for a request the service did not run.
        std::atomic<bool> stopped{false};
        std::vector<size_t> taken(kSubmitters, 0);
        std::vector<std::thread> threads;
        for (int t = 0; t < kSubmitters; t++)
            threads.emplace_back([&, t] {
                ready.fetch_add(1);
                size_t i = 0;
                while (i < kPool && svc.submit(&pools[t][i])) {
                    while (!pools[t][i].done.load() && !stopped.load())
                        std::this_thread::yield();
                    i++;
                }
                taken[t] = i;
            });
        while (ready.load() < kSubmitters)
            std::this_thread::yield();
        // Stop after 0–39 µs of submitting.
        auto until = std::chrono::steady_clock::now() +
                     std::chrono::microseconds(round % 40);
        while (std::chrono::steady_clock::now() < until) {
        }
        svc.stop();
        stopped.store(true);
        for (auto &th : threads)
            th.join();

        uint64_t roundAccepted = 0;
        for (int t = 0; t < kSubmitters; t++) {
            roundAccepted += taken[t];
            for (size_t i = 0; i < taken[t]; i++)
                if (!pools[t][i].done.load(std::memory_order_acquire))
                    stranded++;
        }
        accepted += roundAccepted;
        EXPECT_EQ(svc.opsProcessed(), roundAccepted) << "round " << round;
    }
    EXPECT_EQ(stranded, 0u) << "of " << accepted << " accepted requests";
    EXPECT_GT(accepted, 0u);
}
