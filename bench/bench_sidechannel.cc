/**
 * @file
 * First-order CPA attack harness over the synthesized leakage traces
 * (src/avr/leakage.hh; DESIGN.md, "Leakage observability"). Three
 * attacks, all against the generated assembly running on the ISS in
 * ISE mode with the LeakTracer armed:
 *
 *  1. cpa_ladder / plain: an x-only Montgomery-ladder scalar
 *     multiplication over the paper's OPF curve leaks one trace per
 *     random base point, with a fixed secret scalar. The attacker
 *     recovers the scalar nibble by nibble: for each 4-bit prefix
 *     extension hypothesis the host OpfField model predicts the
 *     Hamming weight of every byte of the ladder's Z2 value after
 *     each of the nibble's four steps, and Pearson correlation
 *     against the matching step windows (markers slice the windows;
 *     the routines are fixed-length, so alignment is exact) picks the
 *     hypothesis. Each nibble attack assumes the *true* preceding
 *     prefix (standard known-prefix evaluation — scores per-position
 *     distinguishability without compounding earlier errors).
 *
 *  2. cpa_ladder / hardened: the same traces but with Coron's
 *     randomized projective coordinates (the blinding that
 *     hardenedMulMontgomery draws per pass): the start state is
 *     (lambda : 0), (mu x1 : mu) for fresh nonzero lambda, mu. The
 *     intermediate Z2 values decorrelate from the unblinded
 *     prediction, so the same attack at the same trace budget must
 *     fail — the acceptance criterion this bench pins.
 *
 *  3. cpa_mul: the ISE Montgomery multiplication itself. The b
 *     operand (nibble-fed into the MAC through the ldd-r24 triggers)
 *     is the fixed secret; a is known and random per trace. After the
 *     trigger for byte t of b[0], the MAC accumulator holds
 *     a[0] * (b[0] mod 2^(8(t+1))), and its Hamming weight is priced
 *     into the trace sample, so a 256-hypothesis CPA per byte (at the
 *     trigger sample located by a known-operand profiling phase)
 *     reads b[0] out of the multiplier's prologue.
 *
 * Every attack reports recovered digits, the normalized score margin
 * of the true hypothesis over the best wrong one, and the winning
 * correlation, as JSON rows in BENCH_sidechannel.json (gated against
 * bench/baselines.json by jaavr-report; the "profile" field keeps
 * --smoke rows from matching the full-run baselines).
 *
 * Flags: --smoke (CI-sized: fewer traces, shorter scalar),
 *        --traces <n>, --kbits <n> (multiple of 4),
 *        --dump-prefix <path> (write the first plain trace as
 *        .npy/.csv plus marker metadata for offline tooling).
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "avr/leakage.hh"
#include "avrgen/opf_harness.hh"
#include "bench/bench_util.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

constexpr const char *kJsonPath = "BENCH_sidechannel.json";

using W = OpfField::Words;

/**
 * Host-model ladder for the scalar prefix @p bits (bit nbits-1
 * processed first): returns Z2 after *every* step — the exact word
 * values the ISS produces, since the traces come from the same
 * montLadder over the generated routines, which are validated
 * word-for-word against OpfField. Each snapshot is taken before the
 * next step's conditional swap: the attacked window is the Z2 store
 * inside the step, before the host-side renaming.
 *
 * The attack needs all the per-step snapshots because one step alone
 * cannot pin the last prefix bit: a step computes the doubling of the
 * selected point, so prefixes V and V-1 (V even) predict the same
 * final Z2 ([2(floor(V/2) + (V&1))]P in both cases) and tie exactly.
 * The earlier steps of the nibble break the tie — the impostor's
 * shorter prefixes diverge there.
 */
std::vector<W>
hostLadderZ2Steps(const OpfField &fm, const W &a24m, const W &one,
                  const W &x1m, uint64_t bits, unsigned nbits)
{
    std::vector<W> snaps;
    snaps.reserve(nbits);
    montLadder(OpfFieldOps{fm, a24m}, x1m,
               LadderState<W>{one, W(fm.words(), 0), x1m, one},
               BigUInt(bits), nbits,
               [&](unsigned i, const LadderState<W> &s) {
                   if (i > 0)
                       snaps.push_back(s.z2);
                   return true;
               });
    return snaps;
}

/** One target's captured trace set. */
struct LadderSet
{
    std::vector<std::vector<float>> traces;
    std::vector<W> x1m;            ///< per-trace Montgomery-domain base
    std::vector<size_t> stepStart; ///< kbits+1 step-boundary sample idx
};

/**
 * Run @p ntraces ladder executions of the fixed secret @p k on the
 * ISS with the LeakTracer armed, each on a fresh random valid base
 * point. @p blind switches on Coron's randomized projective start.
 * Markers bound every ladder step; the routines are fixed-length so
 * the boundaries must agree across traces (checked — this is the
 * dynamic face of the jaavr-ctcheck constant-time proof).
 */
LadderSet
collectLadder(OpfAvrLibrary &lib, const OpfField &fm,
              const MontgomeryCurve &mc, uint64_t k, unsigned kbits,
              unsigned ntraces, bool blind, uint64_t seed,
              const std::string &dumpPrefix)
{
    const PrimeField &f = mc.field();
    Rng rng(seed);
    LeakTracer tracer;
    lib.machine().attach(&tracer);

    W a24m = fm.toMont(BigUInt(mc.a24()));
    W one = fm.toMont(BigUInt(1));
    auto mark = [&](unsigned i, const LadderState<W> &) {
        tracer.mark(i < kbits ? csprintf("step%u", i) : "final");
        return true;
    };

    LadderSet set;
    for (unsigned t = 0; t < ntraces; t++) {
        BigUInt x1;
        do
            x1 = f.random(rng);
        while (!validateX(mc, x1));
        W x1m = fm.toMont(x1);

        LadderState<W> start{one, W(fm.words(), 0), x1m, one};
        if (blind) {
            // Coron randomized projective coordinates: the neutral
            // element scales to (lambda : 0), the base to
            // (mu x1 : mu); the blinds cancel in the final X/Z.
            BigUInt lam, mu;
            do
                lam = f.random(rng);
            while (lam.isZero());
            do
                mu = f.random(rng);
            while (mu.isZero());
            W mum = fm.toMont(mu);
            start.x2 = fm.toMont(lam);
            start.x3 = fm.montMul(x1m, mum);
            start.z3 = mum;
        }

        tracer.begin(lib.machine(),
                     seed ^ (0x9e3779b97f4a7c15ULL * (t + 1)));
        OpfLadderRun lr =
            lib.ladder(a24m, x1m, BigUInt(k), kbits, start, mark);
        tracer.end();
        if (lr.trap)
            panic("sidechannel: ISS trap during trace collection");

        // The blind must cancel: X2/Z2 equals the host ladder result.
        BigUInt zc = fm.canonical(lr.state.z2);
        auto host = mc.ladder(BigUInt(k), x1);
        if (zc.isZero() || !host)
            panic("sidechannel: unexpected ladder infinity");
        if (f.mul(fm.canonical(lr.state.x2), f.inv(zc)) != *host)
            panic("sidechannel: traced ladder disagrees with host");

        std::vector<size_t> bounds;
        for (const auto &[label, idx] : tracer.markers())
            bounds.push_back(idx);
        if (bounds.size() != size_t(kbits) + 1)
            panic("sidechannel: marker count mismatch");
        if (t == 0)
            set.stepStart = bounds;
        else if (bounds != set.stepStart)
            panic("sidechannel: trace misalignment across executions");

        if (t == 0 && !dumpPrefix.empty()) {
            tracer.writeNpy(dumpPrefix + ".npy");
            tracer.writeCsv(dumpPrefix + ".csv");
            tracer.writeMeta(dumpPrefix + "_meta.json",
                             benchLine("sidechannel"));
        }

        set.traces.push_back(tracer.samples());
        set.x1m.push_back(std::move(x1m));
    }
    lib.machine().detach(&tracer);
    return set;
}

/** Result of one attack. */
struct Attack
{
    unsigned total = 0;     ///< attacked digits (nibbles)
    unsigned recovered = 0; ///< argmax hypothesis == true digit
    double margin = 0;      ///< mean normalized true-minus-best-wrong
    double corr = 0;        ///< mean normalized winning score
};

/**
 * Per-sample mean/sd over the trace set in [lo, hi); population
 * statistics, zero sd marks a constant column (skipped by the scan).
 */
void
columnStats(const std::vector<std::vector<float>> &traces, size_t lo,
            size_t hi, std::vector<double> &meanY,
            std::vector<double> &sdY)
{
    size_t n = traces.size();
    meanY.assign(hi, 0.0);
    sdY.assign(hi, 0.0);
    for (size_t s = lo; s < hi; s++) {
        double sum = 0, sq = 0;
        for (size_t t = 0; t < n; t++) {
            double v = traces[t][s];
            sum += v;
            sq += v * v;
        }
        double m = sum / double(n);
        double var = sq / double(n) - m * m;
        meanY[s] = m;
        sdY[s] = var > 0 ? std::sqrt(var) : 0.0;
    }
}

/** max |Pearson r| of predictor @p x against each sample column. */
double
maxAbsCorr(const std::vector<std::vector<float>> &traces,
           const std::vector<double> &x, size_t lo, size_t hi,
           const std::vector<double> &meanY,
           const std::vector<double> &sdY)
{
    size_t n = traces.size();
    double mx = 0, mxx = 0;
    for (double v : x) {
        mx += v;
        mxx += v * v;
    }
    mx /= double(n);
    double vx = mxx / double(n) - mx * mx;
    if (vx <= 1e-12)
        return 0.0;
    double sx = std::sqrt(vx);
    double best = 0;
    for (size_t s = lo; s < hi; s++) {
        if (sdY[s] <= 1e-12)
            continue;
        double sxy = 0;
        for (size_t t = 0; t < n; t++)
            sxy += x[t] * traces[t][s];
        double r = (sxy / double(n) - mx * meanY[s]) / (sx * sdY[s]);
        best = std::max(best, std::fabs(r));
    }
    return best;
}

/**
 * Known-prefix nibble-by-nibble CPA against a ladder trace set. A
 * nibble hypothesis is scored against all four of its steps: per
 * level, the window is the tail of the step (where the step's final
 * Z2 = E(BB + a24 E) product is stored back) and the contribution is
 * the sum over Z2's bytes of the best |r| in the window. Scoring
 * every level both pins the earlier prefix bits (breaking the exact
 * V/V-1 doubling tie of the final step — see hostLadderZ2Steps) and
 * quadruples the evidence per nibble.
 */
Attack
cpaLadder(const LadderSet &set, const OpfField &fm, const W &a24m,
          const W &one, uint64_t k, unsigned kbits)
{
    // Restricting the scan to each step's tail keeps the wrong-key
    // noise floor (max of |r| over the window under the null) low at
    // smoke-sized trace counts; 800 samples cover the final product.
    constexpr size_t kWindowTail = 800;
    size_t n = set.traces.size();
    size_t nb = fm.words() * 4;
    unsigned nibbles = kbits / 4;

    Attack out;
    out.total = nibbles;
    for (unsigned j = 0; j < nibbles; j++) {
        unsigned m = 4 * (j + 1); // hypothesis prefix length in bits
        size_t lo[4], hi[4];
        std::vector<double> meanY[4], sdY[4];
        for (unsigned l = 0; l < 4; l++) {
            unsigned step = 4 * j + l;
            hi[l] = set.stepStart[step + 1];
            lo[l] = set.stepStart[step];
            if (hi[l] - lo[l] > kWindowTail)
                lo[l] = hi[l] - kWindowTail;
            columnStats(set.traces, lo[l], hi[l], meanY[l], sdY[l]);
        }

        uint64_t top = k >> (kbits - m);
        unsigned trueNib = unsigned(top & 0xf);
        double score[16];
        std::vector<double> hw(n);
        for (unsigned h = 0; h < 16; h++) {
            uint64_t hyp = (top & ~uint64_t(0xf)) | h;
            std::vector<std::vector<W>> snap(n);
            for (size_t t = 0; t < n; t++)
                snap[t] = hostLadderZ2Steps(fm, a24m, one, set.x1m[t],
                                            hyp, m);
            double sc = 0;
            for (unsigned l = 0; l < 4; l++) {
                unsigned step = 4 * j + l;
                for (size_t b = 0; b < nb; b++) {
                    for (size_t t = 0; t < n; t++)
                        hw[t] = __builtin_popcount(
                            (snap[t][step][b / 4] >> (8 * (b % 4))) &
                            0xff);
                    sc += maxAbsCorr(set.traces, hw, lo[l], hi[l],
                                     meanY[l], sdY[l]);
                }
            }
            score[h] = sc;
        }

        unsigned best = 0;
        double bestWrong = -1;
        for (unsigned h = 0; h < 16; h++) {
            if (score[h] > score[best])
                best = h;
            if (h != trueNib && score[h] > bestWrong)
                bestWrong = score[h];
        }
        double norm = double(nb) * 4.0;
        if (best == trueNib)
            out.recovered++;
        out.margin += (score[trueNib] - bestWrong) / norm;
        out.corr += score[best] / norm;
        std::printf("    nibble %2u: guess 0x%x true 0x%x %s  "
                    "(score %.3f vs best wrong %.3f)\n",
                    j, best, trueNib, best == trueNib ? "ok " : "MISS",
                    score[best] / norm, bestWrong / norm);
    }
    out.margin /= double(nibbles);
    out.corr /= double(nibbles);
    return out;
}

/**
 * CPA against the ISE multiplier's b operand: byte t of b[0]
 * hypothesized from the MAC-accumulator Hamming weight after its
 * ldd-r24 trigger (acc = a[0] * (b[0] mod 2^(8(t+1))) at that
 * retirement).
 *
 * A profiling phase with known operand pairs first locates the exact
 * trigger sample of every byte (template-attack practice: the
 * attacker profiles a clone device; no secret material involved).
 * The attack then scores each hypothesis at that single sample,
 * which kills the multiple-comparison noise floor and the
 * "hypothesis 0 matches the previous trigger" alias. One ambiguity
 * is inherent and left standing: for the lowest byte the accumulator
 * is exactly a[0]*h, and popcount(x) == popcount(2x), so the
 * hypothesis shift-orbit {h * 2^k} ties structurally — the attack
 * targets 6 of the 8 nibbles with certainty.
 */
Attack
cpaMul(OpfAvrLibrary &lib, const OpfField &fm, unsigned ntraces,
       uint64_t seed)
{
    constexpr size_t kWindow = 64; // multiplication prologue
    constexpr unsigned kProfile = 16;
    Rng rng(seed);
    BigUInt bSecret = BigUInt::random(rng, fm.modulus());
    W bW = fm.fromBig(bSecret);

    LeakTracer tracer;
    lib.machine().attach(&tracer);
    auto capture = [&](const W &aW, const W &bOp, uint64_t nseed,
                       std::vector<std::vector<float>> &out) {
        tracer.begin(lib.machine(), nseed);
        OpfRun r = lib.mul(aW, bOp);
        tracer.end();
        if (r.trap)
            panic("sidechannel: ISS trap during mul collection");
        if (fm.canonical(r.result) !=
            fm.canonical(fm.montMul(aW, bOp)))
            panic("sidechannel: traced mul disagrees with host model");
        const std::vector<float> &s = tracer.samples();
        size_t keep = std::min(kWindow, s.size());
        out.emplace_back(s.begin(), s.begin() + keep);
    };

    // Predicted power of the byte-@p byte MAC-trigger retirement for
    // hypothesis @p h with the true lower bytes @p below: the sample
    // is wRegHd * HD(acc) + wMacHw * HW(acc) + wBusHw * HW(loaded
    // byte) plus hypothesis-independent terms (LeakModel defaults).
    auto predict = [](uint32_t va0, uint32_t below, unsigned h,
                      unsigned byte) {
        uint64_t prev = uint64_t(va0) * uint64_t(below);
        uint64_t cur =
            uint64_t(va0) *
            uint64_t(below | (uint32_t(h) << (8 * byte)));
        return double(__builtin_popcountll(prev ^ cur)) +
               0.5 * double(__builtin_popcountll(cur)) +
               double(__builtin_popcount(h));
    };

    std::vector<std::vector<float>> prof;
    std::vector<uint32_t> profA0, profB0;
    for (unsigned t = 0; t < kProfile; t++) {
        W aW = fm.fromBig(BigUInt::random(rng, fm.modulus()));
        W bP = fm.fromBig(BigUInt::random(rng, fm.modulus()));
        capture(aW, bP, seed ^ (0x94d049bb133111ebULL * (t + 1)),
                prof);
        profA0.push_back(aW[0]);
        profB0.push_back(bP[0]);
    }
    size_t wlen = prof[0].size();
    std::vector<double> meanP, sdP;
    columnStats(prof, 0, wlen, meanP, sdP);
    size_t trig[4];
    {
        std::vector<double> hw(kProfile);
        for (unsigned byte = 0; byte < 4; byte++) {
            uint32_t belowMask =
                byte ? ((1u << (8 * byte)) - 1) : 0u;
            for (unsigned t = 0; t < kProfile; t++)
                hw[t] = predict(profA0[t], profB0[t] & belowMask,
                                (profB0[t] >> (8 * byte)) & 0xff,
                                byte);
            double best = -1;
            trig[byte] = 0;
            for (size_t s = 0; s < wlen; s++) {
                double r = maxAbsCorr(prof, hw, s, s + 1, meanP, sdP);
                if (r > best) {
                    best = r;
                    trig[byte] = s;
                }
            }
            if (best < 0.9)
                panic("sidechannel: mul profiling failed to locate "
                      "the byte-%u MAC trigger (|r| = %.3f)",
                      byte, best);
        }
    }

    std::vector<std::vector<float>> traces;
    std::vector<uint32_t> a0;
    for (unsigned t = 0; t < ntraces; t++) {
        W aW = fm.fromBig(BigUInt::random(rng, fm.modulus()));
        capture(aW, bW, seed ^ (0xbf58476d1ce4e5b9ULL * (t + 1)),
                traces);
        a0.push_back(aW[0]);
    }
    lib.machine().detach(&tracer);

    size_t n = traces.size();
    std::vector<double> meanY, sdY;
    columnStats(traces, 0, wlen, meanY, sdY);

    Attack out;
    out.total = 8; // two nibbles per recovered byte of b[0]
    std::vector<double> hw(n);
    for (unsigned byte = 0; byte < 4; byte++) {
        uint32_t below = bW[0] & ((byte ? (1u << (8 * byte)) : 1u) - 1);
        unsigned trueByte = (bW[0] >> (8 * byte)) & 0xff;
        double score[256];
        for (unsigned h = 0; h < 256; h++) {
            for (size_t t = 0; t < n; t++)
                hw[t] = predict(a0[t], below, h, byte);
            score[h] = maxAbsCorr(traces, hw, trig[byte],
                                  trig[byte] + 1, meanY, sdY);
        }
        unsigned best = 0;
        double bestWrong = -1;
        for (unsigned h = 0; h < 256; h++) {
            if (score[h] > score[best])
                best = h;
            if (h != trueByte && score[h] > bestWrong)
                bestWrong = score[h];
        }
        if (best == trueByte)
            out.recovered += 2;
        out.margin += score[trueByte] - bestWrong;
        out.corr += score[best];
        std::printf("    b[0] byte %u: guess 0x%02x true 0x%02x %s  "
                    "(|r| %.3f vs best wrong %.3f, trigger sample "
                    "%zu)\n",
                    byte, best, trueByte,
                    best == trueByte ? "ok " : "MISS", score[best],
                    bestWrong, trig[byte]);
    }
    out.margin /= 4.0;
    out.corr /= 4.0;
    return out;
}

void
emit(const std::string &attack, const std::string &target,
     const std::string &profile, unsigned traces, unsigned kbits,
     const Attack &a)
{
    note(csprintf("%-10s %-9s recovered %2u/%2u nibbles, margin %+.3f, "
                  "best corr %.3f  (%u traces)",
                  attack.c_str(), target.c_str(), a.recovered, a.total,
                  a.margin, a.corr, traces));
    JsonLine line = benchLine("sidechannel");
    line.str("attack", attack)
        .str("target", target)
        .str("profile", profile)
        .num("traces", uint64_t(traces))
        .num("kbits", uint64_t(kbits))
        .num("total_nibbles", uint64_t(a.total))
        .num("recovered_nibbles", uint64_t(a.recovered))
        // Derived gate metric for hardened targets: the report gate
        // cannot pin "stays at zero" directly (a zero baseline never
        // regresses), so countermeasure rows pin the complement as a
        // higher-is-better throughput-style metric instead.
        .num("unrecovered_nibbles", uint64_t(a.total - a.recovered))
        .num("margin", a.margin)
        .num("max_correlation", a.corr);
    appendJsonLine(kJsonPath, line);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    unsigned traces = 0, kbits = 0;
    std::string dumpPrefix;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--smoke")) {
            smoke = true;
        } else if (!std::strcmp(argv[i], "--traces") && i + 1 < argc) {
            traces = unsigned(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--kbits") && i + 1 < argc) {
            kbits = unsigned(std::atoi(argv[++i]));
        } else if (!std::strcmp(argv[i], "--dump-prefix") &&
                   i + 1 < argc) {
            dumpPrefix = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--traces n] [--kbits n] "
                         "[--dump-prefix path]\n",
                         argv[0]);
            return 2;
        }
    }
    if (!traces)
        traces = smoke ? 12 : 32;
    if (!kbits)
        kbits = smoke ? 24 : 40;
    if (kbits < 8 || kbits > 64 || kbits % 4)
        fatal("--kbits must be a multiple of 4 in [8, 64]");
    const std::string profile = smoke ? "smoke" : "full";

    heading(csprintf("side-channel CPA harness: OPF Montgomery ladder "
                     "on the ISS (ISE mode, %u traces, %u-bit scalar, "
                     "%s profile)",
                     traces, kbits, profile.c_str()));

    OpfPrime prime = paperOpfPrime();
    OpfField fm(prime);
    OpfAvrLibrary lib(prime, CpuMode::ISE);
    const MontgomeryCurve &mc = montgomeryOpfCurve();
    W a24m = fm.toMont(BigUInt(mc.a24()));
    W one = fm.toMont(BigUInt(1));

    // Fixed secret scalar, top bit set so every trace runs kbits full
    // ladder steps.
    Rng krng(0x5ca1ab1e0ddba11ULL);
    uint64_t k = (uint64_t(1) << (kbits - 1)) |
                 krng.below(uint64_t(1) << (kbits - 1));

    note("collecting plain-ladder traces...");
    LadderSet plain = collectLadder(lib, fm, mc, k, kbits, traces,
                                    false, 0x101, dumpPrefix);
    note(csprintf("  %u traces x %zu samples", traces,
                  plain.traces[0].size()));
    note("attacking plain ladder:");
    Attack plainA = cpaLadder(plain, fm, a24m, one, k, kbits);
    plain = LadderSet(); // free before the next capture

    note("collecting hardened-ladder traces (randomized projective "
         "coordinates)...");
    LadderSet hard = collectLadder(lib, fm, mc, k, kbits, traces, true,
                                   0x202, "");
    note("attacking hardened ladder (same attack, same budget):");
    Attack hardA = cpaLadder(hard, fm, a24m, one, k, kbits);
    hard = LadderSet();

    note("attacking ISE Montgomery multiplication (secret b operand):");
    Attack mulA = cpaMul(lib, fm, traces, 0x303);

    separator();
    emit("cpa_ladder", "plain", profile, traces, kbits, plainA);
    emit("cpa_ladder", "hardened", profile, traces, kbits, hardA);
    emit("cpa_mul", "opf_mul_ise", profile, traces, kbits, mulA);

    // Self-checks: the leakage model must be attackable, and the
    // countermeasure must defeat the identical attack at the same
    // trace budget (ISSUE acceptance criteria; jaavr-report pins the
    // full-profile numbers against bench/baselines.json).
    unsigned needPlain = smoke ? 5 : 8;
    if (plainA.recovered < needPlain)
        panic("sidechannel: CPA recovered %u/%u nibbles from the "
              "plain ladder (need >= %u) — leakage model regressed",
              plainA.recovered, plainA.total, needPlain);
    if (hardA.recovered > 3)
        panic("sidechannel: CPA recovered %u/%u nibbles from the "
              "hardened ladder — blinding is not randomizing the "
              "ladder state",
              hardA.recovered, hardA.total);
    if (mulA.recovered < 6)
        panic("sidechannel: CPA recovered %u/8 nibbles of the mul "
              "operand (need >= 6)",
              mulA.recovered);

    note("side-channel harness: all self-checks passed");
    std::printf("\nJSON rows appended to %s\n", kJsonPath);
    return 0;
}
