/**
 * @file
 * Fault-injection campaign over the hardened scalar-multiplication
 * stack (DESIGN.md, "Fault model & hardening"). Two sweeps:
 *
 *  Sweep A (ISS): an x-only Montgomery-ladder scalar multiplication
 *  over the paper's OPF curve runs step by step on the simulated
 *  AVR core (every field operation executes the generated assembly
 *  in ISE mode). Each trial arms one seeded FaultPlan — GPR / SREG /
 *  SRAM / MAC-accumulator bit flips, instruction skips, opcode
 *  corruption — at a random cycle inside the first ladder pass, then
 *  the detectors run: ISS traps, time redundancy (a second ladder
 *  pass; the injector is one-shot), and x-coordinate validation.
 *
 *  Sweep B (curve layer): data faults on the scalar/point images
 *  around the hardened multiplications of all four curve families
 *  (Weierstrass, GLV, twisted Edwards, Montgomery). Inputs are held
 *  as duplicated images; one bit of one image, of the working copy,
 *  or of the output is flipped, and the countermeasure chain
 *  (image compare, input validation + algorithm-diverse recompute
 *  inside hardenedMul*, output revalidation, cross-check against a
 *  recompute from the clean image) classifies the outcome.
 *
 * Every trial is classified as detected (by which detector),
 * corrected (fault fired but the result is still right), or silent
 * (all checks passed, result wrong — the metric this bench tracks).
 * Counts go to BENCH_fault.json as JSON lines.
 *
 * Flags: --smoke (CI-sized trial counts), --seed <n>.
 */

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "avr/fault.hh"
#include "avrgen/opf_harness.hh"
#include "bench/bench_util.hh"
#include "curves/small_curves.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/random.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

constexpr const char *kJsonPath = "BENCH_fault.json";
constexpr const char *kMetricsPath = "METRICS_fault.json";

/** Campaign-wide detector telemetry, snapshotted at exit. */
MetricsRegistry &
metrics()
{
    static MetricsRegistry reg;
    return reg;
}

// --- Outcome bookkeeping --------------------------------------------

enum class Outcome
{
    DetectedTrap,       ///< an ISS trap surfaced the fault
    DetectedRedundancy, ///< redundant recomputation mismatched
    DetectedValidation, ///< input/output validation rejected
    DetectedDuplication,///< duplicated input images disagreed
    DetectedCrossCheck, ///< cross-check vs clean-image recompute
    Corrected,          ///< fault fired, result still correct
    Silent,             ///< all checks passed, result wrong
};

struct Tally
{
    uint64_t trials = 0;
    uint64_t trap = 0, redundancy = 0, validation = 0;
    uint64_t duplication = 0, crosscheck = 0;
    uint64_t corrected = 0, silent = 0;

    void
    add(Outcome o)
    {
        trials++;
        switch (o) {
          case Outcome::DetectedTrap:        trap++; break;
          case Outcome::DetectedRedundancy:  redundancy++; break;
          case Outcome::DetectedValidation:  validation++; break;
          case Outcome::DetectedDuplication: duplication++; break;
          case Outcome::DetectedCrossCheck:  crosscheck++; break;
          case Outcome::Corrected:           corrected++; break;
          case Outcome::Silent:              silent++; break;
        }
    }

    uint64_t
    detected() const
    {
        return trap + redundancy + validation + duplication + crosscheck;
    }

    double
    silentRate() const
    {
        return trials ? double(silent) / double(trials) : 0.0;
    }
};

void
report(const std::string &sweep, const std::string &family,
       const std::string &plan, const Tally &t, uint64_t seed)
{
    std::printf("  %-10s %-16s %-16s trials %5llu  detected %5llu "
                "(trap %llu, redo %llu, valid %llu, dup %llu, cross "
                "%llu)  corrected %llu  silent %llu (%.2f%%)\n",
                sweep.c_str(), family.c_str(), plan.c_str(),
                (unsigned long long)t.trials,
                (unsigned long long)t.detected(),
                (unsigned long long)t.trap,
                (unsigned long long)t.redundancy,
                (unsigned long long)t.validation,
                (unsigned long long)t.duplication,
                (unsigned long long)t.crosscheck,
                (unsigned long long)t.corrected,
                (unsigned long long)t.silent, 100.0 * t.silentRate());
    // Detector telemetry: one labeled counter per outcome class, so
    // the snapshot mirrors the JSON tallies but in registry form.
    MetricLabels where = {{"sweep", sweep},
                          {"family", family},
                          {"plan", plan}};
    metrics().counter("fault_trials", where).inc(t.trials);
    const std::pair<const char *, uint64_t> dets[] = {
        {"trap", t.trap},           {"redundancy", t.redundancy},
        {"validation", t.validation}, {"duplication", t.duplication},
        {"crosscheck", t.crosscheck},
    };
    for (const auto &[det, n] : dets) {
        MetricLabels l = where;
        l.emplace_back("detector", det);
        metrics().counter("fault_detected", l).inc(n);
    }
    metrics().counter("fault_corrected", where).inc(t.corrected);
    metrics().counter("fault_silent", where).inc(t.silent);

    JsonLine line = benchLine("fault_campaign");
    line.str("sweep", sweep)
        .str("family", family)
        .str("plan", plan)
        .num("seed", seed)
        .num("trials", t.trials)
        .num("detected", t.detected())
        .num("detected_trap", t.trap)
        .num("detected_redundancy", t.redundancy)
        .num("detected_validation", t.validation)
        .num("detected_duplication", t.duplication)
        .num("detected_crosscheck", t.crosscheck)
        .num("corrected", t.corrected)
        .num("silent", t.silent)
        .num("silent_rate", t.silentRate());
    appendJsonLine(kJsonPath, line);
}

// --- Sweep A: ISS ladder --------------------------------------------

/** Result of one ISS ladder pass. */
struct IssPass
{
    Trap trap;          ///< first trap raised by any field routine
    bool infinity = false;
    BigUInt x;          ///< canonical affine x when finite and clean
};

/**
 * One x-only Montgomery-ladder pass for @p k (kbits bits, MSB first)
 * on x1: OpfAvrLibrary::ladder runs every field operation on the ISS,
 * then the canonical Z is inverted and multiplied in on the ISS too.
 */
IssPass
issLadderPass(OpfAvrLibrary &lib, const OpfField &fm,
              const MontgomeryCurve &mc, uint32_t k, unsigned kbits,
              const BigUInt &x1)
{
    IssPass out;
    auto x1m = fm.toMont(x1);
    auto one = fm.toMont(BigUInt(1));
    OpfLadderRun lr =
        lib.ladder(fm.toMont(BigUInt(mc.a24())), x1m, BigUInt(k), kbits,
                   {one, OpfField::Words(fm.words(), 0), x1m, one});
    if (lr.trap) {
        out.trap = lr.trap;
        return out;
    }

    BigUInt zc = fm.canonical(lr.state.z2);
    if (zc.isZero()) {
        out.infinity = true;
        return out;
    }
    // inv(Z R) = Z^-1; montMul(X R, Z^-1) = X/Z in plain domain.
    OpfRun ir = lib.inv(fm.fromBig(zc));
    if (ir.trap) {
        out.trap = ir.trap;
        return out;
    }
    OpfRun xr = lib.mul(lr.state.x2, ir.result);
    if (xr.trap) {
        out.trap = xr.trap;
        return out;
    }
    out.x = fm.canonical(xr.result);
    return out;
}

/** Seeded random fault plan for sweep A. */
FaultPlan
randomPlan(Rng &rng, uint64_t window_cycles)
{
    static const FaultTarget kTargets[] = {
        FaultTarget::Gpr,    FaultTarget::Sreg,
        FaultTarget::Sram,   FaultTarget::MacAcc,
        FaultTarget::InstSkip, FaultTarget::OpcodeCorrupt,
    };
    FaultPlan plan;
    plan.target = kTargets[rng.below(6)];
    plan.triggerCycle = rng.below(window_cycles);
    plan.reg = static_cast<uint8_t>(plan.target == FaultTarget::MacAcc
                                        ? rng.below(9)
                                        : rng.below(32));
    // The OPF working set: q buffer, result, operands, inverse state.
    plan.sramAddr =
        static_cast<uint16_t>(0x01c0 + rng.below(0x0140));
    if (plan.target == FaultTarget::OpcodeCorrupt) {
        plan.mask = static_cast<uint16_t>(1u << rng.below(16));
        if (rng.below(2))
            plan.mask |= static_cast<uint16_t>(1u << rng.below(16));
    } else {
        plan.mask = static_cast<uint16_t>(1u << rng.below(8));
        if (rng.below(2))
            plan.mask |= static_cast<uint16_t>(1u << rng.below(8));
    }
    return plan;
}

void
sweepIss(unsigned trials, uint64_t seed)
{
    heading("Sweep A: ISS Montgomery-ladder scalar-mult injections");

    OpfPrime prime = paperOpfPrime();
    OpfField fm(prime);
    OpfAvrLibrary lib(prime, CpuMode::ISE);
    const MontgomeryCurve &mc = montgomeryOpfCurve();
    const BigUInt x1 = montgomeryOpfBasePoint().x;
    constexpr unsigned kBits = 16;

    Rng rng(seed);

    // Correctness gate + fault window: one clean pass must match the
    // host ladder, and its cycle span bounds the trigger offsets.
    uint32_t k0 = 1 + static_cast<uint32_t>(rng.below((1u << kBits) - 1));
    uint64_t c0 = lib.machine().stats().cycles;
    IssPass gate = issLadderPass(lib, fm, mc, k0, kBits, x1);
    uint64_t window = lib.machine().stats().cycles - c0;
    auto host = mc.ladder(BigUInt(k0), x1);
    if (gate.trap || gate.infinity || !host || gate.x != *host)
        panic("fault campaign: clean ISS ladder disagrees with host");
    note(csprintf("clean ladder pass: %llu cycles, %u-bit scalar",
                  (unsigned long long)window, kBits));

    FaultInjector inj;
    lib.machine().attach(&inj);

    Tally per_target[6];
    Tally all;
    unsigned not_fired = 0;
    for (unsigned t = 0; t < trials; t++) {
        uint32_t k =
            1 + static_cast<uint32_t>(rng.below((1u << kBits) - 1));
        auto host_x = mc.ladder(BigUInt(k), x1);

        FaultPlan plan = randomPlan(rng, window);
        lib.machine().reset();
        inj.arm(plan, lib.machine().stats().cycles);

        IssPass first = issLadderPass(lib, fm, mc, k, kBits, x1);
        bool fired = inj.fired();
        // Time redundancy: the injector is one-shot, so the second
        // pass is clean — unless the plan corrupted flash, which is
        // a persistent fault by design.
        IssPass second = issLadderPass(lib, fm, mc, k, kBits, x1);

        Outcome o;
        if (first.trap || second.trap) {
            o = Outcome::DetectedTrap;
        } else if (first.infinity != second.infinity ||
                   (!first.infinity && first.x != second.x)) {
            o = Outcome::DetectedRedundancy;
        } else if (first.infinity ? host_x.has_value()
                                  : !validateX(mc, first.x)) {
            o = Outcome::DetectedValidation;
        } else if (!first.infinity && host_x && first.x == *host_x) {
            o = Outcome::Corrected;
        } else {
            o = Outcome::Silent;
        }

        if (plan.target == FaultTarget::OpcodeCorrupt)
            inj.revertFlash(lib.machine());
        if (!fired) {
            inj.disarm();
            not_fired++;
            continue;
        }
        per_target[static_cast<unsigned>(plan.target)].add(o);
        all.add(o);
    }
    lib.machine().detach(&inj);

    for (unsigned i = 0; i < 6; i++)
        report("iss", "montgomery-opf160",
               faultTargetName(static_cast<FaultTarget>(i)),
               per_target[i], seed);
    report("iss", "montgomery-opf160", "all", all, seed);
    if (not_fired)
        note(csprintf("%u plans did not fire (trap cut the pass "
                      "short before the trigger); excluded",
                      not_fired));
}

// --- Sweep B: curve-layer image faults ------------------------------

BigUInt
flipBit(const BigUInt &v, unsigned i)
{
    return v.bit(i) ? v - BigUInt::powerOfTwo(i)
                    : v + BigUInt::powerOfTwo(i);
}

bool
samePoint(const AffinePoint &a, const AffinePoint &b)
{
    if (a.inf != b.inf)
        return false;
    return a.inf || (a.x == b.x && a.y == b.y);
}

/** Duplicated input images of one scalar multiplication. */
struct Images
{
    BigUInt k;
    AffinePoint p;
};

/**
 * Sweep-B driver for the full-point families. @p hardened runs the
 * hardened multiplication, @p plain the cross-check/golden
 * recompute, @p revalidate the consumer-side output check.
 */
template <typename HardenedFn, typename PlainFn, typename RevalFn>
Tally
sweepCurveFamily(unsigned trials, Rng &rng,
                 const BigUInt &n, const AffinePoint &base,
                 unsigned coord_bits, HardenedFn hardened, PlainFn plain,
                 RevalFn revalidate)
{
    Tally tally;
    for (unsigned t = 0; t < trials; t++) {
        BigUInt k = BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
        AffinePoint golden = plain(k, base);

        Images img_a{k, base}, img_b{k, base};
        unsigned site = static_cast<unsigned>(rng.below(8));
        unsigned kbit = static_cast<unsigned>(rng.below(n.bitLength()));
        unsigned cbit = static_cast<unsigned>(rng.below(coord_bits));

        Images work = img_a;
        AffinePoint out;
        bool flip_out_x = site == 6, flip_out_y = site == 7;
        switch (site) {
          case 0: img_a.k = flipBit(img_a.k, kbit); break;
          case 1: img_a.p.x = flipBit(img_a.p.x, cbit); break;
          case 2: img_a.p.y = flipBit(img_a.p.y, cbit); break;
          case 3: work.k = flipBit(work.k, kbit); break;
          case 4: work.p.x = flipBit(work.p.x, cbit); break;
          case 5: work.p.y = flipBit(work.p.y, cbit); break;
          default: break; // output sites, applied after the multiply
        }

        // Detector chain, in system order: a corrupted image never
        // reaches the multiply, so sites 0-2 classify here.
        if (img_a.k != img_b.k || !samePoint(img_a.p, img_b.p)) {
            tally.add(Outcome::DetectedDuplication);
            continue;
        }

        HardenedMul hm = hardened(work.k, work.p);
        if (!hm.ok) {
            tally.add(Outcome::DetectedValidation);
            continue;
        }
        out = hm.point;
        if (flip_out_x)
            out.x = flipBit(out.x, cbit);
        if (flip_out_y)
            out.y = flipBit(out.y, cbit);

        if (!revalidate(out)) {
            tally.add(Outcome::DetectedValidation);
            continue;
        }
        AffinePoint cross = plain(img_b.k, img_b.p);
        if (!samePoint(out, cross)) {
            tally.add(Outcome::DetectedCrossCheck);
            continue;
        }
        tally.add(samePoint(out, golden) ? Outcome::Corrected
                                         : Outcome::Silent);
    }
    return tally;
}

Tally
sweepMontgomeryFamily(unsigned trials, Rng &rng)
{
    const SmallCurvePair &pair = smallCurvePair();
    const MontgomeryCurve &c = pair.montgomery;
    unsigned bits = c.field().modulus().bitLength();
    Tally tally;
    for (unsigned t = 0; t < trials; t++) {
        BigUInt k =
            BigUInt(1) + BigUInt::random(rng, pair.n - BigUInt(1));
        auto golden = c.ladder(k, pair.montBase.x);

        BigUInt ka = k, kb = k, xa = pair.montBase.x,
                xb = pair.montBase.x;
        unsigned site = static_cast<unsigned>(rng.below(5));
        unsigned kbit =
            static_cast<unsigned>(rng.below(pair.n.bitLength()));
        unsigned cbit = static_cast<unsigned>(rng.below(bits));
        BigUInt wk = k, wx = pair.montBase.x;
        switch (site) {
          case 0: ka = flipBit(ka, kbit); break;
          case 1: xa = flipBit(xa, cbit); break;
          case 2: wk = flipBit(wk, kbit); break;
          case 3: wx = flipBit(wx, cbit); break;
          default: break; // output site
        }

        if (ka != kb || xa != xb) {
            tally.add(Outcome::DetectedDuplication);
            continue;
        }
        HardenedMul hm = hardenedMulMontgomery(c, wk, wx, pair.n);
        if (!hm.ok) {
            tally.add(Outcome::DetectedValidation);
            continue;
        }
        BigUInt out = *hm.x;
        if (site == 4)
            out = flipBit(out, cbit);

        if (!validateX(c, out)) {
            tally.add(Outcome::DetectedValidation);
            continue;
        }
        auto cross = c.ladder(kb, xb);
        if (!cross || out != *cross) {
            tally.add(Outcome::DetectedCrossCheck);
            continue;
        }
        tally.add(golden && out == *golden ? Outcome::Corrected
                                           : Outcome::Silent);
    }
    return tally;
}

void
sweepCurves(unsigned trials, uint64_t seed)
{
    heading("Sweep B: curve-layer data faults on hardened multiplies");

    Rng rng(seed ^ 0xb5eed);
    {
        const WeierstrassCurve &c = secp160r1Curve();
        const CurveGenerator &gen = secp160r1Generator();
        Tally t = sweepCurveFamily(
            trials, rng, gen.order, gen.g,
            c.field().modulus().bitLength(),
            [&](const BigUInt &k, const AffinePoint &p) {
                return hardenedMulWeierstrass(c, k, p, gen.order);
            },
            [&](const BigUInt &k, const AffinePoint &p) {
                return c.mulNaf(k, p);
            },
            [&](const AffinePoint &q) { return validatePoint(c, q); });
        report("curve", "weierstrass-secp160r1", "image_flip", t, seed);
    }
    {
        const GlvCurve &c = secp160k1Curve();
        Tally t = sweepCurveFamily(
            trials, rng, c.order(), c.generator(),
            c.field().modulus().bitLength(),
            [&](const BigUInt &k, const AffinePoint &p) {
                return hardenedMulGlv(c, k, p);
            },
            [&](const BigUInt &k, const AffinePoint &p) {
                return c.mulGlvJsf(k, p);
            },
            [&](const AffinePoint &q) { return validatePoint(c, q); });
        report("curve", "glv-secp160k1", "image_flip", t, seed);
    }
    {
        const SmallCurvePair &pair = smallCurvePair();
        const EdwardsCurve &c = pair.edwards;
        Tally t = sweepCurveFamily(
            trials, rng, pair.n, pair.edBase,
            c.field().modulus().bitLength(),
            [&](const BigUInt &k, const AffinePoint &p) {
                return hardenedMulEdwards(c, k, p, pair.n);
            },
            [&](const BigUInt &k, const AffinePoint &p) {
                return c.mulNaf(k, p);
            },
            [&](const AffinePoint &q) { return validatePoint(c, q); });
        report("curve", "edwards-small", "image_flip", t, seed);
    }
    {
        Tally t = sweepMontgomeryFamily(trials, rng);
        report("curve", "montgomery-small", "image_flip", t, seed);
    }
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    uint64_t seed = 20260806;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 0);
        else
            fatal("unknown argument: %s", argv[i]);
    }

    unsigned trials_a = smoke ? 30 : 1000;
    unsigned trials_b = smoke ? 40 : 1000;

    heading("Fault-injection campaign");
    note(csprintf("seed %llu, %u ISS trials, %u trials per curve "
                  "family%s",
                  (unsigned long long)seed, trials_a, trials_b,
                  smoke ? " (smoke)" : ""));

    sweepIss(trials_a, seed);
    sweepCurves(trials_b, seed);

    JsonLine meta = benchLine("fault_campaign");
    meta.str("sweep", "meta")
        .num("seed", seed)
        .num("aborts", uint64_t(0))
        .str("mode", smoke ? "smoke" : "full");
    appendJsonLine(kJsonPath, meta);
    metrics().writeJsonLines(kMetricsPath, benchLine("fault_campaign"));
    note(std::string("JSON appended to ") + kJsonPath);
    note(std::string("metrics snapshot appended to ") + kMetricsPath);
    return 0;
}
