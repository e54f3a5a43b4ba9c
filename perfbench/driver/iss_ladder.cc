/**
 * @file
 * Workload iss_ladder: the paper's Table II measurement. One op is a
 * 160-bit x-only Montgomery-ladder k·P on the OPF Montgomery curve,
 * computed once in each CPU mode (CA, FAST, ISE) through the
 * generated OpfAvrLibrary routines on the ISS: 160 fixed ladder steps
 * of add/sub/mul calls, then one inversion and the final
 * multiplication. Closed loop, one thread. The AVR simulator and the
 * routine harness do the timed work; the host field, curve and
 * service code do none.
 */

#include <array>
#include <cmath>
#include <cstdio>
#include <memory>

#include "avrgen/opf_harness.hh"
#include "avrgen/opf_routines.hh"
#include "curves/montgomery.hh"
#include "curves/standard_curves.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"

#include "common.hh"

namespace perfbench
{

namespace
{

using namespace jaavr;
using W = OpfField::Words;

/**
 * Ops per second of the unmodified code (a k·P in each mode; 10.7 to
 * 11.9 on a 4-core x86-64 VM). Sizes the fixed op count from
 * --seconds; never measured at run time, so the op sequence is the
 * same on every build.
 */
constexpr double kNominalOpsPerS = 11.0;
constexpr unsigned kLadderBits = 160;
constexpr uint64_t kStreamInputs = 1;
constexpr uint64_t kStreamProbe = 2;
/** Stack top OpfAvrLibrary sets before every routine call. */
constexpr uint16_t kHarnessStackTop = 0x10ff;

constexpr size_t kModes = 3;
constexpr std::array<CpuMode, kModes> kModeOf = {CpuMode::CA, CpuMode::FAST,
                                                 CpuMode::ISE};
constexpr std::array<const char *, kModes> kModeName = {"ca", "fast", "ise"};

enum Routine : unsigned { kAdd, kSub, kMul, kInv, kRoutines };
constexpr std::array<const char *, kRoutines> kRoutineName = {"add", "sub",
                                                              "mul", "inv"};
constexpr std::array<const char *, kRoutines> kRoutineSymbol = {
    "opf_add", "opf_sub", "opf_mul", "opf_inv"};

// Paper Table II and the repository's hybrid model, kcycles per k·P
// in CA / FAST / ISE.
constexpr std::array<double, kModes> kPaperKcycles = {5545, 4165, 1300};
constexpr std::array<double, kModes> kHybridKcycles = {5892, 4557, 1436};

/** Simulated work of one mode's ladders, summed over a pass. */
struct SimTotals
{
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t stallNops = 0;
    std::array<uint64_t, kRoutines> calls{};
    std::array<uint64_t, kRoutines> routineCycles{};

    bool operator==(const SimTotals &) const = default;
};

/** Host time of one pass over the ops. */
struct PassTimes
{
    std::array<double, kModes> modeS{}; ///< host s of each mode's k·P
    std::vector<double> opUs;           ///< per-op latency
    std::vector<double> doneS;          ///< op completion times
    /** Traced pass only: library call time per mode and routine. */
    std::array<std::array<SpanAcc, kRoutines>, kModes> calls{};
};

struct Input
{
    BigUInt k;
    BigUInt x;
};

OpfRun
invoke(OpfAvrLibrary &lib, Routine r, const W &a, const W &b)
{
    switch (r) {
    case kAdd:
        return lib.add(a, b);
    case kSub:
        return lib.sub(a, b);
    case kMul:
        return lib.mul(a, b);
    default:
        return lib.inv(a);
    }
}

/** The ladder driven from the host through the library calls. */
class Ladder
{
  public:
    Ladder(const OpfPrime &prime, const MontgomeryCurve &mc)
        : fm(prime), a24m(fm.toMont(BigUInt(mc.a24()))),
          one(fm.toMont(BigUInt(1))), zero(fm.words(), 0)
    {}

    /**
     * x(k·P) for P = (x, ·) on @p lib: X·Z^-1 as (possibly
     * incompletely reduced) words. @p spans is set in the traced pass.
     */
    W
    kp(OpfAvrLibrary &lib, const BigUInt &k, const BigUInt &x,
       SimTotals &sim, std::array<SpanAcc, kRoutines> *spans,
       Trap &trap) const
    {
        auto call = [&](Routine r, const W &a, const W &b) -> W {
            OpfRun run = spans ? timed((*spans)[r],
                                       [&] { return invoke(lib, r, a, b); })
                               : invoke(lib, r, a, b);
            sim.calls[r]++;
            sim.routineCycles[r] += run.cycles;
            if (run.trap && !trap)
                trap = run.trap;
            return std::move(run.result);
        };
        W x1m = fm.toMont(x);
        W x2 = one, z2 = zero, x3 = x1m, z3 = one;
        unsigned swap = 0;
        for (int i = int(kLadderBits) - 1; i >= 0; i--) {
            unsigned bit = k.bit(unsigned(i));
            swap ^= bit;
            if (swap) {
                std::swap(x2, x3);
                std::swap(z2, z3);
            }
            swap = bit;
            W a = call(kAdd, x2, z2);
            W aa = call(kMul, a, a);
            W b = call(kSub, x2, z2);
            W bb = call(kMul, b, b);
            W e = call(kSub, aa, bb);
            W c = call(kAdd, x3, z3);
            W d = call(kSub, x3, z3);
            W da = call(kMul, d, a);
            W cb = call(kMul, c, b);
            W t0 = call(kAdd, da, cb);
            x3 = call(kMul, t0, t0);
            W t1 = call(kSub, da, cb);
            W t2 = call(kMul, t1, t1);
            z3 = call(kMul, x1m, t2);
            x2 = call(kMul, aa, bb);
            W t3 = call(kMul, a24m, e);
            W t4 = call(kAdd, bb, t3);
            z2 = call(kMul, e, t4);
        }
        if (swap) {
            std::swap(x2, x3);
            std::swap(z2, z3);
        }
        // inv maps Z·R to Z^-1 (R = 2^160), so one Montgomery product
        // with X·R leaves the plain x-coordinate.
        W zinv = call(kInv, z2, zero);
        return call(kMul, x2, zinv);
    }

    const OpfField fm;
    const W a24m, one, zero;
};

using Libraries = std::array<std::unique_ptr<OpfAvrLibrary>, kModes>;

/** One pass over every op, in every mode. */
void
runPass(Libraries &libs, const Ladder &ladder,
        const std::vector<Input> &inputs, bool traced,
        std::array<SimTotals, kModes> &sim, PassTimes &times,
        std::vector<std::array<W, kModes>> &results, Trap &trap)
{
    times.opUs.reserve(inputs.size());
    results.resize(inputs.size());
    auto w0 = Clock::now();
    for (size_t i = 0; i < inputs.size(); i++) {
        auto o0 = Clock::now();
        for (size_t m = 0; m < kModes; m++) {
            OpfAvrLibrary &lib = *libs[m];
            const ExecStats &st = lib.machine().stats();
            uint64_t c0 = st.cycles, n0 = st.instructions,
                     s0 = st.macStallNops;
            auto m0 = Clock::now();
            results[i][m] = ladder.kp(lib, inputs[i].k, inputs[i].x, sim[m],
                                      traced ? &times.calls[m] : nullptr,
                                      trap);
            times.modeS[m] += secondsBetween(m0, Clock::now());
            sim[m].cycles += st.cycles - c0;
            sim[m].instructions += st.instructions - n0;
            sim[m].stallNops += st.macStallNops - s0;
        }
        auto o1 = Clock::now();
        times.opUs.push_back(nsBetween(o0, o1) / 1e3);
        times.doneS.push_back(secondsBetween(w0, o1));
    }
}

std::vector<uint8_t>
toBytes(const W &w)
{
    std::vector<uint8_t> out;
    for (uint32_t v : w)
        for (unsigned s = 0; s < 32; s += 8)
            out.push_back(uint8_t(v >> s));
    return out;
}

W
fromBytes(const std::vector<uint8_t> &bytes)
{
    W out(bytes.size() / 4, 0);
    for (size_t i = 0; i < bytes.size(); i++)
        out[i / 4] |= uint32_t(bytes[i]) << (8 * (i % 4));
    return out;
}

/** Median host ns of Machine::call and of the whole library call. */
struct ProbeRow
{
    double callNs = 0;
    double harnessNs = 0;
    double instructions = 0; ///< mean per call
};

/**
 * The avr/avrgen split measured from outside: each routine is called
 * once through OpfAvrLibrary and once directly through Machine::call
 * on its symbols() entry, with the operands staged at OpfMemoryMap
 * exactly as the harness stages them. The direct result must match.
 */
std::array<std::array<ProbeRow, kRoutines>, kModes>
probeRoutines(Libraries &libs, const Ladder &ladder, uint64_t seed,
              Report &rep)
{
    std::array<std::array<ProbeRow, kRoutines>, kModes> out{};
    Rng rng(mix64(seed ^ mix64(kStreamProbe)));
    const BigUInt &p = ladder.fm.modulus();
    for (size_t m = 0; m < kModes; m++) {
        OpfAvrLibrary &lib = *libs[m];
        Machine &mach = lib.machine();
        const SymbolTable syms = lib.symbols();
        for (unsigned r = 0; r < kRoutines; r++) {
            uint32_t entry = 0;
            bool found = false;
            for (const auto &[addr, name] : syms.entries())
                if (name == kRoutineSymbol[r]) {
                    entry = addr;
                    found = true;
                }
            if (!found) {
                rep.fail(std::string("no symbol ") + kRoutineSymbol[r]);
                continue;
            }
            const size_t samples = r == kInv ? 24 : 160;
            std::vector<double> callNs, harnessNs;
            uint64_t instructions = 0;
            for (size_t s = 0; s < samples; s++) {
                W a = ladder.fm.toMont(BigUInt::random(rng, p));
                W b = r == kInv ? ladder.zero
                                : ladder.fm.toMont(BigUInt::random(rng, p));
                auto h0 = Clock::now();
                OpfRun viaLib = invoke(lib, Routine(r), a, b);
                harnessNs.push_back(nsBetween(h0, Clock::now()));

                mach.writeBytes(OpfMemoryMap::aAddr, toBytes(a));
                mach.writeBytes(OpfMemoryMap::bAddr, toBytes(b));
                mach.setY(OpfMemoryMap::aAddr);
                mach.setZ(OpfMemoryMap::bAddr);
                mach.setSp(kHarnessStackTop);
                uint64_t n0 = mach.stats().instructions;
                auto c0 = Clock::now();
                RunResult rr = mach.call(entry);
                callNs.push_back(nsBetween(c0, Clock::now()));
                instructions += mach.stats().instructions - n0;
                W direct = fromBytes(
                    mach.readBytes(OpfMemoryMap::resultAddr, 4 * a.size()));
                if (rr.trap || viaLib.trap || direct != viaLib.result)
                    rep.fail(std::string("direct Machine::call of ") +
                             kRoutineSymbol[r] +
                             " disagrees with the library call");
            }
            out[m][r] = {percentile(callNs, 50), percentile(harnessNs, 50),
                         double(instructions) / double(samples)};
        }
    }
    return out;
}

std::string
fmt(const char *f, double a, double b, double c)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, f, a, b, c);
    return buf;
}

} // namespace

void
runIssLadder(const Options &opt, Report &rep)
{
    // --- set-up: lazy curve singletons, library builds, warm-up -----
    auto t0 = Clock::now();
    const OpfPrime &prime = paperOpfPrime();
    const MontgomeryCurve &mc = montgomeryOpfCurve();
    const BigUInt warmX = montgomeryOpfBasePoint().x;
    const Ladder ladder(prime, mc);
    auto t1 = Clock::now();
    Libraries libs;
    for (size_t m = 0; m < kModes; m++)
        libs[m] = std::make_unique<OpfAvrLibrary>(prime, kModeOf[m]);
    auto t2 = Clock::now();
    // One k·P per mode on a fixed input translates every superblock
    // the timed ladders run, so no translation lands in the window.
    const BigUInt warmK =
        BigUInt::fromHex("b5c4d3e2f1a09f8e7d6c5b4a3928170615f4e3d2");
    for (size_t m = 0; m < kModes; m++) {
        SimTotals s;
        Trap trap;
        ladder.kp(*libs[m], warmK, warmX, s, nullptr, trap);
        if (trap)
            rep.fail("ISS trap in the warm-up k·P: " + trap.describe());
    }
    auto t3 = Clock::now();
    rep.setupS = secondsBetween(t0, t3);
    if (opt.setupOnly)
        return;

    // --- inputs: a fixed op count, seeded scalars and points --------
    const size_t nOps = std::max<size_t>(
        1, size_t(std::llround(opt.seconds * kNominalOpsPerS)));
    rep.param("ops", double(nOps));
    rep.param("nominal_ops_per_s", kNominalOpsPerS);
    rep.param("ladder_bits", kLadderBits);
    std::vector<Input> inputs(nOps);
    for (size_t i = 0; i < nOps; i++) {
        Rng r = opRng(opt.seed, kStreamInputs, i);
        inputs[i].k = BigUInt::randomBits(r, kLadderBits);
        if (inputs[i].k.isZero())
            inputs[i].k = BigUInt(1);
        inputs[i].x = mc.randomPoint(r).x;
    }

    // --- untraced pass ----------------------------------------------
    std::array<SimTotals, kModes> sim{};
    PassTimes times;
    std::vector<std::array<W, kModes>> results;
    Trap trap;
    runPass(libs, ladder, inputs, false, sim, times, results, trap);
    if (trap)
        rep.fail("ISS trap in a timed k·P: " + trap.describe());

    // --- golden check: X·Z^-1 against MontgomeryCurve::ladder -------
    rep.attempted = nOps;
    for (size_t i = 0; i < nOps; i++) {
        auto expect = mc.ladder(inputs[i].k, inputs[i].x);
        bool ok = expect.has_value();
        if (ok && opt.corruptGolden && i == 0)
            *expect = (*expect + BigUInt(1)) % prime.p;
        for (size_t m = 0; ok && m < kModes; m++)
            ok = ladder.fm.canonical(results[i][m]) == *expect;
        if (!ok)
            rep.failed++;
    }

    // --- exact counts (both runs print them) ------------------------
    const double n = double(nOps);
    std::array<double, kModes> kcyc{};
    for (size_t m = 0; m < kModes; m++) {
        kcyc[m] = double(sim[m].cycles) / n / 1e3;
        rep.count(std::string("sim_kcycles_") + kModeName[m], kcyc[m]);
        rep.count(std::string("avr.sim_kinstr_per_op.") + kModeName[m],
                  double(sim[m].instructions) / n / 1e3);
        for (unsigned r = 0; r < kRoutines; r++)
            rep.count(std::string("avr.routine_cycles_per_op.") +
                          kRoutineName[r] + "." + kModeName[m],
                      double(sim[m].routineCycles[r]) / n);
    }
    rep.count("avr.mac_stall_nops_per_op", double(sim[2].stallNops) / n);
    for (unsigned r = 0; r < kRoutines; r++)
        rep.count(std::string("avrgen.calls_per_op.") + kRoutineName[r],
                  double(sim[0].calls[r]) / n);

    std::string paper = "paper axis: kcycles per k·P (CA / FAST / ISE) ";
    paper += fmt("measured %.1f / %.1f / %.1f", kcyc[0], kcyc[1], kcyc[2]);
    auto err = [&](const std::array<double, kModes> &ref, const char *what) {
        paper += fmt(what, ref[0], ref[1], ref[2]);
        std::array<double, kModes> e{};
        for (size_t m = 0; m < kModes; m++)
            e[m] = (kcyc[m] / ref[m] - 1.0) * 100.0;
        paper += fmt(" -> %+.1f / %+.1f / %+.1f %%", e[0], e[1], e[2]);
    };
    err(kPaperKcycles, " | paper Table II %.0f / %.0f / %.0f");
    err(kHybridKcycles, " | hybrid model %.0f / %.0f / %.0f");
    rep.note(paper);

    const double opsPerS = sliceThroughput(times.doneS);
    auto minstrPerS = [&](const std::array<SimTotals, kModes> &s,
                          const PassTimes &t, bool ise) {
        double instr = ise ? double(s[2].instructions)
                           : double(s[0].instructions + s[1].instructions);
        double secs = ise ? t.modeS[2] : t.modeS[0] + t.modeS[1];
        return instr / secs / 1e6;
    };
    if (!opt.trace) {
        rep.e2e("setup_s", rep.setupS);
        rep.e2e("ops_per_s", opsPerS);
        rep.e2e("latency_p50_us", percentile(times.opUs, 50));
        rep.e2e("latency_p90_us", percentile(times.opUs, 90));
        rep.e2e("peak_rss_mib", peakRssMiB());
        rep.note(fmt("ISS speed: native %.3f Minstr/s, ISE %.3f Minstr/s "
                     "over %.0f ops",
                     minstrPerS(sim, times, false),
                     minstrPerS(sim, times, true), n));
        return;
    }

    // --- traced pass: the same ops with every library call timed ----
    std::array<SimTotals, kModes> simT{};
    PassTimes timesT;
    std::vector<std::array<W, kModes>> resultsT;
    Trap trapT;
    runPass(libs, ladder, inputs, true, simT, timesT, resultsT, trapT);
    if (simT != sim || resultsT != results)
        rep.fail("traced pass did not reproduce the untraced simulated "
                 "counts and results");
    auto probe = probeRoutines(libs, ladder, opt.seed, rep);

    for (size_t m = 0; m < kModes; m++)
        rep.layer(std::string("sim_kcycles_") + kModeName[m], kcyc[m]);
    rep.layer("sim_minstr_per_s_native", minstrPerS(sim, times, false));
    rep.layer("sim_minstr_per_s_ise", minstrPerS(sim, times, true));
    for (size_t m = 0; m < kModes; m++) {
        rep.layer(std::string("avr.sim_kinstr_per_op.") + kModeName[m],
                  double(sim[m].instructions) / n / 1e3);
        rep.layer(std::string("avr.cpi.") + kModeName[m],
                  double(sim[m].cycles) / double(sim[m].instructions));
    }
    rep.layer("avr.mac_stall_nops_per_op", double(sim[2].stallNops) / n);

    // Native = CA + FAST, weighted by the workload's calls per k·P.
    const std::array<std::vector<size_t>, 2> classes = {
        std::vector<size_t>{0, 1}, std::vector<size_t>{2}};
    const std::array<const char *, 2> className = {"native", "ise"};
    for (size_t c = 0; c < 2; c++) {
        double callNs = 0, harnessNs = 0, instr = 0;
        for (size_t m : classes[c])
            for (unsigned r = 0; r < kRoutines; r++) {
                double w = double(sim[m].calls[r]);
                callNs += w * probe[m][r].callNs;
                harnessNs += w * probe[m][r].harnessNs;
                instr += w * probe[m][r].instructions;
            }
        rep.layer(std::string("avr.ns_per_sim_instr.") + className[c],
                  callNs / instr);
        rep.layer(std::string("avrgen.marshal_share.") + className[c],
                  1.0 - callNs / harnessNs);
        for (unsigned r = 0; r < kRoutines; r++) {
            SpanAcc acc;
            for (size_t m : classes[c]) {
                acc.calls += timesT.calls[m][r].calls;
                acc.ns += timesT.calls[m][r].ns;
            }
            rep.layer(std::string("avrgen.us_per_call.") + kRoutineName[r] +
                          "." + className[c],
                      acc.meanNs() / 1e3);
        }
    }
    for (unsigned r = 0; r < kRoutines; r++)
        rep.layer(std::string("avrgen.calls_per_op.") + kRoutineName[r],
                  double(sim[0].calls[r]) / n);

    double callNsTotal = 0, opNsTotal = 0;
    for (size_t m = 0; m < kModes; m++)
        for (unsigned r = 0; r < kRoutines; r++)
            callNsTotal += timesT.calls[m][r].ns;
    for (double us : timesT.opUs)
        opNsTotal += us * 1e3;
    rep.layer("loadgen.glue_share", 1.0 - callNsTotal / opNsTotal);
    rep.layer("loadgen.latency_samples", n);

    rep.layer("setup.curve_snapshot_ms", secondsBetween(t0, t1) * 1e3);
    rep.layer("setup.avr_libraries_ms", secondsBetween(t1, t2) * 1e3);
    rep.layer("setup.warmup_ms", secondsBetween(t2, t3) * 1e3);

    const double opsPerSTraced = sliceThroughput(timesT.doneS);
    rep.layer("obs.overhead_pct", (opsPerS / opsPerSTraced - 1.0) * 100.0);
}

} // namespace perfbench
