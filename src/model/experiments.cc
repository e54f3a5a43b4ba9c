#include "model/experiments.hh"

#include "avrgen/opf_harness.hh"
#include "curves/standard_curves.hh"
#include "support/logging.hh"

namespace jaavr
{

const char *
curveName(CurveId id)
{
    switch (id) {
      case CurveId::Secp160r1: return "secp160r1";
      case CurveId::WeierstrassOpf: return "Weierstrass";
      case CurveId::EdwardsOpf: return "Edwards";
      case CurveId::MontgomeryOpf: return "Montgomery";
      case CurveId::GlvOpf: return "GLV";
    }
    return "?";
}

const char *
methodName(PmMethod m)
{
    switch (m) {
      case PmMethod::Naf: return "NAF";
      case PmMethod::Daaa: return "DAAA";
      case PmMethod::CozLadder: return "Mon";
      case PmMethod::XzLadder: return "Mon";
      case PmMethod::GlvJsf: return "End, JSF";
    }
    return "?";
}

namespace
{

/** Field, costs, and scalar-bound selection per curve. */
struct CurveEnv
{
    const PrimeField *field;
    FieldCycleCosts costs;
    BigUInt scalarBound;  ///< scalars drawn from [1, bound)
};

CurveEnv
curveEnv(CurveId curve, CpuMode mode)
{
    CurveEnv env;
    switch (curve) {
      case CurveId::Secp160r1:
        env.field = &secp160r1Field();
        env.costs = secp160r1FieldCosts(mode);
        env.scalarBound = secp160r1Generator().order;
        break;
      case CurveId::WeierstrassOpf:
      case CurveId::EdwardsOpf:
      case CurveId::MontgomeryOpf:
        env.field = &paperOpfField();
        env.costs = opfFieldCosts(paperOpfPrime(), mode);
        // Orders unknown for these constructed curves: full-width
        // scalars, like an ECDH secret.
        env.scalarBound = BigUInt::powerOfTwo(160);
        break;
      case CurveId::GlvOpf:
        env.field = &glvOpfField();
        env.costs = opfFieldCosts(glvOpfPrimeUsed(), mode);
        env.scalarBound = glvOpfCurve().order();
        break;
    }
    return env;
}

/**
 * Resolve the curve objects and base point eagerly and return a
 * closure performing only the scalar multiplication. Keeping the
 * lazily-initialized curve singletons (base-point lifting, generator
 * validation) out of the measured region matters: their first-use
 * cost would otherwise contaminate the first measurement.
 */
std::function<void(const BigUInt &)>
prepareRun(CurveId curve, PmMethod method)
{
    const WeierstrassCurve *w = nullptr; ///< the Weierstraß family
    const GlvCurve *glv = nullptr;
    AffinePoint g;
    switch (curve) {
      case CurveId::Secp160r1:
        w = &secp160r1Curve();
        g = secp160r1Generator().g;
        break;
      case CurveId::WeierstrassOpf:
        w = &weierstrassOpfCurve();
        g = weierstrassOpfBasePoint();
        break;
      case CurveId::GlvOpf:
        w = glv = &glvOpfCurve();
        g = glv->generator();
        break;
      case CurveId::EdwardsOpf: {
        const EdwardsCurve &c = edwardsOpfCurve();
        g = edwardsOpfBasePoint();
        if (method == PmMethod::Naf)
            return [&c, g](const BigUInt &k) { c.mulNaf(k, g); };
        if (method == PmMethod::Daaa)
            return [&c, g](const BigUInt &k) { c.mulDaaa(k, g); };
        break;
      }
      case CurveId::MontgomeryOpf: {
        const MontgomeryCurve &c = montgomeryOpfCurve();
        BigUInt x = montgomeryOpfBasePoint().x;
        if (method == PmMethod::XzLadder)
            return [&c, x](const BigUInt &k) { c.ladder(k, x); };
        break;
      }
    }
    if (w) {
        switch (method) {
          case PmMethod::Naf:
            return [w, g](const BigUInt &k) { w->mulNaf(k, g); };
          case PmMethod::Daaa:
            return [w, g](const BigUInt &k) { w->mulDaaa(k, g); };
          case PmMethod::CozLadder:
            return [w, g](const BigUInt &k) { w->mulLadder(k, g); };
          case PmMethod::GlvJsf:
            if (glv)
                return [glv, g](const BigUInt &k) { glv->mulGlvJsf(k, g); };
            break;
          default: break;
        }
    }
    panic("measurePointMult: method %s not available on curve %s",
          methodName(method), curveName(curve));
}

} // anonymous namespace

PointMultMeasurement
measurePointMult(CurveId curve, PmMethod method, CpuMode mode, Rng &rng)
{
    return measurePointMultAvg(curve, method, mode, rng, 1);
}

PointMultMeasurement
measurePointMultAvg(CurveId curve, PmMethod method, CpuMode mode,
                    Rng &rng, int samples)
{
    CurveEnv env = curveEnv(curve, mode);
    CycleExecutor exec(env.costs);
    auto run_fn = prepareRun(curve, method);

    PointMultMeasurement out;
    out.curve = curve;
    out.method = method;
    out.mode = mode;

    uint64_t total_cycles = 0;
    FieldOpCounts total_ops;
    for (int i = 0; i < samples; i++) {
        BigUInt k = BigUInt(1) +
                    BigUInt::random(rng, env.scalarBound - BigUInt(1));
        MeasuredRun run = exec.measure(
            *env.field, [&] { run_fn(k); });
        total_cycles += run.cycles;
        total_ops = total_ops + run.ops;
    }
    out.run.cycles = total_cycles / samples;
    out.run.ops = total_ops;  // summed; callers mostly use cycles
    return out;
}

CurveFootprint
curveFootprint(CurveId curve, CpuMode mode)
{
    // Field-arithmetic ROM: measured from the assembled routines.
    auto field_rom = [&](const OpfPrime &prime) {
        OpfAvrLibrary lib(prime, mode);
        return lib.romBytes();
    };

    constexpr size_t fe = 20;  // one field element
    CurveFootprint fp{};
    switch (curve) {
      case CurveId::Secp160r1:
      case CurveId::WeierstrassOpf:
        fp.romBytes = field_rom(paperOpfPrime()) + 4000;
        // Jacobian accumulator (3 fe) + base & negated base (4 fe) +
        // formula temporaries (8 fe) + scalar (21) + NAF digit array
        // (161) + call stack (~46).
        fp.ramBytes = 3 * fe + 4 * fe + 8 * fe + 21 + 161 + 46;
        break;
      case CurveId::EdwardsOpf:
        fp.romBytes = field_rom(paperOpfPrime()) + 3800;
        // Two extended points (8 fe) + precomputed addends with 2d*t
        // (6 fe) + temporaries (8 fe) + scalar + NAF digits + stack.
        fp.ramBytes = 8 * fe + 6 * fe + 8 * fe + 21 + 161 + 40;
        break;
      case CurveId::MontgomeryOpf:
        fp.romBytes = field_rom(paperOpfPrime()) + 4600;
        // Two XZ points (4 fe) + base x (1 fe) + formula temporaries
        // (8 fe) + inversion scratch (4 fe) + scalar + stack.
        fp.ramBytes = 4 * fe + 1 * fe + 8 * fe + 4 * fe + 21 + 44;
        break;
      case CurveId::GlvOpf:
        fp.romBytes = field_rom(glvOpfPrimeUsed()) + 6400;
        // Precomputation table P, phi(P), P+-phi(P) (8 fe) + Jacobian
        // accumulator (3 fe) + temporaries (10 fe) + two half-length
        // scalars (2 * 11) + JSF digit pairs (2 * 82) + decomposition
        // scratch (6 fe) + stack.
        fp.ramBytes = 8 * fe + 3 * fe + 10 * fe + 22 + 164 + 6 * fe + 40;
        break;
    }
    return fp;
}

} // namespace jaavr
