/**
 * @file
 * google-benchmark microbenchmarks of the host-side library layers,
 * bottom up: bigint primitives (the field oracle's cost), Fe field
 * mul/sqr/inv on both reduction shapes (Arg 0: secp160r1's fold,
 * Arg 1: the paper OPF prime's REDC), OPF word-level arithmetic, curve
 * group operations, full scalar multiplications, and the raw
 * simulation rate of the AVR ISS. The field rows time dependent
 * chains (each result feeds the next call), so they report latency.
 * These measure the reproduction itself (host performance), not the
 * paper's cycle counts.
 */

#include <benchmark/benchmark.h>

#include "avrgen/opf_harness.hh"
#include "curves/point_mult.hh"
#include "curves/standard_curves.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

void
BM_BigUIntMul(benchmark::State &state)
{
    Rng rng(1);
    BigUInt a = BigUInt::randomBits(rng, 160);
    BigUInt b = BigUInt::randomBits(rng, 160);
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_BigUIntMul);

void
BM_BigUIntDivMod(benchmark::State &state)
{
    Rng rng(2);
    BigUInt n = BigUInt::randomBits(rng, 320);
    BigUInt d = BigUInt::randomBits(rng, 160);
    BigUInt q, r;
    for (auto _ : state) {
        BigUInt::divMod(n, d, q, r);
        benchmark::DoNotOptimize(r);
    }
}
BENCHMARK(BM_BigUIntDivMod);

void
BM_BigUIntInvMod(benchmark::State &state)
{
    const BigUInt &p = secp160r1Field().modulus();
    Rng rng(8);
    BigUInt a = BigUInt::random(rng, p);
    for (auto _ : state)
        benchmark::DoNotOptimize(a.invMod(p));
}
BENCHMARK(BM_BigUIntInvMod);

/** The field of a two-shape row: 0 = secp160r1 (fold), 1 = OPF (REDC). */
const PrimeField &
shapeField(const benchmark::State &state)
{
    return state.range(0) == 0 ? static_cast<const PrimeField &>(
                                     secp160r1Field())
                               : paperOpfField();
}

void
BM_FeMul(benchmark::State &state)
{
    const PrimeField &f = shapeField(state);
    Rng rng(9);
    Fe a = f.fromBig(f.random(rng)), b = f.fromBig(f.random(rng));
    for (auto _ : state) {
        a = f.mul(a, b);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FeMul)->Arg(0)->Arg(1);

void
BM_FeSqr(benchmark::State &state)
{
    const PrimeField &f = shapeField(state);
    Rng rng(10);
    Fe a = f.fromBig(f.random(rng));
    for (auto _ : state) {
        a = f.sqr(a);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FeSqr)->Arg(0)->Arg(1);

void
BM_FeInv(benchmark::State &state)
{
    const PrimeField &f = shapeField(state);
    Rng rng(11);
    Fe a = f.fromBig(f.random(rng) + BigUInt(1));
    for (auto _ : state) {
        a = f.inv(a);
        benchmark::DoNotOptimize(a);
    }
}
BENCHMARK(BM_FeInv)->Arg(0)->Arg(1);

void
BM_OpfMontMul(benchmark::State &state)
{
    OpfField f(paperOpfPrime());
    Rng rng(3);
    auto a = f.fromBig(BigUInt::randomBits(rng, 160));
    auto b = f.fromBig(BigUInt::randomBits(rng, 160));
    for (auto _ : state)
        benchmark::DoNotOptimize(f.montMul(a, b));
}
BENCHMARK(BM_OpfMontMul);

void
BM_FieldInv(benchmark::State &state)
{
    const PrimeField &f = paperOpfField();
    Rng rng(4);
    BigUInt a = f.random(rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(f.inv(a));
}
BENCHMARK(BM_FieldInv);

void
BM_JacobianDouble(benchmark::State &state)
{
    // a = -3 doubling on Fe: 0 = secp160r1 (fold), 1 = OPF (REDC).
    const WeierstrassCurve &c =
        state.range(0) == 0 ? secp160r1Curve() : weierstrassOpfCurve();
    Rng rng(5);
    JacobianPoint p = c.toJacobian(c.randomPoint(rng));
    for (auto _ : state) {
        p = c.dbl(p);
        benchmark::DoNotOptimize(p);
    }
}
BENCHMARK(BM_JacobianDouble)->Arg(0)->Arg(1);

void
BM_ScalarMult(benchmark::State &state)
{
    // Arg selects the configuration.
    Rng rng(6);
    BigUInt k = BigUInt::randomBits(rng, 160);
    switch (state.range(0)) {
      case 0: {
        const WeierstrassCurve &c = secp160r1Curve();
        AffinePoint g = secp160r1Generator().g;
        for (auto _ : state)
            benchmark::DoNotOptimize(c.mulNaf(k, g));
        break;
      }
      case 1: {
        const MontgomeryCurve &c = montgomeryOpfCurve();
        BigUInt x = montgomeryOpfBasePoint().x;
        for (auto _ : state)
            benchmark::DoNotOptimize(c.ladder(k, x));
        break;
      }
      case 2: {
        const GlvCurve &c = glvOpfCurve();
        AffinePoint g = c.generator();
        for (auto _ : state)
            benchmark::DoNotOptimize(c.mulGlvJsf(k, g));
        break;
      }
      case 3: {
        // The service's fixed-base path: the Lim-Lee comb, no inversion.
        const WeierstrassCurve &c = secp160r1Curve();
        const CurveGenerator &g = secp160r1Generator();
        FixedBaseComb comb(c, g.g, g.order.bitLength());
        for (auto _ : state)
            benchmark::DoNotOptimize(comb.mulJacobian(c, k));
        break;
      }
    }
}
BENCHMARK(BM_ScalarMult)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void
BM_IssSimulationRate(benchmark::State &state)
{
    // Instructions per second of the ISS on the native OPF mul.
    OpfField f(paperOpfPrime());
    OpfAvrLibrary lib(paperOpfPrime(), CpuMode::CA);
    Rng rng(7);
    auto a = f.fromBig(BigUInt::randomBits(rng, 160));
    auto b = f.fromBig(BigUInt::randomBits(rng, 160));
    uint64_t instructions = 0;
    for (auto _ : state) {
        uint64_t before = lib.machine().stats().instructions;
        benchmark::DoNotOptimize(lib.mul(a, b));
        instructions += lib.machine().stats().instructions - before;
    }
    state.counters["insns/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_IssSimulationRate);

} // anonymous namespace

BENCHMARK_MAIN();
