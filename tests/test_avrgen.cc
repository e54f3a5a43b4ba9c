/**
 * @file
 * Validation of the generated OPF assembly routines against the host
 * golden model (OpfField), across all three processor modes, plus the
 * cycle-count properties the paper reports in Table I and
 * Section III-B/IV-A.
 */

#include <gtest/gtest.h>

#include "avrgen/opf_harness.hh"
#include "bigint/big_int.hh"
#include "curves/standard_curves.hh"
#include "nt/mont_inverse.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

class AvrGenTest : public ::testing::TestWithParam<CpuMode>
{
  protected:
    AvrGenTest()
        : prime(paperOpfPrime()), gold(prime),
          lib(prime, GetParam()), rng(0x1234 + int(GetParam()))
    {}

    OpfField::Words
    randomWords()
    {
        return gold.fromBig(BigUInt::randomBits(rng, gold.bits()));
    }

    OpfPrime prime;
    OpfField gold;
    OpfAvrLibrary lib;
    Rng rng;
};

} // anonymous namespace

TEST_P(AvrGenTest, AddMatchesGoldenModel)
{
    for (int i = 0; i < 100; i++) {
        auto a = randomWords(), b = randomWords();
        OpfRun r = lib.add(a, b);
        EXPECT_EQ(r.result, gold.add(a, b))
            << "a=" << gold.toBig(a).toHex()
            << " b=" << gold.toBig(b).toHex();
    }
}

TEST_P(AvrGenTest, SubMatchesGoldenModel)
{
    for (int i = 0; i < 100; i++) {
        auto a = randomWords(), b = randomWords();
        OpfRun r = lib.sub(a, b);
        EXPECT_EQ(r.result, gold.sub(a, b))
            << "a=" << gold.toBig(a).toHex()
            << " b=" << gold.toBig(b).toHex();
    }
}

TEST_P(AvrGenTest, MulMatchesGoldenModel)
{
    for (int i = 0; i < 60; i++) {
        auto a = randomWords(), b = randomWords();
        OpfRun r = lib.mul(a, b);
        EXPECT_EQ(r.result, gold.montMul(a, b))
            << "a=" << gold.toBig(a).toHex()
            << " b=" << gold.toBig(b).toHex();
    }
}

TEST_P(AvrGenTest, EdgeOperands)
{
    std::vector<OpfField::Words> edges = {
        OpfField::Words(gold.words(), 0),           // zero
        gold.fromBig(BigUInt(1)),                   // one
        gold.fromBig(gold.modulus() - BigUInt(1)),  // p - 1
        gold.fromBig(gold.modulus()),               // p (incomplete)
        OpfField::Words(gold.words(), 0xffffffff),  // 2^160 - 1
    };
    for (const auto &a : edges) {
        for (const auto &b : edges) {
            EXPECT_EQ(lib.add(a, b).result, gold.add(a, b));
            EXPECT_EQ(lib.sub(a, b).result, gold.sub(a, b));
            EXPECT_EQ(lib.mul(a, b).result, gold.montMul(a, b));
        }
    }
}

TEST_P(AvrGenTest, BorrowRippleCornerCase)
{
    // The 2^-32 corner: sum with zero LSW and carry set exercises the
    // out-of-line ripple path (paper, Section III-A).
    auto a = gold.fromBig(BigUInt::powerOfTwo(159) + BigUInt::powerOfTwo(32));
    auto b = gold.fromBig(BigUInt::powerOfTwo(159));
    EXPECT_EQ(lib.add(a, b).result, gold.add(a, b));
}

TEST_P(AvrGenTest, InverseMatchesHostReference)
{
    // The assembly routine mirrors nt/mont_inverse bit for bit.
    for (int i = 0; i < 15; i++) {
        BigUInt a = BigUInt(1) +
                    BigUInt::random(rng, prime.p - BigUInt(1));
        OpfRun r = lib.inv(gold.fromBig(a));
        BigUInt expect = montInverse(a, prime.p, gold.bits());
        EXPECT_EQ(gold.toBig(r.result), expect) << a.toHex();
    }
}

TEST_P(AvrGenTest, InverseIsMontgomeryDomainInverse)
{
    // a^-1 * 2^160 is exactly what the Montgomery-domain field code
    // needs: montMul(inv(aR), aR * R) = ... check the defining
    // property inv(a) * a = 2^160 (mod p).
    for (int i = 0; i < 10; i++) {
        BigUInt a = BigUInt(1) +
                    BigUInt::random(rng, prime.p - BigUInt(1));
        OpfRun r = lib.inv(gold.fromBig(a));
        BigUInt prod = gold.toBig(r.result).mulMod(a, prime.p);
        EXPECT_EQ(prod, BigUInt::powerOfTwo(160) % prime.p);
    }
}

TEST_P(AvrGenTest, InverseEdgeOperands)
{
    // a = 1: inverse is 2^160 mod p; a = p - 1 = -1: inverse is
    // p - (2^160 mod p).
    BigUInt r_mod_p = BigUInt::powerOfTwo(160) % prime.p;
    OpfRun one = lib.inv(gold.fromBig(BigUInt(1)));
    EXPECT_EQ(gold.toBig(one.result), r_mod_p);
    OpfRun minus1 = lib.inv(gold.fromBig(prime.p - BigUInt(1)));
    EXPECT_EQ(gold.toBig(minus1.result), prime.p - r_mod_p);
}

TEST_P(AvrGenTest, AddCycleCountIsOperandIndependent)
{
    // The branch-less fold gives constant time except for the 2^-32
    // ripple; random operands must all take identical cycles.
    uint64_t first = 0;
    for (int i = 0; i < 20; i++) {
        OpfRun r = lib.add(randomWords(), randomWords());
        if (i == 0)
            first = r.cycles;
        else
            EXPECT_EQ(r.cycles, first);
    }
}

TEST_P(AvrGenTest, MulCycleCountIsOperandIndependent)
{
    uint64_t first = 0;
    for (int i = 0; i < 10; i++) {
        OpfRun r = lib.mul(randomWords(), randomWords());
        if (i == 0)
            first = r.cycles;
        else
            EXPECT_EQ(r.cycles, first);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, AvrGenTest,
                         ::testing::Values(CpuMode::CA, CpuMode::FAST,
                                           CpuMode::ISE),
                         [](const ::testing::TestParamInfo<CpuMode> &info) {
                             return cpuModeName(info.param);
                         });

TEST(AvrGenCycles, TableOneShape)
{
    // Table I shape: FAST speeds up add by ~1.65x and mul by ~1.3x;
    // the MAC unit brings mul down by another ~4.6x while leaving
    // add/sub unchanged.
    OpfPrime prime = paperOpfPrime();
    OpfField gold(prime);
    Rng rng(55);
    auto a = gold.fromBig(BigUInt::randomBits(rng, 160));
    auto b = gold.fromBig(BigUInt::randomBits(rng, 160));

    OpfAvrLibrary ca(prime, CpuMode::CA);
    OpfAvrLibrary fast(prime, CpuMode::FAST);
    OpfAvrLibrary ise(prime, CpuMode::ISE);

    uint64_t add_ca = ca.add(a, b).cycles;
    uint64_t add_fast = fast.add(a, b).cycles;
    uint64_t add_ise = ise.add(a, b).cycles;
    uint64_t mul_ca = ca.mul(a, b).cycles;
    uint64_t mul_fast = fast.mul(a, b).cycles;
    uint64_t mul_ise = ise.mul(a, b).cycles;

    // Additions: FAST = ISE (the MAC does not help them).
    EXPECT_EQ(add_fast, add_ise);
    double add_speedup = double(add_ca) / double(add_fast);
    EXPECT_GT(add_speedup, 1.4);
    EXPECT_LT(add_speedup, 2.0);

    // Multiplication: CA in the thousands, ISE in the hundreds.
    EXPECT_GT(mul_ca, 2500u);
    EXPECT_LT(mul_ca, 4200u);
    EXPECT_GT(mul_fast, 1800u);
    EXPECT_LT(mul_fast, 3200u);
    EXPECT_GT(mul_ise, 400u);
    EXPECT_LT(mul_ise, 800u);

    double mul_fast_speedup = double(mul_ca) / double(mul_fast);
    EXPECT_GT(mul_fast_speedup, 1.15);
    EXPECT_LT(mul_fast_speedup, 1.6);
    double mul_ise_speedup = double(mul_fast) / double(mul_ise);
    EXPECT_GT(mul_ise_speedup, 3.0);
    EXPECT_LT(mul_ise_speedup, 7.0);
}

TEST(AvrGenCycles, IseInstructionMix)
{
    // Section IV-A: the ISE multiplication's 100 MAC-triggering loads
    // and 40 SWAPs (25 multiply blocks, 5 reduction words).
    OpfPrime prime = paperOpfPrime();
    OpfField gold(prime);
    Rng rng(56);
    OpfAvrLibrary ise(prime, CpuMode::ISE);
    auto a = gold.fromBig(BigUInt::randomBits(rng, 160));
    auto b = gold.fromBig(BigUInt::randomBits(rng, 160));
    ise.machine().resetStats();
    ise.mul(a, b);
    const ExecStats &st = ise.machine().stats();
    EXPECT_EQ(st.count(Op::SWAP), 40u);
    EXPECT_EQ(ise.machine().mac().totalMacs(), 25u * 8u + 5u * 8u);
}

TEST(AvrGenCycles, GlvPrimeRoutinesAlsoValidate)
{
    // The generators are parameterized by the prime; check another u.
    OpfPrime prime = makeOpf(65286, 144);  // u = 0 mod 3 example shape
    OpfField gold(prime);
    OpfAvrLibrary lib(prime, CpuMode::CA);
    Rng rng(57);
    for (int i = 0; i < 20; i++) {
        auto a = gold.fromBig(BigUInt::randomBits(rng, 160));
        auto b = gold.fromBig(BigUInt::randomBits(rng, 160));
        EXPECT_EQ(lib.add(a, b).result, gold.add(a, b));
        EXPECT_EQ(lib.mul(a, b).result, gold.montMul(a, b));
    }
    // The inversion generator is parameterized by the prime too.
    BigUInt x = BigUInt(1) + BigUInt::random(rng, prime.p - BigUInt(1));
    EXPECT_EQ(gold.toBig(lib.inv(gold.fromBig(x)).result),
              montInverse(x, prime.p, gold.bits()));
}

TEST(AvrGenCycles, RomBytesReported)
{
    OpfAvrLibrary lib(paperOpfPrime(), CpuMode::CA);
    EXPECT_GT(lib.romBytes(), 1000u);
    EXPECT_LT(lib.romBytes(), 32768u);
}

namespace
{

/** The shared x-only ladder (curves/ladder.hh) on the ISS and host. */
class AvrLadderTest : public ::testing::TestWithParam<CpuMode>
{};

} // anonymous namespace

TEST_P(AvrLadderTest, MatchesHostCurveAndModelStepByStep)
{
    const MontgomeryCurve &mc = montgomeryOpfCurve();
    const BigUInt x1 = montgomeryOpfBasePoint().x;
    OpfField fm(paperOpfPrime());
    OpfAvrLibrary lib(paperOpfPrime(), GetParam());
    auto a24m = fm.toMont(BigUInt(mc.a24()));
    auto one = fm.toMont(BigUInt(1));
    auto x1m = fm.toMont(x1);
    const LadderState<OpfField::Words> start{
        one, OpfField::Words(fm.words(), 0), x1m, one};

    // (k, kbits): k = 1 and 2, 2^m - 1, a leading-zero window as in
    // the fault campaign, and random odd and even scalars. Odd k ends
    // on a pending swap, which the final swap must resolve.
    Rng rng(0x1add);
    uint64_t r = (rng.next64() >> 24) | (uint64_t(1) << 39);
    std::vector<std::pair<uint64_t, unsigned>> cases = {
        {1, 1}, {2, 2}, {3, 2}, {1, 8}, {0xffff, 16},
        {(uint64_t(1) << 40) - 1, 40}, {r | 1, 40}, {r & ~uint64_t(1), 40}};
    for (const auto &[k, kbits] : cases) {
        std::vector<OpfField::Words> issZ2, hostZ2;
        OpfLadderRun iss = lib.ladder(
            a24m, x1m, BigUInt(k), kbits, start,
            [&](unsigned i, const LadderState<OpfField::Words> &s) {
                if (i > 0)
                    issZ2.push_back(s.z2);
                return true;
            });
        ASSERT_FALSE(iss.trap) << iss.trap.describe();
        LadderState<OpfField::Words> host = montLadder(
            OpfFieldOps{fm, a24m}, x1m, start, BigUInt(k), kbits,
            [&](unsigned i, const LadderState<OpfField::Words> &s) {
                if (i > 0)
                    hostZ2.push_back(s.z2);
                return true;
            });
        EXPECT_EQ(issZ2.size(), size_t(kbits)) << "k=" << k;
        EXPECT_EQ(issZ2, hostZ2) << "k=" << k;
        EXPECT_EQ(iss.state.x2, host.x2) << "k=" << k;
        EXPECT_EQ(iss.state.z2, host.z2) << "k=" << k;

        auto want = mc.ladder(BigUInt(k), x1);
        ASSERT_TRUE(want.has_value()) << "k=" << k;
        const PrimeField &f = mc.field();
        EXPECT_EQ(f.mul(fm.canonical(iss.state.x2),
                        f.inv(fm.canonical(iss.state.z2))),
                  *want)
            << "k=" << k;
    }
}

TEST_P(AvrLadderTest, HookStopsAheadOfAStep)
{
    OpfField fm(paperOpfPrime());
    OpfAvrLibrary lib(paperOpfPrime(), GetParam());
    auto a24m = fm.toMont(BigUInt(montgomeryOpfCurve().a24()));
    auto one = fm.toMont(BigUInt(1));
    auto x1m = fm.toMont(montgomeryOpfBasePoint().x);
    const LadderState<OpfField::Words> start{
        one, OpfField::Words(fm.words(), 0), x1m, one};

    // Stopped ahead of step 2, k = 0b1011 has run its top bits 0b10:
    // the state of the 2-bit ladder stopped ahead of its final swap.
    unsigned calls = 0;
    OpfLadderRun cut = lib.ladder(
        a24m, x1m, BigUInt(0xb), 4, start,
        [&](unsigned i, const LadderState<OpfField::Words> &) {
            calls++;
            return i < 2;
        });
    LadderState<OpfField::Words> top = montLadder(
        OpfFieldOps{fm, a24m}, x1m, start, BigUInt(0x2), 2,
        [](unsigned i, const LadderState<OpfField::Words> &) {
            return i < 2;
        });
    EXPECT_EQ(calls, 3u);
    EXPECT_FALSE(cut.trap);
    EXPECT_EQ(cut.state.x2, top.x2);
    EXPECT_EQ(cut.state.z2, top.z2);
    EXPECT_EQ(cut.state.x3, top.x3);
    EXPECT_EQ(cut.state.z3, top.z3);
}

INSTANTIATE_TEST_SUITE_P(CaAndIse, AvrLadderTest,
                         ::testing::Values(CpuMode::CA, CpuMode::ISE),
                         [](const ::testing::TestParamInfo<CpuMode> &info) {
                             return cpuModeName(info.param);
                         });
