/**
 * @file
 * Validation of the generated secp160r1 assembly routines against the
 * host golden field, plus the cycle comparison the paper's Table II
 * implies (secp160r1's multiplication is slightly more expensive than
 * the OPF one, and the additive reduction means the MAC unit helps it
 * less).
 */

#include <gtest/gtest.h>

#include "avrgen/opf_harness.hh"
#include "bigint/big_int.hh"
#include "field/secp160.hh"
#include "nt/mont_inverse.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

class Secp160AsmTest : public ::testing::TestWithParam<CpuMode>
{
  protected:
    Secp160AsmTest()
        : p(Secp160r1Field::primeValue()),
          lib(OpfAvrLibrary::secp160r1(GetParam())),
          rng(0x5ec9 + int(GetParam()))
    {}

    std::vector<uint32_t>
    words(const BigUInt &v)
    {
        return v.toWords(5);
    }

    BigUInt
    big(const std::vector<uint32_t> &w)
    {
        return BigUInt::fromWords(w);
    }

    BigUInt p;
    OpfAvrLibrary lib;
    Rng rng;
};

} // anonymous namespace

TEST_P(Secp160AsmTest, AddMatchesGolden)
{
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt::randomBits(rng, 160);
        BigUInt b = BigUInt::randomBits(rng, 160);
        OpfRun r = lib.add(words(a), words(b));
        EXPECT_EQ(big(r.result) % p, (a + b) % p)
            << a.toHex() << " + " << b.toHex();
        EXPECT_LE(big(r.result).bitLength(), 160u);
    }
}

TEST_P(Secp160AsmTest, SubMatchesGolden)
{
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt::randomBits(rng, 160);
        BigUInt b = BigUInt::randomBits(rng, 160);
        OpfRun r = lib.sub(words(a), words(b));
        EXPECT_EQ(big(r.result) % p, (BigInt(a) - BigInt(b)).mod(p))
            << a.toHex() << " - " << b.toHex();
    }
}

TEST_P(Secp160AsmTest, MulMatchesGolden)
{
    for (int i = 0; i < 60; i++) {
        BigUInt a = BigUInt::randomBits(rng, 160);
        BigUInt b = BigUInt::randomBits(rng, 160);
        OpfRun r = lib.mul(words(a), words(b));
        EXPECT_EQ(big(r.result) % p, a.mulMod(b, p))
            << a.toHex() << " * " << b.toHex();
        EXPECT_LE(big(r.result).bitLength(), 160u);
    }
}

TEST_P(Secp160AsmTest, MulEdgeOperands)
{
    std::vector<BigUInt> edges = {
        BigUInt(0), BigUInt(1), p - BigUInt(1), p,
        BigUInt::powerOfTwo(160) - BigUInt(1),
        BigUInt::powerOfTwo(31) + BigUInt(1),  // the fold constant
        BigUInt::powerOfTwo(159),
    };
    for (const BigUInt &a : edges)
        for (const BigUInt &b : edges)
            EXPECT_EQ(big(lib.mul(words(a), words(b)).result) % p,
                      a.mulMod(b, p))
                << a.toHex() << " * " << b.toHex();
}

TEST_P(Secp160AsmTest, InverseMatchesHostReference)
{
    for (int i = 0; i < 10; i++) {
        BigUInt a = BigUInt(1) + BigUInt::random(rng, p - BigUInt(1));
        OpfRun r = lib.inv(words(a));
        EXPECT_EQ(big(r.result), montInverse(a, p, 160)) << a.toHex();
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, Secp160AsmTest,
                         ::testing::Values(CpuMode::CA, CpuMode::FAST,
                                           CpuMode::ISE),
                         [](const ::testing::TestParamInfo<CpuMode> &info) {
                             return cpuModeName(info.param);
                         });

TEST(Secp160AsmCycles, SlightlySlowerThanOpfMul)
{
    // Table II implies the secp160r1 multiplication costs a few
    // percent more than the OPF one on native AVR.
    Rng rng(150);
    auto sec = OpfAvrLibrary::secp160r1(CpuMode::CA);
    OpfAvrLibrary opf(paperOpfPrime(), CpuMode::CA);
    OpfField f(paperOpfPrime());

    BigUInt a = BigUInt::randomBits(rng, 159);
    BigUInt b = BigUInt::randomBits(rng, 159);
    uint64_t sec_mul = sec.mul(a.toWords(5), b.toWords(5)).cycles;
    uint64_t opf_mul = opf.mul(f.fromBig(a), f.fromBig(b)).cycles;
    EXPECT_GT(sec_mul, opf_mul * 98 / 100);
    EXPECT_LT(sec_mul, opf_mul * 125 / 100);
}

TEST(Secp160AsmCycles, AdditiveReductionGainsNothingFromMac)
{
    // The paper's OPF motivation, measured: enabling the MAC-less
    // FAST->ISE transition changes nothing for secp160r1's reduction
    // (the generated routine uses no MAC), while the OPF mul drops 4x.
    Rng rng(151);
    auto fast = OpfAvrLibrary::secp160r1(CpuMode::FAST);
    auto ise = OpfAvrLibrary::secp160r1(CpuMode::ISE);
    BigUInt a = BigUInt::randomBits(rng, 159);
    BigUInt b = BigUInt::randomBits(rng, 159);
    EXPECT_EQ(fast.mul(a.toWords(5), b.toWords(5)).cycles,
              ise.mul(a.toWords(5), b.toWords(5)).cycles);
}

TEST(Secp160AsmCycles, MacProductVariantValidatesAndSpeeds)
{
    // The ISE variant runs the 25 product blocks on the MAC unit
    // (correctness identical, reduction unchanged) and lands between
    // the native secp160r1 mul and the full-OPF ISE mul.
    Rng rng(152);
    auto ise = OpfAvrLibrary::secp160r1(CpuMode::ISE);
    const BigUInt p = Secp160r1Field::primeValue();
    for (int i = 0; i < 40; i++) {
        BigUInt a = BigUInt::randomBits(rng, 160);
        BigUInt b = BigUInt::randomBits(rng, 160);
        OpfRun r = ise.mulIse(a.toWords(5), b.toWords(5));
        ASSERT_EQ(BigUInt::fromWords(r.result) % p, a.mulMod(b, p))
            << a.toHex() << " * " << b.toHex();
    }

    BigUInt a = BigUInt::randomBits(rng, 159);
    BigUInt b = BigUInt::randomBits(rng, 159);
    uint64_t mac_mul = ise.mulIse(a.toWords(5), b.toWords(5)).cycles;
    uint64_t native_mul = ise.mul(a.toWords(5), b.toWords(5)).cycles;
    OpfAvrLibrary opf(paperOpfPrime(), CpuMode::ISE);
    OpfField f(paperOpfPrime());
    uint64_t opf_mul =
        opf.mul(f.fromBig(a), f.fromBig(b)).cycles;
    EXPECT_LT(mac_mul, native_mul);   // the MAC product phase helps...
    EXPECT_GT(mac_mul, opf_mul);      // ...but the OPF still wins
}

TEST(Secp160AsmCycles, MulIseRequiresIseMode)
{
    Rng rng(153);
    auto ca = OpfAvrLibrary::secp160r1(CpuMode::CA);
    BigUInt a = BigUInt::randomBits(rng, 159);
    EXPECT_DEATH(ca.mulIse(a.toWords(5), a.toWords(5)),
                 "requires ISE");
}
