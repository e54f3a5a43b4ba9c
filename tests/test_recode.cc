/**
 * @file
 * Tests for the scalar recodings: binary, NAF, wNAF, JSF, and the GLV
 * decomposition.
 */

#include <gtest/gtest.h>

#include "bigint/big_int.hh"
#include "scalar/glv_decompose.hh"
#include "scalar/recode.hh"
#include "support/random.hh"

using namespace jaavr;

TEST(Recode, BinaryRoundTrip)
{
    Rng rng(60);
    for (int i = 0; i < 100; i++) {
        BigUInt k = BigUInt::randomBits(rng, 1 + rng.below(200));
        auto d = binaryDigits(k);
        EXPECT_EQ(digitsToScalar(d), k);
        for (int8_t v : d)
            EXPECT_TRUE(v == 0 || v == 1);
    }
}

TEST(Recode, NafRoundTripAndNonAdjacency)
{
    Rng rng(61);
    for (int i = 0; i < 200; i++) {
        BigUInt k = BigUInt::randomBits(rng, 1 + rng.below(200));
        auto d = wNafDigits(k, 2);
        EXPECT_EQ(digitsToScalar(d), k);
        for (size_t j = 0; j + 1 < d.size(); j++) {
            EXPECT_TRUE(d[j] >= -1 && d[j] <= 1);
            if (d[j] != 0) {
                EXPECT_EQ(d[j + 1], 0)
                    << "adjacent non-zeros at " << j;
            }
        }
    }
}

TEST(Recode, NafKnownValues)
{
    // 7 = 8 - 1 -> (-1, 0, 0, 1).
    auto d = wNafDigits(BigUInt(7), 2);
    ASSERT_EQ(d.size(), 4u);
    EXPECT_EQ(d[0], -1);
    EXPECT_EQ(d[1], 0);
    EXPECT_EQ(d[2], 0);
    EXPECT_EQ(d[3], 1);
    EXPECT_TRUE(wNafDigits(BigUInt(0), 2).empty());
}

TEST(Recode, NafDensityIsAboutOneThird)
{
    Rng rng(62);
    uint64_t nonzero = 0, total = 0;
    for (int i = 0; i < 100; i++) {
        auto d = wNafDigits(BigUInt::randomBits(rng, 160), 2);
        for (int8_t v : d)
            if (v != 0)
                nonzero++;
        total += d.size();
    }
    double density = double(nonzero) / double(total);
    EXPECT_GT(density, 0.30);
    EXPECT_LT(density, 0.37);
}

TEST(Recode, WNafRoundTripAndWindow)
{
    Rng rng(63);
    for (unsigned w = 2; w <= 6; w++) {
        for (int i = 0; i < 50; i++) {
            BigUInt k = BigUInt::randomBits(rng, 160);
            auto d = wNafDigits(k, w);
            EXPECT_EQ(digitsToScalar(d), k);
            int32_t bound = 1 << (w - 1);
            for (size_t j = 0; j < d.size(); j++) {
                EXPECT_LT(std::abs(int(d[j])), bound);
                if (d[j] != 0) {
                    EXPECT_TRUE(d[j] & 1);  // odd digits
                    for (size_t l = j + 1; l < j + w && l < d.size(); l++)
                        EXPECT_EQ(d[l], 0);
                }
            }
        }
    }
}

TEST(Recode, JsfRoundTripBothScalars)
{
    Rng rng(64);
    for (int i = 0; i < 200; i++) {
        BigUInt k1 = BigUInt::randomBits(rng, 1 + rng.below(90));
        BigUInt k2 = BigUInt::randomBits(rng, 1 + rng.below(90));
        auto d = jsfDigits(k1, k2);
        std::vector<int8_t> d1, d2;
        for (auto [u1, u2] : d) {
            d1.push_back(u1);
            d2.push_back(u2);
        }
        EXPECT_EQ(digitsToScalar(d1), k1);
        EXPECT_EQ(digitsToScalar(d2), k2);
    }
}

TEST(Recode, JsfJointDensityIsAboutHalf)
{
    // The JSF joint Hamming density of 1/2 is what gives the paper's
    // n/4 additions for the GLV method (Section II-D).
    Rng rng(65);
    uint64_t joint_nonzero = 0, total = 0;
    for (int i = 0; i < 100; i++) {
        auto d = jsfDigits(BigUInt::randomBits(rng, 81),
                           BigUInt::randomBits(rng, 81));
        for (auto [u1, u2] : d)
            if (u1 != 0 || u2 != 0)
                joint_nonzero++;
        total += d.size();
    }
    double density = double(joint_nonzero) / double(total);
    EXPECT_GT(density, 0.46);
    EXPECT_LT(density, 0.54);
}

TEST(Recode, JsfLengthAtMostOneOverMax)
{
    Rng rng(66);
    for (int i = 0; i < 50; i++) {
        BigUInt k1 = BigUInt::randomBits(rng, 80);
        BigUInt k2 = BigUInt::randomBits(rng, 80);
        auto d = jsfDigits(k1, k2);
        unsigned maxlen = std::max(k1.bitLength(), k2.bitLength());
        EXPECT_LE(d.size(), maxlen + 1);
    }
}

TEST(Recode, JsfZeroPairs)
{
    EXPECT_TRUE(jsfDigits(BigUInt(0), BigUInt(0)).empty());
    auto d = jsfDigits(BigUInt(1), BigUInt(0));
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].first, 1);
    EXPECT_EQ(d[0].second, 0);
}

TEST(GlvDecompose, HalfLengthProperty)
{
    // A synthetic (n, lambda): n a 160-bit prime, lambda a root of
    // x^2 + x + 1 would need a special n, but the decomposition only
    // needs *some* lambda in (0, n); use a random one and check the
    // defining identity plus the length bound.
    Rng rng(67);
    BigUInt n = BigUInt::fromHex(
        "0100000000000000000001f4c8f927aed3ca752257");  // secp160r1 n
    BigUInt lambda = BigUInt::random(rng, n);
    GlvDecomposer dec(n, lambda);
    for (int i = 0; i < 100; i++) {
        BigUInt k = BigUInt::random(rng, n);
        GlvSplit s = dec.decompose(k);
        BigUInt rebuilt = (s.k1 + s.k2 * BigInt(lambda)).mod(n);
        EXPECT_EQ(rebuilt, k);
        // |k1|, |k2| around sqrt(n): allow a few bits of slack.
        EXPECT_LE(s.k1.magnitude().bitLength(), 86u);
        EXPECT_LE(s.k2.magnitude().bitLength(), 86u);
    }
}

TEST(GlvDecompose, BasisVectorsInLattice)
{
    Rng rng(68);
    BigUInt n = BigUInt::fromHex(
        "0100000000000000000001f4c8f927aed3ca752257");
    BigUInt lambda = BigUInt::random(rng, n);
    GlvDecomposer dec(n, lambda);
    auto check = [&](const BigInt &a, const BigInt &b) {
        EXPECT_TRUE((a + b * BigInt(lambda)).mod(n).isZero());
    };
    check(dec.a1(), dec.b1());
    check(dec.a2(), dec.b2());
}

TEST(GlvDecompose, ZeroAndSmallScalars)
{
    Rng rng(69);
    BigUInt n = BigUInt::fromHex(
        "0100000000000000000001f4c8f927aed3ca752257");
    BigUInt lambda = BigUInt::random(rng, n);
    GlvDecomposer dec(n, lambda);
    for (uint64_t k : {0ULL, 1ULL, 2ULL, 12345ULL}) {
        GlvSplit s = dec.decompose(BigUInt(k));
        EXPECT_EQ((s.k1 + s.k2 * BigInt(lambda)).mod(n),
                  BigUInt(k) % n);
    }
}
