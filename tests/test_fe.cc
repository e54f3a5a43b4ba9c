/**
 * @file
 * Differential oracle for the fixed-width field kernel: every Fe
 * operation of PrimeField (add, sub, neg, mul, sqr, mulSmall, inv,
 * fromBig/toBig) bit for bit against BigUInt addMod/subMod/mulMod/
 * invMod, on both reduction shapes (the secp160 folds and Montgomery
 * REDC) and on every modulus the curves and the service use: the two
 * secp160 primes, the paper and GLV OPF primes, the three group
 * orders, a small test prime, and a 192-bit prime.
 */

#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "curves/standard_curves.hh"
#include "field/prime_field.hh"
#include "field/secp160.hh"
#include "nt/opf_prime.hh"
#include "nt/primality.hh"

using namespace jaavr;

namespace
{

using Shape = PrimeField::Reduction;

struct Modulus
{
    const char *name;
    BigUInt (*value)();
    Shape shape;
};

const Modulus kModuli[] = {
    {"secp160r1_p", Secp160r1Field::primeValue, Shape::Fold},
    {"secp160k1_p", Secp160k1Field::primeValue, Shape::Fold},
    {"paper_opf_p", [] { return paperOpfPrime().p; }, Shape::Redc},
    {"glv_opf_p", [] { return glvOpfPrimeUsed().p; }, Shape::Redc},
    {"secp160r1_n", [] { return secp160r1Generator().order; }, Shape::Redc},
    {"secp160k1_n", [] { return secp160k1Curve().order(); }, Shape::Redc},
    {"glv_opf_n", [] { return glvOpfCurve().order(); }, Shape::Redc},
    {"p10007", [] { return BigUInt(10007); }, Shape::Redc},
    // NIST P-192's prime: the widest modulus an Fe holds, so REDC's
    // carry above the third word is live.
    {"p192",
     [] {
         return BigUInt::powerOfTwo(192) - BigUInt::powerOfTwo(64) -
                BigUInt(1);
     },
     Shape::Redc},
};

/** Test names print the modulus by name. */
void
PrintTo(const Modulus &m, std::ostream *os)
{
    *os << m.name;
}

/** Empty when every op on (a, b) matches the oracle, else the first
 *  mismatching op. a and b must be canonical. */
std::string
mismatch(const PrimeField &f, const BigUInt &a, const BigUInt &b)
{
    const BigUInt &p = f.modulus();
    Fe fa = f.fromBig(a), fb = f.fromBig(b);
    uint32_t c = b.low32() & 0xffff;
    std::string at = " at a=" + a.toHex() + " b=" + b.toHex();
    if (fa.toBig() != a || fb.toBig() != b)
        return "fromBig/toBig" + at;
    if (f.add(fa, fb).toBig() != a.addMod(b, p))
        return "add" + at;
    if (f.sub(fa, fb).toBig() != a.subMod(b, p))
        return "sub" + at;
    if (f.neg(fa).toBig() != BigUInt(0).subMod(a, p))
        return "neg" + at;
    if (f.mul(fa, fb).toBig() != a.mulMod(b, p))
        return "mul" + at;
    if (f.sqr(fa).toBig() != a.mulMod(a, p))
        return "sqr" + at;
    if (f.mulSmall(fa, c).toBig() != a.mulMod(BigUInt(c), p))
        return "mulSmall" + at;
    if (!a.isZero() && f.inv(fa).toBig() != a.invMod(p))
        return "inv" + at;
    return "";
}

/**
 * Canonical edge operands: the ends of the range, the halves, and
 * limb patterns of all ones (reduced into range). The pairwise
 * products include the (p-1)^2 worst case of the folds.
 */
std::vector<BigUInt>
edgeValues(const BigUInt &p)
{
    std::vector<BigUInt> v = {BigUInt(0), BigUInt(1), BigUInt(2),
                              p - BigUInt(1), p - BigUInt(2),
                              (p - BigUInt(1)) >> 1, (p + BigUInt(1)) >> 1};
    const BigUInt ones64 = BigUInt::powerOfTwo(64) - BigUInt(1);
    for (unsigned bits : {32u, 64u, 128u, 159u, 160u, 161u, 192u})
        v.push_back((BigUInt::powerOfTwo(bits) - BigUInt(1)) % p);
    for (unsigned shift : {64u, 128u})
        v.push_back((ones64 << shift) % p);
    v.push_back(BigUInt::powerOfTwo(159) % p);
    v.push_back(BigUInt::powerOfTwo(160) % p);
    return v;
}

class FeOracle : public ::testing::TestWithParam<Modulus>
{
  protected:
    BigUInt p = GetParam().value();
    PrimeField f{p};
};

} // namespace

TEST_P(FeOracle, ReductionMatchesModulusShape)
{
    EXPECT_EQ(f.reduction(), GetParam().shape);
    EXPECT_EQ(f.bits(), p.bitLength());
}

TEST_P(FeOracle, RandomPairs)
{
    Rng rng(0xfe00 + p.low32());
    for (int i = 0; i < 10000; i++) {
        BigUInt a = BigUInt::random(rng, p), b = BigUInt::random(rng, p);
        std::string bad = mismatch(f, a, b);
        ASSERT_EQ(bad, "");
    }
}

TEST_P(FeOracle, EdgeValues)
{
    std::vector<BigUInt> edges = edgeValues(p);
    for (const BigUInt &a : edges)
        for (const BigUInt &b : edges) {
            std::string bad = mismatch(f, a, b);
            ASSERT_EQ(bad, "");
        }
    // mulSmall's whole constant range ends, including c >= p for the
    // small prime.
    for (const BigUInt &a : edges)
        for (uint32_t c : {0u, 1u, 3u, 0xffffu}) {
            EXPECT_EQ(f.mulSmall(f.fromBig(a), c).toBig(),
                      a.mulMod(BigUInt(c), p));
        }
}

TEST_P(FeOracle, WideInputsReduceLikeModulo)
{
    // Values >= p enter through fromBig as t % p: the wrapper range
    // [p, 2^192) and beyond, as the BigUInt overloads see them.
    Rng rng(0xfe01 + p.low32());
    const BigUInt top = BigUInt::powerOfTwo(192);
    std::vector<BigUInt> wide = {p, p + BigUInt(1), p + p - BigUInt(1),
                                 top - BigUInt(1), top, top + p,
                                 BigUInt::powerOfTwo(320) - BigUInt(1)};
    for (int i = 0; i < 100; i++)
        wide.push_back(p + BigUInt::random(rng, top - p));
    for (const BigUInt &x : wide) {
        BigUInt xr = x % p;
        ASSERT_EQ(f.fromBig(x).toBig(), xr) << x.toHex();
        BigUInt y = wide[rng.below(wide.size())];
        BigUInt yr = y % p;
        EXPECT_EQ(f.add(x, y), xr.addMod(yr, p));
        EXPECT_EQ(f.sub(x, y), xr.subMod(yr, p));
        EXPECT_EQ(f.neg(x), BigUInt(0).subMod(xr, p));
        EXPECT_EQ(f.mul(x, y), (x * y) % p);
        EXPECT_EQ(f.sqr(x), (x * x) % p);
        EXPECT_EQ(f.mulSmall(x, 27), (x * BigUInt(27)) % p);
        if (!xr.isZero()) {
            EXPECT_EQ(f.inv(x), xr.invMod(p));
        }
    }
}

TEST_P(FeOracle, InverseCountsAsOneOp)
{
    FieldOpCounts counts;
    f.attachCounter(&counts);
    Fe x = f.inv(f.fromBig(p - BigUInt(2)));
    f.attachCounter(nullptr);
    EXPECT_EQ(f.mul(x, f.fromBig(p - BigUInt(2))), Fe::one());
    EXPECT_EQ(counts.inv, 1u);
    EXPECT_EQ(counts.mul + counts.sqr + counts.add + counts.sub, 0u);
}

INSTANTIATE_TEST_SUITE_P(Moduli, FeOracle, ::testing::ValuesIn(kModuli),
                         [](const ::testing::TestParamInfo<Modulus> &info) {
                             return std::string(info.param.name);
                         });

TEST(FeWidths, RandomPrimesAtLimbBoundaries)
{
    // The kernel serves every odd prime below 2^192: check random
    // primes on both sides of each 32- and 64-bit boundary, where the
    // limb count and the top limb's fill change.
    Rng rng(0xfe02);
    for (unsigned bits : {2u, 3u, 8u, 31u, 32u, 33u, 63u, 64u, 65u, 96u,
                          127u, 128u, 129u, 159u, 160u, 161u, 191u, 192u}) {
        BigUInt p;
        do
            p = BigUInt::randomBits(rng, bits - 1) +
                BigUInt::powerOfTwo(bits - 1);
        while (!p.isOdd() || !isProbablePrime(p, rng));
        PrimeField f(p);
        for (int i = 0; i < 300; i++) {
            BigUInt a = BigUInt::random(rng, p), b = BigUInt::random(rng, p);
            std::string bad = mismatch(f, a, b);
            ASSERT_EQ(bad, "") << bits << "-bit p = " << p.toHex();
        }
    }
}

TEST(Fe, PlainValueSemantics)
{
    Fe z;
    EXPECT_TRUE(z.isZero());
    EXPECT_FALSE(Fe::one().isZero());
    EXPECT_EQ(Fe::one().toBig(), BigUInt(1));
    Fe v{{~0ULL, ~0ULL, ~0ULL}};
    EXPECT_EQ(v.toBig(), BigUInt::powerOfTwo(192) - BigUInt(1));
    EXPECT_NE(v, z);
}

TEST(Fe, RejectsModuliOfTwoTo192OrMore)
{
    EXPECT_DEATH(PrimeField(BigUInt::powerOfTwo(192) + BigUInt(1)),
                 "exceeds");
    EXPECT_DEATH(PrimeField(BigUInt(1)), "odd prime");
    EXPECT_DEATH(PrimeField(BigUInt(10006)), "odd prime");
}
