/**
 * @file
 * Unit and property tests for PrimeField and the secp160 fields (the
 * bit-for-bit differential check of the Fe kernel against BigUInt is
 * test_fe.cc).
 */

#include <gtest/gtest.h>

#include "field/prime_field.hh"
#include "field/secp160.hh"
#include "nt/opf_prime.hh"
#include "nt/primality.hh"

using namespace jaavr;

namespace
{

/** Field-axiom property pack run against any PrimeField instance. */
void
checkFieldAxioms(const PrimeField &f, uint64_t seed)
{
    Rng rng(seed);
    for (int i = 0; i < 50; i++) {
        BigUInt a = f.random(rng), b = f.random(rng), c = f.random(rng);
        // Commutativity / associativity / distributivity.
        EXPECT_EQ(f.add(a, b), f.add(b, a));
        EXPECT_EQ(f.mul(a, b), f.mul(b, a));
        EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
        EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        // Inverses.
        EXPECT_TRUE(f.add(a, f.neg(a)).isZero());
        EXPECT_EQ(f.sub(a, b), f.add(a, f.neg(b)));
        if (!a.isZero()) {
            EXPECT_TRUE(f.mul(a, f.inv(a)).isOne());
        }
        // Squaring matches multiplication.
        EXPECT_EQ(f.sqr(a), f.mul(a, a));
        // All results in canonical range.
        EXPECT_LT(f.mul(a, b), f.modulus());
        EXPECT_LT(f.add(a, b), f.modulus());
        EXPECT_LT(f.sub(a, b), f.modulus());
    }
}

} // anonymous namespace

TEST(PrimeField, AxiomsOverPaperOpfPrime)
{
    PrimeField f(paperOpfPrime().p);
    checkFieldAxioms(f, 21);
}

TEST(PrimeField, AxiomsOverSmallPrime)
{
    PrimeField f(BigUInt(10007));
    checkFieldAxioms(f, 22);
}

TEST(PrimeField, MulSmallMatchesMul)
{
    PrimeField f(paperOpfPrime().p);
    Rng rng(23);
    for (int i = 0; i < 30; i++) {
        BigUInt a = f.random(rng);
        uint32_t c = rng.next32() & 0xffff;
        EXPECT_EQ(f.mulSmall(a, c), f.mul(a, f.fromUint(c)));
    }
}

TEST(PrimeField, ExpAndFermat)
{
    PrimeField f(BigUInt(10007));
    Rng rng(24);
    for (int i = 0; i < 20; i++) {
        BigUInt a = f.random(rng);
        if (a.isZero())
            continue;
        EXPECT_TRUE(f.exp(a, f.modulus() - BigUInt(1)).isOne());
        // Inverse via Fermat equals inverse via Euclid.
        EXPECT_EQ(f.exp(a, f.modulus() - BigUInt(2)), f.inv(a));
    }
}

TEST(PrimeField, SqrtRoundTrip)
{
    PrimeField f(paperOpfPrime().p);
    Rng rng(25);
    for (int i = 0; i < 10; i++) {
        BigUInt a = f.random(rng);
        BigUInt sq = f.sqr(a);
        EXPECT_TRUE(f.isSquare(sq));
        auto r = f.sqrt(sq, rng);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(f.sqr(*r), sq);
    }
}

TEST(PrimeField, NegZeroIsZero)
{
    PrimeField f(BigUInt(10007));
    EXPECT_TRUE(f.neg(BigUInt(0)).isZero());
}

TEST(PrimeField, CounterTracksOps)
{
    PrimeField f(BigUInt(10007));
    FieldOpCounts counts;
    f.attachCounter(&counts);
    Rng rng(26);
    BigUInt a = f.random(rng), b = f.random(rng);
    f.mul(a, b);
    f.mul(a, b);
    f.sqr(a);
    f.add(a, b);
    f.sub(a, b);
    f.neg(a);
    f.mulSmall(a, 7);
    if (!a.isZero())
        f.inv(a);
    f.attachCounter(nullptr);
    f.mul(a, b);  // not counted
    EXPECT_EQ(counts.mul, 2u);
    EXPECT_EQ(counts.sqr, 1u);
    EXPECT_EQ(counts.add, 1u);
    EXPECT_EQ(counts.sub, 2u);  // sub + neg
    EXPECT_EQ(counts.mulSmall, 1u);
    EXPECT_EQ(counts.inv, a.isZero() ? 0u : 1u);
}

TEST(PrimeField, CountsAddUp)
{
    FieldOpCounts a, b;
    a.mul = 3;
    a.inv = 1;
    b.mul = 2;
    b.sqr = 7;
    FieldOpCounts s = a + b;
    EXPECT_EQ(s.mul, 5u);
    EXPECT_EQ(s.sqr, 7u);
    EXPECT_EQ(s.inv, 1u);
    s.reset();
    EXPECT_EQ(s.mul, 0u);
}

TEST(Secp160r1, PrimeShape)
{
    BigUInt p = Secp160r1Field::primeValue();
    EXPECT_EQ(p.toHex(), "ffffffffffffffffffffffffffffffff7fffffff");
    Rng rng(27);
    EXPECT_TRUE(isProbablePrime(p, rng));
}

TEST(Secp160r1, Axioms)
{
    Secp160r1Field f;
    checkFieldAxioms(f, 29);
}

TEST(Secp160k1, PrimeShapeAndReduction)
{
    BigUInt p = Secp160k1Field::primeValue();
    EXPECT_EQ(p.toHex(), "fffffffffffffffffffffffffffffffeffffac73");
    Rng rng(30);
    EXPECT_TRUE(isProbablePrime(p, rng));

    Secp160k1Field f;
    EXPECT_EQ(f.reduction(), PrimeField::Reduction::Fold);
    for (int i = 0; i < 100; i++) {
        BigUInt a = f.random(rng), b = f.random(rng);
        EXPECT_EQ(f.mul(a, b), a.mulMod(b, p));
    }
}

TEST(Secp160k1, Axioms)
{
    Secp160k1Field f;
    checkFieldAxioms(f, 31);
}
