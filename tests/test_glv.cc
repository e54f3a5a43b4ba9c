/**
 * @file
 * Tests for the GLV curve machinery: CM order computation on the
 * constructed OPF curve, the published secp160k1 parameters as an
 * independent anchor, endomorphism/eigenvalue consistency, and the
 * GLV+JSF multiplication against plain methods; and pins of every
 * curve constant the set-up derives from square roots and random
 * draws (ConstructedConstants.*).
 */

#include <gtest/gtest.h>

#include "curves/standard_curves.hh"
#include "nt/cornacchia.hh"
#include "nt/primality.hh"

using namespace jaavr;

namespace
{

void
expectEq(const AffinePoint &a, const AffinePoint &b, const char *what)
{
    EXPECT_EQ(a.inf, b.inf) << what;
    if (!a.inf && !b.inf) {
        EXPECT_EQ(a.x, b.x) << what;
        EXPECT_EQ(a.y, b.y) << what;
    }
}

} // anonymous namespace

TEST(Secp160k1, PublishedParametersValidate)
{
    // The GlvCurve constructor itself checks G on curve, n G = O and
    // phi(G) = lambda G; reaching here means the published constants
    // and our beta/lambda derivation are consistent.
    const GlvCurve &c = secp160k1Curve();
    EXPECT_EQ(c.params().b.toUint64(), 7u);
    EXPECT_EQ(c.params().cofactor.toUint64(), 1u);
    Rng rng(90);
    EXPECT_TRUE(isProbablePrime(c.order(), rng));
}

TEST(Secp160k1, GlvJsfMatchesNaf)
{
    const GlvCurve &c = secp160k1Curve();
    Rng rng(91);
    AffinePoint g = c.generator();
    for (int i = 0; i < 6; i++) {
        BigUInt k = BigUInt::random(rng, c.order());
        expectEq(c.mulGlvJsf(k, g), c.mulNaf(k, g), "GLV vs NAF");
    }
    // The co-Z ladder's last step meets r0 + r1 = O at k = n-1.
    expectEq(c.mulLadder(c.order() - BigUInt(1), g), c.negate(g),
             "ladder (n-1)G");
    const BigUInt k2 = c.order() - BigUInt(2);
    expectEq(c.mulLadder(k2, g), c.mulNaf(k2, g), "ladder (n-2)G");
}

TEST(Secp160k1, EndomorphismIsGroupHomomorphism)
{
    const GlvCurve &c = secp160k1Curve();
    Rng rng(92);
    AffinePoint g = c.generator();
    BigUInt k = BigUInt::random(rng, c.order());
    // phi(k G) == k phi(G).
    expectEq(c.phi(c.mulNaf(k, g)), c.mulNaf(k, c.phi(g)), "phi hom");
    // phi(P) is on the curve.
    EXPECT_TRUE(c.onCurve(c.phi(g)));
}

// GlvCurve's constructor is the only check of a GLV signer's G and n
// (Ecdsa(const GlvCurve &) relies on it), so each of its checks must
// fire on its own.
TEST(GlvCurveChecks, RejectsInvalidParameters)
{
    const Secp160k1Field &f = secp160k1Field();
    const GlvParams good = secp160k1Curve().params();

    GlvParams wideX = good;  // the same point, x not reduced
    wideX.gx = good.gx + f.modulus();
    EXPECT_DEATH(GlvCurve(f, wideX), "coordinates not below p");

    GlvParams offCurve = good;
    offCurve.gy = f.add(good.gy, BigUInt(1));
    EXPECT_DEATH(GlvCurve(f, offCurve), "not on curve");

    GlvParams wrongOrder = good;
    wrongOrder.order = good.order + BigUInt(2);
    EXPECT_DEATH(GlvCurve(f, wrongOrder), "order mismatch");

    GlvParams wrongLambda = good;  // the other cube root of unity mod n
    wrongLambda.lambda = good.lambda.mulMod(good.lambda, good.order);
    EXPECT_DEATH(GlvCurve(f, wrongLambda), "phi\\(G\\) != lambda G");

    GlvCurve ok(f, good, "secp160k1");  // the published set passes
    EXPECT_EQ(ok.order(), good.order);
}

TEST(GlvOpf, ConstructedCurveValidates)
{
    const GlvCurve &c = glvOpfCurve();
    Rng rng(93);
    EXPECT_TRUE(isProbablePrime(c.order(), rng));
    EXPECT_LE(c.params().cofactor.toUint64(), 8u);
    EXPECT_TRUE(c.onCurve(c.generator()));
    // order * cofactor is a valid group order in the Hasse interval.
    BigUInt full = c.order() * c.params().cofactor;
    const BigUInt &p = c.field().modulus();
    BigUInt four_sqrt_p = BigUInt(4) << 80;  // loose 4*sqrt(p) bound
    EXPECT_LT(full, p + BigUInt(1) + four_sqrt_p);
    EXPECT_GT(full + four_sqrt_p, p + BigUInt(1));
}

TEST(GlvOpf, CandidateOrdersContainHasseValues)
{
    Rng rng(94);
    const BigUInt &p = glvOpfField().modulus();
    CmDecomposition cm = cmDecompose4p(p, rng);
    auto cands = GlvCurve::candidateOrders(p, cm.l, cm.m);
    EXPECT_GE(cands.size(), 4u);
    // Every candidate satisfies the Hasse bound |t| <= 2 sqrt(p).
    for (const BigUInt &n : cands) {
        BigInt t = BigInt(p + BigUInt(1)) - BigInt(n);
        EXPECT_LE(t.magnitude() * t.magnitude(), p << 2);
    }
}

TEST(GlvOpf, GlvJsfMatchesOtherMethods)
{
    const GlvCurve &c = glvOpfCurve();
    Rng rng(95);
    AffinePoint g = c.generator();
    for (int i = 0; i < 5; i++) {
        BigUInt k = BigUInt::random(rng, c.order());
        AffinePoint r = c.mulNaf(k, g);
        expectEq(c.mulGlvJsf(k, g), r, "GLV vs NAF (OPF)");
        expectEq(c.mulLadder(k, g), r, "ladder vs NAF (OPF)");
        expectEq(c.mulDaaa(k, g), r, "DAAA vs NAF (OPF)");
    }
}

TEST(GlvOpf, GlvJsfEdgeScalars)
{
    const GlvCurve &c = glvOpfCurve();
    AffinePoint g = c.generator();
    // k = 0 -> infinity; k = 1 -> G; k = n -> infinity; k = n-1 -> -G.
    EXPECT_TRUE(c.mulGlvJsf(BigUInt(0), g).inf);
    expectEq(c.mulGlvJsf(BigUInt(1), g), g, "1*G");
    EXPECT_TRUE(c.mulGlvJsf(c.order(), g).inf);
    expectEq(c.mulGlvJsf(c.order() - BigUInt(1), g), c.negate(g), "(n-1)G");
    expectEq(c.mulLadder(c.order() - BigUInt(1), g), c.negate(g),
             "ladder (n-1)G");
    const BigUInt k2 = c.order() - BigUInt(2);
    expectEq(c.mulLadder(k2, g), c.mulNaf(k2, g), "ladder (n-2)G");
}

TEST(GlvOpf, SubgroupMembersWork)
{
    // Any multiple of G is in the prime subgroup; GLV must be exact
    // on all of them.
    const GlvCurve &c = glvOpfCurve();
    Rng rng(96);
    AffinePoint p = c.mulNaf(BigUInt::random(rng, c.order()),
                             c.generator());
    BigUInt k = BigUInt::random(rng, c.order());
    expectEq(c.mulGlvJsf(k, p), c.mulNaf(k, p), "GLV on subgroup point");
}

TEST(GlvOpf, DecompositionHalvesLength)
{
    const GlvCurve &c = glvOpfCurve();
    Rng rng(97);
    unsigned max_len = 0;
    for (int i = 0; i < 50; i++) {
        GlvSplit s = c.decomposer().decompose(
            BigUInt::random(rng, c.order()));
        max_len = std::max(max_len, s.k1.magnitude().bitLength());
        max_len = std::max(max_len, s.k2.magnitude().bitLength());
    }
    // Half of 160 plus a couple of slack bits.
    EXPECT_LE(max_len, 84u);
}

TEST(GlvOpf, EndomorphismCharacteristicPolynomial)
{
    // phi^2 + phi + 1 = 0: phi(phi(P)) + phi(P) + P = O.
    const GlvCurve &c = glvOpfCurve();
    Rng rng(98);
    AffinePoint p = c.mulNaf(BigUInt::random(rng, c.order()),
                             c.generator());
    auto sum = c.addMixed(c.addMixed(c.toJacobian(c.phi(c.phi(p))),
                                     c.phi(p)), p);
    EXPECT_TRUE(sum.isInfinity());
}

// The set-up derives these constants from modular square roots whose
// sign (r or p - r) follows the Rng draws and the root loop's path,
// so a change to the number theory that returns the other root moves
// them although every curve check still passes. Recorded in hex from
// the BigUInt Tonelli-Shanks and Miller-Rabin loops.

TEST(ConstructedConstants, GlvOpfCurve)
{
    const GlvParams &prm = glvOpfCurve().params();
    EXPECT_EQ(glvOpfPrimeUsed().u, 0xff51u);
    EXPECT_EQ(glvOpfPrimeUsed().p.toHex(),
              "ff51000000000000000000000000000000000001");
    EXPECT_EQ(prm.b.toHex(), "a");
    EXPECT_EQ(prm.cofactor.toHex(), "1");
    EXPECT_EQ(prm.order.toHex(), "ff5100000000000000006a92d0a9ae5e1fd462b3");
    EXPECT_EQ(prm.beta.toHex(), "f097687e9733c5866d52ff5d620e23459596011a");
    EXPECT_EQ(prm.lambda.toHex(),
              "530ce93c29ce45b67c155bc045ef63bd7d690118");
    EXPECT_EQ(prm.gx.toHex(), "608ff53b3949ebc15ba461e6fd6888b57b2e5a31");
    EXPECT_EQ(prm.gy.toHex(), "8201b1b7161fb70f8d303919b7ce7049b9d34895");
}

TEST(ConstructedConstants, Secp160k1Endomorphism)
{
    const GlvParams &prm = secp160k1Curve().params();
    EXPECT_EQ(prm.beta.toHex(), "645b7345a143464942cc46d7cf4d5d1e1e6cbb68");
    EXPECT_EQ(prm.lambda.toHex(),
              "f3c6393c4c5c9288fe47f1dff787a6ec6d16b2be");
}

TEST(ConstructedConstants, OpfBasePoints)
{
    const AffinePoint w = weierstrassOpfBasePoint();
    EXPECT_EQ(w.x.toHex(), "2");
    EXPECT_EQ(w.y.toHex(), "3");
    const AffinePoint m = montgomeryOpfBasePoint();
    EXPECT_EQ(m.x.toHex(), "4");
    EXPECT_EQ(m.y.toHex(), "17467b29ff285d6666dc55f10822f8ceb19ddbf2");
    const AffinePoint e = edwardsOpfBasePoint();
    EXPECT_EQ(e.x.toHex(), "51ae6e9d47190d8045482d4eb25c420d513441da");
    EXPECT_EQ(e.y.toHex(), "4");
}
