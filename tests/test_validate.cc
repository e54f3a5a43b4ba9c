/**
 * @file
 * Unified scalar/point validation and the hardened multiplications:
 * canonical-range and on-curve rejection, subgroup membership via
 * the counted small-curve pair, the Hasse cofactor rule that skips it
 * on the service curves, agreement of the hardened paths with
 * the plain algorithms, and the Ecdsa integration (invalid private
 * scalars are fatal, invalid public keys unverifiable).
 */

#include <gtest/gtest.h>

#include <utility>

#include "curves/ecdsa.hh"
#include "curves/small_curves.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "nt/primality.hh"
#include "support/random.hh"

using namespace jaavr;

TEST(Validate, ScalarRange)
{
    BigUInt n = BigUInt::fromHex("100000000000000000001b8fa16dfab9aca16b6b3");
    EXPECT_FALSE(validScalar(BigUInt(0), n));
    EXPECT_TRUE(validScalar(BigUInt(1), n));
    EXPECT_TRUE(validScalar(n - BigUInt(1), n));
    EXPECT_FALSE(validScalar(n, n));
    EXPECT_FALSE(validScalar(n + BigUInt(1), n));
}

TEST(Validate, WeierstrassPointChecks)
{
    const WeierstrassCurve &c = secp160r1Curve();
    const CurveGenerator &gen = secp160r1Generator();
    EXPECT_TRUE(validatePoint(c, gen.g));
    EXPECT_TRUE(validatePoint(c, gen.g, &gen.order));

    EXPECT_FALSE(validatePoint(c, AffinePoint::infinity()));

    // Off-curve: perturb y.
    AffinePoint bad(gen.g.x, c.field().add(gen.g.y, BigUInt(1)));
    EXPECT_FALSE(validatePoint(c, bad));

    // Non-canonical coordinates are rejected even though they reduce
    // to a curve point.
    AffinePoint wide(gen.g.x + c.field().modulus(), gen.g.y);
    EXPECT_FALSE(validatePoint(c, wide));
}

TEST(Validate, SubgroupMembershipOnCofactorCurve)
{
    // The small pair's Weierstrass image has cofactor 4 or 8: a
    // generic random point is on the curve but outside the order-n
    // subgroup, which only the order check catches.
    const SmallCurvePair &pair = smallCurvePair();
    WeierstrassCurve w = pair.montgomery.toWeierstrass();
    AffinePoint base_w = pair.montgomery.mapToWeierstrass(pair.montBase);
    EXPECT_TRUE(validatePoint(w, base_w, &pair.n));

    Rng rng(7);
    bool rejected_full_order = false;
    for (int i = 0; i < 16 && !rejected_full_order; i++) {
        AffinePoint p =
            pair.montgomery.mapToWeierstrass(pair.montgomery.randomPoint(rng));
        ASSERT_TRUE(validatePoint(w, p)); // on curve
        if (!validatePoint(w, p, &pair.n))
            rejected_full_order = true;
    }
    EXPECT_TRUE(rejected_full_order);
}

TEST(Validate, CofactorRuleSkipsOrderProduct)
{
    // Field ops of onCurve(q) and of validatePoint(c, q, &n).
    auto counts = [](const WeierstrassCurve &c, const AffinePoint &q,
                     const BigUInt &n) {
        std::pair<FieldOpCounts, FieldOpCounts> ops;
        c.field().attachCounter(&ops.first);
        EXPECT_TRUE(c.onCurve(q));
        c.field().attachCounter(&ops.second);
        EXPECT_TRUE(validatePoint(c, q, &n));
        c.field().attachCounter(nullptr);
        return ops;
    };

    // On the three service curves Hasse's bound proves cofactor 1, so
    // validatePoint(c, Q, &n) runs exactly onCurve's field ops.
    struct Case
    {
        const WeierstrassCurve &c;
        AffinePoint g;
        BigUInt n;
    };
    const Case cases[] = {
        {secp160r1Curve(), secp160r1Generator().g, secp160r1Generator().order},
        {secp160k1Curve(), secp160k1Curve().generator(),
         secp160k1Curve().order()},
        {glvOpfCurve(), glvOpfCurve().generator(), glvOpfCurve().order()},
    };
    for (const Case &cs : cases) {
        EXPECT_TRUE(hasseProvesCofactorOne(cs.c.field().modulus(), cs.n))
            << cs.c.name();
        auto [on_curve, validated] =
            counts(cs.c, cs.c.mulNaf(BigUInt(0x1234567), cs.g), cs.n);
        EXPECT_EQ(validated.mul, on_curve.mul) << cs.c.name();
        EXPECT_EQ(validated.sqr, on_curve.sqr) << cs.c.name();
        EXPECT_EQ(validated.add, on_curve.add) << cs.c.name();
        EXPECT_EQ(validated.inv, 0u) << cs.c.name();
    }

    // The small pair's image (cofactor 4 or 8) keeps the product.
    const SmallCurvePair &pair = smallCurvePair();
    WeierstrassCurve w = pair.montgomery.toWeierstrass();
    EXPECT_FALSE(hasseProvesCofactorOne(w.field().modulus(), pair.n));
    auto [on_curve, validated] = counts(
        w, pair.montgomery.mapToWeierstrass(pair.montBase), pair.n);
    EXPECT_GT(validated.mul, on_curve.mul);
}

TEST(Validate, HasseCofactorRuleEdges)
{
    // p = 101: the bound is p + 1 + 2 sqrt(p) = 122.1, so 2n must be
    // at least 123 (n >= 62); the squared test must not round.
    BigUInt p(101);
    EXPECT_FALSE(hasseProvesCofactorOne(p, BigUInt(50)));
    EXPECT_FALSE(hasseProvesCofactorOne(p, BigUInt(61)));
    EXPECT_TRUE(hasseProvesCofactorOne(p, BigUInt(62)));
    EXPECT_TRUE(hasseProvesCofactorOne(p, BigUInt(103)));
    // p = 121 (a square, for the arithmetic only): the bound is
    // exactly 144, and 2n = 144 does not exceed it.
    EXPECT_FALSE(hasseProvesCofactorOne(BigUInt(121), BigUInt(72)));
    EXPECT_TRUE(hasseProvesCofactorOne(BigUInt(121), BigUInt(73)));
}

TEST(Validate, EdwardsPointChecks)
{
    const SmallCurvePair &pair = smallCurvePair();
    const EdwardsCurve &e = pair.edwards;
    EXPECT_TRUE(validatePoint(e, pair.edBase, &pair.n));
    EXPECT_FALSE(validatePoint(e, e.identity()));
    EXPECT_FALSE(validatePoint(e, AffinePoint::infinity()));
    AffinePoint bad(pair.edBase.x,
                    e.field().add(pair.edBase.y, BigUInt(1)));
    EXPECT_FALSE(validatePoint(e, bad));

    // A random full-order point fails the subgroup check.
    Rng rng(9);
    bool rejected = false;
    for (int i = 0; i < 16 && !rejected; i++) {
        AffinePoint p = e.randomPoint(rng);
        if (validatePoint(e, p) && !validatePoint(e, p, &pair.n))
            rejected = true;
    }
    EXPECT_TRUE(rejected);

    // Small-order points fail even without an order: (0, -1) of
    // order 2 and (+-sqrt(-1), 0) of order 4.
    const PrimeField &f = e.field();
    BigUInt sqrtM1 = *f.sqrt(f.neg(BigUInt(1)), rng);
    for (const AffinePoint &q : {AffinePoint(BigUInt(0), f.neg(BigUInt(1))),
                                 AffinePoint(sqrtM1, BigUInt(0)),
                                 AffinePoint(f.neg(sqrtM1), BigUInt(0))}) {
        ASSERT_TRUE(e.onCurve(q));
        EXPECT_FALSE(validatePoint(e, q)) << q.x.toHex();
    }
}

TEST(Validate, MontgomeryXChecks)
{
    const SmallCurvePair &pair = smallCurvePair();
    const MontgomeryCurve &m = pair.montgomery;
    EXPECT_TRUE(validateX(m, pair.montBase.x));
    EXPECT_FALSE(validateX(m, BigUInt(0)));            // order 2
    EXPECT_FALSE(validateX(m, m.field().modulus()));   // non-canonical

    // Roughly half the field is off-curve; find one such x.
    bool rejected_twist = false;
    for (uint64_t xi = 1; xi < 64 && !rejected_twist; xi++)
        if (!validateX(m, BigUInt(xi)))
            rejected_twist = true;
    EXPECT_TRUE(rejected_twist);
}

TEST(Validate, MontgomeryXMatchesInverseFormula)
{
    // validateX tests rhs * B for squareness; the old formula divided
    // by B. Compare both on every x of the small pair and on seeded
    // random x of the paper's OPF curve, curve and twist alike.
    auto inverseFormula = [](const MontgomeryCurve &m, const BigUInt &x) {
        const PrimeField &f = m.field();
        if (!(x < f.modulus()))
            return false;
        BigUInt rhs = f.mul(x, f.add(f.add(f.sqr(x), f.mul(m.coeffA(), x)),
                                     BigUInt(1)));
        return !rhs.isZero() && f.isSquare(f.mul(rhs, f.inv(m.coeffB())));
    };
    const MontgomeryCurve &small = smallCurvePair().montgomery;
    unsigned on_curve = 0;
    for (uint64_t x = 0; x < small.field().modulus().limb(0) + 2u; x++) {
        bool want = inverseFormula(small, BigUInt(x));
        ASSERT_EQ(validateX(small, BigUInt(x)), want) << x;
        on_curve += want;
    }
    EXPECT_GT(on_curve, 0u);

    const MontgomeryCurve &opf = montgomeryOpfCurve();
    Rng rng(31337);
    unsigned curve_x = 0, twist_x = 0;
    for (int i = 0; i < 200; i++) {
        BigUInt x = opf.field().random(rng);
        bool want = inverseFormula(opf, x);
        ASSERT_EQ(validateX(opf, x), want) << x.toHex();
        (want ? curve_x : twist_x)++;
    }
    EXPECT_GT(curve_x, 50u);
    EXPECT_GT(twist_x, 50u);
}

TEST(Validate, SmallPairConstructionInvariants)
{
    const SmallCurvePair &pair = smallCurvePair();
    Rng rng(11);
    EXPECT_TRUE(isProbablePrime(pair.n, rng));
    EXPECT_TRUE(pair.cofactor == BigUInt(4) || pair.cofactor == BigUInt(8));
    EXPECT_EQ(pair.groupOrder % pair.n, BigUInt(0));
    EXPECT_EQ(pair.groupOrder, pair.n * pair.cofactor);
    EXPECT_TRUE(pair.montgomery.onCurve(pair.montBase));
    EXPECT_TRUE(pair.edwards.onCurve(pair.edBase));
    EXPECT_TRUE(pair.edwards.isComplete());
}

TEST(Validate, HardenedWeierstrassAgreesAndRejects)
{
    const WeierstrassCurve &c = secp160r1Curve();
    const CurveGenerator &gen = secp160r1Generator();
    Rng rng(21);
    BigUInt k = BigUInt(1) + BigUInt::random(rng, gen.order - BigUInt(1));

    HardenedMul r = hardenedMulWeierstrass(c, k, gen.g, gen.order);
    ASSERT_TRUE(r.ok) << r.reason;
    AffinePoint expect = c.mulNaf(k, gen.g);
    EXPECT_EQ(r.point.x, expect.x);
    EXPECT_EQ(r.point.y, expect.y);

    EXPECT_EQ(hardenedMulWeierstrass(c, BigUInt(0), gen.g, gen.order)
                  .reason,
              "invalid scalar");
    EXPECT_EQ(hardenedMulWeierstrass(c, gen.order, gen.g, gen.order)
                  .reason,
              "invalid scalar");
    AffinePoint bad(gen.g.x, c.field().add(gen.g.y, BigUInt(1)));
    EXPECT_EQ(hardenedMulWeierstrass(c, k, bad, gen.order).reason,
              "invalid input point");
}

TEST(Validate, HardenedGlvAgrees)
{
    const GlvCurve &c = secp160k1Curve();
    Rng rng(22);
    BigUInt k = BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    HardenedMul r = hardenedMulGlv(c, k, c.generator());
    ASSERT_TRUE(r.ok) << r.reason;
    AffinePoint expect = c.mulGlvJsf(k, c.generator());
    EXPECT_EQ(r.point.x, expect.x);
    EXPECT_EQ(r.point.y, expect.y);
}

TEST(Validate, HardenedEdwardsAgreesAndRejects)
{
    const SmallCurvePair &pair = smallCurvePair();
    Rng rng(23);
    BigUInt k = BigUInt(1) + BigUInt::random(rng, pair.n - BigUInt(1));
    HardenedMul r =
        hardenedMulEdwards(pair.edwards, k, pair.edBase, pair.n);
    ASSERT_TRUE(r.ok) << r.reason;
    AffinePoint expect = pair.edwards.mulBinary(k, pair.edBase);
    EXPECT_EQ(r.point.x, expect.x);
    EXPECT_EQ(r.point.y, expect.y);

    EXPECT_EQ(hardenedMulEdwards(pair.edwards, k,
                                 pair.edwards.identity(), pair.n)
                  .reason,
              "invalid input point");
}

TEST(Validate, HardenedMontgomeryAgreesAndRejects)
{
    const SmallCurvePair &pair = smallCurvePair();
    Rng rng(24);
    BigUInt k = BigUInt(1) + BigUInt::random(rng, pair.n - BigUInt(1));
    HardenedMul r = hardenedMulMontgomery(pair.montgomery, k,
                                          pair.montBase.x, pair.n);
    ASSERT_TRUE(r.ok) << r.reason;
    auto expect = pair.montgomery.ladder(k, pair.montBase.x);
    ASSERT_TRUE(expect.has_value());
    ASSERT_TRUE(r.x.has_value());
    EXPECT_EQ(*r.x, *expect);

    EXPECT_EQ(hardenedMulMontgomery(pair.montgomery, BigUInt(0),
                                    pair.montBase.x, pair.n)
                  .reason,
              "invalid scalar");
    EXPECT_EQ(hardenedMulMontgomery(pair.montgomery, k, BigUInt(0),
                                    pair.n)
                  .reason,
              "invalid input point");
}

TEST(Validate, EcdsaSignRejectsOutOfRangeScalar)
{
    Ecdsa dsa(secp160r1Curve(), secp160r1Generator().g,
              secp160r1Generator().order);
    Rng rng(25);
    EXPECT_DEATH(dsa.sign("msg", BigUInt(0), rng), "out of range");
    EXPECT_DEATH(dsa.sign("msg", dsa.order(), rng), "out of range");
}

TEST(Validate, EcdsaConstructorChecksOrder)
{
    // validatePoint trusts n on cofactor-1 curves, so the constructor
    // must multiply n * G out itself: a wrong n stays fatal.
    const GlvCurve &k1 = secp160k1Curve();
    EXPECT_DEATH(Ecdsa(k1, k1.generator(), k1.order() + BigUInt(2)),
                 "order mismatch");
    const CurveGenerator &r1 = secp160r1Generator();
    EXPECT_DEATH(Ecdsa(secp160r1Curve(), r1.g, r1.order + BigUInt(2)),
                 "order mismatch");
}

TEST(Validate, EcdsaVerifyRejectsNonCanonicalKey)
{
    Ecdsa dsa(secp160r1Curve(), secp160r1Generator().g,
              secp160r1Generator().order);
    Rng rng(26);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("hello", kp.d, rng);
    ASSERT_TRUE(dsa.verify("hello", sig, kp.q));

    AffinePoint wide(kp.q.x + secp160r1Field().modulus(), kp.q.y);
    EXPECT_FALSE(dsa.verify("hello", sig, wide));
}
