/**
 * @file
 * Fixed-base comb tables vs the generic multiplication paths, across
 * all four curve families: Weierstrass (secp160r1 and the OPF a = -3
 * curve), GLV (secp160k1 and the constructed OPF curve), twisted
 * Edwards (the OPF twin and the counted small pair), and Montgomery
 * (x-only ladder cross-checked through the comb on the birationally
 * equivalent Weierstrass curve). Includes agreement with the
 * hardened (validated + recomputed) paths and the batched-affine
 * evaluation contract (mulJacobian + toAffineBatch == mul), and
 * exhaustive oracles on the small pair: every scalar, through the
 * combs and through every double-and-add method, against repeated
 * addition of the base point.
 */

#include <gtest/gtest.h>

#include "affine_oracle.hh"
#include "curves/ecdsa.hh"
#include "curves/point_mult.hh"
#include "curves/small_curves.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

std::vector<BigUInt>
edgeAndRandomScalars(const BigUInt &bound, Rng &rng, size_t randoms)
{
    std::vector<BigUInt> ks{BigUInt(1), BigUInt(2), BigUInt(3),
                            bound - BigUInt(1), bound - BigUInt(2)};
    for (size_t i = 0; i < randoms; i++)
        ks.push_back(BigUInt(1) +
                     BigUInt::random(rng, bound - BigUInt(1)));
    return ks;
}

void
expectWeierstrassCombMatches(const WeierstrassCurve &c,
                             const AffinePoint &g, const BigUInt &n)
{
    FixedBaseComb comb(c, g, n.bitLength());
    // The layout's v * (2^w - 1) entries: (w, v) = (8, 3).
    EXPECT_EQ(comb.tableSize(), size_t(3 * 255));
    Rng rng(1000 + n.low32());
    for (const BigUInt &k : edgeAndRandomScalars(n, rng, 8)) {
        AffinePoint expect = c.mulNaf(k, g);
        AffinePoint got = comb.mul(c, k);
        EXPECT_EQ(got.inf, expect.inf);
        EXPECT_EQ(got.x, expect.x);
        EXPECT_EQ(got.y, expect.y);
    }
    // k = 0 is the point at infinity.
    EXPECT_TRUE(comb.mul(c, BigUInt(0)).inf);
}

} // namespace

TEST(FixedBase, SmallPairEveryScalarMatchesRepeatedAddition)
{
    // Every k the combs are built for, [0, 2^bits) with bits the
    // length of 2n (a superset of [0, 2n]), on the small pair's
    // order-n base point: the comb against adding the base point k
    // times. Unlike random 160-bit scalars, these k reach addMixed's
    // doubling branch (accumulator = entry; k = 5458 and 7145 on the
    // (8, 3) layout, none below 2n) and its infinity branch
    // (accumulator = -entry).
    const SmallCurvePair &pair = smallCurvePair();
    const uint64_t n = pair.n.toUint64();
    const unsigned bits = BigUInt(2 * n).bitLength();

    WeierstrassCurve w = pair.montgomery.toWeierstrass();
    AffinePoint gw = pair.montgomery.mapToWeierstrass(pair.montBase);
    const EdwardsCurve &e = pair.edwards;
    FixedBaseComb wcomb(w, gw, bits);
    EdwardsFixedBaseComb ecomb(e, pair.edBase, bits);
    AffinePoint wacc = AffinePoint::infinity();
    AffinePoint eacc = e.identity();
    for (uint64_t k = 0; k >> bits == 0; k++) {
        AffinePoint got = wcomb.mul(w, BigUInt(k));
        ASSERT_EQ(got.inf, wacc.inf) << "k = " << k;
        if (!wacc.inf) {
            ASSERT_EQ(got.x, wacc.x) << "k = " << k;
            ASSERT_EQ(got.y, wacc.y) << "k = " << k;
        }
        got = ecomb.mul(e, BigUInt(k));
        ASSERT_EQ(got.x, eacc.x) << "Edwards, k = " << k;
        ASSERT_EQ(got.y, eacc.y) << "Edwards, k = " << k;
        wacc = addAffine(w, wacc, gw);
        eacc = addEdwards(e, eacc, pair.edBase);
    }
}

TEST(DoubleAndAdd, SmallPairEveryScalarMatchesRepeatedAddition)
{
    // Every k in [0, 2n] on the small pair's order-n base point: each
    // double-and-add method against adding the base point k times, on
    // the Weierstraß image and on the Edwards twin. The methods share
    // one loop, so this, not their agreement, checks it. These k end
    // at the neutral element (k = 0, n, 2n), pass through it, and
    // cover every scalar below 2^12.
    const SmallCurvePair &pair = smallCurvePair();
    const uint64_t n = pair.n.toUint64();
    WeierstrassCurve w = pair.montgomery.toWeierstrass();
    AffinePoint gw = pair.montgomery.mapToWeierstrass(pair.montBase);
    const EdwardsCurve &e = pair.edwards;
    auto same = [](const AffinePoint &got, const AffinePoint &want) {
        return got.inf == want.inf &&
               (want.inf || (got.x == want.x && got.y == want.y));
    };
    AffinePoint wacc = AffinePoint::infinity();
    AffinePoint eacc = e.identity();
    for (uint64_t k = 0; k <= 2 * n; k++) {
        if (k % n == 0) {
            ASSERT_TRUE(wacc.inf && e.isIdentity(eacc)) << "k = " << k;
        }
        BigUInt kb(k);
        ASSERT_TRUE(same(w.mulBinary(kb, gw), wacc)) << "binary, k = " << k;
        ASSERT_TRUE(same(w.mulNaf(kb, gw), wacc)) << "NAF, k = " << k;
        for (unsigned width = 2; width <= 7; width++) {
            ASSERT_TRUE(same(w.mulWNaf(kb, gw, width), wacc))
                << "wNAF w = " << width << ", k = " << k;
        }
        ASSERT_TRUE(same(w.mulDaaa(kb, gw), wacc)) << "DAAA, k = " << k;
        ASSERT_TRUE(same(e.mulBinary(kb, pair.edBase), eacc))
            << "Edwards binary, k = " << k;
        ASSERT_TRUE(same(e.mulNaf(kb, pair.edBase), eacc))
            << "Edwards NAF, k = " << k;
        ASSERT_TRUE(same(e.mulDaaa(kb, pair.edBase), eacc))
            << "Edwards DAAA, k = " << k;
        wacc = addAffine(w, wacc, gw);
        eacc = addEdwards(e, eacc, pair.edBase);
    }
}

TEST(FixedBase, ServiceCurvesMatchNaf)
{
    const CurveGenerator &r1 = secp160r1Generator();
    expectWeierstrassCombMatches(secp160r1Curve(), r1.g, r1.order);
    for (const GlvCurve *c : {&secp160k1Curve(), &glvOpfCurve()})
        expectWeierstrassCombMatches(*c, c->generator(), c->order());
}

TEST(FixedBase, WeierstrassOpfBasePoint)
{
    // Order unpublished: cover the scalar sizes the service would
    // use (up to the field size).
    const WeierstrassCurve &c = weierstrassOpfCurve();
    AffinePoint g = weierstrassOpfBasePoint();
    unsigned bits = c.field().modulus().bitLength();
    FixedBaseComb comb(c, g, bits);
    Rng rng(7);
    for (int i = 0; i < 8; i++) {
        BigUInt k = BigUInt::randomBits(rng, bits);
        if (k.isZero())
            k = BigUInt(1);
        AffinePoint expect = c.mulNaf(k, g);
        AffinePoint got = comb.mul(c, k);
        EXPECT_EQ(got.inf, expect.inf);
        EXPECT_EQ(got.x, expect.x);
        EXPECT_EQ(got.y, expect.y);
    }
}

TEST(FixedBase, GlvCurvesMatchEndomorphismPath)
{
    // The comb must agree with the GLV-accelerated multiplication,
    // not just plain NAF.
    for (const GlvCurve *cp : {&secp160k1Curve(), &glvOpfCurve()}) {
        const GlvCurve &c = *cp;
        FixedBaseComb comb(c, c.generator(), c.order().bitLength());
        Rng rng(11);
        for (const BigUInt &k :
             edgeAndRandomScalars(c.order(), rng, 6)) {
            AffinePoint naf = c.mulNaf(k, c.generator());
            AffinePoint glv = c.mulGlvJsf(k, c.generator());
            AffinePoint got = comb.mul(c, k);
            EXPECT_EQ(got.x, naf.x);
            EXPECT_EQ(got.y, naf.y);
            EXPECT_EQ(got.x, glv.x);
            EXPECT_EQ(got.y, glv.y);
        }
    }
}

TEST(FixedBase, BatchedJacobianEvaluationMatchesAffine)
{
    // The service-layer contract: many mulJacobian results converted
    // with one toAffineBatch equal the one-at-a-time comb.mul.
    const WeierstrassCurve &c = secp160r1Curve();
    const CurveGenerator &gen = secp160r1Generator();
    FixedBaseComb comb(c, gen.g, gen.order.bitLength());
    Rng rng(13);
    std::vector<BigUInt> ks = edgeAndRandomScalars(gen.order, rng, 12);
    std::vector<JacobianPoint> pts;
    for (const BigUInt &k : ks)
        pts.push_back(comb.mulJacobian(c, k));
    std::vector<AffinePoint> affs = c.toAffineBatch(pts);
    ASSERT_EQ(affs.size(), ks.size());
    for (size_t i = 0; i < ks.size(); i++) {
        AffinePoint expect = comb.mul(c, ks[i]);
        EXPECT_EQ(affs[i].x, expect.x);
        EXPECT_EQ(affs[i].y, expect.y);
    }
}

TEST(FixedBase, EdwardsCombMatchesGenericPaths)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    AffinePoint g = edwardsOpfBasePoint();
    unsigned bits = c.field().modulus().bitLength();
    EdwardsFixedBaseComb comb(c, g, bits);
    EXPECT_EQ(comb.tableSize(), size_t(3 * 255));
    Rng rng(17);
    for (int i = 0; i < 8; i++) {
        BigUInt k = BigUInt::randomBits(rng, bits);
        if (k.isZero())
            k = BigUInt(1);
        AffinePoint naf = c.mulNaf(k, g);
        AffinePoint daaa = c.mulDaaa(k, g);
        AffinePoint got = comb.mul(c, k);
        EXPECT_EQ(got.x, naf.x);
        EXPECT_EQ(got.y, naf.y);
        EXPECT_EQ(got.x, daaa.x);
        EXPECT_EQ(got.y, daaa.y);
    }
    // k = 0 is the Edwards identity (0, 1).
    EXPECT_TRUE(c.isIdentity(comb.mul(c, BigUInt(0))));
}

TEST(FixedBase, MontgomeryLadderCrossCheck)
{
    // Montgomery is x-only, so the fixed-base story for the family
    // runs through the birationally equivalent Weierstrass curve: a
    // comb there must project back to the ladder's x-coordinates.
    const MontgomeryCurve &m = montgomeryOpfCurve();
    WeierstrassCurve w = m.toWeierstrass();
    AffinePoint base_m = montgomeryOpfBasePoint();
    AffinePoint base_w = m.mapToWeierstrass(base_m);
    unsigned bits = m.field().modulus().bitLength();
    FixedBaseComb comb(w, base_w, bits);
    Rng rng(19);
    for (int i = 0; i < 6; i++) {
        BigUInt k = BigUInt::randomBits(rng, bits);
        if (k.isZero())
            k = BigUInt(1);
        auto lx = m.ladder(k, base_m.x);
        AffinePoint via_w = comb.mul(w, k);
        ASSERT_TRUE(lx.has_value());
        ASSERT_FALSE(via_w.inf);
        EXPECT_EQ(m.mapFromWeierstrass(via_w).x, *lx);
    }
}

TEST(FixedBase, HardenedPathEquivalence)
{
    // The comb is a third independent algorithm: it must agree with
    // the hardened (co-Z ladder + NAF recompute + validate) results
    // on every order-known curve.
    {
        const WeierstrassCurve &c = secp160r1Curve();
        const CurveGenerator &gen = secp160r1Generator();
        FixedBaseComb comb(c, gen.g, gen.order.bitLength());
        Rng rng(23);
        for (const BigUInt &k : edgeAndRandomScalars(gen.order, rng, 4)) {
            HardenedMul h =
                hardenedMulWeierstrass(c, k, gen.g, gen.order);
            ASSERT_TRUE(h.ok) << h.reason;
            AffinePoint got = comb.mul(c, k);
            EXPECT_EQ(got.x, h.point.x);
            EXPECT_EQ(got.y, h.point.y);
        }
    }
    for (const GlvCurve *cp : {&secp160k1Curve(), &glvOpfCurve()}) {
        const GlvCurve &c = *cp;
        FixedBaseComb comb(c, c.generator(), c.order().bitLength());
        Rng rng(29);
        for (const BigUInt &k : edgeAndRandomScalars(c.order(), rng, 4)) {
            HardenedMul h = hardenedMulGlv(c, k, c.generator());
            ASSERT_TRUE(h.ok) << h.reason;
            AffinePoint got = comb.mul(c, k);
            EXPECT_EQ(got.x, h.point.x);
            EXPECT_EQ(got.y, h.point.y);
        }
    }
}

TEST(FixedBase, SmallPairHardenedEdwardsAndMontgomery)
{
    // The counted small pair supplies the known subgroup order the
    // OPF Montgomery/Edwards curves lack, closing the hardened
    // equivalence over the remaining two families.
    const SmallCurvePair &pair = smallCurvePair();
    EdwardsFixedBaseComb comb(pair.edwards, pair.edBase,
                              pair.n.bitLength());
    Rng rng(31);
    for (const BigUInt &k : edgeAndRandomScalars(pair.n, rng, 4)) {
        HardenedMul h =
            hardenedMulEdwards(pair.edwards, k, pair.edBase, pair.n);
        ASSERT_TRUE(h.ok) << h.reason;
        AffinePoint got = comb.mul(pair.edwards, k);
        EXPECT_EQ(got.x, h.point.x);
        EXPECT_EQ(got.y, h.point.y);
    }

    WeierstrassCurve w = pair.montgomery.toWeierstrass();
    AffinePoint base_w = pair.montgomery.mapToWeierstrass(pair.montBase);
    FixedBaseComb wcomb(w, base_w, pair.n.bitLength());
    for (const BigUInt &k : edgeAndRandomScalars(pair.n, rng, 4)) {
        HardenedMul h = hardenedMulMontgomery(pair.montgomery, k,
                                              pair.montBase.x, pair.n);
        ASSERT_TRUE(h.ok) << h.reason;
        ASSERT_TRUE(h.x.has_value());
        AffinePoint via_w = wcomb.mul(w, k);
        ASSERT_FALSE(via_w.inf);
        EXPECT_EQ(pair.montgomery.mapFromWeierstrass(via_w).x, *h.x);
    }
}

TEST(FixedBase, EcdsaIntegration)
{
    // attachFixedBase reroutes every fixed-base multiplication;
    // signatures and verification outcomes must be unchanged.
    const GlvCurve &c = secp160k1Curve();
    Ecdsa plain(c);
    Ecdsa combed(c);
    FixedBaseComb comb(c, c.generator(), c.order().bitLength());
    combed.attachFixedBase(&comb);
    EXPECT_EQ(combed.fixedBase(), &comb);

    Rng rng(37);
    BigUInt d = BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    BigUInt k = BigUInt(1) + BigUInt::random(rng, c.order() - BigUInt(1));
    const std::string msg = "fixed-base integration";

    auto s1 = plain.signWithNonce(msg, d, k);
    auto s2 = combed.signWithNonce(msg, d, k);
    ASSERT_TRUE(s1.has_value());
    ASSERT_TRUE(s2.has_value());
    EXPECT_EQ(s1->r, s2->r);
    EXPECT_EQ(s1->s, s2->s);

    AffinePoint q_plain = plain.mulG(d);
    AffinePoint q_combed = combed.mulG(d);
    EXPECT_EQ(q_plain.x, q_combed.x);
    EXPECT_EQ(q_plain.y, q_combed.y);

    EXPECT_TRUE(plain.verify(msg, *s2, q_combed));
    EXPECT_TRUE(combed.verify(msg, *s1, q_plain));
    EcdsaSignature tampered{s1->r, c.field().add(s1->s, BigUInt(1))};
    EXPECT_FALSE(combed.verify(msg, tampered, q_plain));
}
