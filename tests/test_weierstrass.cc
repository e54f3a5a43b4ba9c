/**
 * @file
 * Tests for Weierstrass-curve arithmetic: group laws over secp160r1
 * (published constants give known-answer anchors) and the OPF curve,
 * plus the equivalence of all point-multiplication methods (binary,
 * NAF, DAAA, co-Z Montgomery ladder).
 */

#include <gtest/gtest.h>

#include "curves/standard_curves.hh"

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

TEST(Secp160r1Curve, GeneratorSanity)
{
    // The accessor itself panics if G is off-curve or n*G != O; this
    // also pins the constants.
    const CurveGenerator &g = secp160r1Generator();
    EXPECT_TRUE(secp160r1Curve().onCurve(g.g));
    EXPECT_EQ(g.order.bitLength(), 161u);
}

TEST(Secp160r1Curve, GroupLawBasics)
{
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(70);
    for (int i = 0; i < 10; i++) {
        AffinePoint p = c.randomPoint(rng);
        AffinePoint q = c.randomPoint(rng);
        EXPECT_TRUE(c.onCurve(p));

        // P + Q = Q + P.
        auto pq = c.toAffine(c.addMixed(c.toJacobian(p), q));
        auto qp = c.toAffine(c.addMixed(c.toJacobian(q), p));
        expectEq(pq, qp, "commutativity");
        EXPECT_TRUE(c.onCurve(pq));

        // P + (-P) = O.
        auto zero = c.addMixed(c.toJacobian(p), c.negate(p));
        EXPECT_TRUE(zero.isInfinity());

        // 2P via dbl == P + P via full add path.
        auto d1 = c.toAffine(c.dbl(c.toJacobian(p)));
        auto d2 = c.toAffine(c.add(c.toJacobian(p), c.toJacobian(p)));
        expectEq(d1, d2, "doubling");
    }
}

TEST(Secp160r1Curve, Associativity)
{
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(71);
    for (int i = 0; i < 10; i++) {
        auto p = c.toJacobian(c.randomPoint(rng));
        auto q = c.toJacobian(c.randomPoint(rng));
        auto r = c.toJacobian(c.randomPoint(rng));
        auto lhs = c.toAffine(c.add(c.add(p, q), r));
        auto rhs = c.toAffine(c.add(p, c.add(q, r)));
        expectEq(lhs, rhs, "associativity");
    }
}

TEST(Secp160r1Curve, InfinityHandling)
{
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(72);
    AffinePoint p = c.randomPoint(rng);
    auto inf = JacobianPoint::infinity();
    expectEq(c.toAffine(c.add(inf, c.toJacobian(p))), p, "O + P");
    expectEq(c.toAffine(c.addMixed(inf, p)), p, "O madd P");
    EXPECT_TRUE(c.dbl(inf).isInfinity());
    EXPECT_TRUE(c.toAffine(inf).inf);
    expectEq(c.mulBinary(BigUInt(0), p), AffinePoint::infinity(), "0*P");
}

TEST(Secp160r1Curve, MultipliersAgree)
{
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(73);
    for (int i = 0; i < 8; i++) {
        AffinePoint p = c.randomPoint(rng);
        BigUInt k = BigUInt::randomBits(rng, 160);
        if (k.isZero())
            k = BigUInt(1);
        AffinePoint r_bin = c.mulBinary(k, p);
        expectEq(c.mulNaf(k, p), r_bin, "NAF vs binary");
        expectEq(c.mulDaaa(k, p), r_bin, "DAAA vs binary");
        expectEq(c.mulLadder(k, p), r_bin, "co-Z ladder vs binary");
    }
}

TEST(Secp160r1Curve, SmallScalarsLadder)
{
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(74);
    AffinePoint p = c.randomPoint(rng);
    for (uint64_t k = 1; k <= 17; k++) {
        expectEq(c.mulLadder(BigUInt(k), p), c.mulBinary(BigUInt(k), p),
                 "small-k ladder");
        expectEq(c.mulDaaa(BigUInt(k), p), c.mulBinary(BigUInt(k), p),
                 "small-k DAAA");
        expectEq(c.mulNaf(BigUInt(k), p), c.mulBinary(BigUInt(k), p),
                 "small-k NAF");
    }
}

TEST(Secp160r1Curve, ScalarHomomorphism)
{
    // (k1 + k2) P = k1 P + k2 P and (k1 k2) P = k1 (k2 P).
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(75);
    AffinePoint p = c.randomPoint(rng);
    BigUInt k1 = BigUInt::randomBits(rng, 80);
    BigUInt k2 = BigUInt::randomBits(rng, 80);
    auto lhs = c.mulBinary(k1 + k2, p);
    auto rhs = c.toAffine(c.addMixed(c.toJacobian(c.mulBinary(k1, p)),
                                     c.mulBinary(k2, p)));
    expectEq(lhs, rhs, "additive");
    expectEq(c.mulBinary(k1 * k2, p), c.mulBinary(k1, c.mulBinary(k2, p)),
             "multiplicative");
}

TEST(Secp160r1Curve, OrderAnnihilatesAllMethods)
{
    const WeierstrassCurve &c = secp160r1Curve();
    const CurveGenerator &g = secp160r1Generator();
    EXPECT_TRUE(c.mulNaf(g.order, g.g).inf);
    // (n-1) G = -G.
    expectEq(c.mulNaf(g.order - BigUInt(1), g.g), c.negate(g.g), "(n-1)G");
    // The co-Z ladder's last step meets r0 + r1 = O at k = n-1.
    expectEq(c.mulLadder(g.order - BigUInt(1), g.g), c.negate(g.g),
             "ladder (n-1)G");
    expectEq(c.mulLadder(g.order - BigUInt(2), g.g),
             c.mulNaf(g.order - BigUInt(2), g.g), "ladder (n-2)G");
}

TEST(WeierstrassOpf, CurveAndMultipliers)
{
    const WeierstrassCurve &c = weierstrassOpfCurve();
    EXPECT_TRUE(c.onCurve(weierstrassOpfBasePoint()));
    Rng rng(76);
    for (int i = 0; i < 5; i++) {
        AffinePoint p = c.randomPoint(rng);
        BigUInt k = BigUInt::randomBits(rng, 160);
        if (k.isZero())
            k = BigUInt(5);
        AffinePoint r = c.mulBinary(k, p);
        EXPECT_TRUE(c.onCurve(r));
        expectEq(c.mulNaf(k, p), r, "opf NAF");
        expectEq(c.mulLadder(k, p), r, "opf ladder");
        expectEq(c.mulDaaa(k, p), r, "opf DAAA");
    }
}

TEST(WeierstrassOpf, LiftXRejectsNonResidues)
{
    const WeierstrassCurve &c = weierstrassOpfCurve();
    Rng rng(77);
    int hits = 0, misses = 0;
    for (uint64_t x = 0; x < 40; x++) {
        if (c.liftX(BigUInt(x), rng))
            hits++;
        else
            misses++;
    }
    EXPECT_GT(hits, 5);
    EXPECT_GT(misses, 5);
}

TEST(Weierstrass, RejectsSingularCurve)
{
    // y^2 = x^3 has 4a^3 + 27b^2 = 0.
    EXPECT_DEATH(WeierstrassCurve(secp160r1Field(), BigUInt(0), BigUInt(0),
                                  "singular"),
                 "singular");
}

TEST(Weierstrass, NegateAndOnCurve)
{
    const WeierstrassCurve &c = weierstrassOpfCurve();
    Rng rng(78);
    AffinePoint p = c.randomPoint(rng);
    AffinePoint n = c.negate(p);
    EXPECT_TRUE(c.onCurve(n));
    EXPECT_EQ(n.x, p.x);
    EXPECT_EQ(c.field().add(n.y, p.y), BigUInt(0));
}

TEST(Weierstrass, WNafMatchesBinary)
{
    const WeierstrassCurve &c = secp160r1Curve();
    Rng rng(79);
    AffinePoint p = c.randomPoint(rng);
    for (unsigned w = 2; w <= 6; w++) {
        BigUInt k = BigUInt::randomBits(rng, 160);
        if (k.isZero())
            k = BigUInt(7);
        AffinePoint r = c.mulBinary(k, p);
        AffinePoint rw = c.mulWNaf(k, p, w);
        EXPECT_EQ(rw.inf, r.inf) << w;
        EXPECT_EQ(rw.x, r.x) << w;
        EXPECT_EQ(rw.y, r.y) << w;
    }
    // Small scalars exercise table edge cases.
    for (uint64_t k = 1; k <= 20; k++) {
        AffinePoint r = c.mulBinary(BigUInt(k), p);
        AffinePoint rw = c.mulWNaf(BigUInt(k), p, 5);
        EXPECT_EQ(rw.x, r.x) << k;
        EXPECT_EQ(rw.y, r.y) << k;
    }
}

TEST(Weierstrass, BatchAffineMatchesSingle)
{
    const WeierstrassCurve &c = weierstrassOpfCurve();
    Rng rng(90);
    std::vector<JacobianPoint> pts;
    for (int i = 0; i < 9; i++) {
        JacobianPoint j = c.toJacobian(c.randomPoint(rng));
        // Randomize Z by doubling/adding a bit.
        j = c.dbl(j);
        pts.push_back(j);
    }
    pts.push_back(JacobianPoint::infinity());  // passes through
    auto batch = c.toAffineBatch(pts);
    ASSERT_EQ(batch.size(), pts.size());
    for (size_t i = 0; i < pts.size(); i++) {
        AffinePoint single = c.toAffine(pts[i]);
        EXPECT_EQ(batch[i].inf, single.inf) << i;
        if (!single.inf) {
            EXPECT_EQ(batch[i].x, single.x) << i;
            EXPECT_EQ(batch[i].y, single.y) << i;
        }
    }
}

TEST(Weierstrass, BatchAffineUsesOneInversion)
{
    const WeierstrassCurve &c = weierstrassOpfCurve();
    Rng rng(91);
    std::vector<JacobianPoint> pts;
    for (int i = 0; i < 8; i++)
        pts.push_back(c.dbl(c.toJacobian(c.randomPoint(rng))));
    FieldOpCounts counts;
    c.field().attachCounter(&counts);
    c.toAffineBatch(pts);
    c.field().attachCounter(nullptr);
    EXPECT_EQ(counts.inv, 1u);
}
