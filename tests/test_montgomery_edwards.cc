/**
 * @file
 * Tests for the Montgomery x-only ladder and twisted Edwards
 * arithmetic, including the cross-family consistency checks: the
 * Montgomery OPF curve against its Weierstrass image, and the Edwards
 * OPF curve against its Montgomery twin.
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

void
expectOps(const FieldOpCounts &got, const FieldOpCounts &want)
{
    EXPECT_EQ(got.mul, want.mul);
    EXPECT_EQ(got.sqr, want.sqr);
    EXPECT_EQ(got.add, want.add);
    EXPECT_EQ(got.sub, want.sub);
    EXPECT_EQ(got.mulSmall, want.mulSmall);
    EXPECT_EQ(got.inv, want.inv);
}

/** Scalar of the known-answer pins below. */
const BigUInt kKatK =
    BigUInt::fromHex("0042424242deadbeefcafef00d1234567890abcdef");

} // anonymous namespace

// Known answers and exact op counts from the BigUInt reference
// arithmetic: a bug in the Fe kernel shared by the service and its
// golden models shows up here, and equal counts pin the algorithms.
TEST(MontgomeryOpf, LadderKnownAnswer)
{
    const MontgomeryCurve &c = montgomeryOpfCurve();
    FieldOpCounts got;
    c.field().attachCounter(&got);
    auto x = c.ladder(kKatK, BigUInt(4));
    c.field().attachCounter(nullptr);
    ASSERT_TRUE(x.has_value());
    EXPECT_EQ(x->toHex(), "623ec84991c7a61c6b931c8b2b65a71f6f38414d");
    expectOps(got, {.mul = 801, .sqr = 640, .add = 640, .sub = 640,
                    .mulSmall = 160, .inv = 1});
}

TEST(EdwardsOpf, MulNafKnownAnswer)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    AffinePoint p(
        BigUInt::fromHex("51ae6e9d47190d8045482d4eb25c420d513441da"),
        BigUInt(4));
    ASSERT_TRUE(c.onCurve(p));
    FieldOpCounts got;
    c.field().attachCounter(&got);
    AffinePoint r = c.mulNaf(kKatK, p);
    c.field().attachCounter(nullptr);
    EXPECT_EQ(r.x.toHex(), "71cca3df5dfe6c579e5eee047d5143d95dd9cc58");
    EXPECT_EQ(r.y.toHex(), "c88a63fb5b55ea28442822accbc55e8c050b8014");
    expectOps(got, {.mul = 866, .sqr = 636, .add = 717, .sub = 989,
                    .mulSmall = 0, .inv = 1});
}

TEST(MontgomeryOpf, ParametersAreAsConstructed)
{
    const MontgomeryCurve &c = montgomeryOpfCurve();
    // (A+2)/4 is a small constant, the property the paper's doubling
    // cost (3M + 2S with one small operand) relies on.
    EXPECT_LE(c.a24(), 1024u);
    EXPECT_EQ(c.field().fromUint(4u * c.a24()),
              c.field().add(c.coeffA(), BigUInt(2)));
}

TEST(MontgomeryOpf, PointsOnCurve)
{
    const MontgomeryCurve &c = montgomeryOpfCurve();
    Rng rng(80);
    for (int i = 0; i < 10; i++)
        EXPECT_TRUE(c.onCurve(c.randomPoint(rng)));
    EXPECT_TRUE(c.onCurve(montgomeryOpfBasePoint()));
}

TEST(MontgomeryOpf, LadderMatchesWeierstrassImage)
{
    // Map the curve to its birationally equivalent Weierstrass curve,
    // multiply there with an independently implemented method, map
    // back, and compare x-coordinates.
    const MontgomeryCurve &c = montgomeryOpfCurve();
    WeierstrassCurve w = c.toWeierstrass();
    Rng rng(81);
    for (int i = 0; i < 6; i++) {
        AffinePoint p = c.randomPoint(rng);
        AffinePoint pw = c.mapToWeierstrass(p);
        ASSERT_TRUE(w.onCurve(pw));
        BigUInt k = BigUInt::randomBits(rng, 160);
        if (k.isZero())
            k = BigUInt(3);

        auto x_ladder = c.ladder(k, p.x);
        AffinePoint rw = w.mulNaf(k, pw);
        if (rw.inf) {
            EXPECT_FALSE(x_ladder.has_value());
        } else {
            AffinePoint rm = c.mapFromWeierstrass(rw);
            ASSERT_TRUE(x_ladder.has_value());
            EXPECT_EQ(*x_ladder, rm.x);
            // Round-trip of the maps is the identity.
            expectEq(c.mapToWeierstrass(rm), rw, "map round-trip");
        }
    }
}

TEST(MontgomeryOpf, LadderSmallScalars)
{
    const MontgomeryCurve &c = montgomeryOpfCurve();
    WeierstrassCurve w = c.toWeierstrass();
    Rng rng(82);
    AffinePoint p = c.randomPoint(rng);
    AffinePoint pw = c.mapToWeierstrass(p);
    for (uint64_t k = 1; k <= 12; k++) {
        auto x = c.ladder(BigUInt(k), p.x);
        AffinePoint rw = w.mulBinary(BigUInt(k), pw);
        ASSERT_TRUE(x.has_value()) << k;
        EXPECT_EQ(*x, c.mapFromWeierstrass(rw).x) << k;
    }
    EXPECT_FALSE(c.ladder(BigUInt(0), p.x).has_value());
}

TEST(MontgomeryOpf, LadderIsScalarCommutative)
{
    // x(k1 * k2 * P) computed in either order agrees: the ECDH
    // property the quickstart example relies on.
    const MontgomeryCurve &c = montgomeryOpfCurve();
    Rng rng(83);
    BigUInt x = montgomeryOpfBasePoint().x;
    for (int i = 0; i < 5; i++) {
        BigUInt k1 = BigUInt(1) + BigUInt::randomBits(rng, 155);
        BigUInt k2 = BigUInt(1) + BigUInt::randomBits(rng, 155);
        auto xa = c.ladder(k1, x);
        ASSERT_TRUE(xa.has_value());
        auto xab = c.ladder(k2, *xa);
        auto xb = c.ladder(k2, x);
        ASSERT_TRUE(xb.has_value());
        auto xba = c.ladder(k1, *xb);
        ASSERT_TRUE(xab.has_value());
        ASSERT_TRUE(xba.has_value());
        EXPECT_EQ(*xab, *xba);
    }
}

TEST(Montgomery, RejectsBadParameters)
{
    // A = 2 makes A^2 - 4 = 0.
    EXPECT_DEATH(MontgomeryCurve(paperOpfField(), BigUInt(2), BigUInt(1),
                                 "bad"),
                 "singular");
    // (A+2)/4 not an integer.
    EXPECT_DEATH(MontgomeryCurve(paperOpfField(), BigUInt(3), BigUInt(1),
                                 "bad"),
                 "small integer");
}

TEST(EdwardsOpf, CompleteAndConsistent)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    EXPECT_TRUE(c.isComplete());
    EXPECT_TRUE(c.onCurve(c.identity()));
    EXPECT_TRUE(c.onCurve(edwardsOpfBasePoint()));
}

TEST(EdwardsOpf, GroupLawBasics)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    Rng rng(85);
    for (int i = 0; i < 10; i++) {
        AffinePoint p = c.randomPoint(rng);
        AffinePoint q = c.randomPoint(rng);
        EXPECT_TRUE(c.onCurve(p));

        auto pe = c.toExtended(p);
        auto qe = c.toExtended(q);
        AffinePoint pq = c.toAffine(c.add(pe, qe));
        AffinePoint qp = c.toAffine(c.add(qe, pe));
        EXPECT_EQ(pq.x, qp.x);
        EXPECT_EQ(pq.y, qp.y);
        EXPECT_TRUE(c.onCurve(pq));

        // Unified law: add(P, P) == dbl(P).
        AffinePoint d1 = c.toAffine(c.add(pe, pe));
        AffinePoint d2 = c.toAffine(c.dbl(pe, true));
        EXPECT_EQ(d1.x, d2.x);
        EXPECT_EQ(d1.y, d2.y);

        // P + (-P) = identity; completeness means no special-casing.
        AffinePoint z = c.toAffine(c.add(pe, c.toExtended(c.negate(p))));
        EXPECT_TRUE(c.isIdentity(z));

        // Identity is neutral.
        AffinePoint pi = c.toAffine(c.add(pe, c.toExtended(c.identity())));
        EXPECT_EQ(pi.x, p.x);
        EXPECT_EQ(pi.y, p.y);
    }
}

TEST(EdwardsOpf, MixedAdditionMatchesFull)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    Rng rng(86);
    for (int i = 0; i < 20; i++) {
        AffinePoint p = c.randomPoint(rng);
        AffinePoint q = c.randomPoint(rng);
        auto pe = c.toExtended(p);
        AffinePoint full = c.toAffine(c.add(pe, c.toExtended(q)));
        AffinePoint mixed = c.toAffine(
            c.addMixed(pe, c.addend(AffineFe::from(c.field(), q))));
        EXPECT_EQ(full.x, mixed.x);
        EXPECT_EQ(full.y, mixed.y);
    }
}

TEST(EdwardsOpf, MultipliersAgree)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    Rng rng(87);
    for (int i = 0; i < 6; i++) {
        AffinePoint p = c.randomPoint(rng);
        BigUInt k = BigUInt::randomBits(rng, 160);
        if (k.isZero())
            k = BigUInt(9);
        AffinePoint r = c.mulBinary(k, p);
        AffinePoint rn = c.mulNaf(k, p);
        AffinePoint rd = c.mulDaaa(k, p);
        EXPECT_EQ(r.x, rn.x);
        EXPECT_EQ(r.y, rn.y);
        EXPECT_EQ(r.x, rd.x);
        EXPECT_EQ(r.y, rd.y);
        EXPECT_TRUE(c.onCurve(r));
    }
}

TEST(EdwardsOpf, MatchesMontgomeryTwin)
{
    // The Edwards OPF curve was built as the birational twin of the
    // Montgomery OPF curve: scalar multiplication must agree through
    // the map u = (1+y)/(1-y).
    const EdwardsCurve &e = edwardsOpfCurve();
    const MontgomeryCurve &m = montgomeryOpfCurve();
    Rng rng(88);
    for (int i = 0; i < 5; i++) {
        AffinePoint p = e.randomPoint(rng);
        if (p.x.isZero() || p.y.isOne())
            continue;
        AffinePoint pm = edwardsToMontgomery(p);
        ASSERT_TRUE(m.onCurve(pm));

        BigUInt k = BigUInt(1) + BigUInt::randomBits(rng, 158);
        AffinePoint re = e.mulNaf(k, p);
        auto xm = m.ladder(k, pm.x);
        if (e.isIdentity(re) || re.y.isOne() || re.x.isZero()) {
            continue;  // exceptional image; skip
        }
        ASSERT_TRUE(xm.has_value());
        EXPECT_EQ(edwardsToMontgomery(re).x, *xm);
    }
}

TEST(Edwards, RejectsWrongA)
{
    EXPECT_DEATH(EdwardsCurve(paperOpfField(), BigUInt(1), BigUInt(5),
                              "bad"),
                 "a = -1");
}

TEST(Edwards, ScalarHomomorphism)
{
    const EdwardsCurve &c = edwardsOpfCurve();
    Rng rng(89);
    AffinePoint p = c.randomPoint(rng);
    BigUInt k1 = BigUInt::randomBits(rng, 80);
    BigUInt k2 = BigUInt::randomBits(rng, 80);
    AffinePoint lhs = c.mulBinary(k1 + k2, p);
    AffinePoint rhs = c.toAffine(
        c.add(c.toExtended(c.mulBinary(k1, p)),
              c.toExtended(c.mulBinary(k2, p))));
    EXPECT_EQ(lhs.x, rhs.x);
    EXPECT_EQ(lhs.y, rhs.y);
}
