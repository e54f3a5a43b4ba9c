/**
 * @file
 * The textbook affine addition laws: the chord-and-tangent rule on a
 * short Weierstraß curve and the twisted Edwards law, the
 * repeated-addition oracles that the exhaustive small-pair tests
 * (test_ladder, test_fixed_base) compare the multipliers against.
 * They are written out here so that they share no code with any
 * multiplier in src/curves.
 */

#ifndef JAAVR_TESTS_AFFINE_ORACLE_HH
#define JAAVR_TESTS_AFFINE_ORACLE_HH

#include "curves/edwards.hh"
#include "curves/weierstrass.hh"

namespace jaavr
{

/** P + Q on @p w by the affine chord-and-tangent rule. */
inline AffinePoint
addAffine(const WeierstrassCurve &w, const AffinePoint &p,
          const AffinePoint &q)
{
    if (p.inf)
        return q;
    if (q.inf)
        return p;
    const PrimeField &f = w.field();
    BigUInt lambda;
    if (p.x == q.x) {
        if (f.add(p.y, q.y).isZero())
            return AffinePoint::infinity();
        BigUInt x2 = f.sqr(p.x);
        lambda = f.mul(f.add(f.add(f.add(x2, x2), x2), w.coeffA()),
                       f.inv(f.add(p.y, p.y)));
    } else {
        lambda = f.mul(f.sub(q.y, p.y), f.inv(f.sub(q.x, p.x)));
    }
    BigUInt x3 = f.sub(f.sub(f.sqr(lambda), p.x), q.x);
    return AffinePoint(x3, f.sub(f.mul(lambda, f.sub(p.x, x3)), p.y));
}

/** P + Q on @p e by the affine twisted Edwards addition law. */
inline AffinePoint
addEdwards(const EdwardsCurve &e, const AffinePoint &p,
           const AffinePoint &q)
{
    const PrimeField &f = e.field();
    BigUInt x1x2 = f.mul(p.x, q.x);
    BigUInt y1y2 = f.mul(p.y, q.y);
    BigUInt dxy = f.mul(e.coeffD(), f.mul(x1x2, y1y2));
    BigUInt x3 = f.mul(f.add(f.mul(p.x, q.y), f.mul(p.y, q.x)),
                       f.inv(f.add(BigUInt(1), dxy)));
    BigUInt y3 = f.mul(f.sub(y1y2, f.mul(e.coeffA(), x1x2)),
                       f.inv(f.sub(BigUInt(1), dxy)));
    return AffinePoint(x3, y3);
}

} // namespace jaavr

#endif // JAAVR_TESTS_AFFINE_ORACLE_HH
