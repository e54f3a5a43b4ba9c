/**
 * @file
 * The textbook affine chord-and-tangent rule on a short Weierstraß
 * curve: the repeated-addition oracle that the exhaustive small-pair
 * tests (test_ladder, test_fixed_base) compare the multipliers
 * against. It is written out here so that it shares no code with any
 * multiplier in src/curves.
 */

#ifndef JAAVR_TESTS_AFFINE_ORACLE_HH
#define JAAVR_TESTS_AFFINE_ORACLE_HH

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

} // namespace jaavr

#endif // JAAVR_TESTS_AFFINE_ORACLE_HH
