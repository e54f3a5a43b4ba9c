/**
 * @file
 * Shared point representations for the curve families.
 *
 * AffinePoint is the edge type (keys, requests, results, setup) and
 * holds BigUInt coordinates. Everything the point formulas, the
 * scalar-multiplication loops and the comb tables touch is built from
 * Fe field elements instead: AffineFe for affine addends, and the
 * projective JacobianPoint, XzPoint and ExtendedPoint.
 */

#ifndef JAAVR_CURVES_POINT_HH
#define JAAVR_CURVES_POINT_HH

#include "bigint/big_uint.hh"
#include "field/prime_field.hh"

namespace jaavr
{

/** Affine point (x, y) with an explicit point-at-infinity flag. */
struct AffinePoint
{
    BigUInt x;
    BigUInt y;
    bool inf = true;

    AffinePoint() = default;
    AffinePoint(const BigUInt &px, const BigUInt &py)
        : x(px), y(py), inf(false)
    {}

    static AffinePoint infinity() { return AffinePoint(); }
};

/** AffinePoint on field elements: the addend form of the hot loops. */
struct AffineFe
{
    Fe x;
    Fe y;
    bool inf = true;

    /** @p p's coordinates reduced into @p f. */
    static AffineFe
    from(const PrimeField &f, const AffinePoint &p)
    {
        return p.inf ? AffineFe{} : AffineFe{f.fromBig(p.x), f.fromBig(p.y),
                                             false};
    }

    AffinePoint
    toAffine() const
    {
        return inf ? AffinePoint::infinity()
                   : AffinePoint(x.toBig(), y.toBig());
    }
};

/** Jacobian projective point: (X : Y : Z), x = X/Z^2, y = Y/Z^3. */
struct JacobianPoint
{
    Fe x;
    Fe y;
    Fe z;  ///< Z = 0 encodes the point at infinity

    bool isInfinity() const { return z.isZero(); }

    static JacobianPoint
    infinity()
    {
        return JacobianPoint{Fe::one(), Fe::one(), Fe{}};
    }
};

/** X/Z-only point for the Montgomery-curve ladder. */
struct XzPoint
{
    Fe x;
    Fe z;
};

/** Extended twisted-Edwards point (X : Y : T : Z) with T = XY/Z. */
struct ExtendedPoint
{
    Fe x;
    Fe y;
    Fe t;
    Fe z;
};

} // namespace jaavr

#endif // JAAVR_CURVES_POINT_HH
