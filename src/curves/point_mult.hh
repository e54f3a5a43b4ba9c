/**
 * @file
 * The double-and-add point multiplications, written once over a point
 * family: one signed-digit loop (binary, NAF, wNAF and GLV + JSF), one
 * always-add loop (DAAA) and the Lim-Lee fixed-base comb. The two
 * ladders (ladder.hh's x-only one, WeierstrassCurve's co-Z one) are
 * the only other scalar loops.
 *
 * A point family, in the style of montLadder's Ops, wraps one curve c
 * and names its projective accumulator Point and its affine addend
 * Addend. The loops use
 *  - neutral(), the accumulator's start;
 *  - dbl(p, adds), where adds says an addition follows (Edwards
 *    computes its T coordinate only then);
 *  - addMixed(p, q) and negate(q) of an addend q;
 * and the comb's set-up and the service's derives add
 *  - lift(g) of an AffinePoint and the full projective add(p, q);
 *  - addend(a) and isNeutral(a) of an AffineFe.
 * Each method supplies only its digits and its addend for each
 * nonzero digit, so it makes the same field operations as a loop
 * written for it alone.
 */

#ifndef JAAVR_CURVES_POINT_MULT_HH
#define JAAVR_CURVES_POINT_MULT_HH

#include <array>
#include <bit>
#include <concepts>
#include <vector>

#include "curves/edwards.hh"
#include "curves/weierstrass.hh"
#include "scalar/recode.hh"
#include "support/logging.hh"

namespace jaavr
{

/** Short Weierstraß (and GLV) curves: Jacobian accumulator, affine
 *  addend, infinity as the neutral element. */
struct WeierstrassFamily
{
    using Curve = WeierstrassCurve;
    using Point = JacobianPoint;
    using Addend = AffineFe;

    const WeierstrassCurve &c;

    Point neutral() const { return JacobianPoint::infinity(); }
    Point lift(const AffinePoint &g) const { return c.toJacobian(g); }
    Point dbl(const Point &p, bool) const { return c.dbl(p); }
    Point add(const Point &p, const Point &q) const { return c.add(p, q); }
    Point addMixed(const Point &p, const Addend &q) const
    {
        return c.addMixed(p, q);
    }
    Addend negate(const Addend &q) const { return c.negate(q); }
    Addend addend(const AffineFe &a) const { return a; }
    bool isNeutral(const AffineFe &a) const { return a.inf; }
};

/** Twisted Edwards curves (a = -1): extended accumulator, addend with
 *  2d*x*y, (0, 1) as the neutral element. */
struct EdwardsFamily
{
    using Curve = EdwardsCurve;
    using Point = ExtendedPoint;
    using Addend = EdwardsAddend;

    const EdwardsCurve &c;

    /** (0 : 1 : 0 : 1), at the one multiplication of toExtended. */
    Point neutral() const { return c.toExtended(EdwardsCurve::identityFe()); }
    Point lift(const AffinePoint &g) const { return c.toExtended(g); }
    Point dbl(const Point &p, bool adds) const { return c.dbl(p, adds); }
    Point add(const Point &p, const Point &q) const { return c.add(p, q); }
    Point addMixed(const Point &p, const Addend &q) const
    {
        return c.addMixed(p, q);
    }
    Addend negate(const Addend &q) const { return c.negate(q); }
    Addend addend(const AffineFe &a) const { return c.addend(a); }
    bool isNeutral(const AffineFe &a) const
    {
        return a.x.isZero() && a.y == Fe::one();
    }
};

/**
 * MSB-first double-and-add over @p digits (least significant first,
 * as scalar/recode.hh returns them): one doubling per digit and, for
 * each nonzero digit d, one mixed addition of @p addendOf(d). A digit
 * is an int8_t, or an (int8_t, int8_t) pair for JSF; zero is the
 * value-initialised digit.
 */
template <class F, class Digit, class AddendOf>
typename F::Point
signedDigitMul(const F &fam, const std::vector<Digit> &digits,
               AddendOf &&addendOf)
{
    typename F::Point r = fam.neutral();
    for (size_t i = digits.size(); i-- > 0;) {
        bool adds = digits[i] != Digit{};
        r = fam.dbl(r, adds);
        if (adds)
            r = fam.addMixed(r, addendOf(digits[i]));
    }
    return r;
}

/** k * p over the bits of k. */
template <class F>
typename F::Point
binaryMul(const F &fam, const BigUInt &k, const typename F::Addend &p)
{
    return signedDigitMul(
        fam, binaryDigits(k),
        [&](int8_t) -> const typename F::Addend & { return p; });
}

/** k * p over the NAF of k (wNAF at w = 2), with -p formed once. */
template <class F>
typename F::Point
nafMul(const F &fam, const BigUInt &k, const typename F::Addend &p)
{
    typename F::Addend neg = fam.negate(p);
    return signedDigitMul(
        fam, wNafDigits(k, 2),
        [&](int8_t d) -> const typename F::Addend & {
            return d > 0 ? p : neg;
        });
}

/**
 * Double-and-add-always: from the neutral element, one doubling and
 * one mixed addition of @p p per bit of @p k, the sum kept where the
 * bit is set, so the operation sequence depends only on the bit
 * length.
 */
template <class F>
typename F::Point
alwaysAddMul(const F &fam, const BigUInt &k, const typename F::Addend &p)
{
    typename F::Point r = fam.neutral();
    for (size_t i = k.bitLength(); i-- > 0;) {
        r = fam.dbl(r, true);
        typename F::Point q = fam.addMixed(r, p);
        if (k.bit(i))
            r = q;
    }
    return r;
}

/**
 * Lim and Lee's fixed-base comb ("More Flexible Exponentiation with
 * Precomputation", CRYPTO '94) with w rows and v sub-tables, one
 * layout fixed by a measured sweep (DESIGN.md §14). A scalar of
 * `bits` bits has d = ceil(bits/w) columns, split over the v
 * sub-tables, e = ceil(d/v) columns each; bit i*v*e + b*e + c of k
 * (row i < w, sub-table b < v, column c < e) is bit i of the digit
 * sub-table b reads at column c. Sub-table b's entry j (for each
 * nonzero w-bit digit j) holds sum_{i in bits(j)} 2^(i*v*e + b*e) * G
 * as an addend, so a table stores v * (2^w - 1) points. Evaluation
 * scans the e columns MSB-first, all v sub-tables sharing one chain
 * of doublings: a k*G costs e doublings (the first on the neutral
 * element) plus at most v*e mixed additions.
 *
 * The paper rejects windowed and comb methods on the 8-bit target for
 * their memory cost (Section V-B); on the host the service builds one
 * table per curve at start-up and shares it read-only across its
 * workers (DESIGN.md §14). The table is read at indices taken from
 * the scalar's digits; the host code makes no constant-time claim.
 *
 * A table is immutable after construction and keeps no reference to
 * its curve: every method takes the curve, so worker contexts that
 * own private, parameter-identical curve instances (see the
 * thread-safety notes in prime_field.hh) can evaluate one shared
 * table concurrently.
 */
template <class F>
class LimLeeComb
{
  public:
    using Curve = typename F::Curve;
    using Point = typename F::Point;

    /**
     * Build the table for @p g on @p c, covering scalars of up to
     * @p scalar_bits bits (use the subgroup order's bit length). All
     * entries are converted to affine with one batched inversion. An
     * entry at the neutral element (a generator of order below
     * 2^scalar_bits) is fatal.
     */
    LimLeeComb(const Curve &c, const AffinePoint &g, unsigned scalar_bits)
        : base(g), span(combSpan(scalar_bits))
    {
        const F fam{c};
        if (g.inf || !c.onCurve(g))
            fatal("fixed-base comb: generator is not a finite curve point");

        // powers[t] = 2^(t*e) g, t = i*v + b: one chain of doublings,
        // the last of each power's e doublings feeding additions.
        std::vector<Point> powers{fam.lift(g)};
        while (powers.size() < kWidth * kTables) {
            Point p = powers.back();
            for (unsigned s = 0; s < span; s++)
                p = fam.dbl(p, s + 1 == span);
            powers.push_back(p);
        }

        // Sub-table b's entry j, at b * (2^w - 1) + j - 1, is the sum
        // over the set bits of j; clearing the lowest bit reuses the
        // already-built smaller entry.
        std::vector<Point> points;
        points.reserve(kTables * kEntries);
        for (unsigned b = 0; b < kTables; b++) {
            size_t first = points.size();
            for (size_t j = 1; j <= kEntries; j++) {
                const Point &pw = powers[std::countr_zero(j) * kTables + b];
                size_t rest = j & (j - 1);
                points.push_back(
                    rest == 0 ? pw : fam.add(points[first + rest - 1], pw));
            }
        }
        table.reserve(points.size());
        for (const AffineFe &a : c.toAffineBatchFe(points)) {
            if (fam.isNeutral(a))
                fatal("fixed-base comb: generator order below "
                      "2^scalar_bits collapsed a table entry");
            table.push_back(fam.addend(a));
        }
    }

    /**
     * k * G as the family's projective point (no final inversion:
     * callers batch the affine conversions across requests). @p c
     * must be parameter-identical to the construction curve. Requires
     * k < 2^(w*v*e); anything in [0, 2^scalar_bits) qualifies.
     */
    Point
    mulProjective(const Curve &c, const BigUInt &k) const
    {
        const F fam{c};
        const unsigned cols = kTables * span;
        if (k.bitLength() > kWidth * cols)
            fatal("fixed-base comb: scalar exceeds the table's %u-bit "
                  "range", kWidth * cols);
        Point r = fam.neutral();
        for (unsigned col = span; col-- > 0;) {
            std::array<unsigned, kTables> j;
            bool adds = false;
            for (unsigned b = 0; b < kTables; b++) {
                j[b] = digit(k, cols, b * span + col);
                adds = adds || j[b] != 0;
            }
            r = fam.dbl(r, adds);
            for (unsigned b = 0; b < kTables; b++)
                if (j[b] != 0)
                    r = fam.addMixed(r, table[b * kEntries + j[b] - 1]);
        }
        return r;
    }

    /** mulProjective under its Weierstraß name. */
    JacobianPoint
    mulJacobian(const Curve &c, const BigUInt &k) const
        requires std::same_as<Point, JacobianPoint>
    {
        return mulProjective(c, k);
    }

    /** k * G as an affine point (one inversion; convenience). */
    AffinePoint
    mul(const Curve &c, const BigUInt &k) const
    {
        return c.toAffine(mulProjective(c, k));
    }

    const AffinePoint &generator() const { return base; }
    /** Stored points, v * (2^w - 1): sub-table b's entry j at
     *  b * (2^w - 1) + j - 1. */
    size_t tableSize() const { return table.size(); }

  private:
    // The layout of every table: w rows, v sub-tables.
    static constexpr unsigned kWidth = 8;
    static constexpr unsigned kTables = 3;
    static constexpr size_t kEntries = (size_t(1) << kWidth) - 1;

    /** e = ceil(ceil(bits / w) / v), columns per sub-table. */
    static unsigned
    combSpan(unsigned scalar_bits)
    {
        if (scalar_bits == 0)
            fatal("fixed-base comb: scalar_bits must be positive");
        unsigned d = (scalar_bits + kWidth - 1) / kWidth;
        return (d + kTables - 1) / kTables;
    }

    /** Digit of comb column @p col of @p cols: bit i is bit
     *  i*cols + col of @p k, read straight from its limbs. */
    static unsigned
    digit(const BigUInt &k, unsigned cols, unsigned col)
    {
        unsigned j = 0;
        for (unsigned i = 0, bit = col; i < kWidth; i++, bit += cols)
            j |= (k.limb(bit / 32) >> (bit % 32) & 1u) << i;
        return j;
    }

    AffinePoint base;
    unsigned span;                         ///< e, columns per sub-table
    std::vector<typename F::Addend> table; ///< none at the neutral element
};

/** The comb over a short Weierstraß (or GLV) curve. */
using FixedBaseComb = LimLeeComb<WeierstrassFamily>;
/** The comb over a twisted Edwards curve. */
using EdwardsFixedBaseComb = LimLeeComb<EdwardsFamily>;

} // namespace jaavr

#endif // JAAVR_CURVES_POINT_MULT_HH
