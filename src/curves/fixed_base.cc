#include "curves/fixed_base.hh"

#include <array>
#include <bit>

#include "support/logging.hh"

namespace jaavr
{

namespace
{

// The comb layout of every table: w rows, v sub-tables (DESIGN.md §14
// has the sweep behind the choice).
constexpr unsigned kWidth = 8;
constexpr unsigned kTables = 3;
constexpr size_t kEntries = (size_t(1) << kWidth) - 1; ///< per sub-table

/** e = ceil(ceil(bits / w) / v), columns per sub-table. */
unsigned
combSpan(unsigned scalar_bits)
{
    if (scalar_bits == 0)
        fatal("fixed-base comb: scalar_bits must be positive");
    unsigned d = (scalar_bits + kWidth - 1) / kWidth;
    return (d + kTables - 1) / kTables;
}

/**
 * The table's points in storage order: sub-table b's entry j, at
 * b * (2^w - 1) + j - 1, is sum_{i in bits(j)} 2^(i*v*e + b*e) @p g.
 * @p dbl(p, last) doubles (last: the final doubling of a power, whose
 * result is added); @p add(p, q) adds two such points.
 */
template <class Point, class Dbl, class Add>
std::vector<Point>
combPoints(const Point &g, unsigned span, Dbl dbl, Add add)
{
    // powers[t] = 2^(t*e) g, t = i*v + b: one chain of doublings.
    std::vector<Point> powers{g};
    while (powers.size() < kWidth * kTables) {
        Point p = powers.back();
        for (unsigned s = 0; s < span; s++)
            p = dbl(p, s + 1 == span);
        powers.push_back(p);
    }

    // Entry j is the sum over the set bits of j; clearing the lowest
    // bit reuses the already-built smaller entry.
    std::vector<Point> points;
    points.reserve(kTables * kEntries);
    for (unsigned b = 0; b < kTables; b++) {
        size_t first = points.size();
        for (size_t j = 1; j <= kEntries; j++) {
            const Point &pw = powers[std::countr_zero(j) * kTables + b];
            size_t rest = j & (j - 1);
            points.push_back(rest == 0 ? pw
                                       : add(points[first + rest - 1], pw));
        }
    }
    return points;
}

/** Digit of comb column @p col of @p cols: bit i is bit i*cols + col
 *  of @p k, read straight from its limbs. */
unsigned
combDigit(const BigUInt &k, unsigned cols, unsigned col)
{
    unsigned j = 0;
    for (unsigned i = 0, bit = col; i < kWidth; i++, bit += cols)
        j |= (k.limb(bit / 32) >> (bit % 32) & 1u) << i;
    return j;
}

/**
 * k * g from the table, starting from the neutral element @p r: for
 * each column, MSB-first, @p dbl(r, adds) once (adds: an addition
 * follows), then @p add(r, index) for each sub-table whose digit of
 * the column is nonzero.
 */
template <class Point, class Dbl, class Add>
Point
combMul(const BigUInt &k, unsigned span, Point r, Dbl dbl, Add add)
{
    const unsigned cols = kTables * span;
    if (k.bitLength() > kWidth * cols)
        fatal("fixed-base comb: scalar exceeds the table's %u-bit range",
              kWidth * cols);
    for (unsigned col = span; col-- > 0;) {
        std::array<unsigned, kTables> j;
        bool adds = false;
        for (unsigned b = 0; b < kTables; b++) {
            j[b] = combDigit(k, cols, b * span + col);
            adds = adds || j[b] != 0;
        }
        r = dbl(r, adds);
        for (unsigned b = 0; b < kTables; b++)
            if (j[b] != 0)
                r = add(r, b * kEntries + j[b] - 1);
    }
    return r;
}

} // namespace

FixedBaseComb::FixedBaseComb(const WeierstrassCurve &c, const AffinePoint &g,
                             unsigned scalar_bits)
    : base(g), span(combSpan(scalar_bits))
{
    if (g.inf || !c.onCurve(g))
        fatal("FixedBaseComb: generator is not a finite curve point");
    table = c.toAffineBatchFe(combPoints(
        c.toJacobian(g), span,
        [&](const JacobianPoint &p, bool) { return c.dbl(p); },
        [&](const JacobianPoint &p, const JacobianPoint &q) {
            return c.add(p, q);
        }));
    for (const AffineFe &p : table)
        if (p.inf)
            fatal("FixedBaseComb: generator order below 2^scalar_bits "
                  "collapsed a table entry to infinity");
}

JacobianPoint
FixedBaseComb::mulJacobian(const WeierstrassCurve &c, const BigUInt &k) const
{
    return combMul(
        k, span, JacobianPoint::infinity(),
        [&](const JacobianPoint &r, bool) { return c.dbl(r); },
        [&](const JacobianPoint &r, size_t i) {
            return c.addMixed(r, table[i]);
        });
}

AffinePoint
FixedBaseComb::mul(const WeierstrassCurve &c, const BigUInt &k) const
{
    return c.toAffine(mulJacobian(c, k));
}

EdwardsFixedBaseComb::EdwardsFixedBaseComb(const EdwardsCurve &c,
                                           const AffinePoint &g,
                                           unsigned scalar_bits)
    : base(g), span(combSpan(scalar_bits))
{
    if (g.inf || !c.onCurve(g))
        fatal("EdwardsFixedBaseComb: generator is not a curve point");
    table = c.toAffineBatchFe(combPoints(
        c.toExtended(g), span,
        [&](const ExtendedPoint &p, bool last) { return c.dbl(p, last); },
        [&](const ExtendedPoint &p, const ExtendedPoint &q) {
            return c.add(p, q);
        }));
    tableTd2.reserve(table.size());
    for (const AffineFe &p : table)
        tableTd2.push_back(c.precomputeTd2(p));
}

ExtendedPoint
EdwardsFixedBaseComb::mulExtended(const EdwardsCurve &c,
                                  const BigUInt &k) const
{
    return combMul(
        k, span, c.toExtended(EdwardsCurve::identityFe()),
        [&](const ExtendedPoint &r, bool adds) { return c.dbl(r, adds); },
        [&](const ExtendedPoint &r, size_t i) {
            return c.addMixed(r, table[i], tableTd2[i]);
        });
}

AffinePoint
EdwardsFixedBaseComb::mul(const EdwardsCurve &c, const BigUInt &k) const
{
    return c.toAffine(mulExtended(c, k));
}

} // namespace jaavr
