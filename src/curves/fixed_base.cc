#include "curves/fixed_base.hh"

#include <bit>

#include "support/logging.hh"

namespace jaavr
{

namespace
{

/** Row pattern of column @p col: bit i*d + col of k goes to row i. */
unsigned
combColumn(const BigUInt &k, unsigned width, unsigned cols, unsigned col)
{
    unsigned j = 0;
    for (unsigned row = 0; row < width; row++)
        if (k.bit(row * cols + col))
            j |= 1u << row;
    return j;
}

} // namespace

FixedBaseComb::FixedBaseComb(const WeierstrassCurve &c, const AffinePoint &g,
                             unsigned scalar_bits, unsigned w)
    : base(g), width(w)
{
    if (w < 2 || w > 8)
        fatal("FixedBaseComb: width %u out of range [2, 8]", w);
    if (g.inf || !c.onCurve(g))
        fatal("FixedBaseComb: generator is not a finite curve point");
    if (scalar_bits == 0)
        fatal("FixedBaseComb: scalar_bits must be positive");
    cols = (scalar_bits + w - 1) / w;

    // powers[i] = 2^(i*d) * G.
    std::vector<JacobianPoint> powers(w);
    powers[0] = c.toJacobian(g);
    for (unsigned i = 1; i < w; i++) {
        JacobianPoint t = powers[i - 1];
        for (unsigned s = 0; s < cols; s++)
            t = c.dbl(t);
        powers[i] = t;
    }

    // Entry j (stored at j - 1) is the sum over the set bits of j;
    // clearing the lowest bit reuses the already-built smaller entry.
    size_t entries = (size_t(1) << w) - 1;
    std::vector<JacobianPoint> tj;
    tj.reserve(entries);
    for (size_t j = 1; j <= entries; j++) {
        unsigned lsb = unsigned(std::countr_zero(j));
        size_t rest = j & (j - 1);
        tj.push_back(rest == 0 ? powers[lsb]
                               : c.add(tj[rest - 1], powers[lsb]));
    }
    table = c.toAffineBatchFe(tj);
    for (const AffineFe &p : table)
        if (p.inf)
            fatal("FixedBaseComb: generator order below 2^scalar_bits "
                  "collapsed a table entry to infinity");
}

JacobianPoint
FixedBaseComb::mulJacobian(const WeierstrassCurve &c, const BigUInt &k) const
{
    if (k.bitLength() > width * cols)
        fatal("FixedBaseComb: scalar exceeds the table's %u-bit range",
              width * cols);
    JacobianPoint r = JacobianPoint::infinity();
    for (unsigned col = cols; col-- > 0;) {
        r = c.dbl(r);
        unsigned j = combColumn(k, width, cols, col);
        if (j != 0)
            r = c.addMixed(r, table[j - 1]);
    }
    return r;
}

AffinePoint
FixedBaseComb::mul(const WeierstrassCurve &c, const BigUInt &k) const
{
    return c.toAffine(mulJacobian(c, k));
}

EdwardsFixedBaseComb::EdwardsFixedBaseComb(const EdwardsCurve &c,
                                           const AffinePoint &g,
                                           unsigned scalar_bits, unsigned w)
    : base(g), width(w)
{
    if (w < 2 || w > 8)
        fatal("EdwardsFixedBaseComb: width %u out of range [2, 8]", w);
    if (g.inf || !c.onCurve(g))
        fatal("EdwardsFixedBaseComb: generator is not a curve point");
    if (scalar_bits == 0)
        fatal("EdwardsFixedBaseComb: scalar_bits must be positive");
    cols = (scalar_bits + w - 1) / w;

    std::vector<ExtendedPoint> powers(w);
    powers[0] = c.toExtended(g);
    for (unsigned i = 1; i < w; i++) {
        ExtendedPoint t = powers[i - 1];
        for (unsigned s = 0; s < cols; s++)
            t = c.dbl(t, s + 1 == cols);
        powers[i] = t;
    }

    size_t entries = (size_t(1) << w) - 1;
    std::vector<ExtendedPoint> tj;
    tj.reserve(entries);
    for (size_t j = 1; j <= entries; j++) {
        unsigned lsb = unsigned(std::countr_zero(j));
        size_t rest = j & (j - 1);
        tj.push_back(rest == 0 ? powers[lsb]
                               : c.add(tj[rest - 1], powers[lsb]));
    }
    table = c.toAffineBatchFe(tj);
    tableTd2.reserve(entries);
    for (const AffineFe &p : table)
        tableTd2.push_back(c.precomputeTd2(p));
}

ExtendedPoint
EdwardsFixedBaseComb::mulExtended(const EdwardsCurve &c,
                                  const BigUInt &k) const
{
    if (k.bitLength() > width * cols)
        fatal("EdwardsFixedBaseComb: scalar exceeds the table's "
              "%u-bit range", width * cols);
    ExtendedPoint r = c.toExtended(EdwardsCurve::identityFe());
    for (unsigned col = cols; col-- > 0;) {
        unsigned j = combColumn(k, width, cols, col);
        r = c.dbl(r, j != 0);
        if (j != 0)
            r = c.addMixed(r, table[j - 1], tableTd2[j - 1]);
    }
    return r;
}

AffinePoint
EdwardsFixedBaseComb::mul(const EdwardsCurve &c, const BigUInt &k) const
{
    return c.toAffine(mulExtended(c, k));
}

} // namespace jaavr
