/**
 * @file
 * The x-only Montgomery ladder: one definition of the RFC 7748 ladder
 * step, run by MontgomeryCurve on PrimeField, by the OPF word model
 * (OpfFieldOps over OpfField) and by OpfAvrLibrary::ladder on the
 * ISS. A key bit only feeds a conditional swap, so every step makes
 * the same field operations in the same order whatever the key.
 */

#ifndef JAAVR_CURVES_LADDER_HH
#define JAAVR_CURVES_LADDER_HH

#include <utility>

#include "bigint/big_uint.hh"
#include "field/opf_field.hh"

namespace jaavr
{

/** The ladder's two projective points (x2 : z2) and (x3 : z3). */
template <typename W>
struct LadderState
{
    W x2, z2, x3, z3;
};

/**
 * The ladder for the top @p kbits bits of @p k (most significant
 * first) from @p s, usually (1 : 0) and (x1 : 1); a blinded start
 * scales each point by its own nonzero factor. @p ops provides
 * add(a, b), sub(a, b), mul(a, b), sqr(a), mulA24(a) (the product by
 * (A + 2) / 4) and cswap(bit, a, b), which swaps a and b when bit is
 * 1; @p x1 is the affine x of the difference point, in the
 * representation @p ops computes on. x1 = 0, the point of order 2,
 * lies outside the formulas' domain.
 *
 * @p before(i, s) runs ahead of step i (i = 0 processes bit
 * kbits - 1) and once more ahead of the final swap (i = kbits), so
 * for i > 0 it sees step i - 1's output. Returning false stops the
 * ladder there. Returns the state after the final swap: x(k P) =
 * x2 / z2, with z2 = 0 for the point at infinity.
 */
template <typename W, typename Ops, typename Before>
LadderState<W>
montLadder(Ops &&ops, const W &x1, LadderState<W> s, const BigUInt &k,
           unsigned kbits, Before &&before)
{
    unsigned swap = 0;
    for (unsigned i = 0; i < kbits; i++) {
        if (!before(i, std::as_const(s)))
            return s;
        unsigned bit = k.bit(kbits - 1 - i);
        swap ^= bit;
        ops.cswap(swap, s.x2, s.x3);
        ops.cswap(swap, s.z2, s.z3);
        swap = bit;

        W a = ops.add(s.x2, s.z2);
        W aa = ops.sqr(a);
        W b = ops.sub(s.x2, s.z2);
        W bb = ops.sqr(b);
        W e = ops.sub(aa, bb);
        W c = ops.add(s.x3, s.z3);
        W d = ops.sub(s.x3, s.z3);
        W da = ops.mul(d, a);
        W cb = ops.mul(c, b);
        W t0 = ops.add(da, cb);
        s.x3 = ops.sqr(t0);
        W t1 = ops.sub(da, cb);
        W t2 = ops.sqr(t1);
        s.z3 = ops.mul(x1, t2);
        s.x2 = ops.mul(aa, bb);
        W t3 = ops.mulA24(e);
        W t4 = ops.add(bb, t3);
        s.z2 = ops.mul(e, t4);
    }
    if (!before(kbits, std::as_const(s)))
        return s;
    ops.cswap(swap, s.x2, s.x3);
    ops.cswap(swap, s.z2, s.z3);
    return s;
}

/**
 * The OPF library's arithmetic under the ladder's names, in the
 * Montgomery domain: @p f is the word model OpfField or the ISS
 * routines, and squarings and the product by a24m = (A + 2) / 4 * R
 * are its Montgomery products. The swap is host-side data movement.
 */
template <typename F>
struct OpfFieldOps
{
    F &f;
    OpfField::Words a24m;

    auto add(const auto &a, const auto &b) const { return f.add(a, b); }
    auto sub(const auto &a, const auto &b) const { return f.sub(a, b); }
    auto mul(const auto &a, const auto &b) const { return f.montMul(a, b); }
    auto sqr(const auto &a) const { return f.montMul(a, a); }
    auto mulA24(const auto &a) const { return f.montMul(a24m, a); }

    void
    cswap(unsigned bit, OpfField::Words &a, OpfField::Words &b) const
    {
        if (bit)
            std::swap(a, b);
    }
};

} // namespace jaavr

#endif // JAAVR_CURVES_LADDER_HH
