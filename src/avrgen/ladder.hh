/**
 * @file
 * The x-only Montgomery ladder over word arithmetic in the Montgomery
 * domain: one definition of the RFC 7748 ladder step shared by the
 * ISS (OpfAvrLibrary::ladder, every field operation a generated
 * routine) and the host model (OpfFieldOps over OpfField), so the
 * fault campaign, the CPA traces and the CPA's predictions all run
 * the same 18 field operations per step in the same order.
 */

#ifndef JAAVR_AVRGEN_LADDER_HH
#define JAAVR_AVRGEN_LADDER_HH

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
 * add(a, b), sub(a, b) and the Montgomery product mul(a, b); @p a24m
 * and @p x1m are (A + 2) / 4 and the affine x of the difference
 * point, both in the Montgomery domain. The conditional swaps are
 * host-side data movement (register renaming on a real
 * implementation); all arithmetic goes through @p ops.
 *
 * @p before(i, s) runs ahead of step i (i = 0 processes bit
 * kbits - 1) and once more ahead of the final swap (i = kbits), so
 * for i > 0 it sees step i - 1's output. Returning false stops the
 * ladder there. Returns the state after the final swap: x(k P) =
 * x2 / z2, with z2 = 0 for the point at infinity.
 */
template <typename W, typename Ops, typename Before>
LadderState<W>
montLadder(Ops &&ops, const W &a24m, const W &x1m, LadderState<W> s,
           const BigUInt &k, unsigned kbits, Before &&before)
{
    unsigned swap = 0;
    for (unsigned i = 0; i < kbits; i++) {
        if (!before(i, std::as_const(s)))
            return s;
        unsigned bit = k.bit(kbits - 1 - i);
        swap ^= bit;
        if (swap) {
            std::swap(s.x2, s.x3);
            std::swap(s.z2, s.z3);
        }
        swap = bit;

        W a = ops.add(s.x2, s.z2);
        W aa = ops.mul(a, a);
        W b = ops.sub(s.x2, s.z2);
        W bb = ops.mul(b, b);
        W e = ops.sub(aa, bb);
        W c = ops.add(s.x3, s.z3);
        W d = ops.sub(s.x3, s.z3);
        W da = ops.mul(d, a);
        W cb = ops.mul(c, b);
        W t0 = ops.add(da, cb);
        s.x3 = ops.mul(t0, t0);
        W t1 = ops.sub(da, cb);
        W t2 = ops.mul(t1, t1);
        s.z3 = ops.mul(x1m, t2);
        s.x2 = ops.mul(aa, bb);
        W t3 = ops.mul(a24m, e);
        W t4 = ops.add(bb, t3);
        s.z2 = ops.mul(e, t4);
    }
    if (!before(kbits, std::as_const(s)))
        return s;
    if (swap) {
        std::swap(s.x2, s.x3);
        std::swap(s.z2, s.z3);
    }
    return s;
}

/** The host model's arithmetic under the ladder's names. */
struct OpfFieldOps
{
    const OpfField &f;

    auto add(const auto &a, const auto &b) const { return f.add(a, b); }
    auto sub(const auto &a, const auto &b) const { return f.sub(a, b); }
    auto mul(const auto &a, const auto &b) const { return f.montMul(a, b); }
};

} // namespace jaavr

#endif // JAAVR_AVRGEN_LADDER_HH
