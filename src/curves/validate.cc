#include "curves/validate.hh"

namespace jaavr
{

bool
validScalar(const BigUInt &k, const BigUInt &n)
{
    return !k.isZero() && k < n;
}

bool
hasseProvesCofactorOne(const BigUInt &p, const BigUInt &n)
{
    // 2n - p - 1 > 2 sqrt(p), squared on integers.
    BigUInt twice = n + n;
    BigUInt pp1 = p + BigUInt(1);
    if (!(twice > pp1))
        return false;
    BigUInt gap = twice - pp1;
    return gap * gap > (p << 2);
}

bool
validatePoint(const WeierstrassCurve &c, const AffinePoint &p,
              const BigUInt *order)
{
    if (p.inf)
        return false;
    const BigUInt &m = c.field().modulus();
    if (!(p.x < m) || !(p.y < m))
        return false;
    if (!c.onCurve(p))
        return false;
    if (order && !hasseProvesCofactorOne(m, *order) &&
        !c.mulBinary(*order, p).inf)
        return false;
    return true;
}

bool
validatePoint(const EdwardsCurve &c, const AffinePoint &p,
              const BigUInt *order)
{
    // x = 0: the neutral element (0, 1) and the order-2 point (0, -1);
    // y = 0: the order-4 points (+-1/sqrt(a), 0).
    if (p.inf || p.x.isZero() || p.y.isZero())
        return false;
    const BigUInt &m = c.field().modulus();
    if (!(p.x < m) || !(p.y < m))
        return false;
    if (!c.onCurve(p))
        return false;
    if (order && !c.isIdentity(c.mulBinary(*order, p)))
        return false;
    return true;
}

bool
validateX(const MontgomeryCurve &c, const BigUInt &x)
{
    const PrimeField &f = c.field();
    if (!(x < f.modulus()))
        return false;
    // rhs = x^3 + A x^2 + x = x (x^2 + A x + 1)
    BigUInt x2 = f.sqr(x);
    BigUInt rhs = f.mul(x, f.add(f.add(x2, f.mul(c.coeffA(), x)),
                                 BigUInt(1)));
    if (rhs.isZero())
        return false; // order <= 2
    // rhs/B is a square iff rhs*B is: 1/B = B * (1/B)^2.
    return f.isSquare(f.mul(rhs, c.coeffB()));
}

namespace
{

HardenedMul
fail(const char *reason)
{
    HardenedMul r;
    r.reason = reason;
    return r;
}

/**
 * The full-point hardened skeleton: k in [1, n) and p validated
 * against n, @p primary and @p redo compared (in that order), and the
 * result validated again.
 */
template <class Curve, class Primary, class Redo>
HardenedMul
hardenedMul(const Curve &c, const BigUInt &k, const AffinePoint &p,
            const BigUInt &n, Primary &&primary, Redo &&redo)
{
    if (!validScalar(k, n))
        return fail("invalid scalar");
    if (!validatePoint(c, p, &n))
        return fail("invalid input point");
    AffinePoint a = primary();
    AffinePoint b = redo();
    if (a.inf != b.inf || (!a.inf && (a.x != b.x || a.y != b.y)))
        return fail("recomputation mismatch");
    // k in [1, n) times a point of prime order n is never infinity.
    if (!validatePoint(c, a))
        return fail("invalid output point");
    HardenedMul r;
    r.point = a;
    r.ok = true;
    return r;
}

} // anonymous namespace

HardenedMul
hardenedMulWeierstrass(const WeierstrassCurve &c, const BigUInt &k,
                       const AffinePoint &p, const BigUInt &n)
{
    return hardenedMul(
        c, k, p, n, [&] { return c.mulLadder(k, p); },
        [&] { return c.mulNaf(k, p); });
}

HardenedMul
hardenedMulGlv(const GlvCurve &c, const BigUInt &k, const AffinePoint &p)
{
    return hardenedMul(
        c, k, p, c.order(), [&] { return c.mulGlvJsf(k, p); },
        [&] { return c.mulLadder(k, p); });
}

HardenedMul
hardenedMulEdwards(const EdwardsCurve &c, const BigUInt &k,
                   const AffinePoint &p, const BigUInt &n)
{
    return hardenedMul(
        c, k, p, n, [&] { return c.mulDaaa(k, p); },
        [&] { return c.mulNaf(k, p); });
}

HardenedMul
hardenedMulMontgomery(const MontgomeryCurve &c, const BigUInt &k,
                      const BigUInt &x, const BigUInt &n, Rng *rng)
{
    if (!validScalar(k, n))
        return fail("invalid scalar");
    if (!validateX(c, x))
        return fail("invalid input point");
    // Duplicate-image redundancy: the second pass starts from its own
    // copies of k and x, so a fault in one image diverges the passes.
    // With an rng, each pass also gets an independent projective
    // blind, so even the shared intermediates differ between passes.
    BigUInt k2 = k;
    BigUInt x2 = x;
    const PrimeField &f = c.field();
    BigUInt b1, b2;
    if (rng) {
        do
            b1 = f.random(*rng);
        while (b1.isZero());
        do
            b2 = f.random(*rng);
        while (b2.isZero());
    }
    std::optional<BigUInt> primary = c.ladder(k, x, rng ? &b1 : nullptr);
    std::optional<BigUInt> redo = c.ladder(k2, x2, rng ? &b2 : nullptr);
    if (primary.has_value() != redo.has_value() ||
        (primary && *primary != *redo))
        return fail("recomputation mismatch");
    if (!primary)
        return fail("result at infinity");
    if (!validateX(c, *primary))
        return fail("invalid output point");
    HardenedMul r;
    r.x = primary;
    r.ok = true;
    return r;
}

} // namespace jaavr
