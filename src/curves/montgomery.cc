#include "curves/montgomery.hh"

#include <algorithm>

#include "curves/ladder.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

/** PrimeField under the ladder's names, a24 as a small constant. */
struct LadderOps
{
    const PrimeField &f;
    uint32_t a24;

    Fe add(const Fe &a, const Fe &b) const { return f.add(a, b); }
    Fe sub(const Fe &a, const Fe &b) const { return f.sub(a, b); }
    Fe mul(const Fe &a, const Fe &b) const { return f.mul(a, b); }
    Fe sqr(const Fe &a) const { return f.sqr(a); }
    Fe mulA24(const Fe &a) const { return f.mulSmall(a, a24); }

    /** Swaps a and b when bit is 1, under a mask, with no branch. */
    static void
    cswap(unsigned bit, Fe &a, Fe &b)
    {
        uint64_t mask = 0 - uint64_t(bit);
        for (size_t i = 0; i < Fe::limbs; i++) {
            uint64_t t = mask & (a.w[i] ^ b.w[i]);
            a.w[i] ^= t;
            b.w[i] ^= t;
        }
    }
};

} // anonymous namespace

MontgomeryCurve::MontgomeryCurve(const PrimeField &field, const BigUInt &ca,
                                 const BigUInt &cb, std::string name)
    : f(&field), a(ca), b(cb), ident(std::move(name))
{
    // (A^2 - 4) B != 0.
    if (b.isZero() || f->sub(f->sqr(a), f->fromUint(4)).isZero())
        fatal("MontgomeryCurve %s: singular parameters", ident.c_str());
    // The paper's doubling cost relies on (A+2)/4 being a small
    // (<= 16-bit) integer constant.
    BigUInt a2 = a + BigUInt(2);
    if ((a2.low32() & 3) != 0 || a2.bitLength() > 18)
        fatal("MontgomeryCurve %s: (A+2)/4 must be a small integer",
              ident.c_str());
    a24v = (a2 >> 2).low32();
}

bool
MontgomeryCurve::onCurve(const AffinePoint &p) const
{
    if (p.inf)
        return true;
    BigUInt lhs = f->mul(b, f->sqr(p.y));
    BigUInt x2 = f->sqr(p.x);
    BigUInt rhs = f->add(f->add(f->mul(x2, p.x), f->mul(a, x2)), p.x);
    return lhs == rhs;
}

std::optional<AffinePoint>
MontgomeryCurve::liftX(const BigUInt &x, Rng &rng) const
{
    BigUInt x2 = f->sqr(x);
    BigUInt rhs = f->add(f->add(f->mul(x2, x), f->mul(a, x2)), x);
    BigUInt y2 = f->mul(rhs, f->inv(b));
    auto y = f->sqrt(y2, rng);
    if (!y)
        return std::nullopt;
    return AffinePoint(x, *y);
}

AffinePoint
MontgomeryCurve::randomPoint(Rng &rng) const
{
    for (;;) {
        auto p = liftX(f->random(rng), rng);
        if (!p || p->y.isZero())
            continue;
        if (rng.flip())
            return AffinePoint(p->x, f->neg(p->y));
        return *p;
    }
}

XzPoint
MontgomeryCurve::ladderXz(const BigUInt &k, const BigUInt &x,
                          const BigUInt *blind) const
{
    // R0 = O = (1 : 0), R1 = P = (x : 1); with a blind, P starts as
    // the equivalent randomized projective point (x * blind : blind).
    Fe xf = f->fromBig(x);
    LadderState<Fe> s{Fe::one(), Fe{}, xf, Fe::one()};
    if (blind && !blind->isZero()) {
        s.z3 = f->fromBig(*blind);
        s.x3 = f->mul(xf, s.z3);
    }
    unsigned steps = std::max<unsigned>(k.bitLength(), f->bits());
    s = montLadder(LadderOps{*f, a24v}, xf, s, k, steps,
                   [](unsigned, const LadderState<Fe> &) { return true; });
    return XzPoint{s.x2, s.z2};
}

std::optional<BigUInt>
MontgomeryCurve::ladder(const BigUInt &k, const BigUInt &x,
                        const BigUInt *blind) const
{
    XzPoint r0 = ladderXz(k, x, blind);
    if (r0.z.isZero())
        return std::nullopt;
    return f->mul(r0.x, f->inv(r0.z)).toBig();
}

WeierstrassCurve
MontgomeryCurve::toWeierstrass() const
{
    // a_w = (3 - A^2) / (3 B^2), b_w = (2A^3 - 9A) / (27 B^3).
    BigUInt three = f->fromUint(3);
    BigUInt a2 = f->sqr(a);
    BigUInt b2 = f->sqr(b);
    BigUInt aw = f->mul(f->sub(three, a2),
                        f->inv(f->mul(three, b2)));
    BigUInt a3 = f->mul(a2, a);
    BigUInt num = f->sub(f->add(a3, a3), f->mulSmall(a, 9));
    BigUInt bw = f->mul(num, f->inv(f->mul(f->fromUint(27),
                                           f->mul(b2, b))));
    return WeierstrassCurve(*f, aw, bw, ident + "-as-weierstrass");
}

AffinePoint
MontgomeryCurve::mapToWeierstrass(const AffinePoint &p) const
{
    if (p.inf)
        return p;
    // x_w = (x + A/3) / B, y_w = y / B.
    BigUInt binv = f->inv(b);
    BigUInt a_third = f->mul(a, f->inv(f->fromUint(3)));
    return AffinePoint(f->mul(f->add(p.x, a_third), binv),
                       f->mul(p.y, binv));
}

AffinePoint
MontgomeryCurve::mapFromWeierstrass(const AffinePoint &p) const
{
    if (p.inf)
        return p;
    BigUInt a_third = f->mul(a, f->inv(f->fromUint(3)));
    return AffinePoint(f->sub(f->mul(p.x, b), a_third),
                       f->mul(p.y, b));
}

} // namespace jaavr
