#include "curves/montgomery.hh"

#include "support/logging.hh"

namespace jaavr
{

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
MontgomeryCurve::xzDbl(const XzPoint &p) const
{
    // 2M + 2S + 1 mulSmall (paper: "3M + 2S" with one small operand).
    Fe sum = f->add(p.x, p.z);
    Fe dif = f->sub(p.x, p.z);
    Fe sum2 = f->sqr(sum);
    Fe dif2 = f->sqr(dif);
    Fe e = f->sub(sum2, dif2);  // 4 X Z
    XzPoint r;
    r.x = f->mul(sum2, dif2);
    r.z = f->mul(e, f->add(dif2, f->mulSmall(e, a24v)));
    return r;
}

XzPoint
MontgomeryCurve::xzDiffAdd(const XzPoint &p, const XzPoint &q,
                           const Fe &x_diff) const
{
    // 3M + 2S with the difference point in affine form (Z = 1), the
    // Montgomery-ladder optimization the paper cites from
    // [3, Remark 13.36 (ii)].
    Fe t1 = f->mul(f->sub(p.x, p.z), f->add(q.x, q.z));
    Fe t2 = f->mul(f->add(p.x, p.z), f->sub(q.x, q.z));
    Fe s = f->sqr(f->add(t1, t2));
    Fe d = f->sqr(f->sub(t1, t2));
    XzPoint r;
    r.x = s;                      // Z_diff = 1
    r.z = f->mul(x_diff, d);
    return r;
}

XzPoint
MontgomeryCurve::ladderXz(const BigUInt &k, const BigUInt &x,
                          const BigUInt *blind) const
{
    if (k.isZero())
        return XzPoint{Fe::one(), Fe{}};  // infinity

    // R0 = P (affine), R1 = 2P; invariant R1 - R0 = P. With a blind,
    // R0 starts as the equivalent randomized projective point
    // (x * lambda : lambda); xzDbl/xzDiffAdd preserve the class.
    Fe xf = f->fromBig(x);
    XzPoint r0{xf, Fe::one()};
    if (blind && !blind->isZero()) {
        Fe bf = f->fromBig(*blind);
        r0.x = f->mul(xf, bf);
        r0.z = bf;
    }
    XzPoint r1 = xzDbl(r0);

    for (size_t i = k.bitLength() - 1; i-- > 0;) {
        // One differential addition and one doubling per bit,
        // regardless of the bit's value.
        if (k.bit(i)) {
            r0 = xzDiffAdd(r0, r1, xf);
            r1 = xzDbl(r1);
        } else {
            r1 = xzDiffAdd(r0, r1, xf);
            r0 = xzDbl(r0);
        }
    }
    return r0;
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
