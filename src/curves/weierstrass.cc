#include "curves/weierstrass.hh"

#include "curves/point_mult.hh"
#include "field/batch_inverse.hh"
#include "support/logging.hh"

namespace jaavr
{

WeierstrassCurve::WeierstrassCurve(const PrimeField &field, const BigUInt &ca,
                                   const BigUInt &cb, std::string name)
    : f(&field), a(ca), b(cb), ident(std::move(name))
{
    aFe = f->fromBig(a);
    aIsZero = a.isZero();
    aIsMinus3 = (a == field.modulus() - BigUInt(3));
    // Non-singularity: 4a^3 + 27b^2 != 0.
    BigUInt disc = f->add(
        f->mulSmall(f->mul(f->sqr(a), a), 4),
        f->mulSmall(f->sqr(b), 27));
    if (disc.isZero())
        fatal("WeierstrassCurve %s: singular curve", ident.c_str());
}

bool
WeierstrassCurve::onCurve(const AffinePoint &p) const
{
    if (p.inf)
        return true;
    BigUInt lhs = f->sqr(p.y);
    BigUInt rhs = f->add(f->add(f->mul(f->sqr(p.x), p.x),
                                f->mul(a, p.x)), b);
    return lhs == rhs;
}

std::optional<AffinePoint>
WeierstrassCurve::liftX(const BigUInt &x, Rng &rng) const
{
    BigUInt rhs = f->add(f->add(f->mul(f->sqr(x), x), f->mul(a, x)), b);
    auto y = f->sqrt(rhs, rng);
    if (!y)
        return std::nullopt;
    return AffinePoint(x, *y);
}

AffinePoint
WeierstrassCurve::randomPoint(Rng &rng) const
{
    for (;;) {
        BigUInt x = f->random(rng);
        auto p = liftX(x, rng);
        if (!p)
            continue;
        if (p->y.isZero())
            continue;  // avoid 2-torsion points
        if (rng.flip())
            return negate(*p);
        return *p;
    }
}

JacobianPoint
WeierstrassCurve::toJacobian(const AffinePoint &p) const
{
    return toJacobian(AffineFe::from(*f, p));
}

JacobianPoint
WeierstrassCurve::toJacobian(const AffineFe &p) const
{
    if (p.inf)
        return JacobianPoint::infinity();
    return JacobianPoint{p.x, p.y, Fe::one()};
}

AffinePoint
WeierstrassCurve::toAffine(const JacobianPoint &p) const
{
    return toAffineFe(p).toAffine();
}

AffineFe
WeierstrassCurve::toAffineFe(const JacobianPoint &p) const
{
    if (p.isInfinity())
        return AffineFe{};
    Fe zi = f->inv(p.z);
    Fe zi2 = f->sqr(zi);
    return AffineFe{f->mul(p.x, zi2), f->mul(p.y, f->mul(zi2, zi)), false};
}

AffinePoint
WeierstrassCurve::negate(const AffinePoint &p) const
{
    if (p.inf)
        return p;
    return AffinePoint(p.x, f->neg(p.y));
}

AffineFe
WeierstrassCurve::negate(const AffineFe &p) const
{
    if (p.inf)
        return p;
    return AffineFe{p.x, f->neg(p.y), false};
}

JacobianPoint
WeierstrassCurve::dbl(const JacobianPoint &p) const
{
    if (p.isInfinity() || p.y.isZero())
        return JacobianPoint::infinity();

    if (aIsMinus3) {
        // dbl-2001-b for a = -3: 3M + 5S (the cost class the paper's
        // Jacobian doubling belongs to).
        Fe delta = f->sqr(p.z);
        Fe gamma = f->sqr(p.y);
        Fe beta = f->mul(p.x, gamma);
        Fe alpha = f->mul(f->sub(p.x, delta), f->add(p.x, delta));
        alpha = f->add(f->add(alpha, alpha), alpha);
        JacobianPoint r;
        Fe beta4 = f->add(beta, beta);
        beta4 = f->add(beta4, beta4);
        r.x = f->sub(f->sqr(alpha), f->add(beta4, beta4));
        r.z = f->sub(f->sub(f->sqr(f->add(p.y, p.z)), gamma), delta);
        Fe g2 = f->sqr(gamma);
        Fe g8 = f->add(g2, g2);
        g8 = f->add(g8, g8);
        g8 = f->add(g8, g8);
        r.y = f->sub(f->mul(alpha, f->sub(beta4, r.x)), g8);
        return r;
    }

    Fe xx = f->sqr(p.x);                            // A = X^2
    Fe yy = f->sqr(p.y);                            // B = Y^2
    Fe yyyy = f->sqr(yy);                           // C = B^2
    // D = 2 * ((X + B)^2 - A - C) = 4 X Y^2
    Fe d = f->sub(f->sub(f->sqr(f->add(p.x, yy)), xx), yyyy);
    d = f->add(d, d);

    Fe e;
    if (aIsZero) {
        e = f->add(f->add(xx, xx), xx);             // 3A
    } else {
        Fe zz = f->sqr(p.z);
        e = f->add(f->add(f->add(xx, xx), xx), f->mul(aFe, f->sqr(zz)));
    }

    Fe ee = f->sqr(e);                              // F = E^2
    JacobianPoint r;
    r.x = f->sub(ee, f->add(d, d));                 // X3 = F - 2D
    Fe c8 = f->add(yyyy, yyyy);
    c8 = f->add(c8, c8);
    c8 = f->add(c8, c8);                            // 8C
    r.y = f->sub(f->mul(e, f->sub(d, r.x)), c8);
    Fe yz = f->mul(p.y, p.z);
    r.z = f->add(yz, yz);                           // Z3 = 2YZ
    return r;
}

JacobianPoint
WeierstrassCurve::addMixed(const JacobianPoint &p, const AffinePoint &q) const
{
    return addMixed(p, AffineFe::from(*f, q));
}

JacobianPoint
WeierstrassCurve::addMixed(const JacobianPoint &p, const AffineFe &q) const
{
    if (q.inf)
        return p;
    if (p.isInfinity())
        return toJacobian(q);

    // madd-2007-bl: 7M + 4S.
    Fe z1z1 = f->sqr(p.z);
    Fe u2 = f->mul(q.x, z1z1);
    Fe s2 = f->mul(f->mul(q.y, p.z), z1z1);
    Fe h = f->sub(u2, p.x);
    Fe rr = f->sub(s2, p.y);
    rr = f->add(rr, rr);

    if (h.isZero()) {
        if (rr.isZero())
            return dbl(p);
        return JacobianPoint::infinity();
    }

    Fe hh = f->sqr(h);
    Fe i = f->add(hh, hh);
    i = f->add(i, i);                               // I = 4 HH
    Fe j = f->mul(h, i);
    Fe v = f->mul(p.x, i);

    JacobianPoint r;
    r.x = f->sub(f->sub(f->sqr(rr), j), f->add(v, v));
    Fe yj = f->mul(p.y, j);
    r.y = f->sub(f->mul(rr, f->sub(v, r.x)), f->add(yj, yj));
    r.z = f->sub(f->sub(f->sqr(f->add(p.z, h)), z1z1), hh);
    return r;
}

JacobianPoint
WeierstrassCurve::add(const JacobianPoint &p, const JacobianPoint &q) const
{
    if (p.isInfinity())
        return q;
    if (q.isInfinity())
        return p;

    // add-2007-bl: 11M + 5S.
    Fe z1z1 = f->sqr(p.z);
    Fe z2z2 = f->sqr(q.z);
    Fe u1 = f->mul(p.x, z2z2);
    Fe u2 = f->mul(q.x, z1z1);
    Fe s1 = f->mul(f->mul(p.y, q.z), z2z2);
    Fe s2 = f->mul(f->mul(q.y, p.z), z1z1);
    Fe h = f->sub(u2, u1);
    Fe rr = f->sub(s2, s1);
    rr = f->add(rr, rr);

    if (h.isZero()) {
        if (rr.isZero())
            return dbl(p);
        return JacobianPoint::infinity();
    }

    Fe i = f->sqr(f->add(h, h));                    // (2H)^2
    Fe j = f->mul(h, i);
    Fe v = f->mul(u1, i);

    JacobianPoint r;
    r.x = f->sub(f->sub(f->sqr(rr), j), f->add(v, v));
    Fe sj = f->mul(s1, j);
    r.y = f->sub(f->mul(rr, f->sub(v, r.x)), f->add(sj, sj));
    Fe zs = f->sub(f->sub(f->sqr(f->add(p.z, q.z)), z1z1), z2z2);
    r.z = f->mul(zs, h);
    return r;
}

AffinePoint
WeierstrassCurve::mulBinary(const BigUInt &k, const AffinePoint &p) const
{
    return toAffine(
        binaryMul(WeierstrassFamily{*this}, k, AffineFe::from(*f, p)));
}

AffinePoint
WeierstrassCurve::mulNaf(const BigUInt &k, const AffinePoint &p) const
{
    return toAffine(mulNafJacobian(k, p));
}

JacobianPoint
WeierstrassCurve::mulNafJacobian(const BigUInt &k, const AffinePoint &p) const
{
    return nafMul(WeierstrassFamily{*this}, k, AffineFe::from(*f, p));
}

AffinePoint
WeierstrassCurve::mulDaaa(const BigUInt &k, const AffinePoint &p) const
{
    // The top bit's doubling and addition start from infinity and
    // return before any field operation, so every further bit
    // performs exactly one doubling and one addition.
    return toAffine(
        alwaysAddMul(WeierstrassFamily{*this}, k, AffineFe::from(*f, p)));
}

std::vector<AffinePoint>
WeierstrassCurve::toAffineBatch(const std::vector<JacobianPoint> &points) const
{
    std::vector<AffinePoint> out;
    out.reserve(points.size());
    for (const AffineFe &p : toAffineBatchFe(points))
        out.push_back(p.toAffine());
    return out;
}

std::vector<AffineFe>
WeierstrassCurve::toAffineBatchFe(
    const std::vector<JacobianPoint> &points) const
{
    // Montgomery's trick via the shared invBatch driver: infinity's
    // Z = 0 encoding is exactly invBatch's skip value.
    std::vector<Fe> zs;
    zs.reserve(points.size());
    for (const JacobianPoint &p : points)
        zs.push_back(p.z);
    invBatch(*f, zs);

    std::vector<AffineFe> out(points.size());
    for (size_t i = 0; i < points.size(); i++) {
        const JacobianPoint &p = points[i];
        if (p.isInfinity())
            continue;
        Fe zi2 = f->sqr(zs[i]);
        out[i] = AffineFe{f->mul(p.x, zi2), f->mul(p.y, f->mul(zi2, zs[i])),
                          false};
    }
    return out;
}

AffinePoint
WeierstrassCurve::mulWNaf(const BigUInt &k, const AffinePoint &p,
                          unsigned w) const
{
    if (k.isZero() || p.inf)
        return AffinePoint::infinity();

    // Table of odd multiples P, 3P, ..., (2^(w-1) - 1) P.
    size_t table_size = size_t(1) << (w - 2);
    std::vector<JacobianPoint> table_j;
    table_j.reserve(table_size);
    table_j.push_back(toJacobian(p));
    JacobianPoint p2 = dbl(table_j[0]);
    for (size_t i = 1; i < table_size; i++)
        table_j.push_back(add(table_j[i - 1], p2));
    std::vector<AffineFe> table = toAffineBatchFe(table_j);

    return toAffine(signedDigitMul(
        WeierstrassFamily{*this}, wNafDigits(k, w), [&](int8_t d) {
            return d > 0 ? table[(d - 1) / 2] : negate(table[(-d - 1) / 2]);
        }));
}

void
WeierstrassCurve::dblu(const AffineFe &p, JacobianPoint &p_out,
                       JacobianPoint &dbl_out) const
{
    // Initial doubling of an affine point, leaving P and 2P with the
    // common Z = 2y ("DBLU" of Goundar-Joye-Miyaji).
    Fe bb = f->sqr(p.x);
    Fe e = f->sqr(p.y);
    Fe l = f->sqr(e);
    Fe s4 = f->mul(p.x, e);
    s4 = f->add(s4, s4);
    s4 = f->add(s4, s4);                            // 4 x y^2
    Fe m = f->add(f->add(f->add(bb, bb), bb), aFe);  // 3x^2 + a (Z=1)

    dbl_out.x = f->sub(f->sqr(m), f->add(s4, s4));
    Fe l8 = f->add(l, l);
    l8 = f->add(l8, l8);
    l8 = f->add(l8, l8);                            // 8 y^4
    dbl_out.y = f->sub(f->mul(m, f->sub(s4, dbl_out.x)), l8);
    dbl_out.z = f->add(p.y, p.y);

    p_out.x = s4;
    p_out.y = l8;
    p_out.z = dbl_out.z;
}

void
WeierstrassCurve::zaddu(JacobianPoint &p, const JacobianPoint &q,
                        JacobianPoint &r) const
{
    // ZADDU: 4M + 2S. Requires p.z == q.z and p != +-q.
    Fe dx = f->sub(p.x, q.x);
    Fe c = f->sqr(dx);
    Fe w1 = f->mul(p.x, c);
    Fe w2 = f->mul(q.x, c);
    Fe dy = f->sub(p.y, q.y);
    Fe d = f->sqr(dy);
    Fe a1 = f->mul(p.y, f->sub(w1, w2));

    r.x = f->sub(f->sub(d, w1), w2);
    r.y = f->sub(f->mul(dy, f->sub(w1, r.x)), a1);
    r.z = f->mul(p.z, dx);

    p.x = w1;
    p.y = a1;
    p.z = r.z;
}

void
WeierstrassCurve::zaddc(const JacobianPoint &p, const JacobianPoint &q,
                        JacobianPoint &s, JacobianPoint &d) const
{
    // ZADDC (conjugate co-Z addition): 6M + 3S. s = p + q, d = p - q.
    Fe dx = f->sub(p.x, q.x);
    Fe c = f->sqr(dx);
    Fe w1 = f->mul(p.x, c);
    Fe w2 = f->mul(q.x, c);
    Fe dy = f->sub(p.y, q.y);
    Fe sy = f->add(p.y, q.y);
    Fe a1 = f->mul(p.y, f->sub(w1, w2));
    Fe z3 = f->mul(p.z, dx);

    s.x = f->sub(f->sub(f->sqr(dy), w1), w2);
    s.y = f->sub(f->mul(dy, f->sub(w1, s.x)), a1);
    s.z = z3;

    d.x = f->sub(f->sub(f->sqr(sy), w1), w2);
    d.y = f->sub(f->mul(sy, f->sub(w1, d.x)), a1);
    d.z = z3;
}

AffinePoint
WeierstrassCurve::mulLadder(const BigUInt &k, const AffinePoint &p) const
{
    if (k.isZero() || p.inf)
        return AffinePoint::infinity();
    if (k.isOne())
        return p;

    // r0 = P, r1 = 2P, common Z; invariant r1 - r0 = P.
    JacobianPoint r0, r1;
    dblu(AffineFe::from(*f, p), r0, r1);

    for (size_t i = k.bitLength() - 1; i-- > 0;) {
        JacobianPoint sum, diff, twice;
        if (k.bit(i)) {
            // r0 <- r0 + r1, r1 <- 2 r1 = (r0+r1) + (r1-r0).
            zaddc(r1, r0, sum, diff);
            zaddu(sum, diff, twice);
            r1 = twice;
            r0 = sum;
        } else {
            // r1 <- r0 + r1, r0 <- 2 r0 = (r0+r1) + (r0-r1).
            zaddc(r0, r1, sum, diff);
            // r0 + r1 = O cannot be carried by co-Z formulas. For
            // 1 <= k < n it occurs only for k = n - 1, at its last
            // bit: there r0 = -r1, so the answer 2 r0 = r0 - r1 = -P.
            if (sum.isInfinity())
                return negate(p);
            zaddu(sum, diff, twice);
            r0 = twice;
            r1 = sum;
        }
    }
    return toAffine(r0);
}

} // namespace jaavr
