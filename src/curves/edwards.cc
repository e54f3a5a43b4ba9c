#include "curves/edwards.hh"

#include "curves/point_mult.hh"
#include "field/batch_inverse.hh"
#include "support/logging.hh"

namespace jaavr
{

EdwardsCurve::EdwardsCurve(const PrimeField &field, const BigUInt &ca,
                           const BigUInt &cd, std::string name)
    : f(&field), a(ca), d(cd), ident(std::move(name))
{
    if (a != f->neg(BigUInt(1)))
        fatal("EdwardsCurve %s: only a = -1 is implemented "
              "(the fast-formula case)", ident.c_str());
    if (d.isZero() || d == a)
        fatal("EdwardsCurve %s: d must be non-zero and distinct from a",
              ident.c_str());
    d2 = f->fromBig(f->add(d, d));
    complete = f->isSquare(a) && !f->isSquare(d);
    if (!complete)
        warn("EdwardsCurve %s: addition law is not complete "
             "(a square: %d, d non-square: %d)", ident.c_str(),
             f->isSquare(a) ? 1 : 0, f->isSquare(d) ? 0 : 1);
}

AffinePoint
EdwardsCurve::identity() const
{
    return AffinePoint(BigUInt(0), BigUInt(1));
}

bool
EdwardsCurve::isIdentity(const AffinePoint &p) const
{
    return !p.inf && p.x.isZero() && p.y.isOne();
}

bool
EdwardsCurve::onCurve(const AffinePoint &p) const
{
    if (p.inf)
        return false;  // Edwards curves have no point at infinity
    BigUInt x2 = f->sqr(p.x);
    BigUInt y2 = f->sqr(p.y);
    BigUInt lhs = f->add(f->mul(a, x2), y2);
    BigUInt rhs = f->add(BigUInt(1), f->mul(d, f->mul(x2, y2)));
    return lhs == rhs;
}

std::optional<AffinePoint>
EdwardsCurve::liftY(const BigUInt &y, Rng &rng) const
{
    // x^2 = (1 - y^2) / (a - d y^2).
    BigUInt y2 = f->sqr(y);
    BigUInt den = f->sub(a, f->mul(d, y2));
    if (den.isZero())
        return std::nullopt;
    BigUInt x2 = f->mul(f->sub(BigUInt(1), y2), f->inv(den));
    auto x = f->sqrt(x2, rng);
    if (!x)
        return std::nullopt;
    return AffinePoint(*x, y);
}

AffinePoint
EdwardsCurve::randomPoint(Rng &rng) const
{
    for (;;) {
        auto p = liftY(f->random(rng), rng);
        if (!p || isIdentity(*p))
            continue;
        if (rng.flip())
            return negate(*p);
        return *p;
    }
}

AffinePoint
EdwardsCurve::negate(const AffinePoint &p) const
{
    return AffinePoint(f->neg(p.x), p.y);
}

EdwardsAddend
EdwardsCurve::negate(const EdwardsAddend &q) const
{
    return EdwardsAddend{f->neg(q.x), q.y, f->neg(q.td2)};
}

ExtendedPoint
EdwardsCurve::toExtended(const AffinePoint &p) const
{
    return toExtended(AffineFe::from(*f, p));
}

ExtendedPoint
EdwardsCurve::toExtended(const AffineFe &p) const
{
    if (p.inf)
        panic("EdwardsCurve: no projective image for 'infinity'");
    return ExtendedPoint{p.x, p.y, f->mul(p.x, p.y), Fe::one()};
}

AffinePoint
EdwardsCurve::toAffine(const ExtendedPoint &p) const
{
    Fe zi = f->inv(p.z);
    return AffineFe{f->mul(p.x, zi), f->mul(p.y, zi), false}.toAffine();
}

EdwardsAddend
EdwardsCurve::addend(const AffineFe &p) const
{
    return EdwardsAddend{p.x, p.y, f->mul(d2, f->mul(p.x, p.y))};
}

std::vector<AffineFe>
EdwardsCurve::toAffineBatchFe(const std::vector<ExtendedPoint> &points) const
{
    // Z is never 0 on a complete curve, but invBatch's zero
    // passthrough keeps a malformed input from perturbing neighbours.
    std::vector<Fe> zs;
    zs.reserve(points.size());
    for (const ExtendedPoint &p : points)
        zs.push_back(p.z);
    invBatch(*f, zs);

    std::vector<AffineFe> out(points.size());
    for (size_t i = 0; i < points.size(); i++)
        out[i] = AffineFe{f->mul(points[i].x, zs[i]),
                          f->mul(points[i].y, zs[i]), false};
    return out;
}

ExtendedPoint
EdwardsCurve::add(const ExtendedPoint &p, const ExtendedPoint &q) const
{
    // add-2008-hwcd-3 (a = -1): 8M + 1 multiplication by 2d.
    Fe A = f->mul(f->sub(p.y, p.x), f->sub(q.y, q.x));
    Fe B = f->mul(f->add(p.y, p.x), f->add(q.y, q.x));
    Fe C = f->mul(f->mul(p.t, d2), q.t);
    Fe D = f->mul(p.z, q.z);
    D = f->add(D, D);
    Fe E = f->sub(B, A);
    Fe F = f->sub(D, C);
    Fe G = f->add(D, C);
    Fe H = f->add(B, A);
    ExtendedPoint r;
    r.x = f->mul(E, F);
    r.y = f->mul(G, H);
    r.t = f->mul(E, H);
    r.z = f->mul(F, G);
    return r;
}

ExtendedPoint
EdwardsCurve::addMixed(const ExtendedPoint &p, const EdwardsAddend &q) const
{
    // madd-2008-hwcd-3 with the addend's 2d*x*y precomputed: 7M.
    Fe A = f->mul(f->sub(p.y, p.x), f->sub(q.y, q.x));
    Fe B = f->mul(f->add(p.y, p.x), f->add(q.y, q.x));
    Fe C = f->mul(p.t, q.td2);
    Fe D = f->add(p.z, p.z);
    Fe E = f->sub(B, A);
    Fe F = f->sub(D, C);
    Fe G = f->add(D, C);
    Fe H = f->add(B, A);
    ExtendedPoint r;
    r.x = f->mul(E, F);
    r.y = f->mul(G, H);
    r.t = f->mul(E, H);
    r.z = f->mul(F, G);
    return r;
}

ExtendedPoint
EdwardsCurve::dbl(const ExtendedPoint &p, bool need_t) const
{
    // dbl-2008-hwcd with a = -1: 3M + 4S (+1M for T).
    Fe A = f->sqr(p.x);
    Fe B = f->sqr(p.y);
    Fe C = f->sqr(p.z);
    C = f->add(C, C);
    Fe D = f->neg(A);  // a * A with a = -1
    Fe E = f->sub(f->sub(f->sqr(f->add(p.x, p.y)), A), B);
    Fe G = f->add(D, B);
    Fe F = f->sub(G, C);
    Fe H = f->sub(D, B);
    ExtendedPoint r;
    r.x = f->mul(E, F);
    r.y = f->mul(G, H);
    r.t = need_t ? f->mul(E, H) : Fe{};
    r.z = f->mul(F, G);
    return r;
}

AffinePoint
EdwardsCurve::mulBinary(const BigUInt &k, const AffinePoint &p) const
{
    return toAffine(
        binaryMul(EdwardsFamily{*this}, k, addend(AffineFe::from(*f, p))));
}

AffinePoint
EdwardsCurve::mulNaf(const BigUInt &k, const AffinePoint &p) const
{
    return toAffine(mulNafExtended(k, p));
}

ExtendedPoint
EdwardsCurve::mulNafExtended(const BigUInt &k, const AffinePoint &p) const
{
    return nafMul(EdwardsFamily{*this}, k, addend(AffineFe::from(*f, p)));
}

AffinePoint
EdwardsCurve::mulDaaa(const BigUInt &k, const AffinePoint &p) const
{
    // Completeness makes the always-add loop trivially correct: the
    // dummy additions go through the very same code path.
    return toAffine(alwaysAddMul(EdwardsFamily{*this}, k,
                                 addend(AffineFe::from(*f, p))));
}

} // namespace jaavr
