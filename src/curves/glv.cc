#include "curves/glv.hh"

#include "curves/point_mult.hh"
#include "nt/cornacchia.hh"
#include "nt/primality.hh"
#include "nt/sqrt_mod.hh"
#include "support/logging.hh"

namespace jaavr
{

BigUInt
cubeRootOfUnity(const BigUInt &m, Rng &rng)
{
    BigUInt neg3 = m - BigUInt(3);
    auto s = sqrtMod(neg3, m, rng);
    if (!s)
        panic("cubeRootOfUnity: -3 is not a residue (m != 1 mod 3?)");
    BigUInt inv2 = BigUInt(2).invMod(m);
    BigUInt beta = (m - BigUInt(1) + *s).mulMod(inv2, m);
    // Defensive: beta^2 + beta + 1 = 0 (mod m).
    BigUInt check = (beta.mulMod(beta, m) + beta + BigUInt(1)) % m;
    if (!check.isZero())
        panic("cubeRootOfUnity: check failed");
    return beta;
}

BigUInt
matchGlvEigenvalue(const WeierstrassCurve &curve, const BigUInt &beta,
                   const BigUInt &lambda, const AffinePoint &g,
                   const BigUInt &n)
{
    // phi^2(x, y) = (beta^2 x, y), and lambda G = phi^2(G) gives
    // lambda^2 G = phi^4(G) = phi(G): one multiplication decides.
    const PrimeField &f = curve.field();
    AffinePoint lg = curve.mulBinary(lambda, g);
    BigUInt bx = f.mul(beta, g.x);
    if (!lg.inf && lg.y == g.y) {
        if (lg.x == bx)
            return lambda;
        if (lg.x == f.mul(beta, bx))
            return lambda.mulMod(lambda, n);
    }
    panic("matchGlvEigenvalue: no eigenvalue matches beta");
}

std::vector<BigUInt>
GlvCurve::candidateOrders(const BigUInt &p, const BigUInt &l,
                          const BigUInt &m)
{
    // The traces of the six twists of a j = 0 curve are the t with
    // 4p = t^2 + 3 s^2 and 3 | s: t in {+-L, +-(L+9M)/2, +-(L-9M)/2}
    // (the halves only when L and 9M have equal parity).
    std::vector<BigInt> traces;
    traces.emplace_back(l);
    traces.emplace_back(l, true);
    BigInt l9p = BigInt(l) + BigInt(m) * BigInt(9);
    BigInt l9m = BigInt(l) - BigInt(m) * BigInt(9);
    for (const BigInt &t2 : {l9p, l9m}) {
        if (t2.magnitude().isZero() || t2.magnitude().isOdd())
            continue;
        BigInt half(t2.magnitude() >> 1, t2.isNegative());
        traces.push_back(half);
        traces.push_back(-half);
    }

    std::vector<BigUInt> orders;
    BigUInt p1 = p + BigUInt(1);
    for (const BigInt &t : traces) {
        BigInt n = BigInt(p1) - t;
        if (n.isNegative())
            continue;
        // Deduplicate.
        bool seen = false;
        for (const BigUInt &o : orders)
            if (o == n.magnitude())
                seen = true;
        if (!seen)
            orders.push_back(n.magnitude());
    }
    return orders;
}

std::optional<GlvParams>
GlvCurve::tryConstruct(const PrimeField &field, Rng &rng)
{
    const BigUInt &p = field.modulus();
    if (p % BigUInt(3) != BigUInt(1))
        return std::nullopt;

    CmDecomposition cm = cmDecompose4p(p, rng);
    std::vector<BigUInt> cands = candidateOrders(p, cm.l, cm.m);

    // Pick the candidate order with the smallest cofactor whose
    // remaining part is prime (the GLV decomposition needs a prime
    // subgroup order).
    BigUInt target_full, target_n, target_cof;
    bool have_target = false;
    for (const BigUInt &cand : cands) {
        BigUInt n = cand;
        BigUInt cof(1);
        for (uint32_t f2 : {2u, 3u, 5u, 7u}) {
            for (;;) {
                BigUInt q, r;
                BigUInt::divMod(n, BigUInt(f2), q, r);
                if (!r.isZero() || cof * BigUInt(f2) > BigUInt(8))
                    break;
                n = q;
                cof = cof * BigUInt(f2);
            }
        }
        if (n.bitLength() < 150 || !isProbablePrime(n, rng))
            continue;
        if (!have_target || cof < target_cof) {
            target_full = cand;
            target_n = n;
            target_cof = cof;
            have_target = true;
        }
    }
    if (!have_target)
        return std::nullopt;

    // Find the smallest b landing in that twist class: the full
    // candidate order must annihilate several random points.
    for (uint64_t b_try = 1; b_try < 64; b_try++) {
        BigUInt b(b_try);
        WeierstrassCurve curve(field, BigUInt(0), b, "glv-candidate");
        bool all = true;
        Rng prng(0x9d0 + b_try);
        for (int i = 0; i < 3 && all; i++) {
            AffinePoint pt = curve.randomPoint(prng);
            if (!curve.mulBinary(target_full, pt).inf)
                all = false;
        }
        if (!all)
            continue;

        GlvParams prm;
        prm.b = b;
        prm.order = target_n;
        prm.cofactor = target_cof;
        prm.beta = cubeRootOfUnity(p, rng);
        BigUInt lam = cubeRootOfUnity(target_n, rng);

        // Generator: random point pushed into the prime subgroup.
        Rng grng(0xeccu + b_try);
        AffinePoint g;
        for (;;) {
            AffinePoint pt = curve.randomPoint(grng);
            g = curve.mulBinary(target_cof, pt);
            if (!g.inf && curve.mulBinary(target_n, g).inf)
                break;
        }
        prm.gx = g.x;
        prm.gy = g.y;
        prm.lambda = matchGlvEigenvalue(curve, prm.beta, lam, g, target_n);
        return prm;
    }
    return std::nullopt;
}

GlvParams
GlvCurve::construct(const PrimeField &field, Rng &rng)
{
    auto prm = tryConstruct(field, rng);
    if (!prm)
        fatal("GlvCurve::construct: field admits no near-prime-order "
              "GLV curve (try another prime)");
    return *prm;
}

GlvCurve::GlvCurve(const PrimeField &field, const GlvParams &params,
                   std::string name)
    : WeierstrassCurve(field, BigUInt(0), params.b, std::move(name)),
      prm(params), betaFe(field.fromBig(params.beta)),
      decomp(params.order, params.lambda)
{
    AffinePoint g = generator();
    if (!(g.x < field.modulus()) || !(g.y < field.modulus()))
        panic("GlvCurve %s: generator coordinates not below p",
              ident.c_str());
    if (!onCurve(g))
        panic("GlvCurve %s: generator not on curve", ident.c_str());
    if (!mulBinary(prm.order, g).inf)
        panic("GlvCurve %s: generator order mismatch", ident.c_str());
    AffinePoint pg = phi(g);
    AffinePoint lg = mulBinary(prm.lambda, g);
    if (!(pg.x == lg.x && pg.y == lg.y))
        panic("GlvCurve %s: phi(G) != lambda G", ident.c_str());
}

AffinePoint
GlvCurve::generator() const
{
    return AffinePoint(prm.gx, prm.gy);
}

AffinePoint
GlvCurve::phi(const AffinePoint &p) const
{
    if (p.inf)
        return p;
    return AffinePoint(f->mul(prm.beta, p.x), p.y);
}

AffinePoint
GlvCurve::mulGlvJsf(const BigUInt &k, const AffinePoint &p) const
{
    return toAffine(mulGlvJsfJacobian(k, p));
}

JacobianPoint
GlvCurve::mulGlvJsfJacobian(const BigUInt &k, const AffinePoint &p) const
{
    if (p.inf)
        return JacobianPoint::infinity();
    GlvSplit split = decomp.decompose(k % prm.order);

    AffineFe pf = AffineFe::from(*f, p);
    AffineFe p1 = split.k1.isNegative() ? negate(pf) : pf;
    AffineFe p2{f->mul(betaFe, pf.x), pf.y, false};
    if (split.k2.isNegative())
        p2 = negate(p2);
    BigUInt k1 = split.k1.magnitude();
    BigUInt k2 = split.k2.magnitude();

    // Precompute the four sums P1 +- P2 in affine form.
    JacobianPoint sum_j = addMixed(toJacobian(p1), p2);
    JacobianPoint dif_j = addMixed(toJacobian(p1), negate(p2));
    AffineFe sum = toAffineFe(sum_j);
    AffineFe dif = toAffineFe(dif_j);

    return signedDigitMul(
        WeierstrassFamily{*this}, jsfDigits(k1, k2),
        [&](std::pair<int8_t, int8_t> d) -> AffineFe {
            auto [u1, u2] = d;
            if (u1 == 0)
                return u2 > 0 ? p2 : negate(p2);
            if (u2 == 0)
                return u1 > 0 ? p1 : negate(p1);
            if (u1 == u2)
                return u1 > 0 ? sum : negate(sum);
            return u1 > 0 ? dif : negate(dif);
        });
}

} // namespace jaavr
