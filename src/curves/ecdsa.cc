#include "curves/ecdsa.hh"

#include "curves/validate.hh"
#include "support/logging.hh"
#include "support/sha256.hh"

namespace jaavr
{

namespace
{

/**
 * The check that establishes n for every later validatePoint(c, P, &n):
 * that one trusts n as a subgroup order and skips n * P when Hasse's
 * bound makes the cofactor 1, so n * G = O is multiplied out here.
 */
bool
generatesOrder(const WeierstrassCurve &c, const AffinePoint &g,
               const BigUInt &n)
{
    return validatePoint(c, g) && c.mulBinary(n, g).inf;
}

} // anonymous namespace

Ecdsa::Ecdsa(const WeierstrassCurve &curve, const AffinePoint &gen,
             const BigUInt &order)
    : c(curve), glv(nullptr), g(gen), n(order), fn(order)
{
    if (!generatesOrder(c, g, n))
        fatal("Ecdsa: invalid generator (off curve or order mismatch)");
}

// GlvCurve's constructor has checked G (coordinates below p, on the
// curve) and n * G = O on this very curve object.
Ecdsa::Ecdsa(const GlvCurve &curve)
    : c(curve), glv(&curve), g(curve.generator()), n(curve.order()),
      fn(curve.order())
{}

BigUInt
Ecdsa::hashToScalar(const std::string &message) const
{
    auto digest = Sha256::digest(message);
    // Leftmost bits(n) bits of the hash (SEC1 4.1.3 step 5).
    BigUInt e = BigUInt::fromBytes(
        std::vector<uint8_t>(digest.begin(), digest.end()));
    unsigned hash_bits = 256;
    unsigned n_bits = n.bitLength();
    if (hash_bits > n_bits)
        e = e >> (hash_bits - n_bits);
    return e % n;
}

JacobianPoint
Ecdsa::mulJacobian(const BigUInt &k, const AffinePoint &p) const
{
    if (glv)
        return glv->mulGlvJsfJacobian(k, p);
    return c.mulNafJacobian(k, p);
}

void
Ecdsa::attachFixedBase(const FixedBaseComb *table)
{
    if (table && !(table->generator().x == g.x &&
                   table->generator().y == g.y && !table->generator().inf))
        fatal("Ecdsa: fixed-base table built for a different generator");
    comb = table;
}

JacobianPoint
Ecdsa::mulGJacobian(const BigUInt &k) const
{
    if (comb)
        return comb->mulJacobian(c, k);
    return mulJacobian(k, g);
}

AffinePoint
Ecdsa::mulG(const BigUInt &k) const
{
    return c.toAffine(mulGJacobian(k));
}

EcdsaKeyPair
Ecdsa::generateKey(Rng &rng) const
{
    EcdsaKeyPair kp;
    kp.d = BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
    kp.q = mulG(kp.d);
    if (!validatePoint(c, kp.q, &n))
        fatal("Ecdsa: generated public key failed validation");
    return kp;
}

std::optional<EcdsaSignature>
Ecdsa::signWithNonce(const std::string &message, const BigUInt &d,
                     const BigUInt &k) const
{
    if (!validScalar(d, n))
        fatal("Ecdsa::signWithNonce: private scalar out of range");
    if (!validScalar(k, n))
        fatal("Ecdsa::signWithNonce: nonce out of range");
    BigUInt e = hashToScalar(message);
    AffinePoint rp = mulG(k);
    if (rp.inf)
        return std::nullopt;
    Fe r = fn.fromBig(rp.x);
    if (r.isZero())
        return std::nullopt;
    Fe s = fn.mul(fn.inv(fn.fromBig(k)),
                  fn.add(fn.fromBig(e), fn.mul(r, fn.fromBig(d))));
    if (s.isZero())
        return std::nullopt;
    return EcdsaSignature{r.toBig(), s.toBig()};
}

EcdsaSignature
Ecdsa::sign(const std::string &message, const BigUInt &d, Rng &rng) const
{
    for (;;) {
        BigUInt k = BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
        auto sig = signWithNonce(message, d, k);
        if (sig)
            return *sig;
    }
}

bool
Ecdsa::verify(const std::string &message, const EcdsaSignature &sig,
              const AffinePoint &q) const
{
    if (!validScalar(sig.r, n) || !validScalar(sig.s, n))
        return false;
    if (!validatePoint(c, q, &n))
        return false;

    Fe w = fn.inv(fn.fromBig(sig.s));
    BigUInt u1 = fn.mul(fn.fromBig(hashToScalar(message)), w).toBig();
    BigUInt u2 = fn.mul(fn.fromBig(sig.r), w).toBig();

    // R = u1 * G + u2 * Q, left in Jacobian coordinates.
    JacobianPoint rp = c.add(mulGJacobian(u1), mulJacobian(u2, q));
    if (rp.isInfinity())
        return false;

    // x(R) mod n == r without an inversion: x(R) = X / Z^2 lies in
    // [0, p), so it must be some t = r + j * n below p, and each
    // candidate is tested as t * Z^2 == X. Reducing r mod p instead
    // would accept r in [p, n) (possible when n > p) for x(R) = r - p.
    const PrimeField &f = c.field();
    Fe zz = f.sqr(rp.z);
    for (BigUInt t = sig.r; t < f.modulus(); t += n)
        if (f.mul(f.fromBig(t), zz) == rp.x)
            return true;
    return false;
}

} // namespace jaavr
