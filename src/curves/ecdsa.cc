#include "curves/ecdsa.hh"

#include "curves/validate.hh"
#include "support/logging.hh"
#include "support/sha256.hh"

namespace jaavr
{

Ecdsa::Ecdsa(const WeierstrassCurve &curve, const AffinePoint &gen,
             const BigUInt &order)
    : c(curve), glv(nullptr), g(gen), n(order), fn(order)
{
    if (!validatePoint(c, g, &n))
        fatal("Ecdsa: invalid generator (off curve or order mismatch)");
}

Ecdsa::Ecdsa(const GlvCurve &curve)
    : c(curve), glv(&curve), g(curve.generator()), n(curve.order()),
      fn(curve.order())
{
    if (!validatePoint(c, g, &n))
        fatal("Ecdsa: invalid GLV generator");
}

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

AffinePoint
Ecdsa::mul(const BigUInt &k, const AffinePoint &p) const
{
    if (glv)
        return glv->mulGlvJsf(k, p);
    return c.mulNaf(k, p);
}

void
Ecdsa::attachFixedBase(const FixedBaseComb *table)
{
    if (table && !(table->generator().x == g.x &&
                   table->generator().y == g.y && !table->generator().inf))
        fatal("Ecdsa: fixed-base table built for a different generator");
    comb = table;
}

AffinePoint
Ecdsa::mulG(const BigUInt &k) const
{
    if (comb)
        return comb->mul(c, k);
    return mul(k, g);
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

    Fe r = fn.fromBig(sig.r);
    Fe w = fn.inv(fn.fromBig(sig.s));
    BigUInt u1 = fn.mul(fn.fromBig(hashToScalar(message)), w).toBig();
    BigUInt u2 = fn.mul(r, w).toBig();

    // R = u1 * G + u2 * Q.
    JacobianPoint acc = c.toJacobian(mulG(u1));
    acc = c.addMixed(acc, mul(u2, q));
    AffinePoint rp = c.toAffine(acc);
    if (rp.inf)
        return false;
    return fn.fromBig(rp.x) == r;
}

} // namespace jaavr
