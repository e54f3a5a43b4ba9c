#include "field/prime_field.hh"

#include "nt/primality.hh"
#include "nt/sqrt_mod.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

using limb::adc;
using limb::add3;
using limb::condSub;
using limb::mac;
using limb::mul3;
using limb::sub3;

/** @p p, once it is an odd modulus of at least 3 (fatal otherwise). */
const BigUInt &
checkedModulus(const BigUInt &p)
{
    if (!p.isOdd() || p < BigUInt(3))
        fatal("PrimeField: modulus must be an odd prime");
    return p;
}

/**
 * t mod m for m = 2^160 - c, t < m^2: two folds through
 * 2^160 = c (mod m), then one conditional subtraction.
 */
inline Fe
foldReduce(const uint64_t t[6], uint64_t c, const Fe &m)
{
    constexpr uint64_t lo32 = 0xffffffffULL;
    // t = h * 2^160 + l with h < 2^160; s = h * c + l < 2^160 (c + 1).
    uint64_t h0 = (t[2] >> 32) | (t[3] << 32);
    uint64_t h1 = (t[3] >> 32) | (t[4] << 32);
    uint64_t h2 = t[4] >> 32;
    uint64_t carry = 0;
    uint64_t s0 = mac(h0, c, t[0], carry);
    uint64_t s1 = mac(h1, c, t[1], carry);
    uint64_t s2 = mac(h2, c, t[2] & lo32, carry);
    // Second fold: s >> 160 <= c fits one limb, and the sum stays
    // below 2^160 + 2^128 < 2m.
    uint64_t hh = (s2 >> 32) | (carry << 32);
    carry = 0;
    Fe r;
    r.w[0] = mac(hh, c, s0, carry);
    r.w[1] = adc(s1, 0, carry);
    r.w[2] = (s2 & lo32) + carry;
    return condSub(r, 0, m);
}

} // namespace

PrimeField::PrimeField(const BigUInt &modulus)
    : p(checkedModulus(modulus)), pBits(p.bitLength()),
      mont(p, "PrimeField"), invExp(p - BigUInt(2))
{
    if (pBits == 160 && (BigUInt::powerOfTwo(160) - p).bitLength() <= 64) {
        red = Reduction::Fold;
        foldC = (BigUInt::powerOfTwo(160) - p).toUint64();
    } else {
        red = Reduction::Redc;
    }
}

Fe
PrimeField::fromBig(const BigUInt &a) const
{
    Fe r = limb::feOf(a), d;
    if (a.numLimbs() <= 2 * Fe::limbs && sub3(r, mont.modulus(), d))
        return r;
    return limb::feOf(a % p);
}

Fe
PrimeField::mulRaw(const Fe &a, const Fe &b) const
{
    if (red == Reduction::Fold) {
        uint64_t t[6];
        mul3(a, b, t);
        return foldReduce(t, foldC, mont.modulus());
    }
    // REDC leaves a * b * R^-1; the REDC of that times R^2 is a * b.
    return mont.mul(mont.mul(a, b), mont.rSquared());
}

Fe
PrimeField::add(const Fe &a, const Fe &b) const
{
    if (counter)
        counter->add++;
    Fe s;
    uint64_t carry = add3(a, b, s);
    return condSub(s, carry, mont.modulus());
}

Fe
PrimeField::sub(const Fe &a, const Fe &b) const
{
    if (counter)
        counter->sub++;
    Fe d;
    if (sub3(a, b, d))
        add3(d, mont.modulus(), d);
    return d;
}

Fe
PrimeField::neg(const Fe &a) const
{
    if (counter)
        counter->sub++;
    if (a.isZero())
        return a;
    Fe d;
    sub3(mont.modulus(), a, d);
    return d;
}

Fe
PrimeField::mul(const Fe &a, const Fe &b) const
{
    if (counter)
        counter->mul++;
    return mulRaw(a, b);
}

Fe
PrimeField::sqr(const Fe &a) const
{
    if (counter)
        counter->sqr++;
    return mulRaw(a, a);
}

Fe
PrimeField::mulSmall(const Fe &a, uint32_t c) const
{
    if (counter)
        counter->mulSmall++;
    // c needs no reduction, even for a modulus below 2^32: a * c stays
    // below p^2 for the fold shape and below p * R for REDC.
    return mulRaw(a, Fe{{c, 0, 0}});
}

Fe
PrimeField::inv(const Fe &a) const
{
    if (counter)
        counter->inv++;
    if (a.isZero())
        panic("PrimeField::inv of zero");
    if (red == Reduction::Fold)
        return powWindows(a, invExp, [this](const Fe &x, const Fe &y) {
            return mulRaw(x, y);
        });
    // Exponentiate in the Montgomery domain (one REDC per product).
    return mont.fromMont(mont.pow(mont.toMont(a), invExp));
}

BigUInt
PrimeField::exp(const BigUInt &a, const BigUInt &e) const
{
    return a.powMod(e, p);
}

bool
PrimeField::isSquare(const BigUInt &a) const
{
    if (a.isZero())
        return true;
    return jacobi(a, p) == 1;
}

std::optional<BigUInt>
PrimeField::sqrt(const BigUInt &a, Rng &rng) const
{
    return sqrtMod(a, p, rng);
}

} // namespace jaavr
