#include "field/prime_field.hh"

#include "nt/primality.hh"
#include "nt/sqrt_mod.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

using u128 = unsigned __int128;

Fe
feOf(const BigUInt &v)
{
    return Fe{{v.limb64(0), v.limb64(1), v.limb64(2)}};
}

/** a * b + c + carry; carry receives the high word. */
inline uint64_t
mac(uint64_t a, uint64_t b, uint64_t c, uint64_t &carry)
{
    u128 t = u128(a) * b + c + carry;
    carry = uint64_t(t >> 64);
    return uint64_t(t);
}

/** a + b + carry; carry receives the carry out. */
inline uint64_t
adc(uint64_t a, uint64_t b, uint64_t &carry)
{
    u128 t = u128(a) + b + carry;
    carry = uint64_t(t >> 64);
    return uint64_t(t);
}

/** t = a * b, schoolbook on 3 x 3 limbs. */
inline void
mul3(const Fe &a, const Fe &b, uint64_t t[6])
{
    uint64_t c = 0;
    t[0] = mac(a.w[0], b.w[0], 0, c);
    t[1] = mac(a.w[0], b.w[1], 0, c);
    t[2] = mac(a.w[0], b.w[2], 0, c);
    t[3] = c;
    c = 0;
    t[1] = mac(a.w[1], b.w[0], t[1], c);
    t[2] = mac(a.w[1], b.w[1], t[2], c);
    t[3] = mac(a.w[1], b.w[2], t[3], c);
    t[4] = c;
    c = 0;
    t[2] = mac(a.w[2], b.w[0], t[2], c);
    t[3] = mac(a.w[2], b.w[1], t[3], c);
    t[4] = mac(a.w[2], b.w[2], t[4], c);
    t[5] = c;
}

/** out = a + b mod 2^192; returns the carry out. */
inline uint64_t
add3(const Fe &a, const Fe &b, Fe &out)
{
    uint64_t c = 0;
    out.w[0] = adc(a.w[0], b.w[0], c);
    out.w[1] = adc(a.w[1], b.w[1], c);
    out.w[2] = adc(a.w[2], b.w[2], c);
    return c;
}

/** a - b - borrow; borrow receives the borrow out. */
inline uint64_t
sbb(uint64_t a, uint64_t b, uint64_t &borrow)
{
    u128 d = u128(a) - b - borrow;
    borrow = uint64_t(d >> 64) & 1;
    return uint64_t(d);
}

/** out = a - b mod 2^192; returns the borrow out. */
inline uint64_t
sub3(const Fe &a, const Fe &b, Fe &out)
{
    uint64_t borrow = 0;
    out.w[0] = sbb(a.w[0], b.w[0], borrow);
    out.w[1] = sbb(a.w[1], b.w[1], borrow);
    out.w[2] = sbb(a.w[2], b.w[2], borrow);
    return borrow;
}

/** The value hi * 2^192 + r, known to be below 2m, reduced mod m. */
inline Fe
condSub(const Fe &r, uint64_t hi, const Fe &m)
{
    Fe d;
    uint64_t borrow = sub3(r, m, d);
    return (hi || !borrow) ? d : r;
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

/** base^e for e given as 4-bit windows, most significant first. */
template <class Mul>
Fe
powWindows(const Fe &base, const uint8_t *win, unsigned count, Mul &&mul)
{
    Fe table[16];
    table[1] = base;
    for (size_t i = 2; i < 16; i++)
        table[i] = mul(table[i - 1], base);
    Fe x = table[win[0]];
    for (unsigned i = 1; i < count; i++) {
        for (int s = 0; s < 4; s++)
            x = mul(x, x);
        if (win[i])
            x = mul(x, table[win[i]]);
    }
    return x;
}

} // namespace

PrimeField::PrimeField(const BigUInt &modulus) : p(modulus)
{
    if (!p.isOdd() || p < BigUInt(3))
        fatal("PrimeField: modulus must be an odd prime");
    pBits = p.bitLength();
    if (pBits > 64 * Fe::limbs)
        fatal("PrimeField: %u-bit modulus exceeds the %zu-bit element",
              pBits, 64 * Fe::limbs);
    pw = feOf(p);

    if (pBits == 160 && (BigUInt::powerOfTwo(160) - p).bitLength() <= 64) {
        red = Reduction::Fold;
        foldC = (BigUInt::powerOfTwo(160) - p).toUint64();
    } else {
        red = Reduction::Redc;
        // p^-1 mod 2^64 by Newton's iteration x <- x (2 - p x): p is
        // its own inverse mod 8, and each step doubles the valid bits.
        uint64_t x = pw.w[0];
        for (int i = 0; i < 5; i++)
            x *= 2 - pw.w[0] * x;
        redcInv = 0 - x;
        r2 = feOf(BigUInt::powerOfTwo(128 * Fe::limbs) % p);
    }

    BigUInt e = p - BigUInt(2);
    invWindowCount = (e.bitLength() + 3) / 4;
    for (unsigned i = 0; i < invWindowCount; i++) {
        unsigned shift = 4 * (invWindowCount - 1 - i);
        invWindows[i] = uint8_t((e >> shift).low32() & 15);
    }
}

Fe
PrimeField::fromBig(const BigUInt &a) const
{
    Fe r = feOf(a), d;
    if (a.numLimbs() <= 2 * Fe::limbs && sub3(r, pw, d))
        return r;
    return feOf(a % p);
}

Fe
PrimeField::redc(uint64_t t[6]) const
{
    // Three word steps, unrolled: each adds the multiple q * p that
    // clears the lowest remaining word, carrying into the words above.
    const uint64_t *m = pw.w;
    uint64_t top = 0, c = 0, q = t[0] * redcInv;
    mac(q, m[0], t[0], c);
    t[1] = mac(q, m[1], t[1], c);
    t[2] = mac(q, m[2], t[2], c);
    t[3] = adc(t[3], 0, c);
    t[4] = adc(t[4], 0, c);
    t[5] = adc(t[5], 0, c);
    top = c;
    c = 0;
    q = t[1] * redcInv;
    mac(q, m[0], t[1], c);
    t[2] = mac(q, m[1], t[2], c);
    t[3] = mac(q, m[2], t[3], c);
    t[4] = adc(t[4], 0, c);
    t[5] = adc(t[5], 0, c);
    top += c;
    c = 0;
    q = t[2] * redcInv;
    mac(q, m[0], t[2], c);
    t[3] = mac(q, m[1], t[3], c);
    t[4] = mac(q, m[2], t[4], c);
    t[5] = adc(t[5], 0, c);
    top += c;
    // t < p * 2^192 leaves a result below 2p.
    return condSub(Fe{{t[3], t[4], t[5]}}, top, pw);
}

Fe
PrimeField::montMul(const Fe &a, const Fe &b) const
{
    uint64_t t[6];
    mul3(a, b, t);
    return redc(t);
}

Fe
PrimeField::mulRaw(const Fe &a, const Fe &b) const
{
    uint64_t t[6];
    mul3(a, b, t);
    if (red == Reduction::Fold)
        return foldReduce(t, foldC, pw);
    // REDC leaves a * b * R^-1; the REDC of that times R^2 is a * b.
    return montMul(redc(t), r2);
}

Fe
PrimeField::add(const Fe &a, const Fe &b) const
{
    if (counter)
        counter->add++;
    Fe s;
    uint64_t carry = add3(a, b, s);
    return condSub(s, carry, pw);
}

Fe
PrimeField::sub(const Fe &a, const Fe &b) const
{
    if (counter)
        counter->sub++;
    Fe d;
    if (sub3(a, b, d))
        add3(d, pw, d);
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
    sub3(pw, a, d);
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
        return powWindows(a, invWindows.data(), invWindowCount,
                          [this](const Fe &x, const Fe &y) {
                              return mulRaw(x, y);
                          });
    // Exponentiate in the Montgomery domain (one REDC per product):
    // enter with REDC(a R^2) = a R, leave with REDC(x * 1).
    Fe x = powWindows(montMul(a, r2), invWindows.data(), invWindowCount,
                      [this](const Fe &u, const Fe &v) {
                          return montMul(u, v);
                      });
    uint64_t t[6] = {x.w[0], x.w[1], x.w[2], 0, 0, 0};
    return redc(t);
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
