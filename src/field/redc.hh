/**
 * @file
 * The host's three-limb Montgomery kernel (DESIGN.md §5.1): 64-bit
 * word helpers, the 3 x 3-limb product, REDC with R = 2^192, and
 * RedcContext, the Montgomery domain of one odd modulus below 2^192.
 *
 * It has two users. PrimeField's Redc fields multiply on it
 * (prime_field.cc), and the set-up number theory in nt/ runs its
 * Tonelli-Shanks square roots and Miller-Rabin rounds on it. The
 * header needs only Fe and BigUInt, so nt includes it without
 * linking the field library. MontgomeryDomain (montgomery_domain.hh)
 * is a different thing: the AVR's 32-bit word algorithm with MAC
 * counts, for the RSA ablation.
 */

#ifndef JAAVR_FIELD_REDC_HH
#define JAAVR_FIELD_REDC_HH

#include <array>
#include <cstdint>

#include "bigint/big_uint.hh"
#include "field/fe.hh"
#include "support/logging.hh"

namespace jaavr
{

/** Word and limb arithmetic on Fe, shared by the reductions. */
namespace limb
{

using u128 = unsigned __int128;

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

/** a - b - borrow; borrow receives the borrow out. */
inline uint64_t
sbb(uint64_t a, uint64_t b, uint64_t &borrow)
{
    u128 d = u128(a) - b - borrow;
    borrow = uint64_t(d >> 64) & 1;
    return uint64_t(d);
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

/** The low 192 bits of @p v as limbs. */
inline Fe
feOf(const BigUInt &v)
{
    return Fe{{v.limb64(0), v.limb64(1), v.limb64(2)}};
}

} // namespace limb

/** An exponent below 2^192 as 4-bit windows, most significant first. */
struct ExpWindows
{
    explicit ExpWindows(const BigUInt &e)
    {
        unsigned bits = e.bitLength();
        if (bits > 64 * Fe::limbs)
            panic("ExpWindows: %u-bit exponent", bits);
        count = (bits + 3) / 4;
        // A window never straddles a limb: 64 is a multiple of 4.
        for (unsigned i = 0; i < count; i++) {
            unsigned shift = 4 * (count - 1 - i);
            win[i] = uint8_t((e.limb64(shift / 64) >> (shift % 64)) & 15);
        }
    }

    std::array<uint8_t, 48> win{};
    unsigned count = 0; ///< 0 for the exponent 0
};

/**
 * base^e by a fixed 4-bit window over @p mul, for e >= 1: whatever
 * domain @p mul multiplies in, base and result are in it.
 */
template <class Mul>
Fe
powWindows(const Fe &base, const ExpWindows &e, Mul &&mul)
{
    Fe table[16];
    table[1] = base;
    for (size_t i = 2; i < 16; i++)
        table[i] = mul(table[i - 1], base);
    Fe x = table[e.win[0]];
    for (unsigned i = 1; i < e.count; i++) {
        for (int s = 0; s < 4; s++)
            x = mul(x, x);
        if (e.win[i])
            x = mul(x, table[e.win[i]]);
    }
    return x;
}

/**
 * The Montgomery domain of an odd modulus m below 2^192, with
 * R = 2^192: a value a is held as a R mod m, canonical in [0, m).
 * Every product is one 3 x 3-limb multiplication and one REDC.
 * Inputs to mul, sqr, toMont and pow must be canonical (below m).
 */
class RedcContext
{
  public:
    /**
     * @param m   odd modulus, 3 <= m < 2^192; anything else is fatal
     * @param who the caller, named in the fatal message
     */
    RedcContext(const BigUInt &m, const char *who)
    {
        unsigned bits = m.bitLength();
        if (bits > 64 * Fe::limbs)
            fatal("%s: %u-bit modulus exceeds the %zu-bit element", who,
                  bits, 64 * Fe::limbs);
        if (!m.isOdd() || m < BigUInt(3))
            fatal("%s: modulus must be odd and at least 3", who);
        mw = limb::feOf(m);
        // m^-1 mod 2^64 by Newton's iteration x <- x (2 - m x): m is
        // its own inverse mod 8, and each step doubles the valid bits.
        uint64_t x = mw.w[0];
        for (int i = 0; i < 5; i++)
            x *= 2 - mw.w[0] * x;
        mInv = 0 - x;
        r2 = limb::feOf(BigUInt::powerOfTwo(128 * Fe::limbs) % m);
        r1 = limb::feOf(BigUInt::powerOfTwo(64 * Fe::limbs) % m);
    }

    const Fe &modulus() const { return mw; }

    /** R^2 mod m: multiplying by it enters the domain. */
    const Fe &rSquared() const { return r2; }

    /** 1 in Montgomery form (R mod m). */
    const Fe &one() const { return r1; }

    /** REDC of the 6-limb t < m * 2^192: t * 2^-192 mod m. */
    Fe
    redc(uint64_t t[6]) const
    {
        using limb::adc;
        using limb::mac;
        // Three word steps, unrolled: each adds the multiple q * m
        // that clears the lowest remaining word, carrying into the
        // words above.
        const uint64_t *m = mw.w;
        uint64_t top = 0, c = 0, q = t[0] * mInv;
        mac(q, m[0], t[0], c);
        t[1] = mac(q, m[1], t[1], c);
        t[2] = mac(q, m[2], t[2], c);
        t[3] = adc(t[3], 0, c);
        t[4] = adc(t[4], 0, c);
        t[5] = adc(t[5], 0, c);
        top = c;
        c = 0;
        q = t[1] * mInv;
        mac(q, m[0], t[1], c);
        t[2] = mac(q, m[1], t[2], c);
        t[3] = mac(q, m[2], t[3], c);
        t[4] = adc(t[4], 0, c);
        t[5] = adc(t[5], 0, c);
        top += c;
        c = 0;
        q = t[2] * mInv;
        mac(q, m[0], t[2], c);
        t[3] = mac(q, m[1], t[3], c);
        t[4] = mac(q, m[2], t[4], c);
        t[5] = adc(t[5], 0, c);
        top += c;
        // t < m * 2^192 leaves a result below 2m.
        return limb::condSub(Fe{{t[3], t[4], t[5]}}, top, mw);
    }

    /** REDC(a * b): the Montgomery product a * b * 2^-192 mod m. */
    Fe
    mul(const Fe &a, const Fe &b) const
    {
        uint64_t t[6];
        limb::mul3(a, b, t);
        return redc(t);
    }

    Fe sqr(const Fe &a) const { return mul(a, a); }

    /** a into the domain: a R mod m. */
    Fe toMont(const Fe &a) const { return mul(a, r2); }

    /** a out of the domain: a R^-1 mod m. */
    Fe
    fromMont(const Fe &a) const
    {
        uint64_t t[6] = {a.w[0], a.w[1], a.w[2], 0, 0, 0};
        return redc(t);
    }

    /** a^e with a and the result in Montgomery form. */
    Fe
    pow(const Fe &a, const ExpWindows &e) const
    {
        if (!e.count)
            return r1;
        return powWindows(a, e, [this](const Fe &x, const Fe &y) {
            return mul(x, y);
        });
    }

    Fe
    pow(const Fe &a, const BigUInt &e) const
    {
        return pow(a, ExpWindows(e));
    }

  private:
    Fe mw;             ///< m as limbs
    uint64_t mInv = 0; ///< -m^-1 mod 2^64
    Fe r2;             ///< R^2 mod m
    Fe r1;             ///< R mod m
};

} // namespace jaavr

#endif // JAAVR_FIELD_REDC_HH
