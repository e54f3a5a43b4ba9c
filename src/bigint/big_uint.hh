/**
 * @file
 * Arbitrary-precision unsigned integers on 32-bit limbs.
 *
 * BigUInt is a value type with fixed inline storage (no heap), sized
 * for this project's needs: 160-bit field elements, 320-bit products,
 * and the intermediates of extended-gcd and CM order computations.
 * Exceeding the capacity is a programming error and panics.
 *
 * Limbs are stored little-endian (limb 0 is least significant) and the
 * representation is always normalized: no leading zero limbs, and the
 * value zero has numLimbs() == 0.
 */

#ifndef JAAVR_BIGINT_BIG_UINT_HH
#define JAAVR_BIGINT_BIG_UINT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "support/random.hh"

namespace jaavr
{

class BigUInt
{
  public:
    /** Inline limb capacity: 1280 bits (covers the RSA-512 products
     *  of the extension benchmark on top of the 160-bit ECC core). */
    static constexpr size_t maxLimbs = 40;

    /** Constructs zero. */
    BigUInt() : n(0) { limbs.fill(0); }

    /** Constructs from a 64-bit value. */
    BigUInt(uint64_t v);

    /** Parse a (optionally "0x"-prefixed) big-endian hex string. */
    static BigUInt fromHex(const std::string &hex);

    /** Construct from big-endian bytes. */
    static BigUInt fromBytes(const std::vector<uint8_t> &bytes);

    /** Construct from little-endian 32-bit words. */
    static BigUInt fromWords(const std::vector<uint32_t> &words);

    /** Construct from @p count little-endian 64-bit limbs. */
    static BigUInt fromLimbs64(const uint64_t *limbs64, size_t count);

    /** 2^bit. */
    static BigUInt powerOfTwo(unsigned bit);

    /** Uniform random value in [0, bound). bound must be non-zero. */
    static BigUInt random(Rng &rng, const BigUInt &bound);

    /** Uniform random value with at most @p bits bits. */
    static BigUInt randomBits(Rng &rng, unsigned bits);

    /** Number of significant limbs (0 for the value zero). */
    size_t numLimbs() const { return n; }

    /** Limb @p i, or 0 if beyond the significant limbs. */
    uint32_t limb(size_t i) const { return i < n ? limbs[i] : 0; }

    /** Number of significant bits (0 for the value zero). */
    unsigned bitLength() const;

    /** Bit @p i (0 = least significant). */
    bool bit(unsigned i) const;

    /** Number of trailing zero bits (undefined for zero; panics). */
    unsigned trailingZeros() const;

    bool isZero() const { return n == 0; }
    bool isOdd() const { return n > 0 && (limbs[0] & 1); }
    bool isOne() const { return n == 1 && limbs[0] == 1; }

    /** Three-way comparison: negative, zero, or positive. */
    int compare(const BigUInt &other) const;

    BigUInt operator+(const BigUInt &o) const;
    /** Subtraction; panics if the result would be negative. */
    BigUInt operator-(const BigUInt &o) const;
    BigUInt operator*(const BigUInt &o) const;
    BigUInt operator/(const BigUInt &o) const;
    BigUInt operator%(const BigUInt &o) const;
    BigUInt operator<<(unsigned bits) const;
    BigUInt operator>>(unsigned bits) const;

    BigUInt &operator+=(const BigUInt &o) { return *this = *this + o; }
    BigUInt &operator-=(const BigUInt &o) { return *this = *this - o; }
    BigUInt &operator*=(const BigUInt &o) { return *this = *this * o; }
    BigUInt &operator<<=(unsigned b) { return *this = *this << b; }
    BigUInt &operator>>=(unsigned b) { return *this = *this >> b; }

    bool operator==(const BigUInt &o) const { return compare(o) == 0; }
    bool operator!=(const BigUInt &o) const { return compare(o) != 0; }
    bool operator<(const BigUInt &o) const { return compare(o) < 0; }
    bool operator<=(const BigUInt &o) const { return compare(o) <= 0; }
    bool operator>(const BigUInt &o) const { return compare(o) > 0; }
    bool operator>=(const BigUInt &o) const { return compare(o) >= 0; }

    /**
     * Quotient and remainder in one pass (Knuth Algorithm D).
     * @param num dividend
     * @param den divisor (must be non-zero)
     * @param quot receives num / den
     * @param rem receives num % den
     */
    static void divMod(const BigUInt &num, const BigUInt &den,
                       BigUInt &quot, BigUInt &rem);

    /** (this + o) mod m; operands must already be < m. */
    BigUInt addMod(const BigUInt &o, const BigUInt &m) const;

    /** (this - o) mod m; operands must already be < m. */
    BigUInt subMod(const BigUInt &o, const BigUInt &m) const;

    /** (this * o) mod m. */
    BigUInt mulMod(const BigUInt &o, const BigUInt &m) const;

    /** this^exp mod m (square-and-multiply). */
    BigUInt powMod(const BigUInt &exp, const BigUInt &m) const;

    /**
     * Modular inverse of this mod m via extended Euclid. The operand
     * is reduced mod m first; panics if gcd(this, m) != 1.
     */
    BigUInt invMod(const BigUInt &m) const;

    /** Greatest common divisor. */
    BigUInt gcd(const BigUInt &o) const;

    /** Value as uint64_t; panics if it does not fit. */
    uint64_t toUint64() const;

    /** Lowest 32 bits (0 for zero). */
    uint32_t low32() const { return limb(0); }

    /** 64-bit limb @p i (limbs 2i and 2i+1), 0 beyond the value. */
    uint64_t
    limb64(size_t i) const
    {
        return limb(2 * i) | static_cast<uint64_t>(limb(2 * i + 1)) << 32;
    }

    /** Lowercase hex, no prefix, minimal digits ("0" for zero). */
    std::string toHex() const;

    /**
     * Big-endian bytes. If @p len is non-zero the output is padded (or
     * the call panics if the value does not fit in @p len bytes).
     */
    std::vector<uint8_t> toBytes(size_t len = 0) const;

    /** Little-endian 32-bit words, padded/truncated-checked to @p len. */
    std::vector<uint32_t> toWords(size_t len) const;

  private:
    /** Drop leading zero limbs. */
    void normalize();

    /** Set limb count, panicking if it exceeds capacity. */
    void setSize(size_t count);

    std::array<uint32_t, maxLimbs> limbs;
    size_t n;
};

} // namespace jaavr

#endif // JAAVR_BIGINT_BIG_UINT_HH
