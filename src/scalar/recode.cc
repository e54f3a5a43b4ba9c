#include "scalar/recode.hh"

#include "bigint/big_int.hh"
#include "support/logging.hh"

namespace jaavr
{

std::vector<int8_t>
binaryDigits(const BigUInt &k)
{
    std::vector<int8_t> out;
    unsigned bits = k.bitLength();
    out.reserve(bits);
    for (unsigned i = 0; i < bits; i++)
        out.push_back(k.bit(i) ? 1 : 0);
    return out;
}

std::vector<int8_t>
wNafDigits(const BigUInt &k, unsigned w)
{
    if (w < 2 || w > 7)
        panic("wNafDigits: w out of range");
    std::vector<int8_t> out;
    BigUInt v = k;
    const uint32_t mod = 1u << w;
    const int32_t half = 1 << (w - 1);
    while (!v.isZero()) {
        if (v.isOdd()) {
            int32_t d = static_cast<int32_t>(v.low32() & (mod - 1));
            if (d >= half)
                d -= mod;
            out.push_back(static_cast<int8_t>(d));
            if (d > 0)
                v -= BigUInt(static_cast<uint64_t>(d));
            else
                v += BigUInt(static_cast<uint64_t>(-d));
        } else {
            out.push_back(0);
        }
        v = v >> 1;
    }
    return out;
}

std::vector<std::pair<int8_t, int8_t>>
jsfDigits(const BigUInt &k1_in, const BigUInt &k2_in)
{
    // Solinas' Joint Sparse Form in the carry formulation (Hankerson
    // et al., Alg. 3.50): d1, d2 are 0/1 carries, the scalars are only
    // ever shifted right, and the digit decisions look at the low
    // three bits of k + d.
    std::vector<std::pair<int8_t, int8_t>> out;
    BigUInt k1 = k1_in, k2 = k2_in;
    uint32_t d1 = 0, d2 = 0;

    while (!k1.isZero() || !k2.isZero() || d1 != 0 || d2 != 0) {
        uint32_t l1 = (k1.low32() + d1) & 7;
        uint32_t l2 = (k2.low32() + d2) & 7;
        int u1 = 0, u2 = 0;
        if (l1 & 1) {
            u1 = 2 - static_cast<int>(l1 & 3);  // +1 or -1
            if ((l1 == 3 || l1 == 5) && ((l2 & 3) == 2))
                u1 = -u1;
        }
        if (l2 & 1) {
            u2 = 2 - static_cast<int>(l2 & 3);
            if ((l2 == 3 || l2 == 5) && ((l1 & 3) == 2))
                u2 = -u2;
        }
        out.emplace_back(static_cast<int8_t>(u1), static_cast<int8_t>(u2));

        if (2 * static_cast<int>(d1) == 1 + u1)
            d1 = 1 - d1;
        if (2 * static_cast<int>(d2) == 1 + u2)
            d2 = 1 - d2;
        k1 = k1 >> 1;
        k2 = k2 >> 1;
    }
    // Trim a possible all-zero top digit pair.
    while (!out.empty() && out.back().first == 0 && out.back().second == 0)
        out.pop_back();
    return out;
}

BigUInt
digitsToScalar(const std::vector<int8_t> &digits)
{
    BigInt acc(0);
    for (size_t i = digits.size(); i-- > 0;) {
        acc = acc + acc;  // *2
        acc += BigInt(static_cast<int64_t>(digits[i]));
    }
    if (acc.isNegative())
        panic("digitsToScalar: negative value");
    return acc.magnitude();
}

} // namespace jaavr
