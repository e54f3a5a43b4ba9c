#include "bigint/big_uint.hh"

#include "support/hex.hh"
#include "support/logging.hh"

namespace jaavr
{

void
BigUInt::setSize(size_t count)
{
    if (count > maxLimbs)
        panic("BigUInt capacity exceeded (%zu > %zu limbs)",
              count, maxLimbs);
    n = count;
}

void
BigUInt::normalize()
{
    while (n > 0 && limbs[n - 1] == 0)
        n--;
}

BigUInt::BigUInt(uint64_t v)
{
    limbs.fill(0);
    limbs[0] = static_cast<uint32_t>(v);
    limbs[1] = static_cast<uint32_t>(v >> 32);
    n = limbs[1] ? 2 : (limbs[0] ? 1 : 0);
}

BigUInt
BigUInt::fromHex(const std::string &hex)
{
    return fromBytes(hexDecode(hex));
}

BigUInt
BigUInt::fromBytes(const std::vector<uint8_t> &bytes)
{
    BigUInt r;
    size_t nbytes = bytes.size();
    r.setSize((nbytes + 3) / 4);
    for (size_t i = 0; i < nbytes; i++) {
        // bytes are big-endian: bytes[nbytes-1] is the LSB.
        size_t pos = nbytes - 1 - i;
        r.limbs[i / 4] |= static_cast<uint32_t>(bytes[pos]) << (8 * (i % 4));
    }
    r.normalize();
    return r;
}

BigUInt
BigUInt::fromWords(const std::vector<uint32_t> &words)
{
    BigUInt r;
    r.setSize(words.size());
    for (size_t i = 0; i < words.size(); i++)
        r.limbs[i] = words[i];
    r.normalize();
    return r;
}

BigUInt
BigUInt::fromLimbs64(const uint64_t *limbs64, size_t count)
{
    BigUInt r;
    r.setSize(2 * count);
    for (size_t i = 0; i < count; i++) {
        r.limbs[2 * i] = static_cast<uint32_t>(limbs64[i]);
        r.limbs[2 * i + 1] = static_cast<uint32_t>(limbs64[i] >> 32);
    }
    r.normalize();
    return r;
}

BigUInt
BigUInt::powerOfTwo(unsigned bit)
{
    BigUInt r;
    r.setSize(bit / 32 + 1);
    r.limbs[bit / 32] = 1u << (bit % 32);
    return r;
}

BigUInt
BigUInt::randomBits(Rng &rng, unsigned bits)
{
    BigUInt r;
    unsigned nl = (bits + 31) / 32;
    r.setSize(nl);
    for (unsigned i = 0; i < nl; i++)
        r.limbs[i] = rng.next32();
    unsigned top = bits % 32;
    if (top)
        r.limbs[nl - 1] &= (1u << top) - 1;
    r.normalize();
    return r;
}

BigUInt
BigUInt::random(Rng &rng, const BigUInt &bound)
{
    if (bound.isZero())
        panic("BigUInt::random with zero bound");
    unsigned bits = bound.bitLength();
    // Rejection sampling: expected < 2 iterations.
    for (;;) {
        BigUInt r = randomBits(rng, bits);
        if (r < bound)
            return r;
    }
}

unsigned
BigUInt::bitLength() const
{
    if (n == 0)
        return 0;
    uint32_t top = limbs[n - 1];
    unsigned bits = (n - 1) * 32;
    while (top) {
        bits++;
        top >>= 1;
    }
    return bits;
}

bool
BigUInt::bit(unsigned i) const
{
    size_t l = i / 32;
    if (l >= n)
        return false;
    return (limbs[l] >> (i % 32)) & 1;
}

unsigned
BigUInt::trailingZeros() const
{
    if (n == 0)
        panic("trailingZeros of zero");
    unsigned tz = 0;
    size_t l = 0;
    while (limbs[l] == 0) {
        tz += 32;
        l++;
    }
    uint32_t w = limbs[l];
    while (!(w & 1)) {
        tz++;
        w >>= 1;
    }
    return tz;
}

int
BigUInt::compare(const BigUInt &other) const
{
    if (n != other.n)
        return n < other.n ? -1 : 1;
    for (size_t i = n; i-- > 0;) {
        if (limbs[i] != other.limbs[i])
            return limbs[i] < other.limbs[i] ? -1 : 1;
    }
    return 0;
}

BigUInt
BigUInt::operator+(const BigUInt &o) const
{
    BigUInt r;
    size_t nmax = std::max(n, o.n);
    r.setSize(nmax + 1);
    uint64_t carry = 0;
    for (size_t i = 0; i < nmax; i++) {
        uint64_t s = carry + limb(i) + o.limb(i);
        r.limbs[i] = static_cast<uint32_t>(s);
        carry = s >> 32;
    }
    r.limbs[nmax] = static_cast<uint32_t>(carry);
    r.normalize();
    return r;
}

BigUInt
BigUInt::operator-(const BigUInt &o) const
{
    if (compare(o) < 0)
        panic("BigUInt subtraction underflow");
    BigUInt r;
    r.setSize(n);
    int64_t borrow = 0;
    for (size_t i = 0; i < n; i++) {
        int64_t d = static_cast<int64_t>(limb(i)) - o.limb(i) - borrow;
        borrow = d < 0 ? 1 : 0;
        r.limbs[i] = static_cast<uint32_t>(d);
    }
    r.normalize();
    return r;
}

BigUInt
BigUInt::operator*(const BigUInt &o) const
{
    BigUInt r;
    if (isZero() || o.isZero())
        return r;
    r.setSize(n + o.n);
    for (size_t i = 0; i < n + o.n; i++)
        r.limbs[i] = 0;
    for (size_t i = 0; i < n; i++) {
        uint64_t carry = 0;
        for (size_t j = 0; j < o.n; j++) {
            uint64_t t = static_cast<uint64_t>(limbs[i]) * o.limbs[j] +
                         r.limbs[i + j] + carry;
            r.limbs[i + j] = static_cast<uint32_t>(t);
            carry = t >> 32;
        }
        r.limbs[i + o.n] = static_cast<uint32_t>(carry);
    }
    r.normalize();
    return r;
}

BigUInt
BigUInt::operator<<(unsigned bits) const
{
    if (isZero())
        return BigUInt();
    BigUInt r;
    unsigned limb_shift = bits / 32;
    unsigned bit_shift = bits % 32;
    r.setSize(n + limb_shift + (bit_shift ? 1 : 0));
    for (size_t i = 0; i < r.n; i++)
        r.limbs[i] = 0;
    for (size_t i = 0; i < n; i++) {
        r.limbs[i + limb_shift] |= limbs[i] << bit_shift;
        if (bit_shift)
            r.limbs[i + limb_shift + 1] |= limbs[i] >> (32 - bit_shift);
    }
    r.normalize();
    return r;
}

BigUInt
BigUInt::operator>>(unsigned bits) const
{
    unsigned limb_shift = bits / 32;
    unsigned bit_shift = bits % 32;
    BigUInt r;
    if (limb_shift >= n)
        return r;
    r.setSize(n - limb_shift);
    for (size_t i = 0; i < r.n; i++) {
        uint32_t lo = limbs[i + limb_shift] >> bit_shift;
        uint32_t hi = 0;
        if (bit_shift && i + limb_shift + 1 < n)
            hi = limbs[i + limb_shift + 1] << (32 - bit_shift);
        r.limbs[i] = lo | hi;
    }
    r.normalize();
    return r;
}

void
BigUInt::divMod(const BigUInt &num, const BigUInt &den,
                BigUInt &quot, BigUInt &rem)
{
    if (den.isZero())
        panic("BigUInt division by zero");
    if (num.compare(den) < 0) {
        rem = num;
        quot = BigUInt();
        return;
    }
    if (den.n == 1) {
        // Single-limb fast path.
        uint64_t d = den.limbs[0];
        BigUInt q;
        q.setSize(num.n);
        uint64_t r = 0;
        for (size_t i = num.n; i-- > 0;) {
            uint64_t cur = (r << 32) | num.limbs[i];
            q.limbs[i] = static_cast<uint32_t>(cur / d);
            r = cur % d;
        }
        q.normalize();
        quot = q;
        rem = BigUInt(r);
        return;
    }

    // Knuth TAOCP vol. 2, Algorithm D. Normalize so the divisor's top
    // limb has its most significant bit set. t >= 2 here (the
    // single-limb case was handled above).
    unsigned shift = (32 - den.bitLength() % 32) % 32;
    BigUInt u = num << shift;
    BigUInt v = den << shift;
    size_t t = v.n;
    // Extend the dividend by one (zero) high limb; limbs beyond the
    // significant count are zero by representation invariant.
    size_t un = u.n + 1;
    u.setSize(un);

    BigUInt q;
    q.setSize(un - t);
    const uint64_t base = 1ULL << 32;
    uint64_t vtop = v.limbs[t - 1];
    uint64_t vnext = v.limbs[t - 2];

    for (size_t j = un - t; j-- > 0;) {
        // Estimate the quotient digit from the top two dividend limbs,
        // then correct it using the third limb (at most two decrements).
        uint64_t numer =
            (static_cast<uint64_t>(u.limbs[j + t]) << 32) | u.limbs[j + t - 1];
        uint64_t qhat = numer / vtop;
        uint64_t rhat = numer % vtop;
        while (qhat >= base ||
               qhat * vnext > ((rhat << 32) | u.limbs[j + t - 2])) {
            qhat--;
            rhat += vtop;
            if (rhat >= base)
                break;
        }

        // Multiply-and-subtract qhat * v from u[j .. j+t].
        int64_t borrow = 0;
        uint64_t carry = 0;
        for (size_t i = 0; i < t; i++) {
            uint64_t p = qhat * v.limbs[i] + carry;
            carry = p >> 32;
            int64_t d = static_cast<int64_t>(u.limbs[i + j]) -
                        static_cast<int64_t>(p & 0xffffffffULL) - borrow;
            borrow = d < 0 ? 1 : 0;
            u.limbs[i + j] = static_cast<uint32_t>(d);
        }
        int64_t d = static_cast<int64_t>(u.limbs[j + t]) -
                    static_cast<int64_t>(carry) - borrow;
        borrow = d < 0 ? 1 : 0;
        u.limbs[j + t] = static_cast<uint32_t>(d);

        if (borrow) {
            // qhat was one too large; add v back.
            qhat--;
            uint64_t c = 0;
            for (size_t i = 0; i < t; i++) {
                uint64_t s = c + u.limbs[i + j] + v.limbs[i];
                u.limbs[i + j] = static_cast<uint32_t>(s);
                c = s >> 32;
            }
            u.limbs[j + t] += static_cast<uint32_t>(c);
        }
        q.limbs[j] = static_cast<uint32_t>(qhat);
    }

    q.normalize();
    u.setSize(t);
    u.normalize();
    quot = q;
    rem = u >> shift;
}

BigUInt
BigUInt::operator/(const BigUInt &o) const
{
    BigUInt q, r;
    divMod(*this, o, q, r);
    return q;
}

BigUInt
BigUInt::operator%(const BigUInt &o) const
{
    BigUInt q, r;
    divMod(*this, o, q, r);
    return r;
}

BigUInt
BigUInt::addMod(const BigUInt &o, const BigUInt &m) const
{
    BigUInt s = *this + o;
    if (s >= m)
        s -= m;
    return s;
}

BigUInt
BigUInt::subMod(const BigUInt &o, const BigUInt &m) const
{
    if (compare(o) >= 0)
        return *this - o;
    return *this + m - o;
}

BigUInt
BigUInt::mulMod(const BigUInt &o, const BigUInt &m) const
{
    return (*this * o) % m;
}

BigUInt
BigUInt::powMod(const BigUInt &exp, const BigUInt &m) const
{
    if (m.isZero())
        panic("powMod with zero modulus");
    BigUInt base = *this % m;
    BigUInt result(1);
    if (m.isOne())
        return BigUInt();
    for (size_t i = exp.bitLength(); i-- > 0;) {
        result = result.mulMod(result, m);
        if (exp.bit(i))
            result = result.mulMod(base, m);
    }
    return result;
}

BigUInt
BigUInt::invMod(const BigUInt &m) const
{
    // Extended Euclid on (a, m) tracking only the coefficient of a,
    // with signs handled explicitly.
    BigUInt a = *this % m;
    if (a.isZero())
        panic("invMod: operand shares factor with modulus");
    BigUInt r0 = m, r1 = a;
    BigUInt s0(0), s1(1);
    bool neg0 = false, neg1 = false;

    while (!r1.isZero()) {
        BigUInt q, r2;
        divMod(r0, r1, q, r2);
        // s2 = s0 - q * s1 with explicit sign tracking.
        BigUInt qs1 = q * s1;
        BigUInt s2;
        bool neg2;
        if (neg0 == neg1) {
            // Same sign: result is s0 - qs1 in magnitude terms.
            if (s0 >= qs1) {
                s2 = s0 - qs1;
                neg2 = neg0;
            } else {
                s2 = qs1 - s0;
                neg2 = !neg0;
            }
        } else {
            s2 = s0 + qs1;
            neg2 = neg0;
        }
        r0 = r1;
        r1 = r2;
        s0 = s1;
        neg0 = neg1;
        s1 = s2;
        neg1 = neg2;
    }

    if (!r0.isOne())
        panic("invMod: gcd != 1 (gcd = %s)", r0.toHex().c_str());

    BigUInt inv = s0 % m;
    if (neg0 && !inv.isZero())
        inv = m - inv;
    return inv;
}

BigUInt
BigUInt::gcd(const BigUInt &o) const
{
    BigUInt a = *this, b = o;
    while (!b.isZero()) {
        BigUInt r = a % b;
        a = b;
        b = r;
    }
    return a;
}

uint64_t
BigUInt::toUint64() const
{
    if (n > 2)
        panic("BigUInt::toUint64: value too large (%s)", toHex().c_str());
    uint64_t v = limb(0);
    v |= static_cast<uint64_t>(limb(1)) << 32;
    return v;
}

std::string
BigUInt::toHex() const
{
    if (n == 0)
        return "0";
    std::string out;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%x", limbs[n - 1]);
    out += buf;
    for (size_t i = n - 1; i-- > 0;) {
        std::snprintf(buf, sizeof(buf), "%08x", limbs[i]);
        out += buf;
    }
    return out;
}

std::vector<uint8_t>
BigUInt::toBytes(size_t len) const
{
    size_t need = (bitLength() + 7) / 8;
    if (len == 0)
        len = need ? need : 1;
    if (need > len)
        panic("BigUInt::toBytes: value needs %zu bytes, got %zu", need, len);
    std::vector<uint8_t> out(len, 0);
    for (size_t i = 0; i < need; i++)
        out[len - 1 - i] = static_cast<uint8_t>(limbs[i / 4] >> (8 * (i % 4)));
    return out;
}

std::vector<uint32_t>
BigUInt::toWords(size_t len) const
{
    if (n > len)
        panic("BigUInt::toWords: value needs %zu words, got %zu", n, len);
    std::vector<uint32_t> out(len, 0);
    for (size_t i = 0; i < n; i++)
        out[i] = limbs[i];
    return out;
}

} // namespace jaavr
