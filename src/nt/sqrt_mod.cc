#include "nt/sqrt_mod.hh"

#include "field/redc.hh"
#include "nt/primality.hh"
#include "support/logging.hh"

namespace jaavr
{

std::optional<BigUInt>
sqrtMod(const BigUInt &a_in, const BigUInt &p, Rng &rng)
{
    const RedcContext mp(p, "sqrtMod");
    BigUInt a = a_in % p;
    if (a.isZero())
        return BigUInt(0);
    if (jacobi(a, p) != 1)
        return std::nullopt;
    const Fe am = mp.toMont(limb::feOf(a));

    if ((p.low32() & 3) == 3) {
        // r = a^((p+1)/4)
        return mp.fromMont(mp.pow(am, (p + BigUInt(1)) >> 2)).toBig();
    }

    // Tonelli-Shanks. Write p - 1 = q * 2^s with q odd.
    BigUInt pm1 = p - BigUInt(1);
    unsigned s = pm1.trailingZeros();
    BigUInt q = pm1 >> s;

    // Find a quadratic non-residue z.
    BigUInt z(2);
    while (jacobi(z, p) != -1)
        z = BigUInt(2) + BigUInt::random(rng, p - BigUInt(2));

    // The loop runs in the Montgomery domain, where 1 is mp.one().
    Fe c = mp.pow(mp.toMont(limb::feOf(z)), q);
    Fe t = mp.pow(am, q);
    Fe r = mp.pow(am, (q + BigUInt(1)) >> 1);
    unsigned m = s;

    while (t != mp.one()) {
        // Find the least i with t^(2^i) == 1.
        unsigned i = 0;
        Fe t2 = t;
        while (t2 != mp.one()) {
            t2 = mp.sqr(t2);
            i++;
            if (i == m)
                panic("sqrtMod: non-residue slipped through");
        }
        // b = c^(2^(m - i - 1))
        Fe b = c;
        for (unsigned j = 0; j + i + 1 < m; j++)
            b = mp.sqr(b);
        m = i;
        c = mp.sqr(b);
        t = mp.mul(t, c);
        r = mp.mul(r, b);
    }
    return mp.fromMont(r).toBig();
}

} // namespace jaavr
