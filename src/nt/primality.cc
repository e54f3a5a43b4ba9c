#include "nt/primality.hh"

#include "field/redc.hh"
#include "support/logging.hh"

namespace jaavr
{

bool
isProbablePrime(const BigUInt &n, Rng &rng, unsigned rounds)
{
    if (n < BigUInt(3) || !n.isOdd())
        return n == BigUInt(2);
    const RedcContext mn(n, "isProbablePrime");
    for (uint64_t small : {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
        BigUInt s(small);
        if (n == s)
            return true;
        if ((n % s).isZero())
            return false;
    }

    // Write n - 1 = d * 2^r with d odd.
    BigUInt nm1 = n - BigUInt(1);
    unsigned r = nm1.trailingZeros();
    const ExpWindows d(nm1 >> r);
    // The rounds run in the Montgomery domain: 1 is mn.one(), and
    // n - 1 enters as n - (R mod n).
    const Fe minusOne = mn.toMont(limb::feOf(nm1));

    for (unsigned i = 0; i < rounds; i++) {
        // Base in [2, n - 2].
        BigUInt a = BigUInt(2) + BigUInt::random(rng, n - BigUInt(3));
        Fe x = mn.pow(mn.toMont(limb::feOf(a)), d);
        if (x == mn.one() || x == minusOne)
            continue;
        bool composite = true;
        for (unsigned j = 0; j + 1 < r; j++) {
            x = mn.sqr(x);
            if (x == minusOne) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

int
jacobi(const BigUInt &a_in, const BigUInt &n_in)
{
    if (!n_in.isOdd())
        panic("jacobi: n must be odd");
    BigUInt a = a_in % n_in;
    BigUInt n = n_in;
    int result = 1;
    while (!a.isZero()) {
        while (!a.isOdd()) {
            a = a >> 1;
            uint32_t n_mod8 = n.low32() & 7;
            if (n_mod8 == 3 || n_mod8 == 5)
                result = -result;
        }
        std::swap(a, n);
        if ((a.low32() & 3) == 3 && (n.low32() & 3) == 3)
            result = -result;
        a = a % n;
    }
    return n.isOne() ? result : 0;
}

} // namespace jaavr
