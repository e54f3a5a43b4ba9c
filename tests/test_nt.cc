/**
 * @file
 * Unit tests for the number-theory module: primality, Jacobi symbols,
 * modular square roots, Cornacchia, and OPF prime search; and the
 * Montgomery-kernel Tonelli-Shanks and Miller-Rabin loops against
 * their BigUInt references (KernelVsBigUInt.*).
 */

#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "curves/standard_curves.hh"
#include "nt/cornacchia.hh"
#include "nt/intsqrt.hh"
#include "nt/opf_prime.hh"
#include "nt/primality.hh"
#include "nt/sqrt_mod.hh"
#include "support/logging.hh"

using namespace jaavr;

TEST(Primality, SmallKnownValues)
{
    Rng rng(1);
    uint64_t primes[] = {2, 3, 5, 7, 11, 13, 97, 65537, 1000000007};
    uint64_t composites[] = {0, 1, 4, 6, 9, 15, 91, 341, 561, 1000000008};
    for (uint64_t p : primes)
        EXPECT_TRUE(isProbablePrime(BigUInt(p), rng)) << p;
    for (uint64_t c : composites)
        EXPECT_FALSE(isProbablePrime(BigUInt(c), rng)) << c;
}

TEST(Primality, CarmichaelNumbers)
{
    // Fermat pseudoprimes to many bases; Miller-Rabin must reject.
    Rng rng(2);
    for (uint64_t n : {561ULL, 1105ULL, 1729ULL, 2465ULL, 6601ULL})
        EXPECT_FALSE(isProbablePrime(BigUInt(n), rng)) << n;
}

TEST(Primality, LargeKnownPrime)
{
    Rng rng(3);
    // 2^127 - 1 is a Mersenne prime; 2^128 + 1 is composite.
    EXPECT_TRUE(isProbablePrime(
        BigUInt::powerOfTwo(127) - BigUInt(1), rng));
    EXPECT_FALSE(isProbablePrime(
        BigUInt::powerOfTwo(128) + BigUInt(1), rng));
}

TEST(Primality, PaperOpfPrimeIsPrime)
{
    // The paper's example p = 65356 * 2^144 + 1 (Section II-A).
    const OpfPrime &o = paperOpfPrime();
    EXPECT_EQ(o.u, 65356u);
    EXPECT_EQ(o.p.toHex(), "ff4c" + std::string(35, '0') + "1");
    EXPECT_EQ(o.p.bitLength(), 160u);
}

TEST(Jacobi, MatchesEulerCriterion)
{
    Rng rng(4);
    BigUInt p(1000003);
    BigUInt e = (p - BigUInt(1)) >> 1;
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt(1) + BigUInt::random(rng, p - BigUInt(1));
        BigUInt ls = a.powMod(e, p);
        int expect = ls.isOne() ? 1 : -1;
        EXPECT_EQ(jacobi(a, p), expect);
    }
}

TEST(Jacobi, ZeroAndMultiples)
{
    EXPECT_EQ(jacobi(BigUInt(0), BigUInt(7)), 0);
    EXPECT_EQ(jacobi(BigUInt(14), BigUInt(7)), 0);
    EXPECT_EQ(jacobi(BigUInt(1), BigUInt(9)), 1);
}

TEST(Jacobi, KnownSmallTable)
{
    // (a/7): QRs mod 7 are {1, 2, 4}.
    EXPECT_EQ(jacobi(BigUInt(1), BigUInt(7)), 1);
    EXPECT_EQ(jacobi(BigUInt(2), BigUInt(7)), 1);
    EXPECT_EQ(jacobi(BigUInt(3), BigUInt(7)), -1);
    EXPECT_EQ(jacobi(BigUInt(4), BigUInt(7)), 1);
    EXPECT_EQ(jacobi(BigUInt(5), BigUInt(7)), -1);
    EXPECT_EQ(jacobi(BigUInt(6), BigUInt(7)), -1);
}

TEST(SqrtMod, RoundTripSmallPrime)
{
    Rng rng(5);
    BigUInt p(10007);  // p = 3 mod 4
    for (int i = 0; i < 50; i++) {
        BigUInt a = BigUInt::random(rng, p);
        BigUInt sq = a.mulMod(a, p);
        auto r = sqrtMod(sq, p, rng);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->mulMod(*r, p), sq);
    }
}

TEST(SqrtMod, HighTwoAdicityPrime)
{
    // The OPF primes have 2-adicity 144+, exercising the full
    // Tonelli-Shanks loop rather than the p = 3 (mod 4) shortcut.
    Rng rng(6);
    const BigUInt &p = paperOpfPrime().p;
    for (int i = 0; i < 10; i++) {
        BigUInt a = BigUInt::random(rng, p);
        BigUInt sq = a.mulMod(a, p);
        auto r = sqrtMod(sq, p, rng);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(r->mulMod(*r, p), sq);
    }
}

TEST(SqrtMod, NonResidueReturnsNullopt)
{
    Rng rng(7);
    BigUInt p(10007);
    int nones = 0;
    for (uint64_t a = 2; a < 60; a++) {
        if (jacobi(BigUInt(a), p) == -1) {
            EXPECT_FALSE(sqrtMod(BigUInt(a), p, rng).has_value());
            nones++;
        }
    }
    EXPECT_GT(nones, 10);
}

TEST(SqrtMod, ZeroMapsToZero)
{
    Rng rng(8);
    auto r = sqrtMod(BigUInt(0), BigUInt(10007), rng);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->isZero());
}

TEST(IntSqrt, ExactAndFloor)
{
    EXPECT_EQ(isqrt(BigUInt(0)).toUint64(), 0u);
    EXPECT_EQ(isqrt(BigUInt(1)).toUint64(), 1u);
    EXPECT_EQ(isqrt(BigUInt(15)).toUint64(), 3u);
    EXPECT_EQ(isqrt(BigUInt(16)).toUint64(), 4u);
    EXPECT_EQ(isqrt(BigUInt(17)).toUint64(), 4u);
    Rng rng(9);
    for (int i = 0; i < 100; i++) {
        BigUInt a = BigUInt::randomBits(rng, 170);
        BigUInt r = isqrt(a);
        EXPECT_LE(r * r, a);
        EXPECT_GT((r + BigUInt(1)) * (r + BigUInt(1)), a);
    }
}

TEST(IntSqrt, PerfectSquareDetection)
{
    Rng rng(10);
    for (int i = 0; i < 50; i++) {
        BigUInt a = BigUInt::randomBits(rng, 90);
        BigUInt root;
        EXPECT_TRUE(isPerfectSquare(a * a, root));
        EXPECT_EQ(root, a);
        if (!a.isZero()) {
            BigUInt r2;
            EXPECT_FALSE(isPerfectSquare(a * a + BigUInt(1), r2) &&
                         r2 * r2 != a * a + BigUInt(1));
        }
    }
}

TEST(Cornacchia, KnownSmallRepresentation)
{
    // 31 = 2^2 + 3 * 3^2.
    Rng rng(11);
    auto sol = cornacchia(BigUInt(31), 3, rng);
    ASSERT_TRUE(sol.has_value());
    BigUInt check = sol->x * sol->x + BigUInt(3) * sol->y * sol->y;
    EXPECT_EQ(check.toUint64(), 31u);
}

TEST(Cornacchia, RepresentationProperty)
{
    Rng rng(12);
    // p = 1 mod 3 primes are exactly those representable as a^2+3b^2.
    for (uint64_t p : {7ULL, 13ULL, 19ULL, 31ULL, 37ULL, 43ULL, 61ULL}) {
        auto sol = cornacchia(BigUInt(p), 3, rng);
        ASSERT_TRUE(sol.has_value()) << p;
        EXPECT_EQ((sol->x * sol->x + BigUInt(3) * sol->y * sol->y)
                      .toUint64(), p);
    }
    // p = 2 mod 3 primes are not representable.
    for (uint64_t p : {5ULL, 11ULL, 17ULL, 23ULL, 29ULL})
        EXPECT_FALSE(cornacchia(BigUInt(p), 3, rng).has_value()) << p;
}

TEST(Cornacchia, LargePrimeD1)
{
    // p = 1 mod 4 is a sum of two squares (d = 1).
    Rng rng(13);
    const BigUInt &p = paperOpfPrime().p;  // p = 1 mod 4 by shape
    auto sol = cornacchia(p, 1, rng);
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ(sol->x * sol->x + sol->y * sol->y, p);
}

TEST(Cornacchia, CmDecomposition4p)
{
    Rng rng(14);
    const OpfPrime &glv = glvOpfPrime();
    ASSERT_EQ(glv.p % BigUInt(3), BigUInt(1));
    CmDecomposition d = cmDecompose4p(glv.p, rng);
    BigUInt check = d.l * d.l + BigUInt(27) * d.m * d.m;
    EXPECT_EQ(check, glv.p << 2);
}

TEST(Cornacchia, CmDecompositionSmall)
{
    // p = 7: 4*7 = 28 = 1 + 27 = 1^2 + 27*1^2.
    Rng rng(15);
    CmDecomposition d = cmDecompose4p(BigUInt(7), rng);
    EXPECT_EQ((d.l * d.l + BigUInt(27) * d.m * d.m).toUint64(), 28u);
}

TEST(OpfPrime, MakeOpfShape)
{
    OpfPrime o = makeOpf(0xff4c, 144);
    EXPECT_EQ(o.p.bitLength(), 160u);
    EXPECT_EQ(o.p.low32(), 1u);
    // Middle words are all zero: only MSW and LSW non-zero.
    auto w = o.p.toWords(5);
    EXPECT_EQ(w[1], 0u);
    EXPECT_EQ(w[2], 0u);
    EXPECT_EQ(w[3], 0u);
    EXPECT_EQ(w[4], 0xff4c0000u);
}

TEST(OpfPrime, RejectsBadU)
{
    EXPECT_DEATH(makeOpf(0, 144), "16-bit");
    EXPECT_DEATH(makeOpf(0x10000, 144), "16-bit");
}

TEST(OpfPrime, SearchFindsPaperPrime)
{
    Rng rng(16);
    // Searching down from 65356 must find 65356 itself.
    auto found = findOpfPrime(144, 65356, rng);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(found->u, 65356u);
}

TEST(OpfPrime, GlvPrimeHasRightCongruence)
{
    const OpfPrime &o = glvOpfPrime();
    EXPECT_EQ(o.p % BigUInt(3), BigUInt(1));
    EXPECT_EQ(o.u % 3, 0u);
    EXPECT_EQ(o.p.bitLength(), 160u);
    Rng rng(17);
    EXPECT_TRUE(isProbablePrime(o.p, rng));
}

// --- The kernel loops against their BigUInt references ---------------
//
// sqrtMod and isProbablePrime run on the three-limb Montgomery kernel
// (field/redc.hh). The references below are the same loops on
// BigUInt::mulMod/powMod. The curve set-up reads the roots and the Rng
// state after each call (which of r and p - r comes back depends on
// the non-residue drawn and on the loop's path), so every check
// compares the result and the next draw of the Rng afterwards.

namespace
{

std::optional<BigUInt>
refSqrtMod(const BigUInt &a_in, const BigUInt &p, Rng &rng)
{
    BigUInt a = a_in % p;
    if (a.isZero())
        return BigUInt(0);
    if (jacobi(a, p) != 1)
        return std::nullopt;

    if ((p.low32() & 3) == 3) {
        BigUInt e = (p + BigUInt(1)) >> 2;
        return a.powMod(e, p);
    }

    BigUInt pm1 = p - BigUInt(1);
    unsigned s = pm1.trailingZeros();
    BigUInt q = pm1 >> s;

    BigUInt z(2);
    while (jacobi(z, p) != -1)
        z = BigUInt(2) + BigUInt::random(rng, p - BigUInt(2));

    BigUInt c = z.powMod(q, p);
    BigUInt t = a.powMod(q, p);
    BigUInt r = a.powMod((q + BigUInt(1)) >> 1, p);
    unsigned m = s;

    while (!t.isOne()) {
        unsigned i = 0;
        BigUInt t2 = t;
        while (!t2.isOne()) {
            t2 = t2.mulMod(t2, p);
            i++;
            if (i == m)
                panic("refSqrtMod: non-residue slipped through");
        }
        BigUInt b = c;
        for (unsigned j = 0; j + i + 1 < m; j++)
            b = b.mulMod(b, p);
        m = i;
        c = b.mulMod(b, p);
        t = t.mulMod(c, p);
        r = r.mulMod(b, p);
    }
    return r;
}

bool
refIsProbablePrime(const BigUInt &n, Rng &rng, unsigned rounds = 40)
{
    if (n < BigUInt(2))
        return false;
    for (uint64_t small : {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
        BigUInt s(small);
        if (n == s)
            return true;
        if ((n % s).isZero())
            return false;
    }

    BigUInt nm1 = n - BigUInt(1);
    unsigned r = nm1.trailingZeros();
    BigUInt d = nm1 >> r;

    for (unsigned i = 0; i < rounds; i++) {
        BigUInt a = BigUInt(2) + BigUInt::random(rng, n - BigUInt(3));
        BigUInt x = a.powMod(d, n);
        if (x.isOne() || x == nm1)
            continue;
        bool composite = true;
        for (unsigned j = 0; j + 1 < r; j++) {
            x = x.mulMod(x, n);
            if (x == nm1) {
                composite = false;
                break;
            }
        }
        if (composite)
            return false;
    }
    return true;
}

/** Empty when sqrtMod(a, p) and its reference agree on the root and
 *  on the Rng's next draw; @p rng continues from after the call. */
std::string
sqrtMismatch(const BigUInt &a, const BigUInt &p, Rng &rng)
{
    Rng ref = rng;
    std::optional<BigUInt> want = refSqrtMod(a, p, ref);
    std::optional<BigUInt> got = sqrtMod(a, p, rng);
    std::string at = " at a=" + a.toHex() + " p=" + p.toHex();
    if (want.has_value() != got.has_value())
        return "residue verdict" + at;
    if (want && *want != *got)
        return "root " + got->toHex() + " != " + want->toHex() + at;
    Rng after = rng;
    if (after.next64() != ref.next64())
        return "Rng state" + at;
    return "";
}

/** The same for isProbablePrime(n). */
std::string
primeMismatch(const BigUInt &n, Rng &rng)
{
    Rng ref = rng;
    bool want = refIsProbablePrime(n, ref);
    bool got = isProbablePrime(n, rng);
    std::string at = " at n=" + n.toHex();
    if (want != got)
        return "verdict" + at;
    Rng after = rng;
    if (after.next64() != ref.next64())
        return "Rng state" + at;
    return "";
}

} // anonymous namespace

TEST(KernelVsBigUInt, SqrtEveryResidueModSmallPrimes)
{
    // High 2-adicity (97 = 3 * 2^5 + 1 up to 65537 = 2^16 + 1) runs the
    // full Tonelli-Shanks loop; p = 3 (mod 4) takes the one-power path.
    Rng rng(0x5a01);
    for (uint64_t p : {97u, 193u, 257u, 7681u, 12289u, 40961u, 65537u,
                       3u, 7u, 11u, 43u, 10007u}) {
        for (uint64_t a = 0; a < p; a++) {
            std::string bad = sqrtMismatch(BigUInt(a), BigUInt(p), rng);
            ASSERT_EQ(bad, "");
        }
        // Values at and above p reduce first.
        ASSERT_EQ(sqrtMismatch(BigUInt(p), BigUInt(p), rng), "");
        ASSERT_EQ(sqrtMismatch(BigUInt(3 * p + 2), BigUInt(p), rng), "");
    }
}

TEST(KernelVsBigUInt, SqrtRandomModCurvePrimesAndOrders)
{
    const BigUInt moduli[] = {
        paperOpfPrime().p,
        glvOpfPrimeUsed().p,
        Secp160r1Field::primeValue(),
        Secp160k1Field::primeValue(),
        secp160r1Generator().order,
        secp160k1Curve().order(),
        glvOpfCurve().order(),
    };
    Rng rng(0x5a02);
    for (const BigUInt &p : moduli) {
        for (int i = 0; i < 1000; i++) {
            std::string bad = sqrtMismatch(BigUInt::random(rng, p), p, rng);
            ASSERT_EQ(bad, "");
        }
    }
}

TEST(KernelVsBigUInt, MillerRabinKnownValues)
{
    Rng rng(0x5a03);
    std::vector<BigUInt> ns;
    for (uint64_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 9u, 11u, 13u, 15u,
                       37u, 41u, 91u, 97u, 341u, 561u, 1105u, 1729u,
                       2465u, 6601u, 65537u, 1000000007u, 1000000008u})
        ns.push_back(BigUInt(n));
    ns.push_back(BigUInt::powerOfTwo(127) - BigUInt(1));
    ns.push_back(BigUInt::powerOfTwo(128) + BigUInt(1));
    ns.push_back(paperOpfPrime().p);
    ns.push_back(BigUInt::powerOfTwo(192) - BigUInt::powerOfTwo(64) -
                 BigUInt(1));
    for (const BigUInt &n : ns)
        ASSERT_EQ(primeMismatch(n, rng), "");
}

TEST(KernelVsBigUInt, MillerRabinAtLimbBoundaries)
{
    // Every odd candidate from a random start up to the first prime,
    // on both sides of each 32- and 64-bit boundary: the composites
    // that pass trial division reach the rounds, and the primes run
    // all 40. Then every product of two of those primes that fits
    // 192 bits, which no trial division catches.
    Rng rng(0x5a04);
    std::vector<BigUInt> primes;
    for (unsigned bits : {8u, 31u, 32u, 33u, 63u, 64u, 65u, 96u, 127u,
                          128u, 129u, 159u, 160u, 161u, 191u, 192u}) {
        BigUInt n = BigUInt::randomBits(rng, bits - 1) +
                    BigUInt::powerOfTwo(bits - 1);
        if (!n.isOdd())
            n += BigUInt(1);
        for (;; n += BigUInt(2)) {
            ASSERT_EQ(primeMismatch(n, rng), "") << bits << " bits";
            Rng probe(n.low32());
            if (refIsProbablePrime(n, probe))
                break;
        }
        ASSERT_EQ(n.bitLength(), bits);
        primes.push_back(n);
    }
    for (size_t i = 0; i < primes.size(); i++) {
        for (size_t j = i + 1; j < primes.size(); j++) {
            BigUInt n = primes[i] * primes[j];
            if (n.bitLength() <= 192) {
                ASSERT_EQ(primeMismatch(n, rng), "") << n.toHex();
            }
        }
    }
}

TEST(KernelVsBigUInt, RejectsModuliOfTwoTo192OrMore)
{
    // 2^192 + 1 is odd and has no factor below 41, so both loops
    // reach the kernel, which holds only 192 bits.
    Rng rng(0x5a05);
    const BigUInt wide = BigUInt::powerOfTwo(192) + BigUInt(1);
    EXPECT_DEATH(sqrtMod(BigUInt(4), wide, rng), "193-bit modulus exceeds");
    EXPECT_DEATH(isProbablePrime(wide, rng), "193-bit modulus exceeds");
}
