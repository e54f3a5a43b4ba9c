/**
 * @file
 * The x-only Montgomery ladder (curves/ladder.hh).
 *
 * SmallPairLadder: an exhaustive oracle on the small curve pair
 * (curves/small_curves.hh). For a point of every order the ladder's
 * domain holds and every scalar up to twice that order, x(k P) from
 * the ladder equals x(k P) from adding P k times on the Weierstrass
 * image with the textbook affine chord-and-tangent rule
 * (affine_oracle.hh).
 *
 * LadderPattern: the ladder's sequence of field operations does not
 * depend on the key, neither as recorded from the template nor as
 * counted on the curve.
 */

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "affine_oracle.hh"
#include "curves/ladder.hh"
#include "curves/small_curves.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"

using namespace jaavr;

namespace
{

/**
 * Montgomery x of 0 P, P, 2 P, ..., @p kmax P (nullopt for the point
 * at infinity), one addition of P per scalar on the Weierstrass image.
 */
std::vector<std::optional<BigUInt>>
xOfMultiples(const MontgomeryCurve &c, const WeierstrassCurve &w,
             const AffinePoint &p, uint64_t kmax)
{
    const PrimeField &f = c.field();
    // mapFromWeierstrass's x = B x_w - A / 3, with A / 3 hoisted.
    BigUInt aThird = f.mul(c.coeffA(), f.inv(BigUInt(3)));
    AffinePoint pw = c.mapToWeierstrass(p);
    AffinePoint acc = AffinePoint::infinity();
    std::vector<std::optional<BigUInt>> xs;
    for (uint64_t k = 0; k <= kmax; k++) {
        if (acc.inf)
            xs.push_back(std::nullopt);
        else
            xs.push_back(f.sub(f.mul(acc.x, c.coeffB()), aThird));
        acc = addAffine(w, acc, pw);
    }
    return xs;
}

/** The primes dividing @p v, by trial division. */
std::vector<uint64_t>
primeFactors(uint64_t v)
{
    std::vector<uint64_t> ps;
    for (uint64_t q = 2; q * q <= v; q++) {
        if (v % q == 0)
            ps.push_back(q);
        while (v % q == 0)
            v /= q;
    }
    if (v > 1)
        ps.push_back(v);
    return ps;
}

/** One ladder operation: its kind, input slots and output slot. */
struct Rec
{
    enum Kind : char { Add, Sub, Mul, Sqr, MulA24, Cswap } kind;
    int in0, in1, out;

    bool operator==(const Rec &) const = default;
};

/**
 * Ladder arithmetic whose element is a slot id: every operation logs
 * itself and writes a fresh slot. cswap logs the two slots it swaps
 * in place, never the bit.
 */
struct RecordingOps
{
    std::vector<Rec> &log;
    int next;

    int
    op(Rec::Kind kind, int a, int b)
    {
        log.push_back({kind, a, b, next});
        return next++;
    }

    int add(int a, int b) { return op(Rec::Add, a, b); }
    int sub(int a, int b) { return op(Rec::Sub, a, b); }
    int mul(int a, int b) { return op(Rec::Mul, a, b); }
    int sqr(int a) { return op(Rec::Sqr, a, -1); }
    int mulA24(int a) { return op(Rec::MulA24, a, -1); }
    void
    cswap(unsigned, int &a, int &b)
    {
        log.push_back({Rec::Cswap, a, b, -1});
    }
};

/** The operations montLadder runs for the top @p kbits bits of @p k. */
std::vector<Rec>
record(const BigUInt &k, unsigned kbits)
{
    // Slots 0-3 hold the start state, slot 4 the difference's x.
    std::vector<Rec> log;
    montLadder(RecordingOps{log, 5}, 4, LadderState<int>{0, 1, 2, 3}, k,
               kbits, [](unsigned, const LadderState<int> &) { return true; });
    return log;
}

auto
counts(const FieldOpCounts &c)
{
    return std::tuple(c.mul, c.sqr, c.add, c.sub, c.mulSmall, c.inv);
}

} // anonymous namespace

TEST(LadderPattern, SameOperationsForEveryScalar)
{
    const std::vector<Rec> ref12 = record(BigUInt(0), 12);
    // 18 field operations and 2 swaps per step, 2 final swaps.
    EXPECT_EQ(ref12.size(), 12u * 20 + 2);
    for (uint64_t k = 1; k < 4096; k++)
        ASSERT_EQ(record(BigUInt(k), 12), ref12) << "k = " << k;

    const std::vector<Rec> ref160 = record(BigUInt(0), 160);
    Rng rng(0x5107);
    for (int i = 0; i < 64; i++) {
        BigUInt k = BigUInt::randomBits(rng, 160);
        ASSERT_EQ(record(k, 160), ref160) << k.toHex();
    }
}

TEST(LadderPattern, CurveCountsIndependentOfScalar)
{
    // MontgomeryCurve::ladder on the OPF curve, one scalar of every
    // bit length below 2^160.
    const MontgomeryCurve &c = montgomeryOpfCurve();
    const BigUInt x = montgomeryOpfBasePoint().x;
    auto ladderCounts = [&](const BigUInt &k) {
        FieldOpCounts got;
        c.field().attachCounter(&got);
        EXPECT_TRUE(c.ladder(k, x).has_value());
        c.field().attachCounter(nullptr);
        return counts(got);
    };
    const auto ref = ladderCounts(BigUInt(1));
    Rng rng(0xc0de);
    for (unsigned bits = 2; bits <= 160; bits++) {
        BigUInt k = BigUInt::powerOfTwo(bits - 1) +
                    BigUInt::randomBits(rng, bits - 1);
        ASSERT_EQ(ladderCounts(k), ref) << "bits = " << bits;
    }

    // Both blinded passes of hardenedMulMontgomery on the small pair,
    // every scalar.
    const SmallCurvePair &pair = smallCurvePair();
    const PrimeField &f = pair.field;
    auto hardenedCounts = [&](uint64_t k) {
        FieldOpCounts got;
        f.attachCounter(&got);
        EXPECT_TRUE(hardenedMulMontgomery(pair.montgomery, BigUInt(k),
                                          pair.montBase.x, pair.n, &rng)
                        .ok);
        f.attachCounter(nullptr);
        return counts(got);
    };
    const auto refHardened = hardenedCounts(1);
    for (uint64_t k = 2; k < pair.n.toUint64(); k++)
        ASSERT_EQ(hardenedCounts(k), refHardened) << "k = " << k;
}

TEST(SmallPairLadder, EveryOrderEveryScalarMatchesRepeatedAddition)
{
    const SmallCurvePair &pair = smallCurvePair();
    const MontgomeryCurve &c = pair.montgomery;
    const PrimeField &f = pair.field;
    WeierstrassCurve w = c.toWeierstrass();
    const uint64_t order = pair.groupOrder.toUint64();

    // A^2 - 4 is a non-square, so (0, 0) is the only point of order 2
    // and the group is cyclic: a point G of order #E gives one point
    // (#E / d) G of every order d dividing #E.
    ASSERT_FALSE(f.isSquare(f.sub(f.sqr(c.coeffA()), BigUInt(4))));
    Rng rng(0x0dde);
    AffinePoint gw;
    for (bool full = false; !full;) {
        gw = c.mapToWeierstrass(c.randomPoint(rng));
        full = true;
        for (uint64_t q : primeFactors(order))
            full = full && !w.mulBinary(BigUInt(order / q), gw).inf;
    }

    // x = 0, the order-2 point, lies outside the ladder's domain; so
    // does the point at infinity (order 1).
    std::map<uint64_t, AffinePoint> byOrder;
    for (uint64_t d = 2; d <= order; d++) {
        if (order % d != 0)
            continue;
        AffinePoint q =
            c.mapFromWeierstrass(w.mulBinary(BigUInt(order / d), gw));
        if (!q.x.isZero())
            byOrder.emplace(d, q);
    }
    std::vector<uint64_t> orders;
    for (const auto &[d, q] : byOrder)
        orders.push_back(d);
    const uint64_t n = pair.n.toUint64();
    EXPECT_EQ(orders,
              (std::vector<uint64_t>{4, n, 2 * n, 4 * n}));

    for (const auto &[d, q] : byOrder) {
        std::vector<std::optional<BigUInt>> want =
            xOfMultiples(c, w, q, 2 * d);
        for (uint64_t k = 0; k <= 2 * d; k++) {
            ASSERT_EQ(c.ladder(BigUInt(k), q.x), want[k])
                << "order " << d << ", k = " << k;
        }
    }
}

TEST(SmallPairLadder, BlindedAndHardenedPassesMatchRepeatedAddition)
{
    const SmallCurvePair &pair = smallCurvePair();
    const MontgomeryCurve &c = pair.montgomery;
    WeierstrassCurve w = c.toWeierstrass();
    const BigUInt &x = pair.montBase.x;
    const uint64_t n = pair.n.toUint64();
    std::vector<std::optional<BigUInt>> want =
        xOfMultiples(c, w, pair.montBase, 2 * n);

    // Two different blinds on the base point; the blind cancels in
    // the final X/Z division.
    const BigUInt b1(2), b2 = pair.field.modulus() - BigUInt(3);
    for (uint64_t k = 0; k <= 2 * n; k++) {
        ASSERT_EQ(c.ladder(BigUInt(k), x, &b1), want[k]) << "k = " << k;
        ASSERT_EQ(c.ladder(BigUInt(k), x, &b2), want[k]) << "k = " << k;
    }

    // Both hardened passes, each with its own random blind.
    Rng rng(0xb11d);
    for (uint64_t k = 1; k < n; k++) {
        HardenedMul h =
            hardenedMulMontgomery(c, BigUInt(k), x, pair.n, &rng);
        ASSERT_TRUE(h.ok) << h.reason << ", k = " << k;
        ASSERT_EQ(h.x, want[k]) << "k = " << k;
    }
}
