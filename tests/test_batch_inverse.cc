/**
 * @file
 * The shared Montgomery simultaneous-inversion driver: agreement
 * with one-at-a-time PrimeField::inv across sizes (empty, single,
 * odd, large), zero passthrough in every position, the return count
 * contract, and the cost: one inversion plus 3(m-1) multiplications
 * for m nonzero elements, so a batch of one is one inversion and a
 * one-point toAffineBatchFe is a toAffineFe.
 */

#include <gtest/gtest.h>

#include "curves/standard_curves.hh"
#include "field/batch_inverse.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

PrimeField
testField()
{
    // secp160r1's prime: large enough to be representative, cheap to
    // construct (no reduction specialization needed here).
    return PrimeField(
        BigUInt::fromHex("ffffffffffffffffffffffffffffffff7fffffff"));
}

std::vector<BigUInt>
randomElems(const PrimeField &f, Rng &rng, size_t n)
{
    std::vector<BigUInt> v;
    v.reserve(n);
    for (size_t i = 0; i < n; i++) {
        BigUInt x = f.random(rng);
        if (x.isZero())
            x = BigUInt(1);
        v.push_back(x);
    }
    return v;
}

} // namespace

TEST(BatchInverse, EmptyAndSingle)
{
    PrimeField f = testField();
    std::vector<BigUInt> none;
    EXPECT_EQ(invBatch(f, none), 0u);
    EXPECT_TRUE(none.empty());

    std::vector<BigUInt> one{BigUInt(7)};
    EXPECT_EQ(invBatch(f, one), 1u);
    EXPECT_EQ(one[0], f.inv(BigUInt(7)));

    // A lone nonzero element, alone or among zeros, costs exactly one
    // inversion and no multiplication.
    const Fe seven = f.fromBig(BigUInt(7));
    const Fe want = f.inv(seven);
    for (size_t zeros : {0u, 4u}) {
        std::vector<Fe> elems(zeros + 1);
        elems[zeros / 2] = seven;
        FieldOpCounts c;
        f.attachCounter(&c);
        EXPECT_EQ(invBatch(f, elems), 1u);
        f.attachCounter(nullptr);
        EXPECT_EQ(c.inv, 1u) << zeros << " zeros";
        EXPECT_EQ(c.mul, 0u) << zeros << " zeros";
        for (size_t i = 0; i < elems.size(); i++)
            EXPECT_EQ(elems[i], i == zeros / 2 ? want : Fe{});
    }

    // So the batched affine conversion of one point is the single-call
    // one, in value and in field operations.
    const WeierstrassCurve &c = secp160r1Curve();
    JacobianPoint p =
        c.mulNafJacobian(BigUInt(20220408), secp160r1Generator().g);
    FieldOpCounts single, batch;
    c.field().attachCounter(&single);
    AffineFe one_fe = c.toAffineFe(p);
    c.field().attachCounter(&batch);
    std::vector<AffineFe> batch_fe = c.toAffineBatchFe({p});
    c.field().attachCounter(nullptr);
    ASSERT_EQ(batch_fe.size(), 1u);
    EXPECT_FALSE(batch_fe[0].inf);
    EXPECT_EQ(batch_fe[0].x, one_fe.x);
    EXPECT_EQ(batch_fe[0].y, one_fe.y);
    EXPECT_EQ(batch.mul, single.mul);
    EXPECT_EQ(batch.sqr, single.sqr);
    EXPECT_EQ(batch.add, single.add);
    EXPECT_EQ(batch.sub, single.sub);
    EXPECT_EQ(batch.inv, single.inv);
    EXPECT_EQ(batch.inv, 1u);
}

TEST(BatchInverse, MatchesSingleInversions)
{
    PrimeField f = testField();
    Rng rng(42);
    for (size_t n : {2u, 3u, 7u, 64u, 257u}) {
        std::vector<BigUInt> elems = randomElems(f, rng, n);
        std::vector<BigUInt> expect;
        expect.reserve(n);
        for (const BigUInt &x : elems)
            expect.push_back(f.inv(x));
        EXPECT_EQ(invBatch(f, elems), n);
        EXPECT_EQ(elems, expect);
    }
}

TEST(BatchInverse, ZeroPassthrough)
{
    PrimeField f = testField();
    Rng rng(43);
    // A zero in every position of a small batch, plus all-zero.
    for (size_t zero_at = 0; zero_at < 5; zero_at++) {
        std::vector<BigUInt> elems = randomElems(f, rng, 5);
        elems[zero_at] = BigUInt(0);
        std::vector<BigUInt> expect;
        for (const BigUInt &x : elems)
            expect.push_back(x.isZero() ? BigUInt(0) : f.inv(x));
        EXPECT_EQ(invBatch(f, elems), 4u);
        EXPECT_EQ(elems, expect);
    }

    // Four nonzero elements cost one inversion and 3 * (4 - 1)
    // multiplications, whichever slot holds the zero.
    for (size_t zero_at = 0; zero_at < 5; zero_at++) {
        std::vector<Fe> elems;
        for (uint64_t v = 2; v < 7; v++)
            elems.push_back(f.fromBig(BigUInt(v)));
        elems[zero_at] = Fe{};
        FieldOpCounts c;
        f.attachCounter(&c);
        EXPECT_EQ(invBatch(f, elems), 4u);
        f.attachCounter(nullptr);
        EXPECT_EQ(c.inv, 1u) << "zero at " << zero_at;
        EXPECT_EQ(c.mul, 9u) << "zero at " << zero_at;
    }

    std::vector<BigUInt> zeros(3, BigUInt(0));
    EXPECT_EQ(invBatch(f, zeros), 0u);
    for (const BigUInt &x : zeros)
        EXPECT_TRUE(x.isZero());
}

TEST(BatchInverse, ZeroHeavyLargeBatch)
{
    PrimeField f = testField();
    Rng rng(44);
    std::vector<BigUInt> elems = randomElems(f, rng, 100);
    size_t zeros = 0;
    for (size_t i = 0; i < elems.size(); i += 3) {
        elems[i] = BigUInt(0);
        zeros++;
    }
    std::vector<BigUInt> expect;
    for (const BigUInt &x : elems)
        expect.push_back(x.isZero() ? BigUInt(0) : f.inv(x));
    EXPECT_EQ(invBatch(f, elems), elems.size() - zeros);
    EXPECT_EQ(elems, expect);
}

TEST(BatchInverse, ProductIsOneInBothDirections)
{
    // x * invBatch(x) == 1 for mixed small/large values, including
    // p - 1 (its own inverse) and 1.
    PrimeField f = testField();
    std::vector<BigUInt> elems{BigUInt(1), BigUInt(2),
                               f.modulus() - BigUInt(1),
                               f.modulus() - BigUInt(2), BigUInt(12345)};
    std::vector<BigUInt> orig = elems;
    EXPECT_EQ(invBatch(f, elems), elems.size());
    for (size_t i = 0; i < elems.size(); i++)
        EXPECT_TRUE(f.mul(orig[i], elems[i]) == BigUInt(1));
}
