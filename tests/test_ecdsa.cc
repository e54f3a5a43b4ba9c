/**
 * @file
 * ECDSA tests over the curves of the paper: the standardized
 * secp160r1/secp160k1 and the constructed GLV OPF curve (whose exact
 * order the CM machinery provides). On small curves, where every r
 * can be enumerated, verify is checked against a textbook reference:
 * affine mulBinary terms, an affine sum, x mod n == r and the n * Q
 * check.
 */

#include <gtest/gtest.h>

#include <vector>

#include "curves/ecdsa.hh"
#include "curves/small_curves.hh"
#include "curves/standard_curves.hh"
#include "curves/validate.hh"
#include "nt/primality.hh"

using namespace jaavr;

namespace
{

Ecdsa
secp160r1Ecdsa()
{
    return Ecdsa(secp160r1Curve(), secp160r1Generator().g,
                 secp160r1Generator().order);
}

// Known-answer input shared by the signWithNonce pins below.
const char *const kKatMessage = "known-answer message";
const BigUInt kKatD =
    BigUInt::fromHex("00c0ffee0123456789abcdef0123456789abcdef01");
const BigUInt kKatK =
    BigUInt::fromHex("0042424242deadbeefcafef00d1234567890abcdef");

void
expectOps(const FieldOpCounts &got, const FieldOpCounts &want)
{
    EXPECT_EQ(got.mul, want.mul);
    EXPECT_EQ(got.sqr, want.sqr);
    EXPECT_EQ(got.add, want.add);
    EXPECT_EQ(got.sub, want.sub);
    EXPECT_EQ(got.mulSmall, want.mulSmall);
    EXPECT_EQ(got.inv, want.inv);
}

/**
 * signWithNonce on (kKatMessage, kKatD, kKatK) against a pinned (r, s)
 * and the pinned base-field op counts of the whole call. The pins come
 * from the BigUInt reference arithmetic: the service and the
 * benchmark's golden signer share the Fe kernel, so only known answers
 * catch a kernel bug both would share, and equal op counts show every
 * algorithm (and so every hybrid row of Tables II/III) unchanged.
 */
void
expectSignPin(const Ecdsa &dsa, const char *r, const char *s,
              const FieldOpCounts &ops)
{
    FieldOpCounts got;
    dsa.curve().field().attachCounter(&got);
    auto sig = dsa.signWithNonce(kKatMessage, kKatD, kKatK);
    dsa.curve().field().attachCounter(nullptr);
    ASSERT_TRUE(sig.has_value());
    EXPECT_EQ(sig->r.toHex(), r);
    EXPECT_EQ(sig->s.toHex(), s);
    expectOps(got, ops);
}

/**
 * verify of the signWithNonce known answer against the pinned
 * base-field op counts of the verify call alone (the mod-n inverse of
 * s runs in the scalar field and is not counted here).
 */
void
expectVerifyPin(const Ecdsa &dsa, const FieldOpCounts &ops)
{
    auto sig = dsa.signWithNonce(kKatMessage, kKatD, kKatK);
    ASSERT_TRUE(sig.has_value());
    AffinePoint q = dsa.mulG(kKatD);
    FieldOpCounts got;
    dsa.curve().field().attachCounter(&got);
    bool ok = dsa.verify(kKatMessage, *sig, q);
    dsa.curve().field().attachCounter(nullptr);
    EXPECT_TRUE(ok);
    expectOps(got, ops);
}

} // anonymous namespace

TEST(EcdsaKnownAnswer, Secp160r1Naf)
{
    expectSignPin(secp160r1Ecdsa(), "41b1c475e612d155e4e835aad9ed6e0f7438479",
                  "89ef5bbcf4e4980b606f9936e305acb014fc570c",
                  {.mul = 806, .sqr = 979, .add = 1862, .sub = 1325,
                   .mulSmall = 0, .inv = 1});
}

TEST(EcdsaKnownAnswer, Secp160r1Comb)
{
    Ecdsa dsa = secp160r1Ecdsa();
    FixedBaseComb comb(secp160r1Curve(), dsa.generator(),
                       dsa.order().bitLength());
    dsa.attachFixedBase(&comb);
    expectSignPin(dsa, "41b1c475e612d155e4e835aad9ed6e0f7438479",
                  "89ef5bbcf4e4980b606f9936e305acb014fc570c",
                  {.mul = 161, .sqr = 111, .add = 180, .sub = 196,
                   .mulSmall = 0, .inv = 1});
}

TEST(EcdsaKnownAnswer, Secp160k1Comb)
{
    // The service's secp160k1 table (ServiceTables::build builds the
    // same comb from the same generator and order).
    Ecdsa dsa(secp160k1Curve());
    FixedBaseComb comb(secp160k1Curve(), dsa.generator(),
                       dsa.order().bitLength());
    dsa.attachFixedBase(&comb);
    expectSignPin(dsa, "e2744db4a8527f449b6f4dbf24d61c18ab5fd830",
                  "1121d06530e3ae967681c404320e2fb662af2ade",
                  {.mul = 155, .sqr = 111, .add = 174, .sub = 190,
                   .mulSmall = 0, .inv = 1});
}

TEST(EcdsaKnownAnswer, Secp160k1Glv)
{
    expectSignPin(Ecdsa(secp160k1Curve()),
                  "e2744db4a8527f449b6f4dbf24d61c18ab5fd830",
                  "1121d06530e3ae967681c404320e2fb662af2ade",
                  {.mul = 460, .sqr = 561, .add = 954, .sub = 750,
                   .mulSmall = 0, .inv = 3});
}

TEST(EcdsaKnownAnswer, GlvOpf)
{
    expectSignPin(Ecdsa(glvOpfCurve()),
                  "50701838758a3a77e09a4fe6f1b924e5ceaf880b",
                  "2d8945c70e013ccb9f87e5b868ff6d2a9d71d66a",
                  {.mul = 432, .sqr = 545, .add = 930, .sub = 714,
                   .mulSmall = 0, .inv = 3});
}

TEST(EcdsaKnownAnswer, Secp160r1NafVerify)
{
    expectVerifyPin(secp160r1Ecdsa(),
                    {.mul = 1685, .sqr = 2011, .add = 3809, .sub = 2740,
                     .mulSmall = 0, .inv = 0});
}

TEST(EcdsaKnownAnswer, Secp160r1CombVerify)
{
    Ecdsa dsa = secp160r1Ecdsa();
    FixedBaseComb comb(secp160r1Curve(), dsa.generator(),
                       dsa.order().bitLength());
    dsa.attachFixedBase(&comb);
    expectVerifyPin(dsa, {.mul = 995, .sqr = 1114, .add = 2081,
                          .sub = 1557, .mulSmall = 0, .inv = 0});
}

TEST(EcdsaKnownAnswer, Secp160k1CombVerify)
{
    // The path of every secp160k1 verify the service runs: u1 * G
    // from the comb, u2 * Q by GLV.
    Ecdsa dsa(secp160k1Curve());
    FixedBaseComb comb(secp160k1Curve(), dsa.generator(),
                       dsa.order().bitLength());
    dsa.attachFixedBase(&comb);
    expectVerifyPin(dsa, {.mul = 632, .sqr = 687, .add = 1150,
                          .sub = 967, .mulSmall = 0, .inv = 2});
}

TEST(EcdsaKnownAnswer, Secp160k1GlvVerify)
{
    expectVerifyPin(Ecdsa(secp160k1Curve()),
                    {.mul = 944, .sqr = 1141, .add = 1936, .sub = 1530,
                     .mulSmall = 0, .inv = 4});
}

TEST(EcdsaKnownAnswer, GlvOpfVerify)
{
    expectVerifyPin(Ecdsa(glvOpfCurve()),
                    {.mul = 949, .sqr = 1140, .add = 1933, .sub = 1530,
                     .mulSmall = 0, .inv = 4});
}

TEST(Ecdsa, SignVerifyRoundTripSecp160r1)
{
    Ecdsa dsa = secp160r1Ecdsa();
    Rng rng(120);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    for (int i = 0; i < 5; i++) {
        std::string msg = "sensor reading #" + std::to_string(i);
        EcdsaSignature sig = dsa.sign(msg, kp.d, rng);
        EXPECT_TRUE(dsa.verify(msg, sig, kp.q)) << msg;
    }
}

TEST(Ecdsa, SignVerifyRoundTripGlvOpf)
{
    Ecdsa dsa(glvOpfCurve());
    Rng rng(121);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("glv message", kp.d, rng);
    EXPECT_TRUE(dsa.verify("glv message", sig, kp.q));
}

TEST(Ecdsa, SignVerifyRoundTripSecp160k1)
{
    Ecdsa dsa(secp160k1Curve());
    Rng rng(122);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("k1 message", kp.d, rng);
    EXPECT_TRUE(dsa.verify("k1 message", sig, kp.q));
}

TEST(Ecdsa, WrongMessageRejected)
{
    Ecdsa dsa = secp160r1Ecdsa();
    Rng rng(123);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("original", kp.d, rng);
    EXPECT_FALSE(dsa.verify("tampered", sig, kp.q));
}

TEST(Ecdsa, WrongKeyRejected)
{
    Ecdsa dsa = secp160r1Ecdsa();
    Rng rng(124);
    EcdsaKeyPair kp1 = dsa.generateKey(rng);
    EcdsaKeyPair kp2 = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("msg", kp1.d, rng);
    EXPECT_FALSE(dsa.verify("msg", sig, kp2.q));
}

TEST(Ecdsa, MalformedSignatureRejected)
{
    Ecdsa dsa = secp160r1Ecdsa();
    Rng rng(125);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("msg", kp.d, rng);

    EcdsaSignature zero_r = sig;
    zero_r.r = BigUInt(0);
    EXPECT_FALSE(dsa.verify("msg", zero_r, kp.q));

    EcdsaSignature big_s = sig;
    big_s.s = dsa.order();
    EXPECT_FALSE(dsa.verify("msg", big_s, kp.q));

    EcdsaSignature big_r = sig;
    big_r.r = sig.r + dsa.order();
    EXPECT_FALSE(dsa.verify("msg", big_r, kp.q));
}

TEST(Ecdsa, NegatedSVerifies)
{
    // ECDSA malleability: (r, n - s) gives -R, which has the same X
    // and Z as R, so the Jacobian comparison (which never reads Y)
    // must accept it.
    Ecdsa r1 = secp160r1Ecdsa();
    Ecdsa k1(secp160k1Curve());
    Rng rng(129);
    for (const Ecdsa *dsa : {&r1, &k1}) {
        EcdsaKeyPair kp = dsa->generateKey(rng);
        EcdsaSignature sig = dsa->sign("malleable", kp.d, rng);
        EcdsaSignature negated{sig.r, dsa->order() - sig.s};
        EXPECT_TRUE(dsa->verify("malleable", negated, kp.q))
            << dsa->curve().name();
        EXPECT_FALSE(dsa->verify("other", negated, kp.q))
            << dsa->curve().name();
    }
}

TEST(Ecdsa, SignatureBitFlipsRejected)
{
    Ecdsa dsa = secp160r1Ecdsa();
    Rng rng(126);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("bit flip test", kp.d, rng);
    for (unsigned bit : {0u, 17u, 80u, 159u}) {
        EcdsaSignature bad = sig;
        BigUInt mask = BigUInt::powerOfTwo(bit);
        // XOR via add/sub on the bit.
        bad.s = bad.s.bit(bit) ? bad.s - mask : bad.s + mask;
        if (bad.s.isZero() || bad.s >= dsa.order())
            continue;
        EXPECT_FALSE(dsa.verify("bit flip test", bad, kp.q)) << bit;
    }
}

TEST(Ecdsa, OffCurvePublicKeyRejected)
{
    Ecdsa dsa = secp160r1Ecdsa();
    Rng rng(127);
    EcdsaKeyPair kp = dsa.generateKey(rng);
    EcdsaSignature sig = dsa.sign("msg", kp.d, rng);
    AffinePoint bogus(kp.q.x, secp160r1Field().add(kp.q.y, BigUInt(1)));
    EXPECT_FALSE(dsa.verify("msg", sig, bogus));
}

TEST(Ecdsa, ConstructorRejectsWrongOrder)
{
    // n + 2 is odd, so the scalar field accepts it; n + 2 times G is
    // 2G, not O. (The GLV constructor takes n from a GlvCurve, whose
    // own constructor checks it: GlvCurveChecks.* in test_glv.cc.)
    const CurveGenerator &gen = secp160r1Generator();
    EXPECT_DEATH(Ecdsa(secp160r1Curve(), gen.g, gen.order + BigUInt(2)),
                 "invalid generator");
    AffinePoint off(gen.g.x, secp160r1Field().add(gen.g.y, BigUInt(1)));
    EXPECT_DEATH(Ecdsa(secp160r1Curve(), off, gen.order),
                 "invalid generator");
}

TEST(Ecdsa, GlvAndNafSignaturesInteroperate)
{
    // A signature produced with the endomorphism-accelerated signer
    // verifies with the plain-NAF verifier and vice versa.
    const GlvCurve &c = secp160k1Curve();
    Ecdsa fast(c);
    Ecdsa plain(c, c.generator(), c.order());
    Rng rng(128);
    EcdsaKeyPair kp = fast.generateKey(rng);
    EcdsaSignature sig = fast.sign("interop", kp.d, rng);
    EXPECT_TRUE(plain.verify("interop", sig, kp.q));
    EcdsaSignature sig2 = plain.sign("interop2", kp.d, rng);
    EXPECT_TRUE(fast.verify("interop2", sig2, kp.q));
}

namespace
{

/** Textbook affine P + Q on @p c (chord and tangent). */
AffinePoint
affineAdd(const WeierstrassCurve &c, const AffinePoint &p,
          const AffinePoint &q)
{
    if (p.inf)
        return q;
    if (q.inf)
        return p;
    const PrimeField &f = c.field();
    BigUInt lambda;
    if (p.x == q.x) {
        if (f.add(p.y, q.y).isZero())
            return AffinePoint::infinity();
        BigUInt num = f.add(f.mulSmall(f.sqr(p.x), 3), c.coeffA());
        lambda = f.mul(num, f.inv(f.add(p.y, p.y)));
    } else {
        lambda = f.mul(f.sub(q.y, p.y), f.inv(f.sub(q.x, p.x)));
    }
    BigUInt x3 = f.sub(f.sub(f.sqr(lambda), p.x), q.x);
    BigUInt y3 = f.sub(f.mul(lambda, f.sub(p.x, x3)), p.y);
    return AffinePoint(x3, y3);
}

/** SEC 1 verification as written, with none of verify's shortcuts. */
bool
referenceVerify(const Ecdsa &dsa, const std::string &message,
                const EcdsaSignature &sig, const AffinePoint &q)
{
    const WeierstrassCurve &c = dsa.curve();
    const BigUInt &n = dsa.order();
    const BigUInt &p = c.field().modulus();
    if (!validScalar(sig.r, n) || !validScalar(sig.s, n))
        return false;
    if (q.inf || !(q.x < p) || !(q.y < p) || !c.onCurve(q) ||
        !c.mulBinary(n, q).inf)
        return false;
    PrimeField fn(n);
    BigUInt w = fn.inv(sig.s);
    BigUInt u1 = fn.mul(dsa.hashToScalar(message), w);
    BigUInt u2 = fn.mul(sig.r, w);
    AffinePoint rp = affineAdd(c, c.mulBinary(u1, dsa.generator()),
                               c.mulBinary(u2, q));
    return !rp.inf && rp.x % n == sig.r;
}

/** Every r in [first, last) with @p s and @p q: verify == reference.
 *  Returns how many were accepted. */
unsigned
sweepR(const Ecdsa &dsa, const std::string &message, const BigUInt &s,
       const AffinePoint &q, uint64_t first, uint64_t last)
{
    unsigned accepted = 0;
    unsigned mismatches = 0;
    for (uint64_t r = first; r < last; r++) {
        EcdsaSignature sig{BigUInt(r), s};
        bool got = dsa.verify(message, sig, q);
        bool want = referenceVerify(dsa, message, sig, q);
        if (got != want && mismatches++ == 0)
            ADD_FAILURE() << message << ": r = " << r << " verify " << got
                          << ", reference " << want;
        accepted += want;
    }
    EXPECT_EQ(mismatches, 0u) << message;
    return accepted;
}

/**
 * The first k >= 1 whose x(kG) satisfies @p pick and whose signature
 * on @p message exists; nullopt when no k in [1, n) qualifies.
 */
template <typename Pick>
std::optional<BigUInt>
findNonce(const Ecdsa &dsa, const std::string &message, const BigUInt &d,
          Pick pick)
{
    for (BigUInt k(1); k < dsa.order(); k += BigUInt(1)) {
        AffinePoint r = dsa.mulG(k);
        if (!r.inf && pick(r.x) && dsa.signWithNonce(message, d, k))
            return k;
    }
    return std::nullopt;
}

/**
 * A prime-order curve y^2 = x^3 - 3x + b over F_10007 with n > p (so
 * r in [p, n) is a legal signature component), found by counting
 * points with a table of squares: the smallest b whose order is a
 * prime at least p + 40, leaving room for the forgery test below.
 */
struct PrimeOrderCurve
{
    PrimeField field{BigUInt(10007)};
    std::optional<WeierstrassCurve> curve;
    BigUInt n;
    AffinePoint g;

    PrimeOrderCurve()
    {
        const uint64_t p = 10007;
        const uint64_t a = p - 3;
        std::vector<bool> square(p, false);
        for (uint64_t y = 1; y < p; y++)
            square[y * y % p] = true;
        auto isPrime = [](uint64_t v) {
            for (uint64_t d = 2; d * d <= v; d++)
                if (v % d == 0)
                    return false;
            return v > 1;
        };
        for (uint64_t b = 1; b < p; b++) {
            uint64_t disc = (4 * (a * a % p * a % p) + 27 * (b * b % p)) % p;
            if (disc == 0)
                continue;
            uint64_t count = 1;
            for (uint64_t x = 0; x < p; x++) {
                uint64_t rhs = (x * x % p * x + a * x + b) % p;
                count += rhs == 0 ? 1 : square[rhs] ? 2 : 0;
            }
            if (count < p + 40 || !isPrime(count))
                continue;
            curve.emplace(field, BigUInt(a), BigUInt(b), "prime-order-10007");
            n = BigUInt(count);
            Rng rng(5);
            for (uint64_t x = 0;; x++)
                if (auto pt = curve->liftX(BigUInt(x), rng)) {
                    g = *pt;
                    return;
                }
        }
    }
};

const PrimeOrderCurve &
primeOrderCurve()
{
    static const PrimeOrderCurve c;
    return c;
}

} // anonymous namespace

TEST(EcdsaReference, SmallPairExhaustiveR)
{
    // Cofactor 4 or 8 and p > 4n: verify keeps the n * Q product, and
    // x(R) = r + j n runs up to j = 4. One valid signature per j in
    // 0..3, each with every r in [1, n) tried against the reference.
    const SmallCurvePair &pair = smallCurvePair();
    WeierstrassCurve w = pair.montgomery.toWeierstrass();
    Ecdsa dsa(w, pair.montgomery.mapToWeierstrass(pair.montBase), pair.n);
    ASSERT_FALSE(hasseProvesCofactorOne(w.field().modulus(), pair.n));
    ASSERT_GT(w.field().modulus(), pair.n * BigUInt(4));

    for (uint64_t j = 0; j < 4; j++) {
        std::string msg = "small pair j=" + std::to_string(j);
        BigUInt d(1234 + 321 * j);
        AffinePoint q = dsa.mulG(d);
        BigUInt lo = pair.n * BigUInt(j);
        BigUInt hi = lo + pair.n;
        auto k = findNonce(dsa, msg, d, [&](const BigUInt &x) {
            return x >= lo && x < hi;
        });
        ASSERT_TRUE(k.has_value()) << msg;
        EcdsaSignature sig = *dsa.signWithNonce(msg, d, *k);
        ASSERT_TRUE(dsa.verify(msg, sig, q)) << msg;
        EXPECT_GE(sweepR(dsa, msg, sig.s, q, 1, pair.n.limb(0)), 1u) << msg;
    }
}

TEST(EcdsaReference, PrimeOrderCurveWithNAboveP)
{
    const PrimeOrderCurve &po = primeOrderCurve();
    ASSERT_TRUE(po.curve.has_value());
    const BigUInt &p = po.field.modulus();
    Rng rng(3);
    ASSERT_TRUE(isProbablePrime(po.n, rng));
    ASSERT_GT(po.n, p);
    // The cofactor rule applies, so verify skips the n * Q product
    // that the reference still computes.
    ASSERT_TRUE(hasseProvesCofactorOne(p, po.n));
    Ecdsa dsa(*po.curve, po.g, po.n);

    for (int i = 0; i < 3; i++) {
        std::string msg = "prime order #" + std::to_string(i);
        BigUInt d(555 + 1111 * i);
        AffinePoint q = dsa.mulG(d);
        EcdsaSignature sig = dsa.sign(msg, d, rng);
        ASSERT_TRUE(dsa.verify(msg, sig, q)) << msg;
        // r in [p, n) never equals an x-coordinate: all rejected.
        EXPECT_EQ(sweepR(dsa, msg, sig.s, q, p.limb(0), po.n.limb(0)), 0u);
    }
    // One full sweep of r, to see the accepted r among the rejected.
    BigUInt d(777);
    AffinePoint q = dsa.mulG(d);
    EcdsaSignature sig = dsa.sign("prime order sweep", d, rng);
    EXPECT_GE(sweepR(dsa, "prime order sweep", sig.s, q, 1, po.n.limb(0)),
              1u);
}

TEST(EcdsaReference, ForgeryWithRAbovePRejected)
{
    // R = kG with x(kG) < n - p and r' = x(kG) + p in [p, n): s is
    // honest for r', so R comes out as kG and x(R) == r' (mod p). A
    // comparison that reduced r' mod p would accept it.
    const PrimeOrderCurve &po = primeOrderCurve();
    ASSERT_TRUE(po.curve.has_value());
    const BigUInt &p = po.field.modulus();
    Ecdsa dsa(*po.curve, po.g, po.n);
    const PrimeField &fn = dsa.scalarField();

    BigUInt d(4242);
    AffinePoint q = dsa.mulG(d);
    const std::string msg = "forged";
    BigUInt e = dsa.hashToScalar(msg);
    unsigned forged = 0;
    for (BigUInt k(1); k < po.n && forged < 4; k += BigUInt(1)) {
        AffinePoint kg = dsa.mulG(k);
        if (kg.inf || !(kg.x + p < po.n))
            continue;
        BigUInt r = kg.x + p;
        BigUInt s = fn.mul(fn.add(e, fn.mul(r, d)), fn.inv(k));
        if (s.isZero())
            continue;
        EcdsaSignature sig{r, s};
        // The premise: R is kG, whose x agrees with r' mod p.
        BigUInt w = fn.inv(s);
        AffinePoint rp =
            affineAdd(*po.curve, po.curve->mulBinary(fn.mul(e, w), po.g),
                      po.curve->mulBinary(fn.mul(r, w), q));
        ASSERT_EQ(rp.x, kg.x);
        EXPECT_FALSE(dsa.verify(msg, sig, q)) << "k = " << k.toHex();
        EXPECT_FALSE(referenceVerify(dsa, msg, sig, q));
        forged++;
    }
    EXPECT_EQ(forged, 4u);
}
