/**
 * @file
 * ECDSA tests over the curves of the paper: the standardized
 * secp160r1/secp160k1 and the constructed GLV OPF curve (whose exact
 * order the CM machinery provides).
 */

#include <gtest/gtest.h>

#include "curves/ecdsa.hh"
#include "curves/standard_curves.hh"

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
                       dsa.order().bitLength(), 5);
    dsa.attachFixedBase(&comb);
    expectSignPin(dsa, "41b1c475e612d155e4e835aad9ed6e0f7438479",
                  "89ef5bbcf4e4980b606f9936e305acb014fc570c",
                  {.mul = 323, .sqr = 289, .add = 512, .sub = 448,
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

    EcdsaSignature flipped = sig;
    flipped.s = dsa.order() - sig.s;  // valid for -R: wrong here
    EXPECT_FALSE(flipped.s == sig.s);
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
