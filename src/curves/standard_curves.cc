#include "curves/standard_curves.hh"

#include <memory>

#include "nt/opf_prime.hh"
#include "nt/primality.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

// SEC2 v1 constants for secp160r1.
const char *kR1B = "1c97befc54bd7a8b65acf89f81d4d4adc565fa45";
const char *kR1Gx = "4a96b5688ef573284664698968c38bb913cbfc82";
const char *kR1Gy = "23a628553168947d59dcc912042351377ac5fb32";
const char *kR1N = "0100000000000000000001f4c8f927aed3ca752257";

// SEC2 v1 constants for secp160k1 (a = 0, b = 7).
const char *kK1Gx = "3b4c382ce37aa192a4019e763036f4f5dd4d7ebb";
const char *kK1Gy = "938cf935318fdced6bc28286531733c3f03c4fee";
const char *kK1N = "0100000000000000000001b8fa16dfab9aca16b6b3";

/**
 * Smallest A = 2 (mod 4), A >= 6, whose Edwards twin coefficient
 * d = (2-A)/(A+2) is a non-square over the paper OPF field (required
 * for a complete Edwards addition law).
 */
uint32_t
selectMontgomeryA()
{
    const PrimeField &f = paperOpfField();
    for (uint32_t a = 6; a < 4096; a += 4) {
        BigUInt d = f.mul(f.sub(f.fromUint(2), f.fromUint(a)),
                          f.inv(f.fromUint(a + 2)));
        if (!f.isSquare(d))
            return a;
    }
    panic("selectMontgomeryA: no suitable A found");
}

} // anonymous namespace

const PrimeField &
paperOpfField()
{
    static const PrimeField f(paperOpfPrime().p);
    return f;
}

namespace
{

/**
 * The GLV OPF instance: searches 160-bit OPF primes p = u * 2^144 + 1
 * with u = 0 (mod 3) (so p = 1 mod 3) until one of the six CM twist
 * orders is (cofactor <= 8) times a prime, then fixes the smallest
 * matching b. Deterministic, so every binary lands on the same curve.
 */
struct GlvOpfInstance
{
    GlvOpfInstance()
    {
        Rng rng(0x61f61);
        for (uint32_t u = 0xffff;; u--) {
            if (u % 3 != 0)
                continue;
            if (u < 0x8000)
                panic("GlvOpfInstance: prime search exhausted");
            OpfPrime cand = makeOpf(u, 144);
            if (!isProbablePrime(cand.p, rng))
                continue;
            auto f = std::make_unique<PrimeField>(cand.p);
            auto prm = GlvCurve::tryConstruct(*f, rng);
            if (!prm)
                continue;
            prime = cand;
            field = std::move(f);
            curve = std::make_unique<GlvCurve>(*field, *prm, "glv-opf160");
            return;
        }
    }

    OpfPrime prime;
    std::unique_ptr<PrimeField> field;
    std::unique_ptr<GlvCurve> curve;
};

const GlvOpfInstance &
glvOpfInstance()
{
    static const GlvOpfInstance inst;
    return inst;
}

} // anonymous namespace

const PrimeField &
glvOpfField()
{
    return *glvOpfInstance().field;
}

const OpfPrime &
glvOpfPrimeUsed()
{
    return glvOpfInstance().prime;
}

const Secp160r1Field &
secp160r1Field()
{
    static const Secp160r1Field f;
    return f;
}

const Secp160k1Field &
secp160k1Field()
{
    static const Secp160k1Field f;
    return f;
}

const WeierstrassCurve &
secp160r1Curve()
{
    static const WeierstrassCurve curve(
        secp160r1Field(),
        secp160r1Field().modulus() - BigUInt(3),
        BigUInt::fromHex(kR1B),
        "secp160r1");
    return curve;
}

const CurveGenerator &
secp160r1Generator()
{
    static const CurveGenerator gen = [] {
        CurveGenerator g;
        g.g = AffinePoint(BigUInt::fromHex(kR1Gx), BigUInt::fromHex(kR1Gy));
        g.order = BigUInt::fromHex(kR1N);
        g.cofactor = BigUInt(1);
        if (!secp160r1Curve().onCurve(g.g))
            panic("secp160r1 generator not on curve");
        if (!secp160r1Curve().mulBinary(g.order, g.g).inf)
            panic("secp160r1 generator order mismatch");
        return g;
    }();
    return gen;
}

const GlvCurve &
secp160k1Curve()
{
    static const GlvCurve curve = [] {
        const Secp160k1Field &f = secp160k1Field();
        GlvParams prm;
        prm.b = BigUInt(7);
        prm.gx = BigUInt::fromHex(kK1Gx);
        prm.gy = BigUInt::fromHex(kK1Gy);
        prm.order = BigUInt::fromHex(kK1N);
        prm.cofactor = BigUInt(1);
        // Each root draws from its own Rng(0xc0be).
        Rng betaRng(0xc0be), lambdaRng(0xc0be);
        prm.beta = cubeRootOfUnity(f.modulus(), betaRng);
        BigUInt lam = cubeRootOfUnity(prm.order, lambdaRng);
        // Match the eigenvalue to beta on the published generator.
        WeierstrassCurve w(f, BigUInt(0), prm.b, "secp160k1-probe");
        prm.lambda = matchGlvEigenvalue(w, prm.beta, lam,
                                        AffinePoint(prm.gx, prm.gy),
                                        prm.order);
        return GlvCurve(f, prm, "secp160k1");
    }();
    return curve;
}

const WeierstrassCurve &
weierstrassOpfCurve()
{
    static const WeierstrassCurve curve(
        paperOpfField(),
        paperOpfField().modulus() - BigUInt(3),
        BigUInt(7),
        "weierstrass-opf160");
    return curve;
}

const MontgomeryCurve &
montgomeryOpfCurve()
{
    static const MontgomeryCurve curve = [] {
        const PrimeField &f = paperOpfField();
        uint32_t a = selectMontgomeryA();
        // B = -(A+2) makes the Edwards twin have a = -1 exactly.
        BigUInt b = f.neg(f.fromUint(a + 2));
        return MontgomeryCurve(f, f.fromUint(a), b, "montgomery-opf160");
    }();
    return curve;
}

const EdwardsCurve &
edwardsOpfCurve()
{
    static const EdwardsCurve curve = [] {
        const PrimeField &f = paperOpfField();
        const MontgomeryCurve &m = montgomeryOpfCurve();
        // a = (A+2)/B = -1, d = (A-2)/B = (2-A)/(A+2).
        BigUInt a = f.neg(BigUInt(1));
        BigUInt d = f.mul(f.sub(m.coeffA(), f.fromUint(2)),
                          f.inv(m.coeffB()));
        return EdwardsCurve(f, a, d, "edwards-opf160");
    }();
    return curve;
}

const GlvCurve &
glvOpfCurve()
{
    return *glvOpfInstance().curve;
}

AffinePoint
weierstrassOpfBasePoint()
{
    static const AffinePoint base = [] {
        Rng rng(0xbeef);
        const WeierstrassCurve &c = weierstrassOpfCurve();
        for (uint64_t x = 2;; x++) {
            auto p = c.liftX(BigUInt(x), rng);
            if (p && !p->y.isZero())
                return *p;
        }
    }();
    return base;
}

AffinePoint
montgomeryOpfBasePoint()
{
    static const AffinePoint base = [] {
        Rng rng(0xbef0);
        const MontgomeryCurve &c = montgomeryOpfCurve();
        for (uint64_t x = 2;; x++) {
            auto p = c.liftX(BigUInt(x), rng);
            if (p && !p->y.isZero())
                return *p;
        }
    }();
    return base;
}

AffinePoint
edwardsOpfBasePoint()
{
    static const AffinePoint base = [] {
        Rng rng(0xbef1);
        const EdwardsCurve &c = edwardsOpfCurve();
        for (uint64_t y = 2;; y++) {
            auto p = c.liftY(BigUInt(y), rng);
            if (p && !p->x.isZero())
                return *p;
        }
    }();
    return base;
}

AffinePoint
edwardsToMontgomery(const AffinePoint &p)
{
    const PrimeField &f = paperOpfField();
    if (p.inf || p.y.isOne() || p.x.isZero())
        panic("edwardsToMontgomery: exceptional point");
    // u = (1+y)/(1-y), v = u/x.
    BigUInt one(1);
    BigUInt u = f.mul(f.add(one, p.y), f.inv(f.sub(one, p.y)));
    BigUInt v = f.mul(u, f.inv(p.x));
    return AffinePoint(u, v);
}

} // namespace jaavr
