#include "service/context.hh"

namespace jaavr
{

const ServiceCurveSet &
ServiceCurveSet::instance()
{
    static const ServiceCurveSet snap = [] {
        ServiceCurveSet v;
        const WeierstrassCurve &r1c = secp160r1Curve();
        const CurveGenerator &r1g = secp160r1Generator();
        v.r1A = r1c.coeffA();
        v.r1B = r1c.coeffB();
        v.r1G = r1g.g;
        v.r1N = r1g.order;
        v.k1Params = secp160k1Curve().params();
        v.glvP = glvOpfField().modulus();
        v.glvParams = glvOpfCurve().params();
        v.opfP = paperOpfField().modulus();
        const WeierstrassCurve &w = weierstrassOpfCurve();
        v.wA = w.coeffA();
        v.wB = w.coeffB();
        const MontgomeryCurve &m = montgomeryOpfCurve();
        v.mA = m.coeffA();
        v.mB = m.coeffB();
        const EdwardsCurve &e = edwardsOpfCurve();
        v.eA = e.coeffA();
        v.eD = e.coeffD();
        return v;
    }();
    return snap;
}

namespace
{

const ServiceCurveSet &
S()
{
    return ServiceCurveSet::instance();
}

} // namespace

WorkerContext::WorkerContext(uint64_t rng_seed)
    : r1Field(),
      k1Field(),
      glvField(S().glvP),
      opfField(S().opfP),
      secp160r1(r1Field, S().r1A, S().r1B, "secp160r1"),
      secp160k1(k1Field, S().k1Params, "secp160k1"),
      glvOpf(glvField, S().glvParams, "glv-opf"),
      weierstrassOpf(opfField, S().wA, S().wB, "weierstrass-opf"),
      montgomeryOpf(opfField, S().mA, S().mB, "montgomery-opf"),
      edwardsOpf(opfField, S().eA, S().eD, "edwards-opf"),
      ecdsaR1(secp160r1, S().r1G, S().r1N),
      ecdsaK1(secp160k1),
      ecdsaGlv(glvOpf),
      rng(rng_seed)
{}

Ecdsa *
WorkerContext::signerFor(ServiceCurve c)
{
    switch (c) {
    case ServiceCurve::Secp160r1:
        return &ecdsaR1;
    case ServiceCurve::Secp160k1:
        return &ecdsaK1;
    case ServiceCurve::GlvOpf:
        return &ecdsaGlv;
    default:
        return nullptr;
    }
}

ServiceTables
ServiceTables::build(const ServiceCurveSet &snap)
{
    // The snapshot copies its parameters from these singletons, whose
    // constructors have already checked G, n and λ; the combs keep
    // only plain affine point data.
    const GlvCurve &k1 = secp160k1Curve();
    const GlvCurve &glv = glvOpfCurve();
    ServiceTables t;
    t.r1 = std::make_unique<FixedBaseComb>(secp160r1Curve(), snap.r1G,
                                           snap.r1N.bitLength());
    t.k1 = std::make_unique<FixedBaseComb>(
        k1, k1.generator(), snap.k1Params.order.bitLength());
    t.glv = std::make_unique<FixedBaseComb>(
        glv, glv.generator(), snap.glvParams.order.bitLength());
    return t;
}

} // namespace jaavr
