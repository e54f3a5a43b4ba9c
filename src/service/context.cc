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
        v.wBase = weierstrassOpfBasePoint();
        const MontgomeryCurve &m = montgomeryOpfCurve();
        v.mA = m.coeffA();
        v.mB = m.coeffB();
        v.mBaseX = montgomeryOpfBasePoint().x;
        const EdwardsCurve &e = edwardsOpfCurve();
        v.eA = e.coeffA();
        v.eD = e.coeffD();
        v.eBase = edwardsOpfBasePoint();
        return v;
    }();
    return snap;
}

bool
serviceOrderKnown(ServiceCurve c)
{
    switch (c) {
    case ServiceCurve::Secp160r1:
    case ServiceCurve::Secp160k1:
    case ServiceCurve::GlvOpf:
        return true;
    case ServiceCurve::WeierstrassOpf:
    case ServiceCurve::MontgomeryOpf:
    case ServiceCurve::EdwardsOpf:
        return false;
    }
    return false;
}

namespace
{
const ServiceCurveSet &
S()
{
    return ServiceCurveSet::instance();
}
} // namespace

WorkerContext::WorkerContext(uint64_t rng_seed, CpuMode machine_mode)
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
      rng(rng_seed),
      machine(machine_mode)
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

const WeierstrassCurve *
WorkerContext::weierstrassFor(ServiceCurve c) const
{
    switch (c) {
    case ServiceCurve::Secp160r1:
        return &secp160r1;
    case ServiceCurve::Secp160k1:
        return &secp160k1;
    case ServiceCurve::GlvOpf:
        return &glvOpf;
    case ServiceCurve::WeierstrassOpf:
        return &weierstrassOpf;
    default:
        return nullptr;
    }
}

ServiceTables
ServiceTables::build(const ServiceCurveSet &snap, unsigned width)
{
    // The combs store only plain affine point data, so the curve and
    // field objects used to build them can be transient.
    ServiceTables t;
    {
        Secp160r1Field f;
        WeierstrassCurve c(f, snap.r1A, snap.r1B, "secp160r1");
        t.r1 = std::make_unique<FixedBaseComb>(
            c, snap.r1G, snap.r1N.bitLength(), width);
    }
    {
        Secp160k1Field f;
        GlvCurve c(f, snap.k1Params, "secp160k1");
        t.k1 = std::make_unique<FixedBaseComb>(
            c, c.generator(), snap.k1Params.order.bitLength(), width);
    }
    {
        PrimeField f(snap.glvP);
        GlvCurve c(f, snap.glvParams, "glv-opf");
        t.glv = std::make_unique<FixedBaseComb>(
            c, c.generator(), snap.glvParams.order.bitLength(), width);
    }
    return t;
}

} // namespace jaavr
