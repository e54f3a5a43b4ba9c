/**
 * @file
 * The traced run's layer ladder: single-threaded timings of the
 * public bigint, field and curve calls the service workloads spend
 * their time in, on the workloads' input distributions (secp160r1 /
 * secp160k1 / paper-OPF elements and 160-bit scalars), plus exact
 * field-op counts per ECDSA sign, verify and derive through
 * PrimeField::attachCounter on the benchmark's own field instances.
 */

#include <string>

#include "curves/ecdsa.hh"
#include "field/batch_inverse.hh"
#include "service/context.hh"

#include "common.hh"

namespace perfbench
{

namespace
{

using namespace jaavr;

constexpr uint64_t kStreamLayers = 30;
/** Timed rounds per metric; the median round is reported. */
constexpr size_t kRounds = 101;
/** Calls per round for the nanosecond-scale calls. */
constexpr size_t kBlock = 256;
/** Ops per kind for the exact field-op counts. */
constexpr size_t kCountOps = 32;

/** Defeats dead-code elimination of timed results. */
volatile uint32_t gSink;

/** Median over kRounds of the mean host ns per call in a round. */
template <class F>
double
medianNs(size_t perRound, F &&fn)
{
    std::vector<double> rounds;
    uint32_t sink = 0;
    for (size_t r = 0; r < kRounds; r++) {
        auto t0 = Clock::now();
        for (size_t j = 0; j < perRound; j++)
            sink ^= fn(r * perRound + j);
        rounds.push_back(nsBetween(t0, Clock::now()) / double(perRound));
    }
    gSink = sink;
    return percentile(rounds, 50);
}

BigUInt
nonzeroBelow(Rng &rng, const BigUInt &n)
{
    return BigUInt(1) + BigUInt::random(rng, n - BigUInt(1));
}

} // namespace

void
runLayerLadder(const Options &opt, Report &rep)
{
    const ServiceCurveSet &snap = ServiceCurveSet::instance();
    WorkerContext ctx(opt.seed);
    ServiceTables tables = ServiceTables::build(snap);
    ctx.ecdsaR1.attachFixedBase(tables.r1.get());
    ctx.ecdsaK1.attachFixedBase(tables.k1.get());
    Rng rng(mix64(opt.seed ^ mix64(kStreamLayers)));

    // --- bigint and field: secp160r1 and OPF elements ---------------
    const BigUInt &p = ctx.r1Field.modulus();
    const BigUInt &q = ctx.opfField.modulus();
    const size_t nElems = kRounds * kBlock;
    std::vector<BigUInt> a(nElems), b(nElems), prod(nElems);
    for (size_t i = 0; i < nElems; i++) {
        a[i] = BigUInt::random(rng, p);
        b[i] = BigUInt::random(rng, p);
        prod[i] = a[i] * b[i];
    }
    rep.layer("bigint.mul_ns", medianNs(kBlock, [&](size_t i) {
                  return (a[i] * b[i]).low32();
              }));
    rep.layer("bigint.mod_ns", medianNs(kBlock, [&](size_t i) {
                  return (prod[i] % p).low32();
              }));
    rep.layer("field.mul_ns.secp160r1", medianNs(kBlock, [&](size_t i) {
                  return ctx.r1Field.mul(a[i], b[i]).low32();
              }));
    std::vector<BigUInt> qa(nElems), qb(nElems);
    for (size_t i = 0; i < nElems; i++) {
        qa[i] = BigUInt::random(rng, q);
        qb[i] = BigUInt::random(rng, q);
    }
    rep.layer("field.mul_ns.opf", medianNs(kBlock, [&](size_t i) {
                  return ctx.opfField.mul(qa[i], qb[i]).low32();
              }));
    rep.layer("field.inv_us.secp160r1", medianNs(4, [&](size_t i) {
                  return ctx.r1Field.inv(a[i] + BigUInt(1)).low32();
              }) / 1e3);
    rep.layer("field.inv_batch16_us", medianNs(1, [&](size_t i) {
                  std::vector<BigUInt> v(a.begin() + 16 * long(i),
                                         a.begin() + 16 * long(i + 1));
                  invBatch(ctx.r1Field, v);
                  return v[0].low32();
              }) / 1e3);

    // --- curves: timed public calls ---------------------------------
    const WeierstrassCurve &r1 = ctx.secp160r1;
    const FixedBaseComb &comb = *tables.r1;
    std::vector<BigUInt> k(kRounds * 16);
    for (BigUInt &v : k)
        v = nonzeroBelow(rng, snap.r1N);
    rep.layer("curves.comb_mul_us.secp160r1", medianNs(1, [&](size_t i) {
                  return comb.mul(r1, k[i]).x.low32();
              }) / 1e3);
    std::vector<JacobianPoint> jac(k.size());
    for (size_t i = 0; i < k.size(); i++)
        jac[i] = comb.mulJacobian(r1, k[i]);
    rep.layer("curves.to_affine_batch16_us.secp160r1",
              medianNs(1, [&](size_t i) {
                  std::vector<JacobianPoint> v(jac.begin() + 16 * long(i),
                                               jac.begin() +
                                                   16 * long(i + 1));
                  return r1.toAffineBatch(v)[0].x.low32();
              }) / 1e3);

    struct SignCase
    {
        std::string msg;
        BigUInt d, k;
    };
    std::vector<SignCase> signs(kRounds);
    for (size_t i = 0; i < signs.size(); i++)
        signs[i] = {"layer " + std::to_string(i),
                    nonzeroBelow(rng, snap.r1N), nonzeroBelow(rng, snap.r1N)};
    auto sign = [&](size_t i) {
        auto sig = ctx.ecdsaR1.signWithNonce(signs[i].msg, signs[i].d,
                                             signs[i].k);
        return sig ? sig->r.low32() : 0u;
    };
    rep.layer("curves.sign_us.secp160r1", medianNs(1, sign) / 1e3);

    struct VerifyCase
    {
        std::string msg;
        EcdsaSignature sig;
        AffinePoint q;
    };
    std::vector<VerifyCase> verifies(kRounds);
    for (size_t i = 0; i < verifies.size(); i++) {
        EcdsaKeyPair kp = ctx.ecdsaK1.generateKey(rng);
        verifies[i].msg = "layer verify " + std::to_string(i);
        verifies[i].sig = ctx.ecdsaK1.sign(verifies[i].msg, kp.d, rng);
        verifies[i].q = kp.q;
    }
    bool allAccepted = true;
    auto verify = [&](size_t i) {
        bool ok = ctx.ecdsaK1.verify(verifies[i].msg, verifies[i].sig,
                                     verifies[i].q);
        allAccepted = allAccepted && ok;
        return uint32_t(ok);
    };
    rep.layer("curves.verify_us.secp160k1", medianNs(1, verify) / 1e3);
    if (!allAccepted)
        rep.fail("layer ladder: a valid secp160k1 signature was rejected");

    std::vector<BigUInt> montX(kRounds), scal(kRounds);
    std::vector<AffinePoint> edwP(kRounds);
    for (size_t i = 0; i < kRounds; i++) {
        montX[i] = ctx.montgomeryOpf.randomPoint(rng).x;
        edwP[i] = ctx.edwardsOpf.randomPoint(rng);
        scal[i] = BigUInt::randomBits(rng, 160) + BigUInt(1);
    }
    auto ladder = [&](size_t i) {
        auto x = ctx.montgomeryOpf.ladder(scal[i], montX[i]);
        return x ? x->low32() : 0u;
    };
    auto mulNaf = [&](size_t i) {
        return ctx.edwardsOpf.mulNaf(scal[i], edwP[i]).x.low32();
    };
    rep.layer("curves.ladder_us.montgomery_opf", medianNs(1, ladder) / 1e3);
    rep.layer("curves.mul_naf_us.edwards_opf", medianNs(1, mulNaf) / 1e3);

    // --- exact field-op counts per op (untimed) ---------------------
    auto countOps = [&](const char *name, const PrimeField &f, auto &&fn) {
        FieldOpCounts c;
        f.attachCounter(&c);
        for (size_t i = 0; i < kCountOps; i++)
            gSink = fn(i);
        f.attachCounter(nullptr);
        const double n = double(kCountOps);
        for (const auto &[op, v] : {std::pair{"mul", c.mul},
                                    std::pair{"sqr", c.sqr},
                                    std::pair{"inv", c.inv}}) {
            std::string key = std::string("field.ops.") + name + "." + op;
            rep.layer(key, double(v) / n);
            rep.count(key, double(v) / n);
        }
    };
    countOps("sign_r1", ctx.r1Field, sign);
    countOps("verify_k1", ctx.k1Field, verify);
    countOps("derive_mont", ctx.opfField, ladder);
    countOps("derive_edw", ctx.opfField, mulNaf);
}

} // namespace perfbench
