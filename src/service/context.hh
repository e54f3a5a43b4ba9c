/**
 * @file
 * Per-worker execution context of the ECC service (DESIGN.md §14).
 *
 * The service's scaling contract is that worker contexts share
 * *nothing mutable*: each context owns private PrimeField instances
 * (the fields carry a per-instance mutable op-counter attachment, so
 * sharing one across threads would race), private curve objects
 * built from a snapshot of the standard-curve parameters, private
 * Ecdsa signers and a private seeded Rng. The only shared state is
 * immutable: the parameter snapshot and the fixed-base comb tables,
 * both built once at service startup.
 *
 * signerFor is the one lookup from a ServiceCurve to its objects: a
 * curve is order-known iff it has a signer, and the signer carries
 * its Weierstrass curve, order and (on the GLV curves) endomorphism.
 */

#ifndef JAAVR_SERVICE_CONTEXT_HH
#define JAAVR_SERVICE_CONTEXT_HH

#include <memory>

#include "curves/ecdsa.hh"
#include "curves/edwards.hh"
#include "curves/glv.hh"
#include "curves/montgomery.hh"
#include "curves/point_mult.hh"
#include "curves/standard_curves.hh"
#include "curves/weierstrass.hh"
#include "field/secp160.hh"
#include "service/request.hh"
#include "support/random.hh"

namespace jaavr
{

/**
 * Immutable snapshot of every curve parameter the service needs,
 * captured once per process from the lazy standard-curve singletons
 * (so the expensive GLV curve construction runs exactly once) and
 * then used to build as many independent worker contexts as needed.
 */
struct ServiceCurveSet
{
    // secp160r1
    BigUInt r1A, r1B;
    AffinePoint r1G;
    BigUInt r1N;
    // secp160k1 (GLV family, published constants)
    GlvParams k1Params;
    // constructed GLV curve and its OPF prime
    BigUInt glvP;
    GlvParams glvParams;
    // paper OPF prime and its three curves
    BigUInt opfP;
    BigUInt wA, wB;
    BigUInt mA, mB;
    BigUInt eA, eD;

    /** The process-wide snapshot (captured on first use). */
    static const ServiceCurveSet &instance();
};

/**
 * One worker's private crypto state. Construction is cheap relative
 * to service lifetime (a few scalar multiplications of self-checks);
 * contexts are independent and never touched by two threads at once.
 */
class WorkerContext
{
  public:
    explicit WorkerContext(uint64_t rng_seed);

    WorkerContext(const WorkerContext &) = delete;
    WorkerContext &operator=(const WorkerContext &) = delete;

    // Fields first: the curves below hold references into them.
    Secp160r1Field r1Field;
    Secp160k1Field k1Field;
    PrimeField glvField;
    PrimeField opfField;

    WeierstrassCurve secp160r1;
    GlvCurve secp160k1;
    GlvCurve glvOpf;
    WeierstrassCurve weierstrassOpf;
    MontgomeryCurve montgomeryOpf;
    EdwardsCurve edwardsOpf;

    Ecdsa ecdsaR1;
    Ecdsa ecdsaK1;
    Ecdsa ecdsaGlv;

    Rng rng;

    /** The ECDSA signer for @p c, or nullptr if its order is unknown. */
    Ecdsa *signerFor(ServiceCurve c);
};

/**
 * The fixed-base comb tables (Lim–Lee, curves/point_mult.hh) for the
 * order-known generators, built once per service (dogfooding the
 * batched affine conversion) and shared read-only by every worker.
 */
struct ServiceTables
{
    std::unique_ptr<FixedBaseComb> r1;
    std::unique_ptr<FixedBaseComb> k1;
    std::unique_ptr<FixedBaseComb> glv;

    /** Build all three on the standard-curve singletons @p snap was
     *  captured from. */
    static ServiceTables build(const ServiceCurveSet &snap);
};

} // namespace jaavr

#endif // JAAVR_SERVICE_CONTEXT_HH
