/**
 * @file
 * Per-worker execution context of the ECC service (DESIGN.md §14).
 *
 * The service's scaling contract is that worker contexts share
 * *nothing mutable*: each context owns private PrimeField instances
 * (the fields carry a per-instance mutable op-counter attachment, so
 * sharing one across threads would race), private curve objects
 * built from a snapshot of the standard-curve parameters, private
 * Ecdsa signers, a private seeded Rng, and a private AVR Machine
 * (the ISS is entirely member-state, so per-worker Machines run
 * concurrently with bit-identical results — the concurrency test
 * pins this). The only shared state is immutable: the parameter
 * snapshot and the fixed-base comb tables, both built once at
 * service startup.
 */

#ifndef JAAVR_SERVICE_CONTEXT_HH
#define JAAVR_SERVICE_CONTEXT_HH

#include <memory>

#include "avr/machine.hh"
#include "curves/ecdsa.hh"
#include "curves/edwards.hh"
#include "curves/fixed_base.hh"
#include "curves/glv.hh"
#include "curves/montgomery.hh"
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
    AffinePoint wBase;
    BigUInt mA, mB;
    BigUInt mBaseX;
    BigUInt eA, eD;
    AffinePoint eBase;

    /** The process-wide snapshot (captured on first use). */
    static const ServiceCurveSet &instance();
};

/** True iff the curve's prime subgroup order is known (and so ECDSA
 *  sign/verify/keygen and hardened derive are available on it). */
bool serviceOrderKnown(ServiceCurve c);

/**
 * One worker's private crypto state. Construction is cheap relative
 * to service lifetime (a few scalar multiplications of self-checks);
 * contexts are independent and never touched by two threads at once.
 */
class WorkerContext
{
  public:
    explicit WorkerContext(uint64_t rng_seed,
                           CpuMode machine_mode = CpuMode::ISE);

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
    Machine machine;  ///< per-worker ISS instance (poolable by design)

    /** The ECDSA signer for @p c, or nullptr if its order is unknown. */
    Ecdsa *signerFor(ServiceCurve c);

    /** The Weierstrass(-family) curve object, or nullptr. */
    const WeierstrassCurve *weierstrassFor(ServiceCurve c) const;
};

/**
 * The fixed-base comb tables for the order-known generators, built
 * once per service (dogfooding the batched affine conversion) and
 * shared read-only by every worker.
 */
struct ServiceTables
{
    std::unique_ptr<FixedBaseComb> r1;
    std::unique_ptr<FixedBaseComb> k1;
    std::unique_ptr<FixedBaseComb> glv;

    /** Build all three from @p snap via a throwaway context. */
    static ServiceTables build(const ServiceCurveSet &snap,
                               unsigned width = 5);
};

} // namespace jaavr

#endif // JAAVR_SERVICE_CONTEXT_HH
