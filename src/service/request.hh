/**
 * @file
 * Request/response record of the ECC service (DESIGN.md §14).
 *
 * A ServiceRequest is caller-owned and single-use: the caller fills
 * the inputs, submits the pointer through EccService, and the record
 * must stay alive and untouched until the service flips `done` (see
 * EccService::wait). All output fields are written by exactly one
 * worker thread before the release-store on `done`, so a caller that
 * observed done == true (acquire) reads them race-free.
 */

#ifndef JAAVR_SERVICE_REQUEST_HH
#define JAAVR_SERVICE_REQUEST_HH

#include <atomic>
#include <chrono>
#include <string>

#include "curves/ecdsa.hh"
#include "curves/point.hh"

namespace jaavr
{

/** Operation requested from the service. */
enum class ServiceOp : uint8_t
{
    Sign,    ///< ECDSA sign `message` under `privateKey`
    Verify,  ///< ECDSA verify `signature` on `message` by `peer`
    Keygen,  ///< fresh (or privateKey-forced) ECDSA key pair
    Derive,  ///< ECDH: privateKey * peer (x-only on Montgomery)
};

/** Curve family/instance a request targets. */
enum class ServiceCurve : uint8_t
{
    Secp160r1,       ///< standardized Weierstrass (known order)
    Secp160k1,       ///< standardized GLV curve (known order)
    GlvOpf,          ///< constructed GLV curve (known CM order)
    WeierstrassOpf,  ///< OPF a = -3 curve (order unpublished)
    MontgomeryOpf,   ///< OPF Montgomery curve, x-only (order unpublished)
    EdwardsOpf,      ///< OPF twisted Edwards curve (order unpublished)
};

const char *serviceOpName(ServiceOp op);
const char *serviceCurveName(ServiceCurve c);

/** Completion status of a processed request. */
enum class ServiceStatus : uint8_t
{
    Pending,        ///< not yet processed
    Ok,             ///< outputs valid (for Verify, consult verifyOk)
    InvalidRequest, ///< bad inputs or unsupported op/curve combination
    HardenedFailed, ///< hardened recomputation/validation disagreed
};

struct ServiceRequest
{
    // --- inputs (set by the caller before submit) -------------------
    ServiceOp op = ServiceOp::Sign;
    ServiceCurve curve = ServiceCurve::Secp160r1;
    /** Route hardenable ops through the validated/recomputed path. */
    bool hardened = false;
    std::string message;   ///< Sign/Verify payload
    BigUInt privateKey;    ///< Sign/Derive scalar; Keygen force (0 = draw)
    /**
     * Explicit ECDSA nonce for reproducibility tests; zero (default)
     * draws from the worker's seeded Rng. A degenerate explicit nonce
     * (r or s would be zero) fails with InvalidRequest instead of
     * silently redrawing.
     */
    BigUInt nonce;
    EcdsaSignature signature; ///< Verify input
    AffinePoint peer;         ///< Verify public key / Derive peer point
    BigUInt peerX;            ///< Derive peer for the x-only ladder

    // --- outputs (written by the worker, then done is released) -----
    ServiceStatus status = ServiceStatus::Pending;
    std::string error;        ///< first failed check when not Ok
    EcdsaSignature sigOut;    ///< Sign
    bool verifyOk = false;    ///< Verify
    EcdsaKeyPair keyOut;      ///< Keygen
    AffinePoint pointOut;     ///< Derive (full-point families)
    BigUInt xOut;             ///< Derive (x-only Montgomery)

    // --- bookkeeping (set by the service) ---------------------------
    std::chrono::steady_clock::time_point enqueuedAt;
    /**
     * Tracing identity (src/obs/): assigned at submit when a span
     * tracer is attached and enabled, 0 otherwise. Carried through
     * queue wait → batch drain so the per-request span and any
     * downstream spans share one trace.
     */
    uint64_t traceId = 0;
    /** Tracer µs when the worker popped the request (tracing only). */
    uint64_t poppedAtUs = 0;
    std::atomic<bool> done{false};
};

} // namespace jaavr

#endif // JAAVR_SERVICE_REQUEST_HH
