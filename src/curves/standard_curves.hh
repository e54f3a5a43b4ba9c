/**
 * @file
 * The named curve instances of the paper's evaluation:
 *
 *  - secp160r1 (standardized; published SEC2 constants),
 *  - secp160k1 (standardized GLV-family curve; used to cross-check
 *    the GLV machinery against published parameters),
 *  - the four non-standardized OPF curves: Weierstrass (a = -3),
 *    Montgomery (small (A+2)/4), twisted Edwards (a = -1, complete),
 *    and a GLV curve constructed over an OPF prime = 1 (mod 3) via
 *    the CM order computation (DESIGN.md substitution #4: the paper
 *    does not publish its curve constants).
 *
 * All accessors return lazily-initialized singletons; construction
 * self-checks (generators on curve, orders annihilate generators,
 * endomorphism eigenvalues match) and panics on any inconsistency.
 */

#ifndef JAAVR_CURVES_STANDARD_CURVES_HH
#define JAAVR_CURVES_STANDARD_CURVES_HH

#include "curves/edwards.hh"
#include "curves/glv.hh"
#include "curves/montgomery.hh"
#include "curves/weierstrass.hh"
#include "field/secp160.hh"
#include "nt/opf_prime.hh"

namespace jaavr
{

/** Generator and order of a standardized curve. */
struct CurveGenerator
{
    AffinePoint g;
    BigUInt order;     ///< prime order of g
    BigUInt cofactor;
};

// --- Fields ----------------------------------------------------------

/** Field of the paper's reference OPF prime 65356 * 2^144 + 1. */
const PrimeField &paperOpfField();

/** Field of the GLV-compatible OPF prime (p = 1 mod 3). */
const PrimeField &glvOpfField();

/** The OPF prime underlying glvOpfField()/glvOpfCurve(). */
const OpfPrime &glvOpfPrimeUsed();

/** secp160r1's field (PrimeField folds through 2^160 = 2^31 + 1). */
const Secp160r1Field &secp160r1Field();

/** secp160k1's field. */
const Secp160k1Field &secp160k1Field();

// --- Standardized curves ---------------------------------------------

/** secp160r1: y^2 = x^3 - 3x + b (SEC2 constants). */
const WeierstrassCurve &secp160r1Curve();
const CurveGenerator &secp160r1Generator();

/** secp160k1 wrapped as a GlvCurve (a = 0, b = 7, published G, n). */
const GlvCurve &secp160k1Curve();

// --- OPF curves (paper Section V, non-standardized rows) -------------

/** Weierstrass a = -3 curve over the paper OPF prime. */
const WeierstrassCurve &weierstrassOpfCurve();

/**
 * Montgomery curve over the paper OPF prime with the smallest
 * A = 2 (mod 4) making the twisted Edwards twin below complete;
 * B = -(A+2) so that the two curves are birationally equivalent.
 */
const MontgomeryCurve &montgomeryOpfCurve();

/** Twisted Edwards twin: a = -1, d = (2-A)/(A+2) non-square. */
const EdwardsCurve &edwardsOpfCurve();

/** Constructed GLV curve over the GLV OPF prime (exact CM order). */
const GlvCurve &glvOpfCurve();

/** Deterministic non-identity base point on the OPF Weierstrass curve. */
AffinePoint weierstrassOpfBasePoint();

/** Deterministic base point on the OPF Montgomery curve. */
AffinePoint montgomeryOpfBasePoint();

/** Deterministic base point on the OPF Edwards curve. */
AffinePoint edwardsOpfBasePoint();

/**
 * Map a point from the Edwards OPF curve to its Montgomery twin:
 * u = (1+y)/(1-y), v = u/x. Panics on the exceptional points.
 */
AffinePoint edwardsToMontgomery(const AffinePoint &p);

} // namespace jaavr

#endif // JAAVR_CURVES_STANDARD_CURVES_HH
