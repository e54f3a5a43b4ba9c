/**
 * @file
 * Unified scalar/point validation and hardened scalar multiplication
 * for all four curve families (see DESIGN.md, "Fault model &
 * hardening").
 *
 * The fault campaign (bench_fault_campaign) models an attacker who
 * perturbs data during a scalar multiplication; the classic
 * countermeasures implemented here are
 *
 *  - input validation (reject out-of-range scalars, points off the
 *    curve or outside the prime-order subgroup — also the standard
 *    defense against invalid-curve and small-subgroup attacks),
 *  - algorithm-diverse recomputation (run the multiplication twice
 *    with *different* ladder/NAF algorithms and compare, so a fault
 *    that deterministically perturbs one algorithm's data flow still
 *    disagrees with the other),
 *  - output validation (the result must again lie on the curve; a
 *    random data fault almost never produces another curve point).
 */

#ifndef JAAVR_CURVES_VALIDATE_HH
#define JAAVR_CURVES_VALIDATE_HH

#include <optional>
#include <string>

#include "curves/edwards.hh"
#include "curves/glv.hh"
#include "curves/montgomery.hh"
#include "curves/weierstrass.hh"

namespace jaavr
{

/** True iff 1 <= k < n (a valid private scalar / nonce). */
bool validScalar(const BigUInt &k, const BigUInt &n);

/**
 * True iff Hasse's bound proves that a curve over F_p with a point of
 * order @p n has exactly n points: n divides #E <= p + 1 + 2 sqrt(p),
 * so 2n > p + 1 + 2 sqrt(p) leaves no room for a cofactor above 1.
 * Holds for secp160r1, secp160k1 and glv-opf (all have n > p); fails
 * for the small pair's Weierstrass image (cofactor 4 or 8).
 */
bool hasseProvesCofactorOne(const BigUInt &p, const BigUInt &n);

/**
 * Full public-point validation on a short Weierstrass curve: not the
 * point at infinity, both coordinates canonical (< p), and on the
 * curve. When @p order is given, additionally order * p == infinity
 * (prime-order subgroup membership). @p order must be the prime order
 * of a subgroup of @p c, established by the caller (Ecdsa's and
 * GlvCurve's constructors check n * G = O with mulBinary): when
 * hasseProvesCofactorOne(p, order), every on-curve point already has
 * that order and the multiplication is skipped (SEC 1 v2 §3.2.2.1
 * asks for it only when the cofactor is not 1).
 */
bool validatePoint(const WeierstrassCurve &c, const AffinePoint &p,
                   const BigUInt *order = nullptr);

/**
 * Twisted-Edwards variant: rejects every point with x = 0 or y = 0
 * as well — the identity (0, 1), the point (0, -1) of order 2 and,
 * since a = -1 is a square when p = 1 (mod 4), the two points
 * (+-1/sqrt(a), 0) of order 4. Every protocol input here is expected
 * to be a generator multiple of full order; without @p order, points
 * of order 8 still pass.
 */
bool validatePoint(const EdwardsCurve &c, const AffinePoint &p,
                   const BigUInt *order = nullptr);

/**
 * x-only validation for the Montgomery ladder: x < p and
 * x^3 + A x^2 + x = B y^2 is solvable with y != 0, i.e. rhs/B is a
 * nonzero square, tested as rhs*B (the same quadratic character, with
 * no inversion). A zero rhs (x = 0 or a 2-torsion x-coordinate)
 * is rejected: such points have order <= 2 and are useless and
 * dangerous as Diffie-Hellman inputs. Twist x-coordinates are
 * rejected too — the campaign's countermeasure is strict on-curve
 * membership, not twist security.
 */
bool validateX(const MontgomeryCurve &c, const BigUInt &x);

/** Outcome of a hardened (validated + recomputed) multiplication. */
struct HardenedMul
{
    AffinePoint point;        ///< result for the full-point families
    std::optional<BigUInt> x; ///< result for the x-only ladder
    bool ok = false;          ///< all checks passed
    std::string reason;       ///< first failed check when !ok
};

/**
 * Hardened k * p on a Weierstrass curve with prime subgroup order
 * @p n: validates (k, p), computes with the co-Z ladder, recomputes
 * with NAF double-and-add, compares, and validates the result.
 */
HardenedMul hardenedMulWeierstrass(const WeierstrassCurve &c,
                                   const BigUInt &k,
                                   const AffinePoint &p,
                                   const BigUInt &n);

/** GLV variant: primary computation uses the endomorphism (JSF). */
HardenedMul hardenedMulGlv(const GlvCurve &c, const BigUInt &k,
                           const AffinePoint &p);

/** Twisted-Edwards variant: DAAA primary, NAF recomputation. */
HardenedMul hardenedMulEdwards(const EdwardsCurve &c, const BigUInt &k,
                               const AffinePoint &p, const BigUInt &n);

/**
 * x-only Montgomery-ladder variant. The ladder is the only x-only
 * algorithm available, so the recomputation is a second ladder pass
 * from an independent copy of the inputs (duplicate-image
 * redundancy, matching the campaign's fault model of one corrupted
 * image).
 *
 * When @p rng is given, each ladder pass additionally runs in
 * randomized projective coordinates with its own fresh nonzero blind
 * (Coron's countermeasure; see MontgomeryCurve::ladder). The result
 * is unchanged — the blinds cancel in the final X/Z division — but
 * first-order DPA/CPA on the intermediates no longer correlates
 * with any fixed-key hypothesis, which bench_sidechannel verifies.
 */
HardenedMul hardenedMulMontgomery(const MontgomeryCurve &c,
                                  const BigUInt &k, const BigUInt &x,
                                  const BigUInt &n, Rng *rng = nullptr);

} // namespace jaavr

#endif // JAAVR_CURVES_VALIDATE_HH
