/**
 * @file
 * ECDSA over a short Weierstrass curve with a known prime-order
 * generator (the paper positions its curves for exactly such
 * protocols — key establishment and authentication on IoT nodes).
 *
 * Works with any WeierstrassCurve subtype; when the curve is a
 * GlvCurve every variable-base multiplication uses the endomorphism
 * (mulJacobian picks the method). The single-call functions — sign,
 * signWithNonce, generateKey, verify — are the golden references the
 * service's batch handlers (service.cc) are tested against; those
 * handlers reuse mulJacobian/mulGJacobian and convert to affine once
 * per batch.
 */

#ifndef JAAVR_CURVES_ECDSA_HH
#define JAAVR_CURVES_ECDSA_HH

#include <array>

#include "curves/glv.hh"
#include "curves/point_mult.hh"
#include "curves/weierstrass.hh"

namespace jaavr
{

/** An ECDSA signature. */
struct EcdsaSignature
{
    BigUInt r;
    BigUInt s;
};

/** An ECDSA key pair. */
struct EcdsaKeyPair
{
    BigUInt d;      ///< private scalar in [1, n)
    AffinePoint q;  ///< public point d * G
};

class Ecdsa
{
  public:
    /**
     * Establishes n for every later validatePoint(curve, P, &n) of
     * this instance: checks that @p g is a valid curve point and
     * multiplies n * g = O out with mulBinary (validatePoint itself
     * trusts n and skips that product where the cofactor is 1).
     * Fatal when either check fails.
     *
     * @param curve any short Weierstrass curve; its cofactor may
     *              exceed 1 (the small pair's Weierstrass image has 4
     *              or 8)
     * @param g     the generator
     * @param n     prime order of g
     */
    Ecdsa(const WeierstrassCurve &curve, const AffinePoint &g,
          const BigUInt &n);

    /** Convenience constructor for GLV curves: uses their G and n,
     *  which GlvCurve's constructor has already checked (G valid,
     *  n * G = O), so nothing is multiplied out again. */
    explicit Ecdsa(const GlvCurve &curve);

    /** Fresh key pair from @p rng (not a CSPRNG: examples only). */
    EcdsaKeyPair generateKey(Rng &rng) const;

    /** Sign the SHA-256 hash of @p message. */
    EcdsaSignature sign(const std::string &message, const BigUInt &d,
                        Rng &rng) const;

    /**
     * Sign with an explicit nonce @p k in [1, n). Returns nullopt for
     * the (negligible-probability) degenerate nonces that make r or s
     * zero — the random-nonce sign() simply retries. The service's
     * sign handler computes the same assembly over a whole batch, so
     * its signatures over the same (message, d, k) are bit-identical.
     */
    std::optional<EcdsaSignature>
    signWithNonce(const std::string &message, const BigUInt &d,
                  const BigUInt &k) const;

    /**
     * Verify a signature on @p message: r, s in [1, n), Q valid,
     * R = u1 G + u2 Q summed in Jacobian coordinates (mulGJacobian +
     * mulJacobian + add), and x(R) mod n == r tested in Jacobian form
     * as t Z^2 == X for every t = r + j n below p: no inversion in the
     * base field, and no n * Q product on cofactor-1 curves.
     */
    bool verify(const std::string &message, const EcdsaSignature &sig,
                const AffinePoint &q) const;

    const BigUInt &order() const { return n; }
    /** Arithmetic mod n (private to this instance, like its curve's). */
    const PrimeField &scalarField() const { return fn; }
    const AffinePoint &generator() const { return g; }
    const WeierstrassCurve &curve() const { return c; }
    const GlvCurve *glvCurve() const { return glv; }

    /**
     * Attach a fixed-base comb table for this instance's generator
     * (built once per curve at service startup); subsequent fixed-base
     * multiplications in generateKey/sign/verify use it instead of
     * the generic NAF/GLV path. Pass nullptr to detach. The table is
     * not owned and must outlive the attachment; the attachment
     * itself is per-instance state, so concurrent workers each attach
     * the shared table to their own Ecdsa.
     */
    void attachFixedBase(const FixedBaseComb *table);
    const FixedBaseComb *fixedBase() const { return comb; }

    /** Leftmost bits of the hash as an integer mod n. */
    BigUInt hashToScalar(const std::string &message) const;

    /**
     * k * P in Jacobian coordinates: the one place that picks the
     * curve's variable-base method — GLV + JSF on a GLV curve (the
     * paper's "End, JSF", Table II), NAF otherwise. Batches convert
     * many results with one toAffineBatch inversion; verify adds the
     * result to u1 G without converting it.
     */
    JacobianPoint mulJacobian(const BigUInt &k, const AffinePoint &p) const;

    /** k * G in Jacobian coordinates: the comb table when one is
     *  attached, mulJacobian otherwise. */
    JacobianPoint mulGJacobian(const BigUInt &k) const;

    /** k * G in affine coordinates (mulGJacobian + toAffine). */
    AffinePoint mulG(const BigUInt &k) const;

  private:
    const WeierstrassCurve &c;
    const GlvCurve *glv;  ///< non-null when endomorphism is available
    const FixedBaseComb *comb = nullptr;  ///< optional, not owned
    AffinePoint g;
    BigUInt n;
    PrimeField fn;  ///< the scalar field mod n
};

} // namespace jaavr

#endif // JAAVR_CURVES_ECDSA_HH
