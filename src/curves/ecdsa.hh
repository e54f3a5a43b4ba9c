/**
 * @file
 * ECDSA over a short Weierstrass curve with a known prime-order
 * generator (the paper positions its curves for exactly such
 * protocols — key establishment and authentication on IoT nodes).
 *
 * Works with any WeierstrassCurve subtype; when the curve is a
 * GlvCurve the verifier can use the endomorphism-accelerated scalar
 * multiplications.
 */

#ifndef JAAVR_CURVES_ECDSA_HH
#define JAAVR_CURVES_ECDSA_HH

#include <array>

#include "curves/fixed_base.hh"
#include "curves/glv.hh"
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
     * @param curve curve with cofactor-1 generator of order n
     * @param g     the generator
     * @param n     prime order of g
     */
    Ecdsa(const WeierstrassCurve &curve, const AffinePoint &g,
          const BigUInt &n);

    /** Convenience constructor for GLV curves (uses their G and n). */
    explicit Ecdsa(const GlvCurve &curve);

    /** Fresh key pair from @p rng (not a CSPRNG: examples only). */
    EcdsaKeyPair generateKey(Rng &rng) const;

    /** Sign the SHA-256 hash of @p message. */
    EcdsaSignature sign(const std::string &message, const BigUInt &d,
                        Rng &rng) const;

    /**
     * Sign with an explicit nonce @p k in [1, n). Returns nullopt for
     * the (negligible-probability) degenerate nonces that make r or s
     * zero — the random-nonce sign() simply retries, and the service
     * layer's batched path shares this assembly so single-call and
     * batched signatures over the same (message, d, k) are
     * bit-identical.
     */
    std::optional<EcdsaSignature>
    signWithNonce(const std::string &message, const BigUInt &d,
                  const BigUInt &k) const;

    /** Verify a signature on @p message. */
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

    /** k * P using the fastest available method. */
    AffinePoint mul(const BigUInt &k, const AffinePoint &p) const;

    /** k * G, through the comb table when one is attached. */
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
