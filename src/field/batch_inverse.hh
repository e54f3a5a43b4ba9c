/**
 * @file
 * Montgomery's simultaneous-inversion trick as a standalone field
 * driver: invert n elements with a single field inversion plus
 * 3(n-1) multiplications.
 *
 * This generalizes the inline prefix-product unwind that
 * WeierstrassCurve::toAffineBatch carried since the wNAF table work:
 * the curve layers (Jacobian/extended batch-affine conversion, the
 * x-only ladder's final X/Z divisions) and the service layer's
 * request micro-batches all share this one driver, so every consumer
 * amortizes the expensive field inversion the same way
 * (DESIGN.md §14).
 */

#ifndef JAAVR_FIELD_BATCH_INVERSE_HH
#define JAAVR_FIELD_BATCH_INVERSE_HH

#include <vector>

#include "field/prime_field.hh"

namespace jaavr
{

/**
 * Replace every nonzero element of @p elems with its multiplicative
 * inverse mod @p f's modulus, using one field inversion total. Zero
 * elements pass through unchanged (zero has no inverse; callers use
 * zero as their "skip" encoding — the point at infinity's Z, an
 * absent slot), and do not perturb the inverses of their neighbours.
 * Returns the number of elements actually inverted. Sizes 0 and 1
 * degenerate gracefully (size 1 is exactly one PrimeField::inv).
 */
size_t invBatch(const PrimeField &f, std::vector<Fe> &elems);

/** invBatch on BigUInt elements (converted through the field). */
size_t invBatch(const PrimeField &f, std::vector<BigUInt> &elems);

/** Non-mutating convenience wrapper around invBatch. */
std::vector<BigUInt> invBatchCopy(const PrimeField &f,
                                  const std::vector<BigUInt> &elems);

} // namespace jaavr

#endif // JAAVR_FIELD_BATCH_INVERSE_HH
