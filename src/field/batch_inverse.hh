/**
 * @file
 * Montgomery's simultaneous-inversion trick as a standalone field
 * driver: invert n elements with a single field inversion plus
 * 3(n-1) multiplications, so a batch of one costs exactly one
 * inversion.
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
 * Returns the number of elements actually inverted; the cost is one
 * PrimeField::inv plus 3(m-1) multiplications for m nonzero elements
 * (size 1, or one nonzero among zeros, is exactly one inversion).
 */
size_t invBatch(const PrimeField &f, std::vector<Fe> &elems);

/** invBatch on BigUInt elements (converted through the field). */
size_t invBatch(const PrimeField &f, std::vector<BigUInt> &elems);

} // namespace jaavr

#endif // JAAVR_FIELD_BATCH_INVERSE_HH
