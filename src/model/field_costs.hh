/**
 * @file
 * Per-field-operation cycle costs, measured on the instruction-set
 * simulator by running a generated routine set (OPF or secp160r1)
 * through OpfAvrLibrary. Both fields share one probe, add/sub/mul on
 * a seeded random operand pair and inv as the mean of five runs, and
 * one memo cache (DESIGN.md substitution #3: measured, not modeled,
 * wherever we have the assembly).
 */

#ifndef JAAVR_MODEL_FIELD_COSTS_HH
#define JAAVR_MODEL_FIELD_COSTS_HH

#include <cstdint>

#include "avr/timing.hh"
#include "nt/opf_prime.hh"

namespace jaavr
{

/** Cycle cost of each field operation on a given processor mode. */
struct FieldCycleCosts
{
    uint64_t add = 0;
    uint64_t sub = 0;
    uint64_t mul = 0;
    uint64_t sqr = 0;       ///< = mul: the library has no dedicated squaring
    uint64_t mulSmall = 0;  ///< multiplication by a <= 16-bit constant
    uint64_t inv = 0;       ///< full field inversion (Kaliski-style)

    /**
     * Fixed overhead charged per field-operation call: CALL/RET,
     * pointer setup and register spills around the assembly routine
     * (calibration documented in EXPERIMENTS.md).
     */
    uint64_t callOverhead = 40;
};

/**
 * Measure the costs for an OPF prime in the given mode by running the
 * generated routines on the ISS. Results are cached per (u, k, mode).
 *
 * Derived entries:
 *  - sqr = mul (the paper's library multiplies; Table I lists no
 *    separate squaring);
 *  - mulSmall = 0.28 * mul (paper, Section II-B: 0.25-0.3 M);
 *  - inv = the mean measured cycles of several runs of the generated
 *    Kaliski-inverse routine (data-dependent loop; see
 *    avrgen/opf_routines.hh).
 */
const FieldCycleCosts &opfFieldCosts(const OpfPrime &prime, CpuMode mode);

/**
 * Costs for the standardized secp160r1 field, measured the same way
 * on its generated routine set (product scanning + the dedicated
 * 2^160 = 2^31 + 1 reduction; see avrgen/secp160_routines.hh) and
 * cached per mode; the entries derive as above. The paper evaluates
 * secp160r1 only on the plain ATmega128 (CA); all modes are provided
 * for completeness — the additive reduction is exactly why this
 * field profits less from the MAC unit than the OPFs do.
 */
const FieldCycleCosts &secp160r1FieldCosts(CpuMode mode);

} // namespace jaavr

#endif // JAAVR_MODEL_FIELD_COSTS_HH
