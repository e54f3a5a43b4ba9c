/**
 * @file
 * Generators for the secp160r1 field-arithmetic assembly — the
 * "separate set of assembly-optimized functions" the paper uses for
 * its standardized reference curve (Section V-B): Gura-style hybrid
 * multiplication followed by the dedicated pseudo-Mersenne reduction
 * for p = 2^160 - 2^31 - 1 (2^160 = 2^31 + 1 mod p, so the high half
 * of the product folds in with shifts and additions, not
 * multiplications — which is also why this prime profits less from
 * the MAC unit than an OPF does).
 *
 * Same calling convention as the OPF routines: Y = &a, Z = &b, result
 * at OpfMemoryMap::resultAddr, values incompletely reduced in
 * [0, 2^160).
 */

#ifndef JAAVR_AVRGEN_SECP160_ROUTINES_HH
#define JAAVR_AVRGEN_SECP160_ROUTINES_HH

#include <cstdint>
#include <string>

namespace jaavr
{

/** Extra scratch areas used by the secp160r1 multiplication. */
struct Secp160MemoryMap
{
    static constexpr uint16_t tBufAddr = 0x02c0;  ///< 320-bit product
    static constexpr uint16_t wBufAddr = 0x02f0;  ///< first fold (24 B)
    static constexpr uint16_t hsBufAddr = 0x0310; ///< h >> 1 scratch
};

/** Modular addition (subtraction when @p subtract). */
std::string genSecp160AddSub(bool subtract);

/**
 * Plain (non-Montgomery) modular multiplication: 160x160-bit product
 * scanning followed by the two-level 2^160 = 2^31 + 1 fold.
 */
std::string genSecp160Mul();

/**
 * The MAC-accelerated variant (requires CpuMode::ISE): the 25 product
 * blocks run on the (32x4)-bit MAC unit via Algorithm 2, but the
 * reduction remains additive — the ablation data point quantifying
 * how much of the OPF advantage comes from the multiplicative
 * reduction (bench_ablation_opf).
 */
std::string genSecp160MulIse();

/** Kaliski inverse for this prime (a^-1 * 2^160 mod p). */
std::string genSecp160Inverse();

} // namespace jaavr

#endif // JAAVR_AVRGEN_SECP160_ROUTINES_HH
