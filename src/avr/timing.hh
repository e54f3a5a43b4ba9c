/**
 * @file
 * Cycle timing of the two JAAVR operating modes (paper, Section IV):
 *
 *  - CA ("cycle accuracy" on): identical CPI to a stock ATmega128,
 *    taken from the datasheet instruction-set summary;
 *  - FAST (cycle accuracy off): loads, stores, push/pop and the
 *    multiplier complete in a single cycle.
 *
 * The ISE mode uses FAST timing; the MAC unit itself adds no cycles
 * (it retires in the shadow of the triggering instruction). The
 * per-form counts are the CA and FAST columns of the ISA rows
 * (avr/isa.hh).
 */

#ifndef JAAVR_AVR_TIMING_HH
#define JAAVR_AVR_TIMING_HH

#include <array>

#include "avr/isa.hh"

namespace jaavr
{

/** Processor timing/feature mode (Tables I and III). */
enum class CpuMode
{
    CA,   ///< ATmega128-compatible cycle timing
    FAST, ///< JAAVR improved CPI
    ISE,  ///< FAST + the (32x4)-bit MAC unit enabled
};

const char *cpuModeName(CpuMode mode);

/**
 * Base cycle count of @p op in @p mode (the CA or FAST column of its
 * ISA row), excluding control-flow penalties (branch taken / skip
 * taken are added by the core).
 */
constexpr unsigned
baseCycles(Op op, CpuMode mode)
{
    return mode == CpuMode::CA ? isaForm(op).ca : isaForm(op).fast;
}

/**
 * Flat per-op table of baseCycles() for @p mode, indexed by
 * static_cast<size_t>(op): what the Machine's predecoder and the
 * superblock's statistics flush consult.
 */
const std::array<uint8_t, kNumOps> &baseCycleTable(CpuMode mode);

/** Extra cycles when a branch is taken (BRBS/BRBC). */
constexpr unsigned branchTakenExtra = 1;

/**
 * Extra cycles when a skip instruction (CPSE/SBRC/SBRS/SBIC/SBIS)
 * skips: 1 for a one-word target, 2 for a two-word target.
 */
unsigned skipExtra(bool two_word_target);

} // namespace jaavr

#endif // JAAVR_AVR_TIMING_HH
