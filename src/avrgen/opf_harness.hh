/**
 * @file
 * Harness binding a generated field-routine set to the JAAVR machine
 * model: assembles the routines, loads them into flash, marshals
 * operands, and measures cycle counts. One class serves both sets,
 * the OPF routines behind Table I and the secp160r1 reference set,
 * and runs the x-only Montgomery ladder (curves/ladder.hh) on the ISS
 * for the fault and side-channel campaigns.
 */

#ifndef JAAVR_AVRGEN_OPF_HARNESS_HH
#define JAAVR_AVRGEN_OPF_HARNESS_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "avrasm/symbol_table.hh"
#include "avrgen/opf_routines.hh"
#include "curves/ladder.hh"
#include "field/opf_field.hh"

namespace jaavr
{

/** Result of running one routine on the simulator. */
struct OpfRun
{
    OpfField::Words result;
    uint64_t cycles;
    uint64_t instructions = 0; ///< dynamic instructions retired
    Trap trap;                 ///< ISS trap, kind None on a clean run
};

/** Result of OpfAvrLibrary::ladder. */
struct OpfLadderRun
{
    /** After the final swap, or where a trap or the hook stopped it. */
    LadderState<OpfField::Words> state;
    Trap trap; ///< first trap of any routine, kind None on a clean run
};

class OpfAvrLibrary
{
  public:
    /**
     * Assemble the routines for @p prime and load them into a machine
     * in @p mode. The multiplication uses the MAC-unit variant when
     * the mode is ISE, the native variant otherwise.
     */
    OpfAvrLibrary(const OpfPrime &prime, CpuMode mode);

    /**
     * The secp160r1 routine set (avrgen/secp160_routines.hh): plain
     * modular mul, Kaliski inverse a^-1 * 2^160; in ISE mode also the
     * MAC-product multiplication behind mulIse().
     */
    static OpfAvrLibrary secp160r1(CpuMode mode);

    /** a + b (mod p), incompletely reduced; measured on the ISS. */
    OpfRun add(const OpfField::Words &a, const OpfField::Words &b);

    /** a - b (mod p). */
    OpfRun sub(const OpfField::Words &a, const OpfField::Words &b);

    /** Montgomery product a * b * R^-1 (plain a * b for secp160r1). */
    OpfRun mul(const OpfField::Words &a, const OpfField::Words &b);

    /** Montgomery-domain inverse a^-1 * 2^n (mod p), n = 32 s. */
    OpfRun inv(const OpfField::Words &a);

    /**
     * The secp160r1 MAC-product multiplication (ISE mode only; panics
     * otherwise). Used by the OPF ablation.
     */
    OpfRun mulIse(const OpfField::Words &a, const OpfField::Words &b);

    /**
     * montLadder() over OpfFieldOps with every field operation a
     * routine run on the ISS. The first trap is recorded and the
     * ladder stops ahead of the next step (the trapping step finishes
     * its calls); @p before is the ladder's hook and may stop it too.
     */
    OpfLadderRun
    ladder(const OpfField::Words &a24m, const OpfField::Words &x1m,
           const BigUInt &k, unsigned kbits,
           LadderState<OpfField::Words> start,
           const std::function<bool(unsigned,
                                    const LadderState<OpfField::Words> &)>
               &before = nullptr);

    /** Flash footprint of add, sub, mul and inv (paper: "ROM bytes"). */
    size_t romBytes() const;

    /** Underlying machine (for statistics inspection). */
    Machine &machine() { return *machine_; }

    /** Symbols of the loaded routines (for profiler attribution). */
    SymbolTable symbols() const;

    /** Flash word address the inverse is assembled for and loaded at. */
    static constexpr uint32_t invEntry = 0x4000;

  private:
    /** The routine table: index, symbol suffix and load address. */
    enum Routine : unsigned { Add, Sub, Mul, Inv, MulIse };
    static constexpr const char *kSuffix[] = {"_add", "_sub", "_mul",
                                              "_inv", "_mul_ise"};
    static constexpr uint32_t kEntry[] = {0x0000, 0x1000, 0x2000,
                                          invEntry, 0x6000};

    /**
     * Assemble and load @p src, indexed by Routine (MulIse optional),
     * as "<prefix>_add", ... over @p words-word operands.
     */
    OpfAvrLibrary(CpuMode mode, size_t words, const std::string &prefix,
                  const std::vector<std::string> &src);

    OpfRun run(Routine r, const OpfField::Words &a,
               const OpfField::Words &b);

    size_t s;
    std::string prefix;
    std::unique_ptr<Machine> machine_;
    std::vector<Program> progs; ///< indexed by Routine
};

} // namespace jaavr

#endif // JAAVR_AVRGEN_OPF_HARNESS_HH
