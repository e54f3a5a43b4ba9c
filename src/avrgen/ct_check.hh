/**
 * @file
 * Static constant-time checker for the generated AVR routines.
 *
 * The checker walks an assembled flash image with a secret-taint
 * lattice: registers, SREG flags and data-memory bytes are each
 * either public or secret-tainted, taint flows through every modeled
 * instruction, and both successors of every branch are always
 * explored (the walk is a dataflow fixpoint, not an execution). A
 * form that touches only registers and flags passes the taint of what
 * its ISA row (avr/isa.hh) says it reads to what the row says it
 * writes; the values the walk knows, which it needs for pointers and
 * MACCR, come from running the form on a scratch Machine. A
 * routine violates its timing contract when a *secret-tainted* value
 * reaches a timing-relevant sink:
 *
 *  - a conditional branch on a tainted SREG flag (BRBS/BRBC),
 *  - a skip on a tainted register (SBRC/SBRS/CPSE),
 *  - a load/store whose effective address is tainted (SRAM access
 *    patterns are observable through cache-less bus traces just as
 *    branches are through cycle counts — see src/avr/leakage.*),
 *  - an indirect jump/call through a tainted Z (IJMP/ICALL).
 *
 * Two contracts exist. ConstantTime is the paper's claim for the OPF
 * add/sub/mul routines; the only tolerated findings are the
 * explicitly waived final-fold ripple branches (Section III-A: the
 * carry ripples into the zero middle words with probability 2^-32,
 * and the paper takes the branch over a 2^-32 timing channel).
 * VariableTime documents the concession the paper itself makes for
 * the Kaliski inverse (Section V-B) and the secp160r1 pseudo-Mersenne
 * fold: secret-dependent *branches* are accepted as the algorithm's
 * nature, but tainted addresses/indirect jumps still fail — those are
 * never part of the algorithms' contract.
 *
 * The checker is conservative: statically unresolvable values are
 * treated as tainted, unsupported instructions are findings, and the
 * memory taint map only grows (an outer fixpoint re-runs the walk
 * until the map is stable), so a "pass" is a proof under the model,
 * not a heuristic. The model tracks *explicit* flows only: a value
 * written under secret-dependent control flow is not itself tainted
 * (implicit flows). That is the right precision here — every branch
 * that creates such control dependence is already reported as a
 * TaintedBranch at its own site, so the channel is never silent; it
 * is merely attributed to the branch rather than to every value
 * downstream of it. tools/jaavr-ctcheck drives this over every shipped
 * routine and emits CT_report.json.
 */

#ifndef JAAVR_AVRGEN_CT_CHECK_HH
#define JAAVR_AVRGEN_CT_CHECK_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jaavr
{

/** Timing contract a routine is checked against. */
enum class CtContract : uint8_t
{
    ConstantTime, ///< no secret-dependent control flow or addresses
    VariableTime, ///< secret branches conceded; addresses still checked
};

/** Classification of one finding site. */
enum class CtFindingClass : uint8_t
{
    TaintedBranch,   ///< BRBS/BRBC on a secret-tainted flag
    TaintedSkip,     ///< SBRC/SBRS/CPSE on secret-tainted registers
    TaintedAddress,  ///< load/store through a secret-tainted address
    TaintedIndirect, ///< IJMP/ICALL through a secret-tainted Z
    Unsupported,     ///< instruction or state the model cannot prove
};

const char *ctContractName(CtContract c);
const char *ctFindingClassName(CtFindingClass c);

/** One deduplicated finding site (unique per (pc, class)). */
struct CtFinding
{
    uint32_t pc = 0;      ///< flash word address of the instruction
    CtFindingClass cls = CtFindingClass::Unsupported;
    std::string disasm;   ///< disassembly of the offending instruction
    bool waived = false;  ///< tolerated under the routine's contract
};

/** A byte range of data memory holding secret input. */
struct CtSecretRange
{
    uint16_t addr = 0;
    uint16_t len = 0;
};

/** What to check: entry point, contract, secrets, entry registers. */
struct CtCheckSpec
{
    std::string routine;  ///< name for the report
    uint32_t entry = 0;   ///< flash word address to start the walk at
    CtContract contract = CtContract::ConstantTime;
    std::vector<CtSecretRange> secrets;
    /** Concrete register values at entry ((index, value) pairs) —
     *  the harness calling convention (Y = &a, Z = &b). */
    std::vector<std::pair<uint8_t, uint8_t>> entryRegs;
    /**
     * ConstantTime only: number of distinct TaintedBranch sites that
     * are waived as the final-fold ripple shortcut. The waiver is
     * exact — if the routine has *more* tainted branch sites than
     * this, none are waived and the check fails, so a new
     * secret-dependent branch can never hide behind the allowance.
     */
    unsigned waivedBranches = 0;
};

/** Result of checking one routine. */
struct CtReport
{
    std::string routine;
    CtContract contract = CtContract::ConstantTime;
    bool pass = false;
    std::vector<CtFinding> findings; ///< sorted by pc, deduplicated
    uint64_t instsAnalyzed = 0;      ///< distinct (pc, callstack) states
    uint64_t memPasses = 0;          ///< outer memory-fixpoint rounds

    size_t waivedCount() const;
    size_t violationCount() const; ///< findings not waived
};

/**
 * Run the taint walk over @p flash (word-addressed image, as loaded
 * by Machine::loadProgram) according to @p spec.
 */
CtReport ctCheck(const std::vector<uint16_t> &flash,
                 const CtCheckSpec &spec);

} // namespace jaavr

#endif // JAAVR_AVRGEN_CT_CHECK_HH
