/**
 * @file
 * Superblock translation cache for the trace-threaded ISS backend
 * (DESIGN.md §11).
 *
 * A superblock is a straight-line trace of predecoded instructions
 * keyed by its entry PC and, in ISE mode, by the MAC state at entry
 * (MACCR's two mode bits and the pending Algorithm-2 shadow).
 * Translation walks the decode cache from the entry, stitching across
 * direct control transfers (RJMP/JMP become zero-work "ghost"
 * retirements, RCALL/CALL continue into the callee), turning
 * conditional branches and SBRS into side exits, and terminating on
 * RET, the exit sentinel, a revisited PC (loop back-edge) or the
 * length cap. In ISE mode it follows the shadow along the trace, so
 * LDD Z triggers, SWAP triggers and stall NOPs are trace elements.
 *
 * Only the instruction forms the generated field routines execute
 * have handlers. Every other form, an undecodable word and a MAC
 * hazard end the trace in a STEP element, which runs that one
 * instruction through Machine::execute(), the reference semantics,
 * and so raises the trap itself where there is one.
 *
 * A backward flag-liveness pass over the finished trace then gives
 * each flag-writing element the handler variant that computes only
 * the SREG flags something reads before they are overwritten (C only
 * or none), where its op has one (DESIGN.md §11, "Flag liveness").
 * A forward scan after it fuses the native multiplier's two ALU
 * idioms, `mul; add; adc; adc` and `add; clr; rol`, where the pass
 * left them computing at most the last member's C: the group's first
 * element gets a superinstruction handler that does every member's
 * work and skips the rest, which stay in the trace undispatched
 * (DESIGN.md §11, "Superinstructions").
 *
 * Execution (Machine::runSuperblock in superblock.cc) dispatches the
 * trace through computed-goto threading; each SbInst carries its
 * handler label plus pre-extracted operands, and cycle/instruction
 * statistics accumulate block-at-a-time from the per-exit prefix
 * sums instead of per instruction.
 *
 * Invalidation is conservative: any flash mutation
 * (Machine::loadProgram, Machine::corruptFlashWord — which is what
 * the GDB `M`/`X` flash-patch path and the fault injector's
 * OpcodeCorrupt use) drops every translated block. Flash cannot
 * change while the superblock loop itself is running (it only runs
 * when no attached ExecObserver wants more than traps, so no fault
 * hook can fire), so invalidation never races a trace in flight.
 */

#ifndef JAAVR_AVR_SUPERBLOCK_HH
#define JAAVR_AVR_SUPERBLOCK_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace jaavr
{

class Machine;

/**
 * Superblock handler kinds: one per instruction form the generated
 * field routines execute (DESIGN.md §11, "The handler set"). The
 * synonym encodings ROL/TST/CLR (see Synonym in avr/isa.hh) get their
 * own single-operand handlers; SKIP_SBRS and BRBS/BRBC carry
 * precomputed taken-exit metadata; GHOST is a stitched RJMP/JMP
 * (retires, costs only its predecoded cycles, no runtime control
 * transfer); CALL_THROUGH is a stitched RCALL/CALL; EXIT_* terminate
 * the trace. The ISE-only elements are the Algorithm-2 trigger
 * LDD_Z_MAC (the load plus its two MACs), the Algorithm-1 SWAP_MAC
 * and NOP_STALL (a NOP retired under a live shadow). EXIT_STATIC and
 * EXIT_SHADOW (EXIT_STATIC with a pending shadow) do not retire. STEP
 * hands its instruction to Machine::execute() and ends the trace.
 * MUL_ADD_ADC_ADC and ADD_CLR_ROL are the superinstructions: each
 * heads a group of sbGroupSize() elements, its members, and retires
 * all of them.
 */
#define JAAVR_SB_OPS(X)                                                  \
    X(ADD) X(ADC) X(SUB) X(SBC) X(AND) X(OR) X(MOV) X(CP) X(CPC)         \
    X(ROL) X(TST) X(CLR) X(MUL) X(MOVW)                                  \
    X(SUBI) X(SBCI) X(ANDI) X(LDI) X(ADIW) X(SBIW)                       \
    X(COM) X(NEG) X(LSR) X(ROR) X(BCLR) X(OUT)                           \
    X(SKIP_SBRS) X(LDD_Y) X(LDD_Z) X(LDS) X(STS)                         \
    X(GHOST) X(CALL_THROUGH) X(BRBS) X(BRBC)                             \
    X(EXIT_RET) X(EXIT_STATIC) X(EXIT_SHADOW)                            \
    X(LDD_Z_MAC) X(SWAP_MAC) X(NOP_STALL)                                \
    X(STEP)                                                              \
    X(MUL_ADD_ADC_ADC) X(ADD_CLR_ROL)

/**
 * Flag writers with a handler per flag mask the liveness pass selects
 * for them in the generated field routines: `op` computes every flag
 * it writes, `op_C` only C and `op_0` none. The ops of
 * JAAVR_SB_FLAG_OPS_C0 have both reduced handlers, those of
 * JAAVR_SB_FLAG_OPS_0 only `op_0`. Every other flag writer, and these
 * ops wherever the pass keeps a mask they have no handler for, always
 * computes all its flags.
 */
#define JAAVR_SB_FLAG_OPS_C0(X) X(ADD) X(ADC) X(COM)
#define JAAVR_SB_FLAG_OPS_0(X) X(ROL) X(SBC) X(MUL) X(CLR)

enum class SbOp : uint8_t
{
#define X(n) n,
    JAAVR_SB_OPS(X)
#undef X
#define X(n) n##_C, n##_0,
    JAAVR_SB_FLAG_OPS_C0(X)
#undef X
#define X(n) n##_0,
    JAAVR_SB_FLAG_OPS_0(X)
#undef X
    Count ///< number of handler kinds; sizes the dispatch label table
};

constexpr std::size_t kNumSbOps = static_cast<std::size_t>(SbOp::Count);

/** Trace elements handler @p h covers: its group for a superinstruction. */
constexpr std::size_t
sbGroupSize(SbOp h)
{
    return h == SbOp::MUL_ADD_ADC_ADC ? 4 : h == SbOp::ADD_CLR_ROL ? 3 : 1;
}

/**
 * ISE block key: MACCR's two mode bits plus the Algorithm-2 shadow
 * (0..2 cycles) pending at block entry. Every CA/FAST block has key 0.
 */
constexpr uint8_t
sbMacKey(uint8_t maccr, uint8_t shadow)
{
    return static_cast<uint8_t>((maccr & 3) | shadow << 2);
}

/**
 * One translated trace element (32 bytes): the dispatch label,
 * pre-extracted operands, and the accounting prefix. prefixCycles is
 * the sum of the base cycle costs of every preceding element of the
 * trace (all of which retire), so a trap or side exit at this
 * element charges exactly the retired prefix in O(1); retiring exits
 * add their own `cycles` (plus `extra` when a branch or skip is
 * taken) on top.
 *
 * `pc` is the program counter of the instruction; for the
 * non-retiring exits it is the continuation PC. Translation guarantees that for every retiring non-terminal
 * element, the next element's `pc` equals this instruction's static
 * fall-through successor — which is where the MACCR side exit resumes
 * after a store rewrites the MAC control register.
 *
 * `sh` is the MAC shadow pending before the element, known at
 * translate time (always 0 outside ISE). Non-retiring exits and STEP
 * publish it; a retiring exit always publishes 0, because every
 * retiring exit (RET, a taken branch or skip) costs at least 2
 * cycles, the longest shadow.
 *
 * `flags` is the set of arithmetic SREG flags (C Z N V S H) the
 * element's handler computes: every flag it writes, or the subset
 * the liveness pass kept. The handler leaves the others stale. The
 * elements of a superinstruction's group keep the masks the pass
 * chose; the fused handler commits only the last member's C, which
 * may be dead too.
 */
struct SbInst
{
    void *lbl = nullptr;      ///< computed-goto handler
    uint32_t pc = 0;          ///< program PC (pseudos: continuation PC)
    uint32_t target = 0;      ///< taken-branch / skip target PC
    uint32_t prefixCycles = 0;///< base cycles retired before this element
    uint16_t imm = 0;         ///< immediate / I/O address / LDD disp
    uint16_t addr = 0;        ///< LDS/STS address; return PC
    uint8_t op = 0;           ///< architectural Op (for op_count[])
    uint8_t a = 0;            ///< rd / SREG bit
    uint8_t b = 0;            ///< rr / SBRS bit number
    uint8_t cycles = 0;       ///< predecoded base cycle cost
    uint8_t extra = 0;        ///< taken-SBRS extra cycles (skipExtra)
    uint8_t sh = 0;           ///< MAC shadow pending before this element
    uint8_t flags = 0;        ///< SREG flags the handler computes
};
static_assert(sizeof(SbInst) == 32, "SbInst is one half cache line");

/** A translated superblock: the trace plus its budget envelope. */
struct SbBlock
{
    uint32_t entry = 0;
    /** sbMacKey() of the MAC state the trace was translated for. */
    uint8_t macKey = 0;
    /**
     * Upper bound on the cycles one pass through the trace can
     * consume (total base cost + the largest single exit extra).
     * runSuperblock() pre-checks `consumed + maxCycles` against the
     * budget and hands a budget-critical pass, and the rest of the
     * run, to the reference loop, which places the CycleBudget trap
     * with per-instruction precision.
     */
    uint32_t maxCycles = 0;
    /** Next block with the same entry PC and another MAC key (ISE). */
    SbBlock *next = nullptr;
    std::vector<SbInst> code;

    /** MAC shadow pending at entry. */
    uint8_t entryShadow() const { return macKey >> 2; }
};

/**
 * Entry-keyed cache of translated superblocks. Lookup is a flat table
 * indexed by PC word (one pointer per flash word) so the hot path is
 * a single dependent load; the ISE blocks of one PC chain through
 * SbBlock::next by MAC key. Ownership lives in a side vector.
 */
class SuperblockCache
{
  public:
    /** Trace length cap (elements, stitched ghosts/calls included). */
    static constexpr size_t kMaxInsts = 1024;
    /** Block-count cap; translation past it drops the whole cache. */
    static constexpr size_t kMaxBlocks = 4096;

    SuperblockCache();

    /** First block entered at @p pc (the only one outside ISE). */
    SbBlock *lookup(uint32_t pc) const { return table[pc & 0xffff]; }

    /** Block entered at @p pc under MAC key @p key, or nullptr. */
    SbBlock *
    lookup(uint32_t pc, uint8_t key) const
    {
        SbBlock *b = table[pc & 0xffff];
        while (b && b->macKey != key)
            b = b->next;
        return b;
    }

    /**
     * Translate (and cache) the superblock entered at @p pc under MAC
     * key @p key from @p m's decode cache. @p labels maps SbOp to the
     * computed-goto handler addresses of the executing run loop.
     */
    SbBlock *translate(const Machine &m, uint32_t pc, uint8_t key,
                       void *const *labels);

    /** Drop every translated block (flash changed). */
    void invalidateAll();

    /** Number of live translated blocks (telemetry/tests). */
    size_t size() const { return blocks.size(); }

  private:
    std::vector<SbBlock *> table;
    std::vector<std::unique_ptr<SbBlock>> blocks;
};

} // namespace jaavr

#endif // JAAVR_AVR_SUPERBLOCK_HH
