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
 * conditional branches and skips into side exits, and terminating on
 * indirect control flow (RET/RETI/IJMP/ICALL), undecodable words, the
 * exit sentinel, a revisited PC (loop back-edge), a MAC hazard or the
 * length cap. In ISE mode it follows the shadow along the trace, so
 * MAC triggers, stall NOPs and hazard traps are trace elements.
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
 * Superblock handler kinds. The synonym encodings (LSL/ROL/TST/CLR,
 * see Synonym in avr/isa.hh) get their own specialized single-operand
 * handlers; SKIP_* and BRBS/BRBC carry precomputed taken-exit
 * metadata; GHOST is a stitched RJMP/JMP (retires, costs only its
 * predecoded cycles, no runtime control transfer); CALL_THROUGH is a
 * stitched RCALL/CALL; EXIT_* terminate the trace. The ISE-only
 * elements are the Algorithm-2 trigger loads (*_MAC: the load plus
 * its two MACs), the Algorithm-1 SWAP_MAC, NOP_STALL (a NOP retired
 * under a live shadow) and MAC_HAZARD. EXIT_STATIC, EXIT_SHADOW
 * (EXIT_STATIC with a pending shadow), EXIT_TRAP and MAC_HAZARD are
 * pseudo-instructions that do not retire. MUL_ADD_ADC_ADC and
 * ADD_CLR_ROL are the superinstructions: each heads a group of
 * sbGroupSize() elements, its members, and retires all of them.
 */
#define JAAVR_SB_OPS(X)                                                  \
    X(ADD) X(ADC) X(SUB) X(SBC) X(AND) X(OR) X(EOR) X(MOV)               \
    X(CP) X(CPC)                                                         \
    X(LSL) X(ROL) X(TST) X(CLR)                                          \
    X(MUL) X(MULS) X(MULSU) X(FMUL) X(FMULS) X(FMULSU) X(MOVW)           \
    X(SUBI) X(SBCI) X(ANDI) X(ORI) X(CPI) X(LDI)                         \
    X(ADIW) X(SBIW)                                                      \
    X(COM) X(NEG) X(SWAP) X(INC) X(DEC) X(ASR) X(LSR) X(ROR)             \
    X(BSET) X(BCLR) X(BLD) X(BST)                                        \
    X(SBI) X(CBI) X(IN) X(OUT)                                           \
    X(SKIP_SBIC) X(SKIP_SBIS) X(SKIP_CPSE) X(SKIP_SBRC) X(SKIP_SBRS)     \
    X(LD_X) X(LD_X_INC) X(LD_X_DEC)                                      \
    X(LDD_Y) X(LD_Y_INC) X(LD_Y_DEC)                                     \
    X(LDD_Z) X(LD_Z_INC) X(LD_Z_DEC)                                     \
    X(LDS)                                                               \
    X(ST_X) X(ST_X_INC) X(ST_X_DEC)                                      \
    X(STD_Y) X(ST_Y_INC) X(ST_Y_DEC)                                     \
    X(STD_Z) X(ST_Z_INC) X(ST_Z_DEC)                                     \
    X(STS)                                                               \
    X(PUSH) X(POP) X(LPM_R0) X(LPM) X(LPM_INC)                           \
    X(NOPLIKE)                                                           \
    X(GHOST) X(CALL_THROUGH)                                             \
    X(BRBS) X(BRBC)                                                      \
    X(EXIT_RET) X(EXIT_RETI) X(EXIT_IJMP) X(EXIT_ICALL)                  \
    X(EXIT_STATIC) X(EXIT_TRAP)                                          \
    X(LD_X_MAC) X(LD_X_INC_MAC) X(LD_X_DEC_MAC)                          \
    X(LDD_Y_MAC) X(LD_Y_INC_MAC) X(LD_Y_DEC_MAC)                         \
    X(LDD_Z_MAC) X(LD_Z_INC_MAC) X(LD_Z_DEC_MAC)                         \
    X(LDS_MAC)                                                           \
    X(SWAP_MAC) X(NOP_STALL) X(EXIT_SHADOW) X(MAC_HAZARD)               \
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
 * non-retiring pseudo-instructions it is the continuation / faulting
 * PC. Translation guarantees that for every retiring non-terminal
 * element, the next element's `pc` equals this instruction's static
 * fall-through successor — which is where the MACCR side exit resumes
 * after a store rewrites the MAC control register.
 *
 * `sh` is the MAC shadow pending before the element, known at
 * translate time (always 0 outside ISE). Non-retiring exits publish
 * it; a retiring exit always publishes 0, because every retiring exit
 * (RET/RETI/IJMP/ICALL, a taken branch or skip) costs at least 2
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
    uint16_t addr = 0;        ///< LDS/STS address; return PC; hazard detail
    uint8_t op = 0;           ///< architectural Op (for op_count[])
    uint8_t a = 0;            ///< rd / SREG bit
    uint8_t b = 0;            ///< rr / bit number
    uint8_t cycles = 0;       ///< predecoded base cycle cost
    uint8_t extra = 0;        ///< taken-skip extra cycles (skipExtra)
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
