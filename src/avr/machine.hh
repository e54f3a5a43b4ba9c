/**
 * @file
 * The JAAVR machine model: an ATmega128-compatible AVR core with the
 * three operating modes of the paper (CA / FAST / ISE) and the
 * (32 x 4)-bit MAC instruction-set extension.
 *
 * Memory map (ATmega128 data space):
 *   0x0000-0x001f  general-purpose registers R0..R31
 *   0x0020-0x005f  I/O space (SPL/SPH/SREG at 0x5d/0x5e/0x5f;
 *                  the MACCR extension register at 0x005c, I/O 0x3c)
 *   0x0100-0xffff  SRAM
 */

#ifndef JAAVR_AVR_MACHINE_HH
#define JAAVR_AVR_MACHINE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "avr/isa.hh"
#include "avr/mac_unit.hh"
#include "avr/timing.hh"

namespace jaavr
{

class Machine;
class MetricsRegistry;
class SuperblockCache;

/**
 * Execution backend selected for run()/call() (see DESIGN.md §6 and
 * §11): Reference is the step() loop, one decode per instruction;
 * Superblock the trace-translating threaded-dispatch loop built on
 * top of the decode cache. Superblock is the default. An observed
 * run (see ExecObserver) always takes the reference loop.
 * Overridable via JAAVR_ISS_BACKEND=reference|superblock.
 */
enum class IssBackend : uint8_t
{
    Reference,
    Superblock,
};

/** Short stable name for @p backend ("reference", ...). */
const char *issBackendName(IssBackend backend);

/**
 * Reason a run stopped before reaching the exit sentinel. Every
 * anomaly the ISS previously panic()-aborted on is now a recoverable
 * trap so a fault-injection campaign can run tens of thousands of
 * perturbed executions in one process (see DESIGN.md, "Fault model
 * & hardening").
 */
enum class TrapKind : uint8_t
{
    None = 0,
    IllegalOpcode,    ///< undecodable (reserved) opcode word
    FlashOutOfBounds, ///< PC reached erased flash (left the program)
    SramOutOfBounds,  ///< data access beyond Machine::dataLimit()
    StackOverflow,    ///< push below Machine::stackGuard()
    CycleBudget,      ///< run()/call() cycle budget exhausted
    MacHazard,        ///< Algorithm-2 MAC shadow-register violation
    DebugBreak,       ///< an ExecObserver stopped at a boundary
};

/** Short stable name for @p kind ("illegal_opcode", ...). */
const char *trapKindName(TrapKind kind);

/**
 * A raised trap: the reason, the word address of the faulting
 * instruction (for CycleBudget: the next instruction), and a
 * kind-specific detail — the offending data address for
 * SramOutOfBounds/StackOverflow, the opcode word for
 * IllegalOpcode/FlashOutOfBounds, 1 for a back-to-back MacHazard.
 * The trapping instruction does not retire: PC, registers and
 * statistics are left as of just before it, identically in both
 * loops.
 */
struct Trap
{
    TrapKind kind = TrapKind::None;
    uint32_t pc = 0;
    uint16_t addr = 0;

    explicit operator bool() const { return kind != TrapKind::None; }
    bool operator==(const Trap &) const = default;

    /** One-line human-readable description. */
    std::string describe() const;
};

/**
 * Result of Machine::run()/call(): consumed cycles plus the trap
 * that stopped execution (kind None on a clean exit). Converts
 * implicitly to the cycle count so existing `uint64_t cycles =
 * m.call(...)` call sites keep working unchanged.
 */
struct RunResult
{
    uint64_t cycles = 0;
    Trap trap;

    bool ok() const { return trap.kind == TrapKind::None; }
    operator uint64_t() const { return cycles; }
};

/** Per-mnemonic execution statistics. */
struct ExecStats
{
    std::array<uint64_t, kNumOps> opCount{};
    std::array<uint64_t, kNumOps> opCycles{};
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    /**
     * Instructions run() retired through execute(), the reference
     * semantics: all of them on the reference loop, and on the
     * superblock loop those its STEP elements and budget handoffs ran.
     * A generated field routine leaves it at 0 on the superblock.
     */
    uint64_t referenceInstructions = 0;
    /** NOPs retired while MAC micro-ops were pending (hazard stalls). */
    uint64_t macStallNops = 0;
    /** Traps raised by run()/call(), indexed by TrapKind. */
    std::array<uint64_t, 8> trapCount{};

    uint64_t count(Op op) const
    {
        return opCount[static_cast<size_t>(op)];
    }

    /** Cycles consumed by all retirements of @p op. */
    uint64_t cyclesOf(Op op) const
    {
        return opCycles[static_cast<size_t>(op)];
    }

    /** Number of traps of @p kind raised by run()/call(). */
    uint64_t traps(TrapKind kind) const
    {
        return trapCount[static_cast<size_t>(kind)];
    }

    void reset() { *this = ExecStats(); }
};

/**
 * One predecoded flash word: the decoded instruction plus everything
 * the run loop would otherwise recompute per dynamic instruction
 * (base cycle cost for the machine's mode, MAC hazard metadata).
 * The Machine keeps one of these per flash word, refreshed
 * incrementally by loadProgram(); see DESIGN.md, "ISS execution
 * pipeline".
 */
struct DecodedInst
{
    Inst inst;
    uint8_t cycles = 1;       ///< baseCycles(inst.op, mode)
    bool touchesMac = false;  ///< reads/writes {R0..R8, R16..R19}
    bool macLoadForm = false; ///< isMacLoadForm(inst)
    Synonym synonym = Synonym::None; ///< canonicalized alias encoding
};

/**
 * The Algorithm-2 trigger shape: a data-space load into R24 in any
 * addressing form (LD X/Y/Z with post-increment or pre-decrement,
 * LDD, LDS). In MAC load mode exactly these instructions fire the two
 * shadow MACs and obey the back-to-back rule; step() and the
 * superblock translator both use this one predicate.
 */
inline bool
isMacLoadForm(const Inst &inst)
{
    return inst.rd == 24 && isLoadOp(inst.op);
}

/**
 * True if @p inst reads or writes a register of Algorithm 2's hazard
 * set {R0..R8, R16..R19}, as its ISA row lists them: by operand, or
 * by name (the MUL family's product in R1:R0, LPM's R0).
 */
inline bool
touchesMacRegs(const Inst &inst)
{
    return (regsTouched(inst) &
            (MacUnit::accRegs | MacUnit::operandRegs)) != 0;
}

/**
 * The one execution-observer interface: profilers, the debugger, the
 * fault injector, the VCD and leakage writers and the flight recorder
 * all watch a Machine through it (DESIGN.md §6).
 *
 * wants() names the events an observer takes, computed from its own
 * state. The Machine samples every attached observer's mask once per
 * run() and once per direct step(), never per instruction, and serves
 * observers in attach order. A run in which some observer wants an
 * event other than Traps is *observed*: it takes the step() reference
 * loop, the only loop that keeps the machine's state current at every
 * instruction boundary. An observer that wants nothing, or only
 * traps, leaves the superblock loop untouched at zero added cycles.
 *
 * Only onBoundary() may change the machine. An observer must outlive
 * the machine or detach before destruction.
 */
class ExecObserver
{
  public:
    enum Event : unsigned
    {
        Boundary = 1, ///< onBoundary() before every instruction
        Access = 2,   ///< onLoad()/onStore() for data-space accesses
        Retire = 4,   ///< onRetire() after every instruction
        CallRet = 8,  ///< onCall()/onRet()
        Traps = 16,   ///< onTrap() when run() stops on a trap
    };

    virtual ~ExecObserver() = default;

    /** The Event bits this observer wants now. */
    virtual unsigned wants() const = 0;

    /**
     * Instruction boundary: the instruction at @p pc is about to
     * execute, @p cycles is the cumulative cycle count. Return true
     * to stop the run before it with a DebugBreak trap (nothing
     * retires, later observers are not asked). A hook may perturb
     * @p m through its public API; if it moves the PC, the boundary
     * restarts at the new PC.
     */
    virtual bool onBoundary(Machine &, uint32_t /*pc*/, uint64_t /*cycles*/)
    {
        return false;
    }

    /** A data-space load from / store to @p addr is executing. */
    virtual void onLoad(uint16_t /*addr*/) {}
    virtual void onStore(uint16_t /*addr*/) {}

    /**
     * The instruction @p inst fetched from @p pc retired for @p cycles
     * cycles. @p m's state and statistics are current, so it began at
     * m.stats().cycles - cycles. For calls and returns this fires
     * before onCall()/onRet().
     */
    virtual void onRetire(const Machine &, uint32_t /*pc*/,
                          const Inst &, unsigned /*cycles*/)
    {
    }

    /**
     * A call retired: @p call_pc is the CALL/RCALL/ICALL's address
     * (Machine::exitAddress for the synthetic top-level call of
     * Machine::call), @p target the callee entry, @p cycles_after the
     * cumulative cycle count including the call (the callee's start).
     */
    virtual void onCall(uint32_t /*call_pc*/, uint32_t /*target*/,
                        uint64_t /*cycles_after*/)
    {
    }

    /**
     * A RET/RETI at @p ret_pc resumed execution at @p resume_pc;
     * @p cycles_after includes the return itself.
     */
    virtual void onRet(uint32_t /*ret_pc*/, uint32_t /*resume_pc*/,
                       uint64_t /*cycles_after*/)
    {
    }

    /** run()/call() stopped on @p trap, already counted in stats. */
    virtual void onTrap(const Machine &, const Trap &) {}
};

class Machine
{
  public:
    static constexpr uint32_t flashWords = 0x10000;
    static constexpr uint16_t ioBase = 0x20;
    static constexpr uint16_t sramBase = 0x0100;
    static constexpr uint32_t dataSpace = 0x10000;
    /** I/O address of the MAC control register (ASIP extension). */
    static constexpr uint8_t ioMaccr = 0x3c;
    /** Word address used as the top-level return sentinel. */
    static constexpr uint32_t exitAddress = 0xffff;

    explicit Machine(CpuMode mode);
    ~Machine();

    CpuMode mode() const { return cpuMode; }

    /** Copy @p words into flash at @p word_addr. */
    void loadProgram(const std::vector<uint16_t> &words,
                     uint32_t word_addr = 0);

    /** Clear registers, SREG, data memory and statistics (not flash). */
    void reset();

    // --- Register and memory access (for harnesses and tests) -------

    uint8_t reg(unsigned i) const { return regs[i]; }
    void setReg(unsigned i, uint8_t v) { regs[i] = v; }

    /** Little-endian register pair (i, i+1). */
    uint16_t regPair(unsigned i) const;
    void setRegPair(unsigned i, uint16_t v);

    void setX(uint16_t v) { setRegPair(26, v); }
    void setY(uint16_t v) { setRegPair(28, v); }
    void setZ(uint16_t v) { setRegPair(30, v); }
    uint16_t x() const { return regPair(26); }
    uint16_t y() const { return regPair(28); }
    uint16_t z() const { return regPair(30); }

    /** Data-space access; SRAM inline, registers and I/O out of line. */
    uint8_t
    readData(uint16_t addr) const
    {
        if (addr >= sramBase) [[likely]]
            return sram[addr - sramBase];
        return readRegIo(addr);
    }
    void
    writeData(uint16_t addr, uint8_t v)
    {
        if (addr >= sramBase) [[likely]]
            sram[addr - sramBase] = v;
        else
            writeRegIo(addr, v);
    }
    void writeBytes(uint16_t addr, const std::vector<uint8_t> &bytes);
    std::vector<uint8_t> readBytes(uint16_t addr, size_t len) const;

    uint16_t sp() const;
    void setSp(uint16_t v);
    uint8_t sreg() const { return sregBits; }
    void setSreg(uint8_t v) { sregBits = v; }
    uint32_t pc() const { return pcWord; }
    void setPc(uint32_t word_addr) { pcWord = word_addr & 0xffff; }

    /** Write MACCR (resets the MAC unit state, like an OUT would). */
    void setMaccr(uint8_t v);
    uint8_t maccr() const { return io[ioMaccr]; }

    // --- Execution ---------------------------------------------------

    /** Default runaway-program cycle budget for run()/call(). */
    static constexpr uint64_t defaultCycleBudget = 100000000ULL;

    /**
     * Execute one instruction; returns its cycle cost, or 0 with
     * trap() set if the instruction trapped (in which case nothing
     * retired: PC and statistics are unchanged). Clears any trap left
     * by a previous step()/run() first, so trap() always describes
     * this step.
     *
     * This is the *reference* path: it re-fetches and re-decodes the
     * flash words on every call and evaluates the mode/MAC branches at
     * run time. It is the independent oracle the superblock loop is
     * validated against (tests/test_superblock.cc). It samples the
     * observers' masks and serves their access, retire and call/return
     * events; traps reach observers only through run().
     */
    unsigned step();

    /**
     * Run from the current PC until it reaches exitAddress. Returns
     * the consumed cycles plus the trap that stopped execution, if
     * any; a CycleBudget trap is raised once @p max_cycles cycles
     * have been consumed (>= semantics: consuming exactly the budget
     * traps, identically in both loops).
     *
     * An observed run (see ExecObserver) or the Reference backend
     * runs the step() loop; every other run runs the superblock loop.
     * Observers that want traps hear of the stopping trap after it is
     * counted in stats(), on either loop.
     */
    RunResult run(uint64_t max_cycles = defaultCycleBudget);

    /**
     * Call the routine at @p word_addr: pushes the exit sentinel,
     * runs until the matching RET, returns the consumed cycles.
     * Trap/budget semantics as in run().
     */
    RunResult call(uint32_t word_addr,
                   uint64_t max_cycles = defaultCycleBudget);

    /** Trap raised by the last step()/run()/call(), kind None if
     *  execution completed cleanly. Cleared by run()/call()/reset(). */
    const Trap &trap() const { return pendingTrap; }

    // --- Memory protection bounds ------------------------------------

    /**
     * Highest valid data-space address for loads, stores, pushes and
     * pops; anything above raises SramOutOfBounds. Defaults to
     * 0x10ff, the top of the ATmega128's internal SRAM — addresses
     * beyond it have no physical memory and previously aliased the
     * simulator's oversized backing array silently.
     */
    uint16_t dataLimit() const { return dataLimitV; }
    void setDataLimit(uint16_t v) { dataLimitV = v; }

    /**
     * Lowest address the stack may push to; a push targeting an
     * address below it raises StackOverflow before the write (the
     * data segment stays intact). Defaults to sramBase.
     */
    uint16_t stackGuard() const { return stackGuardV; }
    void setStackGuard(uint16_t v) { stackGuardV = v; }

    /** Predecoded view of flash word @p word_addr (translator source). */
    const DecodedInst &decoded(uint32_t word_addr) const
    {
        return decodeCache[word_addr & (flashWords - 1)];
    }

    const ExecStats &stats() const { return execStats; }
    void resetStats() { execStats.reset(); }

    const MacUnit &mac() const { return macUnit; }

    /**
     * Attach @p obs behind the observers already attached (a no-op if
     * it is attached). Its mask is first sampled by the next run(),
     * call() or step(). Not callable from inside a hook.
     */
    void attach(ExecObserver *obs);

    /** Detach @p obs (a no-op if it is not attached). */
    void detach(ExecObserver *obs);

    /**
     * Publish execution telemetry into @p reg: instruction/cycle/
     * stall counters, per-TrapKind trap counters, MAC trigger counts
     * by algorithm, per-mnemonic retirement counters (nonzero only)
     * and PC/SP gauges. Purely additive — call between workloads to
     * accumulate, or after clear() for a fresh snapshot.
     */
    void publishMetrics(MetricsRegistry &reg) const;

    /** Raw flash word at @p word_addr (debugger/export accessor). */
    uint16_t flashWord(uint32_t word_addr) const
    {
        return flash[word_addr & (flashWords - 1)];
    }

    /**
     * XOR @p mask into the flash word at @p word_addr and refresh the
     * decode cache (this word and its predecessor, whose two-word
     * operand may have changed). Used by FaultInjector for opcode
     * corruption; XOR is involutive, so applying the same mask again
     * reverts the corruption.
     */
    void corruptFlashWord(uint32_t word_addr, uint16_t mask);

    /**
     * Execution backend for run()/call() (default Superblock unless
     * overridden by JAAVR_ISS_BACKEND in the environment). It governs
     * unobserved runs only: an observed run takes the reference loop
     * on either backend, so attaching an observer never changes
     * architectural state.
     */
    IssBackend backend() const { return backendV; }
    void setBackend(IssBackend b) { backendV = b; }

  private:
    // SREG bit indices.
    static constexpr unsigned fC = 0, fZ = 1, fN = 2, fV = 3, fS = 4,
                              fH = 5, fT = 6, fI = 7;

    bool flag(unsigned f) const { return (sregBits >> f) & 1; }
    void setFlag(unsigned f, bool v);

    void setZns(uint8_t r);
    void addFlags(uint8_t d, uint8_t s, uint8_t r);
    void subFlags(uint8_t d, uint8_t s, uint8_t r, bool keep_z);

    void push8(uint8_t v);
    uint8_t pop8();
    void pushPc(uint32_t pc);
    uint32_t popPc();

    /** Algorithm-2 trigger: apply the two shadow MACs for @p value. */
    void triggerLoadMac(uint8_t value);

    uint16_t fetch(uint32_t word_addr) const;

    /** Predecode the flash word pair at @p w0/@p w1 (cache fill). */
    DecodedInst makeDecoded(uint16_t w0, uint16_t w1) const;

    /** step() serving the masks as last sampled (no re-sampling). */
    unsigned execute();

    /**
     * Reference run loop: execute() per instruction, with the
     * observers' boundary hooks polled before each one. Serves every
     * observed run and the budget-critical tail of a superblock run.
     */
    void runReference(uint64_t max_cycles);

    /** Re-sample every attached observer's wants() and their union. */
    void sampleObservers();

    /** Call @p hook on each observer whose sampled mask has @p event. */
    template <typename Hook>
    void notify(unsigned event, Hook &&hook);

    /**
     * Superblock-threaded run loop (superblock.cc): translated
     * traces over the decode cache, keyed in ISE mode by the MAC
     * state at entry, executed via computed-goto threaded dispatch
     * with block-level statistics accumulation. Instructions without
     * a handler run through execute() (a STEP element), and a pass
     * that could cross the cycle budget hands the rest of the run to
     * runReference(); see DESIGN.md §11.
     */
    void runSuperblock(uint64_t max_cycles);

    /** readData()/writeData() below sramBase: registers and I/O. */
    uint8_t readRegIo(uint16_t addr) const;
    void writeRegIo(uint16_t addr, uint8_t v);

    friend class SuperblockCache;

    CpuMode cpuMode;
    std::array<uint8_t, 32> regs{};
    std::array<uint8_t, 0x40> io{};
    std::vector<uint8_t> sram;   ///< data space from sramBase up
    std::vector<uint16_t> flash;
    std::vector<DecodedInst> decodeCache; ///< one entry per flash word
    uint8_t sregBits = 0;
    uint32_t pcWord = 0;
    MacUnit macUnit;
    ExecStats execStats;
    /**
     * runSuperblock()'s per-op retirements and extra cycles since its
     * last flush into execStats. Every flush clears the entries it
     * folds, so they are all zero between runs and a run starts
     * without clearing them.
     */
    std::array<uint32_t, kNumOps> sbOpCount{};
    std::array<uint32_t, kNumOps> sbOpExtra{};
    struct Attached
    {
        ExecObserver *obs;
        unsigned wants; ///< obs->wants() as last sampled
    };
    std::vector<Attached> observers; ///< in attach order
    unsigned observedEvents = 0;     ///< union of the sampled masks
    Trap pendingTrap;
    uint16_t dataLimitV = 0x10ff; ///< top of ATmega128 internal SRAM
    uint16_t stackGuardV = sramBase;
    IssBackend backendV = IssBackend::Superblock;
    std::unique_ptr<SuperblockCache> sbCache; ///< lazily built traces
};

} // namespace jaavr

#endif // JAAVR_AVR_MACHINE_HH
