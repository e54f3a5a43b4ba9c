/**
 * @file
 * Superblock translation and the trace-threaded run loop
 * (DESIGN.md §11).
 *
 * Machine::runSuperblock() mirrors Machine::step() instruction for
 * instruction, and tests/test_superblock.cc pins the two loops to
 * bit- and cycle-identical state over all 65536 opcode words, seeded
 * MAC-unit program soups and the OPF workloads. step() stays the
 * independent oracle: the handlers below are a second, separately
 * written copy of its semantics for the instruction forms the
 * generated field routines execute, and a STEP element runs every
 * other form through execute() itself (DESIGN.md §11, "The handler
 * set"). What changes is the execution structure:
 *
 *  - dispatch is computed-goto threaded over pre-translated traces
 *    (SbInst carries the handler label and pre-extracted operands;
 *    labels-as-values is a GNU extension, like the unsigned __int128
 *    the rest of the tree already relies on);
 *  - statistics accumulate block-at-a-time: per-exit cycle prefixes
 *    replace the per-instruction `consumed/insts` updates, and the
 *    cycle budget is pre-checked against the block's worst case so
 *    the hot path carries no per-instruction budget test;
 *  - the PC is not materialized between instructions at all — only
 *    exits compute it, from translate-time constants;
 *  - SREG flags are computed only where something reads them: the
 *    translator's liveness pass picks each flag writer's handler
 *    variant, and SREG is exact at every exit and trap;
 *  - the native multiplier's product-scanning step `mul; add; adc;
 *    adc` and carry catch `add; clr; rol` are one dispatch each
 *    (superinstructions) wherever that pass left them computing at
 *    most the last member's C;
 *  - in ISE mode the MAC shadow, hazard and stall checks are resolved
 *    at translate time: blocks are keyed by the MAC state at entry
 *    (sbMacKey) and the trace carries trigger and stall elements, and
 *    a STEP at each hazard, so only the barrel counter and the
 *    accumulator stay dynamic.
 *
 * Side-exit contract (everything here funnels back to run() or the
 * reference loop, never the other way around):
 *  - traps: the trapping instruction does not retire; the exit
 *    charges the retired prefix and publishes the trap (and the
 *    pending shadow) exactly as step() does;
 *  - STEP: the trace's prefix retires and the loop's state is
 *    published, execute() runs the one instruction (or raises its
 *    trap: an undecodable word, a MAC hazard, an out-of-bounds
 *    access), and its cycles and instructions are folded back before
 *    the run goes on at the PC it left;
 *  - MACCR stores: every store into MACCR resets the MAC unit, so it
 *    retires and the trace side-exits into the block keyed by the
 *    new MAC state with no shadow pending;
 *  - budget-critical blocks hand the rest of the run to
 *    runReference(), which places the CycleBudget trap with
 *    per-instruction precision; the pre-check fires only when the
 *    remaining budget is below the block's maxCycles, so the
 *    reference loop runs at most about one block's worth of cycles;
 *  - observed runs (some ExecObserver wants more than traps) are
 *    handled one level up: Machine::run() never selects this loop
 *    for them.
 */

#include "avr/superblock.hh"

#include <iterator>
#include <unordered_set>

#include "avr/flags.hh"
#include "avr/mac_unit.hh"
#include "avr/machine.hh"
#include "avr/timing.hh"

namespace jaavr
{

namespace
{

/** What one trace element does with the arithmetic flags. */
struct FlagUse
{
    uint8_t writes = 0;   ///< flags it writes
    uint8_t reads = 0;    ///< flags it reads, whatever it computes
    bool stickyZ = false; ///< reads Z too when it computes Z
    bool barrier = false; ///< needs every flag exact before it
};

FlagUse
flagUse(SbOp h, const SbInst &si)
{
    switch (h) {
      // Transparent kinds: no trap, no exit, no SREG access. Each runs
      // one form (si.op; ROL, TST and CLR that of their base form),
      // whose ISA row names the flags it reads and writes; a is BCLR's
      // bit. T and I are never elided.
      case SbOp::ADD: case SbOp::ADC: case SbOp::SUB: case SbOp::SBC:
      case SbOp::AND: case SbOp::OR: case SbOp::MOV: case SbOp::CP:
      case SbOp::CPC: case SbOp::ROL: case SbOp::TST: case SbOp::CLR:
      case SbOp::MUL: case SbOp::MOVW: case SbOp::SUBI: case SbOp::SBCI:
      case SbOp::ANDI: case SbOp::LDI: case SbOp::ADIW: case SbOp::SBIW:
      case SbOp::COM: case SbOp::NEG: case SbOp::LSR: case SbOp::ROR:
      case SbOp::BCLR: case SbOp::SWAP_MAC: case SbOp::NOP_STALL:
      case SbOp::GHOST: {
        const Op op = static_cast<Op>(si.op);
        const IsaForm &f = isaForm(op);
        return {static_cast<uint8_t>(sregWrites(op, si.a) & sregArith),
                static_cast<uint8_t>(f.sregReads & sregArith), f.stickyZ};
      }
      // Everything else can trap (loads, stores, calls, STEP), leave
      // the trace (exits, branches, SBRS, STEP) or reach SREG through
      // I/O or data space (OUT, STS, STEP).
      default:
        return {.barrier = true};
    }
}

/**
 * The handler of @p h that computes exactly @p need of its flags, or
 * @p h itself (every flag) if it has none for that mask.
 */
SbOp
flagVariant(SbOp h, uint8_t need)
{
    switch (h) {
#define X(n)                                                            \
      case SbOp::n:                                                     \
        return need == 0 ? SbOp::n##_0 : need == sregC ? SbOp::n##_C : h;
      JAAVR_SB_FLAG_OPS_C0(X)
#undef X
#define X(n)                                                            \
      case SbOp::n:                                                     \
        return need == 0 ? SbOp::n##_0 : h;
      JAAVR_SB_FLAG_OPS_0(X)
#undef X
      default:
        return h;
    }
}

/**
 * The superinstruction the elements from @p i on form, or SbOp::Count.
 * The members must be exactly `mul; add; adc; adc` or `add; clr; rol`
 * by handler kind (the synonym ROL never stands for an ADC),
 * transparent ALU ops all, and the flag pass must have left MUL and
 * CLR computing nothing and every other member at most C. Then
 * Z N V S H are dead after the group, and the fused handler needs to
 * compute only the last member's C.
 */
SbOp
superinstruction(const std::vector<SbOp> &kinds,
                 const std::vector<SbInst> &code, size_t i)
{
    auto is = [&](size_t k, SbOp h, uint8_t mask) {
        return i + k < kinds.size() && kinds[i + k] == h &&
               !(code[i + k].flags & ~mask);
    };
    if (is(0, SbOp::MUL, 0) && is(1, SbOp::ADD, sregC) &&
        is(2, SbOp::ADC, sregC) && is(3, SbOp::ADC, sregC))
        return SbOp::MUL_ADD_ADC_ADC;
    if (is(0, SbOp::ADD, sregC) && is(1, SbOp::CLR, 0) &&
        is(2, SbOp::ROL, sregC))
        return SbOp::ADD_CLR_ROL;
    return SbOp::Count;
}

} // anonymous namespace

SuperblockCache::SuperblockCache()
    : table(Machine::flashWords, nullptr)
{
}

void
SuperblockCache::invalidateAll()
{
    std::fill(table.begin(), table.end(), nullptr);
    blocks.clear();
}

SbBlock *
SuperblockCache::translate(const Machine &m, uint32_t entry, uint8_t key,
                           void *const *labels)
{
    // A runaway working set (e.g. a fault campaign re-corrupting
    // flash between runs already invalidates; this is the backstop
    // for programs with thousands of distinct entries).
    if (blocks.size() >= kMaxBlocks)
        invalidateAll();

    auto owned = std::make_unique<SbBlock>();
    SbBlock *blk = owned.get();
    blk->entry = entry & 0xffff;
    blk->macKey = key;

    // The MAC state the trace is specialized to (step()'s run-time
    // checks, resolved here): the mode bits hold for the
    // whole trace, since a MACCR store side-exits after retiring,
    // and the shadow is followed statically — 2 after a trigger,
    // otherwise aged by each retired element's base cycles. Outside
    // ISE the key is always 0, so none of this fires.
    const bool ise = m.mode() == CpuMode::ISE;
    const bool load_mac = ise && (key & MacUnit::ctrlLoadMode);
    const bool swap_mac = ise && (key & MacUnit::ctrlSwapMode);
    uint8_t sh = blk->entryShadow();

    std::unordered_set<uint32_t> visited;
    uint32_t pc = blk->entry;
    uint32_t total = 0; // base cycles of the retiring prefix
    bool open = true;

    // The handler kind of each element; the flag pass below turns it
    // into the element's label.
    std::vector<SbOp> kinds;
    auto emit = [&](SbOp h, SbInst &si) {
        kinds.push_back(h);
        blk->code.push_back(si);
    };

    while (open) {
        if (pc == Machine::exitAddress || blk->code.size() >= kMaxInsts ||
            !visited.insert(pc).second) {
            // Exit sentinel, length cap, or a loop back-edge: close
            // the trace with a non-retiring continuation, which keys
            // the next block by the shadow still pending here.
            SbInst si;
            si.pc = pc;
            si.prefixCycles = total;
            si.sh = sh;
            emit(sh ? SbOp::EXIT_SHADOW : SbOp::EXIT_STATIC, si);
            break;
        }
        const DecodedInst &dc = m.decoded(pc);
        const Inst &inst = dc.inst;
        SbInst si;
        si.pc = pc;
        si.op = static_cast<uint8_t>(inst.op);
        si.a = inst.rd;
        si.b = inst.rr;
        si.imm = inst.imm;
        si.cycles = dc.cycles;
        si.prefixCycles = total;
        si.sh = sh;
        const uint32_t next = (pc + inst.words) & 0xffff;
        const bool trigger = load_mac && dc.macLoadForm;

        // Terminal: the element retires, then the exit handler
        // computes the continuation.
        auto terminal = [&](SbOp h) {
            emit(h, si);
            total += dc.cycles;
            open = false;
        };
        // Every form without a handler: execute() runs it, or raises
        // its trap, and the trace ends.
        auto step = [&] { terminal(SbOp::STEP); };

        // The hazard rule: under a live shadow the 13 MAC registers
        // are off limits, and a retrigger must wait until at most
        // one MAC is pending (detail 1). execute() raises the trap.
        if (sh > 0 && (trigger ? sh >= 2 : dc.touchesMac)) {
            step();
            break;
        }

        // A retiring element; translation continues at @p succ.
        auto retire = [&](SbOp h, uint32_t succ) {
            emit(h, si);
            total += dc.cycles;
            sh = trigger ? 2 : sh > dc.cycles ? sh - dc.cycles : 0;
            pc = succ;
        };
        auto simple = [&](SbOp h) { retire(h, next); };

        switch (inst.op) {
          // The synonym encodings ROL, TST and CLR get their own
          // single-operand handlers (see Synonym in avr/isa.hh); LSL
          // and a two-register EOR step.
          case Op::ADD:
            if (dc.synonym == Synonym::LSL)
                step();
            else
                simple(SbOp::ADD);
            break;
          case Op::ADC:
            simple(dc.synonym == Synonym::ROL ? SbOp::ROL : SbOp::ADC);
            break;
          case Op::AND:
            simple(dc.synonym == Synonym::TST ? SbOp::TST : SbOp::AND);
            break;
          case Op::EOR:
            if (dc.synonym == Synonym::CLR)
                simple(SbOp::CLR);
            else
                step();
            break;
          case Op::SUB: simple(SbOp::SUB); break;
          case Op::SBC: simple(SbOp::SBC); break;
          case Op::OR: simple(SbOp::OR); break;
          case Op::MOV: simple(SbOp::MOV); break;
          case Op::CP: simple(SbOp::CP); break;
          case Op::CPC: simple(SbOp::CPC); break;
          case Op::MUL: simple(SbOp::MUL); break;
          case Op::MOVW: simple(SbOp::MOVW); break;
          case Op::SUBI: simple(SbOp::SUBI); break;
          case Op::SBCI: simple(SbOp::SBCI); break;
          case Op::ANDI: simple(SbOp::ANDI); break;
          case Op::LDI: simple(SbOp::LDI); break;
          case Op::ADIW: simple(SbOp::ADIW); break;
          case Op::SBIW: simple(SbOp::SBIW); break;
          case Op::COM: simple(SbOp::COM); break;
          case Op::NEG: simple(SbOp::NEG); break;
          case Op::LSR: simple(SbOp::LSR); break;
          case Op::ROR: simple(SbOp::ROR); break;
          case Op::BCLR:
            si.a = inst.bit;
            simple(SbOp::BCLR);
            break;
          case Op::OUT: simple(SbOp::OUT); break;
          // In load mode the R24 loads are Algorithm-2 triggers; of
          // those only LDD Z has a handler.
          case Op::LDD_Y:
            si.imm = static_cast<uint16_t>(inst.disp);
            if (trigger)
                step();
            else
                simple(SbOp::LDD_Y);
            break;
          case Op::LDD_Z:
            si.imm = static_cast<uint16_t>(inst.disp);
            simple(trigger ? SbOp::LDD_Z_MAC : SbOp::LDD_Z);
            break;
          case Op::LDS:
            si.addr = static_cast<uint16_t>(inst.k);
            if (trigger)
                step();
            else
                simple(SbOp::LDS);
            break;
          case Op::STS:
            si.addr = static_cast<uint16_t>(inst.k);
            simple(SbOp::STS);
            break;
          // In swap mode a SWAP is Algorithm 1's trigger.
          case Op::SWAP:
            if (swap_mac)
                simple(SbOp::SWAP_MAC);
            else
                step();
            break;
          // A NOP retired under a live shadow is a counted MAC stall.
          case Op::NOP:
            if (sh > 0)
                simple(SbOp::NOP_STALL);
            else
                step();
            break;

          // Direct jumps stitch: the transfer retires as a "ghost"
          // (cycles via the prefix sums, no runtime control flow)
          // and translation continues at the target. Revisits and
          // the length cap close the trace at the loop top.
          case Op::RJMP:
            retire(SbOp::GHOST, (pc + 1 + inst.disp) & 0xffff);
            break;
          case Op::JMP:
            retire(SbOp::GHOST, inst.k & 0xffff);
            break;
          // Direct calls stitch through into the callee; only the
          // return-address push happens at run time.
          case Op::RCALL:
            si.addr = static_cast<uint16_t>((pc + 1) & 0xffff);
            retire(SbOp::CALL_THROUGH, (pc + 1 + inst.disp) & 0xffff);
            break;
          case Op::CALL:
            si.addr = static_cast<uint16_t>((pc + 2) & 0xffff);
            retire(SbOp::CALL_THROUGH, inst.k & 0xffff);
            break;

          case Op::BRBS:
            si.a = inst.bit;
            si.target = (pc + 1 + inst.disp) & 0xffff;
            simple(SbOp::BRBS);
            break;
          case Op::BRBC:
            si.a = inst.bit;
            si.target = (pc + 1 + inst.disp) & 0xffff;
            simple(SbOp::BRBC);
            break;
          case Op::SBRS: {
            // The taken leg's target and extra cycles depend only on
            // the skipped word's length, which the decode cache knows;
            // flash writes invalidate the whole cache, so baking it in
            // is safe.
            const bool two = m.decoded(next).inst.words == 2;
            si.b = inst.bit;
            si.extra = static_cast<uint8_t>(skipExtra(two));
            si.target = (next + (two ? 2u : 1u)) & 0xffff;
            simple(SbOp::SKIP_SBRS);
            break;
          }

          case Op::RET: terminal(SbOp::EXIT_RET); break;

          default: step(); break;
        }
    }

    // Flag liveness, backward from the trace's end. An element
    // computes only the flags it writes that are live after it; the
    // handler leaves the rest stale, and the element's own writes
    // kill liveness above it. Before a barrier every flag is live
    // again, so SREG is exact wherever a trap, an exit, a STEP or an
    // SREG access can observe it. Every trace ends in one of those
    // barriers (an exit or a STEP), so nothing is live past it.
    // SBC/SBCI/CPC read the incoming Z only when they compute their
    // own (sticky Z); T and I are never elided.
    uint8_t live = 0;
    for (size_t i = kinds.size(); i-- > 0;) {
        SbInst &si = blk->code[i];
        const FlagUse use = flagUse(kinds[i], si);
        const uint8_t need = use.writes & live;
        const SbOp h = flagVariant(kinds[i], need);
        si.lbl = labels[static_cast<size_t>(h)];
        si.flags = h == kinds[i] ? use.writes : need;
        live = use.barrier ? sregArith
                           : static_cast<uint8_t>(
                                 (live & ~use.writes) | use.reads |
                                 (use.stickyZ ? si.flags & sregZ : 0));
    }

    // Superinstructions, on the masks the pass chose: a group's first
    // element dispatches the fused handler, which advances past the
    // group. The other elements stay in place with their labels, so
    // prefix sums, exit indices and the cap are untouched.
    for (size_t i = 0; i < kinds.size(); i++) {
        const SbOp h = superinstruction(kinds, blk->code, i);
        if (h == SbOp::Count)
            continue;
        blk->code[i].lbl = labels[static_cast<size_t>(h)];
        i += sbGroupSize(h) - 1;
    }

    // Worst-case cycles of one pass: every element's base cost plus
    // the largest single extra of a taken branch or skip, in a
    // handler or in the STEP that ends the trace (either leaves the
    // trace, so at most one extra applies per pass).
    blk->maxCycles = total + 2;
    blk->next = table[blk->entry];
    table[blk->entry] = blk;
    blocks.push_back(std::move(owned));
    return blk;
}

/**
 * The superblock-threaded run loop. Hot state (SREG, the register
 * file, the cycle and instruction accumulators) lives in locals —
 * byte stores into the simulated SRAM may alias any member through
 * the uint8_t*, so member accesses cannot be cached across them by
 * the compiler — and is flushed on every exit. The per-op counters
 * live in memory either way (they are indexed by op), so they are
 * the Machine's, kept zero between runs: a run that retires a few
 * ops folds and clears only those.
 *
 * The loop starts on a 64-byte boundary, so a change in the size of
 * the code the linker places before it moves the loop by whole cache
 * lines only: unaligned, such moves alone changed iss_ladder by 4-10 %.
 */
__attribute__((aligned(64))) void
Machine::runSuperblock(uint64_t max_cycles)
{
    if (!sbCache)
        sbCache = std::make_unique<SuperblockCache>();

    // Labels-as-values dispatch table, indexed by SbOp in declaration
    // order (the same X-macros build both, so they cannot skew).
    static void *const labels[] = {
#define X(n) &&lbl_##n,
        JAAVR_SB_OPS(X)
#undef X
#define X(n) &&lbl_##n##_C, &&lbl_##n##_0,
        JAAVR_SB_FLAG_OPS_C0(X)
#undef X
#define X(n) &&lbl_##n##_0,
        JAAVR_SB_FLAG_OPS_0(X)
#undef X
    };
    static_assert(std::size(labels) == kNumSbOps);
#define SB_NEXT() goto *ip->lbl

    uint64_t consumed = 0;
    uint64_t insts = 0;
    uint32_t pc = pcWord;
    const uint16_t data_limit = dataLimitV;
    const uint16_t stack_guard = stackGuardV;
    const bool ise = cpuMode == CpuMode::ISE;
    // Set by the guarded access lambdas; checked once per retired
    // instruction. Never reset: the loop exits on the first trap.
    TrapKind trap_kind = TrapKind::None;
    uint16_t trap_addr = 0;
    // Set by a store into MACCR (which resets the MAC unit); checked
    // at retirement, where the trace side-exits to re-key.
    bool maccr_written = false;
    // ISE: the MAC shadow pending at the current block boundary. Block
    // entry keys on it and clears it; only a non-retiring continuation
    // (EXIT_SHADOW), a STEP or a trap sets it again, since every
    // retiring exit outlasts the shadow.
    uint8_t mac_sh = macUnit.pendingShadow();
    uint64_t mac_stall = 0;

    uint8_t sreg = sregBits;
    std::array<uint8_t, 32> r8 = regs;
    // Zero on entry (see sbOpCount); flush() folds and re-zeroes them.
    std::array<uint32_t, kNumOps> &op_count = sbOpCount;
    std::array<uint32_t, kNumOps> &op_extra = sbOpExtra;
    // No local copy of sbCache: with GCC 12 one more stack slot moved
    // `r8` past the 8-bit displacement range of the handlers'
    // stack-relative register accesses, and iss_ladder ran ~10 %
    // slower.
    uint8_t *const sram_data = sram.data();

    auto pair = [&](unsigned i) -> uint16_t {
        return static_cast<uint16_t>(r8[i]) |
               (static_cast<uint16_t>(r8[i + 1]) << 8);
    };
    auto setPair = [&](unsigned i, uint16_t v) {
        r8[i] = static_cast<uint8_t>(v);
        r8[i + 1] = static_cast<uint8_t>(v >> 8);
    };

    // Delta-based so the periodic flush cannot double-count; per-op
    // cycle totals are reconstructed as op_count * base + op_extra,
    // base being the predecoded cost of (op, mode). Forced inline, with
    // SREG passed by value: an out-of-line closure would pin every
    // local it captures in memory, and SREG sits on the dependency
    // chain of nearly every handler.
    uint64_t flushed_insts = 0;
    uint64_t flushed_cycles = 0;
    auto flush = [&](uint8_t sreg_now) __attribute__((always_inline)) {
        execStats.instructions += insts - flushed_insts;
        execStats.cycles += consumed - flushed_cycles;
        flushed_insts = insts;
        flushed_cycles = consumed;
        pcWord = pc & 0xffff;
        sregBits = sreg_now;
        regs = r8;
        // Only retired ops have entries to fold (an extra cycle comes
        // with a retirement).
        const std::array<uint8_t, kNumOps> &base_tab =
            baseCycleTable(cpuMode);
        for (size_t i = 0; i < kNumOps; i++) {
            if (!op_count[i])
                continue;
            execStats.opCount[i] += op_count[i];
            execStats.opCycles[i] +=
                uint64_t(op_count[i]) * base_tab[i] + op_extra[i];
            op_count[i] = 0;
            op_extra[i] = 0;
        }
        execStats.macStallNops += mac_stall;
        mac_stall = 0;
        if (ise)
            macUnit.setPendingShadow(mac_sh);
    };

    // Guarded data-space access, mirroring step()'s checks (no debug
    // hooks here; the MAC shadow is static per trace element). The
    // register/IO fallback syncs the local SREG around
    // readData/writeData, which can touch SREG at 0x5f.
    auto loadMem = [&](uint16_t a) -> uint8_t {
        if (a >= sramBase) [[likely]] {
            if (a > data_limit) [[unlikely]] {
                trap_kind = TrapKind::SramOutOfBounds;
                trap_addr = a;
                return 0xff;
            }
            return sram_data[a - sramBase];
        }
        sregBits = sreg;
        regs = r8;
        uint8_t v = readData(a);
        sreg = sregBits;
        r8 = regs;
        return v;
    };
    auto storeMem = [&](uint16_t a, uint8_t v) {
        if (a >= sramBase) [[likely]] {
            if (a > data_limit) [[unlikely]] {
                trap_kind = TrapKind::SramOutOfBounds;
                trap_addr = a;
                return;
            }
            sram_data[a - sramBase] = v;
            return;
        }
        sregBits = sreg;
        regs = r8;
        writeData(a, v);
        sreg = sregBits;
        r8 = regs;
        if (a == ioBase + ioMaccr)
            maccr_written = true;
    };
    auto ioWrite = [&](uint8_t ioaddr, uint8_t v) {
        sregBits = sreg;
        regs = r8;
        writeData(ioBase + ioaddr, v);
        sreg = sregBits;
        r8 = regs;
        if (ioaddr == ioMaccr)
            maccr_written = true;
    };
    // Stack accessors. The data-space accessor is an argument, not a
    // capture: in a function this large, a closure holding another
    // closure's address keeps every local the inner one captures
    // (SREG among them) in memory.
    auto pushB = [&](auto &store, uint8_t v) {
        uint16_t a = sp();
        if (a < stack_guard) [[unlikely]] {
            trap_kind = TrapKind::StackOverflow;
            trap_addr = a;
            return;
        }
        store(a, v);
        if (trap_kind == TrapKind::None) [[likely]]
            setSp(a - 1);
    };
    auto popB = [&](auto &load) -> uint8_t {
        setSp(sp() + 1);
        return load(sp());
    };
    // Return addresses: low byte pushed first, high byte second.
    auto pushRet = [&](auto &store, uint32_t ret) {
        pushB(store, static_cast<uint8_t>(ret));
        pushB(store, static_cast<uint8_t>(ret >> 8));
    };
    auto popRet = [&](auto &load) -> uint32_t {
        uint32_t hi = popB(load);
        uint32_t lo = popB(load);
        return (hi << 8) | lo;
    };

    const SbInst *ip = nullptr;
    const SbInst *code0 = nullptr;

// Retirement tails. Plain ALU work cannot trap; memory handlers
// check the trap flag (the trapping instruction must not retire);
// store handlers additionally side-exit after a store into MACCR.
#define SB_RETIRE()                                                     \
    do {                                                                \
        op_count[ip->op]++;                                             \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)
#define SB_RETIRE_MEM()                                                 \
    do {                                                                \
        if (trap_kind != TrapKind::None) [[unlikely]]                   \
            goto trap_exit;                                             \
        op_count[ip->op]++;                                             \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)
#define SB_RETIRE_STORE()                                               \
    do {                                                                \
        if (trap_kind != TrapKind::None) [[unlikely]]                   \
            goto trap_exit;                                             \
        op_count[ip->op]++;                                             \
        if (maccr_written) [[unlikely]]                                 \
            goto maccr_side_exit;                                       \
        ip++;                                                           \
        SB_NEXT();                                                      \
    } while (0)

  next_block:
    if (pc == exitAddress)
        goto finish;
    // Keep the 32-bit op_count entries from saturating (flushed
    // every 2^24 instructions).
    if (insts - flushed_insts >= 0x1000000) [[unlikely]]
        flush(sreg);
    maccr_written = false;
    {
        SbBlock *b;
        if (ise) {
            // ISE legality: the trace is specialized to the MAC state
            // at entry, so that state is part of the key.
            const uint8_t key = sbMacKey(io[ioMaccr], mac_sh);
            mac_sh = 0;
            b = sbCache->lookup(pc, key);
            if (!b) [[unlikely]]
                b = sbCache->translate(*this, pc, key, labels);
        } else {
            b = sbCache->lookup(pc);
            if (!b) [[unlikely]]
                b = sbCache->translate(*this, pc, 0, labels);
        }
        // Budget pre-check: if this pass could cross the budget, hand
        // the rest of the run to the reference loop for
        // per-instruction precision (at most about one block).
        // Passing it guarantees consumed stays below max_cycles for
        // the whole pass, so handlers carry no budget test.
        if (consumed + b->maxCycles >= max_cycles) [[unlikely]] {
            mac_sh = b->entryShadow();
            flush(sreg);
            runReference(max_cycles - consumed);
            return;
        }
        code0 = b->code.data();
        ip = code0;
    }
    SB_NEXT();

// Each op of JAAVR_SB_FLAG_OPS_C0 and JAAVR_SB_FLAG_OPS_0 is written
// once and instantiated per flag mask it has a handler for: kF is the
// mask the instance passes to the flags.hh helpers.
#define SB_FLAGS(NAME, MASK, ...)                                       \
  lbl_##NAME: {                                                         \
    constexpr uint8_t kF = MASK;                                        \
    __VA_ARGS__;                                                        \
    SB_RETIRE();                                                        \
  }
#define SB_FLAG_OP_C0(NAME, ...)                                        \
  SB_FLAGS(NAME, sregArith, __VA_ARGS__)                                \
  SB_FLAGS(NAME##_C, sregC, __VA_ARGS__)                                \
  SB_FLAGS(NAME##_0, 0, __VA_ARGS__)
#define SB_FLAG_OP_0(NAME, ...)                                         \
  SB_FLAGS(NAME, sregArith, __VA_ARGS__)                                \
  SB_FLAGS(NAME##_0, 0, __VA_ARGS__)

  SB_FLAG_OP_C0(ADD, uint8_t d = r8[ip->a], s = r8[ip->b];
                     uint8_t r = d + s;
                     r8[ip->a] = r;
                     addFlagsB<kF>(sreg, d, s, r))
  SB_FLAG_OP_C0(ADC, uint8_t d = r8[ip->a], s = r8[ip->b];
                     uint8_t r = d + s + (sreg & sregC);
                     r8[ip->a] = r;
                     addFlagsB<kF>(sreg, d, s, r))
  // Canonicalized ROL Rd == ADC Rd,Rd.
  SB_FLAG_OP_0(ROL, uint8_t d = r8[ip->a];
                    uint8_t r = static_cast<uint8_t>(d + d + (sreg & sregC));
                    r8[ip->a] = r;
                    addFlagsB<kF>(sreg, d, d, r))
  lbl_SUB: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d - s;
    r8[ip->a] = r;
    subFlagsB(sreg, d, s, r, false);
    SB_RETIRE();
  }
  SB_FLAG_OP_0(SBC, uint8_t d = r8[ip->a], s = r8[ip->b];
                    uint8_t r = d - s - (sreg & sregC);
                    r8[ip->a] = r;
                    subFlagsB<kF>(sreg, d, s, r, true))
  lbl_AND: {
    uint8_t r = r8[ip->a] & r8[ip->b];
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_TST: {
    // Canonicalized TST Rd == AND Rd,Rd: flags only, no write.
    logicFlagsB(sreg, r8[ip->a]);
    SB_RETIRE();
  }
  lbl_OR: {
    uint8_t r = r8[ip->a] | r8[ip->b];
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  // Canonicalized CLR Rd == EOR Rd,Rd: constant result and flags.
  SB_FLAG_OP_0(CLR, r8[ip->a] = 0; logicFlagsB<kF>(sreg, 0))
  lbl_MOV: {
    r8[ip->a] = r8[ip->b];
    SB_RETIRE();
  }
  lbl_CP: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    subFlagsB(sreg, d, s, d - s, false);
    SB_RETIRE();
  }
  lbl_CPC: {
    uint8_t d = r8[ip->a], s = r8[ip->b];
    uint8_t r = d - s - (sreg & sregC);
    subFlagsB(sreg, d, s, r, true);
    SB_RETIRE();
  }
  SB_FLAG_OP_0(MUL, uint16_t p = static_cast<uint16_t>(r8[ip->a]) * r8[ip->b];
                    r8[0] = static_cast<uint8_t>(p);
                    r8[1] = static_cast<uint8_t>(p >> 8);
                    mulFlagsB<kF>(sreg, p, p & 0x8000))
  lbl_MOVW: {
    r8[ip->a] = r8[ip->b];
    r8[ip->a + 1] = r8[ip->b + 1];
    SB_RETIRE();
  }
  lbl_SUBI: {
    uint8_t d = r8[ip->a];
    uint8_t r = d - static_cast<uint8_t>(ip->imm);
    r8[ip->a] = r;
    subFlagsB(sreg, d, static_cast<uint8_t>(ip->imm), r, false);
    SB_RETIRE();
  }
  lbl_SBCI: {
    uint8_t d = r8[ip->a];
    uint8_t r = d - static_cast<uint8_t>(ip->imm) - (sreg & sregC);
    r8[ip->a] = r;
    subFlagsB(sreg, d, static_cast<uint8_t>(ip->imm), r, true);
    SB_RETIRE();
  }
  lbl_ANDI: {
    uint8_t r = r8[ip->a] & static_cast<uint8_t>(ip->imm);
    r8[ip->a] = r;
    logicFlagsB(sreg, r);
    SB_RETIRE();
  }
  lbl_LDI: {
    r8[ip->a] = static_cast<uint8_t>(ip->imm);
    SB_RETIRE();
  }
  lbl_ADIW: {
    uint16_t d = pair(ip->a);
    uint16_t r = d + ip->imm;
    setPair(ip->a, r);
    wideFlagsB(sreg, r, !(d & 0x8000) && (r & 0x8000),
               !(r & 0x8000) && (d & 0x8000));
    SB_RETIRE();
  }
  lbl_SBIW: {
    uint16_t d = pair(ip->a);
    uint16_t r = d - ip->imm;
    setPair(ip->a, r);
    wideFlagsB(sreg, r, (d & 0x8000) && !(r & 0x8000),
               (r & 0x8000) && !(d & 0x8000));
    SB_RETIRE();
  }
  // COM: the logic flags, and C set.
  SB_FLAG_OP_C0(COM, uint8_t r = ~r8[ip->a];
                     r8[ip->a] = r;
                     logicFlagsB<kF>(sreg, r);
                     sreg |= kF & sregC)
#undef SB_FLAG_OP_C0
#undef SB_FLAG_OP_0
#undef SB_FLAGS
  // The superinstructions (see superinstruction() above). Each does
  // its members' work in program order, reading the operands from the
  // members' own elements after the previous member's writes, so any
  // aliasing between them stays exact; the carries pass in a local,
  // and only the last member's C is committed.
  lbl_MUL_ADD_ADC_ADC: {
    const uint16_t p = static_cast<uint16_t>(r8[ip->a]) * r8[ip->b];
    r8[0] = static_cast<uint8_t>(p);
    r8[1] = static_cast<uint8_t>(p >> 8);
    unsigned s = unsigned(r8[ip[1].a]) + r8[ip[1].b];
    r8[ip[1].a] = static_cast<uint8_t>(s);
    s = unsigned(r8[ip[2].a]) + r8[ip[2].b] + (s >> 8);
    r8[ip[2].a] = static_cast<uint8_t>(s);
    s = unsigned(r8[ip[3].a]) + r8[ip[3].b] + (s >> 8);
    r8[ip[3].a] = static_cast<uint8_t>(s);
    sreg = static_cast<uint8_t>((sreg & ~sregC) | (s >> 8));
    op_count[static_cast<size_t>(Op::MUL)]++;
    op_count[static_cast<size_t>(Op::ADD)]++;
    op_count[static_cast<size_t>(Op::ADC)] += 2;
    ip += sbGroupSize(SbOp::MUL_ADD_ADC_ADC);
    SB_NEXT();
  }
  lbl_ADD_CLR_ROL: {
    unsigned s = unsigned(r8[ip->a]) + r8[ip->b];
    r8[ip->a] = static_cast<uint8_t>(s);
    r8[ip[1].a] = 0;
    s = 2u * r8[ip[2].a] + (s >> 8);
    r8[ip[2].a] = static_cast<uint8_t>(s);
    sreg = static_cast<uint8_t>((sreg & ~sregC) | (s >> 8));
    op_count[static_cast<size_t>(Op::ADD)]++;
    op_count[static_cast<size_t>(Op::EOR)]++;
    op_count[static_cast<size_t>(Op::ADC)]++;
    ip += sbGroupSize(SbOp::ADD_CLR_ROL);
    SB_NEXT();
  }
  lbl_NEG: {
    uint8_t d = r8[ip->a];
    uint8_t r = -d;
    r8[ip->a] = r;
    subFlagsB(sreg, 0, d, r, false);
    SB_RETIRE();
  }
  lbl_SWAP_MAC: {
    // Algorithm 1 (MACCR swap mode): the pre-swap low nibble is the
    // MAC digit.
    uint8_t d = r8[ip->a];
    macUnit.macSwap(r8, d & 0x0f);
    r8[ip->a] = static_cast<uint8_t>((d << 4) | (d >> 4));
    SB_RETIRE();
  }
  lbl_LSR: {
    uint8_t d = r8[ip->a];
    uint8_t r = d >> 1;
    r8[ip->a] = r;
    shiftFlagsB(sreg, r, d & 1);
    SB_RETIRE();
  }
  lbl_ROR: {
    uint8_t d = r8[ip->a];
    uint8_t r = static_cast<uint8_t>(
        (d >> 1) | (static_cast<unsigned>(sreg & sregC) << 7));
    r8[ip->a] = r;
    shiftFlagsB(sreg, r, d & 1);
    SB_RETIRE();
  }
  lbl_BCLR: {
    sreg &= static_cast<uint8_t>(~(1u << ip->a));
    SB_RETIRE();
  }
  lbl_OUT: {
    ioWrite(static_cast<uint8_t>(ip->imm), r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_SKIP_SBRS: {
    if (r8[ip->a] & (1u << ip->b))
        goto take_skip;
    SB_RETIRE();
  }
  lbl_LDD_Y: {
    r8[ip->a] = loadMem(static_cast<uint16_t>(pair(28) + ip->imm));
    SB_RETIRE_MEM();
  }
  lbl_LDD_Z: {
    r8[ip->a] = loadMem(static_cast<uint16_t>(pair(30) + ip->imm));
    SB_RETIRE_MEM();
  }
  lbl_LDS: {
    r8[ip->a] = loadMem(ip->addr);
    SB_RETIRE_MEM();
  }
  lbl_LDD_Z_MAC: {
    // The Algorithm-2 trigger (rd is R24): the load, then its two
    // MACs, which apply before the trap check, as in step(), so a
    // trapping trigger leaves the same accumulator.
    r8[ip->a] = loadMem(static_cast<uint16_t>(pair(30) + ip->imm));
    macUnit.macLoad(r8, r8[24]);
    SB_RETIRE_MEM();
  }
  lbl_STS: {
    storeMem(ip->addr, r8[ip->a]);
    SB_RETIRE_STORE();
  }
  lbl_NOP_STALL: {
    // A NOP retired while MAC micro-ops are pending (hazard stall).
    mac_stall++;
    SB_RETIRE();
  }
  lbl_GHOST: {
    // Stitched RJMP/JMP: retires (count + cycles via the prefix
    // sums); the control transfer was resolved at translate time.
    SB_RETIRE();
  }
  lbl_CALL_THROUGH: {
    // Stitched RCALL/CALL: push the return address, keep executing
    // the trace straight into the callee.
    pushRet(storeMem, ip->addr);
    SB_RETIRE_STORE();
  }
  lbl_BRBS: {
    if ((sreg >> ip->a) & 1)
        goto take_branch;
    SB_RETIRE();
  }
  lbl_BRBC: {
    if (!((sreg >> ip->a) & 1))
        goto take_branch;
    SB_RETIRE();
  }
  lbl_EXIT_RET: {
    uint32_t ret = popRet(loadMem);
    if (trap_kind != TrapKind::None) [[unlikely]]
        goto trap_exit;
    op_count[ip->op]++;
    consumed += ip->prefixCycles + ip->cycles;
    insts += static_cast<uint64_t>(ip - code0) + 1;
    pc = ret & 0xffff;
    goto next_block;
  }
  lbl_EXIT_SHADOW:
    // EXIT_STATIC inside a live MAC shadow: the next block is keyed
    // by the shadow still pending.
    mac_sh = ip->sh;
  lbl_EXIT_STATIC: {
    // Non-retiring continuation (loop back-edge / cap / sentinel).
    consumed += ip->prefixCycles;
    insts += static_cast<uint64_t>(ip - code0);
    pc = ip->pc;
    goto next_block;
  }
  lbl_STEP: {
    // An instruction without a handler, an undecodable word or a MAC
    // hazard: retire the prefix, publish the loop's state (the shadow
    // pending before the element included) and run the instruction
    // through execute(), the reference semantics, which also raises
    // its trap. The run goes on from the state it leaves, keyed (ISE)
    // by the live MACCR and shadow.
    consumed += ip->prefixCycles;
    insts += static_cast<uint64_t>(ip - code0);
    pc = ip->pc;
    mac_sh = ip->sh;
    flush(sreg);
    const unsigned cycles = execute();
    sreg = sregBits;
    r8 = regs;
    pc = pcWord;
    if (ise)
        mac_sh = macUnit.pendingShadow();
    if (pendingTrap)
        goto finish;
    // It retired one instruction, already counted into execStats: add
    // it to the locals and to the flush marks alike.
    insts++;
    flushed_insts++;
    consumed += cycles;
    flushed_cycles += cycles;
    execStats.referenceInstructions++;
    goto next_block;
  }

  take_branch: {
    op_count[ip->op]++;
    op_extra[ip->op] += branchTakenExtra;
    consumed += ip->prefixCycles + ip->cycles + branchTakenExtra;
    insts += static_cast<uint64_t>(ip - code0) + 1;
    pc = ip->target;
    goto next_block;
  }
  take_skip: {
    op_count[ip->op]++;
    op_extra[ip->op] += ip->extra;
    consumed += ip->prefixCycles + ip->cycles + ip->extra;
    insts += static_cast<uint64_t>(ip - code0) + 1;
    pc = ip->target;
    goto next_block;
  }
  maccr_side_exit: {
    // A store into MACCR retired and reset the MAC unit (counter and
    // shadow): the rest of the trace assumed the old MAC state, so
    // continue in the block keyed by the new one, with no shadow
    // pending. Translation guarantees ip[1].pc is this instruction's
    // static fall-through successor.
    consumed += ip->prefixCycles + ip->cycles;
    insts += static_cast<uint64_t>(ip - code0) + 1;
    pc = ip[1].pc;
    goto next_block;
  }
  trap_exit: {
    // The trapping instruction does not retire: charge the retired
    // prefix only and leave PC at the instruction, exactly as
    // step() does. Partial side effects (an SP move, a MAC reset by
    // a first pushed byte) persist identically.
    consumed += ip->prefixCycles;
    insts += static_cast<uint64_t>(ip - code0);
    pc = ip->pc;
    mac_sh = maccr_written ? 0 : ip->sh;
    pendingTrap = Trap{trap_kind, ip->pc, trap_addr};
    goto finish;
  }
  finish:
    flush(sreg);
    return;

#undef SB_RETIRE
#undef SB_RETIRE_MEM
#undef SB_RETIRE_STORE
#undef SB_NEXT
}

} // namespace jaavr
