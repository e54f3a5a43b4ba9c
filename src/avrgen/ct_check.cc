#include "avrgen/ct_check.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <deque>
#include <map>
#include <set>

#include "avr/isa.hh"
#include "avr/machine.hh"

namespace jaavr
{

namespace
{

// SREG bits (match Machine::fC..fI).
constexpr uint8_t flagC = 0x01;
constexpr uint8_t ioSreg = 0x3f;

/** Cap on the outer memory-fixpoint passes of ctCheck(). */
constexpr uint64_t kMaxMemPasses = 16;

/** Abstract value of one register byte. */
struct RegVal
{
    bool taint = false;
    bool known = false;
    uint8_t val = 0;

    static RegVal unknown() { return {false, false, 0}; }
    static RegVal concrete(uint8_t v) { return {false, true, v}; }

    bool
    join(const RegVal &o)
    {
        bool changed = false;
        if (o.taint && !taint) {
            taint = true;
            changed = true;
        }
        if (known && (!o.known || o.val != val)) {
            known = false;
            changed = true;
        }
        return changed;
    }
};

/** Abstract machine state at one (pc, call stack) point. */
struct State
{
    std::array<RegVal, 32> regs;
    uint8_t sregTaint = 0; ///< bit i set = flag i secret-tainted
    bool maccrKnown = true;
    uint8_t maccrVal = 0; ///< machine reset value
    std::vector<RegVal> stack; ///< PUSH/POP shadow data stack

    bool
    join(const State &o)
    {
        bool changed = false;
        for (size_t i = 0; i < regs.size(); i++)
            changed |= regs[i].join(o.regs[i]);
        if ((o.sregTaint | sregTaint) != sregTaint) {
            sregTaint |= o.sregTaint;
            changed = true;
        }
        if (maccrKnown && (!o.maccrKnown || o.maccrVal != maccrVal)) {
            maccrKnown = false;
            changed = true;
        }
        if (stack.size() != o.stack.size()) {
            // Mismatched push depth at a join — keep the common
            // prefix; enqueue() records an Unsupported finding.
            stack.resize(std::min(stack.size(), o.stack.size()));
            changed = true;
        }
        for (size_t i = 0; i < stack.size(); i++)
            changed |= stack[i].join(o.stack[i]);
        return changed;
    }
};

/** A call: its return pc, and the shadow-stack depth it was made at. */
using Frame = std::pair<uint32_t, size_t>;
using CallStack = std::vector<Frame>;
using StateKey = std::pair<uint32_t, CallStack>;

/**
 * Shadow-stack depth at which the innermost frame began. Below it the
 * hardware stack holds that frame's return address, which the shadow
 * stack does not model, and then the caller's bytes.
 */
size_t
frameBase(const CallStack &cs)
{
    return cs.empty() ? 0 : cs.back().second;
}

/** Calls @p fn with the number of every register in @p mask. */
template <typename Fn>
void
forEachReg(uint32_t mask, Fn &&fn)
{
    for (; mask; mask &= mask - 1)
        fn(static_cast<unsigned>(std::countr_zero(mask)));
}

struct Walker
{
    const std::vector<uint16_t> &flash;
    const CtCheckSpec &spec;
    std::set<uint32_t> &memTaint; ///< tainted data-space bytes (grows)
    /** Runs a form on known inputs: the walk's values are execute()'s. */
    Machine scratch{CpuMode::CA};
    std::map<std::pair<uint32_t, int>, CtFinding> findings;
    std::map<StateKey, State> states;
    std::deque<StateKey> worklist;
    uint64_t steps = 0;
    bool budgetHit = false;

    static constexpr uint64_t kMaxSteps = 4'000'000;
    static constexpr size_t kMaxCallDepth = 32;

    Walker(const std::vector<uint16_t> &image, const CtCheckSpec &s,
           std::set<uint32_t> &mem)
        : flash(image), spec(s), memTaint(mem)
    {
        // Erased words (0xffff) are the scratch machine's already.
        auto used = [](uint16_t w) { return w != 0xffff; };
        auto first = std::find_if(flash.begin(), flash.end(), used);
        auto last = std::find_if(flash.rbegin(), flash.rend(), used).base();
        if (first < last)
            scratch.loadProgram({first, last},
                                uint32_t(first - flash.begin()));
    }

    Inst
    fetch(uint32_t pc) const
    {
        uint16_t w0 = pc < flash.size() ? flash[pc] : 0xffff;
        uint16_t w1 = pc + 1 < flash.size() ? flash[pc + 1] : 0xffff;
        return decode(w0, w1);
    }

    void
    finding(uint32_t pc, CtFindingClass cls, const Inst &inst)
    {
        auto key = std::make_pair(pc, int(cls));
        if (findings.count(key))
            return;
        findings[key] = CtFinding{pc, cls, disassemble(inst), false};
    }

    void
    enqueue(uint32_t pc, const CallStack &cs, const State &st)
    {
        StateKey key{pc, cs};
        auto it = states.find(key);
        if (it == states.end()) {
            states.emplace(key, st);
            worklist.push_back(key);
            return;
        }
        // Paths that pushed to different depths: what a later POP
        // reads depends on the path taken.
        if (it->second.stack.size() != st.stack.size())
            finding(pc, CtFindingClass::Unsupported, fetch(pc));
        if (it->second.join(st))
            worklist.push_back(key);
    }

    bool
    pairKnown(const State &st, unsigned lo, uint16_t &out) const
    {
        if (!st.regs[lo].known || !st.regs[lo + 1].known)
            return false;
        out = uint16_t(st.regs[lo].val) |
              (uint16_t(st.regs[lo + 1].val) << 8);
        return true;
    }

    bool
    pairTaint(const State &st, unsigned lo) const
    {
        return st.regs[lo].taint || st.regs[lo + 1].taint;
    }

    void
    setPair(State &st, unsigned lo, bool known, uint16_t v, bool taint)
    {
        st.regs[lo] = RegVal{taint, known, uint8_t(v & 0xff)};
        st.regs[lo + 1] = RegVal{taint, known, uint8_t(v >> 8)};
    }

    /** True if a register the row of @p inst reads is tainted. */
    static bool
    readTaint(const State &st, const Inst &inst)
    {
        bool t = false;
        forEachReg(regsRead(inst),
                   [&](unsigned r) { t = t || st.regs[r].taint; });
        return t;
    }

    /** Taint @p bits of SREG to @p t (replacing the old taint). */
    static void
    setFlags(State &st, uint8_t bits, bool t)
    {
        if (t)
            st.sregTaint |= bits;
        else
            st.sregTaint &= ~bits;
    }

    /** True when MACCR may be in @p mode (a MacUnit::ctrl* bit). */
    static bool
    armed(const State &st, uint8_t mode)
    {
        return !st.maccrKnown || (st.maccrVal & mode) != 0;
    }

    /**
     * The MAC fired: the accumulator takes the taint of the trigger
     * byte, the operand word and itself, and a value the walk does
     * not follow.
     */
    static void
    macTrigger(State &st, bool triggerTaint)
    {
        bool t = triggerTaint;
        forEachReg(MacUnit::accRegs | MacUnit::operandRegs,
                   [&](unsigned r) { t = t || st.regs[r].taint; });
        forEachReg(MacUnit::accRegs,
                   [&](unsigned r) { st.regs[r] = RegVal{t, false, 0}; });
    }

    void memAccess(State &st, uint32_t pc, const Inst &inst,
                   const IsaMem &mem);
    void transfer(State &st, uint32_t pc, const Inst &inst);
    void run(const State &entry);
    void step(const StateKey &key);
};

/**
 * LD/LDD/ST/STD through X, Y or Z, and LDS/STS at their absolute
 * address: the pointer pair, displacement and pre/post update come
 * from the form's row.
 */
void
Walker::memAccess(State &st, uint32_t pc, const Inst &inst,
                  const IsaMem &mem)
{
    uint16_t ptr = uint16_t(inst.k);
    bool known = true, at = false;
    if (mem.pointer()) {
        known = pairKnown(st, mem.ptr, ptr);
        at = pairTaint(st, mem.ptr);
        if (at)
            finding(pc, CtFindingClass::TaintedAddress, inst);
        if (mem.pre) {
            ptr = uint16_t(ptr + mem.step);
            setPair(st, mem.ptr, known, ptr, at);
        }
    }
    const uint16_t addr = uint16_t(ptr + inst.disp);
    bool t = false;
    if (mem.kind == IsaMem::Load) {
        // Tainted or statically unknown addresses load tainted.
        t = at || !known || memTaint.count(addr) != 0;
        st.regs[inst.rd] = RegVal{t, false, 0};
    } else if (st.regs[inst.rd].taint && !at) {
        // A secret stored through a tainted pointer is a finding
        // already; one stored at an unknown address is a secret the
        // map cannot place.
        if (known)
            memTaint.insert(addr);
        else
            finding(pc, CtFindingClass::Unsupported, inst);
    }
    if (mem.pointer() && !mem.pre && mem.step)
        setPair(st, mem.ptr, known, uint16_t(ptr + mem.step), at);
    // Algorithm 2: in load mode, a load into r24 fires the MAC.
    if (isMacLoadForm(inst) && armed(st, MacUnit::ctrlLoadMode))
        macTrigger(st, t);
}

/**
 * The one transfer rule, for every form without a memory, I/O, stack
 * or control effect. The taint of the registers and flags its row
 * reads flows to every register and flag the row writes; a flag the
 * row fixes to a constant becomes public. A form that reads no flag
 * and whose register inputs are all known runs once on the scratch
 * machine, and the registers it writes become known with the results;
 * every other form's written registers are unknown.
 */
void
Walker::transfer(State &st, uint32_t pc, const Inst &inst)
{
    const IsaForm &f = isaForm(inst.op);
    // The CLR idiom reads nothing: eor rd, rd is 0 whatever rd holds.
    const uint32_t reads =
        synonymOf(inst) == Synonym::CLR ? 0 : regsRead(inst);
    const uint32_t writes = regsWritten(inst);
    bool t = (st.sregTaint & f.sregInputs()) != 0;
    bool known = f.sregInputs() == 0;
    forEachReg(reads, [&](unsigned r) {
        t = t || st.regs[r].taint;
        known = known && st.regs[r].known;
        scratch.setReg(r, st.regs[r].val);
    });
    if (known && writes) {
        scratch.setPc(pc);
        scratch.step();
    }
    forEachReg(writes, [&](unsigned r) {
        st.regs[r] = RegVal{t, known, known ? scratch.reg(r) : uint8_t(0)};
    });
    const uint8_t flags = sregWrites(inst.op, inst.bit);
    setFlags(st, flags & ~f.sregConst, t);
    setFlags(st, flags & f.sregConst, false);
}

void
Walker::run(const State &entry)
{
    states.clear();
    worklist.clear();
    findings.clear();
    steps = 0;
    budgetHit = false;
    enqueue(spec.entry, {}, entry);
    while (!worklist.empty()) {
        if (++steps > kMaxSteps) {
            budgetHit = true;
            finding(worklist.front().first, CtFindingClass::Unsupported,
                    Inst{});
            break;
        }
        StateKey key = worklist.front();
        worklist.pop_front();
        step(key);
    }
}

void
Walker::step(const StateKey &key)
{
    const uint32_t pc = key.first;
    const CallStack &cs = key.second;
    State st = states.at(key); // copy: transfer function mutates
    Inst inst = fetch(pc);
    uint32_t next = pc + inst.words;

    auto branchTarget = [&]() { return uint32_t(pc + 1 + inst.disp); };
    auto skipTarget = [&]() {
        return uint32_t(next + fetch(next).words);
    };

    if (const IsaMem &mem = isaForm(inst.op).mem;
        mem.kind != IsaMem::None && mem.ptr != IsaMem::ptrSP) {
        memAccess(st, pc, inst, mem);
        enqueue(next, cs, st);
        return;
    }

    switch (inst.op) {
      // --- I/O: MACCR and SREG are modelled, other ports public -----
      case Op::IN: {
        if (inst.imm == Machine::ioMaccr) {
            st.regs[inst.rd] =
                st.maccrKnown ? RegVal::concrete(st.maccrVal)
                              : RegVal::unknown();
        } else if (inst.imm == ioSreg) {
            st.regs[inst.rd] = RegVal{st.sregTaint != 0, false, 0};
        } else {
            st.regs[inst.rd] = RegVal::unknown();
        }
        break;
      }
      case Op::OUT: {
        const RegVal &r = st.regs[inst.rd];
        if (r.taint) {
            // Writing secret data to an I/O register leaves the
            // model (SP, MACCR, ports): refuse to prove it.
            finding(pc, CtFindingClass::Unsupported, inst);
        }
        if (inst.imm == Machine::ioMaccr) {
            st.maccrKnown = r.known && !r.taint;
            st.maccrVal = r.val;
        } else if (inst.imm == ioSreg) {
            st.sregTaint = r.taint ? 0xff : 0;
        }
        break;
      }
      case Op::SBI: case Op::CBI:
        // Their 5-bit address reaches neither MACCR nor SREG.
        break;

      // --- the shadow stack: what PUSH saved, POP restores ----------
      case Op::PUSH:
        st.stack.push_back(st.regs[inst.rd]);
        break;
      case Op::POP:
        if (st.stack.size() <= frameBase(cs)) {
            // Reads the return address or the caller's frame, which
            // the model cannot prove public.
            finding(pc, CtFindingClass::Unsupported, inst);
            st.regs[inst.rd] = RegVal::unknown();
        } else {
            st.regs[inst.rd] = st.stack.back();
            st.stack.pop_back();
        }
        break;

      case Op::LPM_R0: case Op::LPM: case Op::LPM_INC: {
        // Flash is public program data, but a secret-dependent table
        // index is exactly the lookup-timing channel.
        if (readTaint(st, inst))
            finding(pc, CtFindingClass::TaintedAddress, inst);
        unsigned rd = inst.op == Op::LPM_R0 ? 0 : inst.rd;
        st.regs[rd] = RegVal::unknown();
        if (inst.op == Op::LPM_INC) {
            uint16_t z = 0;
            bool k = pairKnown(st, 30, z);
            setPair(st, 30, k, uint16_t(z + 1), pairTaint(st, 30));
        }
        break;
      }

      // --- control flow --------------------------------------------
      case Op::RJMP: case Op::JMP: case Op::IJMP:
      case Op::RCALL: case Op::CALL: case Op::ICALL: {
        uint32_t target = inst.op == Op::RJMP || inst.op == Op::RCALL
                              ? branchTarget()
                              : inst.k;
        if (inst.op == Op::IJMP || inst.op == Op::ICALL) {
            if (readTaint(st, inst))
                finding(pc, CtFindingClass::TaintedIndirect, inst);
            uint16_t z = 0;
            if (!pairKnown(st, 30, z)) {
                finding(pc, CtFindingClass::Unsupported, inst);
                return;
            }
            target = z;
        }
        CallStack to = cs;
        if (inst.op == Op::RCALL || inst.op == Op::CALL ||
            inst.op == Op::ICALL) {
            if (cs.size() >= kMaxCallDepth) {
                finding(pc, CtFindingClass::Unsupported, inst);
                return;
            }
            to.push_back({next, st.stack.size()});
        }
        enqueue(target, to, st);
        return;
      }
      case Op::RET: case Op::RETI: {
        // A frame that returns with bytes still pushed returns through
        // them, not through its return address.
        if (st.stack.size() != frameBase(cs)) {
            finding(pc, CtFindingClass::Unsupported, inst);
            return;
        }
        if (cs.empty())
            return; // routine exit
        CallStack caller = cs;
        uint32_t ret = caller.back().first;
        caller.pop_back();
        enqueue(ret, caller, st);
        return;
      }
      case Op::BRBS: case Op::BRBC:
        if (st.sregTaint & (1u << inst.bit))
            finding(pc, CtFindingClass::TaintedBranch, inst);
        enqueue(branchTarget(), cs, st);
        enqueue(next, cs, st);
        return;
      case Op::SBRC: case Op::SBRS: case Op::CPSE:
      case Op::SBIC: case Op::SBIS:
        // The registers the row reads decide the skip; I/O bits are
        // public in this model.
        if (readTaint(st, inst))
            finding(pc, CtFindingClass::TaintedSkip, inst);
        enqueue(skipTarget(), cs, st);
        enqueue(next, cs, st);
        return;
      case Op::SLEEP: case Op::BREAK: case Op::INVALID:
        finding(pc, CtFindingClass::Unsupported, inst);
        return; // cannot continue past an unmodeled instruction

      default: {
        // Registers and flags only: the row's rule, with three
        // refinements the row cannot state.
        const bool rdTaint = st.regs[inst.rd].taint;
        if (inst.op == Op::MOVW) {
            // Each byte moves on its own lane: a public byte moved
            // next to a secret one stays public.
            st.regs[inst.rd] = st.regs[inst.rr];
            st.regs[inst.rd + 1] = st.regs[inst.rr + 1];
        } else {
            transfer(st, pc, inst);
        }
        // ROR's carry out is bit 0 of rd; the carry in does not
        // reach it.
        if (inst.op == Op::ROR)
            setFlags(st, flagC, rdTaint);
        // Algorithm 1: in swap mode, a SWAP fires the MAC.
        if (inst.op == Op::SWAP && armed(st, MacUnit::ctrlSwapMode))
            macTrigger(st, rdTaint);
        break;
      }
    }

    enqueue(next, cs, st);
}

} // anonymous namespace

const char *
ctContractName(CtContract c)
{
    switch (c) {
      case CtContract::ConstantTime: return "constant_time";
      case CtContract::VariableTime: return "variable_time";
    }
    return "?";
}

const char *
ctFindingClassName(CtFindingClass c)
{
    switch (c) {
      case CtFindingClass::TaintedBranch: return "tainted-branch";
      case CtFindingClass::TaintedSkip: return "tainted-skip";
      case CtFindingClass::TaintedAddress: return "tainted-address";
      case CtFindingClass::TaintedIndirect: return "tainted-indirect";
      case CtFindingClass::Unsupported: return "unsupported";
    }
    return "?";
}

size_t
CtReport::waivedCount() const
{
    size_t n = 0;
    for (const CtFinding &f : findings)
        n += f.waived;
    return n;
}

size_t
CtReport::violationCount() const
{
    return findings.size() - waivedCount();
}

CtReport
ctCheck(const std::vector<uint16_t> &flash, const CtCheckSpec &spec)
{
    State entry;
    for (auto [reg, val] : spec.entryRegs)
        entry.regs[reg] = RegVal::concrete(val);

    std::set<uint32_t> memTaint;
    for (const CtSecretRange &r : spec.secrets)
        for (uint32_t a = r.addr; a < uint32_t(r.addr) + r.len; a++)
            memTaint.insert(a);

    Walker w(flash, spec, memTaint);
    CtReport rep;
    rep.routine = spec.routine;
    rep.contract = spec.contract;

    // Outer fixpoint: stores taint memory mid-walk, and a load at a
    // join analyzed before the tainting store would have read stale
    // taint — re-run the whole walk until the map stops growing. A
    // map still growing at the pass cap could taint more on the next
    // pass, so the walk cannot vouch for it.
    for (;;) {
        rep.memPasses++;
        size_t before = memTaint.size();
        w.run(entry);
        if (memTaint.size() == before || w.budgetHit)
            break;
        if (rep.memPasses >= kMaxMemPasses) {
            w.finding(spec.entry, CtFindingClass::Unsupported,
                      w.fetch(spec.entry));
            break;
        }
    }

    rep.instsAnalyzed = w.states.size();
    for (auto &[key, f] : w.findings)
        rep.findings.push_back(f);
    std::sort(rep.findings.begin(), rep.findings.end(),
              [](const CtFinding &a, const CtFinding &b) {
                  return a.pc != b.pc ? a.pc < b.pc
                                      : int(a.cls) < int(b.cls);
              });

    // Waivers. ConstantTime: the fold-ripple branch sites, and only
    // if the site count matches the allowance exactly-or-fewer.
    // VariableTime: secret-dependent control flow is the concession;
    // addresses and unsupported state still count.
    size_t branchSites = 0;
    for (const CtFinding &f : rep.findings)
        branchSites += f.cls == CtFindingClass::TaintedBranch;
    for (CtFinding &f : rep.findings) {
        if (spec.contract == CtContract::VariableTime) {
            f.waived = f.cls == CtFindingClass::TaintedBranch ||
                       f.cls == CtFindingClass::TaintedSkip;
        } else {
            f.waived = f.cls == CtFindingClass::TaintedBranch &&
                       branchSites <= spec.waivedBranches;
        }
    }
    rep.pass = rep.violationCount() == 0;
    return rep;
}

} // namespace jaavr
