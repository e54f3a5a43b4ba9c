#include "avrgen/ct_check.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <set>

#include "avr/isa.hh"
#include "avr/mac_unit.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

// SREG bit indices (match Machine::fC..fI).
constexpr unsigned fC = 0, fZ = 1, fN = 2, fV = 3, fS = 4, fH = 5,
                   fT = 6;
constexpr uint8_t ioMaccr = 0x3c;
constexpr uint8_t ioSreg = 0x3f;

/** Abstract value of one register byte. */
struct RegVal
{
    bool taint = false;
    bool known = false;
    uint8_t val = 0;

    static RegVal secret() { return {true, false, 0}; }
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
            // prefix; the caller records an Unsupported finding.
            stack.resize(std::min(stack.size(), o.stack.size()));
            changed = true;
        }
        for (size_t i = 0; i < stack.size(); i++)
            changed |= stack[i].join(o.stack[i]);
        return changed;
    }
};

using CallStack = std::vector<uint32_t>;
using StateKey = std::pair<uint32_t, CallStack>;

struct Walker
{
    const std::vector<uint16_t> &flash;
    const CtCheckSpec &spec;
    std::set<uint32_t> &memTaint; ///< tainted data-space bytes (grows)
    std::map<std::pair<uint32_t, int>, CtFinding> findings;
    std::map<StateKey, State> states;
    std::deque<StateKey> worklist;
    uint64_t steps = 0;
    bool budgetHit = false;

    static constexpr uint64_t kMaxSteps = 4'000'000;
    static constexpr size_t kMaxCallDepth = 32;

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
        } else if (it->second.join(st)) {
            worklist.push_back(key);
        }
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

    /** Taint @p bits of SREG to @p t (replacing the old taint). */
    static void
    setFlags(State &st, uint8_t bits, bool t)
    {
        if (t)
            st.sregTaint |= bits;
        else
            st.sregTaint &= ~bits;
    }

    static uint8_t
    flagBit(unsigned f)
    {
        return uint8_t(1u << f);
    }

    bool
    memLoad(State &st, uint32_t pc, const Inst &inst, bool addrKnown,
            uint16_t addr, bool addrTaint) const
    {
        // Returns the taint of the loaded byte; tainted or
        // statically unknown addresses load conservatively tainted.
        (void)st;
        (void)pc;
        (void)inst;
        if (addrTaint || !addrKnown)
            return true;
        return memTaint.count(addr) != 0;
    }

    void
    memStore(uint32_t pc, const Inst &inst, bool addrKnown,
             uint16_t addr, bool addrTaint, bool dataTaint)
    {
        if (addrTaint)
            return; // already a TaintedAddress finding at the call site
        if (!addrKnown) {
            if (dataTaint)
                finding(pc, CtFindingClass::Unsupported, inst);
            return;
        }
        if (dataTaint)
            memTaint.insert(addr);
    }

    /** True when the MAC swap trigger may be armed. */
    bool
    swapArmed(const State &st) const
    {
        return !st.maccrKnown ||
               (st.maccrVal & MacUnit::ctrlSwapMode) != 0;
    }

    bool
    loadArmed(const State &st) const
    {
        return !st.maccrKnown ||
               (st.maccrVal & MacUnit::ctrlLoadMode) != 0;
    }

    /** MAC fired: accumulator R0..R8 absorbs the trigger taint. */
    static void
    macTrigger(State &st, bool triggerTaint)
    {
        bool t = triggerTaint;
        for (unsigned r = 16; r < 20; r++)
            t = t || st.regs[r].taint;
        for (unsigned r = 0; r < 9; r++)
            t = t || st.regs[r].taint;
        if (!t)
            return;
        for (unsigned r = 0; r < 9; r++) {
            st.regs[r].taint = true;
            st.regs[r].known = false;
        }
    }

    void run(const State &entry);
    void step(const StateKey &key);
};

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

    // LD/LDD/ST/STD through X, Y or Z: the pointer pair, displacement
    // and pre-decrement/post-increment come from the form's ISA row.
    if (const IsaMem &mem = isaForm(inst.op).mem; mem.pointer()) {
        uint16_t ptr = 0;
        bool k = pairKnown(st, mem.ptr, ptr);
        bool at = pairTaint(st, mem.ptr);
        if (at)
            finding(pc, CtFindingClass::TaintedAddress, inst);
        if (mem.pre) {
            ptr = uint16_t(ptr + mem.step);
            setPair(st, mem.ptr, k, ptr, at);
        }
        const bool load = mem.kind == IsaMem::Load;
        uint16_t addr = uint16_t(ptr + inst.disp);
        bool t = false;
        if (load) {
            t = memLoad(st, pc, inst, k, addr, at);
            st.regs[inst.rd] = RegVal{t, false, 0};
        } else {
            memStore(pc, inst, k, addr, at, st.regs[inst.rd].taint);
        }
        if (!mem.pre && mem.step)
            setPair(st, mem.ptr, k, uint16_t(ptr + mem.step), at);
        if (load && loadArmed(st) && inst.rd == 24)
            macTrigger(st, t);
        enqueue(next, cs, st);
        return;
    }

    switch (inst.op) {
      // --- moves and immediates ------------------------------------
      case Op::LDI:
        st.regs[inst.rd] = RegVal::concrete(inst.imm);
        break;
      case Op::MOV:
        st.regs[inst.rd] = st.regs[inst.rr];
        break;
      case Op::MOVW:
        st.regs[inst.rd] = st.regs[inst.rr];
        st.regs[inst.rd + 1] = st.regs[inst.rr + 1];
        break;

      // --- arithmetic ----------------------------------------------
      case Op::ADD: case Op::SUB: {
        RegVal &d = st.regs[inst.rd];
        const RegVal &r = st.regs[inst.rr];
        bool t = d.taint || r.taint;
        bool k = d.known && r.known;
        uint8_t v = inst.op == Op::ADD ? uint8_t(d.val + r.val)
                                       : uint8_t(d.val - r.val);
        d = RegVal{t, k, v};
        setFlags(st, 0x3f, t);
        break;
      }
      case Op::ADC: case Op::SBC: {
        bool t = st.regs[inst.rd].taint || st.regs[inst.rr].taint ||
                 (st.sregTaint & flagBit(fC)) ||
                 (inst.op == Op::SBC && (st.sregTaint & flagBit(fZ)));
        st.regs[inst.rd] = RegVal{t, false, 0};
        setFlags(st, 0x3f, t);
        break;
      }
      case Op::SUBI: {
        RegVal &d = st.regs[inst.rd];
        bool t = d.taint;
        bool k = d.known;
        d = RegVal{t, k, uint8_t(d.val - inst.imm)};
        setFlags(st, 0x3f, t);
        break;
      }
      case Op::SBCI: {
        bool t = st.regs[inst.rd].taint ||
                 (st.sregTaint & (flagBit(fC) | flagBit(fZ)));
        st.regs[inst.rd] = RegVal{t, false, 0};
        setFlags(st, 0x3f, t);
        break;
      }
      case Op::ADIW: case Op::SBIW: {
        uint16_t v = 0;
        bool k = pairKnown(st, inst.rd, v);
        bool t = pairTaint(st, inst.rd);
        v = inst.op == Op::ADIW ? uint16_t(v + inst.imm)
                                : uint16_t(v - inst.imm);
        setPair(st, inst.rd, k, v, t);
        setFlags(st, 0x1f, t);
        break;
      }
      case Op::INC: case Op::DEC: {
        RegVal &d = st.regs[inst.rd];
        d.val = inst.op == Op::INC ? uint8_t(d.val + 1)
                                   : uint8_t(d.val - 1);
        setFlags(st, flagBit(fS) | flagBit(fV) | flagBit(fN) |
                         flagBit(fZ),
                 d.taint);
        break;
      }
      case Op::NEG: {
        RegVal &d = st.regs[inst.rd];
        d.val = uint8_t(-d.val);
        setFlags(st, 0x3f, d.taint);
        break;
      }
      case Op::COM: {
        RegVal &d = st.regs[inst.rd];
        d.val = uint8_t(~d.val);
        // COM sets C = 1 and V = 0 unconditionally: both untainted.
        setFlags(st, flagBit(fC) | flagBit(fV), false);
        setFlags(st, flagBit(fS) | flagBit(fN) | flagBit(fZ), d.taint);
        break;
      }

      // --- logic ---------------------------------------------------
      case Op::AND: case Op::OR: case Op::EOR: {
        RegVal &d = st.regs[inst.rd];
        const RegVal &r = st.regs[inst.rr];
        if (inst.op == Op::EOR && inst.rd == inst.rr) {
            // CLR: x ^ x = 0 independent of the secret.
            d = RegVal::concrete(0);
        } else {
            bool k = d.known && r.known;
            uint8_t v = inst.op == Op::AND ? uint8_t(d.val & r.val)
                      : inst.op == Op::OR  ? uint8_t(d.val | r.val)
                                           : uint8_t(d.val ^ r.val);
            d = RegVal{d.taint || r.taint, k, v};
        }
        setFlags(st, flagBit(fV), false);
        setFlags(st, flagBit(fS) | flagBit(fN) | flagBit(fZ), d.taint);
        break;
      }
      case Op::ANDI: case Op::ORI: {
        RegVal &d = st.regs[inst.rd];
        d.val = inst.op == Op::ANDI ? uint8_t(d.val & inst.imm)
                                    : uint8_t(d.val | inst.imm);
        setFlags(st, flagBit(fV), false);
        setFlags(st, flagBit(fS) | flagBit(fN) | flagBit(fZ), d.taint);
        break;
      }

      // --- shifts --------------------------------------------------
      case Op::LSR: case Op::ASR: {
        RegVal &d = st.regs[inst.rd];
        d.known = false;
        setFlags(st, 0x1f, d.taint);
        break;
      }
      case Op::ROR: {
        RegVal &d = st.regs[inst.rd];
        bool cIn = (st.sregTaint & flagBit(fC)) != 0;
        setFlags(st, flagBit(fC), d.taint); // C out = old bit 0
        d = RegVal{d.taint || cIn, false, 0};
        setFlags(st, flagBit(fS) | flagBit(fV) | flagBit(fN) |
                         flagBit(fZ),
                 d.taint);
        break;
      }
      case Op::SWAP: {
        RegVal &d = st.regs[inst.rd];
        if (swapArmed(st))
            macTrigger(st, d.taint);
        d.val = uint8_t((d.val << 4) | (d.val >> 4));
        break;
      }

      // --- compares ------------------------------------------------
      case Op::CP:
        setFlags(st, 0x3f,
                 st.regs[inst.rd].taint || st.regs[inst.rr].taint);
        break;
      case Op::CPC:
        setFlags(st, 0x3f,
                 st.regs[inst.rd].taint || st.regs[inst.rr].taint ||
                     (st.sregTaint &
                      (flagBit(fC) | flagBit(fZ))) != 0);
        break;
      case Op::CPI:
        setFlags(st, 0x3f, st.regs[inst.rd].taint);
        break;

      // --- multiply ------------------------------------------------
      case Op::MUL: case Op::MULS: case Op::MULSU:
      case Op::FMUL: case Op::FMULS: case Op::FMULSU: {
        bool t = st.regs[inst.rd].taint || st.regs[inst.rr].taint;
        st.regs[0] = RegVal{t, false, 0};
        st.regs[1] = RegVal{t, false, 0};
        setFlags(st, flagBit(fC) | flagBit(fZ), t);
        break;
      }

      // --- flag and bit manipulation -------------------------------
      case Op::BSET: case Op::BCLR:
        setFlags(st, flagBit(inst.bit), false);
        break;
      case Op::BST:
        setFlags(st, flagBit(fT), st.regs[inst.rd].taint);
        break;
      case Op::BLD: {
        RegVal &d = st.regs[inst.rd];
        d.taint = d.taint || (st.sregTaint & flagBit(fT));
        d.known = false;
        break;
      }

      // --- I/O -----------------------------------------------------
      case Op::IN: {
        if (inst.imm == ioMaccr) {
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
        if (inst.imm == ioMaccr) {
            st.maccrKnown = r.known && !r.taint;
            st.maccrVal = r.val;
        } else if (inst.imm == ioSreg) {
            st.sregTaint = r.taint ? 0xff : 0;
        }
        break;
      }
      case Op::SBI: case Op::CBI:
        break;

      // --- loads ---------------------------------------------------
      case Op::LDS: {
        bool t = memLoad(st, pc, inst, true, uint16_t(inst.k), false);
        st.regs[inst.rd] = RegVal{t, false, 0};
        if (loadArmed(st) && inst.rd == 24)
            macTrigger(st, t);
        break;
      }

      // --- stores --------------------------------------------------
      case Op::STS:
        memStore(pc, inst, true, uint16_t(inst.k), false,
                 st.regs[inst.rd].taint);
        break;

      case Op::PUSH:
        st.stack.push_back(st.regs[inst.rd]);
        break;
      case Op::POP:
        if (st.stack.empty()) {
            st.regs[inst.rd] = RegVal::unknown();
        } else {
            st.regs[inst.rd] = st.stack.back();
            st.stack.pop_back();
        }
        break;

      case Op::LPM_R0: case Op::LPM: case Op::LPM_INC: {
        // Flash is public program data, but a secret-dependent table
        // index is exactly the lookup-timing channel.
        if (pairTaint(st, 30))
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
      case Op::RJMP:
        enqueue(branchTarget(), cs, st);
        return;
      case Op::JMP:
        enqueue(inst.k, cs, st);
        return;
      case Op::RCALL: case Op::CALL: {
        if (cs.size() >= kMaxCallDepth) {
            finding(pc, CtFindingClass::Unsupported, inst);
            return;
        }
        CallStack callee = cs;
        callee.push_back(next);
        enqueue(inst.op == Op::RCALL ? branchTarget() : inst.k, callee,
                st);
        return;
      }
      case Op::RET: case Op::RETI: {
        if (cs.empty())
            return; // routine exit
        CallStack caller = cs;
        uint32_t ret = caller.back();
        caller.pop_back();
        enqueue(ret, caller, st);
        return;
      }
      case Op::BRBS: case Op::BRBC:
        if (st.sregTaint & flagBit(inst.bit))
            finding(pc, CtFindingClass::TaintedBranch, inst);
        enqueue(branchTarget(), cs, st);
        enqueue(next, cs, st);
        return;
      case Op::SBRC: case Op::SBRS:
        if (st.regs[inst.rd].taint)
            finding(pc, CtFindingClass::TaintedSkip, inst);
        enqueue(skipTarget(), cs, st);
        enqueue(next, cs, st);
        return;
      case Op::CPSE:
        if (st.regs[inst.rd].taint || st.regs[inst.rr].taint)
            finding(pc, CtFindingClass::TaintedSkip, inst);
        enqueue(skipTarget(), cs, st);
        enqueue(next, cs, st);
        return;
      case Op::SBIC: case Op::SBIS:
        // I/O bits are public in this model.
        enqueue(skipTarget(), cs, st);
        enqueue(next, cs, st);
        return;
      case Op::IJMP: case Op::ICALL: {
        if (pairTaint(st, 30))
            finding(pc, CtFindingClass::TaintedIndirect, inst);
        uint16_t z;
        if (!pairKnown(st, 30, z)) {
            finding(pc, CtFindingClass::Unsupported, inst);
            return;
        }
        if (inst.op == Op::IJMP) {
            enqueue(z, cs, st);
        } else {
            if (cs.size() >= kMaxCallDepth) {
                finding(pc, CtFindingClass::Unsupported, inst);
                return;
            }
            CallStack callee = cs;
            callee.push_back(next);
            enqueue(z, callee, st);
        }
        return;
      }

      case Op::NOP: case Op::WDR:
        break;
      case Op::SLEEP: case Op::BREAK: case Op::INVALID:
      default:
        finding(pc, CtFindingClass::Unsupported, inst);
        return; // cannot continue past an unmodeled instruction
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

    Walker w{flash, spec, memTaint, {}, {}, {}, 0, false};
    CtReport rep;
    rep.routine = spec.routine;
    rep.contract = spec.contract;

    // Outer fixpoint: stores taint memory mid-walk, and a load at a
    // join analyzed before the tainting store would have read stale
    // taint — re-run the whole walk until the map stops growing.
    for (;;) {
        rep.memPasses++;
        size_t before = memTaint.size();
        w.run(entry);
        if (memTaint.size() == before || w.budgetHit ||
            rep.memPasses >= 16)
            break;
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
