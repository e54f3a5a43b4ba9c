#include "avr/machine.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "avr/superblock.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace jaavr
{

namespace
{

/**
 * JAAVR_ISS_BACKEND=reference|superblock. Unset or unknown values
 * keep the default (Superblock).
 */
IssBackend
envBackend()
{
    const char *v = std::getenv("JAAVR_ISS_BACKEND");
    if (!v || !*v)
        return IssBackend::Superblock;
    if (!std::strcmp(v, "reference"))
        return IssBackend::Reference;
    if (!std::strcmp(v, "superblock"))
        return IssBackend::Superblock;
    warn("ignoring unknown JAAVR_ISS_BACKEND=%s (reference|superblock)",
         v);
    return IssBackend::Superblock;
}

} // anonymous namespace

const char *
issBackendName(IssBackend backend)
{
    switch (backend) {
      case IssBackend::Reference: return "reference";
      case IssBackend::Superblock: return "superblock";
    }
    return "?";
}

const char *
trapKindName(TrapKind kind)
{
    switch (kind) {
      case TrapKind::None: return "none";
      case TrapKind::IllegalOpcode: return "illegal_opcode";
      case TrapKind::FlashOutOfBounds: return "flash_oob";
      case TrapKind::SramOutOfBounds: return "sram_oob";
      case TrapKind::StackOverflow: return "stack_overflow";
      case TrapKind::CycleBudget: return "cycle_budget";
      case TrapKind::MacHazard: return "mac_hazard";
      case TrapKind::DebugBreak: return "debug_break";
    }
    return "?";
}

std::string
Trap::describe() const
{
    switch (kind) {
      case TrapKind::None:
        return "no trap";
      case TrapKind::IllegalOpcode:
        return csprintf("illegal opcode 0x%04x at pc=0x%x", addr, pc);
      case TrapKind::FlashOutOfBounds:
        return csprintf("erased flash executed at pc=0x%x", pc);
      case TrapKind::SramOutOfBounds:
        return csprintf("data access beyond SRAM at 0x%04x (pc=0x%x)",
                        addr, pc);
      case TrapKind::StackOverflow:
        return csprintf("stack overflow into data segment at 0x%04x "
                        "(pc=0x%x)", addr, pc);
      case TrapKind::CycleBudget:
        return csprintf("cycle budget exceeded (pc=0x%x)", pc);
      case TrapKind::MacHazard:
        return addr ? csprintf("MAC hazard: back-to-back Algorithm-2 "
                               "triggers (pc=0x%x)", pc)
                    : csprintf("MAC hazard: shadow register touched "
                               "(pc=0x%x)", pc);
      case TrapKind::DebugBreak:
        return csprintf("debug stop at pc=0x%x", pc);
    }
    return "?";
}

Machine::Machine(CpuMode mode)
    : cpuMode(mode),
      sram(dataSpace - sramBase, 0),
      flash(flashWords, 0xffff),
      backendV(envBackend())
{
    // Erased flash is uniform, so one decode fills the whole cache.
    decodeCache.assign(flashWords, makeDecoded(0xffff, 0xffff));
    reset();
}

Machine::~Machine() = default;

void
Machine::attach(ExecObserver *obs)
{
    for (const Attached &a : observers)
        if (a.obs == obs)
            return;
    observers.push_back({obs, 0});
}

void
Machine::detach(ExecObserver *obs)
{
    std::erase_if(observers,
                  [obs](const Attached &a) { return a.obs == obs; });
}

void
Machine::sampleObservers()
{
    observedEvents = 0;
    for (Attached &a : observers) {
        a.wants = a.obs->wants();
        observedEvents |= a.wants;
    }
}

template <typename Hook>
void
Machine::notify(unsigned event, Hook &&hook)
{
    if (!(observedEvents & event))
        return;
    for (const Attached &a : observers)
        if (a.wants & event)
            hook(*a.obs);
}

void
Machine::loadProgram(const std::vector<uint16_t> &words, uint32_t word_addr)
{
    if (word_addr + words.size() > flashWords)
        fatal("Machine::loadProgram: program does not fit in flash");
    for (size_t i = 0; i < words.size(); i++)
        flash[word_addr + i] = words[i];
    // Refresh the predecode cache over [word_addr - 1, word_addr + n):
    // the preceding word is included because the store may have
    // changed its two-word operand.
    for (size_t i = 0; i <= words.size(); i++) {
        uint32_t a = (word_addr + static_cast<uint32_t>(i) - 1) &
                     (flashWords - 1);
        decodeCache[a] = makeDecoded(flash[a], fetch(a + 1));
    }
    // Translated traces may span the rewritten region (or chain into
    // it); invalidate conservatively. Covers the GDB flash-patch path
    // (DebugTarget::writeMemory routes flash writes through here).
    if (sbCache)
        sbCache->invalidateAll();
}

void
Machine::corruptFlashWord(uint32_t word_addr, uint16_t mask)
{
    uint32_t a = word_addr & (flashWords - 1);
    flash[a] ^= mask;
    decodeCache[a] = makeDecoded(flash[a], fetch(a + 1));
    // The predecessor's two-word operand may have been this word.
    uint32_t prev = (a - 1) & (flashWords - 1);
    decodeCache[prev] = makeDecoded(flash[prev], flash[a]);
    // Self-modifying flash (fault injection, GDB patches): any
    // translated trace may embed the old word, so drop them all.
    if (sbCache)
        sbCache->invalidateAll();
}

DecodedInst
Machine::makeDecoded(uint16_t w0, uint16_t w1) const
{
    DecodedInst d;
    d.inst = decode(w0, w1);
    d.cycles = baseCycleTable(cpuMode)[static_cast<size_t>(d.inst.op)];
    d.touchesMac = touchesMacRegs(d.inst);
    d.macLoadForm = isMacLoadForm(d.inst);
    // Canonicalization: classify synonym encodings (LSL=ADD Rd,Rd,
    // ROL=ADC, TST=AND, CLR=EOR) once at predecode so the superblock
    // translator can emit specialized single-operand handlers.
    d.synonym = synonymOf(d.inst);
    return d;
}

void
Machine::reset()
{
    regs.fill(0);
    io.fill(0);
    std::fill(sram.begin(), sram.end(), 0);
    sregBits = 0;
    pcWord = 0;
    pendingTrap = Trap();
    macUnit.reset();
    execStats.reset();
    setSp(0x10ff);  // top of the ATmega128's internal SRAM
}

uint16_t
Machine::regPair(unsigned i) const
{
    return static_cast<uint16_t>(regs[i]) |
           (static_cast<uint16_t>(regs[i + 1]) << 8);
}

void
Machine::setRegPair(unsigned i, uint16_t v)
{
    regs[i] = static_cast<uint8_t>(v);
    regs[i + 1] = static_cast<uint8_t>(v >> 8);
}

uint8_t
Machine::readRegIo(uint16_t addr) const
{
    if (addr < 0x20)
        return regs[addr];
    if (addr < 0x60) {
        uint8_t ioaddr = addr - ioBase;
        if (ioaddr == 0x3f)
            return sregBits;
        return io[ioaddr];
    }
    return 0;  // extended I/O, unused on this ASIP
}

void
Machine::writeRegIo(uint16_t addr, uint8_t v)
{
    if (addr < 0x20) {
        regs[addr] = v;
        return;
    }
    if (addr < 0x60) {
        uint8_t ioaddr = addr - ioBase;
        if (ioaddr == 0x3f) {
            sregBits = v;
            return;
        }
        if (ioaddr == ioMaccr)
            macUnit.reset();
        io[ioaddr] = v;
    }
    // Extended I/O (0x60..0xff), unused on this ASIP: writes vanish.
}

void
Machine::writeBytes(uint16_t addr, const std::vector<uint8_t> &bytes)
{
    for (size_t i = 0; i < bytes.size(); i++)
        writeData(addr + i, bytes[i]);
}

std::vector<uint8_t>
Machine::readBytes(uint16_t addr, size_t len) const
{
    std::vector<uint8_t> out(len);
    for (size_t i = 0; i < len; i++)
        out[i] = readData(addr + i);
    return out;
}

uint16_t
Machine::sp() const
{
    return static_cast<uint16_t>(io[0x3d]) |
           (static_cast<uint16_t>(io[0x3e]) << 8);
}

void
Machine::setSp(uint16_t v)
{
    io[0x3d] = static_cast<uint8_t>(v);
    io[0x3e] = static_cast<uint8_t>(v >> 8);
}

void
Machine::setMaccr(uint8_t v)
{
    macUnit.reset();
    io[ioMaccr] = v;
}

void
Machine::setFlag(unsigned f, bool v)
{
    if (v)
        sregBits |= 1u << f;
    else
        sregBits &= ~(1u << f);
}

void
Machine::setZns(uint8_t r)
{
    setFlag(fZ, r == 0);
    setFlag(fN, r & 0x80);
    setFlag(fS, flag(fN) != flag(fV));
}

void
Machine::addFlags(uint8_t d, uint8_t s, uint8_t r)
{
    setFlag(fH, ((d & s) | (s & ~r) | (~r & d)) & 0x08);
    setFlag(fC, ((d & s) | (s & ~r) | (~r & d)) & 0x80);
    setFlag(fV, ((d & s & ~r) | (~d & ~s & r)) & 0x80);
    setZns(r);
}

void
Machine::subFlags(uint8_t d, uint8_t s, uint8_t r, bool keep_z)
{
    setFlag(fH, ((~d & s) | (s & r) | (r & ~d)) & 0x08);
    setFlag(fC, ((~d & s) | (s & r) | (r & ~d)) & 0x80);
    setFlag(fV, ((d & ~s & ~r) | (~d & s & r)) & 0x80);
    setFlag(fN, r & 0x80);
    setFlag(fS, flag(fN) != flag(fV));
    if (keep_z)
        setFlag(fZ, (r == 0) && flag(fZ));
    else
        setFlag(fZ, r == 0);
}

void
Machine::push8(uint8_t v)
{
    writeData(sp(), v);
    setSp(sp() - 1);
}

uint8_t
Machine::pop8()
{
    setSp(sp() + 1);
    return readData(sp());
}

void
Machine::pushPc(uint32_t pc)
{
    // Low byte pushed first, high byte second (popped in reverse).
    push8(static_cast<uint8_t>(pc));
    push8(static_cast<uint8_t>(pc >> 8));
}

uint32_t
Machine::popPc()
{
    uint32_t hi = pop8();
    uint32_t lo = pop8();
    return (hi << 8) | lo;
}

uint16_t
Machine::fetch(uint32_t word_addr) const
{
    return flash[word_addr & (flashWords - 1)];
}

void
Machine::triggerLoadMac(uint8_t value)
{
    // The two micro-MACs are applied immediately; the shadow counter
    // plus the hazard checks in step() make that indistinguishable
    // from the real one-per-following-cycle retirement.
    macUnit.macLoad(regs, value);
}

unsigned
Machine::step()
{
    sampleObservers();
    return execute();
}

unsigned
Machine::execute()
{
    pendingTrap = Trap();
    uint32_t pc0 = pcWord;
    uint16_t w0 = fetch(pc0);
    uint16_t w1 = fetch(pc0 + 1);
    Inst inst = decode(w0, w1);

    if (inst.op == Op::INVALID) {
        pendingTrap = Trap{w0 == 0xffff ? TrapKind::FlashOutOfBounds
                                        : TrapKind::IllegalOpcode,
                           pc0, w0};
        return 0;
    }

    // MAC shadow hazard check (Algorithm 2's 13-register rule): the
    // instructions executing while MAC micro-ops are pending must not
    // touch {R0..R8, R16..R19}. A new R24 load is allowed (pipelined
    // retriggering) unless both micro-ops of the previous trigger are
    // still outstanding.
    bool ise = cpuMode == CpuMode::ISE;
    bool load_mac = ise && (io[ioMaccr] & MacUnit::ctrlLoadMode);
    bool swap_mac = ise && (io[ioMaccr] & MacUnit::ctrlSwapMode);
    const uint8_t shadow = macUnit.pendingShadow();
    const bool is_r24_load = load_mac && isMacLoadForm(inst);
    if (shadow > 0 && touchesMacRegs(inst) && !is_r24_load) {
        pendingTrap = Trap{TrapKind::MacHazard, pc0, 0};
        return 0;
    }
    if (shadow >= 2 && is_r24_load) {
        pendingTrap = Trap{TrapKind::MacHazard, pc0, 1};
        return 0;
    }

    uint32_t next_pc = pc0 + inst.words;
    unsigned cycles = baseCycles(inst.op, cpuMode);
    bool mac_triggered = false;

    auto ld_trigger = [&](uint8_t v) {
        if (is_r24_load) {
            triggerLoadMac(v);
            mac_triggered = true;
        }
    };

    // Guarded data-space access: the superblock loop mirrors these
    // checks byte for byte in its loadMem/storeMem/pushB lambdas for
    // the forms it has handlers for, so a trapping instruction leaves
    // identical partial state (e.g. an SP moved by a call's first
    // pushed byte) on both loops; every other form runs through here.
    // I/O-space accesses (IN/OUT/SBI/CBI, addresses < sramBase) stay
    // unguarded.
    TrapKind trap_kind = TrapKind::None;
    uint16_t trap_addr = 0;
    auto ldG = [&](uint16_t a) -> uint8_t {
        notify(ExecObserver::Access,
               [a](ExecObserver &o) { o.onLoad(a); });
        if (a >= sramBase && a > dataLimitV) {
            trap_kind = TrapKind::SramOutOfBounds;
            trap_addr = a;
            return 0xff;
        }
        return readData(a);
    };
    auto stG = [&](uint16_t a, uint8_t v) {
        notify(ExecObserver::Access,
               [a](ExecObserver &o) { o.onStore(a); });
        if (a >= sramBase && a > dataLimitV) {
            trap_kind = TrapKind::SramOutOfBounds;
            trap_addr = a;
            return;
        }
        writeData(a, v);
    };
    auto pushG = [&](uint8_t v) {
        uint16_t a = sp();
        if (a < stackGuardV) {
            trap_kind = TrapKind::StackOverflow;
            trap_addr = a;
            return;
        }
        stG(a, v);
        if (trap_kind == TrapKind::None)
            setSp(a - 1);
    };
    auto popG = [&]() -> uint8_t {
        setSp(sp() + 1);
        return ldG(sp());
    };
    auto pushPcG = [&](uint32_t ret) {
        // Low byte pushed first, high byte second (popped in reverse).
        pushG(static_cast<uint8_t>(ret));
        pushG(static_cast<uint8_t>(ret >> 8));
    };
    auto popPcG = [&]() -> uint32_t {
        uint32_t hi = popG();
        uint32_t lo = popG();
        return (hi << 8) | lo;
    };

    switch (inst.op) {
      case Op::ADD: {
        uint8_t d = regs[inst.rd], s = regs[inst.rr];
        uint8_t r = d + s;
        regs[inst.rd] = r;
        addFlags(d, s, r);
        break;
      }
      case Op::ADC: {
        uint8_t d = regs[inst.rd], s = regs[inst.rr];
        uint8_t r = d + s + (flag(fC) ? 1 : 0);
        regs[inst.rd] = r;
        addFlags(d, s, r);
        break;
      }
      case Op::SUB: {
        uint8_t d = regs[inst.rd], s = regs[inst.rr];
        uint8_t r = d - s;
        regs[inst.rd] = r;
        subFlags(d, s, r, false);
        break;
      }
      case Op::SBC: {
        uint8_t d = regs[inst.rd], s = regs[inst.rr];
        uint8_t r = d - s - (flag(fC) ? 1 : 0);
        regs[inst.rd] = r;
        subFlags(d, s, r, true);
        break;
      }
      case Op::SUBI: {
        uint8_t d = regs[inst.rd];
        uint8_t r = d - inst.imm;
        regs[inst.rd] = r;
        subFlags(d, inst.imm, r, false);
        break;
      }
      case Op::SBCI: {
        uint8_t d = regs[inst.rd];
        uint8_t r = d - inst.imm - (flag(fC) ? 1 : 0);
        regs[inst.rd] = r;
        subFlags(d, inst.imm, r, true);
        break;
      }
      case Op::CP: {
        uint8_t d = regs[inst.rd], s = regs[inst.rr];
        subFlags(d, s, d - s, false);
        break;
      }
      case Op::CPC: {
        uint8_t d = regs[inst.rd], s = regs[inst.rr];
        uint8_t r = d - s - (flag(fC) ? 1 : 0);
        subFlags(d, s, r, true);
        break;
      }
      case Op::CPI: {
        uint8_t d = regs[inst.rd];
        subFlags(d, inst.imm, d - inst.imm, false);
        break;
      }
      case Op::AND: case Op::ANDI: {
        uint8_t s = inst.op == Op::AND ? regs[inst.rr] : inst.imm;
        uint8_t r = regs[inst.rd] & s;
        regs[inst.rd] = r;
        setFlag(fV, false);
        setZns(r);
        break;
      }
      case Op::OR: case Op::ORI: {
        uint8_t s = inst.op == Op::OR ? regs[inst.rr] : inst.imm;
        uint8_t r = regs[inst.rd] | s;
        regs[inst.rd] = r;
        setFlag(fV, false);
        setZns(r);
        break;
      }
      case Op::EOR: {
        uint8_t r = regs[inst.rd] ^ regs[inst.rr];
        regs[inst.rd] = r;
        setFlag(fV, false);
        setZns(r);
        break;
      }
      case Op::MOV:
        regs[inst.rd] = regs[inst.rr];
        break;
      case Op::MOVW:
        regs[inst.rd] = regs[inst.rr];
        regs[inst.rd + 1] = regs[inst.rr + 1];
        break;
      case Op::LDI:
        regs[inst.rd] = inst.imm;
        break;
      case Op::ADIW: {
        uint16_t d = regPair(inst.rd);
        uint16_t r = d + inst.imm;
        setRegPair(inst.rd, r);
        setFlag(fV, !(d & 0x8000) && (r & 0x8000));
        setFlag(fC, !(r & 0x8000) && (d & 0x8000));
        setFlag(fN, r & 0x8000);
        setFlag(fZ, r == 0);
        setFlag(fS, flag(fN) != flag(fV));
        break;
      }
      case Op::SBIW: {
        uint16_t d = regPair(inst.rd);
        uint16_t r = d - inst.imm;
        setRegPair(inst.rd, r);
        setFlag(fV, (d & 0x8000) && !(r & 0x8000));
        setFlag(fC, (r & 0x8000) && !(d & 0x8000));
        setFlag(fN, r & 0x8000);
        setFlag(fZ, r == 0);
        setFlag(fS, flag(fN) != flag(fV));
        break;
      }
      case Op::MUL: {
        uint16_t p = static_cast<uint16_t>(regs[inst.rd]) * regs[inst.rr];
        regs[0] = static_cast<uint8_t>(p);
        regs[1] = static_cast<uint8_t>(p >> 8);
        setFlag(fC, p & 0x8000);
        setFlag(fZ, p == 0);
        break;
      }
      case Op::MULS: {
        int16_t p = static_cast<int16_t>(static_cast<int8_t>(regs[inst.rd])) *
                    static_cast<int8_t>(regs[inst.rr]);
        uint16_t u = static_cast<uint16_t>(p);
        regs[0] = static_cast<uint8_t>(u);
        regs[1] = static_cast<uint8_t>(u >> 8);
        setFlag(fC, u & 0x8000);
        setFlag(fZ, u == 0);
        break;
      }
      case Op::MULSU: {
        int16_t p = static_cast<int16_t>(static_cast<int8_t>(regs[inst.rd])) *
                    static_cast<uint8_t>(regs[inst.rr]);
        uint16_t u = static_cast<uint16_t>(p);
        regs[0] = static_cast<uint8_t>(u);
        regs[1] = static_cast<uint8_t>(u >> 8);
        setFlag(fC, u & 0x8000);
        setFlag(fZ, u == 0);
        break;
      }
      case Op::FMUL: case Op::FMULS: case Op::FMULSU: {
        int32_t p;
        if (inst.op == Op::FMUL)
            p = static_cast<uint16_t>(regs[inst.rd]) * regs[inst.rr];
        else if (inst.op == Op::FMULS)
            p = static_cast<int8_t>(regs[inst.rd]) *
                static_cast<int8_t>(regs[inst.rr]);
        else
            p = static_cast<int8_t>(regs[inst.rd]) * regs[inst.rr];
        uint16_t u = static_cast<uint16_t>(p);
        setFlag(fC, u & 0x8000);
        u <<= 1;
        regs[0] = static_cast<uint8_t>(u);
        regs[1] = static_cast<uint8_t>(u >> 8);
        setFlag(fZ, u == 0);
        break;
      }
      case Op::COM: {
        uint8_t r = ~regs[inst.rd];
        regs[inst.rd] = r;
        setFlag(fC, true);
        setFlag(fV, false);
        setZns(r);
        break;
      }
      case Op::NEG: {
        uint8_t d = regs[inst.rd];
        uint8_t r = -d;
        regs[inst.rd] = r;
        subFlags(0, d, r, false);
        break;
      }
      case Op::SWAP: {
        uint8_t d = regs[inst.rd];
        if (swap_mac)
            macUnit.macSwap(regs, d & 0x0f);
        regs[inst.rd] = static_cast<uint8_t>((d << 4) | (d >> 4));
        break;
      }
      case Op::INC: {
        uint8_t r = regs[inst.rd] + 1;
        regs[inst.rd] = r;
        setFlag(fV, r == 0x80);
        setZns(r);
        break;
      }
      case Op::DEC: {
        uint8_t r = regs[inst.rd] - 1;
        regs[inst.rd] = r;
        setFlag(fV, r == 0x7f);
        setZns(r);
        break;
      }
      case Op::ASR: {
        uint8_t d = regs[inst.rd];
        uint8_t r = static_cast<uint8_t>((d >> 1) | (d & 0x80));
        regs[inst.rd] = r;
        setFlag(fC, d & 1);
        setFlag(fN, r & 0x80);
        setFlag(fV, flag(fN) != flag(fC));
        setFlag(fZ, r == 0);
        setFlag(fS, flag(fN) != flag(fV));
        break;
      }
      case Op::LSR: {
        uint8_t d = regs[inst.rd];
        uint8_t r = d >> 1;
        regs[inst.rd] = r;
        setFlag(fC, d & 1);
        setFlag(fN, false);
        setFlag(fV, flag(fN) != flag(fC));
        setFlag(fZ, r == 0);
        setFlag(fS, flag(fN) != flag(fV));
        break;
      }
      case Op::ROR: {
        uint8_t d = regs[inst.rd];
        uint8_t r = static_cast<uint8_t>((d >> 1) | (flag(fC) ? 0x80 : 0));
        regs[inst.rd] = r;
        setFlag(fC, d & 1);
        setFlag(fN, r & 0x80);
        setFlag(fV, flag(fN) != flag(fC));
        setFlag(fZ, r == 0);
        setFlag(fS, flag(fN) != flag(fV));
        break;
      }
      case Op::BSET:
        setFlag(inst.bit, true);
        break;
      case Op::BCLR:
        setFlag(inst.bit, false);
        break;
      case Op::BLD:
        if (flag(fT))
            regs[inst.rd] |= 1u << inst.bit;
        else
            regs[inst.rd] &= ~(1u << inst.bit);
        break;
      case Op::BST:
        setFlag(fT, regs[inst.rd] & (1u << inst.bit));
        break;
      case Op::SBI:
        writeData(ioBase + inst.imm,
                  readData(ioBase + inst.imm) | (1u << inst.bit));
        break;
      case Op::CBI:
        writeData(ioBase + inst.imm,
                  readData(ioBase + inst.imm) & ~(1u << inst.bit));
        break;
      case Op::SBIC: case Op::SBIS: {
        bool bit = readData(ioBase + inst.imm) & (1u << inst.bit);
        bool skip = inst.op == Op::SBIS ? bit : !bit;
        if (skip) {
            bool two = isTwoWord(fetch(next_pc));
            cycles += skipExtra(two);
            next_pc += two ? 2 : 1;
        }
        break;
      }
      case Op::IN:
        regs[inst.rd] = readData(ioBase + inst.imm);
        break;
      case Op::OUT:
        writeData(ioBase + inst.imm, regs[inst.rd]);
        break;

      case Op::LD_X: case Op::LD_X_INC: case Op::LD_X_DEC: {
        uint16_t a = x();
        if (inst.op == Op::LD_X_DEC)
            setX(--a);
        uint8_t v = ldG(a);
        regs[inst.rd] = v;
        if (inst.op == Op::LD_X_INC)
            setX(a + 1);
        ld_trigger(v);
        break;
      }
      case Op::LD_Y_INC: case Op::LD_Y_DEC: case Op::LDD_Y: {
        uint16_t a = y();
        if (inst.op == Op::LD_Y_DEC)
            setY(--a);
        else if (inst.op == Op::LDD_Y)
            a += inst.disp;
        uint8_t v = ldG(a);
        regs[inst.rd] = v;
        if (inst.op == Op::LD_Y_INC)
            setY(a + 1);
        ld_trigger(v);
        break;
      }
      case Op::LD_Z_INC: case Op::LD_Z_DEC: case Op::LDD_Z: {
        uint16_t a = z();
        if (inst.op == Op::LD_Z_DEC)
            setZ(--a);
        else if (inst.op == Op::LDD_Z)
            a += inst.disp;
        uint8_t v = ldG(a);
        regs[inst.rd] = v;
        if (inst.op == Op::LD_Z_INC)
            setZ(a + 1);
        ld_trigger(v);
        break;
      }
      case Op::LDS: {
        uint8_t v = ldG(static_cast<uint16_t>(inst.k));
        regs[inst.rd] = v;
        ld_trigger(v);
        break;
      }
      case Op::ST_X: case Op::ST_X_INC: case Op::ST_X_DEC: {
        uint16_t a = x();
        if (inst.op == Op::ST_X_DEC)
            setX(--a);
        stG(a, regs[inst.rd]);
        if (inst.op == Op::ST_X_INC)
            setX(a + 1);
        break;
      }
      case Op::ST_Y_INC: case Op::ST_Y_DEC: case Op::STD_Y: {
        uint16_t a = y();
        if (inst.op == Op::ST_Y_DEC)
            setY(--a);
        else if (inst.op == Op::STD_Y)
            a += inst.disp;
        stG(a, regs[inst.rd]);
        if (inst.op == Op::ST_Y_INC)
            setY(a + 1);
        break;
      }
      case Op::ST_Z_INC: case Op::ST_Z_DEC: case Op::STD_Z: {
        uint16_t a = z();
        if (inst.op == Op::ST_Z_DEC)
            setZ(--a);
        else if (inst.op == Op::STD_Z)
            a += inst.disp;
        stG(a, regs[inst.rd]);
        if (inst.op == Op::ST_Z_INC)
            setZ(a + 1);
        break;
      }
      case Op::STS:
        stG(static_cast<uint16_t>(inst.k), regs[inst.rd]);
        break;
      case Op::PUSH:
        pushG(regs[inst.rd]);
        break;
      case Op::POP:
        regs[inst.rd] = popG();
        break;
      case Op::LPM_R0: case Op::LPM: case Op::LPM_INC: {
        uint16_t a = z();
        uint16_t w = flash[(a >> 1) & (flashWords - 1)];
        uint8_t v = (a & 1) ? static_cast<uint8_t>(w >> 8)
                            : static_cast<uint8_t>(w);
        uint8_t rd = inst.op == Op::LPM_R0 ? 0 : inst.rd;
        regs[rd] = v;
        if (inst.op == Op::LPM_INC)
            setZ(a + 1);
        break;
      }

      case Op::RJMP:
        next_pc = pc0 + 1 + inst.disp;
        break;
      case Op::RCALL:
        pushPcG(pc0 + 1);
        next_pc = pc0 + 1 + inst.disp;
        break;
      case Op::JMP:
        next_pc = inst.k;
        break;
      case Op::CALL:
        pushPcG(pc0 + 2);
        next_pc = inst.k;
        break;
      case Op::IJMP:
        next_pc = z();
        break;
      case Op::ICALL:
        pushPcG(pc0 + 1);
        next_pc = z();
        break;
      case Op::RET: case Op::RETI:
        next_pc = popPcG();
        if (inst.op == Op::RETI)
            setFlag(fI, true);
        break;
      case Op::BRBS:
        if (flag(inst.bit)) {
            next_pc = pc0 + 1 + inst.disp;
            cycles += branchTakenExtra;
        }
        break;
      case Op::BRBC:
        if (!flag(inst.bit)) {
            next_pc = pc0 + 1 + inst.disp;
            cycles += branchTakenExtra;
        }
        break;
      case Op::CPSE: case Op::SBRC: case Op::SBRS: {
        bool skip;
        if (inst.op == Op::CPSE)
            skip = regs[inst.rd] == regs[inst.rr];
        else if (inst.op == Op::SBRC)
            skip = !(regs[inst.rd] & (1u << inst.bit));
        else
            skip = regs[inst.rd] & (1u << inst.bit);
        if (skip) {
            bool two = isTwoWord(fetch(next_pc));
            cycles += skipExtra(two);
            next_pc += two ? 2 : 1;
        }
        break;
      }

      case Op::NOP: case Op::SLEEP: case Op::WDR: case Op::BREAK:
        break;

      case Op::INVALID:
        break;
    }

    // A trapping instruction does not retire: PC, shadow and
    // statistics stay as of just before it (partial side effects
    // like a pre-decremented pointer remain, identically in the
    // superblock loop).
    if (trap_kind != TrapKind::None) {
        pendingTrap = Trap{trap_kind, pc0, trap_addr};
        return 0;
    }

    // Retire pending MAC shadow cycles; a fresh trigger's two
    // micro-ops occupy the two cycles after this instruction. The
    // live count is aged, not the one read before the instruction: a
    // store into MACCR has already reset it to zero.
    const uint8_t live = macUnit.pendingShadow();
    if (mac_triggered)
        macUnit.setPendingShadow(2);
    else
        macUnit.setPendingShadow(
            live > cycles ? live - static_cast<uint8_t>(cycles) : 0);

    pcWord = next_pc & 0xffff;
    execStats.opCount[static_cast<size_t>(inst.op)]++;
    execStats.opCycles[static_cast<size_t>(inst.op)] += cycles;
    execStats.instructions++;
    execStats.cycles += cycles;
    if (inst.op == Op::NOP && shadow > 0)
        execStats.macStallNops++;

    notify(ExecObserver::Retire, [&](ExecObserver &o) {
        o.onRetire(*this, pc0, inst, cycles);
    });
    if (inst.op == Op::CALL || inst.op == Op::RCALL ||
        inst.op == Op::ICALL)
        notify(ExecObserver::CallRet, [&](ExecObserver &o) {
            o.onCall(pc0, pcWord, execStats.cycles);
        });
    else if (inst.op == Op::RET || inst.op == Op::RETI)
        notify(ExecObserver::CallRet, [&](ExecObserver &o) {
            o.onRet(pc0, pcWord, execStats.cycles);
        });
    return cycles;
}

void
Machine::runReference(uint64_t max_cycles)
{
    uint64_t start = execStats.cycles;
    while (pcWord != exitAddress) {
        if (observedEvents & ExecObserver::Boundary) {
            const uint32_t pc = pcWord;
            bool stop = false;
            for (const Attached &a : observers) {
                if (!(a.wants & ExecObserver::Boundary))
                    continue;
                stop = a.obs->onBoundary(*this, pc, execStats.cycles);
                if (stop || pcWord != pc)
                    break;
            }
            if (stop) {
                pendingTrap = Trap{TrapKind::DebugBreak, pcWord, 0};
                return;
            }
            if (pcWord != pc)
                continue; // a hook moved the PC: a new boundary
        }
        execute();
        if (pendingTrap)
            return;
        execStats.referenceInstructions++;
        if (execStats.cycles - start >= max_cycles) {
            pendingTrap = Trap{TrapKind::CycleBudget, pcWord, 0};
            return;
        }
    }
}

RunResult
Machine::run(uint64_t max_cycles)
{
    pendingTrap = Trap();
    uint64_t start = execStats.cycles;
    // An observed run needs its observers served at every instruction
    // boundary with the machine's state current, which only the
    // step() loop provides. Traps are delivered below on both loops.
    sampleObservers();
    if ((observedEvents & ~unsigned(ExecObserver::Traps)) ||
        backendV == IssBackend::Reference)
        runReference(max_cycles);
    else
        runSuperblock(max_cycles);
    // Single count point for trap telemetry: both loops funnel
    // through here, so kinds are never counted twice. Observers see
    // the already-accounted machine, so they cannot skew its cycles
    // or state.
    if (pendingTrap) {
        execStats.trapCount[static_cast<size_t>(pendingTrap.kind)]++;
        notify(ExecObserver::Traps, [this](ExecObserver &o) {
            o.onTrap(*this, pendingTrap);
        });
    }
    return {execStats.cycles - start, pendingTrap};
}

RunResult
Machine::call(uint32_t word_addr, uint64_t max_cycles)
{
    pushPc(exitAddress);
    pcWord = word_addr & 0xffff;
    // Synthetic call event so profilers see the routine entered from
    // the harness; the final RET to exitAddress closes it.
    sampleObservers();
    notify(ExecObserver::CallRet, [this](ExecObserver &o) {
        o.onCall(exitAddress, pcWord, execStats.cycles);
    });
    return run(max_cycles);
}

void
Machine::publishMetrics(MetricsRegistry &reg) const
{
    reg.counter("iss_instructions").inc(execStats.instructions);
    reg.counter("iss_cycles").inc(execStats.cycles);
    reg.counter("iss_mac_stall_nops").inc(execStats.macStallNops);
    for (size_t k = 0; k < execStats.trapCount.size(); k++) {
        if (!execStats.trapCount[k])
            continue;
        reg.counter("iss_traps",
                    {{"kind", trapKindName(static_cast<TrapKind>(k))}})
            .inc(execStats.trapCount[k]);
    }
    // MAC trigger counts split by the paper's two algorithms (Fig. 1:
    // SWAP-triggered Algorithm 1 vs load-triggered Algorithm 2).
    reg.counter("mac_triggers", {{"alg", "1"}}).inc(macUnit.alg1Macs());
    reg.counter("mac_triggers", {{"alg", "2"}}).inc(macUnit.alg2Macs());
    reg.counter("mac_ops_total").inc(macUnit.totalMacs());
    // Per-op cycle distribution: each mnemonic contributes its mean
    // cycles-per-retirement at its retirement weight (the retired
    // statistics are aggregates, so the per-op mean is the available
    // resolution). The p50/p99 gauges answer "what does a typical /
    // tail retirement cost" without re-running under a profiler.
    Histogram &cyc = reg.histogram("iss_cycles_per_inst",
                                   {1, 2, 3, 4, 5, 8, 16, 32, 64});
    for (size_t i = 0; i < kNumOps; i++) {
        if (!execStats.opCount[i])
            continue;
        MetricLabels op_label{{"op", opName(static_cast<Op>(i))}};
        reg.counter("iss_op_retired", op_label).inc(execStats.opCount[i]);
        reg.counter("iss_op_cycles", op_label).inc(execStats.opCycles[i]);
        cyc.observe(double(execStats.opCycles[i]) /
                        double(execStats.opCount[i]),
                    execStats.opCount[i]);
    }
    reg.gauge("iss_cycles_per_inst_p50").set(cyc.percentile(50));
    reg.gauge("iss_cycles_per_inst_p99").set(cyc.percentile(99));
    reg.gauge("iss_pc").set(pcWord);
    reg.gauge("iss_sp").set(sp());
}

} // namespace jaavr
