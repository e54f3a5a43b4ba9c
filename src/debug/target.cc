#include "debug/target.hh"

#include <algorithm>

namespace jaavr
{

namespace
{

/** gdb signal numbers (gdb/signals.def, not host signals). */
constexpr uint8_t kGdbSigInt = 2;
constexpr uint8_t kGdbSigIll = 4;
constexpr uint8_t kGdbSigTrap = 5;
constexpr uint8_t kGdbSigBus = 10;
constexpr uint8_t kGdbSigSegv = 11;

} // anonymous namespace

DebugTarget::DebugTarget(Machine &m) : mach(m)
{
    mach.attach(this);
}

DebugTarget::~DebugTarget()
{
    mach.detach(this);
}

/* ---- registers --------------------------------------------------- */

std::array<uint8_t, DebugTarget::kRegBlockLen>
DebugTarget::readRegisters() const
{
    std::array<uint8_t, kRegBlockLen> block{};
    for (unsigned i = 0; i < 32; i++)
        block[i] = mach.reg(i);
    block[32] = mach.sreg();
    uint16_t sp = mach.sp();
    block[33] = static_cast<uint8_t>(sp);
    block[34] = static_cast<uint8_t>(sp >> 8);
    uint32_t byte_pc = mach.pc() * 2; // gdb PCs are byte addresses
    for (unsigned i = 0; i < 4; i++)
        block[35 + i] = static_cast<uint8_t>(byte_pc >> (8 * i));
    return block;
}

void
DebugTarget::writeRegisters(
    const std::array<uint8_t, kRegBlockLen> &block)
{
    for (unsigned i = 0; i < 32; i++)
        mach.setReg(i, block[i]);
    mach.setSreg(block[32]);
    mach.setSp(static_cast<uint16_t>(block[33]) |
               (static_cast<uint16_t>(block[34]) << 8));
    uint32_t byte_pc = 0;
    for (unsigned i = 0; i < 4; i++)
        byte_pc |= static_cast<uint32_t>(block[35 + i]) << (8 * i);
    mach.setPc(byte_pc / 2);
}

size_t
DebugTarget::regSize(unsigned regno)
{
    if (regno < 32 || regno == 32)
        return 1;
    if (regno == 33)
        return 2;
    if (regno == 34)
        return 4;
    return 0;
}

std::vector<uint8_t>
DebugTarget::readRegister(unsigned regno) const
{
    std::array<uint8_t, kRegBlockLen> block = readRegisters();
    static constexpr size_t offsets[] = {0, 32, 33, 35};
    size_t n = regSize(regno);
    if (n == 0)
        return {};
    size_t off = regno < 32 ? regno : offsets[regno - 32 + 1];
    return {block.begin() + off, block.begin() + off + n};
}

bool
DebugTarget::writeRegister(unsigned regno,
                           const std::vector<uint8_t> &bytes)
{
    size_t n = regSize(regno);
    if (n == 0 || bytes.size() != n)
        return false;
    if (regno < 32) {
        mach.setReg(regno, bytes[0]);
    } else if (regno == 32) {
        mach.setSreg(bytes[0]);
    } else if (regno == 33) {
        mach.setSp(static_cast<uint16_t>(bytes[0]) |
                   (static_cast<uint16_t>(bytes[1]) << 8));
    } else {
        uint32_t byte_pc = 0;
        for (unsigned i = 0; i < 4; i++)
            byte_pc |= static_cast<uint32_t>(bytes[i]) << (8 * i);
        mach.setPc(byte_pc / 2);
    }
    return true;
}

/* ---- gdb composite address space --------------------------------- */

bool
DebugTarget::readMemory(uint32_t addr, size_t len,
                        std::vector<uint8_t> &out) const
{
    out.clear();
    out.reserve(len);
    for (size_t i = 0; i < len; i++) {
        uint32_t a = addr + static_cast<uint32_t>(i);
        if (a < kGdbDataBase) {
            // Flash, byte-addressed little-endian words; reads past
            // the end of the device return erased flash.
            if (a >= Machine::flashWords * 2) {
                out.push_back(0xff);
                continue;
            }
            uint16_t w = mach.flashWord(a >> 1);
            out.push_back(
                static_cast<uint8_t>((a & 1) ? (w >> 8) : w));
        } else if (a < kGdbEepromBase) {
            out.push_back(
                mach.readData(static_cast<uint16_t>(a - kGdbDataBase)));
        } else if (a - kGdbEepromBase < kEepromSize) {
            out.push_back(eepromByte(a - kGdbEepromBase));
        } else {
            return false;
        }
    }
    return true;
}

bool
DebugTarget::writeMemory(uint32_t addr,
                         const std::vector<uint8_t> &bytes)
{
    // Validate the whole range first so a failing write is atomic.
    for (size_t i = 0; i < bytes.size(); i++) {
        uint32_t a = addr + static_cast<uint32_t>(i);
        if (a < kGdbDataBase) {
            if (a >= Machine::flashWords * 2)
                return false;
        } else if (a < kGdbEepromBase) {
            continue;
        } else if (a - kGdbEepromBase >= kEepromSize) {
            return false;
        }
    }
    for (size_t i = 0; i < bytes.size(); i++) {
        uint32_t a = addr + static_cast<uint32_t>(i);
        if (a < kGdbDataBase) {
            uint16_t w = mach.flashWord(a >> 1);
            uint16_t nw = (a & 1)
                ? static_cast<uint16_t>((w & 0x00ff) | (bytes[i] << 8))
                : static_cast<uint16_t>((w & 0xff00) | bytes[i]);
            if (nw != w) // XOR patch refreshes the decode cache too
                mach.corruptFlashWord(a >> 1, w ^ nw);
        } else if (a < kGdbEepromBase) {
            mach.writeData(static_cast<uint16_t>(a - kGdbDataBase),
                           bytes[i]);
        } else {
            eeprom.resize(kEepromSize, 0xff);
            eeprom[a - kGdbEepromBase] = bytes[i];
        }
    }
    return true;
}

/* ---- breakpoints and watchpoints --------------------------------- */

bool
DebugTarget::setBreakpoint(uint32_t addr)
{
    if (addr >= kGdbDataBase || (addr & 1) ||
        addr >= Machine::flashWords * 2)
        return false;
    breakWords.insert(addr >> 1);
    return true;
}

bool
DebugTarget::clearBreakpoint(uint32_t addr)
{
    return breakWords.erase(addr >> 1) != 0;
}

bool
DebugTarget::setWatchpoint(WatchKind kind, uint32_t addr, uint16_t len)
{
    if (len == 0)
        return false;
    if (addr >= kGdbDataBase) {
        if (addr >= kGdbEepromBase)
            return false; // EEPROM traffic is not instruction traffic
        addr -= kGdbDataBase;
    }
    if (addr > 0xffff)
        return false;
    watches.push_back({kind, static_cast<uint16_t>(addr), len});
    return true;
}

bool
DebugTarget::clearWatchpoint(WatchKind kind, uint32_t addr,
                             uint16_t len)
{
    if (addr >= kGdbDataBase && addr < kGdbEepromBase)
        addr -= kGdbDataBase;
    auto it = std::find_if(
        watches.begin(), watches.end(), [&](const Watch &w) {
            return w.kind == kind && w.addr == addr && w.len == len;
        });
    if (it == watches.end())
        return false;
    watches.erase(it);
    return true;
}

/* ---- ExecObserver ------------------------------------------------ */

bool
DebugTarget::wantsStops() const
{
    return !breakWords.empty() || !watches.empty();
}

bool
DebugTarget::onBoundary(Machine &, uint32_t pc, uint64_t)
{
    // A watched access retired during the previous instruction: stop
    // now, with PC past the accessing instruction (gdb's semantics
    // for write watchpoints).
    if (watchHit)
        return true;
    bool skip = skipArmed && pc == skipPc;
    skipArmed = false;
    return !skip && breakWords.count(pc) != 0;
}

void
DebugTarget::onLoad(uint16_t addr)
{
    matchWatch(addr, false);
}

void
DebugTarget::onStore(uint16_t addr)
{
    matchWatch(addr, true);
}

void
DebugTarget::matchWatch(uint16_t addr, bool is_store)
{
    if (watchHit)
        return;
    for (const Watch &w : watches) {
        if (addr < w.addr || addr >= w.addr + w.len)
            continue;
        bool kind_matches = w.kind == WatchKind::Access ||
                            (is_store ? w.kind == WatchKind::Write
                                      : w.kind == WatchKind::Read);
        if (!kind_matches)
            continue;
        watchHit = true;
        hitKind = w.kind;
        // Report the watchpoint's own address: that is the key gdb
        // uses to find the matching watchpoint in its table.
        hitAddr = w.addr;
        return;
    }
}

/* ---- execution control ------------------------------------------- */

StopInfo
DebugTarget::stopFor(StopInfo::Kind kind, uint8_t signal) const
{
    StopInfo info;
    info.kind = kind;
    info.signal = signal;
    info.cycles = mach.stats().cycles;
    return info;
}

StopInfo
DebugTarget::mapTrap(const Trap &trap) const
{
    uint8_t sig = kGdbSigTrap;
    switch (trap.kind) {
      case TrapKind::IllegalOpcode:
        sig = kGdbSigIll;
        break;
      case TrapKind::FlashOutOfBounds:
      case TrapKind::SramOutOfBounds:
      case TrapKind::StackOverflow:
        sig = kGdbSigSegv;
        break;
      case TrapKind::MacHazard:
        sig = kGdbSigBus;
        break;
      default:
        break;
    }
    StopInfo info = stopFor(StopInfo::Kind::Trapped, sig);
    info.trap = trap;
    return info;
}

StopInfo
DebugTarget::stepOne()
{
    inFlight = false;
    skipArmed = false;
    watchHit = false;
    if (mach.pc() == Machine::exitAddress)
        return stopFor(StopInfo::Kind::Exited, 0);
    mach.step();
    if (mach.trap())
        return mapTrap(mach.trap());
    if (watchHit) {
        watchHit = false;
        StopInfo info = stopFor(StopInfo::Kind::Watchpoint, kGdbSigTrap);
        info.watchKind = hitKind;
        info.watchAddr = hitAddr;
        return info;
    }
    if (mach.pc() == Machine::exitAddress)
        return stopFor(StopInfo::Kind::Exited, 0);
    return stopFor(StopInfo::Kind::Stepped, kGdbSigTrap);
}

StopInfo
DebugTarget::resume(uint64_t slice_cycles)
{
    if (mach.pc() == Machine::exitAddress) {
        inFlight = false;
        return stopFor(StopInfo::Kind::Exited, 0);
    }
    if (!inFlight) {
        // Fresh continue from a reported stop: don't re-trigger a
        // breakpoint at the resume PC before anything executed.
        inFlight = true;
        skipArmed = true;
        skipPc = mach.pc();
        watchHit = false;
    }
    RunResult r = mach.run(slice_cycles);
    if (r.trap.kind == TrapKind::CycleBudget)
        return stopFor(StopInfo::Kind::Running, 0);
    inFlight = false;
    skipArmed = false;
    if (!r.trap)
        return stopFor(StopInfo::Kind::Exited, 0);
    if (r.trap.kind == TrapKind::DebugBreak) {
        if (watchHit) {
            watchHit = false;
            StopInfo info =
                stopFor(StopInfo::Kind::Watchpoint, kGdbSigTrap);
            info.watchKind = hitKind;
            info.watchAddr = hitAddr;
            return info;
        }
        return stopFor(StopInfo::Kind::Breakpoint, kGdbSigTrap);
    }
    return mapTrap(r.trap);
}

StopInfo
DebugTarget::interrupt()
{
    inFlight = false;
    skipArmed = false;
    watchHit = false;
    return stopFor(StopInfo::Kind::Interrupted, kGdbSigInt);
}

void
DebugTarget::setupCall(uint32_t entry_word_addr)
{
    // Mirror Machine::call()'s pushPc: low byte first, SP decrements
    // after each byte.
    mach.writeData(mach.sp(),
                   static_cast<uint8_t>(Machine::exitAddress));
    mach.setSp(mach.sp() - 1);
    mach.writeData(mach.sp(),
                   static_cast<uint8_t>(Machine::exitAddress >> 8));
    mach.setSp(mach.sp() - 1);
    mach.setPc(entry_word_addr);
}

} // namespace jaavr
