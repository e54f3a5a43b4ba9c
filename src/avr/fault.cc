#include "avr/fault.hh"

#include "avr/machine.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace jaavr
{

const char *
faultTargetName(FaultTarget target)
{
    switch (target) {
      case FaultTarget::Gpr: return "gpr";
      case FaultTarget::Sreg: return "sreg";
      case FaultTarget::Sram: return "sram";
      case FaultTarget::MacAcc: return "mac_acc";
      case FaultTarget::InstSkip: return "inst_skip";
      case FaultTarget::OpcodeCorrupt: return "opcode_corrupt";
    }
    return "?";
}

std::string
FaultPlan::describe() const
{
    std::string where;
    switch (target) {
      case FaultTarget::Gpr:
        where = csprintf("r%u ^= 0x%02x", reg, mask & 0xff);
        break;
      case FaultTarget::Sreg:
        where = csprintf("sreg ^= 0x%02x", mask & 0xff);
        break;
      case FaultTarget::Sram:
        where = csprintf("sram[0x%04x] ^= 0x%02x", sramAddr, mask & 0xff);
        break;
      case FaultTarget::MacAcc:
        where = csprintf("mac acc r%u ^= 0x%02x", reg, mask & 0xff);
        break;
      case FaultTarget::InstSkip:
        where = "skip instruction";
        break;
      case FaultTarget::OpcodeCorrupt:
        if (flashAddr == kCurrentPc)
            where = csprintf("flash[pc] ^= 0x%04x", mask);
        else
            where = csprintf("flash[0x%04x] ^= 0x%04x", flashAddr, mask);
        break;
    }
    if (atEntry)
        return csprintf("%s at entry 0x%04x + %llu cycles", where.c_str(),
                        entryPc,
                        static_cast<unsigned long long>(triggerCycle));
    return csprintf("%s at +%llu cycles", where.c_str(),
                    static_cast<unsigned long long>(triggerCycle));
}

void
FaultInjector::arm(const FaultPlan &plan, uint64_t now_cycles)
{
    firedCycle = 0;
    firedPc = 0;
    firedN = 0;
    queue.clear();
    nextIdx = 0;
    corruptions.clear();
    armPlan(plan, now_cycles);
}

void
FaultInjector::armSchedule(const std::vector<FaultPlan> &plans,
                           uint64_t now_cycles)
{
    if (plans.empty()) {
        disarm();
        return;
    }
    arm(plans.front(), now_cycles);
    queue = plans;
    nextIdx = 1;
}

bool
FaultInjector::onBoundary(Machine &m, uint32_t pc, uint64_t cycles)
{
    if (!checkFire(pc, cycles))
        return false;
    const uint8_t mask8 = static_cast<uint8_t>(planV.mask);
    switch (planV.target) {
      case FaultTarget::Gpr:
      case FaultTarget::MacAcc:
        m.setReg(planV.reg & 31, m.reg(planV.reg & 31) ^ mask8);
        break;
      case FaultTarget::Sreg:
        m.setSreg(m.sreg() ^ mask8);
        break;
      case FaultTarget::Sram:
        if (planV.sramAddr >= Machine::sramBase)
            m.writeData(planV.sramAddr,
                        m.readData(planV.sramAddr) ^ mask8);
        break;
      case FaultTarget::InstSkip:
        m.setPc(pc + m.decoded(pc).inst.words);
        break;
      case FaultTarget::OpcodeCorrupt:
        m.corruptFlashWord(planV.flashAddr == FaultPlan::kCurrentPc
                               ? pc
                               : planV.flashAddr,
                           planV.mask);
        break;
    }
    return false;
}

void
FaultInjector::revertFlash(Machine &m) const
{
    for (const auto &[addr, mask] : corruptions)
        m.corruptFlashWord(addr, mask);
}

std::vector<FaultPlan>
burstPlans(const FaultPlan &base, size_t count, uint64_t gap_cycles,
           uint64_t jitter, Rng &rng)
{
    std::vector<FaultPlan> plans;
    plans.reserve(count);
    for (size_t i = 0; i < count; i++) {
        FaultPlan p = base;
        if (i > 0) {
            p.atEntry = false;
            p.triggerCycle =
                gap_cycles + (jitter ? rng.below(jitter + 1) : 0);
        }
        plans.push_back(p);
    }
    return plans;
}

} // namespace jaavr
