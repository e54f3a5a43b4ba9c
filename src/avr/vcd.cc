#include "avr/vcd.hh"

#include "support/logging.hh"

namespace jaavr
{

VcdWriter::~VcdWriter()
{
    close();
}

bool
VcdWriter::open(const std::string &path, const Machine &m)
{
    close();
    file = std::fopen(path.c_str(), "w");
    if (!file) {
        warn("vcd: cannot create %s", path.c_str());
        return false;
    }
    now = 0;
    stampedTime = 0;
    sampleCount = 0;
    callDepth = 0;
    lastOpOrd = 0;

    // Deliberately no $date/$version host info: identical runs must
    // produce byte-identical dumps (tests/test_vcd.cc).
    std::fprintf(file,
                 "$comment jaavr ISS cycle-accurate dump; "
                 "1 time unit = 1 cycle (1 MHz core) $end\n");
    std::fprintf(file, "$timescale 1 us $end\n");
    std::fprintf(file, "$scope module jaavr $end\n");
    static const struct { unsigned width; const char *name; }
    defs[kNumSigs] = {
        {16, "pc"},
        {1, "sreg_i"}, {1, "sreg_t"}, {1, "sreg_h"}, {1, "sreg_s"},
        {1, "sreg_v"}, {1, "sreg_n"}, {1, "sreg_z"}, {1, "sreg_c"},
        {16, "sp"},
        {8, "call_depth"},
        {8, "op"},
        {72, "mac_acc"},
        {3, "mac_cnt"},
        {2, "mac_shadow"},
        {8, "maccr"},
        {4, "trap"},
    };
    for (unsigned s = 0; s < kNumSigs; s++)
        std::fprintf(file, "$var wire %u %c %s $end\n", defs[s].width,
                     id(s), defs[s].name);
    std::fprintf(file, "$upscope $end\n");
    std::fprintf(file, "$enddefinitions $end\n");

    std::string vals[kNumSigs];
    sample(m, 0, 0, vals);
    std::fprintf(file, "#0\n$dumpvars\n");
    for (unsigned s = 0; s < kNumSigs; s++) {
        std::fprintf(file, "%s\n", vals[s].c_str());
        last[s] = vals[s];
    }
    std::fprintf(file, "$end\n");
    return true;
}

void
VcdWriter::close()
{
    if (!file)
        return;
    std::fclose(file);
    file = nullptr;
    for (auto &v : last)
        v.clear();
}

void
VcdWriter::sample(const Machine &m, uint8_t op_ord, uint8_t trap_ord,
                  std::string vals[kNumSigs]) const
{
    auto vec = [](unsigned s, uint64_t v, unsigned width) {
        std::string out = "b";
        for (int b = static_cast<int>(width) - 1; b >= 0; b--)
            out += static_cast<char>('0' + ((v >> b) & 1));
        out += ' ';
        out += id(s);
        return out;
    };
    auto bit = [](unsigned s, bool v) {
        std::string out;
        out += static_cast<char>('0' + v);
        out += id(s);
        return out;
    };

    vals[SigPc] = vec(SigPc, m.pc(), 16);
    uint8_t sreg = m.sreg();
    // Machine SREG bit order (LSB first): C Z N V S H T I.
    vals[SigSregI] = bit(SigSregI, (sreg >> 7) & 1);
    vals[SigSregT] = bit(SigSregT, (sreg >> 6) & 1);
    vals[SigSregH] = bit(SigSregH, (sreg >> 5) & 1);
    vals[SigSregS] = bit(SigSregS, (sreg >> 4) & 1);
    vals[SigSregV] = bit(SigSregV, (sreg >> 3) & 1);
    vals[SigSregN] = bit(SigSregN, (sreg >> 2) & 1);
    vals[SigSregZ] = bit(SigSregZ, (sreg >> 1) & 1);
    vals[SigSregC] = bit(SigSregC, (sreg >> 0) & 1);
    vals[SigSp] = vec(SigSp, m.sp(), 16);
    vals[SigCallDepth] = vec(SigCallDepth, callDepth, 8);
    vals[SigOp] = vec(SigOp, op_ord, 8);

    // The 72-bit MAC accumulator R8..R0 (R8 = most significant byte).
    std::string acc = "b";
    for (int i = 8; i >= 0; i--) {
        uint8_t byte = m.reg(static_cast<unsigned>(i));
        for (int b = 7; b >= 0; b--)
            acc += static_cast<char>('0' + ((byte >> b) & 1));
    }
    acc += ' ';
    acc += id(SigMacAcc);
    vals[SigMacAcc] = acc;

    vals[SigMacCnt] = vec(SigMacCnt, m.mac().shiftCounter(), 3);
    vals[SigMacShadow] = vec(SigMacShadow, m.mac().pendingShadow(), 2);
    vals[SigMaccr] = vec(SigMaccr, m.maccr(), 8);
    vals[SigTrap] = vec(SigTrap, trap_ord, 4);
}

void
VcdWriter::emit(const std::string vals[kNumSigs], bool force)
{
    for (unsigned s = 0; s < kNumSigs; s++) {
        if (!force && vals[s] == last[s])
            continue;
        if (stampedTime != now) {
            std::fprintf(file, "#%llu\n",
                         static_cast<unsigned long long>(now));
            stampedTime = now;
        }
        std::fprintf(file, "%s\n", vals[s].c_str());
        last[s] = vals[s];
    }
}

void
VcdWriter::onRetire(const Machine &m, uint32_t, const Inst &inst,
                    unsigned cycles)
{
    // The machine's PC (next fetch address) is what's dumped.
    if (!file)
        return;
    if (inst.op == Op::CALL || inst.op == Op::RCALL ||
        inst.op == Op::ICALL)
        callDepth++;
    else if ((inst.op == Op::RET || inst.op == Op::RETI) && callDepth)
        callDepth--;
    now += cycles;
    lastOpOrd = static_cast<uint8_t>(inst.op);
    std::string vals[kNumSigs];
    sample(m, lastOpOrd, 0, vals);
    emit(vals, false);
    sampleCount++;
}

void
VcdWriter::onTrap(const Machine &m, const Trap &trap)
{
    if (!file)
        return;
    std::string vals[kNumSigs];
    sample(m, lastOpOrd, static_cast<uint8_t>(trap.kind), vals);
    emit(vals, false);
}

} // namespace jaavr
