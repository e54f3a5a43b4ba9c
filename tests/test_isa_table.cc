/**
 * @file
 * Exact instruction words, pinned outside the ISA table.
 *
 * The decoder, the assembler, the disassembler and the cycle tables
 * all read one table (avr/isa.hh), so a wrong row would still
 * round-trip cleanly. These literals come from the opcode patterns of
 * the AVR Instruction Set Manual instead: one per instruction form
 * and one per assembler alias, each checked both ways (assembled to
 * the word, decoded from it), and each form's CA cycle count from
 * the ATmega128 datasheet's instruction set summary. The rows'
 * register and flag effects are checked against Machine::execute()
 * on random machine states.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>

#include "avr/isa.hh"
#include "avr/machine.hh"
#include "avr/timing.hh"
#include "avrasm/assembler.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/** One pinned encoding. */
struct Pin
{
    const char *src;  ///< assembler source; its first statement is pinned
    uint16_t w0, w1;  ///< the word(s) of that statement (w1 != 0: 2 words)
    Op op;            ///< what the word decodes to
    const char *dis;  ///< its disassembly, when not @p src itself
    unsigned ca = 0;  ///< CA cycles, not counting a taken branch or skip
};

// Branch targets are labels: "x: rjmp x" is a word offset of -1.
const Pin kForms[] = {
    {"add r1, r2", 0x0c12, 0, Op::ADD, nullptr, 1},
    {"adc r17, r18", 0x1f12, 0, Op::ADC, nullptr, 1},
    {"sub r3, r4", 0x1834, 0, Op::SUB, nullptr, 1},
    {"sbc r5, r6", 0x0856, 0, Op::SBC, nullptr, 1},
    {"and r7, r8", 0x2078, 0, Op::AND, nullptr, 1},
    {"or r9, r10", 0x289a, 0, Op::OR, nullptr, 1},
    {"eor r11, r12", 0x24bc, 0, Op::EOR, nullptr, 1},
    {"mov r13, r14", 0x2cde, 0, Op::MOV, nullptr, 1},
    {"cp r15, r16", 0x16f0, 0, Op::CP, nullptr, 1},
    {"cpc r20, r21", 0x0745, 0, Op::CPC, nullptr, 1},
    {"cpse r22, r23", 0x1367, 0, Op::CPSE, nullptr, 1},
    {"mul r24, r25", 0x9f89, 0, Op::MUL, nullptr, 2},
    {"muls r16, r31", 0x020f, 0, Op::MULS, nullptr, 2},
    {"mulsu r17, r18", 0x0312, 0, Op::MULSU, nullptr, 2},
    {"fmul r19, r20", 0x033c, 0, Op::FMUL, nullptr, 2},
    {"fmuls r21, r22", 0x03d6, 0, Op::FMULS, nullptr, 2},
    {"fmulsu r23, r16", 0x03f8, 0, Op::FMULSU, nullptr, 2},
    {"movw r24, r30", 0x01cf, 0, Op::MOVW, nullptr, 1},
    {"subi r24, 0x2a", 0x528a, 0, Op::SUBI, nullptr, 1},
    {"sbci r25, 0x01", 0x4091, 0, Op::SBCI, nullptr, 1},
    {"andi r26, 0xf0", 0x7fa0, 0, Op::ANDI, nullptr, 1},
    {"ori r27, 0x0f", 0x60bf, 0, Op::ORI, nullptr, 1},
    {"cpi r28, 0x80", 0x38c0, 0, Op::CPI, nullptr, 1},
    {"ldi r16, 0xff", 0xef0f, 0, Op::LDI, nullptr, 1},
    {"adiw r26, 63", 0x96df, 0, Op::ADIW, nullptr, 2},
    {"sbiw r30, 1", 0x9731, 0, Op::SBIW, nullptr, 2},
    {"com r31", 0x95f0, 0, Op::COM, nullptr, 1},
    {"neg r1", 0x9411, 0, Op::NEG, nullptr, 1},
    {"swap r2", 0x9422, 0, Op::SWAP, nullptr, 1},
    {"inc r3", 0x9433, 0, Op::INC, nullptr, 1},
    {"dec r4", 0x944a, 0, Op::DEC, nullptr, 1},
    {"asr r5", 0x9455, 0, Op::ASR, nullptr, 1},
    {"lsr r6", 0x9466, 0, Op::LSR, nullptr, 1},
    {"ror r7", 0x9477, 0, Op::ROR, nullptr, 1},
    {"bset 3", 0x9438, 0, Op::BSET, nullptr, 1},
    {"bclr 7", 0x94f8, 0, Op::BCLR, nullptr, 1},
    {"bld r13, 2", 0xf8d2, 0, Op::BLD, nullptr, 1},
    {"bst r17, 5", 0xfb15, 0, Op::BST, nullptr, 1},
    {"sbi 0x1f, 3", 0x9afb, 0, Op::SBI, nullptr, 2},
    {"cbi 0x05, 0", 0x9828, 0, Op::CBI, nullptr, 2},
    {"sbic 0x10, 7", 0x9987, 0, Op::SBIC, nullptr, 1},
    {"sbis 0x01, 1", 0x9b09, 0, Op::SBIS, nullptr, 1},
    {"in r25, 0x3f", 0xb79f, 0, Op::IN, nullptr, 1},
    {"out 0x3c, r2", 0xbe2c, 0, Op::OUT, nullptr, 1},
    {"ld r5, X", 0x905c, 0, Op::LD_X, nullptr, 2},
    {"ld r24, X+", 0x918d, 0, Op::LD_X_INC, nullptr, 2},
    {"ld r0, -X", 0x900e, 0, Op::LD_X_DEC, nullptr, 2},
    {"ldd r16, Y+9", 0x8509, 0, Op::LDD_Y, nullptr, 2},
    {"ld r1, Y+", 0x9019, 0, Op::LD_Y_INC, nullptr, 2},
    {"ld r2, -Y", 0x902a, 0, Op::LD_Y_DEC, nullptr, 2},
    {"ldd r24, Z+3", 0x8183, 0, Op::LDD_Z, nullptr, 2},
    {"ld r3, Z+", 0x9031, 0, Op::LD_Z_INC, nullptr, 2},
    {"ld r4, -Z", 0x9042, 0, Op::LD_Z_DEC, nullptr, 2},
    {"lds r8, 0x0123", 0x9080, 0x0123, Op::LDS, nullptr, 2},
    {"st X, r6", 0x926c, 0, Op::ST_X, nullptr, 2},
    {"st X+, r1", 0x921d, 0, Op::ST_X_INC, nullptr, 2},
    {"st -X, r7", 0x927e, 0, Op::ST_X_DEC, nullptr, 2},
    {"std Y+63, r9", 0xae9f, 0, Op::STD_Y, nullptr, 2},
    {"st Y+, r10", 0x92a9, 0, Op::ST_Y_INC, nullptr, 2},
    {"st -Y, r11", 0x92ba, 0, Op::ST_Y_DEC, nullptr, 2},
    {"std Z+17, r9", 0x8a91, 0, Op::STD_Z, nullptr, 2},
    {"st Z+, r12", 0x92c1, 0, Op::ST_Z_INC, nullptr, 2},
    {"st -Z, r13", 0x92d2, 0, Op::ST_Z_DEC, nullptr, 2},
    {"sts 0x0456, r9", 0x9290, 0x0456, Op::STS, nullptr, 2},
    {"push r10", 0x92af, 0, Op::PUSH, nullptr, 2},
    {"pop r11", 0x90bf, 0, Op::POP, nullptr, 2},
    {"lpm", 0x95c8, 0, Op::LPM_R0, nullptr, 3},
    {"lpm r14, Z", 0x90e4, 0, Op::LPM, nullptr, 3},
    {"lpm r15, Z+", 0x90f5, 0, Op::LPM_INC, nullptr, 3},
    {"rjmp x\n.org 0x124\nx:", 0xc123, 0, Op::RJMP, "rjmp .+582", 2},
    {"x: rcall x", 0xdfff, 0, Op::RCALL, "rcall .-2", 3},
    {"jmp 0x2abcd", 0x941c, 0xabcd, Op::JMP, nullptr, 3},
    {"call 0x1234", 0x940e, 0x1234, Op::CALL, nullptr, 4},
    {"ret", 0x9508, 0, Op::RET, nullptr, 4},
    {"reti", 0x9518, 0, Op::RETI, nullptr, 4},
    {"ijmp", 0x9409, 0, Op::IJMP, nullptr, 2},
    {"icall", 0x9509, 0, Op::ICALL, nullptr, 3},
    {"x: brbs 6, x", 0xf3fe, 0, Op::BRBS, "brbs 6, .-2", 1},
    {"brbc 2, y\nnop\ny:", 0xf40a, 0, Op::BRBC, "brbc 2, .+2", 1},
    {"sbrc r12, 5", 0xfcc5, 0, Op::SBRC, nullptr, 1},
    {"sbrs r31, 7", 0xfff7, 0, Op::SBRS, nullptr, 1},
    {"nop", 0x0000, 0, Op::NOP, nullptr, 1},
    {"sleep", 0x9588, 0, Op::SLEEP, nullptr, 1},
    {"wdr", 0x95a8, 0, Op::WDR, nullptr, 1},
    {"break", 0x9598, 0, Op::BREAK, nullptr, 1},
};

const Pin kAliases[] = {
    {"lsl r5", 0x0c55, 0, Op::ADD, nullptr},
    {"rol r20", 0x1f44, 0, Op::ADC, nullptr},
    {"tst r8", 0x2088, 0, Op::AND, nullptr},
    {"clr r31", 0x27ff, 0, Op::EOR, nullptr},
    {"ser r17", 0xef1f, 0, Op::LDI, "ldi r17, 0xff"},
    {"sec", 0x9408, 0, Op::BSET, "bset 0"},
    {"sez", 0x9418, 0, Op::BSET, "bset 1"},
    {"sen", 0x9428, 0, Op::BSET, "bset 2"},
    {"sev", 0x9438, 0, Op::BSET, "bset 3"},
    {"ses", 0x9448, 0, Op::BSET, "bset 4"},
    {"seh", 0x9458, 0, Op::BSET, "bset 5"},
    {"set", 0x9468, 0, Op::BSET, "bset 6"},
    {"sei", 0x9478, 0, Op::BSET, "bset 7"},
    {"clc", 0x9488, 0, Op::BCLR, "bclr 0"},
    {"clz", 0x9498, 0, Op::BCLR, "bclr 1"},
    {"cln", 0x94a8, 0, Op::BCLR, "bclr 2"},
    {"clv", 0x94b8, 0, Op::BCLR, "bclr 3"},
    {"cls", 0x94c8, 0, Op::BCLR, "bclr 4"},
    {"clh", 0x94d8, 0, Op::BCLR, "bclr 5"},
    {"clt", 0x94e8, 0, Op::BCLR, "bclr 6"},
    {"cli", 0x94f8, 0, Op::BCLR, "bclr 7"},
    {"x: brcs x", 0xf3f8, 0, Op::BRBS, "brbs 0, .-2"},
    {"x: brlo x", 0xf3f8, 0, Op::BRBS, "brbs 0, .-2"},
    {"x: breq x", 0xf3f9, 0, Op::BRBS, "brbs 1, .-2"},
    {"x: brmi x", 0xf3fa, 0, Op::BRBS, "brbs 2, .-2"},
    {"x: brvs x", 0xf3fb, 0, Op::BRBS, "brbs 3, .-2"},
    {"x: brlt x", 0xf3fc, 0, Op::BRBS, "brbs 4, .-2"},
    {"x: brhs x", 0xf3fd, 0, Op::BRBS, "brbs 5, .-2"},
    {"x: brts x", 0xf3fe, 0, Op::BRBS, "brbs 6, .-2"},
    {"x: brie x", 0xf3ff, 0, Op::BRBS, "brbs 7, .-2"},
    {"x: brcc x", 0xf7f8, 0, Op::BRBC, "brbc 0, .-2"},
    {"x: brsh x", 0xf7f8, 0, Op::BRBC, "brbc 0, .-2"},
    {"x: brne x", 0xf7f9, 0, Op::BRBC, "brbc 1, .-2"},
    {"x: brpl x", 0xf7fa, 0, Op::BRBC, "brbc 2, .-2"},
    {"x: brvc x", 0xf7fb, 0, Op::BRBC, "brbc 3, .-2"},
    {"x: brge x", 0xf7fc, 0, Op::BRBC, "brbc 4, .-2"},
    {"x: brhc x", 0xf7fd, 0, Op::BRBC, "brbc 5, .-2"},
    {"x: brtc x", 0xf7fe, 0, Op::BRBC, "brbc 6, .-2"},
    {"x: brid x", 0xf7ff, 0, Op::BRBC, "brbc 7, .-2"},
    {"ld r5, Y", 0x8058, 0, Op::LDD_Y, "ldd r5, Y+0"},
    {"ld r6, Z", 0x8060, 0, Op::LDD_Z, "ldd r6, Z+0"},
    {"st Y, r7", 0x8278, 0, Op::STD_Y, "std Y+0, r7"},
    {"st Z, r8", 0x8280, 0, Op::STD_Z, "std Z+0, r8"},
};

void
checkBothWays(const Pin &p)
{
    SCOPED_TRACE(p.src);
    Program prog = assemble(p.src, "pin");
    ASSERT_GE(prog.words.size(), 1u);
    EXPECT_EQ(prog.words[0], p.w0);
    Inst i = decode(p.w0, p.w1);
    EXPECT_EQ(i.op, p.op);
    EXPECT_EQ(i.words, p.w1 ? 2 : 1);
    EXPECT_EQ(isTwoWord(p.w0), p.w1 != 0);
    if (i.words == 2) {
        ASSERT_GE(prog.words.size(), 2u);
        EXPECT_EQ(prog.words[1], p.w1);
    }
    EXPECT_EQ(disassemble(i), p.dis ? p.dis : p.src);
}

/**
 * FAST (and ISE) timing, avr/timing.hh and paper Section V-A: the
 * data-space loads and stores, PUSH/POP and the multiplier family
 * take one cycle; every other form keeps its CA count.
 */
unsigned
fastCycles(const Pin &p)
{
    static const std::set<std::string_view> kOneCycle = {
        "ld",  "ldd", "lds",  "st",    "std",  "sts",   "push",
        "pop", "mul", "muls", "mulsu", "fmul", "fmuls", "fmulsu"};
    std::string_view src(p.src);
    return kOneCycle.count(src.substr(0, src.find(' '))) ? 1 : p.ca;
}

/**
 * The forms whose only effects are on registers and SREG: no
 * data-space access, I/O, flash read or control transfer.
 */
bool
registersAndFlagsOnly(Op op)
{
    switch (op) {
      case Op::IN: case Op::OUT: case Op::SBI: case Op::CBI:
      case Op::SBIC: case Op::SBIS: case Op::LPM_R0: case Op::LPM:
      case Op::LPM_INC: case Op::RJMP: case Op::RCALL: case Op::JMP:
      case Op::CALL: case Op::RET: case Op::RETI: case Op::IJMP:
      case Op::ICALL: case Op::BRBS: case Op::BRBC: case Op::SBRC:
      case Op::SBRS: case Op::CPSE: case Op::SLEEP: case Op::BREAK:
      case Op::INVALID:
        return false;
      default:
        return isaForm(op).mem.kind == IsaMem::None;
    }
}

/** The registers and SREG of a machine. */
struct RegState
{
    std::array<uint8_t, 32> regs{};
    uint8_t sreg = 0;
};

/** Run the instruction at word 0 of @p m once from @p in. */
RegState
runOnce(Machine &m, const RegState &in)
{
    for (unsigned r = 0; r < 32; r++)
        m.setReg(r, in.regs[r]);
    m.setSreg(in.sreg);
    m.setPc(0);
    m.step();
    RegState out;
    for (unsigned r = 0; r < 32; r++)
        out.regs[r] = m.reg(r);
    out.sreg = m.sreg();
    return out;
}

} // anonymous namespace

TEST(IsaTable, EveryFormAssemblesToAndDecodesFromItsManualWord)
{
    std::set<Op> seen;
    for (const Pin &p : kForms) {
        checkBothWays(p);
        seen.insert(p.op);
    }
    // One literal per Op, INVALID aside.
    EXPECT_EQ(seen.size(), kNumOps - 1);
    EXPECT_EQ(std::size(kForms), kNumOps - 1);
}

TEST(IsaTable, EveryAliasAssemblesToAndDecodesFromItsManualWord)
{
    for (const Pin &p : kAliases)
        checkBothWays(p);
}

TEST(IsaTable, EveryFormTakesItsDatasheetCyclesInEveryMode)
{
    for (const Pin &p : kForms) {
        SCOPED_TRACE(p.src);
        EXPECT_EQ(baseCycles(p.op, CpuMode::CA), p.ca);
        EXPECT_EQ(baseCycles(p.op, CpuMode::FAST), fastCycles(p));
        EXPECT_EQ(baseCycles(p.op, CpuMode::ISE), fastCycles(p));
        for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE})
            EXPECT_EQ(baseCycleTable(mode)[static_cast<size_t>(p.op)],
                      baseCycles(p.op, mode));
    }
    // A taken branch costs one more cycle; a skip one more per word
    // it skips.
    EXPECT_EQ(branchTakenExtra, 1u);
    EXPECT_EQ(skipExtra(false), 1u);
    EXPECT_EQ(skipExtra(true), 2u);
}

/**
 * A row's register and flag effects are what execute() does: on random
 * states and operands, nothing outside the row's writes changes, a
 * constant flag has its value, and flipping a register bit or flag the
 * row does not list as read changes nothing the form writes.
 * jaavr-ctcheck's taint rule and the superblock's flag pass rely on
 * exactly these facts.
 */
TEST(IsaTable, RegisterAndFlagEffectsMatchExecute)
{
    Machine m(CpuMode::CA);
    Rng rng(0x15a7ab1e);
    unsigned forms = 0;
    for (size_t o = 0; o < kNumOps; o++) {
        const Op op = static_cast<Op>(o);
        if (!registersAndFlagsOnly(op))
            continue;
        forms++;
        const IsaForm &f = isaForm(op);
        for (int trial = 0; trial < 256; trial++) {
            const uint16_t w = static_cast<uint16_t>(
                (rng.next32() & ~(f.mask >> 16)) | (f.match >> 16));
            const Inst inst = decode(w, 0);
            ASSERT_EQ(inst.op, op);
            SCOPED_TRACE(disassemble(inst));
            m.loadProgram({w}, 0);

            RegState in;
            for (uint8_t &r : in.regs)
                r = static_cast<uint8_t>(rng.next32());
            in.sreg = static_cast<uint8_t>(rng.next32());
            const RegState out = runOnce(m, in);
            ASSERT_EQ(m.pc(), 1u);

            const uint32_t reads = regsRead(inst);
            const uint32_t writes = regsWritten(inst);
            const uint8_t flagsOut = sregWrites(op, inst.bit);
            for (unsigned r = 0; r < 32; r++) {
                if (!(writes >> r & 1)) {
                    EXPECT_EQ(out.regs[r], in.regs[r]) << "r" << r;
                }
            }
            EXPECT_EQ((out.sreg ^ in.sreg) & ~flagsOut, 0);
            EXPECT_EQ(out.sreg & f.sregConst, f.sregConstVal);

            auto sameWrites = [&](const RegState &a) {
                for (unsigned r = 0; r < 32; r++)
                    if ((writes >> r & 1) && a.regs[r] != out.regs[r])
                        return false;
                return ((a.sreg ^ out.sreg) & flagsOut) == 0;
            };
            for (unsigned flag = 0; flag < 8; flag++) {
                if (f.sregInputs() >> flag & 1)
                    continue;
                RegState flipped = in;
                flipped.sreg ^= static_cast<uint8_t>(1u << flag);
                EXPECT_TRUE(sameWrites(runOnce(m, flipped)))
                    << "flag " << flag;
            }
            for (int k = 0; k < 8; k++) {
                const unsigned bit = rng.next32() % 256;
                if (reads >> (bit / 8) & 1)
                    continue;
                RegState flipped = in;
                flipped.regs[bit / 8] ^= static_cast<uint8_t>(1u << bit % 8);
                EXPECT_TRUE(sameWrites(runOnce(m, flipped)))
                    << "r" << bit / 8 << " bit " << bit % 8;
            }
        }
    }
    // The 39 forms jaavr-ctcheck's one rule covers.
    EXPECT_EQ(forms, 39u);
}
