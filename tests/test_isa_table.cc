/**
 * @file
 * Exact instruction words, pinned outside the ISA table.
 *
 * The decoder, the assembler and the disassembler all read one table
 * (avr/isa.hh), so a wrong row would still round-trip cleanly. These
 * literals come from the opcode patterns of the AVR Instruction Set
 * Manual instead: one per instruction form and one per assembler
 * alias, each checked both ways (assembled to the word, decoded from
 * it).
 */

#include <gtest/gtest.h>

#include <set>

#include "avr/isa.hh"
#include "avrasm/assembler.hh"

using namespace jaavr;

namespace
{

/** One pinned encoding. */
struct Pin
{
    const char *src;  ///< assembler source; its first statement is pinned
    uint16_t w0, w1;  ///< the word(s) of that statement (w1: 2-word forms)
    Op op;            ///< what the word decodes to
    const char *dis;  ///< its disassembly, when not @p src itself
};

// Branch targets are labels: "x: rjmp x" is a word offset of -1.
const Pin kForms[] = {
    {"add r1, r2", 0x0c12, 0, Op::ADD, nullptr},
    {"adc r17, r18", 0x1f12, 0, Op::ADC, nullptr},
    {"sub r3, r4", 0x1834, 0, Op::SUB, nullptr},
    {"sbc r5, r6", 0x0856, 0, Op::SBC, nullptr},
    {"and r7, r8", 0x2078, 0, Op::AND, nullptr},
    {"or r9, r10", 0x289a, 0, Op::OR, nullptr},
    {"eor r11, r12", 0x24bc, 0, Op::EOR, nullptr},
    {"mov r13, r14", 0x2cde, 0, Op::MOV, nullptr},
    {"cp r15, r16", 0x16f0, 0, Op::CP, nullptr},
    {"cpc r20, r21", 0x0745, 0, Op::CPC, nullptr},
    {"cpse r22, r23", 0x1367, 0, Op::CPSE, nullptr},
    {"mul r24, r25", 0x9f89, 0, Op::MUL, nullptr},
    {"muls r16, r31", 0x020f, 0, Op::MULS, nullptr},
    {"mulsu r17, r18", 0x0312, 0, Op::MULSU, nullptr},
    {"fmul r19, r20", 0x033c, 0, Op::FMUL, nullptr},
    {"fmuls r21, r22", 0x03d6, 0, Op::FMULS, nullptr},
    {"fmulsu r23, r16", 0x03f8, 0, Op::FMULSU, nullptr},
    {"movw r24, r30", 0x01cf, 0, Op::MOVW, nullptr},
    {"subi r24, 0x2a", 0x528a, 0, Op::SUBI, nullptr},
    {"sbci r25, 0x01", 0x4091, 0, Op::SBCI, nullptr},
    {"andi r26, 0xf0", 0x7fa0, 0, Op::ANDI, nullptr},
    {"ori r27, 0x0f", 0x60bf, 0, Op::ORI, nullptr},
    {"cpi r28, 0x80", 0x38c0, 0, Op::CPI, nullptr},
    {"ldi r16, 0xff", 0xef0f, 0, Op::LDI, nullptr},
    {"adiw r26, 63", 0x96df, 0, Op::ADIW, nullptr},
    {"sbiw r30, 1", 0x9731, 0, Op::SBIW, nullptr},
    {"com r31", 0x95f0, 0, Op::COM, nullptr},
    {"neg r1", 0x9411, 0, Op::NEG, nullptr},
    {"swap r2", 0x9422, 0, Op::SWAP, nullptr},
    {"inc r3", 0x9433, 0, Op::INC, nullptr},
    {"dec r4", 0x944a, 0, Op::DEC, nullptr},
    {"asr r5", 0x9455, 0, Op::ASR, nullptr},
    {"lsr r6", 0x9466, 0, Op::LSR, nullptr},
    {"ror r7", 0x9477, 0, Op::ROR, nullptr},
    {"bset 3", 0x9438, 0, Op::BSET, nullptr},
    {"bclr 7", 0x94f8, 0, Op::BCLR, nullptr},
    {"bld r13, 2", 0xf8d2, 0, Op::BLD, nullptr},
    {"bst r17, 5", 0xfb15, 0, Op::BST, nullptr},
    {"sbi 0x1f, 3", 0x9afb, 0, Op::SBI, nullptr},
    {"cbi 0x05, 0", 0x9828, 0, Op::CBI, nullptr},
    {"sbic 0x10, 7", 0x9987, 0, Op::SBIC, nullptr},
    {"sbis 0x01, 1", 0x9b09, 0, Op::SBIS, nullptr},
    {"in r25, 0x3f", 0xb79f, 0, Op::IN, nullptr},
    {"out 0x3c, r2", 0xbe2c, 0, Op::OUT, nullptr},
    {"ld r5, X", 0x905c, 0, Op::LD_X, nullptr},
    {"ld r24, X+", 0x918d, 0, Op::LD_X_INC, nullptr},
    {"ld r0, -X", 0x900e, 0, Op::LD_X_DEC, nullptr},
    {"ldd r16, Y+9", 0x8509, 0, Op::LDD_Y, nullptr},
    {"ld r1, Y+", 0x9019, 0, Op::LD_Y_INC, nullptr},
    {"ld r2, -Y", 0x902a, 0, Op::LD_Y_DEC, nullptr},
    {"ldd r24, Z+3", 0x8183, 0, Op::LDD_Z, nullptr},
    {"ld r3, Z+", 0x9031, 0, Op::LD_Z_INC, nullptr},
    {"ld r4, -Z", 0x9042, 0, Op::LD_Z_DEC, nullptr},
    {"lds r8, 0x0123", 0x9080, 0x0123, Op::LDS, nullptr},
    {"st X, r6", 0x926c, 0, Op::ST_X, nullptr},
    {"st X+, r1", 0x921d, 0, Op::ST_X_INC, nullptr},
    {"st -X, r7", 0x927e, 0, Op::ST_X_DEC, nullptr},
    {"std Y+63, r9", 0xae9f, 0, Op::STD_Y, nullptr},
    {"st Y+, r10", 0x92a9, 0, Op::ST_Y_INC, nullptr},
    {"st -Y, r11", 0x92ba, 0, Op::ST_Y_DEC, nullptr},
    {"std Z+17, r9", 0x8a91, 0, Op::STD_Z, nullptr},
    {"st Z+, r12", 0x92c1, 0, Op::ST_Z_INC, nullptr},
    {"st -Z, r13", 0x92d2, 0, Op::ST_Z_DEC, nullptr},
    {"sts 0x0456, r9", 0x9290, 0x0456, Op::STS, nullptr},
    {"push r10", 0x92af, 0, Op::PUSH, nullptr},
    {"pop r11", 0x90bf, 0, Op::POP, nullptr},
    {"lpm", 0x95c8, 0, Op::LPM_R0, nullptr},
    {"lpm r14, Z", 0x90e4, 0, Op::LPM, nullptr},
    {"lpm r15, Z+", 0x90f5, 0, Op::LPM_INC, nullptr},
    {"rjmp x\n.org 0x124\nx:", 0xc123, 0, Op::RJMP, "rjmp .+582"},
    {"x: rcall x", 0xdfff, 0, Op::RCALL, "rcall .-2"},
    {"jmp 0x2abcd", 0x941c, 0xabcd, Op::JMP, nullptr},
    {"call 0x1234", 0x940e, 0x1234, Op::CALL, nullptr},
    {"ret", 0x9508, 0, Op::RET, nullptr},
    {"reti", 0x9518, 0, Op::RETI, nullptr},
    {"ijmp", 0x9409, 0, Op::IJMP, nullptr},
    {"icall", 0x9509, 0, Op::ICALL, nullptr},
    {"x: brbs 6, x", 0xf3fe, 0, Op::BRBS, "brbs 6, .-2"},
    {"brbc 2, y\nnop\ny:", 0xf40a, 0, Op::BRBC, "brbc 2, .+2"},
    {"sbrc r12, 5", 0xfcc5, 0, Op::SBRC, nullptr},
    {"sbrs r31, 7", 0xfff7, 0, Op::SBRS, nullptr},
    {"nop", 0x0000, 0, Op::NOP, nullptr},
    {"sleep", 0x9588, 0, Op::SLEEP, nullptr},
    {"wdr", 0x95a8, 0, Op::WDR, nullptr},
    {"break", 0x9598, 0, Op::BREAK, nullptr},
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
    if (i.words == 2) {
        ASSERT_GE(prog.words.size(), 2u);
        EXPECT_EQ(prog.words[1], p.w1);
    }
    EXPECT_EQ(disassemble(i), p.dis ? p.dis : p.src);
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
