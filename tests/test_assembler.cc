/**
 * @file
 * Tests for the two-pass assembler: what it assembles decodes to the
 * intended operands, every canonical word survives disassembly and
 * re-assembly, labels and directives resolve, and operand violations
 * are diagnosed. The assembler and the decoder read the same ISA
 * table (avr/isa.hh), so these tests cannot catch a wrong row;
 * test_isa_table.cc pins the exact words from the instruction-set
 * manual.
 */

#include <gtest/gtest.h>

#include "avr/isa.hh"
#include "avrasm/assembler.hh"

using namespace jaavr;

namespace
{

/** Assemble a single line and decode its first word(s). */
Inst
one(const std::string &line)
{
    Program p = assemble(line, "test");
    EXPECT_GE(p.words.size(), 1u);
    uint16_t w1 = p.words.size() > 1 ? p.words[1] : 0;
    return decode(p.words[0], w1);
}

} // anonymous namespace

TEST(Assembler, RegisterRegisterOps)
{
    struct Case { const char *src; Op op; int rd, rr; };
    Case cases[] = {
        {"add r0, r31", Op::ADD, 0, 31},
        {"adc r15, r16", Op::ADC, 15, 16},
        {"sub r1, r2", Op::SUB, 1, 2},
        {"sbc r30, r29", Op::SBC, 30, 29},
        {"and r7, r8", Op::AND, 7, 8},
        {"or r9, r10", Op::OR, 9, 10},
        {"eor r11, r12", Op::EOR, 11, 12},
        {"mov r13, r14", Op::MOV, 13, 14},
        {"cp r5, r6", Op::CP, 5, 6},
        {"cpc r3, r4", Op::CPC, 3, 4},
        {"cpse r17, r18", Op::CPSE, 17, 18},
        {"mul r19, r20", Op::MUL, 19, 20},
    };
    for (const Case &c : cases) {
        Inst i = one(c.src);
        EXPECT_EQ(i.op, c.op) << c.src;
        EXPECT_EQ(i.rd, c.rd) << c.src;
        EXPECT_EQ(i.rr, c.rr) << c.src;
    }
}

TEST(Assembler, ImmediateOps)
{
    Inst i = one("ldi r16, 0xff");
    EXPECT_EQ(i.op, Op::LDI);
    EXPECT_EQ(i.rd, 16);
    EXPECT_EQ(i.imm, 0xff);

    i = one("subi r24, 42");
    EXPECT_EQ(i.op, Op::SUBI);
    EXPECT_EQ(i.rd, 24);
    EXPECT_EQ(i.imm, 42);

    i = one("cpi r31, 0b1010");
    EXPECT_EQ(i.op, Op::CPI);
    EXPECT_EQ(i.imm, 10);

    i = one("andi r20, lo8(0x1234)");
    EXPECT_EQ(i.imm, 0x34);
    i = one("ori r20, hi8(0x1234)");
    EXPECT_EQ(i.imm, 0x12);
}

TEST(Assembler, AliasesExpand)
{
    Inst i = one("lsl r5");
    EXPECT_EQ(i.op, Op::ADD);
    EXPECT_EQ(i.rd, 5);
    EXPECT_EQ(i.rr, 5);

    i = one("rol r6");
    EXPECT_EQ(i.op, Op::ADC);
    EXPECT_EQ(i.rr, 6);

    i = one("clr r7");
    EXPECT_EQ(i.op, Op::EOR);

    i = one("tst r8");
    EXPECT_EQ(i.op, Op::AND);

    i = one("ser r17");
    EXPECT_EQ(i.op, Op::LDI);
    EXPECT_EQ(i.imm, 0xff);

    i = one("sec");
    EXPECT_EQ(i.op, Op::BSET);
    EXPECT_EQ(i.bit, 0);
    i = one("clz");
    EXPECT_EQ(i.op, Op::BCLR);
    EXPECT_EQ(i.bit, 1);
    i = one("set");
    EXPECT_EQ(i.op, Op::BSET);
    EXPECT_EQ(i.bit, 6);
}

TEST(Assembler, LoadsAndStores)
{
    Inst i = one("ld r24, X+");
    EXPECT_EQ(i.op, Op::LD_X_INC);
    EXPECT_EQ(i.rd, 24);

    i = one("ld r0, -Y");
    EXPECT_EQ(i.op, Op::LD_Y_DEC);

    i = one("ldd r16, Y+3");
    EXPECT_EQ(i.op, Op::LDD_Y);
    EXPECT_EQ(i.disp, 3);

    i = one("ldd r24, Z+63");
    EXPECT_EQ(i.op, Op::LDD_Z);
    EXPECT_EQ(i.disp, 63);

    i = one("ld r5, Y");
    EXPECT_EQ(i.op, Op::LDD_Y);
    EXPECT_EQ(i.disp, 0);

    i = one("std Z+17, r9");
    EXPECT_EQ(i.op, Op::STD_Z);
    EXPECT_EQ(i.disp, 17);
    EXPECT_EQ(i.rd, 9);

    i = one("st X+, r1");
    EXPECT_EQ(i.op, Op::ST_X_INC);

    i = one("lds r8, 0x0123");
    EXPECT_EQ(i.op, Op::LDS);
    EXPECT_EQ(i.k, 0x0123u);
    EXPECT_EQ(i.words, 2);

    i = one("sts 0x0456, r9");
    EXPECT_EQ(i.op, Op::STS);
    EXPECT_EQ(i.k, 0x0456u);

    i = one("push r10");
    EXPECT_EQ(i.op, Op::PUSH);
    i = one("pop r11");
    EXPECT_EQ(i.op, Op::POP);
}

TEST(Assembler, WordOpsAndBits)
{
    Inst i = one("movw r24, r0");
    EXPECT_EQ(i.op, Op::MOVW);
    EXPECT_EQ(i.rd, 24);
    EXPECT_EQ(i.rr, 0);

    i = one("adiw r26, 63");
    EXPECT_EQ(i.op, Op::ADIW);
    EXPECT_EQ(i.rd, 26);
    EXPECT_EQ(i.imm, 63);

    i = one("sbiw r30, 1");
    EXPECT_EQ(i.op, Op::SBIW);
    EXPECT_EQ(i.rd, 30);

    i = one("sbrc r12, 5");
    EXPECT_EQ(i.op, Op::SBRC);
    EXPECT_EQ(i.bit, 5);

    i = one("bld r13, 2");
    EXPECT_EQ(i.op, Op::BLD);

    i = one("in r25, 0x3f");
    EXPECT_EQ(i.op, Op::IN);
    EXPECT_EQ(i.imm, 0x3f);

    i = one("out 0x3c, r2");
    EXPECT_EQ(i.op, Op::OUT);
    EXPECT_EQ(i.imm, 0x3c);
    EXPECT_EQ(i.rd, 2);
}

TEST(Assembler, ControlFlowAndLabels)
{
    Program p = assemble(R"(
        start:
            ldi r16, 1
        loop:
            dec r16
            brne loop
            rjmp start
            ret
    )", "cf");
    EXPECT_EQ(p.label("start"), 0u);
    EXPECT_EQ(p.label("loop"), 1u);

    // brne loop: at addr 2, target 1, offset -2.
    Inst br = decode(p.words[2], 0);
    EXPECT_EQ(br.op, Op::BRBC);
    EXPECT_EQ(br.bit, 1);  // Z flag
    EXPECT_EQ(br.disp, -2);

    Inst rj = decode(p.words[3], 0);
    EXPECT_EQ(rj.op, Op::RJMP);
    EXPECT_EQ(rj.disp, -4);

    EXPECT_EQ(decode(p.words[4], 0).op, Op::RET);
}

TEST(Assembler, CallAndJmp)
{
    Program p = assemble(R"(
            call func
            jmp func
        func:
            ret
    )", "cj");
    Inst c = decode(p.words[0], p.words[1]);
    EXPECT_EQ(c.op, Op::CALL);
    EXPECT_EQ(c.k, 4u);
    Inst j = decode(p.words[2], p.words[3]);
    EXPECT_EQ(j.op, Op::JMP);
    EXPECT_EQ(j.k, 4u);
}

TEST(Assembler, DirectivesEquOrgDw)
{
    Program p = assemble(R"(
        .equ FRAME = 0x0200
        .equ SIZE = 5 * 4
            ldi r26, lo8(FRAME)
            ldi r27, hi8(FRAME)
            ldi r16, SIZE
        .org 0x10
        table:
            .dw 0x1234, table
    )", "dir");
    EXPECT_EQ(decode(p.words[0], 0).imm, 0x00);
    EXPECT_EQ(decode(p.words[1], 0).imm, 0x02);
    EXPECT_EQ(decode(p.words[2], 0).imm, 20);
    EXPECT_EQ(p.label("table"), 0x10u);
    EXPECT_EQ(p.words[0x10], 0x1234);
    EXPECT_EQ(p.words[0x11], 0x10);
}

TEST(Assembler, DiagnosesErrors)
{
    EXPECT_DEATH(assemble("ldi r5, 1", "e"), "r16..r31");
    EXPECT_DEATH(assemble("adiw r25, 1", "e"), "r24/r26/r28/r30");
    EXPECT_DEATH(assemble("ldd r0, Y+64", "e"), "displacement");
    EXPECT_DEATH(assemble("frobnicate r1", "e"), "unknown mnemonic");
    EXPECT_DEATH(assemble("rjmp nowhere", "e"), "undefined symbol");
    EXPECT_DEATH(assemble("movw r1, r2", "e"), "even");
    EXPECT_DEATH(assemble("x: nop\nx: nop", "e"), "duplicate label");

    // One bad operand per operand kind.
    EXPECT_DEATH(assemble("mulsu r15, r16", "e"), "r16..r23");
    EXPECT_DEATH(assemble("fmul r24, r16", "e"), "r16..r23");
    EXPECT_DEATH(assemble("sbi 32, 0", "e"), "out of range");
    EXPECT_DEATH(assemble("in r0, 64", "e"), "I/O address out of range");
    EXPECT_DEATH(assemble("out 64, r0", "e"), "I/O address out of range");
    EXPECT_DEATH(assemble("bset 8", "e"), "bit out of range");
    EXPECT_DEATH(assemble("adiw r24, 64", "e"), "0..63");
    EXPECT_DEATH(assemble("sbiw r23, 1", "e"), "r24/r26/r28/r30");
    EXPECT_DEATH(assemble("lds r0, 0x10000", "e"), "address out of range");
    EXPECT_DEATH(assemble("jmp 0x400000", "e"), "out of range");
    EXPECT_DEATH(assemble("ld r0, W", "e"), "bad pointer operand");
    EXPECT_DEATH(assemble("st W, r0", "e"), "bad pointer operand");
    EXPECT_DEATH(assemble("lpm r0, Y", "e"), "lpm needs Z or Z\\+");
    EXPECT_DEATH(assemble("std Y+64, r0", "e"), "displacement");
    EXPECT_DEATH(assemble("ldi r16, 256", "e"), "immediate out of range");
    EXPECT_DEATH(assemble("bld r0, 8", "e"), "bit out of range");
    EXPECT_DEATH(assemble("push r32", "e"), "expected register");
    EXPECT_DEATH(assemble("add r1", "e"), "wrong operand count");
    EXPECT_DEATH(assemble("nop r1", "e"), "wrong operand count");
    EXPECT_DEATH(assemble("x: brne y\n.org 0x41\ny:", "e"),
                 "branch target out of range");
    EXPECT_DEATH(assemble("brbs 8, x", "e"), "bit out of range");
}

TEST(Assembler, DisassemblyRoundTrip)
{
    // Every canonical first word, disassembled and re-assembled, gives
    // back its word(s); the two-word forms carry a nonzero second word.
    // Relative branches print as ".+N"/".-N", so each line assembles
    // to the same words wherever it lands in the listing.
    std::string listing;
    std::vector<std::pair<uint16_t, Inst>> words;
    for (uint32_t w = 0; w <= 0xffff; w++) {
        const uint16_t w1 = static_cast<uint16_t>(w ^ 0x5a5a);
        Inst i = decode(static_cast<uint16_t>(w), w1);
        if (i.op == Op::INVALID)
            continue;
        // BLD, BST, SBRC and SBRS ignore bit 3; only 0 there is canonical.
        bool bit3_free = i.op == Op::BLD || i.op == Op::BST ||
                         i.op == Op::SBRC || i.op == Op::SBRS;
        if (bit3_free && (w & 8))
            continue;
        listing += disassemble(i) + "\n";
        words.emplace_back(static_cast<uint16_t>(w), i);
    }
    EXPECT_EQ(words.size(), 63769u);

    Program p = assemble(listing, "rt");
    size_t at = 0;
    for (const auto &[w, i] : words) {
        ASSERT_LE(at + i.words, p.words.size());
        EXPECT_EQ(p.words[at], w) << disassemble(i);
        if (i.words == 2) {
            EXPECT_EQ(p.words[at + 1], static_cast<uint16_t>(w ^ 0x5a5a))
                << disassemble(i);
        }
        if (HasFailure())
            FAIL() << "stopping at the first word that does not round-trip";
        at += i.words;
    }
    EXPECT_EQ(at, p.words.size());
}

TEST(Assembler, RelativeBranchOperands)
{
    // ".+N"/".-N" count bytes from the next instruction, as
    // avr-objdump prints them.
    EXPECT_EQ(decode(assemble("rjmp .+2", "b").words[0], 0).disp, 1);
    EXPECT_EQ(decode(assemble("rcall .-4096", "b").words[0], 0).disp,
              -2048);
    EXPECT_EQ(decode(assemble("breq .+126", "b").words[0], 0).disp, 63);
    EXPECT_EQ(decode(assemble("brbc 3, .-128", "b").words[0], 0).disp, -64);
    EXPECT_DEATH(assemble("rjmp .+3", "b"), "even");
    EXPECT_DEATH(assemble("breq .+128", "b"), "branch target out of range");
}

TEST(Assembler, DisplacementTakesSymbols)
{
    // The expression after Y+/Z+ keeps its case, like every other
    // operand expression.
    Inst i = one(".equ OFF = 3\nldd r0, Y+OFF");
    EXPECT_EQ(i.op, Op::LDD_Y);
    EXPECT_EQ(i.disp, 3);
}

TEST(Assembler, RomBytes)
{
    Program p = assemble("nop\nnop\ncall x\nx: ret", "rb");
    EXPECT_EQ(p.romBytes(), 2u * 5u);
}
