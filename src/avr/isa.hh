/**
 * @file
 * The AVR instruction set, written once (DESIGN.md, "ISA table").
 *
 * JAAVR_AVR_FORMS lists every instruction form, one row each, in Op
 * order; the same list expands to `enum class Op` and to the rows of
 * kIsaForms. The decoder, the assembler, the disassembler, the CA and
 * FAST cycle tables, the MAC-hazard register test, the leakage
 * model's bus addressing, jaavr-ctcheck's taint transfer and the
 * superblock's flag-liveness pass all read these rows. The
 * instruction *semantics* are not here: Machine::execute() is the
 * oracle and the superblock handlers are its checked copy. A row
 * states a form's effects (what it reads and writes), and
 * tests/test_isa_table.cc checks them against execute().
 *
 * The set covers the full ATmega128 ISA as used by compiled and
 * hand-written code (the JAAVR soft core the paper builds on is
 * "fully instruction-set compatible with the original ATmega128").
 *
 * A row gives:
 *  - the mnemonic;
 *  - the bit pattern, binutils-style: 16 characters per word, MSB
 *    first, '0'/'1' fixed, '-' ignored on decode and 0 on encode, and
 *    a letter per operand bit. A field's first letter is its MSB.
 *      d r  register (5 bits r0..r31, 4 bits r16..r31, 3 bits r16..r23)
 *      D R  even register pair (4 bits r0..r30, 2 bits r24..r30)
 *      K    immediate            A  I/O address       b  bit number
 *      q    displacement (Y+q)   o  signed word offset of a relative
 *      k    absolute address        branch, written .+bytes / .-bytes
 *    d and D fill Inst::rd, r and R Inst::rr, K and A Inst::imm, b
 *    Inst::bit, q and o Inst::disp, k Inst::k. A 32-character
 *    pattern is a two-word form.
 *  - the operand syntax: comma-separated operands made of field
 *    letters and the literal pointer text X Y Z + -. A field's width
 *    fixes its range check and its print format.
 *  - CA and FAST cycles (ISE runs FAST timing), excluding taken-branch
 *    and skip extras;
 *  - the SREG flags read and written, as letters C Z N V S H T I; a
 *    lowercase z is the sticky Z of SBC/SBCI/CPC (Z only cleared, so
 *    computing it reads the incoming Z); # is the flag the b operand
 *    names; a written flag followed by 0 or 1 always takes that value
 *    (COM's C1 V0). SREG reached through I/O or data space is not a
 *    row fact;
 *  - the data-space access: "ld"/"st" plus X, Y, Z, SP or k
 *    (absolute), with +q (displacement), a trailing + or -
 *    (post-increment/decrement) or a leading - or + (pre-decrement/
 *    increment);
 *  - the registers read and the registers written: d and r are the
 *    operands (a pair where the pattern says D or R), r0 and r1 name
 *    those registers (the MUL family's product) and Z the r31:r30
 *    pair (LPM, IJMP, ICALL). The pointer of a data-space access is in
 *    the memory column, not here. A form reads no other register and
 *    flag and writes no other; I/O, SP, the PC and data memory are not
 *    row facts.
 *
 * First words of distinct rows never overlap (static_assert in
 * isa.cc), except the erased-flash guard 0xffff, which decodes as
 * INVALID although it also fits SBRS's pattern.
 */

#ifndef JAAVR_AVR_ISA_HH
#define JAAVR_AVR_ISA_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>

// clang-format off
#define JAAVR_AVR_FORMS(X)                                                   \
  /* op       mnemonic  pattern             syntax   CA/FAST flags r/w     memory    regs r/w */ \
    X(ADD,    "add",    "000011rdddddrrrr", "d,r",   1, 1, "",  "HSVNZC",  "",       "dr", "d") \
    X(ADC,    "adc",    "000111rdddddrrrr", "d,r",   1, 1, "C", "HSVNZC",  "",       "dr", "d") \
    X(SUB,    "sub",    "000110rdddddrrrr", "d,r",   1, 1, "",  "HSVNZC",  "",       "dr", "d") \
    X(SBC,    "sbc",    "000010rdddddrrrr", "d,r",   1, 1, "C", "HSVNzC",  "",       "dr", "d") \
    X(AND,    "and",    "001000rdddddrrrr", "d,r",   1, 1, "",  "SV0NZ",   "",       "dr", "d") \
    X(OR,     "or",     "001010rdddddrrrr", "d,r",   1, 1, "",  "SV0NZ",   "",       "dr", "d") \
    X(EOR,    "eor",    "001001rdddddrrrr", "d,r",   1, 1, "",  "SV0NZ",   "",       "dr", "d") \
    X(MOV,    "mov",    "001011rdddddrrrr", "d,r",   1, 1, "",  "",        "",       "r",  "d") \
    X(CP,     "cp",     "000101rdddddrrrr", "d,r",   1, 1, "",  "HSVNZC",  "",       "dr", "")  \
    X(CPC,    "cpc",    "000001rdddddrrrr", "d,r",   1, 1, "C", "HSVNzC",  "",       "dr", "")  \
    X(CPSE,   "cpse",   "000100rdddddrrrr", "d,r",   1, 1, "",  "",        "",       "dr", "")  \
    X(MUL,    "mul",    "100111rdddddrrrr", "d,r",   2, 1, "",  "ZC",      "",       "dr", "r0r1") \
    X(MULS,   "muls",   "00000010ddddrrrr", "d,r",   2, 1, "",  "ZC",      "",       "dr", "r0r1") \
    X(MULSU,  "mulsu",  "000000110ddd0rrr", "d,r",   2, 1, "",  "ZC",      "",       "dr", "r0r1") \
    X(FMUL,   "fmul",   "000000110ddd1rrr", "d,r",   2, 1, "",  "ZC",      "",       "dr", "r0r1") \
    X(FMULS,  "fmuls",  "000000111ddd0rrr", "d,r",   2, 1, "",  "ZC",      "",       "dr", "r0r1") \
    X(FMULSU, "fmulsu", "000000111ddd1rrr", "d,r",   2, 1, "",  "ZC",      "",       "dr", "r0r1") \
    X(MOVW,   "movw",   "00000001DDDDRRRR", "D,R",   1, 1, "",  "",        "",       "r",  "d") \
    X(SUBI,   "subi",   "0101KKKKddddKKKK", "d,K",   1, 1, "",  "HSVNZC",  "",       "d",  "d") \
    X(SBCI,   "sbci",   "0100KKKKddddKKKK", "d,K",   1, 1, "C", "HSVNzC",  "",       "d",  "d") \
    X(ANDI,   "andi",   "0111KKKKddddKKKK", "d,K",   1, 1, "",  "SV0NZ",   "",       "d",  "d") \
    X(ORI,    "ori",    "0110KKKKddddKKKK", "d,K",   1, 1, "",  "SV0NZ",   "",       "d",  "d") \
    X(CPI,    "cpi",    "0011KKKKddddKKKK", "d,K",   1, 1, "",  "HSVNZC",  "",       "d",  "")  \
    X(LDI,    "ldi",    "1110KKKKddddKKKK", "d,K",   1, 1, "",  "",        "",       "",   "d") \
    X(ADIW,   "adiw",   "10010110KKDDKKKK", "D,K",   2, 2, "",  "SVNZC",   "",       "d",  "d") \
    X(SBIW,   "sbiw",   "10010111KKDDKKKK", "D,K",   2, 2, "",  "SVNZC",   "",       "d",  "d") \
    X(COM,    "com",    "1001010ddddd0000", "d",     1, 1, "",  "SV0NZC1", "",       "d",  "d") \
    X(NEG,    "neg",    "1001010ddddd0001", "d",     1, 1, "",  "HSVNZC",  "",       "d",  "d") \
    X(SWAP,   "swap",   "1001010ddddd0010", "d",     1, 1, "",  "",        "",       "d",  "d") \
    X(INC,    "inc",    "1001010ddddd0011", "d",     1, 1, "",  "SVNZ",    "",       "d",  "d") \
    X(DEC,    "dec",    "1001010ddddd1010", "d",     1, 1, "",  "SVNZ",    "",       "d",  "d") \
    X(ASR,    "asr",    "1001010ddddd0101", "d",     1, 1, "",  "SVNZC",   "",       "d",  "d") \
    X(LSR,    "lsr",    "1001010ddddd0110", "d",     1, 1, "",  "SVNZC",   "",       "d",  "d") \
    X(ROR,    "ror",    "1001010ddddd0111", "d",     1, 1, "C", "SVNZC",   "",       "d",  "d") \
    X(BSET,   "bset",   "100101000bbb1000", "b",     1, 1, "",  "#",       "",       "",   "")  \
    X(BCLR,   "bclr",   "100101001bbb1000", "b",     1, 1, "",  "#",       "",       "",   "")  \
    X(BLD,    "bld",    "1111100ddddd-bbb", "d,b",   1, 1, "T", "",        "",       "d",  "d") \
    X(BST,    "bst",    "1111101ddddd-bbb", "d,b",   1, 1, "",  "T",       "",       "d",  "")  \
    X(SBI,    "sbi",    "10011010AAAAAbbb", "A,b",   2, 2, "",  "",        "",       "",   "")  \
    X(CBI,    "cbi",    "10011000AAAAAbbb", "A,b",   2, 2, "",  "",        "",       "",   "")  \
    X(SBIC,   "sbic",   "10011001AAAAAbbb", "A,b",   1, 1, "",  "",        "",       "",   "")  \
    X(SBIS,   "sbis",   "10011011AAAAAbbb", "A,b",   1, 1, "",  "",        "",       "",   "")  \
    X(IN,     "in",     "10110AAdddddAAAA", "d,A",   1, 1, "",  "",        "",       "",   "d") \
    X(OUT,    "out",    "10111AAdddddAAAA", "A,d",   1, 1, "",  "",        "",       "d",  "")  \
    X(LD_X,   "ld",     "1001000ddddd1100", "d,X",   2, 1, "",  "",        "ld X",   "",   "d") \
    X(LD_X_INC, "ld",   "1001000ddddd1101", "d,X+",  2, 1, "",  "",        "ld X+",  "",   "d") \
    X(LD_X_DEC, "ld",   "1001000ddddd1110", "d,-X",  2, 1, "",  "",        "ld -X",  "",   "d") \
    X(LDD_Y,  "ldd",    "10q0qq0ddddd1qqq", "d,Y+q", 2, 1, "",  "",        "ld Y+q", "",   "d") \
    X(LD_Y_INC, "ld",   "1001000ddddd1001", "d,Y+",  2, 1, "",  "",        "ld Y+",  "",   "d") \
    X(LD_Y_DEC, "ld",   "1001000ddddd1010", "d,-Y",  2, 1, "",  "",        "ld -Y",  "",   "d") \
    X(LDD_Z,  "ldd",    "10q0qq0ddddd0qqq", "d,Z+q", 2, 1, "",  "",        "ld Z+q", "",   "d") \
    X(LD_Z_INC, "ld",   "1001000ddddd0001", "d,Z+",  2, 1, "",  "",        "ld Z+",  "",   "d") \
    X(LD_Z_DEC, "ld",   "1001000ddddd0010", "d,-Z",  2, 1, "",  "",        "ld -Z",  "",   "d") \
    X(LDS,    "lds",    "1001000ddddd0000kkkkkkkkkkkkkkkk", "d,k", 2, 1, "", "", "ld k", "", "d") \
    X(ST_X,   "st",     "1001001ddddd1100", "X,d",   2, 1, "",  "",        "st X",   "d",  "")  \
    X(ST_X_INC, "st",   "1001001ddddd1101", "X+,d",  2, 1, "",  "",        "st X+",  "d",  "")  \
    X(ST_X_DEC, "st",   "1001001ddddd1110", "-X,d",  2, 1, "",  "",        "st -X",  "d",  "")  \
    X(STD_Y,  "std",    "10q0qq1ddddd1qqq", "Y+q,d", 2, 1, "",  "",        "st Y+q", "d",  "")  \
    X(ST_Y_INC, "st",   "1001001ddddd1001", "Y+,d",  2, 1, "",  "",        "st Y+",  "d",  "")  \
    X(ST_Y_DEC, "st",   "1001001ddddd1010", "-Y,d",  2, 1, "",  "",        "st -Y",  "d",  "")  \
    X(STD_Z,  "std",    "10q0qq1ddddd0qqq", "Z+q,d", 2, 1, "",  "",        "st Z+q", "d",  "")  \
    X(ST_Z_INC, "st",   "1001001ddddd0001", "Z+,d",  2, 1, "",  "",        "st Z+",  "d",  "")  \
    X(ST_Z_DEC, "st",   "1001001ddddd0010", "-Z,d",  2, 1, "",  "",        "st -Z",  "d",  "")  \
    X(STS,    "sts",    "1001001ddddd0000kkkkkkkkkkkkkkkk", "k,d", 2, 1, "", "", "st k", "d", "") \
    X(PUSH,   "push",   "1001001ddddd1111", "d",     2, 1, "",  "",        "st SP-", "d",  "")  \
    X(POP,    "pop",    "1001000ddddd1111", "d",     2, 1, "",  "",        "ld +SP", "",   "d") \
    X(LPM_R0, "lpm",    "1001010111001000", "",      3, 3, "",  "",        "",       "Z",  "r0") \
    X(LPM,    "lpm",    "1001000ddddd0100", "d,Z",   3, 3, "",  "",        "",       "Z",  "d") \
    X(LPM_INC, "lpm",   "1001000ddddd0101", "d,Z+",  3, 3, "",  "",        "",       "Z",  "dZ") \
    X(RJMP,   "rjmp",   "1100oooooooooooo", "o",     2, 2, "",  "",        "",       "",   "")  \
    X(RCALL,  "rcall",  "1101oooooooooooo", "o",     3, 3, "",  "",        "",       "",   "")  \
    X(JMP,    "jmp",    "1001010kkkkk110kkkkkkkkkkkkkkkkk", "k", 3, 3, "", "", "", "", "")      \
    X(CALL,   "call",   "1001010kkkkk111kkkkkkkkkkkkkkkkk", "k", 4, 4, "", "", "", "", "")      \
    X(RET,    "ret",    "1001010100001000", "",      4, 4, "",  "",        "",       "",   "")  \
    X(RETI,   "reti",   "1001010100011000", "",      4, 4, "",  "I",       "",       "",   "")  \
    X(IJMP,   "ijmp",   "1001010000001001", "",      2, 2, "",  "",        "",       "Z",  "")  \
    X(ICALL,  "icall",  "1001010100001001", "",      3, 3, "",  "",        "",       "Z",  "")  \
    X(BRBS,   "brbs",   "111100ooooooobbb", "b,o",   1, 1, "#", "",        "",       "",   "")  \
    X(BRBC,   "brbc",   "111101ooooooobbb", "b,o",   1, 1, "#", "",        "",       "",   "")  \
    X(SBRC,   "sbrc",   "1111110ddddd-bbb", "d,b",   1, 1, "",  "",        "",       "d",  "")  \
    X(SBRS,   "sbrs",   "1111111ddddd-bbb", "d,b",   1, 1, "",  "",        "",       "d",  "")  \
    X(NOP,    "nop",    "0000000000000000", "",      1, 1, "",  "",        "",       "",   "")  \
    X(SLEEP,  "sleep",  "1001010110001000", "",      1, 1, "",  "",        "",       "",   "")  \
    X(WDR,    "wdr",    "1001010110101000", "",      1, 1, "",  "",        "",       "",   "")  \
    X(BREAK,  "break",  "1001010110011000", "",      1, 1, "",  "",        "",       "",   "")  \
    /* The erased-flash guard: 0xffff traps as FlashOutOfBounds. */          \
    X(INVALID, "<invalid>", "1111111111111111", "",      1, 1, "",  "",        "",       "",   "")

/*
 * The four synonyms that are register-register forms with rd == rr.
 * disassemble() prints them by name, and the superblock translator
 * gives ROL, TST and CLR their own single-operand handlers.
 */
#define JAAVR_AVR_SYNONYMS(X)                                                \
    X(LSL, "lsl", ADD)                                                       \
    X(ROL, "rol", ADC)                                                       \
    X(TST, "tst", AND)                                                       \
    X(CLR, "clr", EOR)

/*
 * Assembler aliases: a base form with one field fixed. They are
 * accepted on input only; disassemble() prints the base form.
 */
#define JAAVR_AVR_ALIASES(X)                                                 \
    X("ser", LDI, "d", 'K', 0xff)                                            \
    X("sec", BSET, "", 'b', 0)   X("clc", BCLR, "", 'b', 0)                  \
    X("sez", BSET, "", 'b', 1)   X("clz", BCLR, "", 'b', 1)                  \
    X("sen", BSET, "", 'b', 2)   X("cln", BCLR, "", 'b', 2)                  \
    X("sev", BSET, "", 'b', 3)   X("clv", BCLR, "", 'b', 3)                  \
    X("ses", BSET, "", 'b', 4)   X("cls", BCLR, "", 'b', 4)                  \
    X("seh", BSET, "", 'b', 5)   X("clh", BCLR, "", 'b', 5)                  \
    X("set", BSET, "", 'b', 6)   X("clt", BCLR, "", 'b', 6)                  \
    X("sei", BSET, "", 'b', 7)   X("cli", BCLR, "", 'b', 7)                  \
    X("brcs", BRBS, "o", 'b', 0) X("brlo", BRBS, "o", 'b', 0)                \
    X("breq", BRBS, "o", 'b', 1) X("brmi", BRBS, "o", 'b', 2)                \
    X("brvs", BRBS, "o", 'b', 3) X("brlt", BRBS, "o", 'b', 4)                \
    X("brhs", BRBS, "o", 'b', 5) X("brts", BRBS, "o", 'b', 6)                \
    X("brie", BRBS, "o", 'b', 7)                                             \
    X("brcc", BRBC, "o", 'b', 0) X("brsh", BRBC, "o", 'b', 0)                \
    X("brne", BRBC, "o", 'b', 1) X("brpl", BRBC, "o", 'b', 2)                \
    X("brvc", BRBC, "o", 'b', 3) X("brge", BRBC, "o", 'b', 4)                \
    X("brhc", BRBC, "o", 'b', 5) X("brtc", BRBC, "o", 'b', 6)                \
    X("brid", BRBC, "o", 'b', 7)                                             \
    X("ld", LDD_Y, "d,Y", 'q', 0) X("ld", LDD_Z, "d,Z", 'q', 0)              \
    X("st", STD_Y, "Y,d", 'q', 0) X("st", STD_Z, "Z,d", 'q', 0)
// clang-format on

namespace jaavr
{

/** AVR instruction forms (addressing variants are distinct entries). */
enum class Op : uint8_t
{
#define X(op, ...) op,
    JAAVR_AVR_FORMS(X)
#undef X
};

/** Number of Op values (INVALID included); sizes per-op tables. */
constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::INVALID) + 1;

/** Decoded instruction. */
struct Inst
{
    Op op = Op::INVALID;
    uint8_t rd = 0;    ///< destination register index
    uint8_t rr = 0;    ///< source register index
    uint8_t imm = 0;   ///< 8-bit immediate / I/O address
    uint8_t bit = 0;   ///< bit number (BLD/BST/SBRC/BRBS/BSET/SBI...)
    int16_t disp = 0;  ///< signed branch displacement (words) / LDD q
    uint32_t k = 0;    ///< 16/22-bit absolute address (LDS/STS/JMP/CALL)
    uint8_t words = 1; ///< encoding length in 16-bit words
};

/** Synonym classification of a decoded register-register form. */
enum class Synonym : uint8_t
{
    None = 0,
#define X(syn, ...) syn,
    JAAVR_AVR_SYNONYMS(X)
#undef X
};

/** Operand fields of a decoded instruction, one per Inst member. */
enum IsaSlot : uint8_t { slotRd, slotRr, slotImm, slotBit, slotDisp, slotK,
                         kNumSlots };

/** The pattern letters of each slot. */
inline constexpr std::string_view kSlotLetters[kNumSlots] = {
    "dD", "rR", "KA", "b", "qo", "k"};

/** The slot pattern letter @p c fills (kNumSlots: not a field letter). */
constexpr IsaSlot
isaSlot(char c)
{
    unsigned s = 0;
    while (s < kNumSlots && kSlotLetters[s].find(c) == std::string_view::npos)
        s++;
    return static_cast<IsaSlot>(s);
}

/**
 * One operand field in the 32-bit view of an instruction (first word
 * in the high half): up to three bit groups, each moved by one shift.
 */
struct IsaField
{
    uint32_t m[3] = {};
    uint8_t s[3] = {};
    uint8_t width = 0; ///< 0: the form has no such field

    constexpr uint32_t
    get(uint32_t v) const
    {
        return ((v & m[0]) >> s[0]) | ((v & m[1]) >> s[1]) |
               ((v & m[2]) >> s[2]);
    }

    constexpr uint32_t
    put(uint32_t x) const
    {
        return ((x << s[0]) & m[0]) | ((x << s[1]) & m[1]) |
               ((x << s[2]) & m[2]);
    }
};

/** Data-space access of a form (see the row format above). */
struct IsaMem
{
    enum Kind : uint8_t { None, Load, Store };
    /** Pointer: 26/28/30 the X/Y/Z pair's low register, or these. */
    static constexpr uint8_t ptrSP = 32, ptrAbs = 33;

    Kind kind = None;
    uint8_t ptr = 0;
    int8_t step = 0;  ///< pointer change: +1 increment, -1 decrement
    bool pre = false; ///< the change happens before the access

    /** An LD/LDD/ST/STD through X, Y or Z. */
    constexpr bool pointer() const { return kind != None && ptr < 32; }
};

/** Registers a form reads or writes (see the row format above). */
struct IsaRegs
{
    bool d = false;     ///< the rd operand: a register, or a pair for D
    bool r = false;     ///< the rr operand: a register, or a pair for R
    uint32_t fixed = 0; ///< named registers, bit i = ri
};

namespace isa_detail
{

constexpr bool
has(std::string_view s, char c)
{
    return s.find(c) != std::string_view::npos;
}

constexpr IsaField
parseField(std::string_view pattern, std::string_view letters)
{
    IsaField f;
    for (char c : pattern)
        f.width += has(letters, c);
    unsigned groups = 0, seen = 0;
    for (size_t i = 0; i < pattern.size(); i++) {
        if (!has(letters, pattern[i]))
            continue;
        unsigned pos = 31 - static_cast<unsigned>(i);
        unsigned shift = pos - (f.width - 1 - seen++);
        unsigned g = 0;
        while (g < groups && f.s[g] != shift)
            g++;
        if (g == groups) {
            if (groups == 3)
                throw "isa: an operand field has more than three bit groups";
            f.s[groups++] = static_cast<uint8_t>(shift);
        }
        f.m[g] |= 1u << pos;
    }
    return f;
}

/**
 * SREG bit mask of the flag letters in @p s. With @p after, only of
 * the letters followed by one of its characters: "01" gives the flags
 * written as a constant, "1" those whose constant is 1.
 */
constexpr uint8_t
parseFlags(std::string_view s, std::string_view after = {})
{
    constexpr std::string_view names = "CZNVSHTI";
    uint8_t m = 0;
    for (size_t i = 0; i < s.size(); i++) {
        if (s[i] == '0' || s[i] == '1') {
            if (i == 0 || !has(names, s[i - 1]))
                throw "isa: a flag value follows a flag letter";
            continue;
        }
        if (s[i] == '#')
            continue;
        size_t b = names.find(s[i] == 'z' ? 'Z' : s[i]);
        if (b == std::string_view::npos)
            throw "isa: bad flag letter";
        if (after.empty() || (i + 1 < s.size() && has(after, s[i + 1])))
            m |= static_cast<uint8_t>(1u << b);
    }
    return m;
}

constexpr IsaMem
parseMem(std::string_view s)
{
    IsaMem a;
    if (s.empty())
        return a;
    a.kind = s.substr(0, 3) == "ld " ? IsaMem::Load
           : s.substr(0, 3) == "st " ? IsaMem::Store
                                     : throw "isa: memory access is ld/st";
    s.remove_prefix(3);
    if (s[0] == '-' || s[0] == '+') {
        a.pre = true;
        a.step = s[0] == '+' ? 1 : -1;
        s.remove_prefix(1);
    }
    size_t len = s.substr(0, 2) == "SP" ? 2 : 1;
    a.ptr = s[0] == 'X' ? 26 : s[0] == 'Y' ? 28 : s[0] == 'Z' ? 30
          : s[0] == 'k' ? IsaMem::ptrAbs
          : len == 2    ? IsaMem::ptrSP
                        : throw "isa: the pointer is X, Y, Z, SP or k";
    s.remove_prefix(len);
    if (s == "+" || s == "-")
        a.step = s[0] == '+' ? 1 : -1;
    return a;
}

/** A register list: operand letters d and r, named r0..r9, and Z. */
constexpr IsaRegs
parseRegs(std::string_view s)
{
    IsaRegs m;
    for (size_t i = 0; i < s.size(); i++) {
        if (s[i] == 'r' && i + 1 < s.size() && s[i + 1] >= '0' &&
            s[i + 1] <= '9')
            m.fixed |= 1u << (s[++i] - '0');
        else if (s[i] == 'd' || s[i] == 'r')
            (s[i] == 'd' ? m.d : m.r) = true;
        else if (s[i] == 'Z')
            m.fixed |= 3u << 30;
        else
            throw "isa: bad register letter";
    }
    return m;
}

} // namespace isa_detail

/** One instruction form: a row of JAAVR_AVR_FORMS, parsed. */
struct IsaForm
{
    Op op;
    const char *mnemonic;
    const char *syntax;
    uint32_t mask = 0, match = 0; ///< fixed bits of the 32-bit view
    uint8_t words = 1;
    IsaField field[kNumSlots];
    uint8_t regBase[2] = {}; ///< rd/rr = base + (field << regShift)
    uint8_t regShift[2] = {};
    uint16_t dispSign = 0;   ///< sign bit of an o field
    uint8_t ca = 1, fast = 1;
    uint8_t sregReads = 0, sregWrites = 0; ///< SREG bits, C = bit 0
    bool stickyZ = false;    ///< writes Z only by clearing it
    bool writesFlagB = false;///< writes the flag its b operand names
    IsaMem mem;
    uint8_t sregConst = 0;    ///< written flags that always take one value
    uint8_t sregConstVal = 0; ///< that value, for the sregConst bits
    IsaRegs regReads, regWrites;

    constexpr IsaForm(Op o, const char *mnem, std::string_view pattern,
                      const char *syn, int ca_cycles, int fast_cycles,
                      std::string_view reads, std::string_view writes,
                      std::string_view access, std::string_view reg_reads,
                      std::string_view reg_writes)
        : op(o), mnemonic(mnem), syntax(syn),
          words(static_cast<uint8_t>(pattern.size() / 16)),
          ca(static_cast<uint8_t>(ca_cycles)),
          fast(static_cast<uint8_t>(fast_cycles)),
          sregReads(isa_detail::parseFlags(reads)),
          sregWrites(isa_detail::parseFlags(writes)),
          stickyZ(isa_detail::has(writes, 'z')),
          writesFlagB(isa_detail::has(writes, '#')),
          mem(isa_detail::parseMem(access)),
          sregConst(isa_detail::parseFlags(writes, "01")),
          sregConstVal(isa_detail::parseFlags(writes, "1")),
          regReads(isa_detail::parseRegs(reg_reads)),
          regWrites(isa_detail::parseRegs(reg_writes))
    {
        using isa_detail::has;
        if (pattern.size() != 16 && pattern.size() != 32)
            throw "isa: a pattern is one or two 16-bit words";
        if (std::string_view(syn).find(',') != std::string_view(syn).rfind(','))
            throw "isa: a form has at most two operands";
        for (size_t i = 0; i < pattern.size(); i++) {
            uint32_t bit = 1u << (31 - i);
            if (pattern[i] == '0' || pattern[i] == '1')
                mask |= bit;
            else if (pattern[i] != '-' && isaSlot(pattern[i]) == kNumSlots)
                throw "isa: a pattern letter names no operand field";
            if (pattern[i] == '1')
                match |= bit;
        }
        for (unsigned slot = 0; slot < kNumSlots; slot++)
            field[slot] = isa_detail::parseField(pattern, kSlotLetters[slot]);
        for (int r = 0; r < 2; r++) {
            bool pair = has(pattern, r ? 'R' : 'D');
            unsigned w = field[r].width;
            regShift[r] = pair;
            regBase[r] = w == 0 || w == 5 || (pair && w == 4) ? 0
                       : pair ? 24 : 16;
        }
        if (has(pattern, 'o'))
            dispSign = static_cast<uint16_t>(1u << (field[slotDisp].width - 1));
        const IsaRegs *lists[] = {&regReads, &regWrites};
        for (const IsaRegs *regs : lists)
            if ((regs->d && !field[slotRd].width) ||
                (regs->r && !field[slotRr].width))
                throw "isa: a register list names an operand the form lacks";
    }

    /** Flags a result depends on: the reads, and Z where it is sticky. */
    constexpr uint8_t
    sregInputs() const
    {
        return static_cast<uint8_t>(sregReads | (stickyZ ? 2u : 0u));
    }
};

/** The rows, indexed by Op. */
inline constexpr IsaForm kIsaForms[] = {
#define X(op, ...) IsaForm(Op::op, __VA_ARGS__),
    JAAVR_AVR_FORMS(X)
#undef X
};
static_assert(std::size(kIsaForms) == kNumOps);

/** The row of @p op. */
constexpr const IsaForm &
isaForm(Op op)
{
    return kIsaForms[static_cast<size_t>(op)];
}

/** SREG flags @p op writes, given its b operand @p bit. */
constexpr uint8_t
sregWrites(Op op, unsigned bit)
{
    const IsaForm &f = isaForm(op);
    return f.writesFlagB ? static_cast<uint8_t>(1u << bit) : f.sregWrites;
}

/** The registers @p regs names for @p i's operands, as a mask. */
constexpr uint32_t
regMask(const IsaRegs &regs, const Inst &i)
{
    const IsaForm &f = isaForm(i.op);
    // A register operand is one register, or a pair when its field
    // counts pairs (MOVW, ADIW, SBIW).
    uint32_t d = regs.d ? (f.regShift[0] ? 3u : 1u) : 0;
    uint32_t r = regs.r ? (f.regShift[1] ? 3u : 1u) : 0;
    return d << i.rd | r << i.rr | regs.fixed;
}

/** Registers @p i reads, as a mask. */
constexpr uint32_t
regsRead(const Inst &i)
{
    return regMask(isaForm(i.op).regReads, i);
}

/** Registers @p i writes, as a mask. */
constexpr uint32_t
regsWritten(const Inst &i)
{
    return regMask(isaForm(i.op).regWrites, i);
}

/** Registers @p i reads or writes, as a mask. */
constexpr uint32_t
regsTouched(const Inst &i)
{
    return regsRead(i) | regsWritten(i);
}

/** True for the data-space load family (LD/LDD/LDS; not POP). */
constexpr bool
isLoadOp(Op op)
{
    const IsaMem &m = isaForm(op).mem;
    return m.kind == IsaMem::Load && m.ptr != IsaMem::ptrSP;
}

/** True for the data-space store family (ST/STD/STS; not PUSH). */
constexpr bool
isStoreOp(Op op)
{
    const IsaMem &m = isaForm(op).mem;
    return m.kind == IsaMem::Store && m.ptr != IsaMem::ptrSP;
}

/**
 * Decode an instruction from its first word @p w0 and (for two-word
 * encodings) the following word @p w1. Returns Op::INVALID for
 * reserved encodings and for the erased-flash word 0xffff. Operand
 * fields a form does not have stay 0.
 */
Inst decode(uint16_t w0, uint16_t w1);

/**
 * Encode @p i as the 32-bit view: first word in the high half, the
 * second word (two-word forms only) in the low half.
 */
uint32_t encode(const Inst &i);

/** True for 2-word encodings (needed by skip instructions). */
bool isTwoWord(uint16_t w0);

/** Synonym classification of a decoded instruction (None if plain). */
Synonym synonymOf(const Inst &inst);

/** Mnemonic of an operation. */
const char *opName(Op op);

/** Human-readable disassembly ("ldd r24, Z+3", "rjmp .-4"). */
std::string disassemble(const Inst &inst);

/** One way to write a form in assembler source. */
struct IsaSpelling
{
    std::string_view mnemonic;
    std::string_view syntax;
    Op op;
    char fixed = 0;    ///< field letter an alias fixes ('r': rr = rd)
    uint8_t value = 0; ///< its value
};

/** Every spelling of @p mnemonic: base forms first, then aliases. */
std::span<const IsaSpelling> isaSpellings(std::string_view mnemonic);

} // namespace jaavr

#endif // JAAVR_AVR_ISA_HH
