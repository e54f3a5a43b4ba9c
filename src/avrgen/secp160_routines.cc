#include "avrgen/secp160_routines.hh"

#include "avrgen/asm_builder.hh"
#include "avrgen/opf_routines.hh"
#include "support/logging.hh"

namespace jaavr
{

namespace
{

constexpr unsigned kBytes = 20;

/**
 * Two branch-guarded fold rounds: result += / -= c * (2^31 + 1),
 * which is how one subtracts (adds) c * p modulo 2^160 for
 * p = 2^160 - 2^31 - 1. Expects r20 = c (0/1), r21 = 0; clobbers
 * r22, r23; leaves the updated c in r20. Unlike the OPF fold the
 * carry out of byte 3 (which received c << 7) is *not* rare, so the
 * ripple over bytes 4..19 is ordinary control flow here.
 */
void
emitMersenneFold(AsmBuilder &b, bool subtract, const std::string &prefix)
{
    const char *op0 = subtract ? "sub" : "add";
    const char *opc = subtract ? "sbc" : "adc";
    for (int round = 0; round < 2; round++) {
        b.comment(csprintf("fold round %d: %s c * (2^31 + 1)", round,
                           subtract ? "subtract" : "add"));
        // r23 = c << 7.
        b.ins("mov r23, r20");
        b.ins("neg r23");
        b.ins("andi r23, 0x80");
        b.ins("lds r22, RES+0");
        b.ins("%s r22, r20", op0);
        b.ins("sts RES+0, r22");
        for (unsigned t = 1; t <= 3; t++) {
            b.ins("lds r22, RES+%u", t);
            b.ins("%s r22, %s", opc, t == 3 ? "r23" : "r21");
            b.ins("sts RES+%u, r22", t);
        }
        // The ripple block is ~80 words (LDS/STS are two words each),
        // beyond the +-64-word conditional-branch range: branch to a
        // long jump instead.
        std::string ripple = csprintf("%s_rip_%d", prefix.c_str(), round);
        std::string norip = csprintf("%s_norip_%d", prefix.c_str(), round);
        b.ins("brcs %s", ripple.c_str());
        b.ins("rjmp %s", norip.c_str());
        b.label(ripple);
        for (unsigned t = 4; t < kBytes; t++) {
            b.ins("lds r22, RES+%u", t);
            b.ins("%s r22, r21", opc);
            b.ins("sts RES+%u, r22", t);
        }
        b.label(norip);
        // New c = the carry/borrow out of the chain (0 in the
        // no-ripple path since brcc was taken with C clear).
        b.ins("clr r20");
        b.ins("rol r20");
    }
}

/**
 * The pseudo-Mersenne reduction shared by both multiplier variants:
 * fold the 320-bit product in TB into RES using 2^160 = 2^31 + 1.
 * Expects r21 = 0; clobbers r18..r20 and r22..r27; ends with the two
 * emitMersenneFold rounds.
 */
void
emitSecpReduction(AsmBuilder &b, const std::string &prefix)
{
    // --- First fold: W = l + h + (h << 31), 24 bytes. ----------------
    b.comment("W = l + h");
    for (unsigned t = 0; t < kBytes; t++) {
        b.ins("lds r18, TB+%u", t);
        b.ins("lds r19, TB+%u", kBytes + t);
        b.ins(t == 0 ? "add r18, r19" : "adc r18, r19");
        b.ins("sts WB+%u, r18", t);
    }
    b.ins("clr r18");
    b.ins("rol r18");
    b.ins("sts WB+%u, r18", kBytes);
    for (unsigned t = kBytes + 1; t < 24; t++)
        b.ins("sts WB+%u, r21", t);

    b.comment("HS = h >> 1 (dropped bit -> r23 as 0x80)");
    b.ins("clc");
    for (int t = kBytes - 1; t >= 0; t--) {
        b.ins("lds r18, TB+%d", kBytes + t);
        b.ins("ror r18");
        b.ins("sts HS+%d, r18", t);
    }
    b.ins("clr r23");
    b.ins("ror r23");  // dropped bit lands in bit 7

    b.comment("W += (h << 31)  [= b<<7 at byte 3, HS at bytes 4..23]");
    b.ins("lds r18, WB+3");
    b.ins("add r18, r23");
    b.ins("sts WB+3, r18");
    for (unsigned t = 0; t < kBytes; t++) {
        b.ins("lds r18, WB+%u", 4 + t);
        b.ins("lds r19, HS+%u", t);
        b.ins("adc r18, r19");
        b.ins("sts WB+%u, r18", 4 + t);
    }
    // W < 2^192, so the chain cannot carry out of byte 23.

    // --- Second fold: RES = W[0..19] + h2 + (h2 << 31), h2 < 2^32. --
    b.comment("second fold: h2 in r24..r27");
    b.ins("lds r24, WB+20");
    b.ins("lds r25, WB+21");
    b.ins("lds r26, WB+22");
    b.ins("lds r27, WB+23");
    for (unsigned t = 0; t < kBytes; t++) {
        b.ins("lds r18, WB+%u", t);
        if (t == 0)
            b.ins("add r18, r24");
        else if (t <= 3)
            b.ins("adc r18, r%u", 24 + t);
        else
            b.ins("adc r18, r21");
        b.ins("sts RES+%u, r18", t);
    }
    b.ins("clr r20");
    b.ins("rol r20");  // carry of the + h2 chain

    b.comment("RES += (h2 << 31)");
    b.ins("lsr r27");
    b.ins("ror r26");
    b.ins("ror r25");
    b.ins("ror r24");
    b.ins("clr r23");
    b.ins("ror r23");  // dropped bit of h2 as 0x80
    b.ins("lds r18, RES+3");
    b.ins("add r18, r23");
    b.ins("sts RES+3, r18");
    for (unsigned t = 4; t < kBytes; t++) {
        b.ins("lds r18, RES+%u", t);
        if (t <= 7)
            b.ins("adc r18, r%u", 24 + t - 4);
        else
            b.ins("adc r18, r21");
        b.ins("sts RES+%u, r18", t);
    }
    // Total carry out of 2^160 across both chains is at most 1.
    b.ins("clr r22");
    b.ins("rol r22");
    b.ins("add r20, r22");

    emitMersenneFold(b, /*subtract=*/false, prefix);
}

/** The prime 2^160 - 2^31 - 1 as little-endian bytes. */
std::vector<uint8_t>
secp160r1PrimeBytes()
{
    std::vector<uint8_t> p(kBytes, 0xff);
    p[3] = 0x7f;  // clear bit 31
    return p;
}

} // anonymous namespace

std::string
genSecp160AddSub(bool subtract)
{
    AsmBuilder b;
    b.ins(".equ RES = 0x%04x", OpfMemoryMap::resultAddr);
    b.comment(subtract
                  ? "secp160r1 modular subtraction a - b (mod p)"
                  : "secp160r1 modular addition a + b (mod p)");
    b.ins("clr r21");
    for (unsigned t = 0; t < kBytes; t++) {
        b.ins("ldd r18, Y+%u", t);
        b.ins("ldd r19, Z+%u", t);
        if (t == 0)
            b.ins(subtract ? "sub r18, r19" : "add r18, r19");
        else
            b.ins(subtract ? "sbc r18, r19" : "adc r18, r19");
        b.ins("sts RES+%u, r18", t);
    }
    b.ins("clr r20");
    b.ins("rol r20");
    // Addition overflowing 2^160 subtracts c*p == adds c*(2^31+1);
    // subtraction borrowing adds c*p == subtracts c*(2^31+1).
    emitMersenneFold(b, subtract, subtract ? "ss" : "sa");
    b.ins("ret");
    return b.str();
}

std::string
genSecp160Mul()
{
    AsmBuilder b;
    b.ins(".equ RES = 0x%04x", OpfMemoryMap::resultAddr);
    b.ins(".equ TB = 0x%04x", Secp160MemoryMap::tBufAddr);
    b.ins(".equ WB = 0x%04x", Secp160MemoryMap::wBufAddr);
    b.ins(".equ HS = 0x%04x", Secp160MemoryMap::hsBufAddr);
    b.comment("secp160r1 multiplication: 320-bit product scanning, "
              "then the 2^160 = 2^31 + 1 double fold");
    b.comment("acc r2..r10; A cache r11..r14; B cache r15..r18; "
              "catchers r19/r20; zero r21");

    b.ins("clr r21");
    for (unsigned k = 0; k < 9; k++)
        b.ins("clr r%u", 2 + k);

    // --- 320-bit product into TB (product scanning, 5x5 words). -----
    const unsigned s = 5;
    for (unsigned i = 0; i < 2 * s; i++) {
        b.comment(csprintf("--- product column %u ---", i));
        unsigned j_lo = i < s ? 0 : i - s + 1;
        unsigned j_hi = i < s ? i : s - 1;
        for (unsigned j = j_lo; j <= j_hi && i < 2 * s - 1; j++) {
            for (unsigned t = 0; t < 4; t++)
                b.ins("ldd r%u, Y+%u", 11 + t, 4 * j + t);
            for (unsigned t = 0; t < 4; t++)
                b.ins("ldd r%u, Z+%u", 15 + t, 4 * (i - j) + t);
            emitNativeMulBlock(b, {11, 12, 13, 14}, {15, 16, 17, 18}, 0);
        }
        for (unsigned t = 0; t < 4; t++)
            b.ins("sts TB+%u, r%u", 4 * i + t, 2 + t);
        b.ins("movw r2, r6");
        b.ins("movw r4, r8");
        b.ins("mov r6, r10");
        b.ins("clr r7");
        b.ins("clr r8");
        b.ins("clr r9");
        b.ins("clr r10");
    }

    emitSecpReduction(b, "sm");
    b.ins("ret");
    return b.str();
}

std::string
genSecp160MulIse()
{
    AsmBuilder b;
    b.ins(".equ RES = 0x%04x", OpfMemoryMap::resultAddr);
    b.ins(".equ TB = 0x%04x", Secp160MemoryMap::tBufAddr);
    b.ins(".equ WB = 0x%04x", Secp160MemoryMap::wBufAddr);
    b.ins(".equ HS = 0x%04x", Secp160MemoryMap::hsBufAddr);
    b.ins(".equ MACCR = 0x%02x", 0x3c);
    b.comment("secp160r1 multiplication with the MAC-unit product "
              "phase; the pseudo-Mersenne reduction stays additive");

    b.ins("clr r21");
    b.ins("ldi r18, 0x02");  // Algorithm-2 trigger mode only
    b.ins("out MACCR, r18");
    for (unsigned k = 0; k < 9; k++)
        b.ins("clr r%u", k);

    const unsigned s = 5;
    for (unsigned i = 0; i < 2 * s; i++) {
        b.comment(csprintf("--- product column %u (MAC blocks) ---", i));
        unsigned j_lo = i < s ? 0 : i - s + 1;
        unsigned j_hi = i < s ? i : s - 1;
        if (i < 2 * s - 1) {
            for (unsigned j = j_lo; j <= j_hi; j++)
                emitIseMulBlock(b, i - j, j == j_lo, j, j < j_hi, j + 1);
        }
        for (unsigned t = 0; t < 4; t++)
            b.ins("sts TB+%u, r%u", 4 * i + t, t);
        b.ins("movw r0, r4");
        b.ins("movw r2, r6");
        b.ins("mov r4, r8");
        b.ins("clr r5");
        b.ins("clr r6");
        b.ins("clr r7");
        b.ins("clr r8");
    }

    // MAC off before the fold (it uses r24 as a plain register). The
    // staging loads used r20..r23, so the zero register must be
    // re-established first.
    b.ins("clr r21");
    b.ins("out MACCR, r21");
    emitSecpReduction(b, "si");
    b.ins("ret");
    return b.str();
}

std::string
genSecp160Inverse()
{
    return genMontInverseBytes(secp160r1PrimeBytes());
}

} // namespace jaavr
