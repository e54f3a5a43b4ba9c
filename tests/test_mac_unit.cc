/**
 * @file
 * Tests for the (32 x 4)-bit MAC instruction-set extension (Fig. 1):
 * both access mechanisms from the paper's Algorithms 1 and 2, the
 * 8-cycle (32 x 32)-bit multiplication claim, the auto-wrapping shift
 * counter, and the hazard rules.
 */

#include <gtest/gtest.h>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

constexpr uint16_t kA = 0x0200;  // operand A (4 bytes)
constexpr uint16_t kB = 0x0210;  // operand B (4 bytes)

/** Read the 72-bit accumulator R0..R8 as an integer. */
unsigned __int128
readAcc(const Machine &m)
{
    unsigned __int128 acc = 0;
    for (int i = 8; i >= 0; i--)
        acc = (acc << 8) | m.reg(i);
    return acc;
}

void
setOperands(Machine &m, uint32_t a, uint32_t b)
{
    m.writeBytes(kA, {uint8_t(a), uint8_t(a >> 8), uint8_t(a >> 16),
                      uint8_t(a >> 24)});
    m.writeBytes(kB, {uint8_t(b), uint8_t(b >> 8), uint8_t(b >> 16),
                      uint8_t(b >> 24)});
}

/**
 * Algorithm 1 of the paper: load both 32-bit operands, then eight
 * re-interpreted SWAPs perform the full (32 x 32)-bit MAC.
 */
const char *kAlg1 = R"(
    .equ MACCR = 0x3c
    ldi r20, 0x01        ; SWAP-MAC mode
    out MACCR, r20
    ld  r16, Y+          ; operand A -> R16..R19
    ld  r17, Y+
    ld  r18, Y+
    ld  r19, Y+
    ld  r20, Z+          ; operand B -> R20..R23
    ld  r21, Z+
    ld  r22, Z+
    ld  r23, Z+
    swap r20
    swap r20
    swap r21
    swap r21
    swap r22
    swap r22
    swap r23
    swap r23
    ret
)";

/**
 * Algorithm 2 of the paper, verbatim structure: every load into R24
 * triggers two MAC micro-ops in the following two cycles; the NOPs
 * are the data-dependency bubbles the paper describes.
 */
const char *kAlg2 = R"(
    .equ MACCR = 0x3c
    ldi r20, 0x02        ; R24-load MAC mode
    out MACCR, r20
    ldd r16, Y+0
    ldd r17, Y+1
    ldd r18, Y+2
    ldd r19, Y+3
    ldd r24, Z+0
    nop
    ldd r24, Z+1
    nop
    ldd r24, Z+2
    nop
    ldd r24, Z+3
    nop
    nop
    ret
)";

std::unique_ptr<Machine>
runMac(const char *src, uint32_t a, uint32_t b)
{
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(src, "mac").words);
    setOperands(*m, a, b);
    m->setY(kA);
    m->setZ(kB);
    m->call(0);
    return m;
}

} // anonymous namespace

TEST(MacUnit, Algorithm1ComputesFullProduct)
{
    Rng rng(100);
    for (int i = 0; i < 50; i++) {
        uint32_t a = rng.next32(), b = rng.next32();
        auto m = runMac(kAlg1, a, b);
        EXPECT_EQ(readAcc(*m),
                  static_cast<unsigned __int128>(a) * b);
        // Register contents are restored by the double swaps.
        EXPECT_EQ(m->reg(20), uint8_t(b));
        EXPECT_EQ(m->reg(23), uint8_t(b >> 24));
    }
}

TEST(MacUnit, Algorithm2ComputesFullProduct)
{
    Rng rng(101);
    for (int i = 0; i < 50; i++) {
        uint32_t a = rng.next32(), b = rng.next32();
        auto m = runMac(kAlg2, a, b);
        EXPECT_EQ(readAcc(*m),
                  static_cast<unsigned __int128>(a) * b);
    }
}

TEST(MacUnit, AccumulationAcrossCalls)
{
    // Two sequential Algorithm-2 multiplications accumulate.
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    Program p = assemble(kAlg2, "mac");
    m->loadProgram(p.words);
    setOperands(*m, 0xffffffff, 0xffffffff);
    m->setY(kA);
    m->setZ(kB);
    m->call(0);
    m->setY(kA);
    m->setZ(kB);
    m->call(0);
    unsigned __int128 p1 =
        static_cast<unsigned __int128>(0xffffffffu) * 0xffffffffu;
    EXPECT_EQ(readAcc(*m), p1 + p1);
}

TEST(MacUnit, EightMacsPerMultiplication)
{
    auto m = runMac(kAlg2, 0x12345678, 0x9abcdef0);
    EXPECT_EQ(m->mac().totalMacs(), 8u);
    // The counter wrapped back to zero, ready for the next operand.
    EXPECT_EQ(m->mac().shiftCounter(), 0u);
}

TEST(MacUnit, MacTakesEightCyclesAndDoesNotStall)
{
    // The 8 SWAPs of Algorithm 1 cost exactly 8 cycles (one MAC per
    // cycle); in Algorithm 2 the MACs ride in the shadow of the loads
    // and NOPs, adding zero cycles of their own. Compare against the
    // same instruction stream with the MAC disabled.
    Machine with(CpuMode::ISE), without(CpuMode::ISE);
    Program p = assemble(kAlg2, "mac");
    with.loadProgram(p.words);
    without.loadProgram(p.words);
    setOperands(with, 1, 2);
    setOperands(without, 1, 2);
    with.setY(kA);
    with.setZ(kB);
    without.setY(kA);
    without.setZ(kB);
    // Disable the MAC in 'without' by patching MACCR mode to 0.
    uint64_t c_with = with.call(0);
    without.setMaccr(0);
    // Patch the OUT's source register value: rerun with mode 0 by
    // overwriting the ldi immediate (word 0: ldi r20, 0x02 -> 0x00).
    Program p0 = assemble(kAlg2, "mac");
    p0.words[0] = assemble("ldi r20, 0x00", "x").words[0];
    without.loadProgram(p0.words);
    uint64_t c_without = without.call(0);
    EXPECT_EQ(c_with, c_without);
}

TEST(MacUnit, ShiftCounterWraps)
{
    // 4 SWAPs only: counter at 4; after 8 it returns to 0.
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x01
        out MACCR, r20
        ldi r21, 0x12
        swap r21
        swap r21
        swap r21
        swap r21
        ret
    )", "mac").words);
    m->call(0);
    EXPECT_EQ(m->mac().shiftCounter(), 4u);
}

TEST(MacUnit, MaccrWriteResetsCounter)
{
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x01
        out MACCR, r20
        ldi r21, 0x12
        swap r21
        swap r21
        out MACCR, r20   ; reset mid-stream
        ret
    )", "mac").words);
    m->call(0);
    EXPECT_EQ(m->mac().shiftCounter(), 0u);
}

TEST(MacUnit, SwapStillSwapsInMacMode)
{
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x01
        out MACCR, r20
        ldi r21, 0xa5
        swap r21
        ret
    )", "mac").words);
    m->call(0);
    EXPECT_EQ(m->reg(21), 0x5a);
}

TEST(MacUnit, SwapModeUsesPreSwapLowNibble)
{
    // One SWAP of 0xa5 multiplies by nibble 5 (the pre-swap low
    // nibble) at shift 0.
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x01
        out MACCR, r20
        ldi r16, 0x10
        ldi r17, 0x00
        ldi r18, 0x00
        ldi r19, 0x00
        ldi r21, 0xa5
        swap r21
        ret
    )", "mac").words);
    m->call(0);
    EXPECT_EQ(static_cast<uint64_t>(readAcc(*m)), 0x10u * 5u);
}

TEST(MacUnit, HazardTouchingAccumulatorTraps)
{
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x02
        out MACCR, r20
        ldd r24, Y+0
        add r0, r0      ; in the MAC shadow: illegal
        ret
    )", "mac").words);
    m->setY(kA);
    RunResult r = m->call(0);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::MacHazard);
    EXPECT_EQ(r.trap.addr, 0u);  // shadow-register touch, not retrigger
}

TEST(MacUnit, HazardTouchingMultiplicandTraps)
{
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x02
        out MACCR, r20
        ldd r24, Y+0
        ldi r16, 1      ; R16 is the multiplicand: illegal
        ret
    )", "mac").words);
    m->setY(kA);
    RunResult r = m->call(0);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::MacHazard);
    EXPECT_EQ(r.trap.addr, 0u);
}

TEST(MacUnit, BackToBackTriggersTrap)
{
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x02
        out MACCR, r20
        ldd r24, Y+0
        ldd r24, Y+1    ; retrigger with two MACs pending: illegal
        ret
    )", "mac").words);
    m->setY(kA);
    RunResult r = m->call(0);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.trap.kind, TrapKind::MacHazard);
    EXPECT_EQ(r.trap.addr, 1u);  // back-to-back retrigger flavor

    // The pre-decrement forms fire the MAC like every other load
    // into R24, so they obey the same rule, on every backend.
    for (const char *ptr : {"X", "Y", "Z"}) {
        const Program p = assemble(csprintf(R"(
            .equ MACCR = 0x3c
            ldi r20, 0x02
            out MACCR, r20
            ld r24, %s+
            ld r24, -%s     ; retrigger with two MACs pending: illegal
            ret
        )", ptr, ptr), "mac");
        for (IssBackend backend : {IssBackend::Reference,
                                   IssBackend::Superblock}) {
            Machine mb(CpuMode::ISE);
            mb.setBackend(backend);
            mb.loadProgram(p.words);
            mb.setX(kA);
            mb.setY(kA);
            mb.setZ(kA);
            RunResult rb = mb.call(0);
            EXPECT_EQ(rb.trap.kind, TrapKind::MacHazard)
                << "-" << ptr << " on " << issBackendName(backend);
            EXPECT_EQ(rb.trap.addr, 1u);
            EXPECT_EQ(mb.mac().totalMacs(), 2u);
        }
    }
}

/*
 * The fused Algorithm-2 trigger: below counter 7, macLoad() adds one
 * (32 x 8)-bit product instead of two nibble MACs. It must agree with
 * two mac() calls and with a 128-bit model of the 72-bit accumulator
 * at every counter position (7 takes the split path), including
 * accumulators next to 2^72 where the R8 carry wraps.
 */
TEST(MacUnit, FusedTriggerMatchesTwoNibbleMacs)
{
    const unsigned __int128 mask72 =
        (static_cast<unsigned __int128>(1) << 72) - 1;
    auto acc = [](const std::array<uint8_t, 32> &regs) {
        unsigned __int128 v = 0;
        for (int i = 8; i >= 0; i--)
            v = (v << 8) | regs[i];
        return v;
    };
    Rng rng(102);
    for (int iter = 0; iter < 4000; iter++) {
        const unsigned c = iter % 8;
        std::array<uint8_t, 32> fused{};
        for (auto &byte : fused)
            byte = static_cast<uint8_t>(rng.next32());
        if (iter % 3 == 0)  // within 2^40 of 2^72
            for (int i = 5; i <= 8; i++)
                fused[i] = 0xff;
        std::array<uint8_t, 32> split = fused;
        const uint8_t value = static_cast<uint8_t>(rng.next32());
        const unsigned __int128 word = static_cast<uint32_t>(
            fused[16] | fused[17] << 8 | fused[18] << 16 |
            static_cast<uint32_t>(fused[19]) << 24);
        const unsigned __int128 expect =
            (acc(fused) + (word * (value & 0xf) << (4 * c)) +
             (word * (value >> 4) << (4 * ((c + 1) % 8)))) & mask72;

        // Zero-nibble MACs move both counters to c without touching
        // the accumulators under test.
        MacUnit a, b;
        std::array<uint8_t, 32> spare{};
        for (unsigned i = 0; i < c; i++) {
            a.mac(spare, 0);
            b.mac(spare, 0);
        }
        a.macLoad(fused, value);
        b.mac(split, value & 0x0f);
        b.mac(split, value >> 4);

        ASSERT_EQ(fused, split) << "counter " << c;
        ASSERT_TRUE(acc(fused) == expect) << "counter " << c;
        EXPECT_EQ(a.shiftCounter(), (c + 2) % 8);
        EXPECT_EQ(a.shiftCounter(), b.shiftCounter());
        EXPECT_EQ(a.totalMacs(), c + 2);
        EXPECT_EQ(a.alg2Macs(), 2u);
    }
}

TEST(MacUnit, IndependentWorkInShadowIsLegal)
{
    // The paper: "the ALU is free and can execute some other
    // instructions in parallel" — anything outside the 13 registers.
    auto m = std::make_unique<Machine>(CpuMode::ISE);
    m->loadProgram(assemble(R"(
        .equ MACCR = 0x3c
        ldi r20, 0x02
        out MACCR, r20
        ldi r16, 0x01
        ldi r17, 0
        ldi r18, 0
        ldi r19, 0
        ldd r24, Y+0
        ldi r25, 7      ; legal: r25 not in the hazard set
        mov r10, r25    ; legal
        ret
    )", "mac").words);
    m->setY(kA);
    m->writeBytes(kA, {0x21, 0, 0, 0});
    m->call(0);
    EXPECT_EQ(static_cast<uint64_t>(readAcc(*m)), 0x21u);
    EXPECT_EQ(m->reg(10), 7);
}

TEST(MacUnit, NoMacInCaOrFastModes)
{
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST}) {
        Machine m(mode);
        m.loadProgram(assemble(kAlg1, "mac").words);
        setOperands(m, 3, 5);
        m.setY(kA);
        m.setZ(kB);
        m.call(0);
        EXPECT_EQ(static_cast<uint64_t>(readAcc(m)), 0u)
            << cpuModeName(mode);
        EXPECT_EQ(m.mac().totalMacs(), 0u);
    }
}
