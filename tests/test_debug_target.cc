/**
 * @file
 * DebugTarget tests: gdb register-block layout, the composite gdb
 * address space (flash / data / EEPROM), flash patching through the
 * decode-cache refresh, software breakpoints with resume step-over,
 * read/write/access data watchpoints on both execution paths, sliced
 * continues, single-stepping (also seen by the waveform and leakage
 * observers), and trap-to-signal mapping.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "avr/leakage.hh"
#include "avr/vcd.hh"
#include "avrasm/assembler.hh"
#include "debug/target.hh"

using namespace jaavr;

namespace
{

/** Machine with @p src assembled at word 0 and an attached target. */
struct Session
{
    explicit Session(const std::string &src,
                     CpuMode mode = CpuMode::CA)
        : m(mode), t(m)
    {
        m.loadProgram(assemble(src, "dbg").words, 0);
    }

    Machine m;
    DebugTarget t;
};

} // anonymous namespace

TEST(DebugTarget, RegisterBlockLayout)
{
    Machine m(CpuMode::CA);
    DebugTarget t(m);
    for (unsigned i = 0; i < 32; i++)
        m.setReg(i, static_cast<uint8_t>(0xa0 + i));
    m.setSreg(0x5a);
    m.setSp(0x10fe);
    m.setPc(0x2001);

    std::array<uint8_t, DebugTarget::kRegBlockLen> block =
        t.readRegisters();
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(block[i], 0xa0 + i);
    EXPECT_EQ(block[32], 0x5a);
    EXPECT_EQ(block[33], 0xfe); // SP little-endian
    EXPECT_EQ(block[34], 0x10);
    // PC is a byte address: 0x2001 words -> 0x4002 bytes, LE.
    EXPECT_EQ(block[35], 0x02);
    EXPECT_EQ(block[36], 0x40);
    EXPECT_EQ(block[37], 0x00);
    EXPECT_EQ(block[38], 0x00);

    // Whole-block write round-trips.
    block[5] = 0x17;
    block[33] = 0x80;
    t.writeRegisters(block);
    EXPECT_EQ(m.reg(5), 0x17);
    EXPECT_EQ(m.sp(), 0x1080);
    EXPECT_EQ(m.pc(), 0x2001u);

    // Single-register access, gdb numbering.
    EXPECT_EQ(t.readRegister(5), (std::vector<uint8_t>{0x17}));
    EXPECT_EQ(t.readRegister(32), (std::vector<uint8_t>{0x5a}));
    EXPECT_EQ(t.readRegister(33), (std::vector<uint8_t>{0x80, 0x10}));
    EXPECT_EQ(t.readRegister(34),
              (std::vector<uint8_t>{0x02, 0x40, 0x00, 0x00}));
    EXPECT_TRUE(t.readRegister(35).empty());

    EXPECT_TRUE(t.writeRegister(34, {0x08, 0x00, 0x00, 0x00}));
    EXPECT_EQ(m.pc(), 4u);
    EXPECT_TRUE(t.writeRegister(33, {0x34, 0x12}));
    EXPECT_EQ(m.sp(), 0x1234);
    EXPECT_FALSE(t.writeRegister(34, {0x08})); // wrong width
    EXPECT_FALSE(t.writeRegister(99, {0x00}));
}

TEST(DebugTarget, GdbAddressSpaces)
{
    Session s("ldi r16, 0x42\nret\n");
    std::vector<uint8_t> out;

    // Flash is byte-addressed little-endian words at gdb address 0.
    ASSERT_TRUE(s.t.readMemory(0, 4, out));
    uint16_t w0 = s.m.flashWord(0), w1 = s.m.flashWord(1);
    EXPECT_EQ(out, (std::vector<uint8_t>{
                       static_cast<uint8_t>(w0),
                       static_cast<uint8_t>(w0 >> 8),
                       static_cast<uint8_t>(w1),
                       static_cast<uint8_t>(w1 >> 8)}));

    // Reads past the end of flash read as erased, like a device dump.
    ASSERT_TRUE(s.t.readMemory(2 * Machine::flashWords - 1, 2, out));
    EXPECT_EQ(out[1], 0xff);

    // Data space at 0x800000: registers, I/O, SRAM.
    s.m.writeData(0x0150, 0xab);
    ASSERT_TRUE(s.t.readMemory(kGdbDataBase + 0x0150, 1, out));
    EXPECT_EQ(out, (std::vector<uint8_t>{0xab}));
    ASSERT_TRUE(s.t.writeMemory(kGdbDataBase + 0x0151, {0xcd}));
    EXPECT_EQ(s.m.readData(0x0151), 0xcd);
    ASSERT_TRUE(s.t.readMemory(kGdbDataBase + 16, 1, out));
    EXPECT_EQ(out[0], s.m.reg(16));

    // EEPROM space: erased until written, bounded at 4 KiB.
    ASSERT_TRUE(s.t.readMemory(kGdbEepromBase + 0x10, 2, out));
    EXPECT_EQ(out, (std::vector<uint8_t>{0xff, 0xff}));
    ASSERT_TRUE(s.t.writeMemory(kGdbEepromBase + 0x10, {0x11, 0x22}));
    ASSERT_TRUE(s.t.readMemory(kGdbEepromBase + 0x10, 2, out));
    EXPECT_EQ(out, (std::vector<uint8_t>{0x11, 0x22}));
    EXPECT_FALSE(s.t.readMemory(kGdbEepromBase + kEepromSize, 1, out));
    EXPECT_FALSE(
        s.t.writeMemory(kGdbEepromBase + kEepromSize - 1, {1, 2}));
}

TEST(DebugTarget, FlashWritesRefreshTheDecodeCache)
{
    Session s("nop\nret\n");
    // Patch word 0 from NOP to `ldi r24, 0x42` and execute: the
    // patched instruction must run, proving the decode cache followed
    // the flash write.
    uint16_t ldi = assemble("ldi r24, 0x42", "p").words[0];
    ASSERT_TRUE(s.t.writeMemory(0, {static_cast<uint8_t>(ldi),
                                    static_cast<uint8_t>(ldi >> 8)}));
    EXPECT_EQ(s.m.flashWord(0), ldi);
    s.m.setSp(0x10ff);
    s.t.setupCall(0);
    StopInfo stop = s.t.resume();
    EXPECT_EQ(stop.kind, StopInfo::Kind::Exited);
    EXPECT_EQ(s.m.reg(24), 0x42);
}

TEST(DebugTarget, BreakpointHitsAndStepsOverOnResume)
{
    Session s(R"(
        ldi r16, 3
    loop:
        dec r16
        brne loop
        ret
    )");
    // Word 1 is the DEC inside the loop; gdb sends byte addresses.
    ASSERT_TRUE(s.t.setBreakpoint(2 * 1));
    s.m.setSp(0x10ff);
    s.t.setupCall(0);

    StopInfo stop = s.t.resume();
    ASSERT_EQ(stop.kind, StopInfo::Kind::Breakpoint);
    EXPECT_EQ(stop.signal, 5);
    EXPECT_EQ(s.m.pc(), 1u);     // stopped *before* the DEC
    EXPECT_EQ(s.m.reg(16), 3);   // nothing retired at the breakpoint

    // Resume steps over the breakpoint and stops on the next hit.
    stop = s.t.resume();
    ASSERT_EQ(stop.kind, StopInfo::Kind::Breakpoint);
    EXPECT_EQ(s.m.pc(), 1u);
    EXPECT_EQ(s.m.reg(16), 2);   // one loop iteration in between

    // Clearing the breakpoint lets the run finish.
    ASSERT_TRUE(s.t.clearBreakpoint(2 * 1));
    EXPECT_FALSE(s.t.clearBreakpoint(2 * 1));
    stop = s.t.resume();
    EXPECT_EQ(stop.kind, StopInfo::Kind::Exited);
    EXPECT_EQ(s.m.reg(16), 0);
}

TEST(DebugTarget, WriteWatchpointStopsAfterTheStore)
{
    for (IssBackend backend : {IssBackend::Superblock,
                               IssBackend::Reference}) {
        Session s(R"(
            ldi r16, 0x99
            sts 0x0150, r16
            ldi r17, 1
            ret
        )");
        s.m.setBackend(backend);
        // gdb sends data-space watch addresses with the 0x800000 bias.
        ASSERT_TRUE(s.t.setWatchpoint(WatchKind::Write,
                                      kGdbDataBase + 0x0150, 2));
        s.m.setSp(0x10ff);
        s.t.setupCall(0);
        StopInfo stop = s.t.resume();
        ASSERT_EQ(stop.kind, StopInfo::Kind::Watchpoint)
            << issBackendName(backend);
        EXPECT_EQ(stop.watchAddr, 0x0150);
        EXPECT_EQ(stop.signal, 5);
        // PC is past the STS (gdb reports writes after the fact), but
        // the following LDI has not run.
        EXPECT_EQ(s.m.pc(), 3u);
        EXPECT_EQ(s.m.readData(0x0150), 0x99);
        EXPECT_EQ(s.m.reg(17), 0);

        stop = s.t.resume();
        EXPECT_EQ(stop.kind, StopInfo::Kind::Exited);
        EXPECT_EQ(s.m.reg(17), 1);
    }
}

TEST(DebugTarget, ReadAndAccessWatchpointFlavours)
{
    const char *src = R"(
        ldi r26, 0x50
        ldi r27, 0x01
        ld r16, X
        st X, r16
        ret
    )";
    {
        Session s(src);
        ASSERT_TRUE(
            s.t.setWatchpoint(WatchKind::Read, 0x0150, 1)); // raw addr
        s.m.setSp(0x10ff);
        s.t.setupCall(0);
        StopInfo stop = s.t.resume();
        ASSERT_EQ(stop.kind, StopInfo::Kind::Watchpoint);
        EXPECT_EQ(stop.watchKind, WatchKind::Read);
        EXPECT_EQ(s.m.pc(), 3u); // after the LD, before the ST
    }
    {
        Session s(src);
        ASSERT_TRUE(s.t.setWatchpoint(WatchKind::Access, 0x0150, 1));
        s.m.setSp(0x10ff);
        s.t.setupCall(0);
        ASSERT_EQ(s.t.resume().kind, StopInfo::Kind::Watchpoint);
        EXPECT_EQ(s.m.pc(), 3u); // the load already trips it
        ASSERT_EQ(s.t.resume().kind, StopInfo::Kind::Watchpoint);
        EXPECT_EQ(s.m.pc(), 4u); // and the store trips it again
    }
    {
        Session s(src); // write-watch does not fire on the read
        ASSERT_TRUE(s.t.setWatchpoint(WatchKind::Write, 0x0150, 1));
        s.m.setSp(0x10ff);
        s.t.setupCall(0);
        ASSERT_EQ(s.t.resume().kind, StopInfo::Kind::Watchpoint);
        EXPECT_EQ(s.m.pc(), 4u);
        ASSERT_TRUE(
            s.t.clearWatchpoint(WatchKind::Write, 0x0150, 1));
        EXPECT_FALSE(
            s.t.clearWatchpoint(WatchKind::Write, 0x0150, 1));
    }
}

TEST(DebugTarget, SingleStepWalksInstructions)
{
    Session s("ldi r16, 1\nldi r17, 2\nret\n");
    s.m.setSp(0x10ff);
    s.t.setupCall(0);

    StopInfo stop = s.t.stepOne();
    EXPECT_EQ(stop.kind, StopInfo::Kind::Stepped);
    EXPECT_EQ(s.m.pc(), 1u);
    EXPECT_EQ(s.m.reg(16), 1);
    stop = s.t.stepOne();
    EXPECT_EQ(s.m.reg(17), 2);
    // Stepping the final RET lands on the exit sentinel.
    stop = s.t.stepOne();
    EXPECT_EQ(stop.kind, StopInfo::Kind::Exited);
    // Further steps keep reporting the exit.
    EXPECT_EQ(s.t.stepOne().kind, StopInfo::Kind::Exited);
}

TEST(DebugTarget, StepFiresWatchpoints)
{
    Session s("ldi r16, 5\nsts 0x0150, r16\nret\n");
    ASSERT_TRUE(s.t.setWatchpoint(WatchKind::Write, 0x0150, 1));
    s.m.setSp(0x10ff);
    s.t.setupCall(0);
    EXPECT_EQ(s.t.stepOne().kind, StopInfo::Kind::Stepped);
    StopInfo stop = s.t.stepOne(); // the STS
    EXPECT_EQ(stop.kind, StopInfo::Kind::Watchpoint);
    EXPECT_EQ(stop.watchAddr, 0x0150);
}

/*
 * A single step (gdb's stepi) retires its instruction in front of
 * every observer that wants retire events, as a run does: a session
 * that steps twice and then continues records the same waveform and
 * leakage trace as one uninterrupted call.
 */
TEST(DebugTarget, SteppedInstructionsReachWaveAndLeakObservers)
{
    const char *src = "ldi r16, 1\nldi r17, 2\nadd r16, r17\nnop\nret\n";
    struct Capture
    {
        std::string vcd;
        std::vector<float> leak;
        std::vector<uint32_t> stamps;
    };
    auto capture = [&](bool stepped) {
        Session s(src);
        VcdWriter vcd;
        LeakTracer leak;
        s.m.attach(&vcd);
        s.m.attach(&leak);
        const std::string path = testing::TempDir() +
                                 (stepped ? "/jaavr_dbg_step.vcd"
                                          : "/jaavr_dbg_run.vcd");
        EXPECT_TRUE(vcd.open(path, s.m));
        leak.begin(s.m);
        if (stepped) {
            s.t.setupCall(0);
            EXPECT_EQ(s.t.stepOne().kind, StopInfo::Kind::Stepped);
            EXPECT_EQ(s.t.stepOne().kind, StopInfo::Kind::Stepped);
            EXPECT_EQ(s.t.resume().kind, StopInfo::Kind::Exited);
        } else {
            EXPECT_TRUE(s.m.call(0).ok());
        }
        EXPECT_EQ(s.m.stats().instructions, 5u);
        EXPECT_EQ(s.m.stats().cycles, 8u);
        EXPECT_EQ(vcd.samples(), s.m.stats().instructions);
        EXPECT_EQ(vcd.time(), s.m.stats().cycles);
        EXPECT_EQ(leak.samples().size(), s.m.stats().instructions);
        EXPECT_EQ(leak.time(), s.m.stats().cycles);
        vcd.close();
        std::ifstream in(path, std::ios::binary);
        std::ostringstream bytes;
        bytes << in.rdbuf();
        return Capture{bytes.str(), leak.samples(), leak.stamps()};
    };
    Capture stepped = capture(true);
    Capture run = capture(false);
    EXPECT_EQ(stepped.vcd, run.vcd);
    EXPECT_EQ(stepped.leak, run.leak);
    EXPECT_EQ(stepped.stamps, run.stamps);
}

TEST(DebugTarget, TrapsMapToGdbSignals)
{
    {
        Session s("nop\nret\n");
        // .word is unavailable; corrupt the NOP into the reserved
        // opcode 0x9404 instead.
        s.m.corruptFlashWord(0, 0x9404);
        s.m.setSp(0x10ff);
        s.t.setupCall(0);
        StopInfo stop = s.t.resume();
        ASSERT_EQ(stop.kind, StopInfo::Kind::Trapped);
        EXPECT_EQ(stop.trap.kind, TrapKind::IllegalOpcode);
        EXPECT_EQ(stop.signal, 4); // SIGILL
    }
    {
        Session s("ldi r26, 0x00\nldi r27, 0x20\nld r16, X\nret\n");
        s.m.setSp(0x10ff);
        s.t.setupCall(0);
        StopInfo stop = s.t.resume();
        ASSERT_EQ(stop.kind, StopInfo::Kind::Trapped);
        EXPECT_EQ(stop.trap.kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(stop.signal, 11); // SIGSEGV
        EXPECT_EQ(stop.trap.addr, 0x2000u);
    }
}

TEST(DebugTarget, SlicedContinueReportsRunning)
{
    Session s(R"(
        ldi r16, 0
        ldi r17, 200
    outer:
        dec r16
        brne outer
        dec r17
        brne outer
        ret
    )");
    s.m.setSp(0x10ff);
    s.t.setupCall(0);
    // Force the slicing machinery: a breakpoint nothing reaches keeps
    // wantsStops() true, and tiny slices mean many Running returns.
    ASSERT_TRUE(s.t.setBreakpoint(2 * 0x3000));
    int slices = 0;
    StopInfo stop = s.t.resume(1000);
    while (stop.kind == StopInfo::Kind::Running) {
        slices++;
        ASSERT_LT(slices, 1000000);
        stop = s.t.resume(1000);
    }
    EXPECT_EQ(stop.kind, StopInfo::Kind::Exited);
    EXPECT_GT(slices, 10);
    // An interrupted continue reports SIGINT and abandons the run.
    s.t.setupCall(0);
    ASSERT_EQ(s.t.resume(100).kind, StopInfo::Kind::Running);
    StopInfo irq = s.t.interrupt();
    EXPECT_EQ(irq.kind, StopInfo::Kind::Interrupted);
    EXPECT_EQ(irq.signal, 2);
}

TEST(DebugTarget, BreakpointValidation)
{
    Machine m(CpuMode::CA);
    DebugTarget t(m);
    EXPECT_FALSE(t.setBreakpoint(1));               // odd byte address
    EXPECT_FALSE(t.setBreakpoint(kGdbDataBase));    // not flash
    EXPECT_FALSE(t.setBreakpoint(2 * Machine::flashWords));
    EXPECT_FALSE(t.setWatchpoint(WatchKind::Write, 0x150, 0));
    EXPECT_FALSE(
        t.setWatchpoint(WatchKind::Write, kGdbEepromBase + 4, 1));
    EXPECT_FALSE(t.clearWatchpoint(WatchKind::Write, 0x150, 1));
}
