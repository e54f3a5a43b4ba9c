/**
 * @file
 * Tests of the decode cache and of the two run loops built on it:
 * cache contents versus fresh decode over the entire primary opcode
 * space, incremental cache refresh on loadProgram, superblock versus
 * step() reference equivalence on randomized programs and on the
 * generated OPF field routines (including the wide 192/256-bit
 * variants), the >= cycle-budget semantics on both backends, and the
 * zero cost of a debug hook that does not stop.
 */

#include <gtest/gtest.h>

#include "avr/machine.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "avr/profiler.hh"
#include "debug/target.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

void
expectSameInst(const Inst &a, const Inst &b, uint32_t addr)
{
    EXPECT_EQ(a.op, b.op) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.rd, b.rd) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.rr, b.rr) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.imm, b.imm) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.bit, b.bit) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.disp, b.disp) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.k, b.k) << "word addr 0x" << std::hex << addr;
    EXPECT_EQ(a.words, b.words) << "word addr 0x" << std::hex << addr;
}

/** Compare complete architectural state of two machines. */
void
expectSameState(const Machine &a, const Machine &b)
{
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(a.reg(i), b.reg(i)) << "r" << i;
    EXPECT_EQ(a.sreg(), b.sreg());
    EXPECT_EQ(a.sp(), b.sp());
    EXPECT_EQ(a.pc(), b.pc());
    EXPECT_EQ(a.readBytes(Machine::sramBase, 0x1000),
              b.readBytes(Machine::sramBase, 0x1000));
    EXPECT_EQ(a.stats().instructions, b.stats().instructions);
    EXPECT_EQ(a.stats().cycles, b.stats().cycles);
    for (size_t op = 0; op < kNumOps; op++)
        EXPECT_EQ(a.stats().opCount[op], b.stats().opCount[op])
            << opName(static_cast<Op>(op));
    for (size_t op = 0; op < kNumOps; op++)
        EXPECT_EQ(a.stats().opCycles[op], b.stats().opCycles[op])
            << opName(static_cast<Op>(op));
    EXPECT_EQ(a.stats().macStallNops, b.stats().macStallNops);
    EXPECT_EQ(a.mac().shiftCounter(), b.mac().shiftCounter());
    EXPECT_EQ(a.mac().pendingShadow(), b.mac().pendingShadow());
    EXPECT_EQ(a.mac().totalMacs(), b.mac().totalMacs());
}

} // anonymous namespace

/*
 * Every primary opcode word, predecoded, must be bit-identical to a
 * fresh decode of the same word pair -- including the two-word forms
 * (LDS/STS/JMP/CALL), whose cached operand word comes from the next
 * flash word. Two flash patterns give every word two different
 * second words.
 */
TEST(DecodeCache, AllPrimaryWordsMatchFreshDecode)
{
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        for (int pattern = 0; pattern < 2; pattern++) {
            Machine m(mode);
            std::vector<uint16_t> words(Machine::flashWords);
            for (uint32_t i = 0; i < Machine::flashWords; i++)
                words[i] = static_cast<uint16_t>(
                    pattern == 0 ? i : (i * 0x9e37u + 0x1234u));
            m.loadProgram(words, 0);
            for (uint32_t a = 0; a < Machine::flashWords; a++) {
                uint16_t w0 = words[a];
                uint16_t w1 = words[(a + 1) & (Machine::flashWords - 1)];
                Inst fresh = decode(w0, w1);
                const DecodedInst &dc = m.decoded(a);
                expectSameInst(dc.inst, fresh, a);
                if (HasFailure())
                    FAIL() << "stopping at first mismatching word";
            }
        }
    }
}

/*
 * Overwriting flash refreshes the cache incrementally: both the
 * stored words and the preceding word (whose two-word operand may
 * have changed) must be re-predecoded.
 */
TEST(DecodeCache, LoadProgramRefreshesNeighborEntry)
{
    Machine m(CpuMode::CA);
    // lds r16, 0x1234 at word 8 (two words: opcode + address).
    Program p = assemble("lds r16, 0x1234", "t");
    ASSERT_EQ(p.words.size(), 2u);
    m.loadProgram(p.words, 8);
    EXPECT_EQ(m.decoded(8).inst.op, Op::LDS);
    EXPECT_EQ(m.decoded(8).inst.k, 0x1234u);

    // Overwrite only the operand word: the entry at word 8 must see
    // the new address even though word 8 itself was not rewritten.
    m.loadProgram({0x4321}, 9);
    EXPECT_EQ(m.decoded(8).inst.op, Op::LDS);
    EXPECT_EQ(m.decoded(8).inst.k, 0x4321u);
}

/*
 * Randomized ALU/memory/branch soup: the superblock loop and the
 * step() reference must agree on every piece of architectural state,
 * the statistics included. MACCR stays zero, so the program is valid in
 * all three modes.
 */
TEST(DecodeCache, RandomProgramStateEquivalence)
{
    static const char *const kAlu[] = {
        "add r%u, r%u",  "adc r%u, r%u",  "sub r%u, r%u",
        "sbc r%u, r%u",  "and r%u, r%u",  "or r%u, r%u",
        "eor r%u, r%u",  "mov r%u, r%u",  "cp r%u, r%u",
        "cpc r%u, r%u",  "mul r%u, r%u",
    };
    static const char *const kSingle[] = {
        "com r%u", "neg r%u", "swap r%u", "inc r%u", "dec r%u",
        "asr r%u", "lsr r%u", "ror r%u",  "push r%u", "pop r%u",
    };
    static const char *const kImm[] = {
        "subi r%u, %u", "sbci r%u, %u", "andi r%u, %u",
        "ori r%u, %u",  "cpi r%u, %u",  "ldi r%u, %u",
    };

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        Rng rng(0xdecade + static_cast<unsigned>(mode));
        auto r = [&](unsigned bound) {
            return static_cast<unsigned>(rng.below(bound));
        };
        std::string src;
        // Scratch pointers into SRAM; operands seeded below.
        src += "ldi r26, 0x00\nldi r27, 0x02\n";  // X = 0x0200
        src += "ldi r28, 0x40\nldi r29, 0x02\n";  // Y = 0x0240
        src += "ldi r30, 0x80\nldi r31, 0x02\n";  // Z = 0x0280
        for (int i = 0; i < 4000; i++) {
            switch (rng.below(8)) {
              case 0: case 1: case 2:
                src += csprintf(kAlu[rng.below(std::size(kAlu))],
                                r(26), r(26));
                break;
              case 3:
                src += csprintf(kSingle[rng.below(std::size(kSingle))],
                                r(26));
                break;
              case 4:
                src += csprintf(kImm[rng.below(std::size(kImm))],
                                16 + r(10), r(256));
                break;
              case 5:
                src += csprintf("std Y+%u, r%u", r(32), r(26));
                break;
              case 6:
                src += csprintf("ldd r%u, Z+%u", r(26), r(32));
                break;
              case 7:
                // Short forward skip over one single-word ALU op.
                src += csprintf("sbrc r%u, %u\n", r(26), r(8));
                src += csprintf(kAlu[rng.below(std::size(kAlu))],
                                r(26), r(26));
                break;
            }
            src += "\n";
        }
        src += "ret\n";

        Program prog = assemble(src, "soup");
        Machine sb(mode), ref(mode);
        ref.setBackend(IssBackend::Reference);
        sb.setBackend(IssBackend::Superblock);
        for (Machine *m : {&sb, &ref}) {
            m->loadProgram(prog.words, 0);
            // The soup's unbalanced pops may raise SP past the
            // ATmega128 SRAM top; open the whole 64 KiB data space so
            // the pre-trap wraparound coverage of this test survives.
            m->setDataLimit(0xffff);
            Rng seed(7);
            for (uint16_t a = 0x200; a < 0x300; a++)
                m->writeData(a, static_cast<uint8_t>(seed.next32()));
            m->call(0);
        }
        expectSameState(sb, ref);
        EXPECT_EQ(sb.trap(), ref.trap());
    }
}

/*
 * The generated OPF field routines must produce identical results,
 * cycle counts and statistics on both backends -- and match the host
 * word-level model. 176/240 exercise the wide-field code generation
 * (two-word CALL subroutine linkage, long-branch final fold).
 */
class OpfPathEquivalence : public ::testing::TestWithParam<unsigned>
{};

TEST_P(OpfPathEquivalence, FieldOpsMatchReferenceAndModel)
{
    const unsigned k = GetParam();
    OpfPrime prime = makeOpf(0xff4c, k);
    OpfField field(prime);
    Rng rng(k);
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        OpfAvrLibrary lib(prime, mode);
        auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
        auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

        lib.machine().setBackend(IssBackend::Reference);
        OpfRun rm = lib.mul(a, b);
        OpfRun ra = lib.add(a, b);
        OpfRun rs = lib.sub(a, b);
        // In ISE the superblock runs the multiply's MAC regions as
        // keyed traces.
        lib.machine().setBackend(IssBackend::Superblock);
        OpfRun fm = lib.mul(a, b);
        OpfRun fa = lib.add(a, b);
        OpfRun fs = lib.sub(a, b);
        SCOPED_TRACE(cpuModeName(mode));
        EXPECT_EQ(fm.result, rm.result);
        EXPECT_EQ(fm.cycles, rm.cycles);
        EXPECT_EQ(fm.instructions, rm.instructions);
        EXPECT_EQ(fa.result, ra.result);
        EXPECT_EQ(fa.cycles, ra.cycles);
        EXPECT_EQ(fs.result, rs.result);
        EXPECT_EQ(fs.cycles, rs.cycles);

        // Host model agreement (covers the wide-field assembly).
        EXPECT_EQ(rm.result, field.montMul(a, b));
        EXPECT_EQ(ra.result, field.add(a, b));
        EXPECT_EQ(rs.result, field.sub(a, b));
    }

    // Inversion on the native-mode library, superblock vs reference.
    OpfAvrLibrary lib(prime, CpuMode::FAST);
    BigUInt x = BigUInt(2) + BigUInt::random(rng, prime.p - BigUInt(2));
    auto wx = field.fromBig(x);
    lib.machine().setBackend(IssBackend::Superblock);
    OpfRun fi = lib.inv(wx);
    lib.machine().setBackend(IssBackend::Reference);
    OpfRun ri = lib.inv(wx);
    EXPECT_EQ(fi.result, ri.result);
    EXPECT_EQ(fi.cycles, ri.cycles);
}

INSTANTIATE_TEST_SUITE_P(FieldSizes, OpfPathEquivalence,
                         ::testing::Values(144u, 176u, 240u));

/*
 * Budget semantics: the run traps once consumed >= max_cycles,
 * identically on both backends. A program consuming exactly C cycles
 * dies under a budget of C and survives under C + 1 (the >= check
 * runs after each instruction, before the exit test).
 */
TEST(DecodeCache, CycleBudgetBoundaryIdenticalOnBothPaths)
{
    std::string src;
    for (int i = 0; i < 16; i++)
        src += "nop\n";
    src += "ret\n";
    Program prog = assemble(src, "budget");

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        for (IssBackend backend : {IssBackend::Reference,
                                   IssBackend::Superblock}) {
            auto configure = [&](Machine &m) {
                m.setBackend(backend);
                m.loadProgram(prog.words, 0);
            };
            Machine probe(mode);
            configure(probe);
            uint64_t c = probe.call(0);

            Machine over(mode);
            configure(over);
            RunResult over_r = over.call(0, c);
            EXPECT_FALSE(over_r.ok());
            EXPECT_EQ(over_r.trap.kind, TrapKind::CycleBudget);

            Machine fit(mode);
            configure(fit);
            EXPECT_EQ(fit.call(0, c + 1), c);
        }
    }
}

/*
 * The debug hook must be free when no debugger wants stops: a
 * DebugTarget that is attached but has no breakpoints or watchpoints
 * leaves the run on its backend's loop, and even an armed (but
 * unreachable) breakpoint — which makes the run observed, so it takes
 * the reference loop — must add exactly zero cycles and zero
 * architectural drift against an unobserved superblock run. Covers
 * both backends in every mode, plus a profiler and a debugger
 * attached together.
 */
TEST(DecodeCache, DebugHookAddsZeroCyclesWhenNotStopping)
{
    OpfPrime prime = makeOpf(0xff4c, 144);
    OpfField field(prime);
    Rng rng(0xdb9);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));
    // Unused flash, never executed by the OPF image.
    constexpr uint32_t unreachable = 2 * 0xf000;

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        OpfAvrLibrary base(prime, mode);
        base.machine().setBackend(IssBackend::Superblock);
        OpfRun r0 = base.mul(a, b);
        for (IssBackend backend : {IssBackend::Reference,
                                   IssBackend::Superblock}) {
            SCOPED_TRACE(csprintf("%s on %s", cpuModeName(mode),
                                  issBackendName(backend)));
            // Attached but passive: no breakpoints, no watchpoints.
            OpfAvrLibrary passive(prime, mode);
            passive.machine().setBackend(backend);
            DebugTarget quiet(passive.machine());
            EXPECT_FALSE(quiet.wantsStops());
            OpfRun r1 = passive.mul(a, b);
            EXPECT_EQ(r1.result, r0.result);
            EXPECT_EQ(r1.cycles, r0.cycles);
            expectSameState(passive.machine(), base.machine());

            // Armed with a breakpoint that never hits: the reference
            // loop runs, but timing must be bit-identical.
            OpfAvrLibrary armed(prime, mode);
            armed.machine().setBackend(backend);
            DebugTarget watching(armed.machine());
            ASSERT_TRUE(watching.setBreakpoint(unreachable));
            EXPECT_TRUE(watching.wantsStops());
            OpfRun r2 = armed.mul(a, b);
            EXPECT_EQ(r2.result, r0.result);
            EXPECT_EQ(r2.cycles, r0.cycles);
            EXPECT_EQ(r2.instructions, r0.instructions);
            expectSameState(armed.machine(), base.machine());
        }
    }

    // A profiler and a stopping debugger on the same run.
    OpfAvrLibrary base(prime, CpuMode::ISE);
    base.machine().setBackend(IssBackend::Superblock);
    OpfRun r0 = base.mul(a, b);
    OpfAvrLibrary both(prime, CpuMode::ISE);
    CallGraphProfiler prof(both.machine(), both.symbols());
    DebugTarget dbg(both.machine());
    ASSERT_TRUE(dbg.setBreakpoint(unreachable));
    OpfRun r1 = both.mul(a, b);
    EXPECT_EQ(r1.result, r0.result);
    EXPECT_EQ(r1.cycles, r0.cycles);
    expectSameState(both.machine(), base.machine());
}
