/**
 * @file
 * The ExecObserver contract with several observers on one machine:
 * read-only observers attached together each record exactly what
 * they record alone and leave the machine as an unobserved
 * superblock run leaves it, and boundary hooks are asked in attach
 * order, so a breakpoint stops the run before a fault plan due at
 * the same boundary fires.
 */

#include <gtest/gtest.h>

#include <array>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>

#include "avr/fault.hh"
#include "avr/leakage.hh"
#include "avr/profiler.hh"
#include "avr/vcd.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "debug/target.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "obs/flight.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/** Word address of the trapping program, clear of the OPF routines. */
constexpr uint32_t kTrapEntry = 0xe000;

/** Calls a routine that loads through X = 0xffff: SramOutOfBounds. */
const char *const kTrapSrc = R"(
        ldi r26, 0xff
        ldi r27, 0xff
        rcall load
        ret
    load:
        ld r16, X
        ret
)";

enum ObserverBit : unsigned
{
    kProfiler = 1,
    kVcd = 2,
    kLeak = 4,
    kFlight = 8,
    kDebugger = 16,
    kAll = 31,
};

/** Everything the observers recorded, plus the machine's end state. */
struct Recorded
{
    std::map<uint32_t, CallGraphProfiler::Node> nodes;
    std::vector<CallGraphProfiler::TraceEvent> events;
    std::string vcd;
    std::vector<float> leak;
    std::vector<uint32_t> stamps;
    std::vector<std::pair<std::string, size_t>> markers;
    std::vector<std::string> flight;

    std::array<uint8_t, 32> regs{};
    uint8_t sreg = 0;
    uint16_t sp = 0;
    uint32_t pc = 0;
    ExecStats stats;
    uint64_t macs = 0;
    Trap trap;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * One OPF multiplication, then the trapping program, on a fresh
 * @p mode library with the observers named in @p which attached (in
 * the order profiler, VCD, leakage, flight recorder, debugger).
 */
Recorded
record(CpuMode mode, unsigned which, const OpfField::Words &a,
       const OpfField::Words &b)
{
    OpfAvrLibrary lib(paperOpfPrime(), mode);
    Machine &m = lib.machine();
    m.setBackend(IssBackend::Superblock);
    m.loadProgram(assemble(kTrapSrc, "trap").words, kTrapEntry);

    std::optional<CallGraphProfiler> prof;
    if (which & kProfiler)
        prof.emplace(m, lib.symbols(), true, true);
    VcdWriter vcd;
    const std::string vcdPath = testing::TempDir() + "/jaavr_obs_" +
                                cpuModeName(mode) + "_" +
                                std::to_string(which) + ".vcd";
    if (which & kVcd) {
        m.attach(&vcd);
        EXPECT_TRUE(vcd.open(vcdPath, m));
    }
    LeakTracer leak;
    if (which & kLeak) {
        m.attach(&leak);
        leak.begin(m, 7);
    }
    obs::FlightRecorder flight;
    obs::MachineTrapFlight trapFlight(flight, "iss");
    if (which & kFlight)
        m.attach(&trapFlight);
    std::optional<DebugTarget> dbg;
    if (which & kDebugger) {
        dbg.emplace(m);
        EXPECT_TRUE(dbg->setBreakpoint(2 * 0xf000)); // never reached
    }

    EXPECT_EQ(lib.mul(a, b).trap.kind, TrapKind::None);
    RunResult r = m.call(kTrapEntry);
    EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);

    Recorded out;
    if (prof) {
        out.nodes = prof->nodes();
        out.events = prof->traceEvents();
    }
    vcd.close();
    if (which & kVcd)
        out.vcd = slurp(vcdPath);
    out.leak = leak.samples();
    out.stamps = leak.stamps();
    out.markers = leak.markers();
    for (const obs::FlightEvent &e : flight.source("iss")->snapshot())
        out.flight.push_back(std::to_string(e.time) + " " + e.kind +
                             " " + e.detail);
    for (unsigned i = 0; i < 32; i++)
        out.regs[i] = m.reg(i);
    out.sreg = m.sreg();
    out.sp = m.sp();
    out.pc = m.pc();
    out.stats = m.stats();
    out.macs = m.mac().totalMacs();
    out.trap = r.trap;
    return out;
}

void
expectSameMachine(const Recorded &x, const Recorded &y)
{
    EXPECT_EQ(x.regs, y.regs);
    EXPECT_EQ(x.sreg, y.sreg);
    EXPECT_EQ(x.sp, y.sp);
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.stats.instructions, y.stats.instructions);
    EXPECT_EQ(x.stats.cycles, y.stats.cycles);
    EXPECT_EQ(x.stats.macStallNops, y.stats.macStallNops);
    EXPECT_EQ(x.stats.opCount, y.stats.opCount);
    EXPECT_EQ(x.stats.opCycles, y.stats.opCycles);
    EXPECT_EQ(x.stats.trapCount, y.stats.trapCount);
    EXPECT_EQ(x.macs, y.macs);
    EXPECT_EQ(x.trap, y.trap);
}

} // anonymous namespace

/*
 * No other test attaches more than two observers, or a wave observer
 * together with anything else. Here all five read-only observers
 * share one machine through an OPF multiplication and a trapping
 * call: each records what it records alone, and the machine ends as
 * an unobserved superblock run ends.
 */
TEST(ExecObserver, AllReadOnlyObserversTogetherMatchEachAlone)
{
    OpfPrime prime = paperOpfPrime();
    OpfField field(prime);
    Rng rng(0x0b5e);
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));

    for (CpuMode mode : {CpuMode::CA, CpuMode::ISE}) {
        SCOPED_TRACE(cpuModeName(mode));
        const Recorded all = record(mode, kAll, a, b);
        const Recorded plain = record(mode, 0, a, b);
        expectSameMachine(all, plain);

        const Recorded prof = record(mode, kProfiler, a, b);
        EXPECT_TRUE(all.nodes == prof.nodes);
        EXPECT_EQ(all.events, prof.events);
        EXPECT_FALSE(all.nodes.empty());

        const Recorded vcd = record(mode, kVcd, a, b);
        EXPECT_EQ(all.vcd, vcd.vcd);
        EXPECT_FALSE(all.vcd.empty());

        const Recorded leak = record(mode, kLeak, a, b);
        EXPECT_EQ(all.leak, leak.leak);
        EXPECT_EQ(all.stamps, leak.stamps);
        EXPECT_EQ(all.markers, leak.markers);
        EXPECT_EQ(all.leak.size(), all.stats.instructions);
        ASSERT_EQ(all.markers.size(), 1u);
        EXPECT_EQ(all.markers[0].first, "trap:sram_oob");

        const Recorded flight = record(mode, kFlight, a, b);
        EXPECT_EQ(all.flight, flight.flight);
        EXPECT_EQ(all.flight.size(), 1u);

        const Recorded dbg = record(mode, kDebugger, a, b);
        expectSameMachine(dbg, plain);
    }
}

/*
 * Boundary hooks are asked in attach order and the first stop ends
 * the run. With the debugger attached first, a breakpoint on the
 * boundary where a plan is due stops the run with the plan still
 * pending; the next resume steps over the breakpoint and the plan
 * fires there. Attached the other way round, the plan fires first.
 */
TEST(ExecObserver, BoundaryHooksRunInAttachOrder)
{
    const Program prog =
        assemble("ldi r16, 1\nldi r17, 2\nldi r18, 3\nret\n", "t");
    FaultPlan plan;
    plan.target = FaultTarget::Gpr;
    plan.reg = 16;
    plan.mask = 0x80;
    plan.triggerCycle = 1; // the boundary before word 1

    {
        Machine m(CpuMode::CA);
        m.loadProgram(prog.words, 0);
        DebugTarget dbg(m);
        FaultInjector inj;
        m.attach(&inj);
        inj.arm(plan, 0);
        ASSERT_TRUE(dbg.setBreakpoint(2 * 1));
        dbg.setupCall(0);

        StopInfo stop = dbg.resume();
        ASSERT_EQ(stop.kind, StopInfo::Kind::Breakpoint);
        EXPECT_EQ(m.pc(), 1u);
        EXPECT_EQ(m.trap().kind, TrapKind::DebugBreak);
        EXPECT_TRUE(inj.pending());
        EXPECT_FALSE(inj.fired());
        EXPECT_EQ(m.reg(16), 1);

        stop = dbg.resume();
        EXPECT_EQ(stop.kind, StopInfo::Kind::Exited);
        EXPECT_TRUE(inj.fired());
        EXPECT_EQ(inj.firedAtPc(), 1u);
        EXPECT_EQ(inj.firedAtCycle(), 1u);
        EXPECT_EQ(m.reg(16), 0x81);
        EXPECT_EQ(m.reg(18), 3);
    }
    {
        Machine m(CpuMode::CA);
        m.loadProgram(prog.words, 0);
        FaultInjector inj;
        m.attach(&inj);
        DebugTarget dbg(m);
        inj.arm(plan, 0);
        ASSERT_TRUE(dbg.setBreakpoint(2 * 1));
        dbg.setupCall(0);

        StopInfo stop = dbg.resume();
        ASSERT_EQ(stop.kind, StopInfo::Kind::Breakpoint);
        EXPECT_EQ(m.pc(), 1u);
        EXPECT_TRUE(inj.fired());
        EXPECT_EQ(inj.firedAtPc(), 1u);
        EXPECT_EQ(m.reg(16), 0x81);
    }
}
