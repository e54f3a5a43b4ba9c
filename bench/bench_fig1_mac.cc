/**
 * @file
 * Reproduction of Figure 1 / Section IV-A: the (32x4)-bit MAC unit in
 * action. Demonstrates the 8-cycle (32x32)-bit multiply-accumulate,
 * both access mechanisms (Algorithm 1: re-interpreted SWAP;
 * Algorithm 2: R24-load trigger), and the instruction histogram of
 * the 552-cycle ISE multiplication (paper: 204 LD/LDD of which 100
 * trigger MACs, 40 ST, 83 MOVW, 40 SWAP, 31 NOP).
 */

#include "avr/profiler.hh"
#include "avr/vcd.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "bench/bench_util.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

uint64_t
cyclesOf(const char *src, uint32_t a, uint32_t b)
{
    Machine m(CpuMode::ISE);
    m.loadProgram(assemble(src, "fig1").words);
    m.writeBytes(0x0200, {uint8_t(a), uint8_t(a >> 8), uint8_t(a >> 16),
                          uint8_t(a >> 24)});
    m.writeBytes(0x0210, {uint8_t(b), uint8_t(b >> 8), uint8_t(b >> 16),
                          uint8_t(b >> 24)});
    m.setY(0x0200);
    m.setZ(0x0210);
    return m.call(0) - 4 /* ret */;
}

// Algorithm 1 (paper listing): operand loads + eight SWAPs.
const char *kAlg1 = R"(
    .equ MACCR = 0x3c
    ldi r20, 0x01
    out MACCR, r20
    ld  r16, Y+
    ld  r17, Y+
    ld  r18, Y+
    ld  r19, Y+
    ld  r20, Z+
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

// Algorithm 2 (paper listing): R24 loads trigger MAC pairs; the NOPs
// are the data-dependency bubbles of the listing.
const char *kAlg2 = R"(
    .equ MACCR = 0x3c
    ldi r20, 0x02
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

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string vcdPath;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (arg == "--vcd" && i + 1 < argc) {
            vcdPath = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--vcd FILE]\n", argv[0]);
            return 2;
        }
    }

    heading("Figure 1 / Section IV-A: the (32x4)-bit MAC unit");

    Rng rng(0xf161);
    uint32_t a = rng.next32(), b = rng.next32();

    // Pure MAC sequence: 8 SWAP-MACs = 8 cycles.
    uint64_t alg1 = cyclesOf(kAlg1, a, b);
    uint64_t alg2 = cyclesOf(kAlg2, a, b);
    note("a full (32x32)-bit multiplication is composed of eight "
         "(32x4)-bit MAC operations:");
    row("Algorithm 1 MAC phase (8 swaps)", 8, alg1 - 2 - 8, "cyc");
    note("  (total sequence incl. mode setup and 8 operand-byte "
         "loads: " + std::to_string(alg1) + " cycles)");
    row("Algorithm 2 full listing", 13, alg2 - 2, "cyc");
    note("  (4 A-operand loads + 4 trigger loads + 5 bubble slots; "
         "MACs add zero cycles)");

    heading("Instruction histogram of the ISE OPF multiplication");
    OpfPrime prime = paperOpfPrime();
    OpfField f(prime);
    OpfAvrLibrary ise(prime, CpuMode::ISE);
    auto wa = f.fromBig(BigUInt::randomBits(rng, 160));
    auto wb = f.fromBig(BigUInt::randomBits(rng, 160));
    CallGraphProfiler prof(ise.machine(), ise.symbols(),
                           /*histograms=*/true, /*record_trace=*/true);
    ise.machine().resetStats();
    // Optional waveform capture of the 552-cycle multiplication; the
    // recording run routes through the reference loop, as the
    // profiled run already does, so the numbers below are unchanged.
    VcdWriter vcd;
    if (!vcdPath.empty()) {
        ise.machine().attach(&vcd);
        if (!vcd.open(vcdPath, ise.machine()))
            return 1;
    }
    OpfRun run = ise.mul(wa, wb);
    if (vcd.active()) {
        note("VCD waveform (" + std::to_string(vcd.samples()) +
             " instructions, " + std::to_string(vcd.time()) +
             " cycles) written to " + vcdPath);
        vcd.close();
    }
    const ExecStats &st = ise.machine().stats();

    // Per-routine attribution: the profiler's opf_mul node carries the
    // same counts as the global ExecStats here (only the one routine
    // ran), but keyed to the routine symbol.
    const CallGraphProfiler::Node *mul = prof.nodeByName("opf_mul");
    if (!mul)
        return 1;
    note("paper, Section III-B: 204 LD, 40 ST, 83 MOVW, 40 SWAP, "
         "31 NOP; 552 cycles total");
    row("total cycles (opf_mul, inclusive)", 552, mul->inclusiveCycles,
        "cyc");
    row("LD/LDD instructions", 204, mul->loads, "");
    row("  of which MAC triggers", 100, ise.machine().mac().totalMacs() / 2
            - 40 / 2 /* SWAP MACs excluded */, "");
    row("ST/STS instructions", 40, mul->stores, "");
    row("MOVW instructions", 83, mul->count(Op::MOVW), "");
    row("SWAP instructions", 40, mul->count(Op::SWAP), "");
    row("NOP instructions", 31, mul->count(Op::NOP), "");
    row("  = MAC hazard stalls (ISS counter)", 31, st.macStallNops, "");
    row("MAC operations (25 blocks + 5 reductions) * 8", 240,
        ise.machine().mac().totalMacs(), "");
    if (mul->count(Op::NOP) == st.macStallNops)
        note("check: every NOP retired while MAC micro-ops were "
             "pending (pure hazard bubbles)");

    heading("Profiler report (ISE opf_mul run)");
    std::printf("%s", prof.textReport().c_str());
    rowMeasured("stack high water", prof.stackHighWaterBytes(), "bytes");

    appendJsonLine("BENCH_fig1.json",
                   benchLine("fig1_mac")
                       .str("workload", "opf_mul_ise")
                       .num("cycles", run.cycles)
                       .num("paper_cycles", uint64_t(552))
                       .num("loads", mul->loads)
                       .num("stores", mul->stores)
                       .num("movw", mul->count(Op::MOVW))
                       .num("swap", mul->count(Op::SWAP))
                       .num("nop", mul->count(Op::NOP))
                       .num("mac_stall_nops", st.macStallNops)
                       .num("total_macs",
                            ise.machine().mac().totalMacs()));
    prof.writeJsonLines("PROFILE_fig1_mac.json", "fig1_mac",
                        "opf_mul_ise");
    prof.writeChromeTrace("TRACE_fig1_mac.json");
    note("profiler export: PROFILE_fig1_mac.json (JSON lines), "
         "TRACE_fig1_mac.json (chrome://tracing)");
    return 0;
}
