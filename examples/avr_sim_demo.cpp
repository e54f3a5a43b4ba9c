/**
 * @file
 * Tour of the AVR substrate: assemble a program with the built-in
 * two-pass assembler, run it on the JAAVR machine model with
 * instruction tracing, inspect the statistics, and fire the
 * (32 x 4)-bit MAC unit by hand — the Fig. 1 hardware, scriptable.
 */

#include <cstdio>

#include "avr/machine.hh"
#include "avr/profiler.hh"
#include "avrasm/assembler.hh"

using namespace jaavr;

int
main()
{
    std::printf("== JAAVR machine-model demo ==\n\n");

    // --- 1. A classic: iterative Fibonacci in AVR assembly. ---------
    const char *fib_src = R"(
        ; compute fib(12) into r24
            ldi r24, 0      ; fib(0)
            ldi r25, 1      ; fib(1)
            ldi r16, 12     ; iterations
        loop:
            mov r18, r24
            add r24, r25    ; actually computes the next pair:
            mov r25, r18    ; (a, b) <- (a+b, a)
            dec r16
            brne loop
            ret
    )";
    Program fib = assemble(fib_src, "fib.S");
    std::printf("assembled fib.S: %zu flash bytes, labels:",
                fib.romBytes());
    for (const auto &[name, addr] : fib.labels)
        std::printf(" %s=0x%x", name.c_str(), addr);
    std::printf("\n");

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST}) {
        Machine m(mode);
        m.loadProgram(fib.words);
        uint64_t cycles = m.call(0);
        std::printf("  %-4s mode: fib(12) = %u in %llu cycles, "
                    "%llu instructions\n",
                    cpuModeName(mode), m.reg(24),
                    static_cast<unsigned long long>(cycles),
                    static_cast<unsigned long long>(
                        m.stats().instructions));
    }

    // --- 2. The MAC unit, by hand (paper Fig. 1 / Algorithm 2). -----
    std::printf("\nMAC unit: 0x12345678 * 0x9abcdef0 via Algorithm 2\n");
    const char *mac_src = R"(
        .equ MACCR = 0x3c
            ldi r20, 0x02    ; enable the R24-load trigger mode
            out MACCR, r20
            ldd r16, Y+0     ; 32-bit multiplicand -> R16..R19
            ldd r17, Y+1
            ldd r18, Y+2
            ldd r19, Y+3
            ldd r24, Z+0     ; each load fires two (32x4)-bit MACs
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
    Machine m(CpuMode::ISE);
    m.loadProgram(assemble(mac_src, "mac.S").words);
    m.writeBytes(0x0200, {0x78, 0x56, 0x34, 0x12});
    m.writeBytes(0x0210, {0xf0, 0xde, 0xbc, 0x9a});
    m.setY(0x0200);
    m.setZ(0x0210);
    TraceSink trace(stderr, "info: ");  // watch it run
    m.attach(&trace);
    uint64_t cycles = m.call(0);
    m.detach(&trace);

    unsigned long long acc = 0;
    for (int i = 7; i >= 0; i--)
        acc = (acc << 8) | m.reg(i);
    std::printf("  72-bit accumulator R0..R8 = 0x%016llx", acc);
    std::printf(" (expected 0x%016llx)\n",
                0x12345678ULL * 0x9abcdef0ULL);
    std::printf("  %llu cycles total; the 8 MACs rode along in the "
                "load shadows\n",
                static_cast<unsigned long long>(cycles));
    std::printf("  MAC operations performed: %llu\n\n",
                static_cast<unsigned long long>(m.mac().totalMacs()));

    // --- 3. Instruction histogram. -----------------------------------
    std::printf("instruction histogram of the MAC demo:\n");
    for (size_t op = 0; op < m.stats().opCount.size(); op++) {
        if (m.stats().opCount[op] == 0)
            continue;
        std::printf("  %-6s x%llu\n", opName(static_cast<Op>(op)),
                    static_cast<unsigned long long>(
                        m.stats().opCount[op]));
    }
    return acc == 0x12345678ULL * 0x9abcdef0ULL ? 0 : 1;
}
