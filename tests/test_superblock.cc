/**
 * @file
 * Tests pinning the superblock-threaded backend (DESIGN.md §11) to
 * the step() reference loop: exhaustive all-opcode-word replay in all
 * three CPU modes (and in ISE with the MAC unit live and a shadow
 * pending at entry), random program soup on both backends, seeded
 * MAC-unit soup,
 * trap-in-mid-trace side exits, MACCR stores, trace invalidation
 * through the GDB flash-patch path, the JAAVR_ISS_BACKEND selection
 * switch, the decode canonicalization of synonyms, the
 * flag-liveness pass (seeded flag soups around every barrier kind,
 * STEP elements among them, sticky Z, and the elision pinned on the
 * CA OPF multiplication), the superinstructions fused after it, and
 * the handler set: the generated field routines never step, and each
 * native handler kind carries some of their traffic.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>

#include "avr/isa.hh"
#include "avr/mac_unit.hh"
#include "avr/machine.hh"
#include "avr/superblock.hh"
#include "avr/timing.hh"
#include "avrasm/assembler.hh"
#include "avrgen/opf_harness.hh"
#include "debug/target.hh"
#include "nt/opf_prime.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;

namespace
{

/**
 * Fast whole-state equality (no gtest overhead in the hot loop):
 * registers, SREG, SP, PC, the full internal SRAM, every statistic,
 * the MAC unit, and the pending trap.
 */
bool
sameState(const Machine &a, const Machine &b)
{
    for (unsigned i = 0; i < 32; i++)
        if (a.reg(i) != b.reg(i))
            return false;
    if (a.sreg() != b.sreg() || a.sp() != b.sp() || a.pc() != b.pc())
        return false;
    if (a.stats().instructions != b.stats().instructions ||
        a.stats().cycles != b.stats().cycles ||
        a.stats().opCount != b.stats().opCount ||
        a.stats().opCycles != b.stats().opCycles ||
        a.stats().macStallNops != b.stats().macStallNops)
        return false;
    if (!(a.trap() == b.trap()))
        return false;
    if (a.maccr() != b.maccr() ||
        a.mac().pendingShadow() != b.mac().pendingShadow() ||
        a.mac().shiftCounter() != b.mac().shiftCounter() ||
        a.mac().totalMacs() != b.mac().totalMacs() ||
        a.mac().alg1Macs() != b.mac().alg1Macs() ||
        a.mac().alg2Macs() != b.mac().alg2Macs())
        return false;
    return a.readBytes(Machine::sramBase, 0x1000) ==
           b.readBytes(Machine::sramBase, 0x1000);
}

/** Detailed mismatch report (called only once sameState() failed). */
void
explainState(const Machine &a, const Machine &b, const char *a_name,
             const char *b_name)
{
    for (unsigned i = 0; i < 32; i++)
        EXPECT_EQ(a.reg(i), b.reg(i)) << "r" << i;
    EXPECT_EQ(a.sreg(), b.sreg()) << "sreg";
    EXPECT_EQ(a.sp(), b.sp()) << "sp";
    EXPECT_EQ(a.pc(), b.pc()) << "pc";
    EXPECT_EQ(a.stats().instructions, b.stats().instructions)
        << "instructions";
    EXPECT_EQ(a.stats().cycles, b.stats().cycles) << "cycles";
    for (size_t op = 0; op < kNumOps; op++) {
        EXPECT_EQ(a.stats().opCount[op], b.stats().opCount[op])
            << "opCount " << opName(static_cast<Op>(op));
        EXPECT_EQ(a.stats().opCycles[op], b.stats().opCycles[op])
            << "opCycles " << opName(static_cast<Op>(op));
    }
    EXPECT_EQ(a.stats().macStallNops, b.stats().macStallNops);
    EXPECT_EQ(a.maccr(), b.maccr()) << "maccr";
    EXPECT_EQ(a.mac().pendingShadow(), b.mac().pendingShadow())
        << "mac shadow";
    EXPECT_EQ(a.mac().shiftCounter(), b.mac().shiftCounter())
        << "mac counter";
    EXPECT_EQ(a.mac().alg1Macs(), b.mac().alg1Macs()) << "alg1 macs";
    EXPECT_EQ(a.mac().alg2Macs(), b.mac().alg2Macs()) << "alg2 macs";
    EXPECT_TRUE(a.trap() == b.trap())
        << "trap kind " << static_cast<int>(a.trap().kind) << " vs "
        << static_cast<int>(b.trap().kind) << " pc 0x" << std::hex
        << a.trap().pc << " vs 0x" << b.trap().pc;
    EXPECT_EQ(a.readBytes(Machine::sramBase, 0x1000),
              b.readBytes(Machine::sramBase, 0x1000)) << "sram";
    ADD_FAILURE() << "state mismatch between " << a_name << " and "
                  << b_name;
}

/** Identical deterministic seeding for every machine under test. */
void
seed(Machine &m, uint32_t salt)
{
    for (unsigned i = 0; i < 32; i++)
        m.setReg(i, static_cast<uint8_t>(i * 29 + salt));
    m.setSreg(static_cast<uint8_t>(salt >> 8));
    m.setSp(0x10e0);
    m.setX(0x0200);
    m.setY(0x0240);
    m.setZ(0x0280);
}

/** One machine per backend, run side by side. */
struct BothBackends
{
    Machine ref, sb;

    explicit BothBackends(CpuMode mode) : ref(mode), sb(mode)
    {
        ref.setBackend(IssBackend::Reference);
        sb.setBackend(IssBackend::Superblock);
    }

    /**
     * Load @p prog into freshly reset machines, seed them identically,
     * call it @p calls times with @p budget each, and verify bit- and
     * cycle-identical outcomes (reference is truth). Returns false on
     * a mismatch.
     */
    bool
    run(const Program &prog, uint64_t budget, uint32_t salt, int calls)
    {
        for (Machine *m : {&ref, &sb}) {
            m->reset();
            m->loadProgram(prog.words, 0);
            seed(*m, salt);
            for (uint16_t a = 0x200; a < 0x2c0; a++)
                m->writeData(a, static_cast<uint8_t>(a * 7 + salt));
            for (int c = 0; c < calls; c++)
                m->call(0, budget);
        }
        if (sameState(ref, sb))
            return true;
        explainState(ref, sb, "reference", "superblock");
        return false;
    }
};

/**
 * Run @p prog on both backends from identical state and verify bit-
 * and cycle-identical outcomes (reference is truth).
 */
void
expectBackendEquivalence(const Program &prog, CpuMode mode,
                         uint64_t budget = Machine::defaultCycleBudget,
                         uint32_t salt = 0x1a2b)
{
    BothBackends(mode).run(prog, budget, salt, 1);
}

/**
 * One seeded "MAC soup" program: random ISE code built to stress the
 * MAC unit. It sets a random MACCR mode, then mixes R24 loads in every
 * addressing form, SWAPs, NOPs, legal work outside the 13 MAC
 * registers, illegal work on them, MACCR rewrites (OUT/STS/PUSH),
 * counted loops and calls around triggers. The pointers start inside
 * the seeded window 0x200..0x2bf; a MOVW item may repoint them
 * anywhere, which every backend turns into the same I/O access or
 * trap.
 */
std::string
macSoup(Rng &rng, unsigned items)
{
    auto r = [&](unsigned bound) {
        return static_cast<unsigned>(rng.below(bound));
    };
    // Registers outside {R0..R8, R16..R19}, and inside it.
    static const unsigned kFree[] = {9, 10, 11, 12, 13, 14, 15,
                                     20, 21, 22, 23, 25};
    static const unsigned kMac[] = {0, 1, 2, 3, 4, 5, 6, 7, 8,
                                    16, 17, 18, 19};
    auto free_reg = [&] { return kFree[r(std::size(kFree))]; };
    auto mac_reg = [&] { return kMac[r(std::size(kMac))]; };
    auto any_reg = [&] { return r(2) ? free_reg() : mac_reg(); };

    std::string src;
    src += "ldi r26, 0x40\nldi r27, 0x02\n";  // X = 0x0240
    src += "ldi r28, 0x40\nldi r29, 0x02\n";  // Y = 0x0240
    src += "ldi r30, 0x80\nldi r31, 0x02\n";  // Z = 0x0280
    src += csprintf("ldi r20, %u\nout 0x3c, r20\n", r(4));
    bool has_sub = false;
    for (unsigned i = 0; i < items; i++) {
        switch (r(24)) {
          case 0: case 1: case 2: case 3: case 4: case 5: {
            static const char *const kLoad24[] = {
                "ld r24, X", "ld r24, X+", "ld r24, -X",
                "ldd r24, Y+%u", "ld r24, Y+", "ld r24, -Y",
                "ldd r24, Z+%u", "ld r24, Z+", "ld r24, -Z",
            };
            const unsigned form = r(std::size(kLoad24) + 1);
            if (form == std::size(kLoad24))
                src += csprintf("lds r24, 0x%x", 0x200 + r(0xc0));
            else
                src += csprintf(kLoad24[form], r(64));
            break;
          }
          case 6: case 7: case 8:
            src += "nop";
            break;
          case 9: case 10:
            src += csprintf("swap r%u", r(2) ? 24 : any_reg());
            break;
          case 11: case 12: case 13: {
            // Legal in a shadow: nothing here touches the MAC set.
            const unsigned a = free_reg(), b = free_reg();
            switch (r(6)) {
              case 0: src += csprintf("add r%u, r%u", a, b); break;
              case 1: src += csprintf("eor r%u, r%u", a, b); break;
              case 2: src += csprintf("inc r%u", a); break;
              case 3: src += csprintf("mov r%u, r%u", a, b); break;
              case 4: src += csprintf("ldi r%u, %u", 20 + r(4), r(256));
                      break;
              default: src += csprintf("ld r%u, Y+", a); break;
            }
            break;
          }
          case 14: case 15: {
            // Illegal while a shadow is live.
            const unsigned a = mac_reg(), b = any_reg();
            switch (r(5)) {
              case 0: src += csprintf("add r%u, r%u", a, b); break;
              case 1: src += csprintf("ldi r%u, %u", 16 + r(4), r(256));
                      break;
              case 2: src += csprintf("mul r%u, r%u", 20 + r(4), b);
                      break;
              case 3: src += csprintf("std Z+%u, r%u", r(64), a); break;
              default: src += csprintf("mov r%u, r%u", b, a); break;
            }
            break;
          }
          case 16: case 17: {
            // MACCR rewrites; each one resets the MAC unit. (MACCR is
            // beyond SBI/CBI's reach.) The PUSH form needs the stack
            // guard below 0x5c.
            const unsigned mode = r(8);
            switch (r(4)) {
              case 0: src += csprintf("ldi r21, %u\nout 0x3c, r21", mode);
                      break;
              case 1: src += csprintf("ldi r21, %u\nsts 0x5c, r21", mode);
                      break;
              case 2:
                src += csprintf("ldi r21, %u\nin r9, 0x3d\nin r10, 0x3e\n"
                                "ldi r22, 0x5c\nout 0x3d, r22\n"
                                "ldi r22, 0\nout 0x3e, r22\npush r21\n"
                                "out 0x3d, r9\nout 0x3e, r10",
                                mode);
                break;
              default: src += csprintf("out 0x3c, r%u", any_reg()); break;
            }
            break;
          }
          case 18: case 19:
            // A counted loop around a trigger: the back-edge re-enters
            // the loop block with whatever shadow its exit left.
            src += csprintf("ldi r25, %u\nsl%u:\nld r24, Z+\n%s\n"
                            "dec r25\nbrne sl%u",
                            1 + r(4), i, r(2) ? "nop" : "inc r22", i);
            break;
          case 20:
            src += csprintf("sbrc r%u, %u\nld r24, Y+", free_reg(), r(8));
            break;
          case 21:
            src += "rcall soup_sub";
            has_sub = true;
            break;
          case 22:
            src += csprintf("ldd r%u, Y+%u", any_reg(), r(64));
            break;
          default:
            src += csprintf("movw r%u, r%u", 2 * r(16), 2 * r(16));
            break;
        }
        src += "\n";
    }
    src += "ret\n";
    if (has_sub)
        src += "soup_sub:\nld r24, X+\nnop\nret\n";
    return src;
}

/**
 * One flag writer for flagSoup(): every arithmetic, logic, shift, MUL
 * and BCLR form with a superblock handler, over r0..r25 (the pointers
 * stay put), with the carry chains that leave only C live weighted
 * up. One writer in eight is a group of the two idioms the translator
 * fuses, the product-scanning step `mul; add; adc; adc` and the carry
 * catch `add; clr; rol`, over registers that often are r0/r1 (MUL's
 * product) or alias each other. An ADD never names one register
 * twice: that is LSL, which has no handler. With @p step set, one
 * writer in eight is instead a form without a handler (EOR, LSL, INC,
 * DEC, ASR, CPI, ORI, BSET), which ends its trace in a STEP.
 */
std::string
flagWriter(Rng &rng, bool step)
{
    auto r = [&](unsigned bound) {
        return static_cast<unsigned>(rng.below(bound));
    };
    // A register other than @p a.
    auto other = [&](unsigned a) { return (a + 1 + r(25)) % 26; };
    if (step && r(8) == 0) {
        static const char *const kOne[] = {"lsl", "inc", "dec", "asr"};
        const unsigned a = r(26);
        switch (r(4)) {
          case 0: return csprintf("eor r%u, r%u", a, other(a));
          case 1: return csprintf("%s r%u", kOne[r(std::size(kOne))], a);
          case 2:
            return csprintf("%s r%u, %u", r(2) ? "cpi" : "ori", 16 + r(10),
                            r(256));
          default: return csprintf("bset %u", r(8));
        }
    }
    if (r(8) == 0) {
        const unsigned pool[] = {r(2), r(26), r(26)};
        unsigned v[8];
        for (unsigned &x : v)
            x = r(2) ? pool[r(3)] : r(26);
        if (r(2)) {
            if (v[2] == v[3])
                v[3] = other(v[2]);
            return csprintf("mul r%u, r%u\nadd r%u, r%u\nadc r%u, r%u\n"
                            "adc r%u, r%u",
                            v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7]);
        }
        if (v[0] == v[1])
            v[1] = other(v[0]);
        return csprintf("add r%u, r%u\nclr r%u\nrol r%u", v[0], v[1], v[2],
                        v[3]);
    }
    static const char *const kChain[] = {"add", "adc", "sub", "sbc",
                                         "cp", "cpc"};
    static const char *const kPair[] = {"and", "or", "mul"};
    static const char *const kOne[] = {"rol", "clr", "com", "neg", "lsr",
                                       "ror", "tst"};
    static const char *const kImm[] = {"subi", "sbci", "andi"};
    const unsigned a = r(26), b = r(26);
    switch (r(8)) {
      case 0: case 1: case 2: {
        const unsigned op = r(std::size(kChain));
        return csprintf("%s r%u, r%u", kChain[op], a,
                        op == 0 && a == b ? other(a) : b);
      }
      case 3:
        return csprintf("%s r%u, r%u", kPair[r(std::size(kPair))], a, b);
      case 4:
        return csprintf("%s r%u", kOne[r(std::size(kOne))], a);
      case 5:
        return csprintf("%s r%u, %u", kImm[r(std::size(kImm))], 16 + r(10),
                        r(256));
      case 6:
        return csprintf("%s r24, %u", r(2) ? "adiw" : "sbiw", r(64));
      default:
        return csprintf("bclr %u", r(8));
    }
}

/**
 * One seeded "flag soup" program for the flag-liveness pass: @p lead
 * flag writers with handlers, then @p items of flag writers between
 * the barriers before which SREG must be exact — in-bounds LDD/LDS/STS,
 * OUT on SREG (I/O 0x3f), LDS/STS at SREG's data address 0x5f,
 * BRBS/BRBC on every SREG bit and RCALL/RET, and, one item in eight,
 * a barrier without a handler, which steps: LD/ST in the other
 * addressing forms, PUSH/POP, IN on SREG, LD/ST at 0x5f and CPSE/SBRC
 * skips. With @p trap set it ends in flag writers and one
 * out-of-bounds LD/LDD/ST/STD/STS or an overflowing PUSH or RCALL,
 * which traps. X, Y and Z start inside the seeded window
 * 0x200..0x2bf.
 */
std::string
flagSoup(Rng &rng, unsigned lead, unsigned items, bool trap)
{
    auto r = [&](unsigned bound) {
        return static_cast<unsigned>(rng.below(bound));
    };
    auto writers = [&](unsigned n, bool step = true) {
        std::string s;
        for (unsigned i = 0; i < n; i++)
            s += flagWriter(rng, step) + "\n";
        return s;
    };
    std::string src;
    src += "ldi r26, 0x00\nldi r27, 0x02\n";  // X = 0x0200
    src += "ldi r28, 0x40\nldi r29, 0x02\n";  // Y = 0x0240
    src += "ldi r30, 0x80\nldi r31, 0x02\n";  // Z = 0x0280
    src += writers(lead, false);
    for (unsigned i = 0; i < items; i++) {
        const unsigned a = r(26), b = r(26);
        if (r(8) == 0) {
            switch (r(10)) {
              case 0: src += csprintf("ld r%u, X", a); break;
              case 1: src += csprintf("ld r%u, Z+", a); break;
              case 2: src += csprintf("st X, r%u", a); break;
              case 3: src += csprintf("std Y+%u, r%u", r(64), a); break;
              case 4: src += csprintf("st -Z, r%u", a); break;
              case 5:
                src += csprintf("push r%u\n%spop r%u", a,
                                writers(1).c_str(), b);
                break;
              case 6: src += csprintf("in r%u, 0x3f", a); break;
              case 7:
                // Through X at SREG's data address, then X back in place.
                src += "ldi r26, 0x5f\nldi r27, 0\n";
                src += r(2) ? csprintf("ld r%u, X", a)
                            : csprintf("st X, r%u", a);
                src += "\nldi r26, 0x00\nldi r27, 0x02";
                break;
              case 8:
                src += csprintf("cpse r%u, r%u\n%s", a, b,
                                writers(1).c_str());
                break;
              default:
                src += csprintf("sbrc r%u, %u\n%s", a, r(8),
                                writers(1).c_str());
                break;
            }
            src += "\n";
            continue;
        }
        switch (r(14)) {
          case 0: src += csprintf("ldd r%u, Y+%u", a, r(64)); break;
          case 1: src += csprintf("lds r%u, 0x%x", a, 0x200 + r(0xc0)); break;
          case 2: src += csprintf("sts 0x%x, r%u", 0x200 + r(0xc0), a); break;
          case 3: src += csprintf("out 0x3f, r%u", a); break;
          case 4: src += csprintf("lds r%u, 0x5f", a); break;
          case 5: src += csprintf("sts 0x5f, r%u", a); break;
          case 6: case 7:
            src += csprintf("%s %u, fl%u\n%sfl%u:", r(2) ? "brbs" : "brbc",
                            r(8), i, writers(1).c_str(), i);
            break;
          case 8: src += "rcall fsub"; break;
          default: src += writers(1 + r(4)); break;
        }
        src += "\n";
    }
    if (trap) {
        const unsigned a = r(26);
        switch (r(6)) {
          case 0:
            src += "ldi r26, 0x00\nldi r27, 0x20\n" + writers(1 + r(3)) +
                   csprintf("ld r%u, X\n", a);
            break;
          case 1:
            src += "ldi r28, 0xf0\nldi r29, 0x10\n" + writers(1 + r(3)) +
                   csprintf("ldd r%u, Y+%u\n", a, 16 + r(48));
            break;
          case 2:
            src += "ldi r26, 0x00\nldi r27, 0x20\n" + writers(1 + r(3)) +
                   csprintf("st X, r%u\n", a);
            break;
          case 3:
            src += "ldi r30, 0xf0\nldi r31, 0x10\n" + writers(1 + r(3)) +
                   csprintf("std Z+%u, r%u\n", 16 + r(48), a);
            break;
          case 4:
            src += writers(1 + r(3)) + csprintf("sts 0x2000, r%u\n", a);
            break;
          default:
            // SP just under the stack guard (sramBase).
            src += "ldi r26, 0xff\nout 0x3d, r26\nldi r26, 0\n"
                   "out 0x3e, r26\n" + writers(1 + r(3)) +
                   (r(2) ? csprintf("push r%u\n", a) : "rcall fsub\n");
            break;
        }
        src += writers(2);
    }
    src += "ret\nfsub:\n" + writers(1 + r(4)) + "ret\n";
    return src;
}

/**
 * Every trace statically reachable from the entries @p todo (side-exit
 * targets, continuations and the return addresses of stitched calls
 * followed), translated outside any run loop. Each label is a tag
 * naming its handler kind.
 */
struct TraceSet
{
    std::array<char, kNumSbOps> tags{};
    std::array<void *, kNumSbOps> labels{};
    SuperblockCache cache;
    std::vector<const SbBlock *> blocks;

    TraceSet(const Machine &m, std::vector<uint32_t> todo)
    {
        for (size_t i = 0; i < kNumSbOps; i++)
            labels[i] = &tags[i];
        std::set<uint32_t> seen;
        while (!todo.empty()) {
            const uint32_t pc = todo.back();
            todo.pop_back();
            if (!seen.insert(pc).second)
                continue;
            const SbBlock *b = cache.translate(m, pc, 0, labels.data());
            blocks.push_back(b);
            for (const SbInst &si : b->code) {
                switch (kind(si)) {
                  case SbOp::BRBS: case SbOp::BRBC: case SbOp::SKIP_SBRS:
                    todo.push_back(si.target);
                    break;
                  case SbOp::EXIT_STATIC: case SbOp::EXIT_SHADOW:
                    todo.push_back(si.pc);
                    break;
                  case SbOp::CALL_THROUGH:
                    todo.push_back(si.addr);
                    break;
                  default:
                    break;
                }
            }
        }
    }

    SbOp
    kind(const SbInst &si) const
    {
        return static_cast<SbOp>(static_cast<const char *>(si.lbl) -
                                 tags.data());
    }

    /**
     * The flag handler @p si selects: its own, or for the head of a
     * superinstruction (MUL computing nothing, ADD at most C) the
     * reduced handler of its op for its mask.
     */
    SbOp
    selected(const SbInst &si) const
    {
        switch (kind(si)) {
          case SbOp::MUL_ADD_ADC_ADC: return SbOp::MUL_0;
          case SbOp::ADD_CLR_ROL: return si.flags ? SbOp::ADD_C : SbOp::ADD_0;
          default: return kind(si);
        }
    }
};

/** The arithmetic SREG flags @p op writes, per the AVR ISA. */
uint8_t
flagsWritten(Op op)
{
    switch (op) {
      case Op::ADD: case Op::ADC: case Op::SUB: case Op::SBC: case Op::CP:
      case Op::CPC: case Op::SUBI: case Op::SBCI: case Op::CPI:
      case Op::NEG:
        return 0x3f;
      case Op::AND: case Op::OR: case Op::EOR: case Op::ANDI: case Op::ORI:
      case Op::INC: case Op::DEC:
        return 0x1e;
      case Op::COM: case Op::ASR: case Op::LSR: case Op::ROR:
      case Op::ADIW: case Op::SBIW:
        return 0x1f;
      case Op::MUL: case Op::MULS: case Op::MULSU: case Op::FMUL:
      case Op::FMULS: case Op::FMULSU:
        return 0x03;
      default:
        return 0;
    }
}

/**
 * True for the instructions before which every flag must be exact:
 * data, stack and I/O accesses (any may trap or reach SREG), calls,
 * returns, conditional branches and skips.
 */
bool
isFlagBarrier(Op op)
{
    if (op >= Op::LD_X && op <= Op::POP)
        return true;
    switch (op) {
      case Op::IN: case Op::OUT: case Op::SBI: case Op::CBI:
      case Op::SBIC: case Op::SBIS: case Op::CPSE: case Op::SBRC:
      case Op::SBRS: case Op::BRBS: case Op::BRBC: case Op::RCALL:
      case Op::CALL: case Op::RET: case Op::RETI: case Op::IJMP:
      case Op::ICALL:
        return true;
      default:
        return false;
    }
}

} // anonymous namespace

/*
 * Exhaustive replay: every one of the 65536 primary opcode words,
 * executed as the entry of a translated trace, must leave both
 * backends in bit- and cycle-identical state — registers, SREG, SP,
 * PC, SRAM, per-op statistics, the MAC unit and the stopping trap.
 * Because the synonym encodings (LSL/ROL/TST/CLR = ADD/ADC/AND/EOR
 * with rd==rr) are among these words, this is also the behavioral
 * proof that decode canonicalization changed nothing.
 *
 * The word under test sits at 0 followed by a varying operand word
 * and erased flash, so two-word forms get a live operand and straight
 * lines fall off into a FlashOutOfBounds stop; a small cycle budget
 * bounds runaway loops (rjmp .-2 and friends). Architectural state
 * carries over from word to word — it stays identical across the
 * machines by induction, and serves as varied seeding.
 *
 * The last pass is ISE with the MAC unit live: MACCR = 3 (SWAP and
 * R24-load triggers both on), and a budget-stopped `ld r24, X` (plus
 * a NOP for a one-cycle shadow) ahead of the word, so the superblock
 * enters the word with 2 or 1 shadow cycles pending, under a keyed
 * block whose first element is a trigger, a stall NOP, a hazard trap
 * or plain work.
 */
TEST(Superblock, AllOpcodeWordsMatchReferenceAllModes)
{
    const uint16_t trigger = assemble("ld r24, X", "t").words[0];
    const uint16_t nop = assemble("nop", "n").words[0];
    struct Pass
    {
        CpuMode mode;
        bool macLive;
    };
    for (Pass pass : {Pass{CpuMode::CA, false}, Pass{CpuMode::FAST, false},
                      Pass{CpuMode::ISE, false}, Pass{CpuMode::ISE, true}}) {
        Machine ref(pass.mode), sb(pass.mode);
        ref.setBackend(IssBackend::Reference);
        sb.setBackend(IssBackend::Superblock);
        for (uint32_t w = 0; w <= 0xffff; w++) {
            const uint16_t operand =
                static_cast<uint16_t>(w * 0x9e37u + 0x1234u);
            const bool one_cycle = w & 1;
            std::vector<uint16_t> words;
            if (pass.macLive) {
                words.push_back(trigger);
                if (one_cycle)
                    words.push_back(nop);
            }
            words.insert(words.end(), {static_cast<uint16_t>(w), operand,
                                       0xffff, 0xffff});
            for (Machine *m : {&ref, &sb}) {
                m->loadProgram(words, 0);
                seed(*m, w);
                m->setPc(0);
                if (pass.macLive) {
                    m->setMaccr(3);
                    m->run(one_cycle ? 2 : 1);
                }
                m->run(64);
            }
            const char *label = pass.macLive ? " (MAC live)" : "";
            if (!sameState(ref, sb)) {
                explainState(ref, sb, "reference", "superblock");
                FAIL() << "word 0x" << std::hex << w << " mode "
                       << cpuModeName(pass.mode) << label;
            }
        }
    }
}

/*
 * Randomized straight-line/branch/memory soup with in-trace loops:
 * long enough that translation hits revisited PCs, taken branches,
 * skips over one- and two-word targets, and block-cache reuse.
 */
TEST(Superblock, RandomProgramThreeBackendEquivalence)
{
    static const char *const kAlu[] = {
        "add r%u, r%u", "adc r%u, r%u", "sub r%u, r%u",
        "sbc r%u, r%u", "and r%u, r%u", "or r%u, r%u",
        "eor r%u, r%u", "mov r%u, r%u", "cp r%u, r%u",
        "cpc r%u, r%u", "mul r%u, r%u",
    };
    static const char *const kSingle[] = {
        "com r%u", "neg r%u", "swap r%u", "inc r%u", "dec r%u",
        "asr r%u", "lsr r%u", "ror r%u",  "lsl r%u", "rol r%u",
        "tst r%u", "push r%u", "pop r%u",
    };

    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        Rng rng(0x5b10c + static_cast<unsigned>(mode));
        auto r = [&](unsigned bound) {
            return static_cast<unsigned>(rng.below(bound));
        };
        std::string src;
        src += "ldi r26, 0x00\nldi r27, 0x02\n";  // X = 0x0200
        src += "ldi r28, 0x40\nldi r29, 0x02\n";  // Y = 0x0240
        src += "ldi r30, 0x80\nldi r31, 0x02\n";  // Z = 0x0280
        for (int blockn = 0; blockn < 60; blockn++) {
            // A bounded counted loop per block: brne back-edges close
            // superblocks and re-enter them repeatedly.
            src += csprintf("ldi r25, %u\n", 2 + r(6));
            src += csprintf("blk%d:\n", blockn);
            for (int i = 0; i < 24; i++) {
                switch (rng.below(6)) {
                  case 0: case 1:
                    src += csprintf(kAlu[rng.below(std::size(kAlu))],
                                    r(24), r(24));
                    break;
                  case 2:
                    src += csprintf(
                        kSingle[rng.below(std::size(kSingle))], r(24));
                    break;
                  case 3:
                    src += csprintf("std Y+%u, r%u", r(32), r(24));
                    break;
                  case 4:
                    src += csprintf("ldd r%u, Z+%u", r(24), r(32));
                    break;
                  case 5:
                    // Skip over a one- or two-word instruction.
                    if (r(2)) {
                        src += csprintf("sbrc r%u, %u\n", r(24), r(8));
                        src += csprintf("sts 0x0%x, r%u", 0x220 + r(64),
                                        r(24));
                    } else {
                        src += csprintf("sbrs r%u, %u\n", r(24), r(8));
                        src += csprintf(
                            kSingle[rng.below(std::size(kSingle))],
                            r(24));
                    }
                    break;
                }
                src += "\n";
            }
            src += "dec r25\n";
            src += csprintf("brne blk%d\n", blockn);
        }
        src += "ret\n";
        expectBackendEquivalence(assemble(src, "soup"), mode);
    }
}

/*
 * Side exit: a trap in the middle of a translated trace must not
 * retire the trapping instruction, must charge exactly the retired
 * prefix, and must leave PC at the trapping instruction — bit- and
 * cycle-identical to the reference on every trap kind reachable from
 * straight-line code.
 */
TEST(Superblock, TrapMidTraceSramOutOfBounds)
{
    // The sts at trace position 4 targets unimplemented data space.
    Program p = assemble("add r0, r1\n"
                         "adc r2, r3\n"
                         "ldi r16, 0x5a\n"
                         "eor r4, r4\n"
                         "sts 0x2000, r16\n"
                         "ldi r17, 0x99\n"  // must NOT execute
                         "ret\n",
                         "oob");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        expectBackendEquivalence(p, mode);
        Machine sb(mode);
        sb.loadProgram(p.words, 0);
        seed(sb, 1);
        RunResult r = sb.call(0);
        EXPECT_EQ(r.trap.kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(r.trap.addr, 0x2000u);
        EXPECT_EQ(sb.reg(17), static_cast<uint8_t>(29 * 17 + 1))
            << "instruction after the trap must not have executed";
    }
}

TEST(Superblock, TrapMidTraceStackOverflow)
{
    std::string src;
    for (int i = 0; i < 8; i++)
        src += csprintf("push r%d\n", i);
    src += "ret\n";
    Program p = assemble(src, "stackov");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        Machine ref(mode), sb(mode);
        ref.setBackend(IssBackend::Reference);
        sb.setBackend(IssBackend::Superblock);
        for (Machine *m : {&ref, &sb}) {
            m->loadProgram(p.words, 0);
            seed(*m, 2);
            // Room for the call's return address plus three pushes.
            m->setSp(Machine::sramBase + 4);
            m->call(0);
        }
        if (!sameState(ref, sb))
            explainState(ref, sb, "reference", "superblock");
        EXPECT_EQ(sb.trap().kind, TrapKind::StackOverflow);
    }
}

TEST(Superblock, TrapMidTraceIllegalAndFlashOob)
{
    // Find a reserved (non-erased) encoding for the illegal case.
    uint16_t illegal = 0;
    for (uint32_t w = 1; w <= 0xfffe; w++) {
        if (decode(static_cast<uint16_t>(w), 0).op == Op::INVALID) {
            illegal = static_cast<uint16_t>(w);
            break;
        }
    }
    ASSERT_NE(illegal, 0) << "no reserved encoding found";

    Program head = assemble("add r0, r1\nadc r2, r3\n", "head");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        // Illegal opcode mid-trace (the STEP ending the trace raises
        // it through execute(), which reads the flash word).
        Program ill = head;
        ill.words.push_back(illegal);
        expectBackendEquivalence(ill, mode);
        Machine m1(mode);
        m1.loadProgram(ill.words, 0);
        seed(m1, 3);
        EXPECT_EQ(m1.call(0).trap.kind, TrapKind::IllegalOpcode);
        EXPECT_EQ(m1.trap().pc, 2u);

        // Straight line off the end of the program into erased flash.
        expectBackendEquivalence(head, mode);
        Machine m2(mode);
        m2.loadProgram(head.words, 0);
        seed(m2, 4);
        EXPECT_EQ(m2.call(0).trap.kind, TrapKind::FlashOutOfBounds);
        EXPECT_EQ(m2.trap().pc, 2u);
    }
}

/*
 * Budget side exit: superblock hands a budget-critical pass to the
 * reference loop, which must land the CycleBudget trap on exactly
 * the same instruction boundary as a pure reference run (>=
 * semantics), even when the budget expires mid-trace.
 */
TEST(Superblock, CycleBudgetMidTraceMatchesReference)
{
    std::string src = "start:\n";
    for (int i = 0; i < 23; i++)
        src += csprintf("add r%d, r%d\n", i % 20, (i + 1) % 20);
    src += "rjmp start\n";
    Program p = assemble(src, "spin");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        // Budgets around one, several, and mid-pass multiples of the
        // trace length (23 adds + rjmp = 25 cycles per iteration).
        for (uint64_t budget : {1ull, 7ull, 24ull, 25ull, 26ull,
                                250ull, 261ull, 1000ull}) {
            Machine ref(mode), sb(mode);
            ref.setBackend(IssBackend::Reference);
            sb.setBackend(IssBackend::Superblock);
            for (Machine *m : {&ref, &sb}) {
                m->loadProgram(p.words, 0);
                seed(*m, static_cast<uint32_t>(budget));
                m->setPc(0);
                RunResult r = m->run(budget);
                EXPECT_EQ(r.trap.kind, TrapKind::CycleBudget);
                // A multi-cycle instruction may straddle the budget
                // (>= stop semantics); both paths must overshoot by
                // the same amount, which sameState() pins below.
                EXPECT_GE(r.cycles, budget);
            }
            if (!sameState(ref, sb))
                explainState(ref, sb, "reference", "superblock");
        }
    }
}

/*
 * MACCR side exit: an OUT/ST that enables the MAC unit mid-trace
 * retires in the superblock, then the run continues in the block
 * keyed by the new MAC state — Algorithm 2 load-mac triggers, shadow
 * micro-ops and stall accounting must be identical to the reference.
 * In non-ISE modes the same store is inert.
 *
 * A MACCR write inside a shadow resets the MAC unit, pending shadow
 * included, on every backend: the next instruction may touch the MAC
 * registers, and a NOP after it is no stall.
 */
TEST(Superblock, MaccrStoreSideExitsMidTrace)
{
    std::string src;
    src += "ldi r26, 0x00\nldi r27, 0x02\n";  // X = 0x0200
    src += "ldi r16, 0x42\nst X, r16\n";
    src += csprintf("ldi r17, %u\n",
                    static_cast<unsigned>(MacUnit::ctrlLoadMode));
    src += "out 0x3c, r17\n";   // enable MAC load mode (MACCR)
    src += "ld r24, X+\n";      // Algorithm 2 trigger (r24 load)
    src += "nop\nnop\nnop\n";   // shadow drain window
    src += "add r0, r1\n";
    src += "ldi r18, 0\nout 0x3c, r18\n";  // disable again
    src += "eor r2, r3\n";
    src += "ret\n";
    Program p = assemble(src, "maccr");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE})
        expectBackendEquivalence(p, mode);

    const Program touch = assemble("ldi r20, 2\nout 0x3c, r20\n"
                                   "ld r24, X+\nout 0x3c, r20\n"
                                   "add r0, r0\nret\n",
                                   "touch");
    const Program stall = assemble("ldi r20, 2\nldi r21, 0\n"
                                   "out 0x3c, r20\nld r24, X+\n"
                                   "out 0x3c, r21\nnop\nret\n",
                                   "stall");
    BothBackends t(CpuMode::ISE);
    for (const Program *q : {&touch, &stall}) {
        ASSERT_TRUE(t.run(*q, Machine::defaultCycleBudget, 0x77, 1));
        for (const Machine *m : {&t.ref, &t.sb}) {
            EXPECT_TRUE(m->trap().kind == TrapKind::None)
                << m->trap().describe();
            EXPECT_EQ(m->stats().macStallNops, 0u);
            EXPECT_EQ(m->mac().pendingShadow(), 0u);
        }
    }

    // The reset survives a trap later in the same instruction: an
    // RCALL in the shadow pushes its first return byte into MACCR and
    // overflows the stack guard with the second.
    const Program call = assemble("ldi r20, 2\nout 0x3c, r20\n"
                                  "ldi r22, 0x5c\nout 0x3d, r22\n"
                                  "ldi r22, 0\nout 0x3e, r22\n"
                                  "ld r24, X+\nrcall f\nf:\nret\n",
                                  "call");
    for (Machine *m : {&t.ref, &t.sb})
        m->setStackGuard(0x5c);
    ASSERT_TRUE(t.run(call, Machine::defaultCycleBudget, 0x78, 1));
    for (const Machine *m : {&t.ref, &t.sb}) {
        EXPECT_EQ(m->trap().kind, TrapKind::StackOverflow);
        EXPECT_EQ(m->mac().pendingShadow(), 0u);
    }
}

/*
 * A trace that reaches the length cap right after a trigger closes
 * with the shadow still pending; the next block is keyed by it, so
 * its NOPs count as stalls and the MAC registers stay off limits.
 */
TEST(Superblock, TraceCapInsideShadowKeysNextBlock)
{
    std::string src = "ldi r20, 2\nout 0x3c, r20\n";
    // The trigger is trace element 1023 of the block entered after
    // the MACCR store side exit; the cap closes the trace after it.
    for (size_t i = 0; i < SuperblockCache::kMaxInsts - 1; i++)
        src += "inc r25\n";
    src += "ld r24, X+\nnop\nnop\nadd r0, r1\nret\n";
    const Program prog = assemble(src, "cap");
    BothBackends t(CpuMode::ISE);
    ASSERT_TRUE(t.run(prog, Machine::defaultCycleBudget, 0x99, 2));
    EXPECT_TRUE(t.sb.trap().kind == TrapKind::None);
    EXPECT_EQ(t.sb.stats().macStallNops, 4u);  // two per call

    // The shadow-1 block: one NOP, then a hazard.
    src = "ldi r20, 2\nout 0x3c, r20\n";
    for (size_t i = 0; i < SuperblockCache::kMaxInsts - 2; i++)
        src += "inc r25\n";
    src += "ld r24, X+\nnop\nadd r0, r1\nret\n";
    ASSERT_TRUE(t.run(assemble(src, "cap1"), Machine::defaultCycleBudget,
                      0x98, 1));
    EXPECT_EQ(t.sb.trap().kind, TrapKind::MacHazard);
    EXPECT_EQ(t.sb.stats().macStallNops, 1u);
}

/*
 * Seeded MAC soup (see macSoup()): ~2,000 random ISE programs, each
 * called twice so keyed blocks are re-entered with whatever MAC state
 * the first call left (a MACCR mode, a pending shadow after a budget
 * stop or hazard). A quarter run under small budgets that expire
 * mid-trace and often mid-shadow, so the superblock hands them to the
 * reference loop. Both backends must agree on everything, MAC unit
 * included.
 */
TEST(Superblock, MacSoupThreeBackendEquivalence)
{
    Rng rng(0x3ac50);
    BothBackends t(CpuMode::ISE);
    for (Machine *m : {&t.ref, &t.sb})
        m->setStackGuard(0x20);  // lets a PUSH reach MACCR
    unsigned hazards = 0, retriggers = 0, stalls = 0, budget_stops = 0;
    for (unsigned n = 0; n < 2000; n++) {
        const std::string src = macSoup(rng, 4 + rng.below(40));
        const uint64_t budget = rng.below(4) == 0
                                    ? 1 + rng.below(80)
                                    : Machine::defaultCycleBudget;
        if (!t.run(assemble(src, "macsoup"), budget,
                   static_cast<uint32_t>(n), 2)) {
            FAIL() << "program " << n << " (budget " << budget
                   << "):\n" << src;
        }
        const Trap &trap = t.ref.trap();
        hazards += trap.kind == TrapKind::MacHazard;
        retriggers += trap.kind == TrapKind::MacHazard && trap.addr == 1;
        budget_stops += trap.kind == TrapKind::CycleBudget;
        stalls += t.ref.stats().macStallNops > 0;
    }
    // The generator reaches what it claims to.
    EXPECT_GT(hazards, 300u);
    EXPECT_GT(retriggers, 30u);
    EXPECT_GT(budget_stops, 100u);
    EXPECT_GT(stalls, 300u);
}

/** The full MAC-ISE multiplication kernel, superblock vs reference. */
TEST(Superblock, Secp160MulIseMatchesReference)
{
    Rng rng(0x5ec9);
    std::vector<uint32_t> a(5), b(5);
    for (auto *v : {&a, &b}) {
        for (auto &word : *v)
            word = rng.next32();
        (*v)[4] &= 0x7fffffff;
    }
    auto lib = OpfAvrLibrary::secp160r1(CpuMode::ISE);
    lib.machine().setBackend(IssBackend::Superblock);
    OpfRun s = lib.mulIse(a, b);
    lib.machine().setBackend(IssBackend::Reference);
    OpfRun r = lib.mulIse(a, b);
    EXPECT_EQ(s.result, r.result);
    EXPECT_EQ(s.cycles, r.cycles);
    EXPECT_EQ(s.instructions, r.instructions);
}

/*
 * Self-modifying flash through the GDB `M`/`X` packet path
 * (DebugTarget::writeMemory -> corruptFlashWord): a cached trace of
 * the pre-patch program must be dropped, and the patched instruction
 * must execute as patched on the very next run.
 */
TEST(Superblock, GdbFlashPatchInvalidatesTraces)
{
    Program p1 = assemble("ldi r24, 1\nldi r25, 3\nret", "p1");
    Program p2 = assemble("ldi r24, 2\nldi r25, 3\nret", "p2");
    ASSERT_EQ(p1.words.size(), p2.words.size());

    Machine m(CpuMode::CA);
    m.setBackend(IssBackend::Superblock);
    m.loadProgram(p1.words, 0);
    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(24), 1);

    // Patch word 0 through the gdb flash address space (byte 0..1,
    // little endian). The target is attached but passive, so runs
    // keep using the superblock backend.
    DebugTarget target(m);
    EXPECT_FALSE(target.wantsStops());
    ASSERT_TRUE(target.writeMemory(
        0, {static_cast<uint8_t>(p2.words[0] & 0xff),
            static_cast<uint8_t>(p2.words[0] >> 8)}));

    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(24), 2)
        << "stale superblock trace executed after a flash patch";
    EXPECT_EQ(m.reg(25), 3);
}

/** loadProgram() equally drops stale traces (non-debug path). */
TEST(Superblock, LoadProgramInvalidatesTraces)
{
    Program p1 = assemble("ldi r20, 7\nret", "p1");
    Program p2 = assemble("ldi r20, 9\nret", "p2");
    Machine m(CpuMode::FAST);
    m.setBackend(IssBackend::Superblock);
    m.loadProgram(p1.words, 0);
    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(20), 7);
    m.loadProgram(p2.words, 0);
    ASSERT_TRUE(m.call(0).ok());
    EXPECT_EQ(m.reg(20), 9);
}

/** JAAVR_ISS_BACKEND selects the construction-time backend. */
TEST(Superblock, BackendEnvironmentSelection)
{
    setenv("JAAVR_ISS_BACKEND", "reference", 1);
    EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Reference);
    setenv("JAAVR_ISS_BACKEND", "superblock", 1);
    EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Superblock);
    // Unknown values, "fast" among them, warn and keep the default.
    for (const char *unknown : {"fast", "warp-drive"}) {
        setenv("JAAVR_ISS_BACKEND", unknown, 1);
        EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Superblock)
            << unknown;
    }
    unsetenv("JAAVR_ISS_BACKEND");
    EXPECT_EQ(Machine(CpuMode::CA).backend(), IssBackend::Superblock);

    // Name round-trip used by benches and tools.
    EXPECT_STREQ(issBackendName(IssBackend::Reference), "reference");
    EXPECT_STREQ(issBackendName(IssBackend::Superblock), "superblock");
}

/*
 * Decode canonicalization satellite: over the whole 16-bit word
 * space, synonymOf() classifies exactly the rd==rr forms of
 * ADD/ADC/AND/EOR as LSL/ROL/TST/CLR (and nothing else), the
 * assembler folds the alias mnemonics onto the same encodings, and
 * the disassembler prints the idiomatic alias. Behavioral
 * equivalence of the specialized superblock handlers is covered by
 * AllOpcodeWordsMatchReferenceAllModes above.
 */
TEST(Superblock, SynonymClassificationExhaustive)
{
    unsigned counts[5] = {};
    for (uint32_t w = 0; w <= 0xffff; w++) {
        Inst i = decode(static_cast<uint16_t>(w), 0x1234);
        Synonym s = synonymOf(i);
        Synonym expect = Synonym::None;
        if (i.rd == i.rr) {
            switch (i.op) {
              case Op::ADD: expect = Synonym::LSL; break;
              case Op::ADC: expect = Synonym::ROL; break;
              case Op::AND: expect = Synonym::TST; break;
              case Op::EOR: expect = Synonym::CLR; break;
              default: break;
            }
        }
        ASSERT_EQ(s, expect) << "word 0x" << std::hex << w;
        counts[static_cast<size_t>(s)]++;
    }
    // 32 registers per synonym class, each a unique encoding.
    for (Synonym s : {Synonym::LSL, Synonym::ROL, Synonym::TST,
                      Synonym::CLR})
        EXPECT_EQ(counts[static_cast<size_t>(s)], 32u);

    for (unsigned rd : {0u, 7u, 16u, 31u}) {
        EXPECT_EQ(assemble(csprintf("lsl r%u", rd), "a").words,
                  assemble(csprintf("add r%u, r%u", rd, rd), "b").words);
        EXPECT_EQ(assemble(csprintf("rol r%u", rd), "a").words,
                  assemble(csprintf("adc r%u, r%u", rd, rd), "b").words);
        EXPECT_EQ(assemble(csprintf("tst r%u", rd), "a").words,
                  assemble(csprintf("and r%u, r%u", rd, rd), "b").words);
        EXPECT_EQ(assemble(csprintf("clr r%u", rd), "a").words,
                  assemble(csprintf("eor r%u, r%u", rd, rd), "b").words);

        uint16_t add_w = assemble(csprintf("add r%u, r%u", rd, rd),
                                  "w").words[0];
        EXPECT_EQ(disassemble(decode(add_w, 0)),
                  csprintf("lsl r%u", rd));
    }

    // The decode cache carries the classification for the backend.
    Machine m(CpuMode::CA);
    m.loadProgram(assemble("lsl r9\nadd r9, r8\n", "dc").words, 0);
    EXPECT_EQ(m.decoded(0).synonym, Synonym::LSL);
    EXPECT_EQ(m.decoded(1).synonym, Synonym::None);
}

/*
 * Call/return stitching: RCALL/CALL continue translation into the
 * callee and RET side-exits through the pushed return address;
 * nested calls and an ICALL through Z must behave identically on both
 * backends, cycles included.
 */
TEST(Superblock, CallStitchingAndIndirectControlFlow)
{
    std::string src;
    src += "rcall f1\n";
    src += "call f2\n";
    src += "ldi r30, lo8(f1)\nldi r31, hi8(f1)\n";
    src += "icall\n";
    src += "ijmp_done:\nret\n";
    src += "f1:\ninc r20\nrcall f2\nret\n";
    src += "f2:\ninc r21\nret\n";
    Program p = assemble(src, "calls");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE})
        expectBackendEquivalence(p, mode);
}

/*
 * Flag liveness and superinstructions (DESIGN.md §11): ~3,000 seeded
 * flag soups (see flagSoup()) in CA and ISE on both loops — flag
 * writers, fusible groups among them, between every kind of barrier, a
 * third ending in an out-of-bounds access or a stack overflow, one in
 * 50 long enough to cross the 1,024-element trace cap, and a quarter
 * under small budgets that hand the run to the reference loop at a
 * block entry. SREG must match the reference at every stop, and the
 * translator must have elided flags, fused groups and ended traces in
 * a STEP right after a flag writer to test at all.
 */
TEST(Superblock, FlagLivenessSoup)
{
    Rng rng(0xf1a95);
    unsigned traps = 0, capped = 0, elided = 0, fused = 0, stepped = 0;
    for (CpuMode mode : {CpuMode::CA, CpuMode::ISE}) {
        BothBackends t(mode);
        for (unsigned n = 0; n < 1500; n++) {
            const unsigned lead =
                n % 50 == 0 ? SuperblockCache::kMaxInsts + rng.below(64)
                            : 0;
            const std::string src = flagSoup(rng, lead, 4 + rng.below(40),
                                             rng.below(3) == 0);
            const uint64_t budget = rng.below(4) == 0
                                        ? 1 + rng.below(200)
                                        : Machine::defaultCycleBudget;
            const Program prog = assemble(src, "flagsoup");
            if (!t.run(prog, budget, n, 1)) {
                FAIL() << cpuModeName(mode) << " program " << n
                       << " (budget " << budget << "):\n" << src;
            }
            const TrapKind k = t.ref.trap().kind;
            traps += k == TrapKind::SramOutOfBounds ||
                     k == TrapKind::StackOverflow;
            const TraceSet traces(t.sb, {0});
            for (const SbBlock *b : traces.blocks) {
                capped += b->code.size() > SuperblockCache::kMaxInsts;
                for (size_t i = 0; i + 1 < b->code.size(); i++) {
                    const uint8_t w =
                        flagsWritten(static_cast<Op>(b->code[i].op));
                    elided += w && b->code[i].flags != w;
                    fused += sbGroupSize(traces.kind(b->code[i])) > 1;
                    stepped +=
                        w && traces.kind(b->code[i + 1]) == SbOp::STEP;
                }
            }
        }
    }
    // The generator reaches what it claims to.
    EXPECT_GT(traps, 500u);
    EXPECT_GE(capped, 60u);
    EXPECT_GT(elided, 10000u);
    EXPECT_GT(fused, 4000u);
    EXPECT_GT(stepped, 800u);
}

/*
 * A flag-dead ADC before a trapping load: on the straight line the
 * ADC's flags are dead (the ADD after the load overwrites them), but
 * the load traps on unimplemented data space, so SREG must hold the
 * ADC's flags — each of C, Z, V, S and H differs from what the ADD
 * before it left.
 */
TEST(Superblock, FlagDeadAdcBeforeTrappingLoad)
{
    const Program p = assemble("ldi r16, 0x80\nldi r17, 0x80\n"
                               "ldi r18, 0x0f\nldi r19, 0x01\n"
                               "ldi r26, 0x00\nldi r27, 0x20\n"
                               "add r16, r17\n"   // C Z V S set
                               "adc r18, r19\n"   // only H set
                               "ld r20, X\n"      // X = 0x2000 traps
                               "add r21, r22\n"
                               "ret\n",
                               "adcld");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        BothBackends t(mode);
        ASSERT_TRUE(t.run(p, Machine::defaultCycleBudget, 0x31, 1));
        EXPECT_EQ(t.sb.trap().kind, TrapKind::SramOutOfBounds);
        EXPECT_EQ(t.sb.sreg(), 0x20) << "H alone";
    }
}

/*
 * Sticky Z: SBC/SBCI/CPC fold the incoming Z into their own, so in
 * `sub; sbc; sbc; brne` every Z of the chain is live. The 24-bit
 * differences are zero, nonzero only in the low byte (the last SBC's
 * own result is zero: only the sticky Z keeps the branch taken) and
 * nonzero only in the high byte; a SEZ ahead leaves Z set for a
 * chain that would wrongly skip computing it.
 */
TEST(Superblock, StickyZeroChain)
{
    struct Case
    {
        uint32_t a, b;
        bool taken;
    };
    for (Case c : {Case{0x123456, 0x123456, false},
                   Case{0x123456, 0x123455, true},
                   Case{0x123456, 0x113456, true}}) {
        std::string src;
        for (unsigned i = 0; i < 3; i++)
            src += csprintf("ldi r%u, %u\nldi r%u, %u\n", 16 + 2 * i,
                            (c.a >> (8 * i)) & 0xff, 17 + 2 * i,
                            (c.b >> (8 * i)) & 0xff);
        src += "sez\nsub r16, r17\nsbc r18, r19\nsbc r20, r21\n"
               "brne ne\nldi r22, 1\nret\nne:\nldi r22, 2\nret\n";
        const Program p = assemble(src, "stickyz");
        for (CpuMode mode : {CpuMode::CA, CpuMode::ISE}) {
            BothBackends t(mode);
            ASSERT_TRUE(t.run(p, Machine::defaultCycleBudget, 0x5a, 1));
            EXPECT_EQ(t.sb.reg(22), c.taken ? 2 : 1)
                << std::hex << c.a << " - " << c.b;
        }
    }
}

/*
 * A superinstruction fuses only while nothing reads its last member's
 * Z. Each group below leaves a zero last result after a CLZ, and a
 * `cpc r6, r6` (a zero difference with C clear, so its sticky Z is the
 * incoming Z) reads that Z into the final SREG: the group must stay
 * unfused, and SREG must hold Z. With `add r6, r7`, which reads no
 * flag, the same group fuses.
 */
TEST(Superblock, FusedGroupKeepsLiveZ)
{
    const char *const kGroups[] = {
        "clr r2\nclr r3\nclr r4\nclr r5\nldi r16, 16\nldi r17, 16\nclz\n"
        "mul r16, r17\nadd r2, r0\nadc r3, r1\nadc r4, r5\n",
        "clr r2\nclr r3\nclz\n"
        "add r2, r3\nclr r4\nrol r4\n",
    };
    for (const char *group : kGroups) {
        for (const bool reads_z : {true, false}) {
            const std::string src = std::string(group) +
                                    (reads_z ? "cpc r6, r6\n"
                                             : "add r6, r7\n") +
                                    "ret\n";
            BothBackends t(CpuMode::CA);
            ASSERT_TRUE(t.run(assemble(src, "fusez"),
                              Machine::defaultCycleBudget, 0x77, 1))
                << src;
            unsigned fused = 0;
            const TraceSet traces(t.sb, {0});
            for (const SbBlock *b : traces.blocks)
                for (const SbInst &si : b->code)
                    fused += sbGroupSize(traces.kind(si)) > 1;
            EXPECT_EQ(fused, reads_z ? 0u : 1u) << src;
            if (reads_z) {
                EXPECT_TRUE(t.sb.sreg() & 0x02) << src;
            }
        }
    }
}

/*
 * The elision on the workload the pass is for: the CA opf_mul of the
 * paper's 160-bit OPF prime, every trace statically reachable from
 * its entry. Each element directly before a barrier computes every
 * flag it writes; at least 90 % of the ADD, ADC and MUL elements
 * compute C only or nothing; every reduced handler of
 * JAAVR_SB_FLAG_OPS_C0/_0 is selected here (a superinstruction's
 * members count as selecting theirs), so none is dead weight in the
 * dispatch loop; and the per-op counts of all / C only / none are
 * pinned (translation is deterministic). So are the superinstruction
 * groups: exactly their idiom's ops, none a barrier, each ending
 * before its trace's exit.
 */
TEST(Superblock, FlagElisionInOpfMul)
{
    OpfAvrLibrary lib(paperOpfPrime(), CpuMode::CA);
    const SymbolTable symbols = lib.symbols();
    uint32_t entry = 0;
    for (const auto &[addr, name] : symbols.entries())
        if (name == "opf_mul")
            entry = addr;
    ASSERT_NE(entry, 0u);

    std::map<std::string, std::array<unsigned, 3>> masks;
    std::set<SbOp> selected;
    std::array<unsigned, 2> groups{}; // product-scanning steps, catches
    const TraceSet traces(lib.machine(), {entry});
    for (const SbBlock *b : traces.blocks) {
        const std::vector<SbInst> &code = b->code;
        // The last element is the trace's exit, never a flag writer.
        for (size_t i = 0; i + 1 < code.size(); i++) {
            const Op op = static_cast<Op>(code[i].op);
            const uint8_t writes = flagsWritten(op);
            if (!writes)
                continue;
            if (i + 2 == code.size() ||
                isFlagBarrier(static_cast<Op>(code[i + 1].op))) {
                EXPECT_EQ(code[i].flags, writes)
                    << opName(op) << " at 0x" << std::hex << code[i].pc;
            }
            masks[opName(op)][code[i].flags == writes ? 0
                              : code[i].flags      ? 1
                                                   : 2]++;
            selected.insert(traces.selected(code[i]));
        }
        for (size_t i = 0; i < code.size(); i++) {
            const SbOp h = traces.kind(code[i]);
            const size_t n = sbGroupSize(h);
            if (n == 1)
                continue;
            ASSERT_LT(i + n, code.size()) << "group at the trace's end";
            std::string ops;
            for (size_t k = 0; k < n; k++) {
                const Op op = static_cast<Op>(code[i + k].op);
                EXPECT_FALSE(isFlagBarrier(op));
                ops += std::string(opName(op)) + " ";
            }
            EXPECT_EQ(ops, h == SbOp::MUL_ADD_ADC_ADC ? "mul add adc adc "
                                                      : "add eor adc ");
            groups[h == SbOp::MUL_ADD_ADC_ADC ? 0 : 1]++;
            i += n - 1;
        }
    }
    for (SbOp h : {
#define X(n) SbOp::n##_C, SbOp::n##_0,
             JAAVR_SB_FLAG_OPS_C0(X)
#undef X
#define X(n) SbOp::n##_0,
             JAAVR_SB_FLAG_OPS_0(X)
#undef X
         })
        EXPECT_TRUE(selected.count(h)) << static_cast<int>(h);
    for (const char *op : {"add", "adc", "mul"}) {
        const std::array<unsigned, 3> &m = masks[op];
        EXPECT_GE(10 * (m[1] + m[2]), 9 * (m[0] + m[1] + m[2])) << op;
    }
    std::string got;
    for (const auto &[op, m] : masks)
        got += csprintf("%s %u/%u/%u\n", op.c_str(), m[0], m[1], m[2]);
    // Per op, elements computing all of its flags / C only / none.
    // (CLR is an EOR, LSL an ADD and ROL an ADC.)
    EXPECT_EQ(got, "adc 12/490/608\n"
                   "add 25/615/5\n"
                   "and 6/0/0\n"
                   "com 0/5/15\n"
                   "eor 10/0/240\n"
                   "mul 2/0/438\n"
                   "neg 3/0/0\n"
                   "sbc 68/0/2\n"
                   "sub 3/0/0\n");
    EXPECT_EQ(groups[0], 438u) << "mul; add; adc; adc";
    EXPECT_EQ(groups[1], 168u) << "add; clr; rol";
}

/*
 * ExecStats::referenceInstructions counts what run() retires through
 * execute(): everything on the reference loop, and on the superblock
 * only its STEP elements, here INC, LSL and a two-register EOR, each
 * of which ends its trace. FieldRoutinesRunNatively requires it to
 * stay 0.
 */
TEST(Superblock, StepCountsReferenceInstructions)
{
    const Program p = assemble("ldi r16, 1\ninc r16\nadd r16, r17\n"
                               "lsl r17\neor r18, r19\nldi r20, 2\nret\n",
                               "cold");
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        BothBackends t(mode);
        ASSERT_TRUE(t.run(p, Machine::defaultCycleBudget, 0x11, 2));
        EXPECT_EQ(t.ref.stats().instructions, 14u);
        EXPECT_EQ(t.ref.stats().referenceInstructions, 14u);
        EXPECT_EQ(t.sb.stats().referenceInstructions, 6u);
    }
}

/*
 * The handler set is the generated field routines' census (DESIGN.md
 * §11, "The handler set"). Seeded add, sub, mul and inv calls (and
 * mulIse) of the paper's and the GLV OPF prime, the three
 * bench_iss_throughput primes and secp160r1, in CA, FAST and ISE, run
 * on the superblock without one instruction through execute(): no
 * STEP and no budget handoff. The ISE calls apply both MAC algorithms
 * and retire stall NOPs, so SWAP_MAC, LDD_Z_MAC, NOP_STALL and the
 * MACCR OUTs carry them. The traces statically reachable from the CA
 * and FAST routines dispatch every other kind but COM, whose
 * full-flag handler only underlies COM_C and COM_0, so a handler that
 * loses its traffic fails here.
 */
TEST(Superblock, FieldRoutinesRunNatively)
{
    const OpfPrime primes[] = {paperOpfPrime(), glvOpfPrime(),
                               makeOpf(0xff4c, 144), makeOpf(0xff4c, 176),
                               makeOpf(0xff4c, 240)};
    std::set<SbOp> dispatched;
    uint64_t alg1 = 0, alg2 = 0, stalls = 0;
    for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        for (size_t l = 0; l <= std::size(primes); l++) {
            const bool secp = l == std::size(primes);
            OpfAvrLibrary lib = secp ? OpfAvrLibrary::secp160r1(mode)
                                     : OpfAvrLibrary(primes[l], mode);
            Machine &m = lib.machine();
            m.setBackend(IssBackend::Superblock);
            Rng rng(0xf1e1d + 8 * static_cast<unsigned>(l) +
                    static_cast<unsigned>(mode));
            auto operand = [&] {
                if (!secp)
                    return OpfField(primes[l]).fromBig(
                        BigUInt::randomBits(rng, primes[l].k));
                // Top bit clear keeps the value below p.
                OpfField::Words w(5);
                for (uint32_t &word : w)
                    word = rng.next32();
                w[4] &= 0x7fffffff;
                return w;
            };
            for (unsigned n = 0; n < 20; n++) {
                const OpfField::Words a = operand(), b = operand();
                std::vector<OpfRun> runs = {lib.add(a, b), lib.sub(a, b),
                                            lib.mul(a, b)};
                if (secp && mode == CpuMode::ISE)
                    runs.push_back(lib.mulIse(a, b));
                if (n % 5 == 0)
                    runs.push_back(lib.inv(a));
                for (const OpfRun &r : runs)
                    EXPECT_TRUE(r.trap.kind == TrapKind::None)
                        << r.trap.describe();
            }
            const std::string what =
                csprintf("%s library %zu", cpuModeName(mode), l);
            EXPECT_GT(m.stats().instructions, 0u) << what;
            EXPECT_EQ(m.stats().referenceInstructions, 0u) << what;
            if (mode == CpuMode::ISE) {
                alg1 += m.mac().alg1Macs();
                alg2 += m.mac().alg2Macs();
                stalls += m.stats().macStallNops;
                continue;
            }
            std::vector<uint32_t> entries;
            const SymbolTable symbols = lib.symbols();
            for (const auto &[addr, name] : symbols.entries())
                entries.push_back(addr);
            const TraceSet traces(m, entries);
            for (const SbBlock *b : traces.blocks)
                for (size_t i = 0; i < b->code.size();
                     i += sbGroupSize(traces.kind(b->code[i])))
                    dispatched.insert(traces.kind(b->code[i]));
        }
    }
    EXPECT_GT(alg1, 0u);
    EXPECT_GT(alg2, 0u);
    EXPECT_GT(stalls, 0u);
    for (size_t k = 0; k < kNumSbOps; k++) {
        const SbOp h = static_cast<SbOp>(k);
        switch (h) {
          case SbOp::OUT: case SbOp::EXIT_SHADOW: case SbOp::LDD_Z_MAC:
          case SbOp::SWAP_MAC: case SbOp::NOP_STALL: case SbOp::COM:
            break;
          case SbOp::STEP:
            EXPECT_FALSE(dispatched.count(h)) << "a field routine steps";
            break;
          default:
            EXPECT_TRUE(dispatched.count(h)) << "kind " << k;
            break;
        }
    }
}
