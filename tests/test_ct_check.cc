/**
 * @file
 * The constant-time checker (avrgen/ct_check.hh) on small hand-written
 * programs: every finding class fires on its sink, the precision
 * idioms the generated routines rely on stay silent, the MAC triggers
 * taint the accumulator, taint travels through memory and calls, the
 * walk refuses what it cannot prove (a push depth that differs between
 * paths, a pop of the return address or the caller's frame, a return
 * through pushed bytes, a memory fixpoint that does not settle), and
 * the two contracts waive exactly what they promise.
 *
 * Every program reads its secret from 16 bytes at 0x0200; the rest of
 * data memory is public. Sites are named by labels.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "avrasm/assembler.hh"
#include "avrgen/ct_check.hh"

using namespace jaavr;

namespace
{

constexpr CtFindingClass kBranch = CtFindingClass::TaintedBranch;
constexpr CtFindingClass kSkip = CtFindingClass::TaintedSkip;
constexpr CtFindingClass kAddress = CtFindingClass::TaintedAddress;
constexpr CtFindingClass kIndirect = CtFindingClass::TaintedIndirect;
constexpr CtFindingClass kUnsupported = CtFindingClass::Unsupported;

/** A checked program. */
struct Checked
{
    Program prog;
    CtReport rep;

    /** True if a finding of @p cls sits at label @p at. */
    bool
    at(CtFindingClass cls, const std::string &label) const
    {
        for (const CtFinding &f : rep.findings)
            if (f.cls == cls && f.pc == prog.label(label))
                return true;
        return false;
    }

    /** True if some finding has class @p cls. */
    bool
    any(CtFindingClass cls) const
    {
        for (const CtFinding &f : rep.findings)
            if (f.cls == cls)
                return true;
        return false;
    }

    /** The findings, one per line, for failure messages. */
    std::string
    dump() const
    {
        std::ostringstream s;
        for (const CtFinding &f : rep.findings)
            s << "  pc=" << f.pc << " " << ctFindingClassName(f.cls) << " "
              << f.disasm << (f.waived ? " [waived]" : "") << "\n";
        return s.str();
    }
};

Checked
check(const std::string &src,
      CtContract contract = CtContract::ConstantTime, unsigned waived = 0)
{
    Checked c{assemble(src, "ct_check_test"), {}};
    CtCheckSpec spec;
    spec.routine = "test";
    spec.contract = contract;
    spec.waivedBranches = waived;
    spec.secrets = {{0x0200, 16}};
    c.rep = ctCheck(c.prog.words, spec);
    return c;
}

/**
 * n copy steps that move the secret byte at 0x0200 one address on
 * (A_0 = 0x0200, A_i = 0x0300 + i), written last step first so each
 * memory pass carries it one step, then a branch on A_n.
 */
std::string
copyChain(unsigned n)
{
    auto addr = [](unsigned i) {
        return i == 0 ? std::string("0x0200") : std::to_string(0x0300 + i);
    };
    std::string src;
    for (unsigned i = n; i-- > 0;)
        src += "lds r16, " + addr(i) + "\nsts " + addr(i + 1) + ", r16\n";
    return src + "lds r16, " + addr(n) +
           "\ntst r16\nb: breq d\nd: ret\n";
}

} // anonymous namespace

// --- every finding class fires ----------------------------------------

TEST(CtCheck, BranchOnASecretFlagIsATaintedBranch)
{
    Checked c = check("lds r16, 0x0200\n"
                      "tst r16\n"
                      "b: breq d\n"
                      "nop\n"
                      "d: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
    EXPECT_FALSE(c.rep.pass);
}

TEST(CtCheck, SkipOnASecretIsATaintedSkip)
{
    Checked c = check("lds r16, 0x0200\n"
                      "ldi r17, 1\n"
                      "s1: sbrc r16, 0\n"
                      "nop\n"
                      "s2: cpse r17, r16\n"
                      "nop\n"
                      "s3: sbrs r17, 0\n"
                      "nop\n"
                      "ret\n");
    EXPECT_TRUE(c.at(kSkip, "s1")) << c.dump();
    EXPECT_TRUE(c.at(kSkip, "s2")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 2u) << c.dump();
}

TEST(CtCheck, SecretPointerIsATaintedAddress)
{
    Checked ld = check("lds r26, 0x0200\n"
                       "ldi r27, 0x03\n"
                       "a: ld r18, X\n"
                       "ret\n");
    EXPECT_TRUE(ld.at(kAddress, "a")) << ld.dump();
    EXPECT_EQ(ld.rep.findings.size(), 1u) << ld.dump();

    Checked lpm = check("lds r30, 0x0200\n"
                        "ldi r31, 0\n"
                        "a: lpm r18, Z\n"
                        "ret\n");
    EXPECT_TRUE(lpm.at(kAddress, "a")) << lpm.dump();
    EXPECT_EQ(lpm.rep.findings.size(), 1u) << lpm.dump();
}

TEST(CtCheck, SecretZIsATaintedIndirectJumpOrCall)
{
    for (const char *op : {"ijmp", "icall"}) {
        SCOPED_TRACE(op);
        Checked c = check(std::string("lds r30, 0x0200\n"
                                      "ldi r31, 0\n"
                                      "j: ") +
                          op + "\nret\n");
        EXPECT_TRUE(c.at(kIndirect, "j")) << c.dump();
        // A secret Z is also no known target to continue at.
        EXPECT_TRUE(c.at(kUnsupported, "j")) << c.dump();
    }
}

TEST(CtCheck, WhatTheModelCannotFollowIsUnsupported)
{
    Checked store = check("lds r26, 0x0300\n" // public, value unknown
                          "lds r27, 0x0301\n"
                          "lds r16, 0x0200\n"
                          "s: st X, r16\n"
                          "ret\n");
    EXPECT_TRUE(store.at(kUnsupported, "s")) << store.dump();
    EXPECT_EQ(store.rep.findings.size(), 1u) << store.dump();

    Checked out = check("lds r16, 0x0200\n"
                        "o: out 0x18, r16\n"
                        "ret\n");
    EXPECT_TRUE(out.at(kUnsupported, "o")) << out.dump();

    Checked sleep = check("s: sleep\nret\n");
    EXPECT_TRUE(sleep.at(kUnsupported, "s")) << sleep.dump();

    // Unbounded recursion stops at call depth 32.
    Checked deep = check("f: rcall f\nret\n");
    EXPECT_TRUE(deep.at(kUnsupported, "f")) << deep.dump();
    EXPECT_EQ(deep.rep.instsAnalyzed, 33u);
}

// --- precision the generated routines rely on -------------------------

TEST(CtCheck, ClearedSecretIsPublic)
{
    Checked c = check("lds r16, 0x0200\n"
                      "clr r16\n"
                      "tst r16\n"
                      "breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.rep.findings.empty()) << c.dump();
    EXPECT_TRUE(c.rep.pass);
}

TEST(CtCheck, ConstantFlagsArePublic)
{
    // COM sets C = 1; AND clears V.
    Checked com = check("lds r16, 0x0200\n"
                        "com r16\n"
                        "brcs d\n"
                        "d: ret\n");
    EXPECT_TRUE(com.rep.findings.empty()) << com.dump();

    Checked andv = check("lds r16, 0x0200\n"
                         "lds r17, 0x0201\n"
                         "and r16, r17\n"
                         "brvs d\n"
                         "d: ret\n");
    EXPECT_TRUE(andv.rep.findings.empty()) << andv.dump();
}

TEST(CtCheck, RorCarryOutComesFromBitZeroAlone)
{
    Checked c = check("lds r16, 0x0200\n"
                      "lsr r16\n"  // C = a secret bit
                      "ldi r17, 5\n"
                      "ror r17\n"  // C = bit 0 of public r17
                      "brcs d\n"
                      "d: tst r17\n" // r17 took the secret carry in
                      "b: breq e\n"
                      "e: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
}

TEST(CtCheck, PointerArithmeticOnKnownValuesStaysKnown)
{
    // X = 0x02ff + 1 = 0x0300: a public byte.
    Checked pub = check("ldi r26, 0xff\n"
                        "ldi r27, 0x02\n"
                        "adiw r26, 1\n"
                        "ld r18, X\n"
                        "tst r18\n"
                        "breq d\n"
                        "d: ret\n");
    EXPECT_TRUE(pub.rep.findings.empty()) << pub.dump();

    // X = 0x01ff + 1 = 0x0200: the secret.
    Checked sec = check("ldi r26, 0xff\n"
                        "ldi r27, 0x01\n"
                        "adiw r26, 1\n"
                        "ld r18, X\n"
                        "tst r18\n"
                        "b: breq d\n"
                        "d: ret\n");
    EXPECT_TRUE(sec.at(kBranch, "b")) << sec.dump();
    EXPECT_EQ(sec.rep.findings.size(), 1u) << sec.dump();
}

TEST(CtCheck, FormsOnKnownInputsGiveKnownResults)
{
    // X = 0x0800 >> 1 and X = r1:r0 = 0x10 * 0x30: public bytes.
    Checked lsr = check("ldi r26, 0\n"
                        "ldi r27, 0x08\n"
                        "lsr r27\n"
                        "ld r18, X\n"
                        "tst r18\n"
                        "breq d\n"
                        "d: ret\n");
    EXPECT_TRUE(lsr.rep.findings.empty()) << lsr.dump();

    Checked mul = check("ldi r16, 0x10\n"
                        "ldi r17, 0x30\n"
                        "mul r16, r17\n"
                        "movw r26, r0\n"
                        "ld r18, X\n"
                        "tst r18\n"
                        "breq d\n"
                        "d: ret\n");
    EXPECT_TRUE(mul.rep.findings.empty()) << mul.dump();

    // X = 0x0400 >> 1: the secret.
    Checked sec = check("ldi r26, 0\n"
                        "ldi r27, 0x04\n"
                        "lsr r27\n"
                        "ld r18, X\n"
                        "tst r18\n"
                        "b: breq d\n"
                        "d: ret\n");
    EXPECT_TRUE(sec.at(kBranch, "b")) << sec.dump();
    EXPECT_EQ(sec.rep.findings.size(), 1u) << sec.dump();
}

TEST(CtCheck, MovwCopiesEachByteOnItsOwn)
{
    Checked c = check("lds r16, 0x0200\n"
                      "ldi r17, 0x03\n"
                      "movw r26, r16\n"
                      "tst r27\n" // public
                      "breq d\n"
                      "d: tst r26\n" // secret
                      "b: breq e\n"
                      "e: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
}

TEST(CtCheck, KnownMaccrOutsideSwapModeDoesNotTrigger)
{
    const std::string tail = "lds r20, 0x0200\n"
                             "swap r20\n"
                             "tst r0\n"
                             "b: breq d\n"
                             "d: ret\n";
    // MACCR = 2: load mode, so the SWAP is a plain SWAP.
    Checked known = check("ldi r16, 2\nout 0x3c, r16\n" + tail);
    EXPECT_TRUE(known.rep.findings.empty()) << known.dump();

    // An unknown MACCR may be in swap mode.
    Checked unknown = check("lds r16, 0x0300\nout 0x3c, r16\n" + tail);
    EXPECT_TRUE(unknown.at(kBranch, "b")) << unknown.dump();
}

// --- the MAC triggers --------------------------------------------------

TEST(CtCheck, SecretLoadIntoR24InLoadModeTaintsTheAccumulator)
{
    for (unsigned r = 0; r <= 9; r++) {
        SCOPED_TRACE(r);
        Checked c = check("ldi r16, 2\n"
                          "out 0x3c, r16\n"
                          "ldi r30, 0x00\n"
                          "ldi r31, 0x02\n"
                          "ldd r24, Z+0\n"
                          "tst r" + std::to_string(r) + "\n"
                          "b: breq d\n"
                          "d: ret\n");
        // r0..r8 are the accumulator; r9 is not.
        EXPECT_EQ(c.at(kBranch, "b"), r <= 8) << c.dump();
    }
}

TEST(CtCheck, LoadIntoR24WithMaccrOffDoesNotTrigger)
{
    Checked c = check("ldi r30, 0x00\n"
                      "ldi r31, 0x02\n"
                      "ldd r24, Z+0\n"
                      "tst r0\n"
                      "breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.rep.findings.empty()) << c.dump();
}

TEST(CtCheck, SecretSwapInSwapModeTaintsTheAccumulator)
{
    Checked c = check("ldi r16, 1\n"
                      "out 0x3c, r16\n"
                      "lds r20, 0x0200\n"
                      "swap r20\n"
                      "tst r8\n"
                      "b: breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
}

// --- memory and calls --------------------------------------------------

TEST(CtCheck, SecretStoredToAKnownAddressLoadsBackSecret)
{
    Checked c = check("lds r16, 0x0200\n"
                      "ldi r26, 0x00\n"
                      "ldi r27, 0x03\n"
                      "st X+, r16\n"
                      "ld r17, X\n" // 0x0301: still public
                      "tst r17\n"
                      "breq d\n"
                      "d: lds r17, 0x0300\n"
                      "tst r17\n"
                      "b: breq e\n"
                      "e: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
}

TEST(CtCheck, LoadBeforeTheStoreThatTaintsItIsCaughtByTheMemoryFixpoint)
{
    // The loop head's state is the same on both edges, so only the
    // next memory pass sees the store's taint at the load.
    Checked c = check("loop: lds r17, 0x0300\n"
                      "tst r17\n"
                      "b: breq skip\n"
                      "skip: lds r16, 0x0200\n"
                      "sts 0x0300, r16\n"
                      "clr r16\n"
                      "clr r17\n"
                      "sbic 0x16, 0\n"
                      "rjmp loop\n"
                      "ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
    EXPECT_GE(c.rep.memPasses, 2u);
}

TEST(CtCheck, SecretReachesABranchInACallee)
{
    Checked c = check("lds r16, 0x0200\n"
                      "rcall f\n"
                      "ret\n"
                      "f: tst r16\n"
                      "b: breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
}

TEST(CtCheck, PushedSecretPopsBackSecret)
{
    Checked c = check("lds r17, 0x0200\n"
                      "push r17\n"
                      "pop r18\n"
                      "tst r18\n"
                      "b: breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.findings.size(), 1u) << c.dump();
}

TEST(CtCheck, PushOnOnePathOnlyIsUnsupported)
{
    // The two paths reach the pop with different push depths: the
    // shadow stack cannot say what the pop reads.
    Checked c = check("lds r17, 0x0200\n"
                      "lds r16, 0x0300\n"
                      "sbrc r16, 0\n"
                      "push r17\n"
                      "p: pop r18\n"
                      "tst r18\n"
                      "breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.at(kUnsupported, "p")) << c.dump();
    EXPECT_FALSE(c.rep.pass);
}

TEST(CtCheck, PopOfTheCallersFrameIsUnsupported)
{
    Checked c = check("p: pop r18\n"
                      "tst r18\n"
                      "breq d\n"
                      "d: ret\n");
    EXPECT_TRUE(c.at(kUnsupported, "p")) << c.dump();
    EXPECT_FALSE(c.rep.pass);
}

TEST(CtCheck, PopOfTheReturnAddressIsUnsupported)
{
    // On the machine f pops the return address the call pushed, so X
    // is a flash word address, not the 0x0300 the caller pushed.
    Checked c = check("ldi r16, 0x00\n"
                      "ldi r17, 0x03\n"
                      "push r16\n"
                      "push r17\n"
                      "rcall f\n"
                      "pop r17\n"
                      "pop r16\n"
                      "ret\n"
                      "f: pop r27\n"
                      "pop r26\n"
                      "push r26\n"
                      "push r27\n"
                      "ld r18, X\n"
                      "ret\n");
    EXPECT_TRUE(c.at(kUnsupported, "f")) << c.dump();
    EXPECT_FALSE(c.rep.pass);
}

TEST(CtCheck, ReturnThroughPushedBytesIsUnsupported)
{
    // The RET jumps to the address the pushed secret makes.
    Checked c = check("lds r16, 0x0200\n"
                      "push r16\n"
                      "push r16\n"
                      "r: ret\n");
    EXPECT_TRUE(c.at(kUnsupported, "r")) << c.dump();
    EXPECT_FALSE(c.rep.pass);
}

TEST(CtCheck, MemoryFixpointWithinItsPassCapIsExact)
{
    Checked c = check(copyChain(16));
    EXPECT_TRUE(c.at(kBranch, "b")) << c.dump();
    EXPECT_EQ(c.rep.memPasses, 16u);
    EXPECT_FALSE(c.rep.pass);
}

TEST(CtCheck, MemoryFixpointPastItsPassCapIsUnsupported)
{
    Checked c = check(copyChain(20));
    EXPECT_TRUE(c.any(kUnsupported)) << c.dump();
    EXPECT_FALSE(c.rep.pass);
}

// --- contracts ---------------------------------------------------------

TEST(CtCheck, ConstantTimeWaivesExactlyItsBranchAllowance)
{
    const std::string two = "lds r16, 0x0200\n"
                            "tst r16\n"
                            "breq n\n"
                            "n: tst r16\n"
                            "brne m\n"
                            "m: ret\n";
    Checked fits = check(two, CtContract::ConstantTime, 2);
    EXPECT_EQ(fits.rep.findings.size(), 2u) << fits.dump();
    EXPECT_EQ(fits.rep.waivedCount(), 2u);
    EXPECT_TRUE(fits.rep.pass);

    // One branch site more than the allowance: none is waived.
    Checked over = check(two, CtContract::ConstantTime, 1);
    EXPECT_EQ(over.rep.waivedCount(), 0u) << over.dump();
    EXPECT_EQ(over.rep.violationCount(), 2u);
    EXPECT_FALSE(over.rep.pass);

    // Skips are never waived under ConstantTime.
    Checked skip = check("lds r16, 0x0200\n"
                         "sbrc r16, 0\n"
                         "nop\n"
                         "ret\n",
                         CtContract::ConstantTime, 2);
    EXPECT_EQ(skip.rep.waivedCount(), 0u) << skip.dump();
    EXPECT_FALSE(skip.rep.pass);
}

TEST(CtCheck, VariableTimeWaivesBranchesAndSkipsButNotAddresses)
{
    const std::string src = "lds r16, 0x0200\n"
                            "tst r16\n"
                            "b: breq n\n"
                            "n: sbrc r16, 0\n"
                            "nop\n"
                            "mov r26, r16\n"
                            "ldi r27, 0x03\n"
                            "a: ld r18, X\n"
                            "ret\n";
    Checked c = check(src, CtContract::VariableTime);
    ASSERT_EQ(c.rep.findings.size(), 3u) << c.dump();
    EXPECT_TRUE(c.at(kBranch, "b"));
    EXPECT_TRUE(c.at(kSkip, "n"));
    EXPECT_TRUE(c.at(kAddress, "a"));
    EXPECT_EQ(c.rep.waivedCount(), 2u);
    for (const CtFinding &f : c.rep.findings)
        EXPECT_EQ(f.waived, f.cls != kAddress) << c.dump();
    EXPECT_FALSE(c.rep.pass);

    // Without the secret address the same routine passes.
    Checked ok = check(src.substr(0, src.find("mov")) + "ret\n",
                       CtContract::VariableTime);
    EXPECT_TRUE(ok.rep.pass) << ok.dump();
}
