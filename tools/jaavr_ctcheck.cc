/**
 * @file
 * jaavr-ctcheck: static constant-time verification of every shipped
 * assembly routine (src/avrgen/ct_check.hh).
 *
 * Assembles the OPF routine set for the paper's reference prime and
 * the secp160r1 set, lays each out at its harness load address, and
 * runs the secret-taint walk with the harness entry state (Y = &a,
 * Z = &b, secrets in the operand buffers). Emits one JSON line per
 * routine plus one per finding to CT_report.json and exits non-zero
 * unless every routine satisfies its contract:
 *
 *  - OPF add/sub/mul (native and ISE): ConstantTime with exactly the
 *    two final-fold ripple branches waived (paper Section III-A,
 *    probability 2^-32 per round);
 *  - secp160r1 add/sub/mul/mul-ISE: VariableTime — the pseudo-
 *    Mersenne fold ripple is ordinary data-dependent control flow;
 *  - both Kaliski inverses: VariableTime (the paper concedes the
 *    inversion's data-dependent runtime, Section V-B).
 *
 * Usage: jaavr-ctcheck [--out CT_report.json] [-v]
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "avrasm/assembler.hh"
#include "avrgen/ct_check.hh"
#include "avrgen/opf_harness.hh"
#include "avrgen/opf_routines.hh"
#include "avrgen/secp160_routines.hh"
#include "nt/opf_prime.hh"
#include "support/json.hh"
#include "support/logging.hh"

using namespace jaavr;

namespace
{

constexpr uint32_t kFlashWords = 0x10000;

std::vector<uint16_t>
loadAt(const Program &prog, uint32_t entry)
{
    std::vector<uint16_t> flash(kFlashWords, 0xffff);
    for (size_t i = 0; i < prog.words.size(); i++)
        flash[entry + i] = prog.words[i];
    return flash;
}

std::vector<std::pair<uint8_t, uint8_t>>
harnessEntryRegs()
{
    // OpfAvrLibrary's calling convention.
    return {
        {28, uint8_t(OpfMemoryMap::aAddr & 0xff)},
        {29, uint8_t(OpfMemoryMap::aAddr >> 8)},
        {30, uint8_t(OpfMemoryMap::bAddr & 0xff)},
        {31, uint8_t(OpfMemoryMap::bAddr >> 8)},
    };
}

std::vector<CtSecretRange>
operandSecrets(uint16_t nbytes, bool b_too)
{
    std::vector<CtSecretRange> s{{OpfMemoryMap::aAddr, nbytes}};
    if (b_too)
        s.push_back({OpfMemoryMap::bAddr, nbytes});
    return s;
}

struct Job
{
    std::string name;
    Program prog;
    uint32_t entry;
    CtContract contract;
    unsigned waivedBranches;
    bool secretB; ///< b operand is secret too (not for the inverses)
    uint16_t secretBytes;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string out = "CT_report.json";
    bool verbose = false;
    for (int i = 1; i < argc; i++) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out = argv[++i];
        } else if (!std::strcmp(argv[i], "-v") ||
                   !std::strcmp(argv[i], "--verbose")) {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--out CT_report.json] [-v]\n",
                         argv[0]);
            return 2;
        }
    }

    const OpfPrime &prime = paperOpfPrime();
    const uint16_t opfBytes = uint16_t((prime.k + 16) / 8);
    const uint16_t secpBytes = 20;

    std::vector<Job> jobs;
    // The two fold rounds of emitFinalFold each branch on the rare
    // ripple carry; that pair is the only waived site set.
    jobs.push_back({"opf160_add", assemble(genOpfAddSub(prime, false),
                                           "opf_add"),
                    0, CtContract::ConstantTime, 2, true, opfBytes});
    jobs.push_back({"opf160_sub", assemble(genOpfAddSub(prime, true),
                                           "opf_sub"),
                    0, CtContract::ConstantTime, 2, true, opfBytes});
    jobs.push_back({"opf160_mul_native",
                    assemble(genOpfMulNative(prime), "opf_mul"),
                    0, CtContract::ConstantTime, 2, true, opfBytes});
    jobs.push_back({"opf160_mul_ise",
                    assemble(genOpfMulIse(prime), "opf_mul_ise"),
                    0, CtContract::ConstantTime, 2, true, opfBytes});
    jobs.push_back({"opf160_inv",
                    assemble(genOpfMontInverse(prime,
                                               OpfAvrLibrary::invEntry),
                             "opf_inv"),
                    OpfAvrLibrary::invEntry, CtContract::VariableTime, 0,
                    false, opfBytes});
    jobs.push_back({"secp160r1_add",
                    assemble(genSecp160AddSub(false), "secp_add"),
                    0, CtContract::VariableTime, 0, true, secpBytes});
    jobs.push_back({"secp160r1_sub",
                    assemble(genSecp160AddSub(true), "secp_sub"),
                    0, CtContract::VariableTime, 0, true, secpBytes});
    jobs.push_back({"secp160r1_mul",
                    assemble(genSecp160Mul(), "secp_mul"),
                    0, CtContract::VariableTime, 0, true, secpBytes});
    jobs.push_back({"secp160r1_mul_ise",
                    assemble(genSecp160MulIse(), "secp_mul_ise"),
                    0, CtContract::VariableTime, 0, true, secpBytes});
    jobs.push_back({"secp160r1_inv",
                    assemble(genSecp160Inverse(), "secp_inv"),
                    0, CtContract::VariableTime, 0, false, secpBytes});

    // Truncate the report file: the checker is a whole-state tool,
    // not an append-only trajectory.
    if (FILE *f = std::fopen(out.c_str(), "w"))
        std::fclose(f);

    bool allPass = true;
    for (const Job &job : jobs) {
        CtCheckSpec spec;
        spec.routine = job.name;
        spec.entry = job.entry;
        spec.contract = job.contract;
        spec.waivedBranches = job.waivedBranches;
        spec.secrets = operandSecrets(job.secretBytes, job.secretB);
        spec.entryRegs = harnessEntryRegs();

        CtReport rep = ctCheck(loadAt(job.prog, job.entry), spec);
        allPass = allPass && rep.pass;

        std::printf("%-20s %-14s %s  (%zu findings, %zu waived, "
                    "%llu states, %llu mem passes)\n",
                    rep.routine.c_str(), ctContractName(rep.contract),
                    rep.pass ? "PASS" : "FAIL", rep.findings.size(),
                    rep.waivedCount(),
                    static_cast<unsigned long long>(rep.instsAnalyzed),
                    static_cast<unsigned long long>(rep.memPasses));

        JsonLine line;
        line.str("kind", "routine")
            .str("routine", rep.routine)
            .str("contract", ctContractName(rep.contract))
            .num("pass", rep.pass ? 1.0 : 0.0)
            .num("findings", double(rep.findings.size()))
            .num("waived", double(rep.waivedCount()))
            .num("violations", double(rep.violationCount()))
            .num("states", double(rep.instsAnalyzed))
            .num("rom_bytes", double(job.prog.romBytes()));
        appendJsonLine(out, line);

        for (const CtFinding &f : rep.findings) {
            if (verbose || !f.waived)
                std::printf("    pc=0x%04x %-16s %s%s\n", f.pc,
                            ctFindingClassName(f.cls),
                            f.disasm.c_str(),
                            f.waived ? "  [waived]" : "");
            JsonLine fl;
            fl.str("kind", "finding")
                .str("routine", rep.routine)
                .num("pc", double(f.pc))
                .str("class", ctFindingClassName(f.cls))
                .str("disasm", f.disasm)
                .num("waived", f.waived ? 1.0 : 0.0);
            appendJsonLine(out, fl);
        }
    }

    std::printf("jaavr-ctcheck: %s (%zu routines, report: %s)\n",
                allPass ? "all contracts hold" : "CONTRACT VIOLATIONS",
                jobs.size(), out.c_str());
    return allPass ? 0 : 1;
}
