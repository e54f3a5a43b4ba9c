/**
 * @file
 * Ablation: WHY Optimal Prime Fields — the paper's §II-A argument,
 * measured. An OPF performs its Montgomery reduction through
 * multiplications (s^2 + s word MACs total), so the MAC unit
 * accelerates the *whole* multiplication; a generalized-Mersenne
 * prime like secp160r1's reduces through additions, which the MAC
 * cannot touch. Both routine sets are generated assembly measured on
 * the ISS.
 */

#include "avrgen/opf_harness.hh"
#include "bench/bench_util.hh"
#include "field/montgomery_domain.hh"
#include "field/opf_field.hh"
#include "model/field_costs.hh"
#include "nt/opf_prime.hh"
#include "support/random.hh"

using namespace jaavr;
using namespace jaavr::bench;

int
main()
{
    heading("Ablation: OPF vs. generalized-Mersenne (secp160r1) "
            "modular multiplication");

    std::printf("  %-28s | %8s %8s %8s | %s\n", "field", "CA", "FAST",
                "ISE", "ISE speed-up vs CA");
    separator();
    uint64_t opf_cyc[3], sec_cyc[3];
    CpuMode modes[3] = {CpuMode::CA, CpuMode::FAST, CpuMode::ISE};
    for (int m = 0; m < 3; m++) {
        opf_cyc[m] = opfFieldCosts(paperOpfPrime(), modes[m]).mul;
        sec_cyc[m] = secp160r1FieldCosts(modes[m]).mul;
    }
    std::printf("  %-28s | %8llu %8llu %8llu | %.2fx\n",
                "OPF p = 65356*2^144+1",
                (unsigned long long)opf_cyc[0],
                (unsigned long long)opf_cyc[1],
                (unsigned long long)opf_cyc[2],
                double(opf_cyc[0]) / opf_cyc[2]);
    std::printf("  %-28s | %8llu %8llu %8llu | %.2fx\n",
                "secp160r1 p = 2^160-2^31-1",
                (unsigned long long)sec_cyc[0],
                (unsigned long long)sec_cyc[1],
                (unsigned long long)sec_cyc[2],
                double(sec_cyc[0]) / sec_cyc[2]);

    // Third data point: give secp160r1 the MAC for its product phase
    // (something the paper did not build) -- the additive reduction
    // still leaves it behind the OPF.
    {
        Rng r2(0xab10);
        auto ise = OpfAvrLibrary::secp160r1(CpuMode::ISE);
        BigUInt a = BigUInt::randomBits(r2, 159);
        BigUInt b2 = BigUInt::randomBits(r2, 159);
        uint64_t mac_mul =
            ise.mulIse(a.toWords(5), b2.toWords(5)).cycles;
        std::printf("  %-28s | %8s %8s %8llu | %.2fx\n",
                    "secp160r1 + MAC product", "-", "-",
                    (unsigned long long)mac_mul,
                    double(sec_cyc[0]) / mac_mul);
    }

    heading("The word-MAC accounting behind it (paper Section II-A)");
    Rng rng(0xab0f);
    OpfField opf(paperOpfPrime());
    MontgomeryDomain gen(paperOpfPrime().p);
    BigUInt a = BigUInt::random(rng, paperOpfPrime().p);
    BigUInt b = BigUInt::random(rng, paperOpfPrime().p);
    opf.montMul(opf.toMont(a), opf.toMont(b));
    gen.montMul(gen.toMont(a), gen.toMont(b));
    row("OPF word MACs per mul (s^2+s)", 30,
        double(opf.lastStats().wordMacs), "");
    row("general-modulus word MACs (2s^2+s)", 55,
        double(gen.lastWordMacs()), "");

    note("shape: the low-weight prime halves the word multiplications "
         "AND keeps the");
    note("reduction in multiply form, so the MAC unit's benefit "
         "applies end to end");
    note("(5.3x here). Even handing secp160r1's product phase to the "
         "MAC (a variant");
    note("the paper did not build) leaves it ~20% behind the OPF: "
         "the reduction's");
    note("s extra MAC blocks are cheaper than the fold's loads, "
         "stores and adds.");
    return 0;
}
