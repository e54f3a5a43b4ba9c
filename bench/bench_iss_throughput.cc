/**
 * @file
 * Host-side ISS throughput benchmark: simulated instructions per
 * wall-second and simulated cycles per wall-second on representative
 * ECC workloads, measured through both ISS backends — the per-step
 * decode reference loop (step()) and the superblock-threaded trace
 * backend. Each workload is measured as 5 interleaved (reference,
 * superblock) sample pairs; the speedup is the median of the five
 * per-pair ratios, so one sample on a busy host cannot move it. Emits
 * one JSON line per (workload, backend) to BENCH_iss.json for
 * trajectory tracking across PRs.
 *
 * Workloads:
 *  - OPF Montgomery multiplication at 160/192/256 bits, all three
 *    CPU modes (the Table I / Table II measurement kernel);
 *  - a full secp160r1 field-op run (add + sub + mul + Kaliski inv);
 *  - the secp160r1 MAC-ISE multiplication kernel (Fig. 1 datapath).
 *
 * Environment:
 *  - JAAVR_BENCH_SECONDS: min wall seconds per sample (def 0.2); a
 *    workload takes ten samples
 *  - JAAVR_ISS_BACKEND selects the backend for ordinary runs
 *    elsewhere; this bench measures both legs explicitly and restores
 *    the environment's selection afterwards.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <vector>

#include "avrgen/opf_harness.hh"
#include "bench/bench_util.hh"
#include "field/opf_field.hh"
#include "nt/opf_prime.hh"
#include "support/logging.hh"
#include "support/random.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

constexpr const char *kJsonPath = "BENCH_iss.json";

/** Interleaved (reference, superblock) sample pairs per workload. */
constexpr int kPairs = 5;

double
minSeconds()
{
    const char *v = std::getenv("JAAVR_BENCH_SECONDS");
    double s = v ? std::atof(v) : 0.0;
    return s > 0 ? s : 0.2;
}

/** One measurement: wall time plus simulated-work counters. */
struct Sample
{
    double wallSeconds = 0;
    uint64_t simInstructions = 0;
    uint64_t simCycles = 0;
    uint64_t ops = 0;

    double ips() const { return simInstructions / wallSeconds; }
    double cps() const { return simCycles / wallSeconds; }

    Sample &
    operator+=(const Sample &o)
    {
        wallSeconds += o.wallSeconds;
        simInstructions += o.simInstructions;
        simCycles += o.simCycles;
        ops += o.ops;
        return *this;
    }
};

/**
 * Repeat @p one_op (one simulated routine call on @p m) until the
 * minimum wall time is reached; counters come from the machine's own
 * ExecStats so they are exact.
 */
Sample
measure(Machine &m, const std::function<void()> &one_op)
{
    using clock = std::chrono::steady_clock;
    one_op();  // warm-up (page in flash, caches, branch predictors)

    const double min_s = minSeconds();
    uint64_t i0 = m.stats().instructions;
    uint64_t c0 = m.stats().cycles;
    Sample s;
    auto t0 = clock::now();
    do {
        one_op();
        s.ops++;
        s.wallSeconds = std::chrono::duration<double>(clock::now() - t0)
                            .count();
    } while (s.wallSeconds < min_s);
    s.simInstructions = m.stats().instructions - i0;
    s.simCycles = m.stats().cycles - c0;
    return s;
}

/**
 * Measure both backends in kPairs interleaved (reference, superblock)
 * sample pairs, report, and emit one JSON line per backend with the
 * totals of its samples. The superblock line's speedup is the median
 * of the per-pair ratios, with their quartiles.
 */
void
compare(const std::string &workload, CpuMode mode, Machine &m,
        const std::function<void()> &one_op)
{
    const IssBackend initial_backend = m.backend();

    // The two legs of a pair run back to back, so they see nearly the
    // same host load; a pair whose host was busier moves one ratio of
    // five, not the median.
    Sample ref, sb;
    std::vector<double> ratios;
    for (int i = 0; i < kPairs; i++) {
        m.setBackend(IssBackend::Reference);
        const Sample r = measure(m, one_op);
        m.setBackend(IssBackend::Superblock);
        const Sample s = measure(m, one_op);
        ratios.push_back(s.ips() / r.ips());
        ref += r;
        sb += s;
    }
    m.setBackend(initial_backend);
    std::sort(ratios.begin(), ratios.end());
    const double q1 = ratios[kPairs / 4], median = ratios[kPairs / 2],
                 q3 = ratios[kPairs - 1 - kPairs / 4];

    std::printf("  %-22s %-4s  ref %7.2f  superblock %8.2f Minstr/s "
                "(x%.2f, x%.2f-%.2f)\n",
                workload.c_str(), cpuModeName(mode), ref.ips() / 1e6,
                sb.ips() / 1e6, median, q1, q3);

    auto row = [&](const char *path, const Sample &s, double speedup) {
        return benchLine("iss_throughput")
            .str("workload", workload)
            .str("mode", cpuModeName(mode))
            .str("path", path)
            .num("pairs", uint64_t(kPairs))
            .num("wall_s", s.wallSeconds)
            .num("ops", s.ops)
            .num("sim_instructions", s.simInstructions)
            .num("sim_cycles", s.simCycles)
            .num("sim_instructions_per_sec", s.ips())
            .num("sim_cycles_per_sec", s.cps())
            .num("speedup_vs_reference", speedup);
    };
    appendJsonLine(kJsonPath, row("reference", ref, 1.0));
    appendJsonLine(kJsonPath, row("superblock", sb, median)
                                  .num("speedup_q1", q1)
                                  .num("speedup_q3", q3));
}

/** OPF Montgomery-mul workload at p = u * 2^k + 1 in @p mode. */
void
opfMulWorkload(unsigned k, CpuMode mode)
{
    OpfPrime prime = makeOpf(0xff4c, k);
    OpfField field(prime);
    OpfAvrLibrary lib(prime, mode);
    Rng rng(k * 31 + static_cast<unsigned>(mode));
    auto a = field.fromBig(BigUInt::randomBits(rng, prime.k));
    auto b = field.fromBig(BigUInt::randomBits(rng, prime.k));
    std::string name = csprintf("opf_mul_%u", k + 16);
    compare(name, mode, lib.machine(), [&] { lib.mul(a, b); });
}

std::vector<uint32_t>
randomSecpWords(Rng &rng)
{
    // Top bit clear keeps the value below p = 2^160 - 2^31 - 1.
    std::vector<uint32_t> w(5);
    for (auto &word : w)
        word = rng.next32();
    w[4] &= 0x7fffffff;
    return w;
}

} // anonymous namespace

int
main()
{
    heading("ISS throughput: reference vs superblock backends");
    note(csprintf("%d interleaved sample pairs per workload, min %.2f "
                  "wall seconds per sample (JAAVR_BENCH_SECONDS)",
                  kPairs, minSeconds()));
    std::printf("\n");

    // OPF Montgomery multiplication; bench/baselines.json gates the
    // 256-bit CA and ISE rows.
    for (unsigned k : {144u, 176u, 240u}) {
        for (CpuMode mode : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE})
            opfMulWorkload(k, mode);
        separator();
    }

    // Full secp160r1 field-op run (inversion dominates the cycles).
    {
        auto lib = OpfAvrLibrary::secp160r1(CpuMode::FAST);
        Rng rng(7);
        auto a = randomSecpWords(rng);
        auto b = randomSecpWords(rng);
        compare("secp160_field_ops", CpuMode::FAST, lib.machine(), [&] {
            lib.add(a, b);
            lib.sub(a, b);
            lib.mul(a, b);
            lib.inv(a);
        });
    }

    // The MAC-ISE multiplication kernel (Algorithm 2 triggers).
    {
        auto lib = OpfAvrLibrary::secp160r1(CpuMode::ISE);
        Rng rng(9);
        auto a = randomSecpWords(rng);
        auto b = randomSecpWords(rng);
        compare("secp160_mul_mac_ise", CpuMode::ISE, lib.machine(),
                [&] { lib.mulIse(a, b); });
    }
    separator();

    note(csprintf("JSON lines appended to %s", kJsonPath));
    return 0;
}
