/**
 * @file
 * Shared pieces of the benchmark driver: options, the result report,
 * seeded per-op input streams, percentiles, and the accumulating
 * timers the traced run wraps around calls into the libraries.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/random.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Run only the timed set-up, report it, and exit. */
    bool setupOnly = false;
    /** Self-test: corrupt one expected value before the golden check. */
    bool corruptGolden = false;
};

/**
 * What one run measured. End-to-end metrics are filled by the
 * untraced pass, per-layer metrics by the traced run; exact counts
 * (simulated cycles, call and field-op counts) by both, so two runs
 * can be compared bit for bit.
 */
struct Report
{
    std::vector<std::pair<std::string, double>> endToEnd;
    std::vector<std::pair<std::string, double>> perLayer;
    std::vector<std::pair<std::string, double>> exact;
    /** Workload parameters, for the run stamp. */
    std::vector<std::pair<std::string, double>> params;
    std::vector<std::string> notes;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    bool correct = true;
    double setupS = 0;

    void e2e(const std::string &n, double v) { endToEnd.emplace_back(n, v); }
    void layer(const std::string &n, double v) { perLayer.emplace_back(n, v); }
    void count(const std::string &n, double v) { exact.emplace_back(n, v); }
    void param(const std::string &n, double v) { params.emplace_back(n, v); }
    void note(const std::string &line) { notes.push_back(line); }
    /** A correctness failure of the benchmark's own checks. */
    void fail(const std::string &why)
    {
        correct = false;
        notes.push_back("CHECK FAILED: " + why);
    }
};

/** splitmix64 finalizer. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Input stream of op @p i of stream @p stream: ops draw their inputs
 * from their own generator, so any op's inputs can be regenerated for
 * the golden check without storing them.
 */
inline jaavr::Rng
opRng(uint64_t seed, uint64_t stream, uint64_t i)
{
    return jaavr::Rng(mix64(seed ^ mix64((stream << 48) ^ i)));
}

/** Nearest-rank percentile @p p in [0, 100] of @p v (copy; empty -> 0). */
double percentile(std::vector<double> v, double p);

/**
 * Consecutive slices a run's per-op samples are cut into. On a shared
 * 4-vCPU x86-64 VM single-thread speed changes by +-10 % over
 * fractions of a second, so host-time metrics are the median over the
 * slices of the per-slice figure rather than one figure over the run.
 */
inline constexpr size_t kSlices = 20;

/** Median over kSlices consecutive equal slices of @p v of stat(slice). */
template <class F>
double
sliceMedian(const std::vector<double> &v, F &&stat)
{
    std::vector<double> per;
    const size_t k = std::min(kSlices, v.size());
    for (size_t j = 0; j < k; j++)
        per.push_back(stat(std::vector<double>(
            v.begin() + long(j * v.size() / k),
            v.begin() + long((j + 1) * v.size() / k))));
    return percentile(per, 50);
}

/** sliceMedian of the slices' percentile @p p. */
inline double
slicePercentile(const std::vector<double> &v, double p)
{
    return sliceMedian(v, [p](const std::vector<double> &s) {
        return percentile(s, p);
    });
}

/**
 * Median over kSlices consecutive slices of the ops completed per
 * second within the slice; @p doneS holds the completion times in
 * seconds since the window opened, ascending.
 */
inline double
sliceThroughput(const std::vector<double> &doneS)
{
    std::vector<double> per;
    const size_t n = doneS.size(), k = std::min(kSlices, n);
    for (size_t j = 0; j < k; j++) {
        size_t a = j * n / k, b = (j + 1) * n / k;
        double start = a ? doneS[a - 1] : 0.0;
        per.push_back(double(b - a) / (doneS[b - 1] - start));
    }
    return percentile(per, 50);
}

/** Peak resident set size of this process in MiB. */
double peakRssMiB();

/** Accumulated host time of the calls one traced span wraps. */
struct SpanAcc
{
    uint64_t calls = 0;
    double ns = 0;

    double meanNs() const { return calls ? ns / double(calls) : 0.0; }
};

/** Run @p f, adding its host time to @p acc. */
template <class F>
decltype(auto)
timed(SpanAcc &acc, F &&f)
{
    struct Stop
    {
        SpanAcc &acc;
        Clock::time_point t0 = Clock::now();
        ~Stop()
        {
            acc.calls++;
            acc.ns += nsBetween(t0, Clock::now());
        }
    } stop{acc};
    return f();
}

/**
 * A percentile for a latency metric: the value a failed request
 * counts as (+inf in the definition) is reported as this finite
 * stand-in, the run's hard time limit.
 */
inline constexpr double kFailedLatencyUs = 180e6;

// Workloads (each fills the report for its own pass).
void runIssLadder(const Options &opt, Report &rep);
void runSignClosed(const Options &opt, Report &rep);
void runMixedPaced(const Options &opt, Report &rep);

/** Single-threaded layer ladder of the traced run (bigint/field/curves). */
void runLayerLadder(const Options &opt, Report &rep);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
