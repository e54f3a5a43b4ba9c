/**
 * @file
 * Benchmark driver: runs one workload against the unmodified
 * libraries and prints its notes followed by one JSON result line.
 * perfbench/run.py builds this binary, repeats the set-up phase in
 * separate processes, and turns the result into the final record.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    [--setup-only] [--corrupt-golden]
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hh"

namespace perfbench
{

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * double(v.size())));
    return v[std::min(rank ? rank - 1 : 0, v.size() - 1)];
}

double
peakRssMiB()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload iss_ladder|svc_sign_closed|"
                 "svc_mixed_paced --seed N --seconds S --trace 0|1 "
                 "[--setup-only] [--corrupt-golden]\n",
                 argv0);
    std::exit(2);
}

void
printObject(const std::vector<std::pair<std::string, double>> &kv)
{
    std::printf("{");
    for (size_t i = 0; i < kv.size(); i++)
        std::printf("%s\"%s\": %.17g", i ? ", " : "", kv[i].first.c_str(),
                    kv[i].second);
    std::printf("}");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveWorkload = false;
    for (int i = 1; i < argc; i++) {
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--workload")) {
            opt.workload = value();
            haveWorkload = true;
        } else if (!std::strcmp(argv[i], "--seed")) {
            opt.seed = std::strtoull(value(), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--seconds")) {
            opt.seconds = std::atof(value());
        } else if (!std::strcmp(argv[i], "--trace")) {
            opt.trace = std::atoi(value()) != 0;
        } else if (!std::strcmp(argv[i], "--setup-only")) {
            opt.setupOnly = true;
        } else if (!std::strcmp(argv[i], "--corrupt-golden")) {
            opt.corruptGolden = true;
        } else {
            usage(argv[0]);
        }
    }
    if (!haveWorkload || !(opt.seconds > 0) || opt.seconds > 60)
        usage(argv[0]);

    Report rep;
    if (opt.workload == "iss_ladder")
        runIssLadder(opt, rep);
    else if (opt.workload == "svc_sign_closed")
        runSignClosed(opt, rep);
    else if (opt.workload == "svc_mixed_paced")
        runMixedPaced(opt, rep);
    else
        usage(argv[0]);

    if (opt.trace && !opt.setupOnly)
        runLayerLadder(opt, rep);

    if (!opt.setupOnly && !opt.trace) {
        double ok = rep.attempted
                        ? double(rep.attempted - rep.failed) /
                              double(rep.attempted)
                        : 0.0;
        rep.e2e("ok_op_ratio", ok);
    }
    if (rep.failed)
        rep.fail(std::to_string(rep.failed) + " of " +
                 std::to_string(rep.attempted) +
                 " ops failed or were refused");

    for (const std::string &n : rep.notes)
        std::printf("%s\n", n.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"setup_s\": %.17g, \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"metrics\": ",
                rep.correct ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), rep.setupS,
                PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
    printObject(opt.trace ? rep.perLayer : rep.endToEnd);
    std::printf(", \"exact\": ");
    printObject(rep.exact);
    std::printf(", \"params\": ");
    printObject(rep.params);
    std::printf("}\n");
    return 0;
}
