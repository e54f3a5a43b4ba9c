/**
 * @file
 * The run stamp every bench record starts with (bench/bench_util.hh
 * benchLine()): schema, revision and ISS path, then the build type
 * and compiler baked in at configure time and the host CPU, so rows
 * from different builds or hosts are never compared unawares.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "bench/bench_util.hh"

using namespace jaavr;

namespace
{

/** The first "model name" of /proc/cpuinfo, read independently. */
std::string
procCpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        const size_t b = line.find_first_not_of(" \t", colon + 1);
        if (colon != std::string::npos && b != std::string::npos)
            return line.substr(b, line.find_last_not_of(" \t\r") - b + 1);
    }
    return "unknown";
}

} // anonymous namespace

TEST(BenchUtil, BenchLineStampsBuildAndCpu)
{
    JsonObject obj;
    std::string err;
    ASSERT_TRUE(parseJsonLine(bench::benchLine("unit").text(), obj, &err))
        << err;
    for (const char *key : {"git_sha", "iss_path", "bench", "build_type",
                            "compiler", "cpu"}) {
        ASSERT_TRUE(obj.count(key) && obj[key].isStr()) << key;
        EXPECT_FALSE(obj[key].str.empty()) << key;
    }
    EXPECT_EQ(obj["bench"].str, "unit");
    EXPECT_EQ(obj["build_type"].str, JAAVR_BUILD_TYPE);
    EXPECT_EQ(obj["compiler"].str, JAAVR_COMPILER);
    EXPECT_NE(obj["build_type"].str, "unknown");
    EXPECT_NE(obj["compiler"].str, "unknown");
    EXPECT_EQ(obj["cpu"].str, procCpuModel());
}
