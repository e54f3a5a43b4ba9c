#include "avr/timing.hh"

namespace jaavr
{

const char *
cpuModeName(CpuMode mode)
{
    switch (mode) {
      case CpuMode::CA: return "CA";
      case CpuMode::FAST: return "FAST";
      case CpuMode::ISE: return "ISE";
    }
    return "?";
}

namespace
{

constexpr std::array<uint8_t, kNumOps>
cycleTable(bool fast)
{
    std::array<uint8_t, kNumOps> table{};
    for (size_t i = 0; i < kNumOps; i++)
        table[i] = fast ? kIsaForms[i].fast : kIsaForms[i].ca;
    return table;
}

constexpr std::array<uint8_t, kNumOps> kCaCycles = cycleTable(false);
constexpr std::array<uint8_t, kNumOps> kFastCycles = cycleTable(true);

} // anonymous namespace

const std::array<uint8_t, kNumOps> &
baseCycleTable(CpuMode mode)
{
    return mode == CpuMode::CA ? kCaCycles : kFastCycles;
}

unsigned
skipExtra(bool two_word_target)
{
    return two_word_target ? 2 : 1;
}

} // namespace jaavr
