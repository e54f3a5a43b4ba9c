/**
 * @file
 * Reproduction of Table III: the full 4-curve x 3-mode matrix of
 * point-multiplication cycles, memory footprints, chip area, power,
 * energy, and the Scaled Area-Runtime Product (SARP; higher is
 * better, normalized to the Weierstrass/CA configuration).
 */

#include <map>
#include <vector>

#include "bench/bench_util.hh"
#include "model/area_power.hh"
#include "model/experiments.hh"

using namespace jaavr;
using namespace jaavr::bench;

namespace
{

struct PaperRow
{
    CurveId curve;
    CpuMode mode;
    double cycles;  ///< paper's point-mult cycles
    double rom_bytes;
    double total_ge;
    double sarp;
};

const PaperRow kPaper[] = {
    {CurveId::WeierstrassOpf, CpuMode::CA, 6982629, 6224, 19742, 1.00},
    {CurveId::EdwardsOpf, CpuMode::CA, 5596860, 6022, 19572, 1.26},
    {CurveId::MontgomeryOpf, CpuMode::CA, 5545078, 6824, 20068, 1.24},
    {CurveId::GlvOpf, CpuMode::CA, 3930256, 8638, 25029, 1.40},
    {CurveId::WeierstrassOpf, CpuMode::FAST, 5254706, 6224, 20355, 1.29},
    {CurveId::EdwardsOpf, CpuMode::FAST, 4214289, 6022, 20208, 1.62},
    {CurveId::MontgomeryOpf, CpuMode::FAST, 4165405, 6824, 20695, 1.60},
    {CurveId::GlvOpf, CpuMode::FAST, 2939929, 8638, 25665, 1.83},
    {CurveId::WeierstrassOpf, CpuMode::ISE, 1542981, 6290, 21546, 4.15},
    {CurveId::EdwardsOpf, CpuMode::ISE, 1230663, 6128, 21266, 5.27},
    {CurveId::MontgomeryOpf, CpuMode::ISE, 1299598, 5752, 20980, 5.06},
    {CurveId::GlvOpf, CpuMode::ISE, 1001302, 8640, 26858, 5.13},
};

/** High-speed method per curve (what Table III times). */
PmMethod
methodFor(CurveId curve)
{
    switch (curve) {
      case CurveId::EdwardsOpf: return PmMethod::Naf;
      case CurveId::MontgomeryOpf: return PmMethod::XzLadder;
      case CurveId::GlvOpf: return PmMethod::GlvJsf;
      default: return PmMethod::Naf;
    }
}

struct MeasuredRow
{
    const PaperRow *paper;
    uint64_t cycles;
    CurveFootprint fp;
    AreaBreakdown area;
    PowerBreakdown power;
    double energyUj;
    double sarp = 0;
};

} // anonymous namespace

int
main()
{
    heading("Table III: point mult cycles / ROM / area / power / SARP "
            "per curve and mode");

    // Each curve's FAST and ISE rows time the scalars its CA row drew
    // (the CA rows come first), so the per-curve CA->FAST and CA->ISE
    // ratios divide the costs of the same scalars.
    Rng rng(0x7ab3);
    std::map<CurveId, Rng> caDraws;
    std::vector<MeasuredRow> rows;
    for (const PaperRow &pr : kPaper) {
        MeasuredRow r;
        r.paper = &pr;
        if (pr.mode == CpuMode::CA)
            caDraws.emplace(pr.curve, rng);
        Rng draw = caDraws.at(pr.curve);
        auto m = measurePointMultAvg(pr.curve, methodFor(pr.curve),
                                     pr.mode,
                                     pr.mode == CpuMode::CA ? rng : draw, 3);
        r.cycles = m.run.cycles;
        r.fp = curveFootprint(pr.curve, pr.mode);
        r.area = AreaModel::chip(pr.mode, r.fp.romBytes, r.fp.ramBytes);
        r.power = PowerModel::chip(pr.mode, r.fp.romBytes, r.fp.ramBytes);
        r.energyUj = PowerModel::energyUj(r.power, r.cycles);
        rows.push_back(r);
    }

    // SARP normalized to the Weierstrass/CA row (index 0).
    double ref_area = rows[0].area.total();
    uint64_t ref_cycles = rows[0].cycles;
    for (MeasuredRow &r : rows)
        r.sarp = sarp(ref_area, ref_cycles, r.area.total(), r.cycles);

    std::printf("  %-12s %-5s | %13s %13s | %8s %8s | %7s %7s | %6s %6s\n",
                "Curve", "Mode", "cyc(paper)", "cyc(ours)", "ROM(p)",
                "ROM(o)", "GE(p)", "GE(o)", "SARP-p", "SARP-o");
    separator();
    for (const MeasuredRow &r : rows) {
        std::printf("  %-12s %-5s | %13.0f %13llu | %8.0f %8zu | "
                    "%7.0f %7.0f | %6.2f %6.2f\n",
                    curveName(r.paper->curve), cpuModeName(r.paper->mode),
                    r.paper->cycles,
                    static_cast<unsigned long long>(r.cycles),
                    r.paper->rom_bytes, r.fp.romBytes, r.paper->total_ge,
                    r.area.total(), r.paper->sarp, r.sarp);
    }

    heading("Table III details (our model): power and energy at 1 MHz");
    for (const MeasuredRow &r : rows) {
        std::printf("  %-12s %-5s | CPU %5.1f uW  ROM %6.1f uW  RAM "
                    "%4.1f uW | total %6.1f uW | energy %7.1f uJ\n",
                    curveName(r.paper->curve), cpuModeName(r.paper->mode),
                    r.power.cpuUw, r.power.romUw, r.power.ramUw,
                    r.power.total(), r.energyUj);
    }
    note("paper: CPU 17-22 uW, RAM 1.2-5.4 uW, ROM up to 110 uW; "
         "energy 455-969 uJ per point multiplication in CA mode");

    heading("Section V-C shape checks");
    // Both columns apply one formula to the same rows: the paper's
    // "~33 % faster" is CA/FAST - 1 of its own Table III cycles, and
    // its 3.9-4.5x MAC speed-up is CA/ISE of each curve.
    double paper_avg = 0, ours_avg = 0;
    for (int i = 0; i < 4; i++) {
        double paper = 100.0 * (rows[i].paper->cycles /
                                    rows[i + 4].paper->cycles - 1.0);
        double ours = 100.0 * (double(rows[i].cycles) /
                                   double(rows[i + 4].cycles) - 1.0);
        rowF(std::string(curveName(rows[i].paper->curve)) +
                 " CA->FAST speed-up",
             paper, ours, "%");
        paper_avg += paper / 4;
        ours_avg += ours / 4;
    }
    rowF("CA->FAST speed-up (avg)", paper_avg, ours_avg, "%");
    for (int i = 0; i < 4; i++) {
        rowF(std::string(curveName(rows[i].paper->curve)) +
                 " CA->ISE point-mult speed-up",
             rows[i].paper->cycles / rows[i + 8].paper->cycles,
             double(rows[i].cycles) / double(rows[i + 8].cycles), "x");
    }
    // Best ISE-mode SARP belongs to Edwards.
    int best = 8;
    for (int i = 9; i < 12; i++)
        if (rows[i].sarp > rows[best].sarp)
            best = i;
    note(std::string("best ISE-mode SARP: ") +
         curveName(rows[best].paper->curve) +
         " (paper: Edwards, by a small margin)");
    return 0;
}
