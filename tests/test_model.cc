/**
 * @file
 * Tests of the evaluation models: field-op cycle costs, the cycle
 * executor, area/power models, SARP, and the experiment runners'
 * shape properties (the relationships the paper's conclusions rest
 * on).
 */

#include <gtest/gtest.h>

#include "model/area_power.hh"
#include "model/cycle_executor.hh"
#include "model/experiments.hh"
#include "model/field_costs.hh"
#include "curves/standard_curves.hh"

using namespace jaavr;

TEST(FieldCosts, OrderingAcrossModes)
{
    const OpfPrime &p = paperOpfPrime();
    auto ca = opfFieldCosts(p, CpuMode::CA);
    auto fast = opfFieldCosts(p, CpuMode::FAST);
    auto ise = opfFieldCosts(p, CpuMode::ISE);

    EXPECT_GT(ca.add, fast.add);
    EXPECT_EQ(fast.add, ise.add);  // the MAC does not speed up adds
    EXPECT_GT(ca.mul, fast.mul);
    EXPECT_GT(fast.mul, 3 * ise.mul);
    EXPECT_EQ(ca.sqr, ca.mul);
    EXPECT_LT(ca.mulSmall, ca.mul / 2);
    EXPECT_GT(ca.inv, 100000u);
    EXPECT_LT(ca.inv, 250000u);
}

TEST(FieldCosts, CachedAcrossCalls)
{
    const FieldCycleCosts &a = opfFieldCosts(paperOpfPrime(), CpuMode::CA);
    const FieldCycleCosts &b = opfFieldCosts(paperOpfPrime(), CpuMode::CA);
    EXPECT_EQ(&a, &b);
}

TEST(FieldCosts, Secp160r1SlightlySlowerMul)
{
    auto opf = opfFieldCosts(paperOpfPrime(), CpuMode::CA);
    auto sec = secp160r1FieldCosts(CpuMode::CA);
    EXPECT_GT(sec.mul, opf.mul);
    EXPECT_LT(sec.mul, opf.mul * 125 / 100);
    // The adds differ only in the reduction fold; same ballpark.
    EXPECT_GT(sec.add, opf.add * 70 / 100);
    EXPECT_LT(sec.add, opf.add * 130 / 100);
}

TEST(CycleExecutor, CountsAndConverts)
{
    FieldCycleCosts c;
    c.add = 10;
    c.sub = 11;
    c.mul = 100;
    c.sqr = 90;
    c.mulSmall = 30;
    c.inv = 5000;
    c.callOverhead = 1;
    CycleExecutor exec(c);

    PrimeField f(BigUInt(10007));
    Rng rng(131);
    BigUInt a = f.random(rng), b = f.random(rng);
    MeasuredRun run = exec.measure(f, [&] {
        f.mul(a, b);
        f.sqr(a);
        f.add(a, b);
        f.inv(BigUInt(3));
    });
    EXPECT_EQ(run.ops.mul, 1u);
    EXPECT_EQ(run.ops.sqr, 1u);
    EXPECT_EQ(run.ops.add, 1u);
    EXPECT_EQ(run.ops.inv, 1u);
    EXPECT_EQ(run.cycles, 100u + 90 + 10 + 5000 + 4 /*overhead*/);
}

TEST(CycleExecutor, RestoresPreviousCounter)
{
    FieldCycleCosts c;
    CycleExecutor exec(c);
    PrimeField f(BigUInt(10007));
    FieldOpCounts outer;
    f.attachCounter(&outer);
    exec.measure(f, [&] { f.add(BigUInt(1), BigUInt(2)); });
    EXPECT_EQ(f.attachedCounter(), &outer);
    f.attachCounter(nullptr);
}

TEST(AreaModel, MatchesPaperCalibrationPoints)
{
    // The RAM fit must reproduce the paper's (bytes, GE) pairs.
    EXPECT_NEAR(AreaModel::ramGe(505), 4359, 60);
    EXPECT_NEAR(AreaModel::ramGe(528), 4485, 60);
    EXPECT_NEAR(AreaModel::ramGe(567), 4712, 60);
    EXPECT_NEAR(AreaModel::ramGe(865), 6450, 60);
    // ROM slope.
    EXPECT_NEAR(AreaModel::romGe(6224), 9091, 200);
    EXPECT_NEAR(AreaModel::romGe(8638), 12413, 200);
    // Core sizes are the Table I constants.
    EXPECT_EQ(AreaModel::coreGe(CpuMode::CA), 6166);
    EXPECT_EQ(AreaModel::coreGe(CpuMode::FAST), 6800);
    EXPECT_EQ(AreaModel::coreGe(CpuMode::ISE), 8344);
}

TEST(AreaModel, ChipTotalsAddUp)
{
    AreaBreakdown a = AreaModel::chip(CpuMode::CA, 6000, 500);
    EXPECT_DOUBLE_EQ(a.total(), a.coreGe + a.romGe + a.ramGe);
    EXPECT_GT(a.total(), 15000);
}

TEST(PowerModel, RangesMatchPaper)
{
    // Paper: CPU 17-22 uW, RAM 1.2-5.4 uW, ROM up to ~110 uW.
    for (CpuMode m : {CpuMode::CA, CpuMode::FAST, CpuMode::ISE}) {
        EXPECT_GE(PowerModel::cpuUw(m), 17.0);
        EXPECT_LE(PowerModel::cpuUw(m), 22.0);
    }
    EXPECT_LT(PowerModel::ramUw(505), 5.4);
    EXPECT_GT(PowerModel::ramUw(865), 1.2);
    EXPECT_LT(PowerModel::romUw(6224), 120.0);
}

TEST(PowerModel, EnergyScalesWithCycles)
{
    PowerBreakdown p = PowerModel::chip(CpuMode::CA, 6000, 500);
    double e1 = PowerModel::energyUj(p, 1000000);
    double e2 = PowerModel::energyUj(p, 2000000);
    EXPECT_NEAR(e2, 2 * e1, 1e-9);
    // ~100-200 uW for 1M cycles at 1 MHz -> 100-200 uJ.
    EXPECT_GT(e1, 50);
    EXPECT_LT(e1, 300);
}

TEST(Sarp, ReferenceIsOneAndOrderingWorks)
{
    EXPECT_DOUBLE_EQ(sarp(100, 1000, 100, 1000), 1.0);
    // Smaller and faster is better (higher).
    EXPECT_GT(sarp(100, 1000, 50, 1000), 1.0);
    EXPECT_GT(sarp(100, 1000, 100, 500), 1.0);
    EXPECT_LT(sarp(100, 1000, 200, 2000), 1.0);
    // The paper's GLV/CA row: 1.40.
    EXPECT_NEAR(sarp(19742, 6982629, 25029, 3930256), 1.40, 0.01);
}

TEST(Experiments, TableTwoOrderingHolds)
{
    // The headline result: GLV < Montgomery ~ Edwards < Weierstrass
    // < secp160r1 for the high-speed methods on the ATmega128.
    // The Weierstrass-vs-secp160r1 gap is only ~3%, so average over
    // several scalars to push the NAF-density noise well below it.
    Rng rng(132);
    auto glv = measurePointMultAvg(CurveId::GlvOpf, PmMethod::GlvJsf,
                                   CpuMode::CA, rng, 10);
    auto mon = measurePointMultAvg(CurveId::MontgomeryOpf,
                                   PmMethod::XzLadder, CpuMode::CA, rng,
                                   10);
    auto edw = measurePointMultAvg(CurveId::EdwardsOpf, PmMethod::Naf,
                                   CpuMode::CA, rng, 10);
    auto wei = measurePointMultAvg(CurveId::WeierstrassOpf, PmMethod::Naf,
                                   CpuMode::CA, rng, 10);
    auto sec = measurePointMultAvg(CurveId::Secp160r1, PmMethod::Naf,
                                   CpuMode::CA, rng, 10);

    EXPECT_LT(glv.run.cycles, mon.run.cycles);
    EXPECT_LT(glv.run.cycles, edw.run.cycles);
    EXPECT_LT(mon.run.cycles, wei.run.cycles);
    EXPECT_LT(edw.run.cycles, wei.run.cycles);
    EXPECT_LT(wei.run.cycles, sec.run.cycles);

    // Absolute scale: millions of cycles, not thousands.
    EXPECT_GT(glv.run.cycles, 2000000u);
    EXPECT_LT(sec.run.cycles, 12000000u);
}

TEST(Experiments, ConstantTimeMontgomeryIsBest)
{
    // Among the constant-pattern methods the Montgomery ladder wins
    // (the paper's second conclusion).
    Rng rng(133);
    auto mon = measurePointMult(CurveId::MontgomeryOpf, PmMethod::XzLadder,
                                CpuMode::CA, rng);
    auto wei = measurePointMult(CurveId::WeierstrassOpf,
                                PmMethod::CozLadder, CpuMode::CA, rng);
    auto edw = measurePointMult(CurveId::EdwardsOpf, PmMethod::Daaa,
                                CpuMode::CA, rng);
    auto glv = measurePointMult(CurveId::GlvOpf, PmMethod::CozLadder,
                                CpuMode::CA, rng);
    EXPECT_LT(mon.run.cycles, wei.run.cycles);
    EXPECT_LT(mon.run.cycles, edw.run.cycles);
    EXPECT_LT(mon.run.cycles, glv.run.cycles);
}

TEST(Experiments, IseBelowOnePointFiveMillion)
{
    // Abstract: "taking advantage of the MAC unit, the time for a
    // full 160-bit scalar multiplication falls below 1M cycles"
    // (GLV); the Montgomery ladder needs ~1.3M. Our mul is ~20%
    // heavier, so check the relaxed bounds and the relationship.
    Rng rng(134);
    auto glv = measurePointMult(CurveId::GlvOpf, PmMethod::GlvJsf,
                                CpuMode::ISE, rng);
    auto mon = measurePointMult(CurveId::MontgomeryOpf, PmMethod::XzLadder,
                                CpuMode::ISE, rng);
    EXPECT_LT(glv.run.cycles, 1500000u);
    EXPECT_LT(mon.run.cycles, 1700000u);
    EXPECT_LT(glv.run.cycles, mon.run.cycles);
}

TEST(Experiments, FootprintsSane)
{
    for (CurveId c : {CurveId::WeierstrassOpf, CurveId::EdwardsOpf,
                      CurveId::MontgomeryOpf, CurveId::GlvOpf}) {
        CurveFootprint fp = curveFootprint(c, CpuMode::CA);
        EXPECT_GT(fp.romBytes, 4000u);
        EXPECT_LT(fp.romBytes, 20000u);
        EXPECT_GT(fp.ramBytes, 400u);
        EXPECT_LT(fp.ramBytes, 1000u);
    }
    // GLV needs the most RAM (JSF digit arrays + table), as in the
    // paper's 865-byte row.
    EXPECT_GT(curveFootprint(CurveId::GlvOpf, CpuMode::CA).ramBytes,
              curveFootprint(CurveId::EdwardsOpf, CpuMode::CA).ramBytes);
}

TEST(Experiments, MethodUnavailablePanics)
{
    Rng rng(135);
    EXPECT_DEATH(measurePointMult(CurveId::MontgomeryOpf, PmMethod::Naf,
                                  CpuMode::CA, rng),
                 "not available");
}
