/**
 * @file
 * The experiment definitions shared by the Table II / Table III
 * benchmark binaries: which curve runs which point-multiplication
 * method, how a run is measured, and the per-configuration memory
 * footprints feeding the area model.
 */

#ifndef JAAVR_MODEL_EXPERIMENTS_HH
#define JAAVR_MODEL_EXPERIMENTS_HH

#include <string>

#include "model/cycle_executor.hh"
#include "support/random.hh"

namespace jaavr
{

/** The five curve configurations of the paper's evaluation. */
enum class CurveId
{
    Secp160r1,     ///< standardized reference curve
    WeierstrassOpf,
    EdwardsOpf,
    MontgomeryOpf,
    GlvOpf,
};

/** Point-multiplication methods (Table II's "Method" column). */
enum class PmMethod
{
    Naf,       ///< NAF double-and-add (high speed)
    Daaa,      ///< double-and-add-always (constant pattern)
    CozLadder, ///< Montgomery ladder via co-Z additions ("Mon")
    XzLadder,  ///< x-only Montgomery-curve ladder ("Mon")
    GlvJsf,    ///< endomorphism + JSF ("End, JSF")
};

const char *curveName(CurveId id);
const char *methodName(PmMethod m);

/** One measured scalar multiplication. */
struct PointMultMeasurement
{
    CurveId curve;
    PmMethod method;
    CpuMode mode;
    MeasuredRun run;
};

/**
 * Execute a full scalar multiplication of the given configuration on
 * the host golden model with cycle accounting (ISS-measured field-op
 * costs for @p mode). The scalar is drawn from @p rng (reduced mod
 * the group order where it is known).
 */
PointMultMeasurement
measurePointMult(CurveId curve, PmMethod method, CpuMode mode, Rng &rng);

/**
 * Repeat @p measurePointMult over @p samples random scalars and
 * return the measurement with the mean cycle count (NAF/JSF runtimes
 * are data-dependent).
 */
PointMultMeasurement
measurePointMultAvg(CurveId curve, PmMethod method, CpuMode mode,
                    Rng &rng, int samples);

/** Program and data memory footprint of a configuration. */
struct CurveFootprint
{
    size_t romBytes;
    size_t ramBytes;
};

/**
 * Memory footprint model: ROM = measured bytes of the generated OPF
 * field routines for the mode plus a per-curve estimate of the
 * point-arithmetic and driver code; RAM = the sum of the live
 * field-element buffers, scalar/recoding storage, and stack of the
 * method (itemized in experiments.cc). EXPERIMENTS.md discusses the
 * calibration.
 */
CurveFootprint curveFootprint(CurveId curve, CpuMode mode);

} // namespace jaavr

#endif // JAAVR_MODEL_EXPERIMENTS_HH
