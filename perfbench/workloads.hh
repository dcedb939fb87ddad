/**
 * @file
 * The benchmark's three workloads, each a sweep the repo's own benches
 * run: the spec list, the reps per sweep and the library TrialFn,
 * unchanged. Also the per-sweep output check and the set-up probe.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/result_sink.hh"
#include "harness/spec.hh"
#include "harness/trial_runner.hh"

namespace perfbench {

/** Receiver family of a sweep; selects the attack a trial builds. */
enum class Kind
{
    Victim, //!< victimSpecs + victimTrialFn
    Matrix, //!< matrixSpecs + matrixTrialFn
    Fig13   //!< fig13_noisy_host's 30 specs and trial body
};

struct Workload
{
    std::string name;
    Kind kind = Kind::Matrix;
    std::vector<unxpec::ExperimentSpec> specs;
    /** Reps of every spec in one sweep. */
    unsigned reps = 1;
    /** Receiver samples per class (matrix) or AES plaintexts (victim). */
    unsigned scale = 0;
    /** The library's trial function for this sweep, unchanged. */
    unxpec::TrialFn fn;
};

/** The named workload; exits with a diagnostic on an unknown name. */
Workload makeWorkload(const std::string &name);

/** Outcome of checking one sweep's outputs. */
struct Check
{
    unsigned attempted = 0; //!< trials run plus claims checked
    unsigned failed = 0;    //!< censored/missing trials plus violated claims
    std::vector<std::string> failures;
};

/**
 * Check a sweep against the claims CI asserts on the same runs: no
 * censored or missing trial; victim-keyrec's unsafe row recovers the
 * whole AES key and RSA exponent in every trial; on defense-matrix,
 * safespec and cachesquash close the unxpec receiver (AUC <= 0.6) and
 * leave the contention receiver open (AUC >= 0.95).
 */
Check checkOutputs(const Workload &workload,
                   const unxpec::ExperimentResult &result);

/**
 * The sweep's analysis step: for the matrix-shaped workloads, build
 * the MatrixReport and serialise it as matrix_campaign and
 * victim_recovery do. Returns the serialised report ("" for fig13).
 */
std::string analyse(const Workload &workload,
                    const unxpec::ExperimentResult &result);

/** The result's JSON artifact text (rows, values included). */
std::string resultText(const unxpec::ExperimentResult &result);

/** 64-bit FNV-1a of `text`, as 16 hex digits. */
std::string digestOf(const std::string &text);

/**
 * What a bench invocation pays before its first simulated cycle: one
 * Session per spec on a fresh CorePool, plus the attack its trial
 * builds. Simulates nothing.
 */
void buildSetup(const Workload &workload, std::uint64_t master_seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
