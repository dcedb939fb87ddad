/**
 * @file
 * Per-layer attribution for the traced run. Replicas of the three
 * trial bodies call the same public entry points in the same order as
 * the library's, wrapping each call in a Span named after the src/
 * module it enters, and read the public StatGroups after each trial.
 * A replica's result rows must be byte-identical to the library
 * TrialFn's at the same seed; perfbench checks that on every run.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "harness/trial_runner.hh"
#include "workloads.hh"

namespace perfbench {

/** CPU time of the calling thread, in nanoseconds. */
std::int64_t threadCpuNs();

/** CPU time of the whole process, in nanoseconds. */
std::int64_t processCpuNs();

/**
 * Spans recorded in memory (enabled) plus simulated-event counts
 * (always). Single-threaded: the benchmark runs one worker.
 */
class Trace
{
  public:
    struct Span
    {
        const char *layer;
        int parent; //!< index into spans(), -1 for a root
        std::int64_t start;
        std::int64_t end;
    };

    explicit Trace(bool spans) : enabled_(spans) {}

    bool enabled() const { return enabled_; }
    int open(const char *layer);
    void close(int id);
    const std::vector<Span> &spans() const { return spans_; }

    /** Add `value` to the named count. */
    void count(const std::string &name, double value)
    {
        counts_[name] += value;
    }
    /** Add a core's per-trial StatGroup totals (cpu, cleanup, memory). */
    void readCore(unxpec::Core &core, bool workload);
    const std::map<std::string, double> &counts() const { return counts_; }

    /** Self time per layer: duration minus direct children's. */
    std::map<std::string, double> selfMs() const;
    /** Total duration of root spans, in ms. */
    double rootMs() const;

  private:
    bool enabled_;
    int current_ = -1;
    std::vector<Span> spans_;
    std::map<std::string, double> counts_;
};

/** RAII span; a no-op when the trace records no spans. */
class Scope
{
  public:
    Scope(Trace &trace, const char *layer)
        : trace_(trace), id_(trace.enabled() ? trace.open(layer) : -1) {}
    ~Scope()
    {
        if (id_ >= 0)
            trace_.close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Trace &trace_;
    int id_;
};

/**
 * The workload's trial body with every public call spanned and every
 * trial's counters read into `trace`. `trace` must outlive the TrialFn.
 */
unxpec::TrialFn replicaTrialFn(const Workload &workload, Trace &trace);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
