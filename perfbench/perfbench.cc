/**
 * @file
 * The benchmark program. One process, one TrialRunner worker, pooled
 * cores: a closed loop in which each trial starts after the previous
 * one ends. Modes (all print one JSON object on stdout):
 *
 *   perfbench setup WORKLOAD SEED
 *       Set-up cost of a fresh process: build every spec's Session
 *       and attack on a fresh CorePool, then report process CPU time.
 *   perfbench run WORKLOAD SEED SECONDS
 *       One warm-up sweep, then whole sweeps for SECONDS; report each
 *       sweep's process CPU time, every trial's CPU time and the
 *       output check, then one counting replica sweep for the
 *       simulated-cycle total.
 *
 * Reported times are scaled to host speed by a reference pass (see
 * referenceMs); the raw times are reported beside them.
 *   perfbench_traced trace WORKLOAD SEED SECONDS SPANS_PATH
 *       Alternate untraced and traced sweeps for SECONDS; report the
 *       per-layer split and write the spans to SPANS_PATH.
 *
 * perfbench/run.py builds both binaries and turns this output into the
 * benchmark's metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "harness/trial_runner.hh"
#include "layers.hh"
#include "workloads.hh"

#if PERFBENCH_TRACED
#include "sim/alloc_gauge.hh"
#endif

using namespace perfbench;
using unxpec::ExperimentResult;
using unxpec::TrialContext;
using unxpec::TrialFn;
using unxpec::TrialOutput;
using unxpec::TrialRunner;

namespace {

constexpr std::size_t kMinTrials = 100;

std::string
quote(const std::string &v)
{
    std::string s = "\"";
    for (const char c : v) {
        if (c == '"' || c == '\\')
            s += '\\';
        s += c;
    }
    return s + "\"";
}

std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** Minimal JSON object writer: numbers at round-trip precision. */
class Json
{
  public:
    Json &num(const char *key, double v) { return raw(key, number(v)); }
    Json &str(const char *key, const std::string &v)
    {
        return raw(key, quote(v));
    }
    Json &flag(const char *key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    Json &list(const char *key, const std::vector<double> &vs)
    {
        std::string s;
        for (const double v : vs)
            s += (s.empty() ? "" : ",") + number(v);
        return raw(key, "[" + s + "]");
    }
    Json &strs(const char *key, const std::vector<std::string> &vs)
    {
        std::string s;
        for (const std::string &v : vs)
            s += (s.empty() ? "" : ",") + quote(v);
        return raw(key, "[" + s + "]");
    }
    Json &obj(const char *key, const Json &inner)
    {
        return raw(key, inner.done());
    }
    std::string done() const { return "{" + text_ + "}"; }

  private:
    Json &raw(const char *key, const std::string &value)
    {
        text_ += (text_.empty() ? "" : ",") + quote(key) + ":" + value;
        return *this;
    }
    std::string text_;
};

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nominal time of one reference pass, in ms: the host's speed unit. */
constexpr double kReferenceMs = 20.0;

/**
 * One pass of fixed host work, timed in thread CPU ms: data-dependent
 * branches and read-modify-writes over a 1 MiB table. On a shared host
 * the simulator's speed drifts with its neighbours' load. This pass
 * drifts with it much more closely than a register-only loop does, so
 * every end-to-end timing is scaled by kReferenceMs over the passes
 * timed around it. The first call also faults the table in.
 */
double
referenceMs()
{
    static std::vector<std::uint32_t> table(1u << 18, 1);
    const std::size_t mask = table.size() - 1;
    const std::int64_t t0 = threadCpuNs();
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < 2000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint32_t &e = table[x & mask];
        if (x & 0x100) {
            e += 3;
            acc += e;
        } else if (x & 0x200) {
            acc ^= e;
            e = static_cast<std::uint32_t>(acc);
        } else {
            acc += e >> 1;
        }
    }
    volatile std::uint64_t sink = acc;
    (void)sink;
    return (threadCpuNs() - t0) / 1e6;
}

/**
 * Host-speed scale of the work timed between two reference passes:
 * kReferenceMs over their geometric mean.
 */
double
hostScale(double before_ms, double after_ms)
{
    return kReferenceMs / std::sqrt(before_ms * after_ms);
}

/** Work between two reference passes inside a sweep, in process CPU ns. */
constexpr std::int64_t kSegmentNs = 250'000'000;

/**
 * Process CPU time in units of host speed. Reference passes cut the
 * timed work into segments, and each segment's CPU time is scaled by
 * hostScale() of the passes at its two ends. Long sweeps are cut at
 * trial boundaries every kSegmentNs, so a phase change in the middle of
 * a sweep is caught; a pass's own time is never counted. A trial sample
 * waits in its segment until the closing pass fixes its scale.
 */
class ScaledClock
{
  public:
    ScaledClock()
    {
        referenceMs(); // faults the table in
        ref_ms_.push_back(referenceMs());
        mark_ = processCpuNs();
    }

    /** Close the current segment with a reference pass. */
    void pass()
    {
        const std::int64_t work = processCpuNs() - mark_;
        ref_ms_.push_back(referenceMs());
        const double scale =
            hostScale(ref_ms_[ref_ms_.size() - 2], ref_ms_.back());
        raw_s_ += work / 1e9;
        scaled_s_ += work / 1e9 * scale;
        for (const double t : pending_ms_)
            trial_ms_.push_back(t * scale);
        pending_ms_.clear();
        mark_ = processCpuNs();
    }

    /** Close the segment if it holds at least kSegmentNs of work. */
    void passIfDue()
    {
        if (processCpuNs() - mark_ >= kSegmentNs)
            pass();
    }

    /** Record a trial's raw thread CPU time. */
    void trial(double raw_ms) { pending_ms_.push_back(raw_ms); }

    /** Closed segments' raw and scaled CPU seconds. */
    double rawS() const { return raw_s_; }
    double scaledS() const { return scaled_s_; }
    const std::vector<double> &refMs() const { return ref_ms_; }
    /** Scaled samples of the trials in closed segments. */
    const std::vector<double> &trialMs() const { return trial_ms_; }

  private:
    std::int64_t mark_ = 0;
    double raw_s_ = 0.0;
    double scaled_s_ = 0.0;
    std::vector<double> ref_ms_;
    std::vector<double> pending_ms_;
    std::vector<double> trial_ms_;
};

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0 : n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss);
}

/** One sweep: runAll plus the analysis step, both inside the window. */
struct Sweep
{
    ExperimentResult result;
    std::string report;
    double cpuS = 0.0;
    double wallS = 0.0;
};

Sweep
runSweep(const Workload &w, std::uint64_t seed, const TrialFn &fn,
         Trace *trace)
{
    const TrialRunner runner(1);
    Sweep s;
    const double w0 = wallSeconds();
    const std::int64_t c0 = processCpuNs();
    if (trace != nullptr) {
        {
            const Scope span(*trace, "harness.runner");
            s.result = runner.runAll(w.name, w.name, w.specs, w.reps, seed,
                                     fn);
        }
        const Scope span(*trace, "analysis");
        s.report = analyse(w, s.result);
    } else {
        s.result = runner.runAll(w.name, w.name, w.specs, w.reps, seed, fn);
        s.report = analyse(w, s.result);
    }
    s.cpuS = (processCpuNs() - c0) / 1e9;
    s.wallS = wallSeconds() - w0;
    return s;
}

std::string
sweepText(const Sweep &s)
{
    return resultText(s.result) + s.report;
}

/** A run's output checks and simulated-output digests, over sweeps. */
struct Tally
{
    unsigned attempted = 0;
    unsigned failed = 0;
    std::vector<std::string> failures;
    std::string digest;
    bool identical = true; //!< every sweep gave the same digest

    void add(const Workload &w, const Sweep &s)
    {
        const std::string d = digestOf(sweepText(s));
        identical = identical && (digest.empty() || d == digest);
        digest = d;
        const Check c = checkOutputs(w, s.result);
        attempted += c.attempted;
        failed += c.failed;
        failures.insert(failures.end(), c.failures.begin(),
                        c.failures.end());
    }
};

Json
buildJson()
{
    Json j;
    j.str("build_type", PERFBENCH_BUILD_TYPE)
        .str("cxx_flags", PERFBENCH_CXX_FLAGS)
        .str("compiler", PERFBENCH_COMPILER);
    return j;
}

int
modeSetup(const std::string &name, std::uint64_t seed)
{
    const Workload w = makeWorkload(name);
    buildSetup(w, seed);
    const double cpu = processCpuNs() / 1e9;
    // Timed after the set-up, so that it does not warm the host for it.
    referenceMs();
    std::vector<double> ref_ms;
    for (int i = 0; i < 3; ++i)
        ref_ms.push_back(referenceMs());
    const double ref = median(ref_ms);
    std::printf("%s\n", Json()
                            .num("setup_s", cpu * hostScale(ref, ref))
                            .num("raw_setup_s", cpu)
                            .num("ref_ms", ref)
                            .done()
                            .c_str());
    return 0;
}

int
modeRun(const std::string &name, std::uint64_t seed, double seconds)
{
    const Workload w = makeWorkload(name);

    // Untimed warm-up: the first sweep faults in the pooled Machines and
    // the allocator's arenas. Its outputs are still checked.
    Tally tally;
    tally.add(w, runSweep(w, seed, w.fn, nullptr));

    ScaledClock clock;
    const TrialFn timed = [&w, &clock](const TrialContext &ctx) {
        clock.passIfDue();
        const std::int64_t t0 = threadCpuNs();
        TrialOutput out = w.fn(ctx);
        clock.trial((threadCpuNs() - t0) / 1e6);
        return out;
    };

    std::vector<double> cpu_s, raw_cpu_s, wall_s;
    const double start = wallSeconds();
    // At least kMinTrials trial samples, so p90 has ten beyond it.
    while (cpu_s.size() < 3 || clock.trialMs().size() < kMinTrials ||
           wallSeconds() - start < seconds) {
        const double scaled0 = clock.scaledS(), raw0 = clock.rawS();
        const Sweep s = runSweep(w, seed, timed, nullptr);
        clock.pass();
        cpu_s.push_back(clock.scaledS() - scaled0);
        raw_cpu_s.push_back(clock.rawS() - raw0);
        wall_s.push_back(s.wallS);
        tally.add(w, s);
    }

    // Untimed: the replica sweep counts simulated events, and must
    // reproduce the timed sweeps' output byte for byte.
    Trace counts(false);
    const Sweep replica =
        runSweep(w, seed, replicaTrialFn(w, counts), nullptr);
    const bool faithful = digestOf(sweepText(replica)) == tally.digest;

    Json j;
    j.str("workload", name)
        .num("seed", static_cast<double>(seed))
        .num("specs", static_cast<double>(w.specs.size()))
        .num("reps", w.reps)
        .list("sweep_cpu_s", cpu_s)
        .list("sweep_raw_cpu_s", raw_cpu_s)
        .list("sweep_wall_s", wall_s)
        .list("ref_ms", clock.refMs())
        .list("trial_cpu_ms", clock.trialMs())
        .num("sim_cycles", counts.counts().at("cpu.sim_cycles"))
        .num("committed_insts", counts.counts().at("cpu.committed_insts"))
        .str("sim_digest", tally.digest)
        .flag("equivalent", tally.identical)
        .flag("replica_identical", faithful)
        .num("attempted", tally.attempted)
        .num("failed", tally.failed)
        .strs("failures", tally.failures)
        .num("peak_rss_kb", peakRssKb())
        .obj("build", buildJson());
    std::printf("%s\n", j.done().c_str());
    return 0;
}

#if PERFBENCH_TRACED
int
modeTrace(const std::string &name, std::uint64_t seed, double seconds,
          const std::string &spans_path)
{
    const Workload w = makeWorkload(name);

    // Untraced sweeps run the library TrialFn and count its heap
    // allocations; traced sweeps run the spanned replica.
    std::uint64_t allocs = 0;
    unsigned gauged_trials = 0;
    const TrialFn untraced = [&](const TrialContext &ctx) {
        const std::uint64_t a0 = unxpec::allocGaugeRead().allocs;
        TrialOutput out = w.fn(ctx);
        allocs += unxpec::allocGaugeRead().allocs - a0;
        ++gauged_trials;
        return out;
    };
    Trace trace(true);
    const TrialFn replica = replicaTrialFn(w, trace);
    const TrialFn traced = [&](const TrialContext &ctx) {
        const Scope span(trace, "harness.trial");
        return replica(ctx);
    };

    // Sweep times are scaled as in modeRun, with passes only between
    // sweeps; the span times are raw thread CPU time.
    std::vector<double> plain_ms, traced_ms;
    Tally tally;
    double traced_window_ms = 0.0;
    unsigned censored = 0, trials = 0;
    ScaledClock clock;
    const double start = wallSeconds();
    while (traced_ms.size() < 2 || wallSeconds() - start < seconds) {
        for (const bool tracing : {false, true}) {
            const double scaled0 = clock.scaledS();
            const Sweep s = tracing
                ? runSweep(w, seed, traced, &trace)
                : runSweep(w, seed, untraced, nullptr);
            clock.pass();
            (tracing ? traced_ms : plain_ms)
                .push_back((clock.scaledS() - scaled0) * 1e3);
            if (tracing)
                traced_window_ms += s.cpuS * 1e3;
            tally.add(w, s);
            for (const unxpec::ResultRow &row : s.result.rows) {
                trials += row.trials + row.censoredTrials;
                censored += row.censoredTrials;
            }
        }
    }

    const double sweeps = static_cast<double>(traced_ms.size());
    std::map<std::string, double> layer;
    for (const auto &[k, v] : trace.counts())
        layer[k] = v / sweeps;
    const std::map<std::string, double> self = trace.selfMs();
    auto selfOf = [&self, sweeps](const char *span) {
        const auto it = self.find(span);
        return it == self.end() ? 0.0 : it->second / sweeps;
    };
    layer["attack.measure_ms"] = selfOf("attack.measure");
    layer["attack.build_ms"] = selfOf("attack.build");
    layer["workload.run_ms"] = selfOf("workload.run");
    layer["harness.session_ms"] = selfOf("harness.session");
    layer["harness.runner_ms"] = selfOf("harness.runner");
    layer["harness.trial_ms"] = selfOf("harness.trial");
    layer["analysis.ms"] = selfOf("analysis");
    layer["harness.trials"] = trials / (2.0 * sweeps);
    layer["harness.censored"] = censored / (2.0 * sweeps);
    layer["sim.heap_allocs_per_trial"] =
        gauged_trials ? static_cast<double>(allocs) / gauged_trials : 0.0;

    auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double cycles = layer.at("cpu.sim_cycles");
    const double insts = layer.at("cpu.committed_insts");
    const double plain_ns = median(plain_ms) * 1e6;
    layer["cpu.ipc"] = ratio(insts, cycles);
    layer["cpu.host_ns_per_sim_cycle"] = ratio(plain_ns, cycles);
    layer["cpu.host_ns_per_inst"] = ratio(plain_ns, insts);
    layer["cleanup.cycles_per_squash"] =
        ratio(layer.at("cleanup.cycles"), layer.at("cleanup.squashes"));
    layer["memory.l1d_hit_ratio"] =
        ratio(layer.at("memory.l1d_hits"),
              layer.at("memory.l1d_hits") + layer.at("memory.l1d_misses"));
    layer["host.calib_ms"] = median(clock.refMs());
    layer["trace.unattributed_ms"] =
        (traced_window_ms - trace.rootMs()) / sweeps;
    layer["trace.cpu_ms"] = traced_window_ms / sweeps;

    std::ofstream os(spans_path);
    os << "[";
    const auto &spans = trace.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        os << (i ? ",\n" : "\n") << "[" << quote(spans[i].layer) << ","
           << spans[i].parent << "," << spans[i].start << ","
           << spans[i].end << "]";
    }
    os << "\n]\n";

    Json j;
    j.str("workload", name)
        .num("seed", static_cast<double>(seed))
        .num("sweeps", sweeps)
        .list("untraced_sweep_ms", plain_ms)
        .list("traced_sweep_ms", traced_ms)
        .str("sim_digest", tally.digest)
        .flag("replica_identical", tally.identical)
        .num("attempted", tally.attempted)
        .num("failed", tally.failed)
        .strs("failures", tally.failures)
        .obj("per_layer", [&layer] {
            Json inner;
            for (const auto &[k, v] : layer)
                inner.num(k.c_str(), v);
            return inner;
        }())
        .obj("build", buildJson());
    std::printf("%s\n", j.done().c_str());
    return os ? 0 : 1;
}
#endif

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench setup WORKLOAD SEED\n"
                 "       perfbench run WORKLOAD SEED SECONDS\n"
                 "       perfbench_traced trace WORKLOAD SEED SECONDS "
                 "SPANS_PATH\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.size() < 3)
        return usage();
    const std::string &mode = args[0];
    const std::uint64_t seed = std::strtoull(args[2].c_str(), nullptr, 10);
    if (mode == "setup" && args.size() == 3)
        return modeSetup(args[1], seed);
    if (mode == "run" && args.size() == 4)
        return modeRun(args[1], seed, std::atof(args[3].c_str()));
#if PERFBENCH_TRACED
    if (mode == "trace" && args.size() == 5)
        return modeTrace(args[1], seed, std::atof(args[3].c_str()), args[4]);
#endif
    return usage();
}
