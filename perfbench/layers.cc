#include "layers.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <optional>

#include "analysis/key_recovery.hh"
#include "analysis/roc.hh"
#include "attack/contention.hh"
#include "attack/victim_attack.hh"
#include "harness/session.hh"
#include "sim/rng.hh"
#include "workload/synth_spec.hh"

namespace perfbench {

using namespace unxpec;

namespace {

std::int64_t
clockNs(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double
stat(const StatGroup &group, const char *name)
{
    const Counter *c = group.findCounter(name);
    if (c == nullptr) {
        std::fprintf(stderr, "perfbench: no counter '%s'\n", name);
        std::exit(2);
    }
    return static_cast<double>(c->value());
}

double
meanOf(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double total = 0.0;
    for (const double v : values)
        total += v;
    return total / static_cast<double>(values.size());
}

/** matrix.cc's workloadCycles, spanned as the workload layer. */
double
workloadCycles(const ExperimentSpec &spec, std::uint64_t trial_seed,
               Trace &trace)
{
    const Scope span(trace, "workload.run");
    SystemConfig cfg =
        Session::configFor(spec, Rng::deriveSeed(trial_seed, 0));
    cfg.seed = Rng::deriveSeed(trial_seed, 1);
    RunOptions options;
    options.maxInstructions = 40000;
    options.warmupInstructions = 8000;
    const Program p = SynthSpec::generate(SynthSpec::profile("mcf_r"), 42);
    Core core(cfg);
    const RunResult run = core.run(p, options);
    trace.readCore(core, true);
    return static_cast<double>(run.cycles - run.warmupCycles);
}

/** matrixTrialFn's body. */
TrialOutput
matrixTrial(const TrialContext &ctx, unsigned samples_per_class,
            Trace &trace)
{
    const bool contention =
        ctx.spec.label.find("/contention") != std::string::npos;

    std::vector<double> zeros;
    std::vector<double> ones;
    double cycles_per_sample = 0.0;
    {
        std::optional<Session> session;
        {
            const Scope span(trace, "harness.session");
            session.emplace(ctx);
        }
        if (contention) {
            std::optional<ContentionAttack> attack;
            {
                const Scope span(trace, "attack.build");
                attack.emplace(session->core());
            }
            {
                const Scope span(trace, "attack.measure");
                zeros = attack->collect(0, samples_per_class);
                ones = attack->collect(1, samples_per_class);
            }
            cycles_per_sample = attack->cyclesPerSample();
        } else {
            UnxpecAttack *attack = nullptr;
            {
                const Scope span(trace, "attack.build");
                attack = &session->unxpec();
            }
            {
                const Scope span(trace, "attack.measure");
                zeros = attack->collect(0, samples_per_class);
                ones = attack->collect(1, samples_per_class);
            }
            cycles_per_sample = attack->cyclesPerSample();
        }
        trace.count("attack.rounds", 2.0 * samples_per_class);
        trace.readCore(session->core(), false);
        const Scope span(trace, "harness.session");
        session.reset();
    }

    TrialOutput out;
    double raw = 0.0;
    {
        const Scope span(trace, "analysis");
        raw = RocCurve::of(zeros, ones).auc();
    }
    out.metric("auc", std::max(raw, 1.0 - raw));
    out.metric("delta_cycles", meanOf(ones) - meanOf(zeros));
    out.metric("cycles_per_sample", cycles_per_sample);
    out.metric("workload_cycles", workloadCycles(ctx.spec, ctx.seed, trace));
    out.samples("latency0", std::move(zeros));
    out.samples("latency1", std::move(ones));
    return out;
}

/** victimTrialFn's body. */
TrialOutput
victimTrial(const TrialContext &ctx, unsigned plaintexts, Trace &trace)
{
    const std::size_t slash = ctx.spec.label.find('/');
    const std::string receiver = slash == std::string::npos
        ? ctx.spec.label
        : ctx.spec.label.substr(slash + 1);

    double fraction = 0.0;
    double recovered_bits = 0.0;
    double delta = 0.0;
    double rate = 0.0;
    double cycles_per_sample = 0.0;
    {
        std::optional<Session> session;
        {
            const Scope span(trace, "harness.session");
            session.emplace(ctx);
        }
        Rng rng(Rng::deriveSeed(ctx.seed, 2));
        const double ghz = session->config().clockGHz;
        VictimAttackConfig vcfg;
        if (receiver == "victim-aes") {
            vcfg.plaintexts = std::min(std::max(plaintexts, 1u), 8u);
            std::optional<VictimAttack> attack;
            std::array<std::uint8_t, 16> key;
            {
                const Scope span(trace, "attack.build");
                attack.emplace(session->core(), vcfg);
                for (std::uint8_t &b : key)
                    b = static_cast<std::uint8_t>(rng.next());
                attack->setKey(key);
            }
            AesRecoveryResult res;
            {
                const Scope span(trace, "attack.measure");
                res = attack->recoverAesKey();
            }
            unsigned correct = 0;
            for (unsigned b = 0; b < key.size(); ++b) {
                correct += res.guess[b] == key[b];
                delta += res.margin[b] / key.size();
            }
            fraction = correct / 16.0;
            recovered_bits = 8.0 * correct;
            rate = recoveredBitsPerSecond(
                recovered_bits, static_cast<double>(attack->totalCycles()),
                ghz);
            cycles_per_sample = attack->cyclesPerSample();
            trace.count("attack.rounds", attack->totalRuns());
        } else {
            vcfg.victim.kind = VictimKind::RsaSqMul;
            std::optional<VictimAttack> attack;
            std::uint64_t exponent = 0;
            {
                const Scope span(trace, "attack.build");
                attack.emplace(session->core(), vcfg);
                exponent = rng.next();
                attack->setExponent(exponent);
            }
            RsaRecoveryResult res;
            {
                const Scope span(trace, "attack.measure");
                res = attack->recoverExponent(receiver == "victim-rsa-fu");
            }
            const std::uint64_t wrong = res.guess ^ exponent;
            unsigned correct = 64;
            for (unsigned b = 0; b < 64; ++b)
                correct -= (wrong >> b) & 1;
            fraction = correct / 64.0;
            recovered_bits = correct;
            delta = res.gap;
            rate = recoveredBitsPerSecond(
                recovered_bits, static_cast<double>(attack->totalCycles()),
                ghz);
            cycles_per_sample = attack->cyclesPerSample();
            trace.count("attack.rounds", attack->totalRuns());
        }
        trace.readCore(session->core(), false);
        const Scope span(trace, "harness.session");
        session.reset();
    }

    TrialOutput out;
    out.metric("auc", fraction);
    out.metric("recovered_bits", recovered_bits);
    out.metric("recovered_bits_per_sec", rate);
    out.metric("delta_cycles", delta);
    out.metric("cycles_per_sample", cycles_per_sample);
    out.metric("workload_cycles", workloadCycles(ctx.spec, ctx.seed, trace));
    return out;
}

/** fig13_noisy_host's trial body. */
TrialOutput
fig13Trial(const TrialContext &ctx, Trace &trace)
{
    std::optional<Session> session;
    {
        const Scope span(trace, "harness.session");
        session.emplace(ctx);
    }
    UnxpecAttack *attack = nullptr;
    {
        const Scope span(trace, "attack.build");
        attack = &session->unxpec();
        attack->setSecret(static_cast<int>(ctx.spec.param("secret")));
    }
    {
        const Scope span(trace, "attack.measure");
        attack->measureOnce(); // warmup
        attack->measureOnce();
    }
    trace.count("attack.rounds", 2.0);
    TrialOutput out;
    if (attack->lastDetail().valid) {
        out.metric("branch_resolution",
                   static_cast<double>(
                       attack->lastDetail().branchResolution));
    }
    trace.readCore(session->core(), false);
    const Scope span(trace, "harness.session");
    session.reset();
    return out;
}

} // namespace

std::int64_t
threadCpuNs()
{
    return clockNs(CLOCK_THREAD_CPUTIME_ID);
}

std::int64_t
processCpuNs()
{
    return clockNs(CLOCK_PROCESS_CPUTIME_ID);
}

int
Trace::open(const char *layer)
{
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({layer, current_, 0, 0});
    current_ = id;
    spans_.back().start = threadCpuNs();
    return id;
}

void
Trace::close(int id)
{
    spans_[id].end = threadCpuNs();
    current_ = spans_[id].parent;
}

void
Trace::readCore(Core &core, bool workload)
{
    const StatGroup &cpu = core.stats();
    const double cycles = stat(cpu, "sim_ticks");
    count("cpu.sim_cycles", cycles);
    count("cpu.committed_insts", stat(cpu, "committedInsts"));
    count("cpu.branches", stat(cpu, "branches"));
    count("cpu.mispredicts", stat(cpu, "mispredicts"));
    count("cpu.loads", stat(cpu, "loads"));
    count("cpu.stores", stat(cpu, "stores"));
    count("workload.sim_cycles", workload ? cycles : 0.0);

    const StatGroup &cl = core.cleanup().stats();
    count("cleanup.squashes", stat(cl, "squashes"));
    count("cleanup.cycles", stat(cl, "cycles"));
    count("cleanup.l1_invalidations", stat(cl, "invalidationsL1"));
    count("cleanup.l2_invalidations", stat(cl, "invalidationsL2"));
    count("cleanup.restores", stat(cl, "restores"));
    count("cleanup.inflight_drops", stat(cl, "inflightDrops"));
    count("cleanup.const_stall_cycles",
          stat(cl, "extraCleanupSquashTimeCycles"));
    count("cleanup.shadow_discards", stat(cl, "shadowDiscards"));
    count("cleanup.mshr_cancels", stat(cl, "mshrCancels"));

    MemoryHierarchy &mem = core.hierarchy();
    count("memory.l1d_hits", stat(mem.l1d().stats(), "hits"));
    count("memory.l1d_misses", stat(mem.l1d().stats(), "misses"));
    count("memory.l1d_evictions", stat(mem.l1d().stats(), "evictions"));
    count("memory.l1i_misses", stat(mem.l1i().stats(), "misses"));
    count("memory.l2_hits", stat(mem.l2().stats(), "hits"));
    count("memory.l2_misses", stat(mem.l2().stats(), "misses"));
}

std::map<std::string, double>
Trace::selfMs() const
{
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            child[s.parent] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        self[s.layer] += (s.end - s.start - child[i]) / 1e6;
    }
    return self;
}

double
Trace::rootMs() const
{
    std::int64_t total = 0;
    for (const Span &s : spans_) {
        if (s.parent < 0)
            total += s.end - s.start;
    }
    return total / 1e6;
}

TrialFn
replicaTrialFn(const Workload &workload, Trace &trace)
{
    const unsigned scale = workload.scale;
    switch (workload.kind) {
      case Kind::Victim:
        return [scale, &trace](const TrialContext &ctx) {
            return victimTrial(ctx, scale, trace);
        };
      case Kind::Matrix:
        return [scale, &trace](const TrialContext &ctx) {
            return matrixTrial(ctx, scale, trace);
        };
      case Kind::Fig13:
        break;
    }
    return [&trace](const TrialContext &ctx) {
        return fig13Trial(ctx, trace);
    };
}

} // namespace perfbench
