#include "workloads.hh"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "analysis/matrix_report.hh"
#include "attack/contention.hh"
#include "attack/victim_attack.hh"
#include "harness/matrix.hh"
#include "harness/session.hh"
#include "sim/rng.hh"

namespace perfbench {

using namespace unxpec;

namespace {

// Reps per sweep. Each sweep is one timed execution; these sizes put
// every workload's sweep at roughly the same host time, so no workload
// is timed on executions much shorter than the others.
constexpr unsigned kVictimReps = 1;
constexpr unsigned kMatrixReps = 2;
constexpr unsigned kFig13Reps = 4;

/** bench/fig13_noisy_host.cc's sweep: 3 f(N) x 2 secrets x 5 loads. */
std::vector<ExperimentSpec>
fig13Specs()
{
    ExperimentSpec base;
    base.defense = "noisy_host";
    base.noise = "noisy_host";
    std::vector<ExperimentSpec> specs;
    for (unsigned accesses = 1; accesses <= 3; ++accesses) {
        for (int secret = 0; secret <= 1; ++secret) {
            for (unsigned loads = 1; loads <= 5; ++loads) {
                ExperimentSpec spec = base;
                spec.label = std::to_string(accesses) + "acc/s" +
                             std::to_string(secret) + "/" +
                             std::to_string(loads) + "ld";
                spec.attackCfg.conditionAccesses = accesses;
                spec.attackCfg.inBranchLoads = loads;
                spec.with("accesses", accesses)
                    .with("secret", secret)
                    .with("loads", loads);
                specs.push_back(std::move(spec));
            }
        }
    }
    return specs;
}

/** bench/fig13_noisy_host.cc's trial body. */
TrialOutput
fig13Trial(const TrialContext &ctx)
{
    Session session(ctx);
    UnxpecAttack &attack = session.unxpec();
    attack.setSecret(static_cast<int>(ctx.spec.param("secret")));
    attack.measureOnce(); // warmup
    attack.measureOnce();
    TrialOutput out;
    if (attack.lastDetail().valid) {
        out.metric("branch_resolution",
                   static_cast<double>(
                       attack.lastDetail().branchResolution));
    }
    return out;
}

const ResultRow *
findRow(const ExperimentResult &result, const std::string &label)
{
    for (const ResultRow &row : result.rows) {
        if (row.label == label)
            return &row;
    }
    return nullptr;
}

} // namespace

Workload
makeWorkload(const std::string &name)
{
    Workload w;
    w.name = name;
    if (name == "victim-keyrec") {
        // victim_recovery's defaults: mode unsafe, --scale 2.
        ExperimentSpec base;
        base.defense = "unsafe";
        w.kind = Kind::Victim;
        w.specs = victimSpecs(base, false);
        w.reps = kVictimReps;
        w.scale = 2;
        w.fn = victimTrialFn(w.scale);
    } else if (name == "defense-matrix") {
        ExperimentSpec base;
        base.defense = "unsafe";
        w.kind = Kind::Matrix;
        w.specs = matrixSpecs(base, false);
        w.reps = kMatrixReps;
        w.scale = 24;
        w.fn = matrixTrialFn(w.scale);
    } else if (name == "noisy-channel") {
        w.kind = Kind::Fig13;
        w.specs = fig13Specs();
        w.reps = kFig13Reps;
        w.fn = fig13Trial;
    } else {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     name.c_str());
        std::exit(2);
    }
    return w;
}

Check
checkOutputs(const Workload &workload, const ExperimentResult &result)
{
    Check check;
    auto claim = [&check](bool holds, const std::string &what) {
        ++check.attempted;
        if (!holds) {
            ++check.failed;
            check.failures.push_back(what);
        }
    };

    for (const ResultRow &row : result.rows) {
        const unsigned bad = row.censoredTrials + row.missingTrials;
        check.attempted += workload.reps;
        check.failed += bad;
        if (bad > 0 || row.trials != workload.reps) {
            check.failures.push_back(row.label + ": " +
                                     std::to_string(row.trials) + "/" +
                                     std::to_string(workload.reps) +
                                     " trials usable");
        }
    }
    if (result.incomplete)
        check.failures.push_back("result incomplete");

    if (workload.kind == Kind::Victim) {
        // "auc" of a victim cell is the recovered fraction: 1.0 is the
        // whole 16-byte key / 64-bit exponent.
        for (const char *label : {"unsafe/victim-aes", "unsafe/victim-rsa"}) {
            const ResultRow *row = findRow(result, label);
            bool whole = row != nullptr && !row->values("auc").empty();
            if (row != nullptr) {
                for (const double v : row->values("auc"))
                    whole = whole && v == 1.0;
            }
            claim(whole, std::string(label) + " recovers the whole secret");
        }
    } else if (workload.kind == Kind::Matrix) {
        const MatrixReport report = MatrixReport::fromResult(result);
        for (const char *defense : {"safespec", "cachesquash"}) {
            const MatrixCell *unx = report.cell(defense, "unxpec");
            const MatrixCell *con = report.cell(defense, "contention");
            claim(unx != nullptr && unx->auc <= 0.6,
                  std::string(defense) + "/unxpec auc <= 0.6");
            claim(con != nullptr && con->auc >= 0.95,
                  std::string(defense) + "/contention auc >= 0.95");
        }
    } else {
        // fig13 records branch_resolution only when the squash was
        // located; a trial without it is a lost measurement.
        for (const ResultRow &row : result.rows) {
            const MetricSeries *s = row.metric("branch_resolution");
            claim(s != nullptr && s->values.size() == workload.reps,
                  row.label + " measures every trial");
        }
    }
    return check;
}

std::string
analyse(const Workload &workload, const ExperimentResult &result)
{
    if (workload.kind == Kind::Fig13)
        return {};
    std::ostringstream os;
    MatrixReport::fromResult(result).writeJson(os);
    return os.str();
}

std::string
resultText(const ExperimentResult &result)
{
    std::ostringstream os;
    writeJson(os, result, true);
    return os.str();
}

std::string
digestOf(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
buildSetup(const Workload &workload, std::uint64_t master_seed)
{
    CorePool pool;
    for (std::size_t i = 0; i < workload.specs.size(); ++i) {
        const ExperimentSpec &spec = workload.specs[i];
        const std::size_t job = i * workload.reps;
        TrialContext ctx{spec, i, 0,
                         Rng::deriveRetrySeed(master_seed, job, 0),
                         master_seed, &pool};
        Session session(ctx);
        if (workload.kind == Kind::Victim) {
            VictimAttackConfig vcfg;
            if (spec.attack == "victim-aes") {
                vcfg.plaintexts = workload.scale;
            } else {
                vcfg.victim.kind = VictimKind::RsaSqMul;
            }
            VictimAttack attack(session.core(), vcfg);
        } else if (spec.attack == "contention") {
            ContentionAttack attack(session.core());
        } else {
            session.unxpec();
        }
    }
}

} // namespace perfbench
