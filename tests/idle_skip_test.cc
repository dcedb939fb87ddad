/**
 * @file
 * Differential tests for Core::run's idle-cycle skip. Core::run jumps
 * over cycles in which no pipeline stage can act; a one-core
 * Machine::runInterleaved drives the same core through runStep(), one
 * cycle at a time, and never skips. Every program here runs on two
 * fresh, identically seeded machines, one per driver, under every
 * CleanupMode: results, every statistics counter and the core clock
 * must come out identical.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "machine/machine.hh"
#include "victim/victim.hh"

namespace unxpec {
namespace {

const std::vector<CleanupMode> &
allModes()
{
    static const std::vector<CleanupMode> modes = {
        CleanupMode::UnsafeBaseline, CleanupMode::Cleanup_FOR_L1,
        CleanupMode::Cleanup_FOR_L1L2, CleanupMode::Cleanup_FULL,
        CleanupMode::InvisiSpec, CleanupMode::DelayOnMiss,
        CleanupMode::SafeSpec, CleanupMode::SpecBox,
        CleanupMode::CacheSquash,
    };
    return modes;
}

SystemConfig
configFor(CleanupMode mode)
{
    SystemConfig cfg = SystemConfig::makeDefault();
    cfg.cleanupMode = mode;
    cfg.seed = 11;
    return cfg;
}

std::string
dump(const StatGroup &group)
{
    std::ostringstream os;
    group.dump(os);
    return os.str();
}

/** Every counter the core and its hierarchy keep, as one string. */
std::string
allStats(Core &core)
{
    return dump(core.stats()) + dump(core.cleanup().stats()) +
           dump(core.hierarchy().l1i().stats()) +
           dump(core.hierarchy().l1d().stats()) +
           dump(core.hierarchy().l2().stats());
}

void
expectSameResult(const RunResult &skip, const RunResult &step,
                 const std::string &where)
{
    EXPECT_EQ(skip.cycles, step.cycles) << where;
    EXPECT_EQ(skip.instructions, step.instructions) << where;
    EXPECT_EQ(skip.warmupCycles, step.warmupCycles) << where;
    EXPECT_EQ(skip.halted, step.halted) << where;
    EXPECT_EQ(skip.cycleLimitReached, step.cycleLimitReached) << where;
    EXPECT_EQ(skip.regs, step.regs) << where;
}

/**
 * Prepares one machine before the runs: pokes data and returns the
 * program to run (which must stay alive as long as the machine).
 */
using Setup = std::function<const Program &(Machine &)>;

/**
 * Run the program `rounds` times on a Core::run machine and on a
 * runInterleaved machine and compare after every round. Only the
 * first round loads the initial data image, so later rounds run on
 * warm caches and a trained predictor.
 */
void
expectSkipMatchesStepping(const SystemConfig &cfg, const Setup &setup,
                          const std::string &name, unsigned rounds = 2,
                          RunOptions options = {})
{
    Machine skipping(cfg);
    Machine stepping(cfg);
    const Program &skip_prog = setup(skipping);
    const Program &step_prog = setup(stepping);
    for (unsigned round = 0; round < rounds; ++round) {
        const std::string where = name + " [" +
            toString(cfg.cleanupMode) + "] round " +
            std::to_string(round);
        const RunResult skip = skipping.core().run(skip_prog, options);
        const RunResult step =
            stepping.runInterleaved({&step_prog}, options)[0];
        expectSameResult(skip, step, where);
        EXPECT_EQ(skipping.core().now(), stepping.core().now()) << where;
        EXPECT_EQ(allStats(skipping.core()), allStats(stepping.core()))
            << where;
        options.loadData = false;
    }
}

/** Holds one UnxpecAttack per machine so its program outlives setup. */
class AttackSetup
{
  public:
    AttackSetup(UnxpecConfig cfg, int secret)
        : cfg_(cfg), secret_(secret) {}

    const Program &
    operator()(Machine &machine)
    {
        attacks_.push_back(
            std::make_unique<UnxpecAttack>(machine.core(), cfg_));
        attacks_.back()->setSecret(secret_);
        return attacks_.back()->program();
    }

  private:
    UnxpecConfig cfg_;
    int secret_;
    std::vector<std::unique_ptr<UnxpecAttack>> attacks_;
};

TEST(IdleSkip, Fig03GadgetMatchesSteppingInEveryMode)
{
    for (const CleanupMode mode : allModes()) {
        for (const unsigned loads : {1u, 4u}) {
            for (const int secret : {0, 1}) {
                UnxpecConfig ucfg;
                ucfg.inBranchLoads = loads;
                AttackSetup setup(ucfg, secret);
                expectSkipMatchesStepping(
                    configFor(mode), std::ref(setup),
                    "fig03 loads=" + std::to_string(loads) +
                        " secret=" + std::to_string(secret));
            }
        }
    }
}

TEST(IdleSkip, VictimListingsMatchSteppingInEveryMode)
{
    const VictimListing aes = buildVictim(VictimConfig{});
    VictimConfig rsa_cfg;
    rsa_cfg.kind = VictimKind::RsaSqMul;
    const VictimListing rsa = buildVictim(rsa_cfg);

    RunOptions warm;
    warm.warmupInstructions = 200;
    for (const CleanupMode mode : allModes()) {
        expectSkipMatchesStepping(
            configFor(mode),
            [&](Machine &) -> const Program & { return aes.program; },
            "victim-aes", 2, warm);
        expectSkipMatchesStepping(
            configFor(mode),
            [&](Machine &) -> const Program & { return rsa.program; },
            "victim-rsa", 2, warm);

        // The contention receiver's non-pipelined multiplier keeps a
        // busy window across squashes.
        SystemConfig serial_mul = configFor(mode);
        serial_mul.core.mulPipelined = false;
        expectSkipMatchesStepping(
            serial_mul,
            [&](Machine &) -> const Program & { return rsa.program; },
            "victim-rsa-fu");
    }
}

/**
 * Loads gated by memory ordering: one waits behind a FENCE that waits
 * on a flushed load, one behind a STORE whose address comes from a
 * flushed load, one behind a store it only partly overlaps. A loop
 * repeats the pattern so later iterations run warm.
 */
Program
blockedLoadsProgram()
{
    ProgramBuilder b;
    const Addr slow = b.alloc(64);
    const Addr ptr = b.alloc(64);
    const Addr data = b.alloc(64);
    const Addr other = b.alloc(64);
    b.initWord64(slow, 5);
    b.initWord64(ptr, data);
    b.initWord64(data, 77);
    b.initWord64(other, 9);

    b.li(1, static_cast<std::int64_t>(slow));
    b.li(2, static_cast<std::int64_t>(ptr));
    b.li(3, static_cast<std::int64_t>(other));
    b.li(10, 0);  // loop counter
    b.li(11, 4);  // iterations
    const int loop = b.label();
    b.bind(loop);
    b.clflush(1, 0);
    b.clflush(2, 0);
    b.fence();
    // Behind a fence that waits on a memory miss.
    b.load(4, 1, 0);
    b.fence();
    b.load(5, 3, 0);
    // Behind a store whose address is a memory miss away.
    b.load(6, 2, 0);
    b.addi(7, 4, 1);
    b.store(6, 8, 7);
    b.load(8, 3, 0);
    // Behind a store it only partly overlaps (waits for commit).
    b.store(3, 0, 7, 4);
    b.load(9, 3, 0);
    b.add(12, 8, 9);
    b.addi(10, 10, 1);
    b.blt(10, 11, loop);
    b.rdtscp(13);
    b.halt();
    return b.build();
}

TEST(IdleSkip, BlockedLoadsMatchSteppingInEveryMode)
{
    const Program program = blockedLoadsProgram();
    for (const CleanupMode mode : allModes()) {
        expectSkipMatchesStepping(
            configFor(mode),
            [&](Machine &) -> const Program & { return program; },
            "blocked-loads", 3);
    }
}

TEST(IdleSkip, SmallWindowMatchesStepping)
{
    // A 4-entry LSQ and a 16-entry ROB fill up, so dispatch stalls on
    // a full structure while fetched instructions wait behind it.
    const Program program = blockedLoadsProgram();
    const VictimListing aes = buildVictim(VictimConfig{});
    for (const CleanupMode mode : allModes()) {
        SystemConfig cfg = configFor(mode);
        cfg.core.lsqEntries = 4;
        cfg.core.robEntries = 16;
        expectSkipMatchesStepping(
            cfg, [&](Machine &) -> const Program & { return program; },
            "blocked-loads small-window");
        expectSkipMatchesStepping(
            cfg, [&](Machine &) -> const Program & { return aes.program; },
            "victim-aes small-window");
    }
}

TEST(IdleSkip, FullLsqDoesNotBlockAluDispatch)
{
    // Four loads fill a 4-entry LSQ: one flushed miss and three that
    // need its value for their address. Forty adds that also wait on
    // the miss follow, then a multiply chain that does not. A full LSQ
    // holds back only memory ops, so the adds dispatch during the miss
    // and the chain starts long before the miss returns; the chain's
    // length puts its start on the run's critical path. The second
    // round fetches from a warm I-cache, so nothing but dispatch is
    // left to act while the miss is out.
    ProgramBuilder b;
    const Addr base = b.alloc(4 * 64);
    b.li(1, static_cast<std::int64_t>(base));
    b.li(7, 3);
    b.li(8, 1);
    b.clflush(1, 0);
    b.fence();
    b.load(2, 1, 0);
    for (unsigned i = 1; i < 4; ++i)
        b.load(static_cast<RegIndex>(2 + i), 2, 64 * i);
    for (unsigned i = 0; i < 40; ++i)
        b.addi(6, 2, i);
    for (unsigned i = 0; i < 100; ++i)
        b.mul(7, 7, 8);
    b.halt();
    const Program program = b.build();
    for (const CleanupMode mode : allModes()) {
        SystemConfig cfg = configFor(mode);
        cfg.core.lsqEntries = 4;
        expectSkipMatchesStepping(
            cfg, [&](Machine &) -> const Program & { return program; },
            "full-lsq");
    }
}

TEST(IdleSkip, IssueWidthOverflowMatchesStepping)
{
    // Eight multiplies wake on one slow load; a 4-wide issue stage
    // leaves half of them for the next cycle, which must not be
    // skipped while the first half is in flight.
    ProgramBuilder b;
    const Addr slow = b.alloc(64);
    b.initWord64(slow, 3);
    b.li(1, static_cast<std::int64_t>(slow));
    b.clflush(1, 0);
    b.fence();
    b.load(2, 1, 0);
    for (RegIndex rd = 3; rd < 11; ++rd)
        b.mul(rd, 2, 2);
    b.halt();
    const Program program = b.build();
    for (const CleanupMode mode : allModes()) {
        expectSkipMatchesStepping(
            configFor(mode),
            [&](Machine &) -> const Program & { return program; },
            "issue-width");
    }
}

TEST(IdleSkip, DelayOnMissWaitsForFillNotEvent)
{
    // DelayOnMiss holds a speculative load while its line misses in
    // L1. Here a committed store's write-allocate fill lands while the
    // older branch is still waiting on memory, with nothing else in
    // flight: the load may issue on that very cycle, although no
    // writeback or commit happens then. A multiply chain on its value
    // makes the issue cycle visible in the run's length.
    ProgramBuilder b;
    const Addr line = b.alloc(64);
    const Addr bound = b.alloc(64);
    b.initWord64(bound, 100);
    const int skip = b.label();
    b.li(1, static_cast<std::int64_t>(line));
    b.li(2, static_cast<std::int64_t>(bound));
    b.li(7, 1);
    b.li(20, 0);
    b.clflush(1, 0);
    b.clflush(2, 0);
    b.fence();
    b.store(1, 0, 7);
    // Delay the bound load's issue well past the store's commit.
    b.li(3, 0);
    for (unsigned i = 0; i < 40; ++i)
        b.addi(3, 3, 0);
    b.add(4, 2, 3);
    b.load(5, 4, 0);
    b.bge(20, 5, skip); // not taken, as predicted
    b.load(6, 1, 8);
    for (unsigned i = 0; i < 30; ++i)
        b.mul(6, 6, 7);
    b.bind(skip);
    b.halt();
    const Program program = b.build();
    for (const CleanupMode mode : allModes()) {
        expectSkipMatchesStepping(
            configFor(mode),
            [&](Machine &) -> const Program & { return program; },
            "fill-wait", 1);
    }
}

TEST(IdleSkip, InterruptNoiseMatchesStepping)
{
    // Noise draws the Rng every cycle, so run() must not skip at all.
    AttackSetup setup(UnxpecConfig{}, 1);
    const SystemConfig cfg = configFor(CleanupMode::Cleanup_FOR_L1L2);
    Machine skipping(cfg);
    Machine stepping(cfg);
    skipping.core().setInterruptNoise(0.01, 20, 200);
    stepping.core().setInterruptNoise(0.01, 20, 200);
    const Program &skip_prog = setup(skipping);
    const Program &step_prog = setup(stepping);
    const RunResult skip = skipping.core().run(skip_prog);
    const RunResult step = stepping.runInterleaved({&step_prog})[0];
    expectSameResult(skip, step, "noisy");
    EXPECT_EQ(allStats(skipping.core()), allStats(stepping.core()));
}

TEST(IdleSkip, CycleLimitInsideCleanupStallMatchesStepping)
{
    // Find a rollback stall in the fig03 gadget's run, then cap the
    // run in the middle of it: the skip would jump past the limit if
    // it ignored the watchdog.
    const SystemConfig cfg = configFor(CleanupMode::Cleanup_FOR_L1L2);
    Cycle limit = 0;
    {
        Machine probe(cfg);
        UnxpecAttack attack(probe.core());
        attack.setSecret(1);
        probe.core().cleanup().enableLog(true);
        const Cycle start = probe.core().now();
        probe.run(attack.program());
        for (const SquashLog &log : probe.core().cleanup().log()) {
            if (log.stall >= 8) {
                limit = log.cycle - start + log.stall / 2;
                break;
            }
        }
    }
    ASSERT_GT(limit, 0u) << "no rollback stall to stop inside";

    RunOptions options;
    options.maxCycles = limit;
    AttackSetup setup(UnxpecConfig{}, 1);
    Machine skipping(cfg);
    Machine stepping(cfg);
    const Program &skip_prog = setup(skipping);
    const Program &step_prog = setup(stepping);
    skipping.core().cleanup().enableLog(true);
    const RunResult skip = skipping.core().run(skip_prog, options);
    const RunResult step = stepping.runInterleaved({&step_prog}, options)[0];
    EXPECT_TRUE(skip.cycleLimitReached);
    EXPECT_EQ(skip.cycles, limit);
    ASSERT_FALSE(skipping.core().cleanup().log().empty());
    const SquashLog &last = skipping.core().cleanup().log().back();
    EXPECT_LT(last.cycle, skipping.core().now());
    EXPECT_LT(skipping.core().now(), last.cycle + last.stall)
        << "the limit does not fall inside the rollback stall";
    expectSameResult(skip, step, "capped");
    EXPECT_EQ(skipping.core().now(), stepping.core().now());
    EXPECT_EQ(allStats(skipping.core()), allStats(stepping.core()));
}

TEST(IdleSkip, TrialBudgetMatchesStepping)
{
    // The trial watchdog shares one budget across runs; it must trip
    // on the same cycle of the same run under both drivers.
    const SystemConfig cfg = configFor(CleanupMode::Cleanup_FOR_L1L2);
    AttackSetup setup(UnxpecConfig{}, 1);
    Machine skipping(cfg);
    Machine stepping(cfg);
    const Program &skip_prog = setup(skipping);
    const Program &step_prog = setup(stepping);
    skipping.setCycleBudget(7000);
    stepping.setCycleBudget(7000);
    RunOptions options;
    for (unsigned round = 0; round < 3; ++round) {
        const RunResult skip = skipping.core().run(skip_prog, options);
        const RunResult step =
            stepping.runInterleaved({&step_prog}, options)[0];
        expectSameResult(skip, step, "budget round " +
                                         std::to_string(round));
        EXPECT_EQ(skipping.core().cycleBudgetRemaining(),
                  stepping.core().cycleBudgetRemaining());
        options.loadData = false;
    }
    EXPECT_TRUE(skipping.limitTripped());
    EXPECT_EQ(skipping.core().now(), stepping.core().now());
    EXPECT_EQ(allStats(skipping.core()), allStats(stepping.core()));
}

} // namespace
} // namespace unxpec
