/**
 * @file
 * Differential tests for Core::run's idle-cycle skip. Core::run jumps
 * over cycles in which no pipeline stage can act; a one-core
 * Machine::runInterleaved drives the same core through runStep(), one
 * cycle at a time, and never skips. Every program here runs on two
 * fresh, identically seeded machines, one per driver, under every
 * CleanupMode: results, every statistics counter, the core clock and
 * the Rng stream position must come out identical. Under interrupt
 * noise the skip replays each skipped cycle's draw, so noisy runs
 * are compared the same way.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/noise.hh"
#include "attack/unxpec.hh"
#include "cpu/core.hh"
#include "machine/machine.hh"
#include "victim/victim.hh"

namespace unxpec {

/** Test-only hooks into Core's idle-cycle skip (friend of Core). */
struct AuditTap
{
    static Cycle
    nextActiveCycle(const Core &core)
    {
        return core.nextActiveCycle();
    }

    static Cycle stallUntil(const Core &core) { return core.stallUntil_; }

    static void skipIdleCycles(Core &core) { core.skipIdleCycles(); }
};

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

/** The value the core's Rng draws next, without drawing it. */
double
nextDraw(Core &core)
{
    Rng peek = core.rng();
    return peek.uniform();
}

/** Interrupt-noise profiles the noisy cases sweep. */
struct NamedNoise
{
    const char *name;
    NoiseProfile profile;
};

/** Interrupts every ~20 cycles: hits land inside most jumps, and
 *  stalls overlap and extend each other. */
NoiseProfile
denseNoise()
{
    NoiseProfile dense;
    dense.interruptProbPerCycle = 0.05;
    dense.interruptStallMin = 20;
    dense.interruptStallMax = 200;
    return dense;
}

const std::vector<NamedNoise> &
noiseProfiles()
{
    static const std::vector<NamedNoise> profiles = {
        {"evaluation", NoiseProfile::evaluation()},
        {"noisy_host", NoiseProfile::noisyHost()},
        {"dense", denseNoise()},
    };
    return profiles;
}

/** Two identically seeded one-core machines under the same noise. */
struct MachinePair
{
    MachinePair(SystemConfig cfg, const NoiseProfile &noise)
        : skipping((noise.applyTo(cfg), cfg)), stepping(cfg)
    {
        noise.applyTo(skipping.core());
        noise.applyTo(stepping.core());
    }

    Machine skipping;
    Machine stepping;
};

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

/** Same clock, counters and Rng stream position on both cores. */
void
expectSameCore(Core &skip, Core &step, const std::string &where)
{
    EXPECT_EQ(skip.now(), step.now()) << where;
    EXPECT_EQ(allStats(skip), allStats(step)) << where;
    EXPECT_EQ(nextDraw(skip), nextDraw(step)) << where;
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
 * warm caches and a trained predictor. Both machines run under
 * `noise`.
 */
void
expectSkipMatchesStepping(const SystemConfig &cfg, const Setup &setup,
                          const std::string &name, unsigned rounds = 2,
                          RunOptions options = {},
                          const NoiseProfile &noise = NoiseProfile::quiet())
{
    MachinePair pair(cfg, noise);
    Machine &skipping = pair.skipping;
    Machine &stepping = pair.stepping;
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
        expectSameCore(skipping.core(), stepping.core(), where);
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
    // The skip draws each skipped cycle's interrupt in order, so the
    // Rng stream, and with it every noisy result, is the stepped one.
    const VictimListing aes = buildVictim(VictimConfig{});
    RunOptions poked;
    poked.loadData = false;
    for (const CleanupMode mode : allModes()) {
        for (const NamedNoise &noise : noiseProfiles()) {
            for (const int secret : {0, 1}) {
                const std::string tag = std::string(" noise=") +
                    noise.name + " secret=" + std::to_string(secret);
                AttackSetup setup(UnxpecConfig{}, secret);
                expectSkipMatchesStepping(configFor(mode), std::ref(setup),
                                          "fig03" + tag, 2, {},
                                          noise.profile);
                // The AES key's first byte picks the lines the victim
                // touches: load the image, then poke it.
                expectSkipMatchesStepping(
                    configFor(mode),
                    [&](Machine &machine) -> const Program & {
                        aes.program.loadInitialData(machine.core().mem());
                        machine.core().mem().write8(
                            aes.symbol(kAesKeySym), secret ? 0xa5 : 0x00);
                        return aes.program;
                    },
                    "victim-aes" + tag, 1, poked, noise.profile);
            }
        }
    }
}

TEST(IdleSkip, NoiseJumpsOverWholeStalls)
{
    // A stall that a replayed draw starts extends the jump past it:
    // run() never steps a cycle that an earlier stall already froze.
    const VictimListing aes = buildVictim(VictimConfig{});
    for (const CleanupMode mode : allModes()) {
        AttackSetup setup(UnxpecConfig{}, 1);
        MachinePair pair(configFor(mode), denseNoise());
        Core &core = pair.skipping.core();
        for (const Program *program : {&setup(pair.skipping), &aes.program}) {
            core.runBegin(*program);
            unsigned stalls = 0;
            while (core.runStep()) {
                stalls += AuditTap::stallUntil(core) > core.now() + 1;
                AuditTap::skipIdleCycles(core);
                ASSERT_GE(core.now() + 1, AuditTap::stallUntil(core))
                    << toString(mode) << " landed inside a stall";
            }
            core.runFinish();
            EXPECT_GT(stalls, 0u) << toString(mode) << " never stalled";
        }
    }
}

TEST(IdleSkip, CycleLimitInsideInterruptStallMatchesStepping)
{
    // Find a jump in which a replayed draw starts a stall that outlasts
    // the jump's event, then cap the run in the stretch between the
    // event and the stall's end: the capped jump must stop there.
    const SystemConfig cfg = configFor(CleanupMode::Cleanup_FOR_L1L2);
    Cycle limit = 0;
    {
        AttackSetup setup(UnxpecConfig{}, 1);
        MachinePair probe(cfg, denseNoise());
        Core &core = probe.skipping.core();
        const Program &program = setup(probe.skipping);
        const Cycle start = core.now();
        core.runBegin(program);
        while (limit == 0 && core.runStep()) {
            const Cycle from = core.now();
            const Cycle event = AuditTap::nextActiveCycle(core);
            AuditTap::skipIdleCycles(core);
            const Cycle stall = AuditTap::stallUntil(core);
            if (event > from + 1 && stall > event + 1)
                limit = (event + stall) / 2 - start;
        }
    }
    ASSERT_GT(limit, 0u) << "no stall started inside a jump";

    RunOptions options;
    options.maxCycles = limit;
    AttackSetup setup(UnxpecConfig{}, 1);
    MachinePair pair(cfg, denseNoise());
    const Program &skip_prog = setup(pair.skipping);
    const Program &step_prog = setup(pair.stepping);
    const RunResult skip = pair.skipping.core().run(skip_prog, options);
    const RunResult step =
        pair.stepping.runInterleaved({&step_prog}, options)[0];
    EXPECT_TRUE(skip.cycleLimitReached);
    EXPECT_EQ(skip.cycles, limit);
    EXPECT_LT(pair.skipping.core().now(),
              AuditTap::stallUntil(pair.skipping.core()))
        << "the limit does not fall inside the interrupt stall";
    expectSameResult(skip, step, "capped in an interrupt stall");
    expectSameCore(pair.skipping.core(), pair.stepping.core(),
                   "capped in an interrupt stall");
}

TEST(IdleSkip, RunOffInsideInterruptStallMatchesStepping)
{
    // An empty program has nothing to wait for: the first unstalled
    // cycle ends the run. One-cycle stalls on every other cycle put
    // an interrupt on the first cycle of some rounds; the jump must
    // stop at the stall's end, not run to the cycle limit.
    NoiseProfile coin;
    coin.interruptProbPerCycle = 0.5;
    coin.interruptStallMin = 1;
    coin.interruptStallMax = 1;
    RunOptions options;
    options.maxCycles = 1000;
    const Program empty = ProgramBuilder().build();
    expectSkipMatchesStepping(
        configFor(CleanupMode::UnsafeBaseline),
        [&](Machine &) -> const Program & { return empty; },
        "empty program", 8, options, coin);
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
    expectSameCore(skipping.core(), stepping.core(), "capped");
}

TEST(IdleSkip, TrialBudgetMatchesStepping)
{
    // The trial watchdog shares one budget across runs; it must trip
    // on the same cycle of the same run under both drivers, with and
    // without interrupt noise.
    for (const NoiseProfile &noise : {NoiseProfile::quiet(), denseNoise()}) {
        const std::string tag =
            noise.interruptProbPerCycle > 0.0 ? "noisy " : "quiet ";
        AttackSetup setup(UnxpecConfig{}, 1);
        MachinePair pair(configFor(CleanupMode::Cleanup_FOR_L1L2), noise);
        Machine &skipping = pair.skipping;
        Machine &stepping = pair.stepping;
        const Program &skip_prog = setup(skipping);
        const Program &step_prog = setup(stepping);
        skipping.setCycleBudget(7000);
        stepping.setCycleBudget(7000);
        RunOptions options;
        for (unsigned round = 0; round < 3; ++round) {
            const std::string where =
                tag + "budget round " + std::to_string(round);
            const RunResult skip = skipping.core().run(skip_prog, options);
            const RunResult step =
                stepping.runInterleaved({&step_prog}, options)[0];
            expectSameResult(skip, step, where);
            EXPECT_EQ(skipping.core().cycleBudgetRemaining(),
                      stepping.core().cycleBudgetRemaining())
                << where;
            options.loadData = false;
        }
        EXPECT_TRUE(skipping.limitTripped()) << tag;
        expectSameCore(skipping.core(), stepping.core(), tag + "budget");
    }
}

} // namespace
} // namespace unxpec
