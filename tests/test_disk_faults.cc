/**
 * @file
 * Tests for the fault-injection subsystem: the seeded fault model,
 * disk-level error injection, state-machine edge cases, the kernel's
 * retry/backoff driver with its ErrorRecovery service, and the
 * structured RunResult surfaced by System::run.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "core/experiment.hh"
#include "core/system.hh"
#include "disk/disk.hh"
#include "disk/fault_model.hh"
#include "sim/logging.hh"

using namespace softwatt;

namespace
{

constexpr double freqHz = 200e6;
constexpr double timeScale = 100.0;

/** Ticks for a paper-equivalent number of seconds. */
Tick
equivSeconds(double s)
{
    return Tick(s / timeScale * freqHz);
}

struct Fixture
{
    EventQueue queue;

    Disk
    make(DiskConfig cfg)
    {
        return Disk(queue, freqHz, cfg, timeScale, 1234);
    }
};

DiskFaultConfig
faultsWith(double transient, double seek = 0, double spinup = 0)
{
    DiskFaultConfig f;
    f.enabled = true;
    f.transientErrorRate = transient;
    f.seekErrorRate = seek;
    f.spinupFailureRate = spinup;
    return f;
}

/** A small but complete benchmark run. */
BenchmarkRun
tinyRun(Benchmark b, SystemConfig config = SystemConfig{},
        double scale = 0.03)
{
    config.sampleWindow = 20'000;
    return runBenchmark(b, config, scale);
}

/** Fatal()/panic() throw SimError inside these tests. */
class ThrowingErrors : public ::testing::Test
{
  protected:
    void SetUp() override { setErrorHandler(throwingErrorHandler); }
    void TearDown() override { setErrorHandler(nullptr); }
};

} // namespace

// ---------------------------------------------------------------------
// Fault model unit tests.
// ---------------------------------------------------------------------

TEST(FaultModel, DisabledNeverInjects)
{
    DiskFaultConfig cfg = faultsWith(1.0, 1.0, 1.0);
    cfg.enabled = false;
    DiskFaultModel model(cfg);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(model.injectTransientError(1.0));
        EXPECT_FALSE(model.injectSeekError(1.0));
        EXPECT_FALSE(model.injectSpinupFailure(1.0));
    }
    EXPECT_EQ(model.totalInjected(), 0u);
}

TEST(FaultModel, RateOneAlwaysInjects)
{
    DiskFaultModel model(faultsWith(1.0, 1.0, 1.0));
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(model.injectTransientError(0.5));
        EXPECT_TRUE(model.injectSeekError(0.5));
        EXPECT_TRUE(model.injectSpinupFailure(0.5));
    }
    EXPECT_EQ(model.transientErrors(), 50u);
    EXPECT_EQ(model.seekErrors(), 50u);
    EXPECT_EQ(model.spinupFailures(), 50u);
    EXPECT_EQ(model.totalInjected(), 150u);
}

TEST(FaultModel, SameSeedSameDecisions)
{
    DiskFaultConfig cfg = faultsWith(0.5);
    DiskFaultModel a(cfg), b(cfg);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.injectTransientError(1.0),
                  b.injectTransientError(1.0));
    }
    EXPECT_EQ(a.transientErrors(), b.transientErrors());
}

TEST(FaultModel, RateHalfInjectsRoughlyHalf)
{
    DiskFaultModel model(faultsWith(0.5));
    for (int i = 0; i < 10'000; ++i)
        (void)model.injectTransientError(1.0);
    EXPECT_GT(model.transientErrors(), 4'500u);
    EXPECT_LT(model.transientErrors(), 5'500u);
}

TEST(FaultModel, WindowGatesInjection)
{
    DiskFaultConfig cfg = faultsWith(1.0);
    cfg.windowStartSeconds = 2.0;
    cfg.windowEndSeconds = 4.0;
    DiskFaultModel model(cfg);
    EXPECT_FALSE(model.injectTransientError(1.9));
    EXPECT_TRUE(model.injectTransientError(2.0));
    EXPECT_TRUE(model.injectTransientError(3.9));
    EXPECT_FALSE(model.injectTransientError(4.0));
    EXPECT_EQ(model.transientErrors(), 2u);
}

TEST_F(ThrowingErrors, FaultConfigRejectsBadValues)
{
    DiskFaultConfig bad_rate = faultsWith(1.5);
    EXPECT_THROW(bad_rate.validate("test"), SimError);

    DiskFaultConfig negative = faultsWith(0.1);
    negative.seekErrorRate = -0.2;
    EXPECT_THROW(negative.validate("test"), SimError);

    DiskFaultConfig inverted = faultsWith(0.1);
    inverted.windowStartSeconds = 5.0;
    inverted.windowEndSeconds = 1.0;
    EXPECT_THROW(inverted.validate("test"), SimError);
}

TEST_F(ThrowingErrors, RetryPolicyRejectsBadValues)
{
    Kernel::DiskRetryPolicy p;
    p.maxAttempts = 0;
    EXPECT_THROW(p.validate("test"), SimError);

    p = Kernel::DiskRetryPolicy{};
    p.backoffSeconds = 0;
    EXPECT_THROW(p.validate("test"), SimError);

    p = Kernel::DiskRetryPolicy{};
    p.backoffMultiplier = 0.5;
    EXPECT_THROW(p.validate("test"), SimError);
}

// ---------------------------------------------------------------------
// Disk-level injection.
// ---------------------------------------------------------------------

TEST(DiskFaults, TransientErrorFailsRequestAndDiskRecovers)
{
    Fixture f;
    DiskConfig cfg = DiskConfig::idleOnly();
    cfg.fault = faultsWith(1.0);
    Disk disk = f.make(cfg);

    DiskIoStatus got = DiskIoStatus::Ok;
    int completions = 0;
    disk.submit(100, 2, [&](DiskIoStatus s) {
        got = s;
        ++completions;
    });
    f.queue.advanceTo(equivSeconds(1.0));

    EXPECT_EQ(completions, 1);
    EXPECT_EQ(got, DiskIoStatus::TransientError);
    EXPECT_EQ(disk.requestsFailed(), 1u);
    EXPECT_EQ(disk.requestsServed(), 0u);
    EXPECT_EQ(disk.faults().transientErrors(), 1u);
    EXPECT_EQ(disk.state(), DiskState::Idle);
    EXPECT_TRUE(disk.quiescent());
    // The failed attempt still paid seek + transfer residency.
    EXPECT_GT(disk.stateSeconds(DiskState::Seeking), 0.0);
    EXPECT_GT(disk.stateSeconds(DiskState::Active), 0.0);
}

TEST(DiskFaults, SeekErrorSkipsTransferPhase)
{
    Fixture f;
    DiskConfig cfg = DiskConfig::idleOnly();
    cfg.fault = faultsWith(0, 1.0);
    Disk disk = f.make(cfg);

    DiskIoStatus got = DiskIoStatus::Ok;
    disk.submit(5000, 4, [&](DiskIoStatus s) { got = s; });
    f.queue.advanceTo(equivSeconds(1.0));

    EXPECT_EQ(got, DiskIoStatus::SeekError);
    EXPECT_EQ(disk.requestsFailed(), 1u);
    EXPECT_EQ(disk.faults().seekErrors(), 1u);
    // The seek was spent; the transfer never started.
    EXPECT_GT(disk.stateSeconds(DiskState::Seeking), 0.0);
    EXPECT_DOUBLE_EQ(disk.stateSeconds(DiskState::Active), 0.0);
}

TEST(DiskFaults, SpinupFailureChargesFullSpinupEnergy)
{
    Fixture f;
    DiskConfig cfg = DiskConfig::spindown(0.5);
    cfg.fault = faultsWith(0, 0, 1.0);
    Disk disk = f.make(cfg);

    // One clean request (no spin-up involved, so no fault draw),
    // then 0.5 s idle, 5 s spinning down, STANDBY.
    disk.submit(50, 1, [](DiskIoStatus) {});
    f.queue.advanceTo(equivSeconds(7.0));
    ASSERT_EQ(disk.state(), DiskState::Standby);

    DiskIoStatus got = DiskIoStatus::Ok;
    disk.submit(100, 1, [&](DiskIoStatus s) { got = s; });
    f.queue.advanceTo(equivSeconds(14.0));

    EXPECT_EQ(got, DiskIoStatus::SpinupFailure);
    EXPECT_EQ(disk.spinUps(), 1u);
    EXPECT_EQ(disk.requestsFailed(), 1u);
    EXPECT_EQ(disk.state(), DiskState::Standby);
    // The failed spin-up still spent 5 s at 4.2 W.
    EXPECT_NEAR(disk.stateSeconds(DiskState::SpinningUp), 5.0, 0.01);
    EXPECT_GT(disk.energyJ(), 21.0);
}

TEST(DiskFaults, WindowBeyondRunNeverFires)
{
    Fixture f;
    DiskConfig cfg = DiskConfig::idleOnly();
    cfg.fault = faultsWith(1.0, 1.0, 1.0);
    cfg.fault.windowStartSeconds = 1000.0;
    Disk disk = f.make(cfg);

    DiskIoStatus got = DiskIoStatus::TransientError;
    disk.submit(100, 1, [&](DiskIoStatus s) { got = s; });
    f.queue.advanceTo(equivSeconds(1.0));

    EXPECT_EQ(got, DiskIoStatus::Ok);
    EXPECT_EQ(disk.requestsServed(), 1u);
    EXPECT_EQ(disk.requestsFailed(), 0u);
    EXPECT_EQ(disk.faults().totalInjected(), 0u);
}

TEST(DiskFaults, FaultRunsAreDeterministic)
{
    auto run = [] {
        Fixture f;
        DiskConfig cfg = DiskConfig::idleOnly();
        cfg.fault = faultsWith(0.5, 0.2);
        Disk disk = f.make(cfg);
        std::vector<DiskIoStatus> statuses;
        for (int i = 0; i < 20; ++i)
            disk.submit(100 * i, 1, [&](DiskIoStatus s) {
                statuses.push_back(s);
            });
        f.queue.advanceTo(equivSeconds(10.0));
        return std::make_pair(statuses, disk.energyJ());
    };
    auto a = run();
    auto b = run();
    EXPECT_EQ(a.first, b.first);
    EXPECT_DOUBLE_EQ(a.second, b.second);
}

// ---------------------------------------------------------------------
// State-machine edge cases (faults disabled).
// ---------------------------------------------------------------------

TEST(DiskEdge, SleepWithPendingRequestIsRefused)
{
    Fixture f;
    Disk disk = f.make(DiskConfig::idleOnly());
    bool done = false;
    disk.submit(100, 1, [&](DiskIoStatus) { done = true; });
    disk.sleep();  // must be ignored: a request is in flight
    EXPECT_NE(disk.state(), DiskState::Sleep);
    EXPECT_NE(disk.state(), DiskState::SpinningDown);
    f.queue.advanceTo(equivSeconds(1.0));
    EXPECT_TRUE(done);
    EXPECT_EQ(disk.requestsServed(), 1u);
    // Quiescent now: sleep is honoured.
    disk.sleep();
    f.queue.advanceTo(equivSeconds(10.0));
    EXPECT_EQ(disk.state(), DiskState::Sleep);
}

TEST(DiskEdge, SubmitWhileSpinningDownWaitsThenSpinsUp)
{
    Fixture f;
    Disk disk = f.make(DiskConfig::spindown(0.5));
    // The inactivity timer arms once a request completes; let the
    // spin-down start (threshold 0.5 s, spin-down lasts 5 s).
    disk.submit(50, 1, [](DiskIoStatus) {});
    f.queue.advanceTo(equivSeconds(1.0));
    ASSERT_EQ(disk.state(), DiskState::SpinningDown);

    bool done = false;
    disk.submit(100, 1, [&](DiskIoStatus s) {
        done = (s == DiskIoStatus::Ok);
    });
    // Still spinning down; the request waits for STANDBY.
    EXPECT_EQ(disk.state(), DiskState::SpinningDown);
    f.queue.advanceTo(equivSeconds(15.0));
    EXPECT_TRUE(done);
    EXPECT_EQ(disk.spinUps(), 1u);
    EXPECT_EQ(disk.requestsServed(), 2u);
}

TEST(DiskEdge, TinySpindownThresholdSpinsDownPromptly)
{
    Fixture f;
    Disk disk = f.make(DiskConfig::spindown(1e-6));
    bool done = false;
    disk.submit(100, 1, [&](DiskIoStatus) { done = true; });
    f.queue.advanceTo(equivSeconds(6.0));
    EXPECT_TRUE(done);
    // The near-zero threshold spun the disk down immediately after
    // the request completed.
    EXPECT_EQ(disk.state(), DiskState::Standby);
    EXPECT_EQ(disk.spinDowns(), 1u);
}

TEST(DiskEdge, HugeSpindownThresholdNeverFires)
{
    Fixture f;
    Disk disk = f.make(DiskConfig::spindown(1e6));
    bool done = false;
    disk.submit(100, 1, [&](DiskIoStatus) { done = true; });
    f.queue.advanceTo(equivSeconds(60.0));
    EXPECT_TRUE(done);
    EXPECT_EQ(disk.state(), DiskState::Idle);
    EXPECT_EQ(disk.spinDowns(), 0u);
}

TEST(DiskEdge, EnergyIsMonotonicAcrossModeChanges)
{
    Fixture f;
    Disk disk = f.make(DiskConfig::spindown(0.5));
    disk.submit(100, 2, [](DiskIoStatus) {});
    double last = 0;
    // Sample through service, idle, spin-down, standby and sleep.
    for (int i = 1; i <= 40; ++i) {
        f.queue.advanceTo(equivSeconds(0.5 * i));
        if (i == 30)
            disk.sleep();
        double now = disk.energyJ();
        EXPECT_GE(now, last) << "at sample " << i;
        last = now;
    }
    EXPECT_GT(last, 0.0);
}

// ---------------------------------------------------------------------
// Kernel retry/recovery and structured run results.
// ---------------------------------------------------------------------

TEST(FaultRecovery, TransientFaultsAreRetriedAndRunCompletes)
{
    SystemConfig config;
    config.diskConfig.fault = faultsWith(0.3);
    BenchmarkRun run = tinyRun(Benchmark::Jess, config);
    System &sys = *run.system;

    EXPECT_TRUE(run.result.ok());
    EXPECT_TRUE(sys.kernel().workloadDone());
    EXPECT_GT(sys.kernel().diskFaults(), 0u);
    EXPECT_GT(sys.kernel().diskRetries(), 0u);
    EXPECT_EQ(sys.kernel().diskGiveUps(), 0u);
    EXPECT_EQ(sys.disk().faults().transientErrors(),
              sys.kernel().diskFaults());

    // The recovery handler ran as an energy-attributed service.
    const ServiceStats &recovery =
        sys.kernel().serviceStats(ServiceKind::ErrorRecovery);
    EXPECT_GT(recovery.invocations, 0u);
    EXPECT_EQ(recovery.invocations, sys.kernel().diskRetries());
    EXPECT_GT(recovery.cycles, 0u);
    EXPECT_GT(recovery.energyJ, 0.0);

    // Counters made it into the totals bank.
    EXPECT_EQ(sys.totals().total(CounterId::DiskRetry),
              sys.kernel().diskRetries());
    EXPECT_EQ(sys.totals().total(CounterId::DiskFault),
              sys.kernel().diskFaults());

    // And into dumpStats.
    std::ostringstream out;
    sys.dumpStats(out);
    EXPECT_NE(out.str().find("disk.faults.transient"),
              std::string::npos);
    EXPECT_NE(out.str().find("kernel.disk_retries"),
              std::string::npos);
}

TEST(FaultRecovery, FaultyRunCostsMoreThanCleanRun)
{
    BenchmarkRun clean = tinyRun(Benchmark::Jess);
    SystemConfig config;
    config.diskConfig.fault = faultsWith(0.4);
    BenchmarkRun faulty = tinyRun(Benchmark::Jess, config);
    ASSERT_TRUE(faulty.result.ok());
    // Recovery costs time (backoff + retried mechanics) and energy.
    EXPECT_GT(faulty.system->now(), clean.system->now());
    EXPECT_GT(faulty.system->diskEnergyJ(),
              clean.system->diskEnergyJ());
}

TEST(FaultRecovery, PersistentFaultsGiveUpWithStructuredResult)
{
    SystemConfig config;
    config.diskConfig.fault = faultsWith(1.0);
    config.kernelParams.diskRetry.maxAttempts = 3;
    BenchmarkRun run = tinyRun(Benchmark::Jess, config);
    System &sys = *run.system;

    EXPECT_EQ(run.result.outcome, RunOutcome::IoFailed);
    EXPECT_FALSE(run.result.ok());
    EXPECT_NE(run.result.diagnostics.find("transient"),
              std::string::npos);
    EXPECT_GE(sys.kernel().diskGiveUps(), 1u);
    EXPECT_EQ(sys.kernel().diskRetries(), 2u);
    EXPECT_TRUE(sys.kernel().ioFailed());
    EXPECT_EQ(sys.kernel().ioFailure().attempts, 3);
    // The partial statistics stay inspectable.
    EXPECT_GT(sys.now(), 0u);
    EXPECT_GT(run.breakdown.cpuMemEnergyJ(), 0.0);
}

TEST(FaultRecovery, WatchdogExpiryIsStructuredNotFatal)
{
    SystemConfig config;
    config.maxCycles = 50'000;
    BenchmarkRun run = tinyRun(Benchmark::Jess, config);
    EXPECT_EQ(run.result.outcome, RunOutcome::WatchdogExpired);
    EXPECT_GE(run.result.cycles, 50'000u);
    // The idle fast-forward that crossed the cap ends where it landed.
    EXPECT_EQ(run.result.cycles, 51'089u);
    EXPECT_NE(run.result.diagnostics.find("watchdog"),
              std::string::npos);
}

TEST(FaultRecovery, RunOutcomeNames)
{
    EXPECT_STREQ(runOutcomeName(RunOutcome::Completed), "completed");
    EXPECT_STREQ(runOutcomeName(RunOutcome::WatchdogExpired),
                 "watchdog-expired");
    EXPECT_STREQ(runOutcomeName(RunOutcome::IoFailed), "io-failed");
}

// ---------------------------------------------------------------------
// Configuration plumbing.
// ---------------------------------------------------------------------

TEST(FaultConfig, FromConfigReadsFaultAndRetryKeys)
{
    Config args;
    args.parseAssignment("disk.fault.enabled=true");
    args.parseAssignment("disk.fault.transient_rate=0.25");
    args.parseAssignment("disk.fault.seek_rate=0.125");
    args.parseAssignment("disk.fault.window_start_s=1.5");
    args.parseAssignment("disk.fault.seed=42");
    args.parseAssignment("disk.retry.max_attempts=4");
    args.parseAssignment("disk.retry.backoff_s=0.01");
    SystemConfig config = SystemConfig::fromConfig(args);
    EXPECT_TRUE(config.diskConfig.fault.enabled);
    EXPECT_DOUBLE_EQ(config.diskConfig.fault.transientErrorRate,
                     0.25);
    EXPECT_DOUBLE_EQ(config.diskConfig.fault.seekErrorRate, 0.125);
    EXPECT_DOUBLE_EQ(config.diskConfig.fault.windowStartSeconds, 1.5);
    EXPECT_EQ(config.diskConfig.fault.seed, 42u);
    EXPECT_EQ(config.kernelParams.diskRetry.maxAttempts, 4);
    EXPECT_DOUBLE_EQ(config.kernelParams.diskRetry.backoffSeconds,
                     0.01);
}

TEST_F(ThrowingErrors, FromConfigRejectsOutOfRangeValues)
{
    {
        Config args;
        args.parseAssignment("time_scale=-1");
        EXPECT_THROW(SystemConfig::fromConfig(args), SimError);
    }
    {
        Config args;
        args.parseAssignment("sample_window=0");
        EXPECT_THROW(SystemConfig::fromConfig(args), SimError);
    }
    {
        Config args;
        args.parseAssignment("max_cycles=0");
        EXPECT_THROW(SystemConfig::fromConfig(args), SimError);
    }
    {
        Config args;
        args.parseAssignment("disk.fault.transient_rate=2.0");
        EXPECT_THROW(SystemConfig::fromConfig(args), SimError);
    }
    {
        Config args;
        args.parseAssignment("disk.retry.max_attempts=0");
        EXPECT_THROW(SystemConfig::fromConfig(args), SimError);
    }
    {
        Config args;
        args.parseAssignment("disk.config=spindown");
        args.parseAssignment("disk.threshold_s=-2");
        EXPECT_THROW(SystemConfig::fromConfig(args), SimError);
    }
}
