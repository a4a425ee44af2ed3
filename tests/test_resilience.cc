/**
 * @file
 * Tests for resilient experiment execution: the per-run exception
 * firewall, simulated-time deadlines, cooperative cancellation and
 * shutdown drain, and crash-resume through the run journal —
 * including a real SIGKILLed child process whose sweep is resumed
 * and must reproduce the uninterrupted document byte-for-byte.
 */

#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "core/journal.hh"
#include "core/runner.hh"
#include "sim/cancel.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/signals.hh"
#include "sim/logging.hh"

using namespace softwatt;

namespace
{

/** Read a whole file; "" when absent. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
jsonOf(const ExperimentResult &result)
{
    std::ostringstream out;
    result.writeJson(out);
    return out.str();
}

/** Per-test scratch path (ctest runs tests concurrently in one dir). */
std::string
scratch(const std::string &name)
{
    return "resilience_" + name;
}

void
removeOutputs(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(journalPathFor(path).c_str());
}

ExperimentSpec
threeRunSpec(const std::string &title, int jobs)
{
    ExperimentSpec spec;
    spec.title = title;
    spec.jobs = jobs;
    SystemConfig config;
    spec.add(Benchmark::Jess, config, 0.05);
    spec.add(Benchmark::Compress, config, 0.05);
    spec.add(Benchmark::Db, config, 0.05);
    return spec;
}

/** jess at scale 0.05 under the given key=value assignments. */
RunSpec
jessSpec(const std::string &assignments)
{
    Config config;
    std::istringstream words(assignments);
    std::string word;
    while (words >> word)
        EXPECT_TRUE(config.parseAssignment(word)) << word;
    RunSpec spec;
    spec.bench = Benchmark::Jess;
    spec.scale = 0.05;
    spec.config = SystemConfig::fromConfig(config);
    return spec;
}

std::uint64_t
machineOf(const RunSpec &spec)
{
    return machineCheckpointFingerprint(spec.bench, spec.config,
                                        spec.scale);
}

class QuietLog
{
  public:
    QuietLog() : saved(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved); }

  private:
    LogLevel saved;
};

} // namespace

TEST(RunnerResilience, InjectedThrowIsFirewalledToAFailedRun)
{
    QuietLog quiet;
    ExperimentSpec spec = threeRunSpec("firewall", 1);
    spec.runs[1].injectFailure = "deliberately poisoned run";

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 3u);

    // The poisoned run is recorded, not fatal to the sweep.
    const BenchmarkRun &failed = result.at(1);
    EXPECT_EQ(failed.result.outcome, RunOutcome::Failed);
    EXPECT_FALSE(failed.hasData());
    EXPECT_EQ(failed.attempts, 1);
    EXPECT_NE(failed.error.find("deliberately poisoned run"),
              std::string::npos);

    // Its neighbours completed normally.
    EXPECT_EQ(result.at(0).result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.at(2).result.outcome, RunOutcome::Completed);
    EXPECT_TRUE(result.at(0).hasData());

    EXPECT_EQ(result.failedRuns(), 1u);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_FALSE(result.interrupted());

    // The document records the failure alongside the good runs.
    std::string doc = jsonOf(result);
    EXPECT_NE(doc.find("\"outcome\": \"failed\""),
              std::string::npos);
    EXPECT_NE(doc.find("deliberately poisoned run"),
              std::string::npos);
    EXPECT_NE(doc.find("\"outcome\": \"completed\""),
              std::string::npos);
}

TEST(RunnerResilience, FirewalledSweepIsDeterministicAcrossJobs)
{
    QuietLog quiet;
    ExperimentSpec serial = threeRunSpec("firewall-det", 1);
    serial.runs[1].injectFailure = "boom";
    ExperimentSpec parallel = threeRunSpec("firewall-det", 4);
    parallel.runs[1].injectFailure = "boom";

    std::string a = jsonOf(runExperiment(serial));
    std::string b = jsonOf(runExperiment(parallel));
    EXPECT_EQ(a, b);
}

TEST(RunnerResilience, DiagnosticRerunRecordsSecondAttempt)
{
    QuietLog quiet;
    ExperimentSpec spec;
    spec.title = "diagnose";
    spec.jobs = 1;
    spec.diagnose = true;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    spec.runs[0].injectFailure = "persistent failure";

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result.at(0).result.outcome, RunOutcome::Failed);
    EXPECT_EQ(result.at(0).attempts, 2);
    EXPECT_NE(jsonOf(result).find("\"attempts\": 2"),
              std::string::npos);
}

TEST(RunnerResilience, DeadlineExpiryIsARecordedOutcome)
{
    QuietLog quiet;
    ExperimentSpec spec;
    spec.title = "deadline";
    spec.jobs = 1;
    SystemConfig config;
    // A budget of 1 ms simulated time trips long before the 0.05
    // scale jess run completes.
    config.deadlineSeconds = 1e-3;
    spec.add(Benchmark::Jess, config, 0.05);
    spec.add(Benchmark::Compress, SystemConfig{}, 0.05);

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 2u);

    const BenchmarkRun &expired = result.at(0);
    EXPECT_EQ(expired.result.outcome, RunOutcome::DeadlineExceeded);
    EXPECT_TRUE(expired.hasData());  // partial stats survive
    EXPECT_FALSE(expired.result.diagnostics.empty());

    // The deadline is simulated time, so expiry is deterministic.
    ExperimentResult again = runExperiment(spec);
    EXPECT_EQ(expired.result.cycles, again.at(0).result.cycles);

    // An expired budget is a recorded outcome, not a sweep failure.
    EXPECT_EQ(result.at(1).result.outcome, RunOutcome::Completed);
    EXPECT_EQ(result.exitCode(), 0);
}

TEST(RunnerResilience, SpecDeadlineOnlyFillsUnsetRunBudgets)
{
    QuietLog quiet;
    ExperimentSpec spec;
    spec.title = "deadline-spread";
    spec.jobs = 1;
    spec.deadlineS = 1e-3;
    SystemConfig own;
    own.deadlineSeconds = 1e18;  // effectively unbounded
    spec.add(Benchmark::Jess, own, 0.02, "own");
    spec.add(Benchmark::Jess, SystemConfig{}, 0.02, "spec");

    ExperimentResult result = runExperiment(spec);
    EXPECT_EQ(result.run(Benchmark::Jess, "own").result.outcome,
              RunOutcome::Completed);
    EXPECT_EQ(result.run(Benchmark::Jess, "spec").result.outcome,
              RunOutcome::DeadlineExceeded);
}

TEST(RunnerResilience, DrainRequestSkipsPendingRunsAndFlagsDoc)
{
    QuietLog quiet;
    CancelToken token;
    token.request(CancelToken::Drain);

    ExperimentSpec spec = threeRunSpec("drain", 1);
    spec.cancel = &token;

    ExperimentResult result = runExperiment(spec);
    ASSERT_EQ(result.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(result.at(i).result.outcome,
                  RunOutcome::Cancelled);
        EXPECT_FALSE(result.at(i).hasData());
    }
    EXPECT_TRUE(result.interrupted());
    EXPECT_EQ(result.exitCode(), 130);
    EXPECT_NE(jsonOf(result).find("\"interrupted\": true"),
              std::string::npos);
}

TEST(RunnerResilience, HardCancelStopsInFlightRunAtWindowBoundary)
{
    QuietLog quiet;
    CancelToken token;
    token.request(CancelToken::Hard);

    // Drive System::run directly: a pre-set Hard token stops the run
    // at its first closed sample window, with consistent partials.
    RunOptions options;
    options.cancel = &token;
    BenchmarkRun run =
        runBenchmark(Benchmark::Jess, SystemConfig{}, 0.05, options);
    EXPECT_EQ(run.result.outcome, RunOutcome::Cancelled);
    ASSERT_TRUE(run.hasData());
    EXPECT_GT(run.system->now(), 0u);
}

TEST(RunnerResilience, SignalGuardInstallsAndRestoresHandlers)
{
    CancelToken token;
    EXPECT_FALSE(SignalGuard::active());
    {
        SignalGuard guard(token);
        EXPECT_TRUE(SignalGuard::active());
        // A real SIGINT to ourselves escalates the token one step.
        ASSERT_EQ(raise(SIGINT), 0);
        EXPECT_EQ(token.level(), CancelToken::Drain);
        ASSERT_EQ(raise(SIGTERM), 0);
        EXPECT_EQ(token.level(), CancelToken::Hard);
        EXPECT_EQ(SignalGuard::deliveredSignals(), 2);
    }
    EXPECT_FALSE(SignalGuard::active());
}

TEST(RunnerResilience, SighupDrainsLikeSigterm)
{
    // A closed terminal or dropped ssh session (SIGHUP) must get the
    // same graceful-drain treatment as SIGTERM: in-flight work is
    // journaled and autosaved instead of dying mid-write.
    struct sigaction before = {};
    ASSERT_EQ(sigaction(SIGHUP, nullptr, &before), 0);

    CancelToken token;
    {
        SignalGuard guard(token);
        ASSERT_EQ(raise(SIGHUP), 0);
        EXPECT_EQ(token.level(), CancelToken::Drain);
        ASSERT_EQ(raise(SIGHUP), 0);
        EXPECT_EQ(token.level(), CancelToken::Hard);
        EXPECT_EQ(SignalGuard::deliveredSignals(), 2);
    }
    EXPECT_FALSE(SignalGuard::active());

    // Disposition is restored on guard destruction; a stray SIGHUP
    // handler leaking past the experiment would break every harness
    // run under nohup.
    struct sigaction after = {};
    ASSERT_EQ(sigaction(SIGHUP, nullptr, &after), 0);
    EXPECT_EQ(before.sa_handler, after.sa_handler);
}

TEST(RunnerResilience, SpecFingerprintTracksConfigChanges)
{
    RunSpec a;
    a.bench = Benchmark::Jess;
    a.scale = 0.05;
    RunSpec b = a;
    EXPECT_EQ(specFingerprint(a), specFingerprint(b));

    b.scale = 0.06;
    EXPECT_NE(specFingerprint(a), specFingerprint(b));

    b = a;
    b.config.kernelParams.seed += 1;
    EXPECT_NE(specFingerprint(a), specFingerprint(b));

    b = a;
    b.variant = "x";
    EXPECT_NE(specFingerprint(a), specFingerprint(b));

    // Run management: part of the run's identity, not the machine's.
    b = a;
    b.config.deadlineSeconds = 5;
    EXPECT_NE(specFingerprint(a), specFingerprint(b));
    EXPECT_EQ(machineOf(a), machineOf(b));
    b = a;
    b.config.shutdownGraceSeconds = 1;
    EXPECT_NE(specFingerprint(a), specFingerprint(b));
    EXPECT_EQ(machineOf(a), machineOf(b));
    b = a;
    b.checkpointEveryS = 0.0002;
    EXPECT_NE(specFingerprint(a), specFingerprint(b));
    EXPECT_EQ(machineOf(a), machineOf(b));

    // A field no config key reaches.
    b = a;
    b.config.kernelParams.tuning.powerReadLength += 1;
    EXPECT_NE(specFingerprint(a), specFingerprint(b));
    EXPECT_NE(machineOf(a), machineOf(b));

    // One case per key SystemConfig::fromConfig and
    // MachineParams::applyConfig read, each at a valid non-default
    // value. Keys that only apply under another setting change
    // against a base that has that setting.
    struct KeyCase
    {
        const char *base;
        const char *changed;
    };
    const KeyCase cases[] = {
        {"", "cpu.model=mipsy"},
        {"", "cpu.inst_window=48"},
        {"", "cpu.lsq_size=16"},
        {"", "cpu.fetch_width=2"},
        {"", "cpu.decode_width=2"},
        {"", "cpu.issue_width=2"},
        {"", "cpu.commit_width=2"},
        {"", "cpu.int_alus=1"},
        {"", "cpu.fp_alus=1"},
        {"", "cpu.bht_entries=512"},
        {"", "cpu.btb_entries=512"},
        {"", "cpu.ras_entries=16"},
        {"", "icache.size_kb=64"},
        {"", "icache.line=32"},
        {"", "icache.ways=4"},
        {"", "dcache.size_kb=64"},
        {"", "dcache.line=32"},
        {"", "dcache.ways=4"},
        {"", "l2.size_kb=512"},
        {"", "l2.line=64"},
        {"", "l2.ways=4"},
        {"", "l2.latency=12"},
        {"", "tlb.entries=8"},
        {"", "mem.latency=80"},
        {"", "mem.size_mb=64"},
        {"", "tech.feature_um=0.25"},
        {"", "tech.vdd=2.5"},
        {"", "tech.mhz=300"},
        {"", "disk.config=conventional"},
        {"", "disk.config=spindown"},
        {"disk.config=spindown", "disk.config=spindown disk.threshold_s=3"},
        {"", "disk.fault.enabled=true"},
        {"", "disk.fault.transient_rate=0.1"},
        {"", "disk.fault.seek_rate=0.1"},
        {"", "disk.fault.spinup_rate=0.1"},
        {"", "disk.fault.window_start_s=0.5"},
        {"", "disk.fault.window_end_s=10"},
        {"", "disk.fault.seed=5"},
        {"", "disk.retry.max_attempts=3"},
        {"", "disk.retry.backoff_s=0.05"},
        {"", "disk.retry.multiplier=3"},
        {"", "time_scale=50"},
        {"", "sample_window=50000"},
        {"", "max_cycles=1000000000"},
        {"", "power.calibrated=false"},
        {"", "clock_interrupts=false"},
        {"", "seed=7"},
        {"", "halt_on_idle=true"},
        {"", "power_budget_w=3"},
        {"", "dvfs=1 power_budget_w=3"},
        {"power_budget_w=3", "dvfs=1 power_budget_w=3"},
        {"", "adaptive_spindown=1 disk.config=spindown"},
        {"disk.config=spindown", "adaptive_spindown=1 disk.config=spindown"},
    };
    for (const KeyCase &c : cases) {
        RunSpec base = jessSpec(c.base);
        RunSpec changed = jessSpec(c.changed);
        EXPECT_NE(specFingerprint(base), specFingerprint(changed))
            << c.changed;
        if (std::string(c.changed) == "cpu.model=mipsy") {
            // Outside the machine fingerprint: a checkpoint restores
            // into the other CPU model (warm start).
            EXPECT_EQ(machineOf(base), machineOf(changed));
        } else {
            EXPECT_NE(machineOf(base), machineOf(changed)) << c.changed;
        }
    }

    // Checkpoints and warm-pool images written by earlier builds
    // carry this value; a change here orphans all of them.
    EXPECT_EQ(machineOf(a), 0xcbc0f899379a3b38ull);
    EXPECT_EQ(machineOf(jessSpec("")), 0xcbc0f899379a3b38ull);
}

TEST(RunnerResilience, JournalWrittenAndResumeSplicesBitIdentical)
{
    QuietLog quiet;
    const std::string out = scratch("resume.json");
    removeOutputs(out);

    ExperimentSpec spec = threeRunSpec("resume", 1);
    spec.jsonPath = out;

    // Uninterrupted reference run.
    ExperimentResult reference = runExperiment(spec);
    std::string reference_doc = slurp(out);
    ASSERT_FALSE(reference_doc.empty());

    // The journal holds one entry per completed run.
    std::vector<JournalEntry> entries =
        RunJournal::load(journalPathFor(out));
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].experiment, "resume");
    EXPECT_EQ(entries[0].outcome, "completed");

    // Simulate a crash after two runs: keep only two journal lines.
    {
        std::string journal = slurp(journalPathFor(out));
        std::size_t first = journal.find('\n');
        std::size_t second = journal.find('\n', first + 1);
        ASSERT_NE(second, std::string::npos);
        std::ofstream torn(journalPathFor(out), std::ios::trunc);
        torn << journal.substr(0, second + 1);
    }
    std::remove(out.c_str());

    // Resume: two runs restore from the journal, one re-executes.
    ExperimentSpec resumed_spec = threeRunSpec("resume", 1);
    resumed_spec.jsonPath = out;
    resumed_spec.resume = true;
    ExperimentResult resumed = runExperiment(resumed_spec);

    EXPECT_TRUE(resumed.at(0).restored());
    EXPECT_TRUE(resumed.at(1).restored());
    EXPECT_FALSE(resumed.at(2).restored());
    EXPECT_TRUE(resumed.at(2).hasData());
    EXPECT_EQ(resumed.exitCode(), 0);

    // The resumed document is byte-identical to the reference.
    EXPECT_EQ(slurp(out), reference_doc);

    removeOutputs(out);
}

TEST(RunnerResilience, ResumeIgnoresEntriesWithChangedConfig)
{
    QuietLog quiet;
    const std::string out = scratch("stale.json");
    removeOutputs(out);

    ExperimentSpec spec;
    spec.title = "stale";
    spec.jobs = 1;
    spec.jsonPath = out;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    runExperiment(spec);

    // Same benchmark, different scale: the journal entry no longer
    // matches and the run must re-execute.
    ExperimentSpec changed;
    changed.title = "stale";
    changed.jobs = 1;
    changed.jsonPath = out;
    changed.resume = true;
    changed.add(Benchmark::Jess, SystemConfig{}, 0.06);
    ExperimentResult result = runExperiment(changed);
    EXPECT_FALSE(result.at(0).restored());
    EXPECT_TRUE(result.at(0).hasData());

    // The original rows under the DVFS governor: again no entry is
    // theirs, and the document reports the governor.
    ExperimentSpec governed = spec;
    governed.resume = true;
    for (RunSpec &rs : governed.runs) {
        rs.config.dvfsEnabled = true;
        rs.config.powerBudgetW = 3;
    }
    result = runExperiment(governed);
    EXPECT_FALSE(result.at(0).restored());
    EXPECT_TRUE(result.at(0).hasData());
    EXPECT_NE(slurp(out).find("\"dvfs\""), std::string::npos);

    // The original rows at an autosave cadence, which squashes the
    // pipeline at its ticks and so changes the results.
    ExperimentSpec cadence = spec;
    cadence.resume = true;
    cadence.checkpointEveryS = 0.0002;
    result = runExperiment(cadence);
    EXPECT_FALSE(result.at(0).restored());
    EXPECT_TRUE(result.at(0).hasData());

    removeCheckpoint(out + ".jess.ckpt");
    removeOutputs(out);
}

TEST(RunnerResilience, TornJournalLineIsSkippedOnLoad)
{
    QuietLog quiet;
    const std::string out = scratch("torn.json");
    removeOutputs(out);

    ExperimentSpec spec;
    spec.title = "torn";
    spec.jobs = 1;
    spec.jsonPath = out;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    runExperiment(spec);

    // Tear the journal mid-line, as a crash during a write would.
    {
        std::string journal = slurp(journalPathFor(out));
        std::ofstream torn(journalPathFor(out), std::ios::trunc);
        torn << journal.substr(0, journal.size() / 2);
    }
    std::vector<JournalEntry> entries =
        RunJournal::load(journalPathFor(out));
    EXPECT_TRUE(entries.empty());

    // A resume over the torn journal simply re-executes the run.
    ExperimentSpec resumed = spec;
    resumed.resume = true;
    ExperimentResult result = runExperiment(resumed);
    EXPECT_FALSE(result.at(0).restored());
    EXPECT_TRUE(result.at(0).hasData());

    removeOutputs(out);
}

TEST(RunnerResilience, FailedRunsAreJournaledAndRestoredAsFailed)
{
    QuietLog quiet;
    const std::string out = scratch("failjournal.json");
    removeOutputs(out);

    ExperimentSpec spec;
    spec.title = "failjournal";
    spec.jobs = 1;
    spec.jsonPath = out;
    spec.add(Benchmark::Jess, SystemConfig{}, 0.05);
    spec.runs[0].injectFailure = "always fails";
    std::string first_doc = jsonOf(runExperiment(spec));

    // Resume restores the failure (exit code included) rather than
    // pointlessly re-running a spec that is known to fail... the
    // journal records its outcome.
    ExperimentSpec resumed = spec;
    resumed.resume = true;
    ExperimentResult result = runExperiment(resumed);
    EXPECT_TRUE(result.at(0).restored());
    EXPECT_EQ(result.at(0).result.outcome, RunOutcome::Failed);
    EXPECT_EQ(result.exitCode(), 1);
    EXPECT_EQ(jsonOf(result), first_doc);

    removeOutputs(out);
}

TEST(RunnerResilience, SigkilledChildSweepResumesBitIdentical)
{
    QuietLog quiet;
    const std::string out = scratch("child.json");
    const std::string ref_out = scratch("child_ref.json");
    removeOutputs(out);
    removeOutputs(ref_out);

    auto makeSpec = [](const std::string &path) {
        ExperimentSpec spec;
        spec.title = "child";
        spec.jobs = 1;
        spec.jsonPath = path;
        SystemConfig config;
        for (Benchmark b : allBenchmarks)
            spec.add(b, config, 0.05);
        return spec;
    };

    // Uninterrupted reference document.
    runExperiment(makeSpec(ref_out));
    std::string reference_doc = slurp(ref_out);
    ASSERT_FALSE(reference_doc.empty());

    // Child starts the same sweep; the parent SIGKILLs it once the
    // journal shows at least one completed run.
    pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        runExperiment(makeSpec(out));
        _exit(0);
    }

    const std::string journal_path = journalPathFor(out);
    bool killed = false;
    for (int i = 0; i < 30000; ++i) {
        std::string journal = slurp(journal_path);
        if (!journal.empty() &&
            journal.find('\n') != std::string::npos) {
            kill(child, SIGKILL);
            killed = true;
            break;
        }
        int status = 0;
        if (waitpid(child, &status, WNOHANG) == child) {
            child = -1;  // finished before we could kill it
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (child > 0) {
        if (!killed)
            kill(child, SIGKILL);
        int status = 0;
        waitpid(child, &status, 0);
    }

    // Resume in this process and demand byte-identity.
    ExperimentSpec resumed = makeSpec(out);
    resumed.resume = true;
    ExperimentResult result = runExperiment(resumed);
    EXPECT_EQ(result.exitCode(), 0);
    EXPECT_EQ(slurp(out), reference_doc);

    removeOutputs(out);
    removeOutputs(ref_out);
}
