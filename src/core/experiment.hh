/**
 * @file
 * Shared experiment driver: run one benchmark on a configuration and
 * collect everything the table/figure harnesses need.
 */

#ifndef SOFTWATT_CORE_EXPERIMENT_HH
#define SOFTWATT_CORE_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "system.hh"

namespace softwatt
{

/** Results of one benchmark run. */
struct BenchmarkRun
{
    Benchmark bench = Benchmark::Jess;
    std::string name;

    /** Config-variant label assigned by the experiment runner. */
    std::string variant;

    /** Workload scale the run executed at. */
    double scale = 1.0;

    /**
     * Live simulation state. Null for a run that Failed inside the
     * exception firewall (nothing survived the throw) and for a run
     * replayed from a resume journal (only its JSON survived); use
     * hasData() before touching system-derived statistics.
     */
    std::unique_ptr<System> system;

    /** How the run ended; breakdowns are partial when not ok(). */
    RunResult result;

    /** Executor attempts consumed (2 after a diagnostic rerun). */
    int attempts = 1;

    /** What the firewall caught for a Failed run; "" otherwise. */
    std::string error;

    /**
     * Pre-rendered run-object JSON replayed from the journal; ""
     * for runs executed in this process.
     */
    std::string restoredJson;

    /** Totals priced with the run's own disk configuration. */
    PowerBreakdown breakdown;

    /** Same run re-priced as the conventional (unmanaged) disk. */
    PowerBreakdown conventional;

    /**
     * True when the run resumed from a machine checkpoint instead of
     * simulating from tick zero. Deliberately NOT part of the run's
     * JSON document: checkpointing at a fixed cadence is a
     * deterministic perturbation, so a warm-started run's document
     * is byte-identical to a cold run at the same cadence, and these
     * fields exist only to prove the warm start skipped work.
     */
    bool warmStarted = false;

    /** Simulated tick the run (re)started from; 0 for cold runs. */
    std::uint64_t warmStartTick = 0;

    /** Ticks actually simulated in this process (now - start). */
    std::uint64_t ticksExecuted = 0;

    /**
     * True when the run's storage degraded mid-flight (an autosave
     * failed and the run continued checkpoint-less). Like the
     * warm-start fields, NOT part of the run's JSON document: the
     * simulated results are unaffected, only durability was lost.
     */
    bool storageDegraded = false;

    /** True when live simulation state is attached. */
    bool hasData() const { return system != nullptr; }

    /** True for a run replayed from a resume journal. */
    bool restored() const { return !restoredJson.empty(); }
};

/** Optional knobs for runBenchmark (the experiment runner's hooks). */
struct RunOptions
{
    /** Cooperative-cancellation token polled at window boundaries. */
    const CancelToken *cancel = nullptr;

    /**
     * Diagnostic mode: force the runtime invariant sweeps on (even
     * in builds where they default off) so a rerun of a failed spec
     * pinpoints which contract broke first.
     */
    bool forceInvariants = false;

    /**
     * Autosave a machine checkpoint every this many simulated
     * seconds to checkpointPath; 0 disables. See
     * System::setCheckpointPolicy for the determinism contract.
     */
    double checkpointEverySeconds = 0.0;

    /** Autosave destination (required when autosave is armed). */
    std::string checkpointPath;

    /**
     * Restore machine state from this checkpoint before running;
     * "" starts from scratch. Damaged files fall back one autosave
     * generation (System::restoreCheckpoint).
     */
    std::string restorePath;

    /** Durability level for checkpoint autosaves (see host_io.hh). */
    Durability durability = Durability::Buffered;
};

/**
 * Run one benchmark to completion.
 *
 * @param bench Which benchmark.
 * @param config System configuration.
 * @param scale Workload length scale (1.0 = calibrated size; tests
 *        and smoke runs use smaller values).
 */
BenchmarkRun runBenchmark(Benchmark bench, const SystemConfig &config,
                          double scale = 1.0);

/** runBenchmark with runner hooks (cancellation, diagnostics). */
BenchmarkRun runBenchmark(Benchmark bench, const SystemConfig &config,
                          double scale, const RunOptions &options);

/**
 * machineFingerprint() of the workload runBenchmark would attach for
 * (bench, scale): the fingerprint a checkpoint of that run carries.
 * Two specs that agree on it can exchange machine checkpoints;
 * specFingerprint() adds the run settings on top.
 */
std::uint64_t machineCheckpointFingerprint(Benchmark bench,
                                           const SystemConfig &config,
                                           double scale);

/** Average of breakdowns (used for the suite-wide Figs. 5-7). */
PowerBreakdown averageBreakdowns(
    const std::vector<PowerBreakdown> &breakdowns);

/** Usage text for the standard "key=value" command line. */
std::string usageText(const char *argv0);

/**
 * Parse command-line "key=value" overrides into @p out without
 * touching the error handler.
 *
 * @return false on the first malformed argument, with @p error set
 *         to the rejection message ("--help"/"-h" also land here,
 *         with @p error set to the usage text).
 */
bool tryParseArgs(int argc, char **argv, Config &out,
                  std::string &error);

/**
 * Parse command-line "key=value" overrides into a Config.
 *
 * Any failure — including "--help"/"-h" — is reported through
 * fatal(), i.e. the SimError/error-handler path, so tests can
 * intercept it. Harness mains should call parseCliArgs() instead,
 * which handles the help/exit-code plumbing without ever calling
 * std::exit from library code.
 */
Config parseArgs(int argc, char **argv);

/**
 * Command-line parse outcome for a harness main().
 *
 * When shouldExit is set the caller must return exitCode from main()
 * immediately: the usage text (exit 0) has already been printed.
 * Malformed arguments never produce a CliArgs — they go through
 * fatal(), which exits 1 in production and throws SimError under an
 * installed error handler — so no library code calls std::exit.
 */
struct CliArgs
{
    Config config;
    bool shouldExit = false;
    int exitCode = 0;
};

/**
 * Parse a harness main()'s command line: "--help"/"-h" print the
 * usage text on stdout and request exit 0; malformed arguments are
 * fatal(); anything else lands in CliArgs::config.
 */
CliArgs parseCliArgs(int argc, char **argv);

} // namespace softwatt

#endif // SOFTWATT_CORE_EXPERIMENT_HH
