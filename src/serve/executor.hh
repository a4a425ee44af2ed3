/**
 * @file
 * Per-job execution policy of the serve daemon: one cold diagnostic
 * rerun of a failed run, and the evidence (attempts, warm-start tick,
 * executed ticks) the response envelope reports.
 *
 * The executor is deliberately independent of sockets, threads and
 * files so tests can drive it directly; the daemon calls it from
 * worker threads with a per-job CancelToken, after filling in the
 * spec's autosave cadence, autosave path and (when an earlier
 * submission of the same run left one) restore path.
 */

#ifndef SOFTWATT_SERVE_EXECUTOR_HH
#define SOFTWATT_SERVE_EXECUTOR_HH

#include <cstdint>
#include <string>

#include "core/runner.hh"

namespace softwatt::serve
{

/** Everything the daemon needs to answer for one executed job. */
struct ServeExecResult
{
    BenchmarkRun run;

    /** Pre-rendered run object (journal + document splice text). */
    std::string runJson;

    /** Attempts consumed (2 after the diagnostic rerun). */
    int attempts = 1;

    bool warmStarted = false;
    std::uint64_t warmStartTick = 0;
    std::uint64_t ticksExecuted = 0;

    /** True when the run's storage degraded mid-flight (failed
     *  autosave -> checkpoint-less execution); surfaced in the
     *  response envelope's degraded flag. */
    bool storageDegraded = false;
};

/**
 * Execute @p spec, logging under @p title. A run that Failed inside
 * the exception firewall is rerun once, cold (restorePath cleared),
 * through diagnoseRun (invariant sweeps forced on) unless the job was
 * cancelled. Never throws: failures come back as a run with
 * RunOutcome::Failed. Requires a throwing error handler to be
 * installed (the daemon installs one for its lifetime; see
 * runSpecProtected).
 */
ServeExecResult executeServeSpec(RunSpec spec, const std::string &title,
                                 const CancelToken &token);

/**
 * Parse a request's "key=value ..." spec text into a RunSpec: the
 * run keys (bench=, scale=, variant=, deadline_s=, grace_s=) plus
 * every machine key SystemConfig::fromConfig accepts; unknown keys
 * are rejected. The daemon and the client's cold-reference mode both
 * use this, so a spec means the same thing on either side of the
 * socket. Never terminates: errors come back through @p error.
 */
bool parseServeSpec(const std::string &text, RunSpec &spec,
                    std::string &benchName, std::string &error);

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_EXECUTOR_HH
