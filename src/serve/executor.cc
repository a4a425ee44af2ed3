#include "executor.hh"

#include <optional>
#include <sstream>
#include <vector>

#include "sim/logging.hh"
#include "workload/workload.hh"

namespace softwatt::serve
{

bool
parseServeSpec(const std::string &text, RunSpec &spec,
               std::string &benchName, std::string &error)
{
    // The daemon installs one process-wide throwing handler for its
    // whole lifetime (serveUntil), and this runs on its session
    // threads: swapping the global handler per call would race the
    // swaps against each other and against worker threads reading
    // the handler inside running jobs. Install one only when the
    // caller has not (the single-threaded client and test paths).
    std::optional<ScopedErrorHandler> firewall;
    if (!errorHandlerInstalled())
        firewall.emplace(throwingErrorHandler);
    try {
        Config cfg;
        std::istringstream words(text);
        std::string word;
        while (words >> word) {
            if (!cfg.parseAssignment(word)) {
                fatal(msg() << "spec: '" << word
                            << "' is not a key=value assignment");
            }
        }
        std::string name = cfg.getString("bench", "jess");
        double scale = cfg.getDouble("scale", 0.2);
        std::string variant = cfg.getString("variant", "");
        double deadlineS = cfg.getDouble("deadline_s", 0.0);
        double graceS = cfg.getDouble("grace_s", 0.0);
        if (!(scale > 0.0) || scale > 1e6) {
            fatal(msg() << "spec: scale must be in (0, 1e6] (got "
                        << scale << ")");
        }
        spec.bench = benchmarkByName(name);
        spec.variant = variant;
        spec.scale = scale;
        spec.config = SystemConfig::fromConfig(cfg);
        if (spec.config.deadlineSeconds <= 0.0)
            spec.config.deadlineSeconds = deadlineS;
        if (spec.config.shutdownGraceSeconds <= 0.0)
            spec.config.shutdownGraceSeconds = graceS;
        spec.config.validate();
        std::vector<std::string> unused = cfg.unusedKeys();
        if (!unused.empty()) {
            msg report;
            report << "spec: unknown key(s):";
            for (const std::string &key : unused)
                report << " " << key;
            fatal(report);
        }
        benchName = benchmarkName(spec.bench);
        return true;
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }
}

ServeExecResult
executeServeSpec(RunSpec spec, const ServeExecOptions &options,
                 const CancelToken &token)
{
    ServeExecResult result;

    // Arm the warm-start plumbing: autosave to a private in-flight
    // path (concurrent same-config jobs must never race on one
    // file), and restore from the pool's warm image when one exists.
    const bool armed = options.pool && options.warmEveryS > 0.0;
    std::uint64_t key = 0;
    std::string inflight;
    if (armed) {
        key = machineCheckpointFingerprint(spec.bench, spec.config,
                                           spec.scale);
        inflight = options.pool->inflightPath(key);
        spec.checkpointEveryS = options.warmEveryS;
        spec.checkpointPath = inflight;
        spec.restorePath = options.pool->lookup(key);
        spec.durability = options.durability;
    }

    // The simulator is deterministic, so a plain rerun fails the
    // same way; the one rerun is the diagnose=1 rerun, with the
    // invariant sweeps forced on so the error names the broken
    // contract. A failure after a warm start could be the image's
    // fault, so the rerun starts cold; the identical cadence keeps
    // the document bytes unchanged either way.
    result.run = runSpecProtected(options.title, spec, token);
    if (result.run.result.outcome == RunOutcome::Failed &&
        !token.cancelled()) {
        spec.restorePath.clear();
        diagnoseRun(options.title, spec, token, result.run);
    }

    if (armed) {
        // A degraded run stopped autosaving mid-flight; whatever its
        // in-flight image holds predates the failure, so discard it
        // rather than warm future jobs from a doubtful file.
        if (result.run.hasData() &&
            result.run.result.outcome != RunOutcome::Failed &&
            !result.run.storageDegraded)
            options.pool->promote(key, inflight);
        else
            options.pool->discard(inflight);
    }

    result.attempts = result.run.attempts;
    result.warmStarted = result.run.warmStarted;
    result.warmStartTick = result.run.warmStartTick;
    result.ticksExecuted = result.run.ticksExecuted;
    result.storageDegraded = result.run.storageDegraded;
    result.runJson = renderRunJson(result.run);
    return result;
}

} // namespace softwatt::serve
