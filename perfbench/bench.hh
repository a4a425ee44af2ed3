/**
 * @file
 * Shared declarations of the SoftWatt benchmark program: the span
 * tracer, the workload definitions and their timed passes, and the
 * per-layer replay measurements. See README.md for what each
 * workload and metric means.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/runner.hh"
#include "core/system.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Host CPU seconds this process has consumed (all threads). */
double cpuSeconds();

/**
 * Host seconds of one fixed probe loop shaped like a simulator's
 * inner loop. It runs no simulator code, so it measures only how fast
 * the host is at the moment.
 */
double calibrationSeconds();

/** Median of @p values (0 for an empty set). */
double median(std::vector<double> values);

/** The seed whose run outputs have stored reference digests. */
constexpr std::uint64_t kDefaultSeed = 1;

/**
 * Derive a stream seed from a calibrated base seed and the
 * benchmark's --seed: the default seed keeps the calibrated value,
 * any other seed gives a different, reproducible stream.
 */
std::uint64_t deriveSeed(std::uint64_t base, std::uint64_t seed);

// ------------------------------------------------------------------
// Tracing

/** One recorded span: a call the benchmark made into a layer. */
struct Span
{
    std::string name;
    std::string layer;
    std::string run;     ///< Benchmark run the span belongs to.
    double startUs = 0;
    double endUs = 0;
    int id = 0;
    int parent = -1;     ///< Enclosing span id; -1 for a root.
};

/**
 * In-memory span recorder. Disabled tracers record nothing and cost
 * one branch per call site; spans are written out only at the end.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** RAII span: opened by Tracer::span(), closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, int index) : tracer(tracer), index(index)
        {}
        Scope(Scope &&other) noexcept
            : tracer(other.tracer), index(other.index)
        {
            other.tracer = nullptr;
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        ~Scope();

      private:
        Tracer *tracer;
        int index;
    };

    /** Open a span named @p name in @p layer for run @p run. */
    Scope span(const char *layer, const std::string &name,
               const std::string &run = "");

    const std::vector<Span> &spans() const { return all; }

    /**
     * Self time per layer, in ms: each span's duration minus the part
     * of it covered by its direct children.
     */
    std::map<std::string, double> selfMs() const;

    /** Write every span as Chrome trace-event JSON. */
    bool writeChrome(const std::string &path,
                     const std::string &metadata_json) const;

  private:
    bool on;
    Clock::time_point origin;
    std::vector<Span> all;
    std::vector<int> open;

    double nowUs() const;
    void close(int index);
};

// ------------------------------------------------------------------
// Workloads

/** One benchmark run of a workload. */
struct BenchRun
{
    softwatt::Benchmark bench = softwatt::Benchmark::Jess;
    std::string variant;
    softwatt::SystemConfig config;
    double scale = 1.0;

    /** "<bench>" or "<bench>/<variant>". */
    std::string label() const;
};

/** A named workload: its runs and how they are driven. */
struct WorkloadDef
{
    std::string name;
    std::vector<BenchRun> runs;

    /**
     * Driven through runExperiment (jobs=1) with checkpoint autosave,
     * then a resume=1 journal replay and a restore-and-finish of every
     * run from its autosave. Otherwise each run is built and run
     * directly through System.
     */
    bool sweep = false;
    double checkpointEveryS = 0;

    /** Workload-spec stream seed offset (single-run workloads). */
    std::uint64_t seed = kDefaultSeed;
};

/** Names of every workload, in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed. @p scale_factor multiplies
 * every run's scale (1 = the documented size; the self-test uses a
 * tiny factor). Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed,
                  double scale_factor, WorkloadDef &out);

/** The workload spec a single-run workload's run executes. */
softwatt::WorkloadSpec seededSpec(const BenchRun &run,
                                  std::uint64_t seed);

/** Deterministic work counts read from the public accessors. */
struct WorkCounts
{
    std::uint64_t committedInsts = 0;
    std::uint64_t cpuCycles = 0;        ///< Cycles stepped in detail.
    std::uint64_t oooCycles = 0;        ///< ... on the superscalar core.
    std::uint64_t inorderCycles = 0;    ///< ... on the in-order core.
    std::uint64_t simCycles = 0;        ///< Detailed + ff + throttled.
    std::uint64_t ffCycles = 0;
    std::uint64_t l1dRefs = 0;
    std::uint64_t l1dMisses = 0;
    std::uint64_t l2Refs = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t tlbRefs = 0;
    std::uint64_t tlbMisses = 0;
    std::uint64_t serviceInvocations = 0;
    std::uint64_t serviceCycles = 0;
    std::uint64_t diskRequests = 0;
    std::uint64_t diskSpinups = 0;
    std::uint64_t windows = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t events = 0;

    void add(const softwatt::System &system);
};

/** A finished run kept alive for inspection after a pass. */
struct KeptRun
{
    const BenchRun *spec = nullptr;
    const softwatt::BenchmarkRun *run = nullptr;
};

/** Everything one execution ("pass") of a workload produced. */
struct PassResult
{
    double wallS = 0;    ///< Whole pass, host seconds.
    double simS = 0;     ///< Simulate phase, host seconds.
    double runS = 0;     ///< Sum of System::run (direct runs only).

    /**
     * CPU seconds of the runs themselves: the direct runs, or the cold
     * runExperiment call, without scratch-directory set-up or digests.
     */
    double cpuS = 0;

    WorkCounts counts;   ///< Over the cold runs.

    /** Per cold run: label and output digest, in workload order. */
    std::vector<std::string> labels;
    std::vector<std::uint64_t> digests;

    /** Per run: its autosave path (direct passes with autosave). */
    std::vector<std::string> autosaves;

    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;

    /** Cold runs (owned by the two members below). */
    std::vector<KeptRun> kept;
    std::vector<std::unique_ptr<softwatt::BenchmarkRun>> ownRuns;
    std::unique_ptr<softwatt::ExperimentResult> experiment;

    void fail(const std::string &why);
};

/** Where a pass may write its files. */
struct PassContext
{
    std::string workDir;  ///< Scratch directory for out=/autosaves.
    Tracer *tracer = nullptr;
};

/** Execute @p def once (the timed unit of the benchmark). */
PassResult runPass(const WorkloadDef &def, const PassContext &ctx);

/**
 * Execute @p def's runs one after another, each built and run
 * directly through System with the calibrated workload seeds and
 * the workload's checkpoint cadence: the baseline runExperiment is
 * compared against for runner overhead.
 */
PassResult runDirectCalibrated(const WorkloadDef &def,
                               const PassContext &ctx);

/**
 * The same runs through runExperiment with @p jobs workers, out= and
 * the workload's checkpoint cadence, then a resume=1 replay of its
 * journal, whose wall seconds go to @p replay_s.
 */
PassResult runRunnerPass(const WorkloadDef &def,
                         const PassContext &ctx, int jobs,
                         double &replay_s);

/**
 * Host seconds to set the workload up once: spec construction,
 * System construction and attachWorkload for every run.
 */
double setupOnce(const WorkloadDef &def);

/** FNV-1a-64 of a run's renderRunJson text plus its sample-log CSV. */
std::uint64_t runDigest(const softwatt::BenchmarkRun &run,
                        Tracer *tracer, const std::string &label);

// ------------------------------------------------------------------
// Layer replay

/** Per-call costs measured by calling each layer directly. */
struct ReplayCosts
{
    double oooCycleNs = 0;
    double inorderCycleNs = 0;
    double streamgenOpNs = 0;
    double workloadNextNs = 0;
    double tlbLookupNs = 0;
    double cacheAccessNs = 0;
    double ifetchNs = 0;
    double dataAccessNs = 0;
    double diskRequestUs = 0;
    double eventNs = 0;
    double serviceOpNs = 0;

    /** Ops Workload::next emitted over the whole stream. */
    std::uint64_t workloadOps = 0;
};

/**
 * Replay the op and address stream of @p run's benchmark through each
 * layer's public functions. @p reference is a finished run of the
 * same configuration, whose counts shape the disk, event-queue and
 * kernel-service replays.
 */
ReplayCosts replayLayers(const BenchRun &run, std::uint64_t seed,
                         const softwatt::System &reference,
                         Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
