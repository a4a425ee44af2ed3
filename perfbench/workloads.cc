/**
 * @file
 * The benchmark's workloads and one timed execution ("pass") of each.
 *
 * Single-run workloads build every run directly through the public
 * System API (spec construction, System construction,
 * attachWorkload, run), so the simulate phase is timed on its own
 * and the workload seed reaches the benchmark's instruction stream.
 * The sweep workload goes through runExperiment with checkpoint
 * autosave, replays the sweep from its journal, and finishes every
 * run again from its last autosave; all three outputs must be
 * byte-identical.
 */

#include <time.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/checkpoint.hh"
#include "sim/config.hh"

#include "bench.hh"

using namespace softwatt;

namespace perfbench
{

namespace
{

/** A disabled tracer for untraced passes. */
Tracer &
noTracer()
{
    static Tracer off(false);
    return off;
}

Tracer &
tracerOf(const PassContext &ctx)
{
    return ctx.tracer ? *ctx.tracer : noTracer();
}

/** SystemConfig from harness-style key=value assignments. */
SystemConfig
configFrom(const std::string &assignments, std::uint64_t seed)
{
    Config config;
    std::istringstream in(assignments);
    std::string kv;
    while (in >> kv)
        config.parseAssignment(kv);
    SystemConfig sc = SystemConfig::fromConfig(config);
    sc.kernelParams.seed = deriveSeed(sc.kernelParams.seed, seed);
    return sc;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Fresh, empty scratch directory for a pass. */
void
resetDir(const std::string &dir)
{
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
}

/** The runExperiment spec of a sweep workload. */
ExperimentSpec
sweepSpec(const WorkloadDef &def, const std::string &json_path, int jobs)
{
    ExperimentSpec spec;
    spec.title = "perfbench-" + def.name;
    spec.jobs = jobs;
    spec.jsonPath = json_path;
    spec.checkpointEveryS = def.checkpointEveryS;
    spec.durability = Durability::Buffered;
    for (const BenchRun &run : def.runs)
        spec.add(run.bench, run.config, run.scale, run.variant);
    return spec;
}

/**
 * Build and run one benchmark through System, the way runBenchmark
 * does, with System::run timed on its own.
 */
std::unique_ptr<BenchmarkRun>
directRun(const BenchRun &spec_run, std::uint64_t seed,
          double checkpoint_every_s, const std::string &checkpoint_path,
          const std::string &restore_path, Tracer &tracer,
          PassResult &pass)
{
    const std::string label = spec_run.label();
    auto run = std::make_unique<BenchmarkRun>();
    run->bench = spec_run.bench;
    run->name = benchmarkName(spec_run.bench);
    run->variant = spec_run.variant;
    run->scale = spec_run.scale;

    WorkloadSpec wl;
    {
        auto span = tracer.span("workload", "benchmarkSpec", label);
        wl = seededSpec(spec_run, seed);
    }
    {
        auto span = tracer.span("core", "System::System", label);
        run->system = std::make_unique<System>(spec_run.config);
    }
    {
        auto span = tracer.span("core", "System::attachWorkload", label);
        run->system->attachWorkload(std::make_unique<Workload>(wl));
    }

    if (checkpoint_every_s > 0)
        run->system->setCheckpointPolicy(checkpoint_every_s,
                                         checkpoint_path);
    if (!restore_path.empty()) {
        auto span =
            tracer.span("sim", "System::restoreCheckpoint", label);
        run->system->restoreCheckpoint(restore_path);
    }
    run->warmStarted = run->system->restored();

    auto run_start = Clock::now();
    {
        auto span = tracer.span("core", "System::run", label);
        run->result = run->system->run();
    }
    pass.runS += secondsSince(run_start);
    {
        auto span = tracer.span("core", "System::breakdown", label);
        run->breakdown = run->system->breakdown(false);
        run->conventional = run->system->breakdown(true);
    }
    return run;
}

/** Record a cold run's identity, outcome, digest and counts. */
void
recordCold(PassResult &pass, const BenchRun &spec_run,
           const BenchmarkRun &run, Tracer &tracer)
{
    const std::string label = spec_run.label();
    ++pass.attempted;
    if (!run.hasData() || !run.result.ok())
        pass.fail(label + ": outcome " +
                  runOutcomeName(run.result.outcome) + " " +
                  run.result.diagnostics + run.error);
    double digest_cpu = cpuSeconds();
    pass.labels.push_back(label);
    pass.digests.push_back(runDigest(run, &tracer, label));
    pass.cpuS -= cpuSeconds() - digest_cpu;
    if (run.hasData())
        pass.counts.add(*run.system);
    pass.kept.push_back(KeptRun{&spec_run, &run});
}

/** Single-run workloads, or the direct baseline of any workload. */
PassResult
directPass(const WorkloadDef &def, const PassContext &ctx,
           std::uint64_t seed, double checkpoint_every_s)
{
    Tracer &tracer = tracerOf(ctx);
    PassResult pass;
    if (checkpoint_every_s > 0)
        resetDir(ctx.workDir);
    auto start = Clock::now();
    double cpu_start = cpuSeconds();
    for (std::size_t i = 0; i < def.runs.size(); ++i) {
        const BenchRun &spec_run = def.runs[i];
        std::string ckpt = ctx.workDir + "/direct-" +
                           std::to_string(i) + ".ckpt";
        pass.autosaves.push_back(ckpt);
        pass.ownRuns.push_back(directRun(spec_run, seed,
                                         checkpoint_every_s, ckpt, "",
                                         tracer, pass));
        recordCold(pass, spec_run, *pass.ownRuns.back(), tracer);
    }
    pass.simS = pass.runS;
    pass.wallS = secondsSince(start);
    pass.cpuS += cpuSeconds() - cpu_start;
    return pass;
}

/** runExperiment sweep + journal replay + restore-and-finish. */
PassResult
sweepPass(const WorkloadDef &def, const PassContext &ctx)
{
    Tracer &tracer = tracerOf(ctx);
    PassResult pass;
    resetDir(ctx.workDir);
    const std::string json_path = ctx.workDir + "/sweep.json";

    auto start = Clock::now();
    ExperimentSpec spec = sweepSpec(def, json_path, 1);

    auto sim_start = Clock::now();
    {
        auto span = tracer.span("core", "runExperiment(cold)");
        pass.experiment =
            std::make_unique<ExperimentResult>(runExperiment(spec));
    }
    pass.simS = secondsSince(sim_start);
    const ExperimentResult &cold = *pass.experiment;
    for (std::size_t i = 0; i < cold.size(); ++i)
        recordCold(pass, def.runs[i], cold.at(i), tracer);
    const std::string cold_doc = readFile(json_path);

    // Journal replay: every run is spliced from the journal, and the
    // rewritten document must equal the cold one byte for byte.
    spec.resume = true;
    ExperimentResult resumed;
    {
        auto span = tracer.span("core", "runExperiment(resume)");
        resumed = runExperiment(spec);
    }
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        ++pass.attempted;
        const BenchmarkRun &run = resumed.at(i);
        if (!run.restored() || run.restoredJson != renderRunJson(cold.at(i)))
            pass.fail(def.runs[i].label() +
                      ": resumed run differs from the cold run");
    }
    if (readFile(json_path) != cold_doc)
        pass.fail("resumed document differs from the cold document");

    // Restore-and-finish every run from its last autosave at the same
    // checkpoint cadence.
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ++pass.attempted;
        const std::string &autosave = cold.specAt(i).checkpointPath;
        const std::string label = def.runs[i].label();
        if (autosave.empty() || !std::filesystem::exists(autosave)) {
            pass.fail(label + ": no autosave to restore from");
            continue;
        }
        std::string ckpt =
            ctx.workDir + "/restore-" + std::to_string(i) + ".ckpt";
        auto run = directRun(def.runs[i], kDefaultSeed,
                             def.checkpointEveryS, ckpt, autosave,
                             tracer, pass);
        if (!run->warmStarted || !run->result.ok() ||
            runDigest(*run, &tracer, label) != pass.digests[i])
            pass.fail(label + ": restored run differs from the cold run");
    }
    pass.wallS = secondsSince(start);
    return pass;
}

} // namespace

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2;
}

std::uint64_t
deriveSeed(std::uint64_t base, std::uint64_t seed)
{
    if (seed == kDefaultSeed)
        return base;
    // splitmix64 finalizer over the pair.
    std::uint64_t z = base ^ (seed * 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    // Kept below 2^62: seeds also travel through signed config ints.
    return (z >> 2) | 1;
}

std::string
BenchRun::label() const
{
    std::string name = benchmarkName(bench);
    return variant.empty() ? name : name + "/" + variant;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ooo_compute", "inorder_kernel", "idle_power", "sweep_ckpt"};
    return names;
}

bool
makeWorkload(const std::string &name, std::uint64_t seed,
             double scale_factor, WorkloadDef &out)
{
    out = WorkloadDef{};
    out.name = name;
    out.seed = seed;
    auto add = [&](Benchmark b, const std::string &variant,
                   const std::string &assignments, double scale) {
        BenchRun run;
        run.bench = b;
        run.variant = variant;
        run.config = configFrom(assignments, seed);
        run.scale = scale * scale_factor;
        out.runs.push_back(run);
    };
    if (name == "ooo_compute") {
        for (Benchmark b : {Benchmark::Mtrt, Benchmark::Jack})
            add(b, "", "cpu.model=mxs", 0.03);
    } else if (name == "inorder_kernel") {
        for (Benchmark b :
             {Benchmark::Jess, Benchmark::Db, Benchmark::Javac})
            add(b, "", "cpu.model=mipsy", 0.06);
    } else if (name == "idle_power") {
        for (Benchmark b : {Benchmark::Compress, Benchmark::Jack})
            add(b, "",
                "cpu.model=mipsy disk.config=spindown "
                "disk.threshold_s=2 adaptive_spindown=1 dvfs=1 "
                "power_budget_w=6 sample_window=10000",
                0.1);
    } else if (name == "sweep_ckpt") {
        out.sweep = true;
        out.checkpointEveryS = 0.0004 * scale_factor;
        for (Benchmark b : allBenchmarks) {
            add(b, "mipsy", "cpu.model=mipsy", 0.005);
            add(b, "mxs", "cpu.model=mxs", 0.005);
        }
    } else {
        return false;
    }
    return true;
}

WorkloadSpec
seededSpec(const BenchRun &run, std::uint64_t seed)
{
    WorkloadSpec spec = benchmarkSpec(run.bench);
    if (run.scale != 1.0)
        spec = scaleWorkload(spec, run.scale);
    spec.seed = deriveSeed(spec.seed, seed);
    return spec;
}

void
WorkCounts::add(const System &system)
{
    const Cpu &cpu = system.cpu();
    committedInsts += cpu.committedInsts();
    cpuCycles += cpu.cyclesRun();
    if (system.config().cpuModel == CpuModel::Superscalar)
        oooCycles += cpu.cyclesRun();
    else
        inorderCycles += cpu.cyclesRun();
    simCycles += std::uint64_t(system.now());
    ffCycles += system.fastForwardedCycles();
    l1dRefs += system.hierarchy().dcache().refs();
    l1dMisses += system.hierarchy().dcache().misses();
    l2Refs += system.hierarchy().l2cache().refs();
    l2Misses += system.hierarchy().l2cache().misses();
    tlbRefs += system.tlb().refs();
    tlbMisses += system.tlb().misses();
    for (int k = 0; k < numServices; ++k)
        serviceInvocations +=
            system.kernel().serviceStats(ServiceKind(k)).invocations;
    serviceCycles += system.kernel().totalServiceCycles();
    diskRequests += system.disk().requestsServed();
    diskSpinups += system.disk().spinUps();
    windows += system.log().size();
    checkpoints += system.checkpointsTaken();
    events += system.eventQueue().eventsExecuted();
}

void
PassResult::fail(const std::string &why)
{
    ++failed;
    failures.push_back(why);
}

std::uint64_t
runDigest(const BenchmarkRun &run, Tracer *tracer,
          const std::string &label)
{
    Tracer &t = tracer ? *tracer : noTracer();
    std::string text;
    {
        auto span = t.span("core", "renderRunJson", label);
        text = renderRunJson(run);
    }
    if (run.hasData()) {
        auto span = t.span("sim", "SampleLog::writeCsv", label);
        std::ostringstream csv;
        run.system->log().writeCsv(csv);
        text += csv.str();
    }
    auto span = t.span("sim", "fnv1a64", label);
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(text.data()),
                   text.size());
}

double
setupOnce(const WorkloadDef &def)
{
    // Everything built here is destroyed after the clock stops.
    std::vector<std::unique_ptr<System>> systems;
    ExperimentSpec spec;
    auto start = Clock::now();
    if (def.sweep)
        spec = sweepSpec(def, "", 1);
    for (const BenchRun &run : def.runs) {
        WorkloadSpec wl =
            seededSpec(run, def.sweep ? kDefaultSeed : def.seed);
        systems.push_back(std::make_unique<System>(run.config));
        systems.back()->attachWorkload(std::make_unique<Workload>(wl));
    }
    return secondsSince(start);
}

PassResult
runPass(const WorkloadDef &def, const PassContext &ctx)
{
    return def.sweep ? sweepPass(def, ctx)
                     : directPass(def, ctx, def.seed, 0);
}

PassResult
runDirectCalibrated(const WorkloadDef &def, const PassContext &ctx)
{
    return directPass(def, ctx, kDefaultSeed, def.checkpointEveryS);
}

PassResult
runRunnerPass(const WorkloadDef &def, const PassContext &ctx, int jobs,
              double &replay_s)
{
    Tracer &tracer = tracerOf(ctx);
    PassResult pass;
    resetDir(ctx.workDir);
    const std::string json_path = ctx.workDir + "/runner.json";
    ExperimentSpec spec = sweepSpec(def, json_path, jobs);

    double cpu_start = cpuSeconds();
    {
        auto span = tracer.span(
            "core", "runExperiment(jobs=" + std::to_string(jobs) + ")");
        pass.experiment =
            std::make_unique<ExperimentResult>(runExperiment(spec));
    }
    double cpu_s = cpuSeconds() - cpu_start;
    for (std::size_t i = 0; i < pass.experiment->size(); ++i)
        recordCold(pass, def.runs[i], pass.experiment->at(i), tracer);
    pass.cpuS = cpu_s;  // recordCold's digests ran outside the clock
    const std::string doc = readFile(json_path);

    spec.resume = true;
    auto start = Clock::now();
    {
        auto span = tracer.span("core", "runExperiment(resume)");
        ExperimentResult replayed = runExperiment(spec);
    }
    replay_s = secondsSince(start);
    if (readFile(json_path) != doc)
        pass.fail("runner: resumed document differs from the cold one");
    return pass;
}

} // namespace perfbench
