/**
 * @file
 * softwatt_perfbench: the SoftWatt benchmark program.
 *
 *   softwatt_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *       [--scale F] [--out DIR] [--digests FILE] [--record-digests FILE]
 *       [--commit ID] [--source DIGEST]
 *
 * --trace 0 times whole passes of the workload for --seconds and
 * prints the end-to-end metrics; --trace 1 prints the per-layer
 * metrics (layer replay, deterministic counts, and the self time of
 * each layer in a traced pass) and writes the spans as Chrome
 * trace-event JSON. Both check every run's output. The last line of
 * stdout is one JSON object; README.md documents every field.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "core/json_writer.hh"

#include "bench.hh"

using namespace softwatt;
using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    double scale = 1.0;
    std::string outDir = ".bench_out";
    std::string digests = "perfbench/expected_digests.txt";
    std::string recordDigests;
    std::string commit = "unknown";
    std::string source = "unknown";
};

bool
parseOptions(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opt.seconds = std::atof(value.c_str());
        else if (flag == "--trace")
            opt.trace = std::atoi(value.c_str());
        else if (flag == "--scale")
            opt.scale = std::atof(value.c_str());
        else if (flag == "--out")
            opt.outDir = value;
        else if (flag == "--digests")
            opt.digests = value;
        else if (flag == "--record-digests")
            opt.recordDigests = value;
        else if (flag == "--commit")
            opt.commit = value;
        else if (flag == "--source")
            opt.source = value;
        else
            return false;
    }
    return !opt.workload.empty() && opt.seconds > 0 &&
           (opt.trace == 0 || opt.trace == 1) && opt.scale > 0;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Host identity every result carries. */
std::string
fingerprintJson(const Options &opt)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);) {
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    }
#if defined(__clang__)
    std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    std::string compiler = std::string("g++ ") + __VERSION__;
#else
    std::string compiler = "unknown";
#endif
    std::ostringstream out;
    {
        JsonWriter json(out, 0);
        json.beginObject();
        json.member("cpu_model", cpu);
        json.member("nproc", int(std::thread::hardware_concurrency()));
        json.member("compiler", compiler);
        json.member("build_type", PERFBENCH_BUILD_TYPE);
        json.member("git_commit", opt.commit);
        json.member("source_digest", opt.source);
        json.endObject();
    }
    return out.str();
}

/**
 * Peak resident set of this process image, from VmHWM. (getrusage's
 * ru_maxrss survives execve, so it would report the launcher's
 * footprint whenever that was larger.)
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0;
    }
    return 0;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)v);
    return buf;
}

/** Stored reference digests: "<workload> <label> <hex>" per line. */
std::map<std::string, std::string>
loadDigests(const std::string &path, const std::string &workload)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        std::istringstream fields(line);
        std::string w, label, hex;
        if (line.rfind('#', 0) != 0 && fields >> w >> label >> hex &&
            w == workload)
            out[label] = hex;
    }
    return out;
}

/** Correctness bookkeeping shared by both modes. */
struct Verdict
{
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> failures;
    std::string storedCheck = "skipped";

    void
    absorb(const PassResult &pass)
    {
        attempted += pass.attempted;
        failed += pass.failed;
        failures.insert(failures.end(), pass.failures.begin(),
                        pass.failures.end());
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }

    /** Every pass must reproduce the reference pass's digests. */
    void
    compare(const PassResult &pass, const PassResult &reference,
            const std::string &what)
    {
        if (pass.digests != reference.digests)
            fail(what + ": output digests differ from the first pass");
    }
};

void
checkStored(const Options &opt, const PassResult &pass, Verdict &verdict)
{
    if (opt.seed != kDefaultSeed || opt.scale != 1.0) {
        verdict.storedCheck = "skipped (only seed 1 at scale 1 has "
                              "stored digests)";
        return;
    }
    if (!opt.recordDigests.empty()) {
        std::ofstream out(opt.recordDigests, std::ios::app);
        for (std::size_t i = 0; i < pass.labels.size(); ++i)
            out << opt.workload << ' ' << pass.labels[i] << ' '
                << hex64(pass.digests[i]) << '\n';
        verdict.storedCheck = "recorded to " + opt.recordDigests;
        return;
    }
    auto stored = loadDigests(opt.digests, opt.workload);
    int matched = 0;
    for (std::size_t i = 0; i < pass.labels.size(); ++i) {
        auto it = stored.find(pass.labels[i]);
        if (it == stored.end())
            verdict.fail(pass.labels[i] + ": no stored digest in " +
                         opt.digests);
        else if (it->second != hex64(pass.digests[i]))
            verdict.fail(pass.labels[i] + ": digest " +
                         hex64(pass.digests[i]) + " != stored " +
                         it->second);
        else
            ++matched;
    }
    verdict.storedCheck = std::to_string(matched) + "/" +
                          std::to_string(pass.labels.size()) +
                          " match " + opt.digests;
}

std::string
tailText(std::vector<double> walls)
{
    std::sort(walls.begin(), walls.end());
    std::size_t n = walls.size();
    std::ostringstream out;
    if (n < 11) {
        out << "none (n=" << n
            << " passes; a percentile with >=10 samples beyond it "
               "needs n>=11)";
        return out.str();
    }
    std::size_t k = n - 10;  // nearest rank with 10 samples above
    out << "p" << (100 * k / n) << " = " << walls[k - 1] << " s (n=" << n
        << ")";
    return out.str();
}

/** Time @p f once, in ms. */
template <class F>
double
timeMs(F &&f)
{
    auto start = Clock::now();
    f();
    return secondsSince(start) * 1e3;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
printResult(const Verdict &verdict, const std::vector<Metric> &metrics,
            const Options &opt, const std::string &fingerprint,
            const std::string &extra_json)
{
    double fail_ratio =
        verdict.attempted ? double(verdict.failed) / verdict.attempted
                          : 1.0;
    for (const std::string &why : verdict.failures)
        std::printf("# FAIL %s\n", why.c_str());
    std::printf("# stored digests: %s\n", verdict.storedCheck.c_str());
    std::printf("fail_ratio %s ratio (%d/%d)\n",
                jsonNumber(fail_ratio).c_str(), verdict.failed,
                verdict.attempted);
    for (const Metric &m : metrics)
        std::printf("%s %s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());

    std::ostringstream line;
    line << "{\"correct\": " << (verdict.failed ? "false" : "true")
         << ", \"attempted\": " << std::max(1, verdict.attempted)
         << ", \"failed\": " << verdict.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line << (i ? ", " : "") << "\"" << metrics[i].name
             << "\": {\"value\": " << jsonNumber(metrics[i].value)
             << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    line << "}}";

    // The full record (fingerprint, failures, samples) for compare.py.
    std::string path = opt.outDir + "/result-" + opt.workload + "-seed" +
                       std::to_string(opt.seed) + "-trace" +
                       std::to_string(opt.trace) + ".json";
    std::ofstream out(path);
    out << "{\"workload\": \"" << opt.workload << "\", \"seed\": "
        << opt.seed << ", \"trace\": " << opt.trace
        << ", \"scale\": " << jsonNumber(opt.scale)
        << ", \"fingerprint\": " << fingerprint
        << ", \"fail_ratio\": " << jsonNumber(fail_ratio)
        << ", \"result\": " << line.str() << extra_json << "}\n";

    std::printf("%s\n", line.str().c_str());
    std::fflush(stdout);
}

/** ", \"<name>\": [v, ...]" for the result record. */
std::string
jsonArray(const char *name, const std::vector<double> &values)
{
    std::ostringstream out;
    out << ", \"" << name << "\": [";
    for (std::size_t i = 0; i < values.size(); ++i)
        out << (i ? ", " : "") << jsonNumber(values[i]);
    out << "]";
    return out.str();
}

/**
 * The probe time every timing is scaled to: about what one
 * calibrationSeconds() takes on the host the benchmark was defined on
 * (2 GHz Xeon) while its neighbours are quiet.
 */
constexpr double kReferenceProbeS = 0.025;

int
runTimed(const Options &opt, const WorkloadDef &def,
         const std::string &fingerprint)
{
    PassContext ctx{opt.outDir + "/work-" + opt.workload, nullptr};
    Verdict verdict;
    // One untimed pass first: the first pass of a process runs up to
    // 10 % slow (page faults, cold allocator and code), a cost a user
    // pays once per sweep, not once per run. Its runs still count.
    verdict.absorb(runPass(def, ctx));
    calibrationSeconds();  // the first call faults its tables in

    // A shared host's speed swings with its neighbours' load, by up to
    // half within a minute, and the probe slows with it (README.md,
    // "Steadiness"). Each timing is therefore scaled by
    // kReferenceProbeS over the probe time measured next to it: the
    // mean of the probes before and after a pass, or the probe just
    // before a block of set-ups.
    std::vector<double> probes{calibrationSeconds()};

    // Set-up is cheap (about a millisecond), so it is repeated many
    // times, spread over the run, and reported as a median.
    std::vector<double> setups;
    auto setup_reps = [&](int n) {
        double scale = kReferenceProbeS / probes.back();
        for (int i = 0; i < n; ++i)
            setups.push_back(setupOnce(def) * scale);
    };
    setup_reps(40);

    std::vector<PassResult> passes;
    std::vector<double> mips, mhz, walls;        // scaled, per pass
    std::vector<double> raw_mips, raw_mhz, raw_walls;
    auto begin = Clock::now();
    while (passes.size() < 3 || secondsSince(begin) < opt.seconds) {
        PassResult pass = runPass(def, ctx);
        probes.push_back(calibrationSeconds());
        double scale = 2 * kReferenceProbeS /
                       (probes[probes.size() - 2] + probes.back());
        // Keep only the figures: the runs' machines are freed before
        // the next pass so the peak footprint is one pass's.
        pass.kept.clear();
        pass.ownRuns.clear();
        pass.experiment.reset();
        verdict.absorb(pass);
        if (passes.empty())
            checkStored(opt, pass, verdict);
        else
            verdict.compare(pass, passes.front(),
                            "pass " + std::to_string(passes.size() + 1));
        double insts = double(pass.counts.committedInsts);
        double cycles = double(pass.counts.simCycles);
        raw_mips.push_back(insts / pass.simS / 1e6);
        raw_mhz.push_back(cycles / pass.simS / 1e6);
        raw_walls.push_back(pass.wallS);
        mips.push_back(raw_mips.back() / scale);
        mhz.push_back(raw_mhz.back() / scale);
        walls.push_back(pass.wallS * scale);
        passes.push_back(std::move(pass));
        setup_reps(5);
    }

    std::vector<Metric> metrics = {
        {"mips", median(mips), "MIPS"},
        {"sim_mhz", median(mhz), "MHz"},
        {"wall_s", median(walls), "s"},
        {"setup_s", median(setups), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    std::printf("# passes: %zu in %.1f s; setup reps: %zu; probe: median "
                "%.4g ms, range %.4g to %.4g ms\n",
                passes.size(), secondsSince(begin), setups.size(),
                median(probes) * 1e3,
                *std::min_element(probes.begin(), probes.end()) * 1e3,
                *std::max_element(probes.begin(), probes.end()) * 1e3);
    std::printf("# unscaled host time, median over passes: mips %.6g "
                "MIPS, sim_mhz %.6g MHz, wall_s %.6g s\n",
                median(raw_mips), median(raw_mhz), median(raw_walls));
    std::printf("# wall_s tail: %s\n", tailText(walls).c_str());

    printResult(verdict, metrics, opt, fingerprint,
                jsonArray("wall_s_samples", walls) +
                    jsonArray("unscaled_wall_s_samples", raw_walls) +
                    jsonArray("probe_s_samples", probes) +
                    jsonArray("setup_s_samples", setups));
    return verdict.failed ? 1 : 0;
}

/** Shares of core.run_s explained by each replayed layer. */
struct Shares
{
    double ooo = 0, inorder = 0, workload = 0, tlb = 0;
};

int
runTraced(const Options &opt, const WorkloadDef &def,
          const std::string &fingerprint)
{
    const std::string work = opt.outDir + "/work-" + opt.workload;
    const std::uint64_t spec_seed = def.sweep ? kDefaultSeed : def.seed;
    Tracer tracer(true);
    Verdict verdict;

    std::vector<double> setups;
    for (int i = 0; i < 7; ++i)
        setups.push_back(setupOnce(def));

    // Untraced reference pass, then the same pass traced.
    verdict.absorb(runPass(def, PassContext{work, nullptr}));
    PassResult base = runPass(def, PassContext{work, nullptr});
    verdict.absorb(base);
    checkStored(opt, base, verdict);
    PassResult traced;
    {
        auto root = tracer.span("bench", "traced pass");
        traced = runPass(def, PassContext{work, &tracer});
    }
    verdict.absorb(traced);
    verdict.compare(traced, base, "traced pass");
    double overhead_ms = (traced.wallS - base.wallS) * 1e3;

    // Direct and runExperiment(jobs=1) passes with checkpoint autosave
    // (the sweep's own cadence, else a quarter of the shortest run),
    // which must agree byte for byte. The direct pass's autosaves are
    // mid-run safe points: restoring and rewriting them times the
    // checkpoint layer.
    WorkloadDef ckpt_def = def;
    if (!def.sweep) {
        double shortest = 1e300;
        for (const KeptRun &k : base.kept) {
            const System &system = *k.run->system;
            shortest = std::min(
                shortest, double(system.now()) /
                              double(system.config().machine.cyclesPerSecond()));
        }
        ckpt_def.checkpointEveryS = shortest / 4;
    }
    PassResult direct;
    {
        auto root = tracer.span("bench", "direct pass");
        direct = runDirectCalibrated(ckpt_def, PassContext{work, &tracer});
    }
    verdict.absorb(direct);
    if (def.sweep)
        verdict.compare(direct, base, "direct pass");
    const double run_s = def.sweep ? direct.runS : base.runS;

    std::vector<double> write_ms, restore_ms;
    {
        auto root = tracer.span("bench", "checkpoint layer");
        for (std::size_t i = 0; i < def.runs.size(); ++i) {
            const BenchRun &run = def.runs[i];
            const std::string &autosave = direct.autosaves[i];
            if (!std::filesystem::exists(autosave)) {
                verdict.fail(run.label() + ": no autosave in the direct pass");
                continue;
            }
            const std::string copy = work + "/rewrite.ckpt";
            for (int rep = 0; rep < 3; ++rep) {
                System fresh(run.config);
                fresh.attachWorkload(std::make_unique<Workload>(
                    seededSpec(run, kDefaultSeed)));
                bool ok = false;
                {
                    auto span = tracer.span(
                        "sim", "System::restoreCheckpoint", run.label());
                    restore_ms.push_back(timeMs(
                        [&] { ok = fresh.restoreCheckpoint(autosave); }));
                }
                if (!ok || !fresh.checkpointSafeNow()) {
                    verdict.fail(run.label() + ": autosave did not restore "
                                               "to a safe point");
                    break;
                }
                auto span = tracer.span(
                    "sim", "System::writeCheckpointNow", run.label());
                write_ms.push_back(
                    timeMs([&] { fresh.writeCheckpointNow(copy); }));
            }
        }
    }

    double replay_s = 0;
    PassResult runner;
    {
        auto root = tracer.span("bench", "runner pass");
        runner = runRunnerPass(ckpt_def, PassContext{work, &tracer}, 1,
                               replay_s);
    }
    verdict.absorb(runner);
    verdict.compare(runner, direct, "runExperiment(jobs=1) pass");
    if (def.sweep) {
        // The timed sweep runs serially (see README.md); here the thread
        // pool runs it once and must reproduce the serial output.
        auto root = tracer.span("bench", "thread-pool pass");
        double resume_s = 0;
        int jobs = int(std::clamp(std::thread::hardware_concurrency(),
                                  1u, 4u));
        PassResult pooled = runRunnerPass(def, PassContext{work, &tracer},
                                          jobs, resume_s);
        verdict.absorb(pooled);
        verdict.compare(pooled, runner, "runExperiment(jobs=" +
                                            std::to_string(jobs) + ") pass");
    }

    // Runner overhead: CPU time of runExperiment(jobs=1) minus that of
    // the same runs driven directly. Measured on the workload at a
    // tenth of its scale, in seven pairs of alternating order,
    // because the run JSON and the runner's work per run do not grow
    // with run length while the host noise in a full pass (a few %)
    // would swamp them.
    std::vector<double> overheads;
    {
        auto root = tracer.span("bench", "runner overhead");
        WorkloadDef tiny;
        makeWorkload(opt.workload, opt.seed, opt.scale * 0.1, tiny);
        tiny.checkpointEveryS = ckpt_def.checkpointEveryS * 0.1;
        for (int rep = 0; rep < 7; ++rep) {
            double replay_unused = 0;
            PassResult d, r;
            if (rep % 2 == 0)
                d = runDirectCalibrated(tiny, PassContext{work, &tracer});
            r = runRunnerPass(tiny, PassContext{work, &tracer}, 1,
                              replay_unused);
            if (rep % 2 == 1)
                d = runDirectCalibrated(tiny, PassContext{work, &tracer});
            verdict.absorb(d);
            verdict.absorb(r);
            verdict.compare(r, d, "small runExperiment(jobs=1) pass");
            overheads.push_back((r.cpuS - d.cpuS) * 1e3);
        }
    }

    // Layer replay, once per distinct benchmark, fed that benchmark's
    // stream; per-call costs are weighted by the reference run's
    // counts into shares of the run time.
    std::map<softwatt::Benchmark, ReplayCosts> costs;
    std::map<std::string, double> sum_ns;
    std::map<std::string, double> weight;
    Shares shares;
    for (const KeptRun &k : base.kept) {
        const BenchRun &run = *k.spec;
        const System &system = *k.run->system;
        if (!costs.count(run.bench)) {
            auto root = tracer.span("bench", "replay", run.label());
            costs[run.bench] = replayLayers(run, spec_seed, system, tracer);
        }
        const ReplayCosts &c = costs[run.bench];
        WorkCounts n;
        n.add(system);
        auto weigh = [&](const char *name, double ns, double calls) {
            sum_ns[name] += ns * calls;
            weight[name] += calls;
        };
        double insts = double(n.committedInsts);
        weigh("cpu.ooo_cycle_ns", c.oooCycleNs, double(n.cpuCycles));
        weigh("cpu.inorder_cycle_ns", c.inorderCycleNs,
              double(n.cpuCycles));
        weigh("cpu.streamgen_op_ns", c.streamgenOpNs, insts);
        weigh("workload.next_ns", c.workloadNextNs,
              double(c.workloadOps));
        weigh("mem.tlb_lookup_ns", c.tlbLookupNs, double(n.tlbRefs));
        weigh("mem.cache_access_ns", c.cacheAccessNs,
              double(n.l1dRefs));
        weigh("mem.ifetch_ns", c.ifetchNs, insts);
        weigh("mem.data_access_ns", c.dataAccessNs, double(n.l1dRefs));
        weigh("disk.request_us", c.diskRequestUs,
              double(std::max<std::uint64_t>(1, n.diskRequests)));
        weigh("sim.event_ns", c.eventNs, double(n.events));
        weigh("os.service_op_ns", c.serviceOpNs,
              double(n.serviceCycles));
        shares.ooo += double(n.oooCycles) * c.oooCycleNs * 1e-9;
        shares.inorder += double(n.inorderCycles) * c.inorderCycleNs * 1e-9;
        shares.workload += double(c.workloadOps) * c.workloadNextNs * 1e-9;
        shares.tlb += double(n.tlbRefs) * c.tlbLookupNs * 1e-9;
    }

    // Power pass and run rendering on the reference runs.
    double power_ms = 0;
    std::vector<double> render_ms;
    {
        auto root = tracer.span("bench", "post-run layers");
        for (const KeptRun &k : base.kept) {
            const std::string label = k.spec->label();
            const System &system = *k.run->system;
            PowerTrace batch;
            {
                auto span = tracer.span("power", "PowerCalculator::process",
                                        label);
                power_ms += timeMs([&] {
                    batch = system.powerCalculator().process(system.log());
                });
            }
            PowerTrace streamed = system.powerTrace();
            bool same = batch.windows.size() == streamed.windows.size();
            for (std::size_t i = 0; same && i < batch.windows.size(); ++i)
                same = batch.windows[i].componentPowerW ==
                           streamed.windows[i].componentPowerW &&
                       batch.windows[i].modePowerW ==
                           streamed.windows[i].modePowerW;
            if (!same)
                verdict.fail(label + ": streamed power trace differs from "
                                     "the batch pass");
            for (int rep = 0; rep < 3; ++rep) {
                auto span = tracer.span("core", "renderRunJson", label);
                render_ms.push_back(
                    timeMs([&] { (void)renderRunJson(*k.run); }));
            }
        }
    }

    auto avg = [&](const char *name) {
        return weight[name] > 0 ? sum_ns[name] / weight[name] : 0.0;
    };
    const WorkCounts &n = base.counts;
    auto share = [&](double seconds) { return run_s > 0 ? seconds / run_s : 0; };
    double remainder = 1.0 - share(shares.ooo) - share(shares.inorder) -
                       share(shares.workload);
    std::map<std::string, double> self = tracer.selfMs();
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? double(a) / double(b) : 0.0;
    };

    std::vector<Metric> metrics = {
        {"cpu.ooo_cycle_ns", avg("cpu.ooo_cycle_ns"), "ns"},
        {"cpu.ooo_share", share(shares.ooo), "share"},
        {"cpu.inorder_cycle_ns", avg("cpu.inorder_cycle_ns"), "ns"},
        {"cpu.inorder_share", share(shares.inorder), "share"},
        {"cpu.streamgen_op_ns", avg("cpu.streamgen_op_ns"), "ns"},
        {"workload.next_ns", avg("workload.next_ns"), "ns"},
        {"workload.share", share(shares.workload), "share"},
        {"mem.tlb_lookup_ns", avg("mem.tlb_lookup_ns"), "ns"},
        {"mem.tlb_share", share(shares.tlb), "share"},
        {"mem.cache_access_ns", avg("mem.cache_access_ns"), "ns"},
        {"mem.ifetch_ns", avg("mem.ifetch_ns"), "ns"},
        {"mem.data_access_ns", avg("mem.data_access_ns"), "ns"},
        {"disk.request_us", avg("disk.request_us"), "us"},
        {"sim.event_ns", avg("sim.event_ns"), "ns"},
        {"os.service_op_ns", avg("os.service_op_ns"), "ns"},
        {"os.remainder_share", remainder, "share"},
        {"power.trace_ms", power_ms, "ms"},
        {"sim.ckpt_write_ms", median(write_ms), "ms"},
        {"sim.ckpt_restore_ms", median(restore_ms), "ms"},
        {"core.render_ms", median(render_ms), "ms"},
        {"core.journal_replay_ms", replay_s * 1e3, "ms"},
        {"core.runner_overhead_ms",
         median(overheads), "ms"},
        {"core.setup_ms", median(setups) * 1e3, "ms"},
        {"core.run_s", run_s, "s"},
        {"cpu.committed_insts", double(n.committedInsts), "count"},
        {"cpu.detailed_cycles", double(n.cpuCycles), "count"},
        {"cpu.ipc", ratio(n.committedInsts, n.cpuCycles), "inst/cycle"},
        {"mem.l1d_refs", double(n.l1dRefs), "count"},
        {"mem.l1d_miss_ratio", ratio(n.l1dMisses, n.l1dRefs), "ratio"},
        {"mem.l2_miss_ratio", ratio(n.l2Misses, n.l2Refs), "ratio"},
        {"mem.tlb_refs", double(n.tlbRefs), "count"},
        {"mem.tlb_miss_ratio", ratio(n.tlbMisses, n.tlbRefs), "ratio"},
        {"os.service_invocations", double(n.serviceInvocations), "count"},
        {"os.kernel_cycle_share", ratio(n.serviceCycles, n.simCycles),
         "share"},
        {"disk.requests", double(n.diskRequests), "count"},
        {"disk.spinups", double(n.diskSpinups), "count"},
        {"core.ff_cycle_share", ratio(n.ffCycles, n.simCycles), "share"},
        {"core.windows", double(n.windows), "count"},
        {"sim.checkpoints", double(n.checkpoints), "count"},
    };
    for (const char *layer : {"core", "sim", "mem", "cpu", "os", "power",
                              "disk", "workload"})
        metrics.push_back({std::string(layer) + ".self_ms", self[layer], "ms"});
    metrics.push_back({"trace.overhead_ms", overhead_ms, "ms"});

    std::filesystem::create_directories(opt.outDir);
    std::string trace_path = opt.outDir + "/trace-" + opt.workload +
                             "-seed" + std::to_string(opt.seed) + ".json";
    if (!tracer.writeChrome(trace_path, fingerprint))
        verdict.fail("cannot write " + trace_path);
    std::printf("# trace: %zu spans written to %s\n",
                tracer.spans().size(), trace_path.c_str());
    std::printf("# os.remainder_share is 1 - cpu shares - workload.share:"
                " a remainder, not a measurement\n");
    std::printf("# untraced wall %.6f s, traced wall %.6f s\n", base.wallS,
                traced.wallS);
    printResult(verdict, metrics, opt, fingerprint,
                ", \"trace_file\": \"" + trace_path + "\"");
    return verdict.failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseOptions(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--scale F] [--out DIR]\n",
                     argv[0]);
        return 2;
    }
    WorkloadDef def;
    if (!makeWorkload(opt.workload, opt.seed, opt.scale, def)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    // Simulator warnings and progress lines stay on stderr; stdout
    // carries only the benchmark's report.
    std::filesystem::create_directories(opt.outDir);
    const std::string fingerprint = fingerprintJson(opt);
    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
                "scale=%g\n",
                opt.workload.c_str(), (unsigned long long)opt.seed,
                opt.seconds, opt.trace, opt.scale);
    std::printf("# host: %s\n", fingerprint.c_str());
    return opt.trace ? runTraced(opt, def, fingerprint)
                     : runTimed(opt, def, fingerprint);
}
