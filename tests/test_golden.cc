/**
 * @file
 * Golden digests for the MXS (out-of-order) core and the Mipsy
 * (in-order) core.
 *
 * Each case runs one benchmark on cpu.model=mxs at a small scale and
 * hashes (FNV-1a-64) its canonical run document (renderRunJson) plus
 * its sample-log CSV; the cpu.model=mipsy cases override the model.
 * The policy cases (DVFS under a binding budget, adaptive spin-down,
 * halted idle) also check that their policy acted during the run.
 * The digests are pinned in tests/golden/mxs.txt, so any change in
 * simulated behaviour of either core, the memory system or the
 * kernel streams they drive shows as a failure here and as a diff of
 * that file.
 *
 * Regenerate only for a deliberate model change (and say which one in
 * CHANGES.md):
 *
 *     SOFTWATT_UPDATE_GOLDEN=1 ./tests/softwatt_tests \
 *         --gtest_filter='MxsGolden.*'
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/runner.hh"
#include "core/system.hh"
#include "os/power_governor.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"

using namespace softwatt;

namespace
{

/** Small enough for tier-1, long enough to take interrupts/syscalls. */
constexpr double goldenScale = 0.01;

struct GoldenCase
{
    Benchmark bench;
    std::string overrides;  ///< Extra key=value assignments.

    /** Overrides joined by ',' so a label stays one token. */
    std::string
    label() const
    {
        std::string name = benchmarkName(bench);
        if (overrides.empty())
            return name;
        std::string joined = overrides;
        for (char &ch : joined) {
            if (ch == ' ')
                ch = ',';
        }
        return name + ":" + joined;
    }
};

std::vector<GoldenCase>
goldenCases()
{
    std::vector<GoldenCase> cases;
    for (Benchmark bench : allBenchmarks)
        cases.push_back({bench, ""});
    // A window that is not a power of two, and one that is often full.
    for (Benchmark bench : {Benchmark::Javac, Benchmark::Mtrt}) {
        cases.push_back({bench, "cpu.inst_window=48"});
        cases.push_back({bench, "cpu.inst_window=8"});
    }
    // Unit limits that bind after a single issue, and an 8-entry TLB
    // under constant refills. Only the one-wide select makes a
    // select that wrongly goes quiet after one issue visible: with
    // wider issue, something completes, commits or dispatches in
    // the next cycle and wakes it anyway.
    cases.push_back({Benchmark::Jess, "cpu.int_alus=1"});
    cases.push_back({Benchmark::Jess, "tlb.entries=8"});
    cases.push_back({Benchmark::Jess, "cpu.issue_width=1"});
    // The in-order core on every benchmark.
    for (Benchmark bench : allBenchmarks)
        cases.push_back({bench, "cpu.model=mipsy"});
    // Power policies on both cores: a binding budget whose governor
    // steps down and back up every few 10k-cycle windows (throttled
    // cycles), a spin-down disk whose 5 s spin-ups are short enough
    // at time_scale=2000 to happen inside the run, and halted idle
    // (fast-forward with the halted idle profile).
    for (const char *model : {"", " cpu.model=mipsy"}) {
        cases.push_back(
            {Benchmark::Jess,
             std::string("dvfs=1 power_budget_w=3 sample_window=10000") +
                 model});
        cases.push_back(
            {Benchmark::Compress,
             std::string("adaptive_spindown=1 disk.config=spindown "
                         "disk.threshold_s=0.25 time_scale=2000") +
                 model});
        cases.push_back(
            {Benchmark::Db, std::string("halt_on_idle=1") + model});
    }
    return cases;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

std::uint64_t
runDigest(const GoldenCase &c)
{
    Config config;
    config.parseAssignment("cpu.model=mxs");
    // Each run takes under 3.5 M cycles (the spin-down cases; the
    // rest under 1.2 M, MXS under 0.6 M); the cap turns a core that
    // livelocks while still committing into a failed run instead of
    // a hung test (one that stops committing trips the no-progress
    // watchdog first).
    config.parseAssignment("max_cycles=20000000");
    std::istringstream in(c.overrides);
    std::string kv;
    while (in >> kv)
        config.parseAssignment(kv);
    BenchmarkRun run = runBenchmark(
        c.bench, SystemConfig::fromConfig(config), goldenScale);
    EXPECT_TRUE(run.result.ok()) << c.label() << ": "
                                 << run.result.diagnostics;
    // A policy case pins its branch only if the policy acted.
    const System &sys = *run.system;
    if (const DvfsGovernor *gov = sys.dvfsGovernor()) {
        EXPECT_GT(gov->stepsDown(), 0u) << c.label();
        EXPECT_GT(gov->stepsUp(), 0u) << c.label();
        EXPECT_GT(sys.throttledCycles(), 0u) << c.label();
    }
    if (sys.spindownPolicy()) {
        EXPECT_GT(sys.disk().spinUps(), 0u) << c.label();
    }
    if (c.overrides.find("halt_on_idle=1") != std::string::npos) {
        EXPECT_GT(sys.fastForwardedCycles(), 0u) << c.label();
    }
    std::string text = renderRunJson(run);
    std::ostringstream csv;
    run.system->log().writeCsv(csv);
    text += csv.str();
    return fnv1a64(reinterpret_cast<const std::uint8_t *>(text.data()),
                   text.size());
}

/** "<label> <hex>" per line. */
std::map<std::string, std::string>
loadGolden(const std::string &path)
{
    std::map<std::string, std::string> golden;
    std::ifstream in(path);
    std::string label, digest;
    while (in >> label >> digest)
        golden[label] = digest;
    return golden;
}

} // namespace

TEST(MxsGolden, DigestsMatchCommittedFile)
{
    const std::string path = SOFTWATT_GOLDEN_DIR "/mxs.txt";
    const bool update = std::getenv("SOFTWATT_UPDATE_GOLDEN") != nullptr;
    auto golden = loadGolden(path);

    std::ostringstream fresh;
    for (const GoldenCase &c : goldenCases()) {
        std::string digest = hex64(runDigest(c));
        fresh << c.label() << ' ' << digest << '\n';
        if (update)
            continue;
        auto it = golden.find(c.label());
        if (it == golden.end())
            ADD_FAILURE() << c.label() << ": no digest in " << path;
        else
            EXPECT_EQ(it->second, digest) << c.label();
    }
    if (update) {
        std::ofstream out(path);
        out << fresh.str();
        ASSERT_TRUE(out.good()) << "cannot write " << path;
    }
}
