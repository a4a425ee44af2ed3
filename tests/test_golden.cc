/**
 * @file
 * Golden digests for the MXS (out-of-order) core.
 *
 * Each case runs one benchmark on cpu.model=mxs at a small scale and
 * hashes (FNV-1a-64) its canonical run document (renderRunJson) plus
 * its sample-log CSV. The digests are pinned in tests/golden/mxs.txt,
 * so any change in simulated behaviour of the superscalar core, the
 * memory system or the kernel streams it drives shows as a failure
 * here and as a diff of that file.
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

    std::string
    label() const
    {
        std::string name = benchmarkName(bench);
        return overrides.empty() ? name : name + ":" + overrides;
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
    // Each run takes under 0.6 M cycles; the cap turns a core that
    // livelocks into a failed run instead of a hung test.
    config.parseAssignment("max_cycles=20000000");
    std::istringstream in(c.overrides);
    std::string kv;
    while (in >> kv)
        config.parseAssignment(kv);
    BenchmarkRun run = runBenchmark(
        c.bench, SystemConfig::fromConfig(config), goldenScale);
    EXPECT_TRUE(run.result.ok()) << c.label() << ": "
                                 << run.result.diagnostics;
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
