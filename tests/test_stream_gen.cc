/**
 * @file
 * Tests for the synthetic instruction-stream generator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "cpu/stream_gen.hh"
#include "os/service_streams.hh"
#include "sim/random.hh"

using namespace softwatt;

namespace
{

StreamSpec
basicSpec()
{
    StreamSpec s;
    s.fracLoad = 0.2;
    s.fracStore = 0.1;
    s.fracBranch = 0.15;
    s.fracFp = 0.05;
    s.fracNop = 0.1;
    s.codeFootprint = 8 * 1024;
    s.dataFootprint = 64 * 1024;
    s.hotFootprint = 64 * 1024;
    return s;
}

std::map<InstClass, int>
histogram(StreamGen &gen, int n)
{
    std::map<InstClass, int> h;
    MicroOp op;
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(gen.next(op), FetchOutcome::Op);
        ++h[op.cls];
    }
    return h;
}

} // namespace

TEST(StreamGen, DeterministicForSeed)
{
    StreamGen a(basicSpec(), 5), b(basicSpec(), 5);
    MicroOp x, y;
    for (int i = 0; i < 5000; ++i) {
        a.next(x);
        b.next(y);
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(int(x.cls), int(y.cls));
        ASSERT_EQ(x.memAddr, y.memAddr);
        ASSERT_EQ(x.taken, y.taken);
    }
}

TEST(StreamGen, MixApproximatesSpec)
{
    StreamGen gen(basicSpec(), 7);
    auto h = histogram(gen, 120000);
    double n = 120000;
    EXPECT_NEAR(h[InstClass::Load] / n, 0.2, 0.05);
    EXPECT_NEAR(h[InstClass::Store] / n, 0.1, 0.04);
    EXPECT_NEAR(h[InstClass::Branch] / n, 0.15, 0.05);
    EXPECT_NEAR(h[InstClass::FpAlu] / n, 0.05, 0.03);
}

TEST(StreamGen, PcsStayInCodeFootprint)
{
    StreamSpec s = basicSpec();
    StreamGen gen(s, 9);
    MicroOp op;
    for (int i = 0; i < 20000; ++i) {
        gen.next(op);
        ASSERT_GE(op.pc, s.codeBase);
        ASSERT_LT(op.pc, s.codeBase + s.codeFootprint);
        if (op.isBranch() && op.taken && !op.isReturn) {
            ASSERT_GE(op.target, s.codeBase);
            ASSERT_LT(op.target, s.codeBase + s.codeFootprint);
        }
    }
}

TEST(StreamGen, DataAddressesStayInFootprint)
{
    StreamSpec s = basicSpec();
    StreamGen gen(s, 9);
    MicroOp op;
    for (int i = 0; i < 20000; ++i) {
        gen.next(op);
        if (op.isMemOp()) {
            ASSERT_GE(op.memAddr, s.dataBase);
            ASSERT_LT(op.memAddr, s.dataBase + s.dataFootprint);
        }
    }
}

TEST(StreamGen, ColdAccessesLeaveHotSet)
{
    StreamSpec s = basicSpec();
    s.dataFootprint = 32 * 1024 * 1024;
    s.hotFootprint = 64 * 1024;
    s.coldAccessProb = 0.2;
    s.spatialLocality = 0.5;
    StreamGen gen(s, 3);
    MicroOp op;
    int cold = 0, mem_ops = 0;
    for (int i = 0; i < 50000; ++i) {
        gen.next(op);
        if (op.isMemOp()) {
            ++mem_ops;
            cold += (op.memAddr >= s.dataBase + s.hotFootprint);
        }
    }
    EXPECT_GT(cold, 0);
    // Effective cold rate = (1 - spatial) * coldProb, approximately.
    EXPECT_NEAR(double(cold) / mem_ops, 0.5 * 0.2, 0.04);
}

TEST(StreamGen, NoColdAccessesWhenDisabled)
{
    StreamSpec s = basicSpec();
    s.dataFootprint = 32 * 1024 * 1024;
    s.hotFootprint = 64 * 1024;
    s.coldAccessProb = 0;
    StreamGen gen(s, 3);
    MicroOp op;
    for (int i = 0; i < 50000; ++i) {
        gen.next(op);
        if (op.isMemOp()) {
            ASSERT_LT(op.memAddr, s.dataBase + s.hotFootprint);
        }
    }
}

TEST(StreamGen, ClassIsAFixedPropertyOfThePc)
{
    StreamGen gen(basicSpec(), 11);
    std::map<Addr, InstClass> seen;
    MicroOp op;
    for (int i = 0; i < 40000; ++i) {
        gen.next(op);
        auto it = seen.find(op.pc);
        if (it == seen.end())
            seen[op.pc] = op.cls;
        else
            ASSERT_EQ(int(it->second), int(op.cls)) << op.pc;
    }
}

TEST(StreamGen, ModeAndAsidTagging)
{
    StreamSpec s = basicSpec();
    s.mode = ExecMode::KernelSync;
    s.kernelMapped = true;
    s.asid = 3;
    StreamGen gen(s, 2);
    MicroOp op;
    for (int i = 0; i < 100; ++i) {
        gen.next(op);
        ASSERT_EQ(int(op.mode), int(ExecMode::KernelSync));
        ASSERT_TRUE(op.kernelMapped);
        ASSERT_EQ(op.asid, 3u);
    }
}

TEST(StreamGen, SerialChainWhenDepProbOne)
{
    StreamSpec s = basicSpec();
    s.fracLoad = s.fracStore = s.fracBranch = s.fracFp = 0;
    s.fracNop = 0;
    s.depProb = 1.0;
    s.depWindow = 1;
    StreamGen gen(s, 4);
    MicroOp prev, op;
    gen.next(prev);
    for (int i = 0; i < 200; ++i) {
        gen.next(op);
        ASSERT_EQ(op.srcA, prev.dst);
        prev = op;
    }
}

TEST(BoundedStream, EndsAfterLength)
{
    BoundedStream stream(basicSpec(), 5, 10);
    MicroOp op;
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(stream.next(op), FetchOutcome::Op);
    EXPECT_EQ(stream.next(op), FetchOutcome::End);
    EXPECT_EQ(stream.next(op), FetchOutcome::End);
}

TEST(StreamGenDeath, OverfullMixIsFatal)
{
    StreamSpec s = basicSpec();
    s.fracLoad = 0.9;
    s.fracStore = 0.9;
    EXPECT_DEATH(StreamGen(s, 1), "mix");
}

// ---------------------------------------------------------------------
// The per-thread class-pattern memo.
// ---------------------------------------------------------------------

namespace
{

/** Mixes drawn like the model's: five fractions summing to <= 1. */
std::vector<StreamSpec>
randomMixes(std::uint64_t seed, int n)
{
    Random rng(seed);
    std::vector<StreamSpec> mixes;
    for (int i = 0; i < n; ++i) {
        double f[5];
        double sum = 0;
        for (double &x : f) {
            x = rng.uniform();
            sum += x;
        }
        // Every third mix fills the whole pattern (no IntAlu share).
        double total = (i % 3 == 0) ? 1.0 : rng.uniform();
        StreamSpec s;
        s.fracLoad = f[0] / sum * total;
        s.fracStore = f[1] / sum * total;
        s.fracBranch = f[2] / sum * total;
        s.fracFp = f[3] / sum * total;
        s.fracNop = f[4] / sum * total;
        mixes.push_back(s);
    }
    return mixes;
}

bool
sameMix(const StreamSpec &a, const StreamSpec &b)
{
    return a.fracLoad == b.fracLoad && a.fracStore == b.fracStore &&
           a.fracBranch == b.fracBranch && a.fracFp == b.fracFp &&
           a.fracNop == b.fracNop;
}

} // namespace

TEST(StreamGenMemo, EveryModelMixMatchesAFreshBuild)
{
    // Every fixed kernel service (I/O services and every benchmark
    // phase are reached by the runs below) goes through the memo.
    for (int k = 0; k < numServices; ++k) {
        auto kind = ServiceKind(k);
        if (kind == ServiceKind::Read || kind == ServiceKind::Write)
            continue;
        for (std::uint64_t seed : {1, 2, 77})
            makeFixedService(kind, ServiceTuning{}, seed);
    }
    SystemConfig config;
    config.cpuModel = CpuModel::InOrder;
    for (Benchmark bench : allBenchmarks)
        ASSERT_TRUE(runBenchmark(bench, config, 0.01).result.ok());

    std::vector<StreamSpec> mixes = StreamGen::memoisedMixes();
    for (StreamSpec model :
         {idleLoopSpec(), kernelCodeSpec(ExecMode::KernelInst)}) {
        EXPECT_TRUE(std::any_of(mixes.begin(), mixes.end(),
                                [&](const StreamSpec &m) {
                                    return sameMix(m, model);
                                }));
    }
    for (Benchmark bench : allBenchmarks) {
        StreamSpec main = benchmarkSpec(bench).mainSpec;
        EXPECT_TRUE(std::any_of(mixes.begin(), mixes.end(),
                                [&](const StreamSpec &m) {
                                    return sameMix(m, main);
                                }))
            << benchmarkName(bench);
    }
    // Kernel services, six main phases plus their JIT, GC and
    // allocation variants.
    EXPECT_GE(mixes.size(), 12u);
    for (const StreamSpec &mix : mixes) {
        EXPECT_EQ(StreamGen::classPatternFor(mix),
                  StreamGen::buildClassPattern(mix));
    }
}

TEST(StreamGenMemo, RandomMixesMatchAFreshBuild)
{
    for (const StreamSpec &mix : randomMixes(0x5eed, 1000)) {
        StreamGen::ClassPattern fresh = StreamGen::buildClassPattern(mix);
        // First call fills the memo, the second hits it.
        EXPECT_EQ(StreamGen::classPatternFor(mix), fresh);
        EXPECT_EQ(StreamGen::classPatternFor(mix), fresh);
    }
}

TEST(StreamGenMemo, EachFractionIsPartOfTheKey)
{
    // Memoise a base mix, then mixes that differ from it in one
    // fraction only: each must get its own pattern, not the base's.
    StreamSpec base = basicSpec();
    const StreamGen::ClassPattern base_pattern =
        StreamGen::classPatternFor(base);
    double StreamSpec::*fields[] = {
        &StreamSpec::fracLoad, &StreamSpec::fracStore,
        &StreamSpec::fracBranch, &StreamSpec::fracFp,
        &StreamSpec::fracNop};
    for (double StreamSpec::*field : fields) {
        StreamSpec variant = base;
        variant.*field += 0.05;
        StreamGen::ClassPattern fresh =
            StreamGen::buildClassPattern(variant);
        ASSERT_NE(fresh, base_pattern);
        EXPECT_EQ(StreamGen::classPatternFor(variant), fresh);
    }
    // Fractions one ulp apart are different keys too.
    StreamSpec ulp = base;
    ulp.fracLoad = std::nextafter(base.fracLoad, 0.0);
    EXPECT_EQ(StreamGen::classPatternFor(ulp),
              StreamGen::buildClassPattern(ulp));
}

TEST(StreamGenMemo, ConcurrentThreadsBuildTheSamePatterns)
{
    // Each thread has its own memo; two filling theirs at once must
    // agree with each other and with a fresh build.
    const std::vector<StreamSpec> mixes = randomMixes(0xc0ffee, 200);
    std::vector<StreamGen::ClassPattern> seen[2];
    auto worker = [&mixes](std::vector<StreamGen::ClassPattern> &out) {
        for (int pass = 0; pass < 2; ++pass) {
            for (const StreamSpec &mix : mixes) {
                StreamGen gen(mix, 1);
                out.push_back(StreamGen::classPatternFor(mix));
            }
        }
    };
    std::thread t0(worker, std::ref(seen[0]));
    std::thread t1(worker, std::ref(seen[1]));
    t0.join();
    t1.join();
    ASSERT_EQ(seen[0].size(), 2 * mixes.size());
    ASSERT_EQ(seen[1].size(), seen[0].size());
    for (std::size_t i = 0; i < seen[0].size(); ++i) {
        EXPECT_EQ(seen[0][i], seen[1][i]);
        EXPECT_EQ(seen[0][i],
                  StreamGen::buildClassPattern(mixes[i % mixes.size()]));
    }
}
