/**
 * @file
 * Tests for the synthetic instruction-stream generator.
 */

#include <gtest/gtest.h>

#include <map>

#include "cpu/stream_gen.hh"

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
