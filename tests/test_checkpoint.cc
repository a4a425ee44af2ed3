/**
 * @file
 * Tests for machine checkpoint/restore: the chunked file format
 * (round-trips, checksums, truncation and bit-flip detection,
 * version gating), autosave generation rotation, restore-and-continue
 * bit-identity against an uninterrupted reference, corruption
 * fallback to the previous generation, fingerprint rejection, and
 * warm-start model switching (in-order image into the superscalar
 * model).
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "core/runner.hh"
#include "core/system.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

using namespace softwatt;

namespace
{

/** Per-test scratch path (ctest runs tests concurrently in one dir). */
std::string
scratch(const std::string &name)
{
    return "checkpoint_" + name;
}

void
removeCheckpointFiles(const std::string &path)
{
    std::remove(path.c_str());
    std::remove(checkpointPreviousGeneration(path).c_str());
    std::remove((path + ".tmp").c_str());
}

std::vector<std::uint8_t>
slurpBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeBytes(const std::string &path,
           const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              std::streamsize(bytes.size()));
}

/** A small but complete machine with the jess benchmark attached. */
std::unique_ptr<System>
makeSystem(CpuModel model = CpuModel::Superscalar,
           double scale = 0.03)
{
    SystemConfig config;
    config.sampleWindow = 20'000;
    config.cpuModel = model;
    auto sys = std::make_unique<System>(config);
    WorkloadSpec spec =
        scaleWorkload(benchmarkSpec(Benchmark::Jess), scale);
    sys->attachWorkload(std::make_unique<Workload>(spec));
    return sys;
}

/** Autosave cadence that fires several times inside a tiny run. */
constexpr double tinyCadenceS = 0.0003;  // 60k cycles at 200 MHz

/**
 * Everything observable about a finished run, rendered bit-exactly
 * (doubles in hexfloat): tick, instruction and cycle totals, the
 * full sample log, the complete counter matrix, and disk activity.
 */
std::string
finalStateSignature(System &sys)
{
    std::ostringstream out;
    out << std::hexfloat;
    out << sys.now() << ':' << sys.cpu().committedInsts() << ':'
        << sys.detailedCycles() << ':' << sys.fastForwardedCycles()
        << ':' << sys.diskEnergyJ() << ':'
        << sys.disk().spinUps() << ':'
        << sys.kernel().diskFaults() << ':';
    for (ExecMode m : allExecModes) {
        for (int c = 0; c < numCounters; ++c)
            out << sys.totals().get(m, CounterId(c)) << ',';
    }
    sys.log().writeCsv(out);
    return out.str();
}

/** A sample image with a couple of hand-built chunks. */
CheckpointImage
sampleImage()
{
    CheckpointImage image;
    image.configFingerprint = 0x1122334455667788ull;
    image.cpuModel = 1;
    ChunkWriter a;
    a.u64(42);
    a.str("hello");
    image.add("alpha", a);
    ChunkWriter b;
    for (int i = 0; i < 100; ++i)
        b.u8(std::uint8_t(i));
    image.add("beta", b);
    return image;
}

class QuietLog
{
  public:
    QuietLog() : saved(logLevel()) { setLogLevel(LogLevel::Quiet); }
    ~QuietLog() { setLogLevel(saved); }

  private:
    LogLevel saved;
};

} // namespace

TEST(CheckpointFormat, Fnv1a64KnownVectors)
{
    // Reference values of the 64-bit FNV-1a test suite.
    EXPECT_EQ(fnv1a64(nullptr, 0), 0xcbf29ce484222325ull);
    const std::uint8_t a[] = {'a'};
    EXPECT_EQ(fnv1a64(a, 1), 0xaf63dc4c8601ec8cull);
    const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
    EXPECT_EQ(fnv1a64(foobar, 6), 0x85944171f73967e8ull);
}

TEST(CheckpointFormat, ChunkRoundTripsPrimitives)
{
    ChunkWriter w;
    w.u8(0xab);
    w.u16(0xbeef);
    w.u32(0xdeadbeef);
    w.u64(0x0123456789abcdefull);
    w.b(true);
    w.b(false);
    w.f64(-0.0);
    w.f64(std::numeric_limits<double>::quiet_NaN());
    w.f64(1.0 / 3.0);
    w.str("chunky");
    w.str("");

    ChunkReader r(w.bytes(), "test");
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u16(), 0xbeef);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
    EXPECT_TRUE(r.b());
    EXPECT_FALSE(r.b());
    double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero));
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_EQ(r.f64(), 1.0 / 3.0);
    EXPECT_EQ(r.str(), "chunky");
    EXPECT_EQ(r.str(), "");
    EXPECT_EQ(r.remaining(), 0u);
    EXPECT_NO_THROW(r.finish());
}

TEST(CheckpointFormat, ReaderOverrunAndLeftoverThrow)
{
    ChunkWriter w;
    w.u32(7);
    {
        ChunkReader r(w.bytes(), "short");
        r.u16();
        EXPECT_THROW(r.u32(), CheckpointError);
    }
    {
        ChunkReader r(w.bytes(), "leftover");
        r.u16();
        EXPECT_THROW(r.finish(), CheckpointError);
    }
}

TEST(CheckpointFormat, FileRoundTripsImage)
{
    const std::string path = scratch("roundtrip.ckpt");
    removeCheckpointFiles(path);
    CheckpointImage image = sampleImage();
    writeCheckpoint(path, image);

    CheckpointImage loaded = readCheckpoint(path);
    EXPECT_EQ(loaded.version, checkpointFormatVersion);
    EXPECT_EQ(loaded.configFingerprint, image.configFingerprint);
    EXPECT_EQ(loaded.cpuModel, image.cpuModel);
    ASSERT_EQ(loaded.chunks.size(), 2u);
    ASSERT_NE(loaded.find("alpha"), nullptr);
    ASSERT_NE(loaded.find("beta"), nullptr);
    EXPECT_EQ(loaded.find("alpha")->payload,
              image.find("alpha")->payload);
    EXPECT_EQ(loaded.find("beta")->payload,
              image.find("beta")->payload);
    EXPECT_EQ(loaded.find("gamma"), nullptr);
    removeCheckpointFiles(path);
}

TEST(CheckpointFormat, TruncationIsDetected)
{
    const std::string path = scratch("truncated.ckpt");
    removeCheckpointFiles(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    ASSERT_GT(bytes.size(), 40u);
    // Cut inside the last chunk's payload.
    bytes.resize(bytes.size() - 10);
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointError);
    removeCheckpointFiles(path);
}

TEST(CheckpointFormat, FlippedPayloadByteIsDetected)
{
    const std::string path = scratch("flipped.ckpt");
    removeCheckpointFiles(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    // Flip one byte near the end (inside the beta payload), leaving
    // the framing intact so only the checksum can catch it.
    bytes[bytes.size() - 5] ^= 0x40;
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointError);
    removeCheckpointFiles(path);
}

TEST(CheckpointFormat, BadMagicIsDetected)
{
    const std::string path = scratch("magic.ckpt");
    removeCheckpointFiles(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    bytes[0] = 'X';
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointError);
    removeCheckpointFiles(path);
}

TEST(CheckpointFormat, UnsupportedVersionIsMismatch)
{
    const std::string path = scratch("version.ckpt");
    removeCheckpointFiles(path);
    writeCheckpoint(path, sampleImage());
    std::vector<std::uint8_t> bytes = slurpBytes(path);
    // The u16 version sits right after the 6-byte magic.
    bytes[6] = 0xff;
    bytes[7] = 0xff;
    writeBytes(path, bytes);
    EXPECT_THROW(readCheckpoint(path), CheckpointMismatch);
    removeCheckpointFiles(path);
}

TEST(CheckpointFormat, MissingFileIsCheckpointError)
{
    EXPECT_THROW(readCheckpoint(scratch("nonexistent.ckpt")),
                 CheckpointError);
}

TEST(CheckpointFormat, AutosaveKeepsTwoGenerations)
{
    const std::string path = scratch("generations.ckpt");
    removeCheckpointFiles(path);

    CheckpointImage first = sampleImage();
    first.configFingerprint = 1;
    autosaveCheckpoint(path, first);
    EXPECT_EQ(readCheckpoint(path).configFingerprint, 1u);
    // No previous generation yet.
    EXPECT_THROW(readCheckpoint(checkpointPreviousGeneration(path)),
                 CheckpointError);

    CheckpointImage second = sampleImage();
    second.configFingerprint = 2;
    autosaveCheckpoint(path, second);
    EXPECT_EQ(readCheckpoint(path).configFingerprint, 2u);
    EXPECT_EQ(readCheckpoint(checkpointPreviousGeneration(path))
                  .configFingerprint,
              1u);

    CheckpointImage third = sampleImage();
    third.configFingerprint = 3;
    autosaveCheckpoint(path, third);
    EXPECT_EQ(readCheckpoint(path).configFingerprint, 3u);
    EXPECT_EQ(readCheckpoint(checkpointPreviousGeneration(path))
                  .configFingerprint,
              2u);
    removeCheckpointFiles(path);
}

TEST(CheckpointRestore, RestoreAndContinueIsBitIdentical)
{
    const std::string path = scratch("continue.ckpt");
    removeCheckpointFiles(path);

    // Reference: uninterrupted run with periodic autosave. The final
    // autosave on disk is a mid-run state some windows before the
    // end.
    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 3u);
    const std::string expected = finalStateSignature(*reference);

    // Restore the newest autosave into a fresh machine and continue
    // under the same cadence: every observable must match the
    // uninterrupted reference bit for bit.
    std::unique_ptr<System> restored = makeSystem();
    restored->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(restored->restoreCheckpoint(path));
    EXPECT_TRUE(restored->restored());
    EXPECT_GT(restored->now(), 0u);
    ASSERT_TRUE(restored->run().ok());
    EXPECT_EQ(finalStateSignature(*restored), expected);

    // The previous generation restores and reproduces the reference
    // as well (one more autosave happens on the way).
    std::unique_ptr<System> older = makeSystem();
    older->setCheckpointPolicy(
        tinyCadenceS, scratch("continue-older.ckpt"));
    ASSERT_TRUE(
        older->restoreCheckpoint(checkpointPreviousGeneration(path)));
    ASSERT_TRUE(older->run().ok());
    EXPECT_EQ(finalStateSignature(*older), expected);

    removeCheckpointFiles(path);
    removeCheckpointFiles(scratch("continue-older.ckpt"));
}

TEST(CheckpointRestore, CorruptLatestFallsBackOneGeneration)
{
    QuietLog quiet;
    const std::string path = scratch("fallback.ckpt");
    removeCheckpointFiles(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 2u);
    const std::string expected = finalStateSignature(*reference);

    const std::vector<std::uint8_t> newest = slurpBytes(path);
    auto restoresFromPrevious = [&](const char *damage) {
        SCOPED_TRACE(damage);
        std::unique_ptr<System> restored = makeSystem();
        restored->setCheckpointPolicy(
            tinyCadenceS, scratch("fallback-b.ckpt"));
        ASSERT_TRUE(restored->restoreCheckpoint(path));
        ASSERT_TRUE(restored->run().ok());
        EXPECT_EQ(finalStateSignature(*restored), expected);
        removeCheckpointFiles(scratch("fallback-b.ckpt"));
    };

    // A flipped payload byte in the newest generation.
    std::vector<std::uint8_t> flipped = newest;
    flipped[flipped.size() / 2] ^= 0x01;
    writeBytes(path, flipped);
    restoresFromPrevious("flipped byte");

    // The newest file gone: a crash between rotation and write.
    std::remove(path.c_str());
    restoresFromPrevious("newest deleted");

    // The newest file a zero-length stub: a torn rename.
    writeBytes(path, {});
    restoresFromPrevious("newest truncated to zero");

    removeCheckpointFiles(path);
}

TEST(CheckpointRestore, BothGenerationsCorruptStartsFromScratch)
{
    QuietLog quiet;
    const std::string path = scratch("scorched.ckpt");
    removeCheckpointFiles(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    const std::string expected = finalStateSignature(*reference);

    // Damage both generations.
    for (const std::string &p :
         {path, checkpointPreviousGeneration(path)}) {
        std::vector<std::uint8_t> bytes = slurpBytes(p);
        ASSERT_FALSE(bytes.empty());
        bytes.resize(bytes.size() / 2);
        writeBytes(p, bytes);
    }

    std::unique_ptr<System> fresh = makeSystem();
    fresh->setCheckpointPolicy(
        tinyCadenceS, scratch("scorched-b.ckpt"));
    EXPECT_FALSE(fresh->restoreCheckpoint(path));
    EXPECT_FALSE(fresh->restored());
    EXPECT_EQ(fresh->now(), 0u);
    // The run still completes — from scratch — and, because the
    // cadence matches, still reproduces the reference.
    ASSERT_TRUE(fresh->run().ok());
    EXPECT_EQ(finalStateSignature(*fresh), expected);

    removeCheckpointFiles(path);
    removeCheckpointFiles(scratch("scorched-b.ckpt"));
}

TEST(CheckpointRestore, FingerprintMismatchIsFatal)
{
    QuietLog quiet;
    const std::string path = scratch("mismatch.ckpt");
    removeCheckpointFiles(path);

    std::unique_ptr<System> reference = makeSystem();
    reference->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(reference->run().ok());
    ASSERT_GE(reference->checkpointsTaken(), 1u);

    // A different workload scale is a different machine as far as
    // restore is concerned; no autosave generation can fix it.
    std::unique_ptr<System> other =
        makeSystem(CpuModel::Superscalar, /*scale=*/0.04);
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(other->restoreCheckpoint(path), SimError);
    setErrorHandler(nullptr);
    removeCheckpointFiles(path);
}

TEST(CheckpointRestore, FingerprintIgnoresCpuModel)
{
    std::unique_ptr<System> inorder = makeSystem(CpuModel::InOrder);
    std::unique_ptr<System> superscalar =
        makeSystem(CpuModel::Superscalar);
    EXPECT_EQ(inorder->checkpointFingerprint(),
              superscalar->checkpointFingerprint());

    std::unique_ptr<System> scaled =
        makeSystem(CpuModel::Superscalar, /*scale=*/0.04);
    EXPECT_NE(superscalar->checkpointFingerprint(),
              scaled->checkpointFingerprint());
}

TEST(CheckpointRestore, WarmStartSwitchesCpuModel)
{
    const std::string path = scratch("warmstart.ckpt");
    removeCheckpointFiles(path);

    // Warm up under the fast in-order model...
    std::unique_ptr<System> warmup = makeSystem(CpuModel::InOrder);
    warmup->setCheckpointPolicy(tinyCadenceS, path);
    ASSERT_TRUE(warmup->run().ok());
    ASSERT_GE(warmup->checkpointsTaken(), 1u);

    // ...and continue under the detailed superscalar model: caches,
    // TLB, disk, OS and workload state carry over, the core starts
    // cold. Two such restores must agree bit for bit.
    std::string signatures[2];
    for (int i = 0; i < 2; ++i) {
        std::unique_ptr<System> detailed =
            makeSystem(CpuModel::Superscalar);
        detailed->setCheckpointPolicy(
            tinyCadenceS, scratch("warmstart-b.ckpt"));
        ASSERT_TRUE(detailed->restoreCheckpoint(path));
        EXPECT_TRUE(detailed->restored());
        ASSERT_TRUE(detailed->run().ok());
        // The warm-started run begins where the in-order image
        // stopped and executes real work on the new core.
        EXPECT_GT(detailed->cpu().committedInsts(), 0u);
        signatures[i] = finalStateSignature(*detailed);
    }
    EXPECT_EQ(signatures[0], signatures[1]);

    removeCheckpointFiles(path);
    removeCheckpointFiles(scratch("warmstart-b.ckpt"));
}

TEST(CheckpointRestore, PolicyValidation)
{
    QuietLog quiet;
    std::unique_ptr<System> sys = makeSystem();
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(sys->setCheckpointPolicy(-1.0, "x.ckpt"), SimError);
    EXPECT_THROW(sys->setCheckpointPolicy(0.5, ""), SimError);
    setErrorHandler(nullptr);
    // Disabling never needs a path.
    EXPECT_NO_THROW(sys->setCheckpointPolicy(0.0, ""));
}

TEST(CheckpointRunner, FromArgsValidatesCheckpointKeys)
{
    QuietLog quiet;
    setErrorHandler(throwingErrorHandler);

    // checkpoint_every_s without out= has nowhere to autosave.
    Config no_out;
    no_out.set("checkpoint_every_s", 0.5);
    EXPECT_THROW(ExperimentSpec::fromArgs("t", no_out), SimError);

    Config negative;
    negative.set("checkpoint_every_s", -0.5);
    negative.set("out", std::string("r.json"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", negative), SimError);

    // restore= must name a readable file up front.
    Config missing;
    missing.set("restore", std::string("no-such-file.ckpt"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", missing), SimError);

    // restore= and resume=1 are different resumption mechanisms.
    const std::string ckpt = scratch("fromargs.ckpt");
    writeCheckpoint(ckpt, sampleImage());
    Config both;
    both.set("restore", ckpt);
    both.set("resume", std::int64_t(1));
    both.set("out", std::string("r.json"));
    EXPECT_THROW(ExperimentSpec::fromArgs("t", both), SimError);
    setErrorHandler(nullptr);

    // The valid combination parses.
    Config good;
    good.set("checkpoint_every_s", 0.5);
    good.set("out", std::string("r.json"));
    good.set("restore", ckpt);
    ExperimentSpec spec = ExperimentSpec::fromArgs("t", good);
    EXPECT_EQ(spec.checkpointEveryS, 0.5);
    EXPECT_EQ(spec.restorePath, ckpt);
    std::remove(ckpt.c_str());
    std::remove("r.json");
}

TEST(CheckpointRunner, RestoreNeedsASingleRunSpec)
{
    QuietLog quiet;
    const std::string ckpt = scratch("multirun.ckpt");
    writeCheckpoint(ckpt, sampleImage());

    ExperimentSpec spec;
    spec.title = "multi";
    spec.jobs = 1;
    SystemConfig config;
    spec.add(Benchmark::Jess, config, 0.03);
    spec.add(Benchmark::Db, config, 0.03);
    spec.restorePath = ckpt;
    setErrorHandler(throwingErrorHandler);
    EXPECT_THROW(runExperiment(spec), SimError);
    setErrorHandler(nullptr);
    std::remove(ckpt.c_str());
}
