/**
 * @file
 * Parametric synthetic instruction-stream generator.
 *
 * Both the kernel-service models and the SPEC JVM98 workload
 * equivalents are built from StreamGen: a deterministic generator
 * shaped by an instruction mix, code footprint, working set, branch
 * behaviour and dependence (ILP) parameters. The timing models then
 * *measure* IPC, cache references per cycle, predictor accuracy and
 * so on — none of those outputs is asserted directly.
 */

#ifndef SOFTWATT_CPU_STREAM_GEN_HH
#define SOFTWATT_CPU_STREAM_GEN_HH

#include <array>
#include <cstdint>
#include <vector>

#include "sim/random.hh"
#include "sim/types.hh"

#include "inst.hh"

namespace softwatt
{

class ChunkWriter;
class ChunkReader;

/** Shape parameters of a synthetic instruction stream. */
struct StreamSpec
{
    // Instruction mix; the remainder after all fractions is IntAlu.
    double fracLoad = 0.22;
    double fracStore = 0.12;
    double fracBranch = 0.12;
    double fracFp = 0.02;
    double fracNop = 0.14;

    // Code behaviour: PCs walk a loop of this footprint.
    Addr codeBase = 0x10000000;
    std::uint64_t codeFootprint = 8 * 1024;

    /**
     * Branch behaviour: fraction of branch sites with a fixed
     * (learnable) direction; the rest flip randomly with
     * probability takenProb.
     */
    double predictability = 0.85;
    double takenProb = 0.6;

    /** Fraction of branches that are call/return pairs. */
    double callFraction = 0.05;

    // Data behaviour.
    Addr dataBase = 0x40000000;
    std::uint64_t dataFootprint = 512 * 1024;

    /** Probability the next access continues a sequential run. */
    double spatialLocality = 0.75;

    /**
     * Probability a data access leaves the hot working set for the
     * full footprint — the knob controlling the TLB miss rate.
     */
    double coldAccessProb = 0.0;
    std::uint64_t hotFootprint = 128 * 1024;

    /**
     * Dependence shaping: probability an operand names the result of
     * one of the last few instructions (serial chains lower ILP).
     */
    double depProb = 0.35;
    int depWindow = 4;

    // Attribution.
    ExecMode mode = ExecMode::User;
    bool kernelMapped = false;
    std::uint32_t asid = 0;

    /** Checkpointing: every shape field, bit-exact. */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);
};

/**
 * Infinite deterministic instruction stream with the statistical
 * shape described by a StreamSpec.
 */
class StreamGen : public InstSource
{
  public:
    /** Length of the repeating per-site class pattern. */
    static constexpr int patternLength = 128;

    /** Instruction class of each site position, as InstClass values. */
    using ClassPattern = std::array<std::uint8_t, patternLength>;

    StreamGen(const StreamSpec &spec, std::uint64_t seed);

    /**
     * The class pattern of @p spec's instruction mix. It depends only
     * on the five frac* fields, so it is built once per mix (keyed on
     * their exact bit patterns) in a memo private to the calling
     * thread: no lock, and jobs>1 workers never share an entry.
     */
    static const ClassPattern &classPatternFor(const StreamSpec &spec);

    /** The same pattern built from scratch: the memo's only filler. */
    static ClassPattern buildClassPattern(const StreamSpec &spec);

    /** Mixes in the calling thread's memo (frac* fields set only). */
    static std::vector<StreamSpec> memoisedMixes();

    FetchOutcome next(MicroOp &op) override;

    /** Instructions generated so far. */
    std::uint64_t generated() const { return numGenerated; }

    const StreamSpec &spec() const { return streamSpec; }

    /**
     * Checkpointing: the spec plus all dynamic state. loadState
     * replaces this generator's spec with the saved one and reloads
     * the (spec-derived, rng-free) class pattern, so a generator
     * restored into a dummy-constructed instance continues the saved
     * stream exactly.
     */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    StreamSpec streamSpec;
    Random rng;

    /** Repeating per-site class pattern with the spec's exact mix. */
    // ckpt:derived: copied from classPatternFor(streamSpec)
    ClassPattern classPattern;

    Addr pc;
    Addr nextDataAddr;
    std::uint64_t numGenerated = 0;

    /** Rotating destination registers for dependence shaping. */
    std::uint8_t recentDst[8] = {};
    int recentCount = 0;
    int nextDstReg = 1;

    /** Pending return targets for call/return pairing. */
    Addr callStack[16] = {};
    int callDepth = 0;

    std::uint8_t pickSrc();
    std::uint8_t pickDst();
    Addr pickDataAddr();
};

/**
 * Wraps a StreamGen to produce exactly @p length instructions and
 * then report End — the shape of one kernel-service invocation.
 */
class BoundedStream : public InstSource
{
  public:
    BoundedStream(const StreamSpec &spec, std::uint64_t seed,
                  std::uint64_t length)
        : gen(spec, seed), remaining(length)
    {}

    FetchOutcome
    next(MicroOp &op) override
    {
        if (remaining == 0)
            return FetchOutcome::End;
        --remaining;
        return gen.next(op);
    }

    std::uint64_t remainingOps() const { return remaining; }

    /** Checkpointing: the wrapped generator plus the budget. */
    void saveState(ChunkWriter &out) const;
    void loadState(ChunkReader &in);

  private:
    StreamGen gen;
    std::uint64_t remaining;
};

} // namespace softwatt

#endif // SOFTWATT_CPU_STREAM_GEN_HH
