/**
 * @file
 * MXS-equivalent CPU: a MIPS R10000-like out-of-order superscalar
 * (Table 1: 4-wide fetch/decode/issue/commit, 64-entry instruction
 * window, 32-entry load/store queue, 2 INT + 2 FP units, BHT/BTB/RAS
 * branch prediction).
 */

#ifndef SOFTWATT_CPU_SUPERSCALAR_CPU_HH
#define SOFTWATT_CPU_SUPERSCALAR_CPU_HH

#include <array>
#include <vector>

#include "cpu.hh"

namespace softwatt
{

/**
 * Out-of-order superscalar timing model.
 *
 * The instruction window is modeled as a unified ROB/issue structure:
 * instructions dispatch in order, issue out of order when their
 * source producers have completed and a functional unit is free, and
 * commit in order. Mispredicted branches stall fetch until they
 * resolve (no wrong-path instructions are consumed from the stream;
 * the redirect penalty is charged instead). Data TLB misses squash
 * the faulting instruction and everything younger, handing them back
 * to the kernel for replay after the utlb handler — the MIPS
 * software-managed TLB protocol.
 */
class SuperscalarCpu : public Cpu
{
  public:
    SuperscalarCpu(const MachineParams &params,
                   CacheHierarchy &hierarchy, Tlb &tlb,
                   CounterSink &sink, KernelIface &kernel);

    bool cycle() override;
    void squashAll() override;
    bool pipelineEmpty() const override;
    std::vector<MicroOp> squashAllCollect() override;

    // Checkpointable (requires a drained pipeline).
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

    /** Cycles in which fetch was blocked on a mispredicted branch. */
    std::uint64_t mispredictStallCycles() const { return mispredStalls; }

  private:
    enum class EntryState : std::uint8_t
    {
        Waiting,
        Issued,
        Completed,
    };

    /** One window slot; its sequence number is implied by the slot. */
    struct Entry
    {
        MicroOp op;
        std::uint64_t depA = 0;    ///< Producer seq of srcA (0 none).
        std::uint64_t depB = 0;
        std::uint64_t completeAt = 0;
        EntryState state = EntryState::Waiting;
        bool mispredicted = false;
    };

    /**
     * The unified ROB/issue window as a ring, allocated once with a
     * power-of-two capacity >= instWindowSize. In-flight sequence
     * numbers are contiguous (squashes rewind nextSeq), so the window
     * holds seqs [nextSeq - windowCount, nextSeq) and seq s lives in
     * slot s & windowMask.
     */
    std::vector<Entry> window;      // ckpt:derived: sized from params
    std::uint64_t windowMask = 0;   // ckpt:derived: sized from params
    int windowCount = 0;            // ckpt:derived: 0 once drained

    /**
     * Earliest completeAt of any issued entry (or later: a squash may
     * leave it early, never late). Writeback does nothing before it.
     */
    std::uint64_t nextCompleteAt = ~std::uint64_t(0); // ckpt:derived

    /**
     * The last select issued nothing, and since then no instruction
     * completed, committed, dispatched or was squashed: every waiting
     * candidate still waits on a producer, so select would issue
     * nothing again (units and ports only bind once something
     * issued).
     */
    bool issueQuiet = false;  // ckpt:derived: cleared by any change

    struct FetchedOp
    {
        MicroOp op;
        bool mispredicted = false;
        bool tlbProbed = false;   ///< TLB already consulted once.
        bool tlbMissed = false;   ///< Probe result (valid if probed).
    };
    static constexpr int fetchQueueCap = 16;  // power of two (ring)
    // ckpt:derived: empty once drained
    std::array<FetchedOp, fetchQueueCap> fetchRing{};
    int fetchHead = 0;   // ckpt:derived: meaningless when empty
    int fetchCount = 0;  // ckpt:derived: 0 once drained

    /** Latest in-flight producer of each architectural register. */
    // ckpt:derived: squashAll() zeroes this before every checkpoint
    std::array<std::uint64_t, numArchRegs> regProducer{};

    std::uint64_t nextSeq = 1;
    std::uint64_t now = 0;

    std::uint64_t fetchBusyUntil = 0;       ///< ckpt:derived: drained.
    std::uint64_t fetchBlockedOnBranch = 0; ///< ckpt:derived: drained.
    /**
     * Seq of the in-flight syscall, set when it dispatches; ~0 while
     * it still waits in the fetch queue.
     */
    std::uint64_t blockedSyscallSeq = 0;    ///< ckpt:derived: drained.
    bool sourceEnded = false;

    std::uint64_t mispredStalls = 0;

    static constexpr int issueScanLimit = 32;
    static constexpr int fpLatency = 3;

    /** Sequence number of the oldest in-flight instruction. */
    std::uint64_t headSeq() const { return nextSeq - windowCount; }

    Entry &slot(std::uint64_t seq) { return window[seq & windowMask]; }

    /** The @p i-th fetch-queue entry, 0 = oldest. */
    FetchedOp &
    fetchSlot(int i)
    {
        return fetchRing[(fetchHead + i) & (fetchQueueCap - 1)];
    }

    /** Entry lookup by sequence number; nullptr if committed/absent. */
    Entry *
    entryBySeq(std::uint64_t seq)
    {
        // Unsigned: seqs below the head wrap to huge offsets.
        return seq - headSeq() < std::uint64_t(windowCount) ? &slot(seq)
                                                             : nullptr;
    }

    /**
     * True when the producer of @p dep has completed (or retired).
     * dep == 0 (no producer) is below every head seq, which is >= 1.
     */
    bool
    depSatisfied(std::uint64_t dep)
    {
        Entry *producer = entryBySeq(dep);
        return producer == nullptr ||
               producer->state == EntryState::Completed;
    }

    /**
     * Remove every in-flight instruction (window, then fetch queue),
     * returning their MicroOps in program order. Sequence numbers
     * rewind to the old head so they are reused by the replays.
     */
    std::vector<MicroOp> squashCollect();

    /** Empty the window and fetch queue without replay. */
    void dropInFlight();

    void doCommit();
    void doWriteback();
    void doIssue();
    /** @return True if a dispatch-time TLB miss trapped. */
    bool doDispatch();
    void doFetch();
};

} // namespace softwatt

#endif // SOFTWATT_CPU_SUPERSCALAR_CPU_HH
