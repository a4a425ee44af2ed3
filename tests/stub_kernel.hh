/**
 * @file
 * A minimal KernelIface stub for CPU-model unit tests: serves a
 * scripted or generated instruction stream, records traps/syscalls,
 * and performs zero-cost TLB refills with replay.
 */

#ifndef SOFTWATT_TESTS_STUB_KERNEL_HH
#define SOFTWATT_TESTS_STUB_KERNEL_HH

#include <deque>
#include <vector>

#include "cpu/kernel_iface.hh"
#include "mem/tlb.hh"

namespace softwatt
{

class StubKernel : public KernelIface
{
  public:
    explicit StubKernel(Tlb *tlb = nullptr) : tlb(tlb) {}

    /** Script a fixed op sequence (served before the generator). */
    void
    push(const MicroOp &op)
    {
        script.push_back(op);
    }

    /** Optional infinite source consulted after the script. */
    InstSource *fallback = nullptr;

    FetchOutcome
    fetchNext(MicroOp &op) override
    {
        if (!replayQueue.empty()) {
            op = replayQueue.front();
            replayQueue.pop_front();
            ++replayServed;
            return FetchOutcome::Op;
        }
        if (!script.empty()) {
            op = script.front();
            script.pop_front();
            return FetchOutcome::Op;
        }
        if (fallback)
            return fallback->next(op);
        return endWhenEmpty ? FetchOutcome::End
                            : FetchOutcome::Stall;
    }

    void
    dataTlbMiss(Addr vaddr, std::uint32_t asid,
                std::vector<MicroOp> replay) override
    {
        ++tlbMisses;
        lastMissAddr = vaddr;
        lastReplaySize = replay.size();
        lastReplay = replay;
        if (tlb)
            tlb->insert(asid, vaddr);
        for (auto it = replay.rbegin(); it != replay.rend(); ++it)
            replayQueue.push_front(*it);
    }

    void
    syscall(const MicroOp &op) override
    {
        syscallIds.push_back(op.syscallId);
    }

    void
    onCommit(const MicroOp &op) override
    {
        committed.push_back(op.pc);
    }

    bool interruptPending() const override { return intPending; }

    void
    takeInterrupt(std::vector<MicroOp> replay) override
    {
        intPending = false;
        ++interruptsTaken;
        lastReplaySize = replay.size();
        lastReplay = replay;
        for (auto it = replay.rbegin(); it != replay.rend(); ++it)
            replayQueue.push_front(*it);
    }

    void onPipelineEmpty() override { ++pipelineEmptyCalls; }

    ExecMode
    currentStreamMode() const override
    {
        return ExecMode::User;
    }

    std::uint32_t privilegedTag() const override { return 0; }

    Tlb *tlb;
    std::deque<MicroOp> script;
    std::deque<MicroOp> replayQueue;
    std::vector<std::uint16_t> syscallIds;
    std::vector<Addr> committed;
    int tlbMisses = 0;
    Addr lastMissAddr = 0;
    std::size_t lastReplaySize = 0;
    std::vector<MicroOp> lastReplay;  ///< Ops of the last trap's replay.
    std::uint64_t replayServed = 0;
    bool intPending = false;
    bool endWhenEmpty = false;
    int interruptsTaken = 0;
    std::uint64_t pipelineEmptyCalls = 0;
};

/** Convenience builders for scripted ops. */
inline MicroOp
aluOp(Addr pc, std::uint8_t src = noReg, std::uint8_t dst = noReg)
{
    MicroOp op;
    op.cls = InstClass::IntAlu;
    op.pc = pc;
    op.srcA = src;
    op.dst = dst;
    op.mode = ExecMode::User;
    return op;
}

inline MicroOp
loadOp(Addr pc, Addr addr, bool kernel_mapped = true)
{
    MicroOp op;
    op.cls = InstClass::Load;
    op.pc = pc;
    op.memAddr = addr;
    op.dst = 1;
    op.asid = 1;
    op.kernelMapped = kernel_mapped;
    op.mode = ExecMode::User;
    return op;
}

} // namespace softwatt

#endif // SOFTWATT_TESTS_STUB_KERNEL_HH
