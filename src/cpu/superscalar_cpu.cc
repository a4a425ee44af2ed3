#include "superscalar_cpu.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/logging.hh"

namespace softwatt
{

SuperscalarCpu::SuperscalarCpu(const MachineParams &params,
                               CacheHierarchy &hierarchy, Tlb &tlb,
                               CounterSink &sink, KernelIface &kernel)
    : Cpu(params, hierarchy, tlb, sink, kernel)
{
    if (params.instWindowSize < 1)
        fatal("cpu.inst_window must be at least 1");
    std::size_t capacity = 1;
    while (capacity < std::size_t(params.instWindowSize))
        capacity <<= 1;
    window.resize(capacity);
    windowMask = capacity - 1;
}

bool
SuperscalarCpu::pipelineEmpty() const
{
    return windowCount == 0 && fetchCount == 0;
}

std::vector<MicroOp>
SuperscalarCpu::squashCollect()
{
    std::vector<MicroOp> replay;
    replay.reserve(std::size_t(windowCount + fetchCount));
    for (std::uint64_t seq = headSeq(); seq < nextSeq; ++seq)
        replay.push_back(slot(seq).op);
    for (int i = 0; i < fetchCount; ++i)
        replay.push_back(fetchSlot(i).op);

    nextSeq = headSeq();  // the replays reuse the squashed seqs
    dropInFlight();
    return replay;
}

void
SuperscalarCpu::dropInFlight()
{
    // With nothing in flight no register has a pending producer, no
    // branch blocks fetch and no syscall serializes it.
    windowCount = 0;
    fetchCount = 0;
    nextCompleteAt = ~std::uint64_t(0);
    issueQuiet = false;
    regProducer.fill(0);
    fetchBlockedOnBranch = 0;
    blockedSyscallSeq = 0;
}

std::vector<MicroOp>
SuperscalarCpu::squashAllCollect()
{
    std::vector<MicroOp> replay = squashCollect();
    squashAll();
    return replay;
}

void
SuperscalarCpu::squashAll()
{
    dropInFlight();
    fetchBusyUntil = 0;
}

void
SuperscalarCpu::saveState(ChunkWriter &out) const
{
    SW_CHECK(pipelineEmpty(),
             "SuperscalarCpu::saveState: pipeline not drained");
    saveBaseState(out);
    out.b(sourceEnded);
    out.u64(nextSeq);
    out.u64(now);
    out.u64(mispredStalls);
}

void
SuperscalarCpu::loadState(ChunkReader &in)
{
    SW_CHECK(pipelineEmpty(),
             "SuperscalarCpu::loadState: pipeline not drained");
    loadBaseState(in);
    sourceEnded = in.b();
    nextSeq = in.u64();
    now = in.u64();
    mispredStalls = in.u64();
}

void
SuperscalarCpu::doCommit()
{
    int committed = 0;
    while (committed < params.commitWidth && windowCount > 0) {
        const std::uint64_t seq = headSeq();
        // The slot stays intact until a later dispatch reuses it.
        const Entry &entry = slot(seq);
        if (entry.state != EntryState::Completed)
            break;
        --windowCount;
        ++committed;
        ++totalCommitted;
        sink.add(entry.op.mode, CounterId::CommittedInsts, 1,
                 entry.op.frameTag);
        if (entry.op.dst != noReg && regProducer[entry.op.dst] == seq)
            regProducer[entry.op.dst] = 0;
        if (entry.op.cls == InstClass::Syscall) {
            if (blockedSyscallSeq == seq)
                blockedSyscallSeq = 0;
            kernel.syscall(entry.op);
        }
        kernel.onCommit(entry.op);
    }
    if (committed > 0) {
        issueQuiet = false;
        sink.add(sink.cycleMode(), CounterId::CommitCycles, 1,
                 sink.cycleTag());
    }
}

void
SuperscalarCpu::doWriteback()
{
    if (now < nextCompleteAt)
        return;
    // Only the first issueScanLimit positions can have issued: an
    // entry issues within them and its position only shrinks after.
    const std::uint64_t head = headSeq();
    const int span = std::min(windowCount, issueScanLimit);
    std::uint64_t next = ~std::uint64_t(0);
    for (int i = 0; i < span; ++i) {
        Entry &entry = slot(head + std::uint64_t(i));
        if (entry.state != EntryState::Issued)
            continue;
        if (entry.completeAt > now) {
            next = std::min(next, entry.completeAt);
            continue;
        }
        entry.state = EntryState::Completed;
        issueQuiet = false;
        if (entry.op.dst != noReg) {
            sink.add(entry.op.mode, CounterId::RegFileWrite, 1,
                     entry.op.frameTag);
            sink.add(entry.op.mode, CounterId::ResultBusOp, 1,
                     entry.op.frameTag);
        }
        if (entry.mispredicted &&
            fetchBlockedOnBranch == head + std::uint64_t(i)) {
            fetchBlockedOnBranch = 0;  // redirect resolved
        }
    }
    nextCompleteAt = next;
}

void
SuperscalarCpu::doIssue()
{
    if (issueQuiet)
        return;
    int issued = 0;
    int int_units = params.intAlus;
    int fp_units = params.fpAlus;
    int mem_ports = 2;
    const std::uint64_t head = headSeq();
    const int span = std::min(windowCount, issueScanLimit);

    // Oldest first over the first issueScanLimit window positions.
    for (int i = 0; i < span && issued < params.issueWidth; ++i) {
        Entry &entry = slot(head + std::uint64_t(i));
        if (entry.state != EntryState::Waiting)
            continue;
        if (!depSatisfied(entry.depA) || !depSatisfied(entry.depB))
            continue;

        const MicroOp &op = entry.op;
        switch (op.cls) {
          case InstClass::IntAlu:
          case InstClass::Branch:
            if (int_units == 0)
                continue;
            break;
          case InstClass::FpAlu:
            if (fp_units == 0)
                continue;
            break;
          case InstClass::Load:
          case InstClass::Store:
            if (mem_ports == 0)
                continue;
            break;
          default:
            break;
        }

        // Register file reads and wakeup/select on issue.
        int reads = (op.srcA != noReg) + (op.srcB != noReg);
        if (reads)
            sink.add(op.mode, CounterId::RegFileRead, reads,
                     op.frameTag);
        sink.add(op.mode, CounterId::IssueWindowOp, 1, op.frameTag);

        std::uint64_t latency = 1;
        switch (op.cls) {
          case InstClass::IntAlu:
            --int_units;
            sink.add(op.mode, CounterId::IntAluOp, 1, op.frameTag);
            break;
          case InstClass::Branch:
            --int_units;
            break;
          case InstClass::FpAlu:
            --fp_units;
            sink.add(op.mode, CounterId::FpAluOp, 1, op.frameTag);
            latency = fpLatency;
            break;
          case InstClass::Load:
          case InstClass::Store: {
            --mem_ports;
            sink.add(op.mode, CounterId::LsqOp, 1, op.frameTag);
            bool is_store = op.cls == InstClass::Store;
            MemAccessOutcome data = hierarchy.dataAccess(
                op.memAddr, is_store, op.mode, op.frameTag);
            sink.add(op.mode, is_store ? CounterId::StoreInsts
                                       : CounterId::LoadInsts,
                     1, op.frameTag);
            latency = is_store ? 1 : std::uint64_t(data.latency);
            break;
          }
          default:
            break;
        }

        entry.state = EntryState::Issued;
        entry.completeAt = now + latency;
        nextCompleteAt = std::min(nextCompleteAt, entry.completeAt);
        ++issued;
    }
    issueQuiet = issued == 0;
}

bool
SuperscalarCpu::doDispatch()
{
    int dispatched = 0;
    while (dispatched < params.decodeWidth && fetchCount > 0 &&
           windowCount < params.instWindowSize) {
        FetchedOp &head = fetchSlot(0);

        // Software-managed TLB: probe at dispatch (the effective
        // address is available). A miss is a precise exception: the
        // faulting instruction waits at dispatch until every older
        // instruction has committed, then traps — so the refill
        // handler runs unoverlapped, as on the R10000.
        if (head.op.isMemOp() && !head.tlbProbed) {
            head.tlbProbed = true;
            head.tlbMissed = !dataTlbLookup(head.op);
        }
        if (head.tlbMissed) {
            if (windowCount > 0)
                return false;  // hold at dispatch while older work drains
            std::vector<MicroOp> replay;
            replay.reserve(std::size_t(fetchCount));
            for (int i = 0; i < fetchCount; ++i)
                replay.push_back(fetchSlot(i).op);
            fetchCount = 0;
            if (blockedSyscallSeq == ~std::uint64_t(0))
                blockedSyscallSeq = 0;
            kernel.dataTlbMiss(head.op.memAddr, head.op.asid,
                               std::move(replay));
            return true;
        }

        const std::uint64_t seq = nextSeq++;
        Entry &entry = slot(seq);
        entry.op = head.op;
        entry.completeAt = 0;
        entry.state = EntryState::Waiting;
        entry.mispredicted = head.mispredicted;
        fetchHead = (fetchHead + 1) & (fetchQueueCap - 1);
        --fetchCount;
        ++windowCount;
        issueQuiet = false;

        const MicroOp &op = entry.op;
        if (entry.mispredicted && fetchBlockedOnBranch == 0)
            fetchBlockedOnBranch = seq;
        // Serialize: fetch stays blocked until this syscall commits.
        if (op.cls == InstClass::Syscall &&
            blockedSyscallSeq == ~std::uint64_t(0))
            blockedSyscallSeq = seq;

        entry.depA = op.srcA != noReg ? regProducer[op.srcA] : 0;
        entry.depB = op.srcB != noReg ? regProducer[op.srcB] : 0;
        if (op.dst != noReg)
            regProducer[op.dst] = seq;

        sink.add(op.mode, CounterId::RenameOp, 1, op.frameTag);
        sink.add(op.mode, CounterId::IssueWindowOp, 1,
                 op.frameTag);  // insert
        if (op.isMemOp())
            sink.add(op.mode, CounterId::LsqOp, 1, op.frameTag);  // allocate

        ++dispatched;
    }
    return false;
}

void
SuperscalarCpu::doFetch()
{
    if (now < fetchBusyUntil)
        return;
    if (fetchBlockedOnBranch != 0) {
        ++mispredStalls;
        return;
    }
    if (blockedSyscallSeq != 0 || sourceEnded)
        return;

    int fetched = 0;
    while (fetched < params.fetchWidth && fetchCount < fetchQueueCap) {
        MicroOp op;
        FetchOutcome outcome = kernel.fetchNext(op);
        if (outcome == FetchOutcome::End) {
            sourceEnded = true;
            return;
        }
        if (outcome == FetchOutcome::Stall)
            return;

        sink.add(op.mode, CounterId::FetchedInsts, 1, op.frameTag);
        MemAccessOutcome fetch_mem =
            hierarchy.ifetch(op.pc, op.mode, op.frameTag);

        FetchedOp &entry = fetchSlot(fetchCount);
        entry = FetchedOp{};
        entry.op = op;

        bool stop = false;
        if (fetch_mem.latency > 1) {
            // I-cache miss: fetch is blocked for the walk.
            fetchBusyUntil = now + std::uint64_t(fetch_mem.latency) - 1;
            stop = true;
        }

        if (op.isBranch()) {
            bool correct = bpred.predictAndTrain(op);
            if (!correct) {
                entry.mispredicted = true;
                stop = true;  // redirect once the branch resolves
            } else if (op.taken) {
                stop = true;  // fetch break at taken branch
            }
        }

        ++fetchCount;
        ++fetched;
        if (op.cls == InstClass::Syscall) {
            // Serialize: stop fetching until the syscall commits.
            blockedSyscallSeq = ~std::uint64_t(0);  // fixed at dispatch
            break;
        }
        if (stop)
            break;
    }
}

bool
SuperscalarCpu::cycle()
{
    ++now;
    ++totalCycles;

    // Cycle attribution: while the machine is architecturally in
    // kernel mode (trap taken, service not yet complete), cycles
    // belong to the kernel and to the active service invocation;
    // otherwise to the oldest instruction in flight.
    const MicroOp *oldest =
        windowCount > 0 ? &slot(headSeq()).op
                        : (fetchCount > 0 ? &fetchSlot(0).op : nullptr);
    std::uint32_t ptag = kernel.privilegedTag();
    if (ptag != 0 && oldest && oldest->mode != ExecMode::User &&
        oldest->mode != ExecMode::Idle) {
        // In kernel mode with kernel work at the commit point:
        // charge the active service invocation.
        sink.setCycleMode(oldest->mode, ptag);
    } else if (oldest) {
        sink.setCycleMode(oldest->mode, oldest->frameTag);
    } else {
        sink.setCycleMode(kernel.currentStreamMode(), 0);
    }
    sink.addCycle();

    if (kernel.interruptPending() && blockedSyscallSeq == 0)
        kernel.takeInterrupt(squashCollect());

    doCommit();
    doWriteback();
    doIssue();
    if (!doDispatch())
        doFetch();

    if (pipelineEmpty())
        kernel.onPipelineEmpty();

    return !(sourceEnded && pipelineEmpty());
}

} // namespace softwatt
