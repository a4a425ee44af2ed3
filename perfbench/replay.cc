/**
 * @file
 * Layer replay: per-call host cost of each layer's public functions,
 * fed the op and address stream of the workload's own benchmarks.
 *
 * The benchmark's instruction stream is drawn through Workload::next
 * (timed over the whole stream), and a sample of it spread evenly
 * over the run is captured. The captured ops then drive both CPU
 * models, the TLB, an L1 cache and the cache hierarchy; the
 * benchmark's own read syscalls drive the disk; and the reference
 * run's event density and kernel-service mix shape the event-queue
 * and service-stream replays.
 */

#include <algorithm>
#include <deque>

#include "cpu/inorder_cpu.hh"
#include "cpu/stream_gen.hh"
#include "cpu/superscalar_cpu.hh"
#include "disk/disk.hh"
#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/tlb.hh"
#include "os/file_system.hh"
#include "os/service_streams.hh"
#include "os/syscalls.hh"
#include "sim/counter_sink.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "workload/workload.hh"

#include "bench.hh"

using namespace softwatt;

namespace perfbench
{

namespace
{

/** Ops captured from a stream for the CPU and memory replays. */
constexpr std::size_t kCaptureOps = 1 << 17;
constexpr std::size_t kCaptureBlock = 4096;

/** Minimum host time per replay measurement, seconds. */
constexpr double kMinReplayS = 0.1;

/** The benchmark's stream, as far as the replays need it. */
struct StreamSample
{
    std::vector<MicroOp> ops;
    std::vector<MicroOp> memOps;

    /** Disk requests of the stream's read syscalls: block, count. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> reads;

    std::uint64_t totalOps = 0;
    double nextNs = 0;
};

/**
 * Repeat @p lap (which returns the number of calls it made) until at
 * least three laps and kMinReplayS have passed; ns per call, median
 * over laps.
 */
template <class Lap>
double
perCallNs(Lap &&lap)
{
    std::vector<double> laps;
    auto begin = Clock::now();
    while (laps.size() < 3 ||
           (secondsSince(begin) < kMinReplayS && laps.size() < 1000)) {
        auto start = Clock::now();
        std::uint64_t calls = lap();
        double s = secondsSince(start);
        laps.push_back(calls ? s * 1e9 / double(calls) : 0.0);
    }
    return median(laps);
}

StreamSample
sampleStream(const WorkloadSpec &spec, Tracer &tracer,
             const std::string &label)
{
    StreamSample sample;
    MicroOp op;
    {
        auto span = tracer.span("workload", "Workload::next", label);
        FileSystem fs;
        Workload wl(spec);
        wl.registerFiles(fs);
        auto start = Clock::now();
        std::uint64_t ops = 0;
        for (FetchOutcome r; (r = wl.next(op)) != FetchOutcome::End;) {
            if (r == FetchOutcome::Op)
                ++ops;
        }
        double s = secondsSince(start);
        sample.totalOps = ops;
        sample.nextNs = ops ? s * 1e9 / double(ops) : 0.0;
    }

    // Second pass: keep evenly spaced blocks of consecutive ops, and
    // every read syscall as a disk request.
    std::uint64_t blocks = sample.totalOps / kCaptureBlock + 1;
    std::uint64_t stride =
        std::max<std::uint64_t>(1, blocks / (kCaptureOps / kCaptureBlock));
    FileSystem fs;
    Workload wl(spec);
    wl.registerFiles(fs);
    std::uint64_t index = 0;
    const std::uint64_t block_bytes = std::uint64_t(fs.blockBytes());
    for (FetchOutcome r; (r = wl.next(op)) != FetchOutcome::End;) {
        if (r != FetchOutcome::Op)
            continue;
        if ((index++ / kCaptureBlock) % stride == 0 &&
            sample.ops.size() < kCaptureOps) {
            if (!op.kernelMapped && op.asid == 0)
                op.asid = 1;
            sample.ops.push_back(op);
            if (op.isMemOp())
                sample.memOps.push_back(op);
        }
        if (op.cls == InstClass::Syscall &&
            op.syscallId == std::uint16_t(SyscallId::Read)) {
            const FileInfo &file = fs.info(ioArgFileId(op.syscallArg));
            std::uint64_t offset = ioArgOffset(op.syscallArg);
            std::uint64_t bytes = ioArgBytes(op.syscallArg);
            std::uint64_t first = offset / block_bytes;
            std::uint64_t last = (offset + bytes + block_bytes - 1) /
                                 block_bytes;
            sample.reads.emplace_back(
                file.firstBlock + first,
                std::uint32_t(std::max<std::uint64_t>(1, last - first)));
        }
    }
    return sample;
}

/**
 * Serves a captured op sequence round and round to a CPU model,
 * refilling the TLB and replaying squashed ops like the kernel does.
 */
class ReplayKernel : public KernelIface
{
  public:
    ReplayKernel(const std::vector<MicroOp> &ops, Tlb &tlb)
        : ops(ops), tlb(tlb)
    {}

    std::uint64_t served = 0;

    FetchOutcome
    fetchNext(MicroOp &op) override
    {
        if (!replay.empty()) {
            op = replay.front();
            replay.pop_front();
            return FetchOutcome::Op;
        }
        op = ops[next];
        next = (next + 1) % ops.size();
        ++served;
        return FetchOutcome::Op;
    }

    void
    dataTlbMiss(Addr vaddr, std::uint32_t asid,
                std::vector<MicroOp> squashed) override
    {
        tlb.insert(asid, vaddr);
        requeue(std::move(squashed));
    }

    void syscall(const MicroOp &) override {}
    void onCommit(const MicroOp &) override {}
    bool interruptPending() const override { return false; }

    void
    takeInterrupt(std::vector<MicroOp> squashed) override
    {
        requeue(std::move(squashed));
    }

    void onPipelineEmpty() override {}
    ExecMode currentStreamMode() const override { return ExecMode::User; }
    std::uint32_t privilegedTag() const override { return 0; }

  private:
    const std::vector<MicroOp> &ops;
    Tlb &tlb;
    std::size_t next = 0;
    std::deque<MicroOp> replay;

    void
    requeue(std::vector<MicroOp> squashed)
    {
        for (auto it = squashed.rbegin(); it != squashed.rend(); ++it)
            replay.push_front(*it);
    }
};

/** ns per cycle of CPU model @p CpuT over laps of the captured ops. */
template <class CpuT>
double
cycleNs(const MachineParams &machine, const std::vector<MicroOp> &ops)
{
    CounterSink sink;
    CacheHierarchy hierarchy(machine, sink);
    Tlb tlb(machine.tlbEntries);
    ReplayKernel kernel(ops, tlb);
    CpuT cpu(machine, hierarchy, tlb, sink, kernel);
    // One untimed lap warms the caches, TLB and predictor.
    while (kernel.served < ops.size())
        cpu.cycle();
    return perCallNs([&] {
        std::uint64_t target = kernel.served + ops.size();
        std::uint64_t cycles = 0;
        while (kernel.served < target) {
            cpu.cycle();
            ++cycles;
        }
        return cycles;
    });
}

} // namespace

ReplayCosts
replayLayers(const BenchRun &run, std::uint64_t seed,
             const System &reference, Tracer &tracer)
{
    const std::string label = run.label();
    const MachineParams &machine = run.config.machine;
    const WorkloadSpec spec = seededSpec(run, seed);
    ReplayCosts costs;

    StreamSample sample = sampleStream(spec, tracer, label);
    costs.workloadOps = sample.totalOps;
    costs.workloadNextNs = sample.nextNs;
    const std::vector<MicroOp> &ops = sample.ops;
    const std::vector<MicroOp> &mem_ops = sample.memOps;

    {
        auto span = tracer.span("cpu", "StreamGen::next", label);
        StreamGen gen(spec.mainSpec, spec.seed);
        MicroOp op;
        costs.streamgenOpNs = perCallNs([&] {
            for (std::size_t i = 0; i < kCaptureOps; ++i)
                gen.next(op);
            return std::uint64_t(kCaptureOps);
        });
    }
    {
        auto span = tracer.span("cpu", "SuperscalarCpu::cycle", label);
        costs.oooCycleNs = cycleNs<SuperscalarCpu>(machine, ops);
    }
    {
        auto span = tracer.span("cpu", "InOrderCpu::cycle", label);
        costs.inorderCycleNs = cycleNs<InOrderCpu>(machine, ops);
    }
    {
        auto span = tracer.span("mem", "Tlb::lookup", label);
        Tlb tlb(machine.tlbEntries);
        costs.tlbLookupNs = perCallNs([&] {
            for (const MicroOp &op : mem_ops) {
                if (!tlb.lookup(op.asid, op.memAddr))
                    tlb.insert(op.asid, op.memAddr);
            }
            return std::uint64_t(mem_ops.size());
        });
    }
    {
        auto span = tracer.span("mem", "Cache::access", label);
        Cache cache("l1d", machine.dcache);
        costs.cacheAccessNs = perCallNs([&] {
            for (const MicroOp &op : mem_ops)
                cache.access(op.memAddr, op.cls == InstClass::Store);
            return std::uint64_t(mem_ops.size());
        });
    }
    {
        CounterSink sink;
        CacheHierarchy hierarchy(machine, sink);
        {
            auto span =
                tracer.span("mem", "CacheHierarchy::ifetch", label);
            costs.ifetchNs = perCallNs([&] {
                for (const MicroOp &op : ops)
                    hierarchy.ifetch(op.pc, op.mode);
                return std::uint64_t(ops.size());
            });
        }
        {
            auto span =
                tracer.span("mem", "CacheHierarchy::dataAccess", label);
            costs.dataAccessNs = perCallNs([&] {
                for (const MicroOp &op : mem_ops)
                    hierarchy.dataAccess(op.memAddr,
                                         op.cls == InstClass::Store,
                                         op.mode);
                return std::uint64_t(mem_ops.size());
            });
        }
    }
    {
        auto span = tracer.span("disk", "Disk::submit", label);
        if (sample.reads.empty())
            sample.reads.emplace_back(0, 1);
        EventQueue queue;
        Disk disk(queue, double(machine.cyclesPerSecond()),
                  run.config.diskConfig, run.config.timeScale,
                  deriveSeed(12345, seed));
        costs.diskRequestUs = perCallNs([&] {
                                  for (const auto &[block, count] :
                                       sample.reads) {
                                      bool done = false;
                                      disk.submit(block, count,
                                                  [&](DiskIoStatus) {
                                                      done = true;
                                                  });
                                      while (!done)
                                          queue.advanceTo(
                                              queue.nextEventTick());
                                  }
                                  return std::uint64_t(
                                      sample.reads.size());
                              }) /
                              1e3;
    }
    {
        auto span = tracer.span("sim", "EventQueue::advanceTo", label);
        std::uint64_t events =
            std::max<std::uint64_t>(1, reference.eventQueue().eventsExecuted());
        std::uint64_t gap = std::max<std::uint64_t>(
            1, std::uint64_t(reference.now()) / events);
        EventQueue queue;
        Random rng(deriveSeed(0xe7e7, seed));
        std::uint64_t fired = 0;
        costs.eventNs = perCallNs([&] {
            constexpr std::uint64_t kEvents = 100'000;
            for (std::uint64_t i = 0; i < kEvents; ++i) {
                queue.scheduleIn(1 + rng.below(2 * gap),
                                 [&fired] { ++fired; });
                queue.advanceTo(queue.nextEventTick());
            }
            return kEvents;
        });
    }
    {
        // The reference run's fixed-length kernel services, in its
        // invocation mix (read/write are disk-driven, not replayed).
        auto span = tracer.span("os", "makeFixedService", label);
        const ServiceTuning &tuning =
            reference.kernel().params().tuning;
        std::vector<std::pair<ServiceKind, std::uint64_t>> mix;
        std::uint64_t total = 0;
        for (int k = 0; k < numServices; ++k) {
            ServiceKind kind = ServiceKind(k);
            if (kind == ServiceKind::Read || kind == ServiceKind::Write)
                continue;
            std::uint64_t n =
                reference.kernel().serviceStats(kind).invocations;
            if (n) {
                mix.emplace_back(kind, n);
                total += n;
            }
        }
        constexpr std::uint64_t kInvocations = 2000;
        std::uint64_t stream_seed = deriveSeed(0x05, seed);
        MicroOp op;
        if (total) {
            costs.serviceOpNs = perCallNs([&] {
                std::uint64_t emitted = 0;
                for (const auto &[kind, n] : mix) {
                    std::uint64_t calls = std::max<std::uint64_t>(
                        1, n * kInvocations / total);
                    for (std::uint64_t i = 0; i < calls; ++i) {
                        auto stream = makeFixedService(kind, tuning,
                                                       ++stream_seed);
                        while (stream->next(op) == FetchOutcome::Op)
                            ++emitted;
                    }
                }
                return emitted;
            });
        }
    }
    return costs;
}

} // namespace perfbench
