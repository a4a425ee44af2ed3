/**
 * @file
 * The MiniOS kernel: stream multiplexing between user program, kernel
 * services and the idle loop; software TLB-refill and page-fault
 * handling; the syscall layer over the filesystem and disk; periodic
 * clock interrupts; and per-invocation service energy accounting.
 */

#ifndef SOFTWATT_OS_KERNEL_HH
#define SOFTWATT_OS_KERNEL_HH

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "sim/checkpoint.hh"
#include "cpu/kernel_iface.hh"
#include "cpu/stream_gen.hh"
#include "disk/disk.hh"
#include "mem/hierarchy.hh"
#include "mem/page_table.hh"
#include "mem/tlb.hh"
#include "sim/counter_sink.hh"
#include "sim/event_queue.hh"
#include "sim/machine_params.hh"

#include "file_system.hh"
#include "power_meter.hh"
#include "service.hh"
#include "service_streams.hh"

namespace softwatt
{

/**
 * The operating system model.
 *
 * Runs *on* the simulated CPU: every kernel action is an instruction
 * stream executed by the timing model, tagged with its execution mode
 * and its service identity, which is what lets SoftWatt report
 * per-mode and per-service power (Tables 2-5, Figures 6 and 8).
 */
class Kernel : public KernelIface, public IoContext,
               public Checkpointable
{
  public:
    /**
     * Bounded-retry policy of the disk driver. A failed request is
     * retried after an exponentially growing backoff; each retry
     * runs the ErrorRecovery kernel service (instructions executed
     * and energy-attributed like any other service). When the
     * attempt budget is exhausted the driver gives up and records a
     * structured I/O failure instead of aborting the process.
     */
    struct DiskRetryPolicy
    {
        /** Total attempts per request, including the first. */
        int maxAttempts = 6;

        /** Delay before the first retry, paper-equivalent seconds. */
        double backoffSeconds = 0.02;

        /** Multiplier applied to the delay after each failure. */
        double backoffMultiplier = 2.0;

        /** Fatal on out-of-range values. */
        void validate(const char *context) const;
    };

    /** Diagnostics of a request the driver gave up on. */
    struct IoFailure
    {
        bool failed = false;
        std::uint64_t block = 0;
        std::uint32_t numBlocks = 0;
        int attempts = 0;
        DiskIoStatus lastStatus = DiskIoStatus::Ok;

        /** One-line human-readable description. */
        std::string describe() const;
    };

    /** Policy and modelling parameters. */
    struct Params
    {
        /** Fraction of TLB misses taking the slow tlb_miss path. */
        double tlbSlowPathProb = 0.01;

        /** Fraction of first touches raising an explicit vfault. */
        double vfaultProb = 0.40;

        /** Timer-interrupt period, paper-equivalent seconds. */
        double clockTickSeconds = 0.05;

        /** Time compression shared with the disk model. */
        double timeScale = 100.0;

        /** Buffer cache capacity in blocks. */
        std::size_t fileCacheBlocks = 2048;

        /**
         * Extension (paper conclusion): halt the processor instead
         * of busy-waiting in the idle process. Idle periods then
         * consume only clock-base and memory-background power.
         */
        bool haltOnIdle = false;

        std::uint64_t seed = 777;

        ServiceTuning tuning;

        DiskRetryPolicy diskRetry;
    };

    Kernel(EventQueue &queue, Tlb &tlb, CacheHierarchy &hierarchy,
           Disk &disk, const MachineParams &machine,
           const Params &params, CounterSink &sink);

    /** Attach the benchmark's user-mode instruction stream. */
    void setUserProgram(InstSource *program, std::uint32_t asid = 1);

    /**
     * Energy model hook: per-invocation service energy, split by
     * component, computed from the invocation's private counter bank
     * (set by the System to the PowerCalculator's model).
     */
    using EnergyFn =
        std::function<std::array<double, numComponents>(
            const CounterBank &)>;
    void setEnergyFn(EnergyFn fn);

    /**
     * Attach the machine's power meter (nullptr detaches). The
     * PowerRead syscall/service reads through it; without a meter
     * the service still runs but the reading stays invalid.
     */
    void setPowerMeter(const PowerMeter *m) { meter = m; }

    /**
     * Run one power-meter read in the kernel: snapshots the meter's
     * last reading and pushes a PowerRead service frame, so the read
     * is energy-attributed like any other kernel service. Called
     * from the PowerRead syscall and from window-boundary feedback
     * policies (the governor's decision work).
     */
    void pollPowerMeter();

    /** The reading captured by the most recent pollPowerMeter(). */
    const PowerReading &lastPowerReading() const
    {
        return lastPowerRead;
    }

    /** Begin periodic timer interrupts. */
    void startClock();

    // KernelIface.
    FetchOutcome fetchNext(MicroOp &op) override;
    void dataTlbMiss(Addr vaddr, std::uint32_t asid,
                     std::vector<MicroOp> replay) override;
    void syscall(const MicroOp &op) override;
    void onCommit(const MicroOp &op) override;
    bool interruptPending() const override;
    void takeInterrupt(std::vector<MicroOp> replay) override;
    void onPipelineEmpty() override;
    ExecMode currentStreamMode() const override;
    std::uint32_t privilegedTag() const override;

    /** Requeue squashed instructions (idle filler is dropped). */
    void requeue(std::vector<MicroOp> replay);

    // IoContext.
    FileSystem &fs() override { return fileSystem; }
    FileCache &fileCache() override { return bufferCache; }
    void requestDiskBlocks(std::uint64_t block,
                           std::uint32_t num_blocks,
                           std::function<void()> done) override;

    /** Has the benchmark's stream reported End? */
    bool workloadDone() const { return userDone; }

    /**
     * True when the machine is only executing the idle loop while
     * waiting for an external event — the idle fast-forward window.
     * Asked every cycle: the early outs are inline, the frame walk
     * is not.
     */
    bool
    idleWaiting() const
    {
        return !pendingClockInt && !stack.empty() && frameWaitingForIo();
    }

    /** Accounting for one service. */
    const ServiceStats &
    serviceStats(ServiceKind kind) const
    {
        return stats[int(kind)];
    }

    /** Sum of invocation cycles across all services. */
    std::uint64_t totalServiceCycles() const;

    PageTable &pageTable() { return pages; }
    const Params &params() const { return cfg; }

    std::uint64_t clockInterrupts() const { return numClockInts; }

    /** Disk faults seen by the driver (failed completions). */
    std::uint64_t diskFaults() const { return numDiskFaults; }

    /** Retries issued after failed completions. */
    std::uint64_t diskRetries() const { return numDiskRetries; }

    /** Requests abandoned after exhausting the attempt budget. */
    std::uint64_t diskGiveUps() const { return numDiskGiveUps; }

    /** True once any request has been abandoned. */
    bool ioFailed() const { return ioFailureInfo.failed; }

    /** Diagnostics of the first abandoned request. */
    const IoFailure &ioFailure() const { return ioFailureInfo; }

    /**
     * True when the kernel can be checkpointed: no service frames on
     * the stack. Frames hold closures (completion callbacks, blocked
     * I/O services, retry backoff timers) that cannot be serialized;
     * between invocations only plain data remains.
     */
    bool checkpointSafe() const { return stack.empty(); }

    // Checkpointable. A running clock tick is re-registered with its
    // original event id during loadState. The user program pointer is
    // not serialized: the caller re-attaches the (restored) workload
    // before loading kernel state.
    void saveState(ChunkWriter &out) const override;
    void loadState(ChunkReader &in) override;

  private:
    /** One suspended-or-active service invocation. */
    struct Frame
    {
        std::unique_ptr<InstSource> src;
        ServiceKind service = ServiceKind::Utlb;
        CounterBank bank;
        std::deque<MicroOp> replay;
        std::function<void()> onComplete;
        IoService *ioService = nullptr;  ///< For blocking queries.
        bool endPending = false;

        /** Invocation tag stamped on the frame's instructions. */
        std::uint32_t tag = 0;

        /** Instructions produced / retired; equal => can finalize. */
        std::uint64_t emitted = 0;
        std::uint64_t committed = 0;
    };

    EventQueue &queue;
    Tlb &tlb;
    CacheHierarchy &hierarchy;
    Disk &disk;
    MachineParams machine;  // ckpt:derived: fixed at construction
    Params cfg;             // ckpt:derived: fixed at construction
    CounterSink &sink;

    FileSystem fileSystem;
    FileCache bufferCache;
    PageTable pages;
    Random rng;

    // ckpt:derived: re-wired by attachUserProgram() after restore
    InstSource *userProgram = nullptr;
    std::uint32_t userAsid = 1;
    bool userDone = false;

    StreamGen idleStream;

    // ckpt:derived: checkpointSafe() forbids live service frames
    std::vector<std::unique_ptr<Frame>> stack;
    std::deque<MicroOp> baseReplay;

    EnergyFn energyFn;  // ckpt:derived: wired at construction
    std::array<ServiceStats, numServices> stats{};

    /** Machine power meter; not owned, not serialized. */
    const PowerMeter *meter = nullptr;  // ckpt:derived: re-attached

    /** Snapshot taken by the most recent pollPowerMeter(). */
    PowerReading lastPowerRead;

    bool pendingClockInt = false;
    bool clockRunning = false;
    std::uint64_t numClockInts = 0;

    /** Absolute fire tick and id of the pending clock-tick event. */
    Tick nextClockTick = 0;
    EventQueue::EventId clockEvent = 0;
    std::uint64_t serviceSeed = 1;
    std::uint32_t nextFrameTag = 1;

    std::uint64_t numDiskFaults = 0;
    std::uint64_t numDiskRetries = 0;
    std::uint64_t numDiskGiveUps = 0;
    IoFailure ioFailureInfo;

    void pushService(ServiceKind kind,
                     std::unique_ptr<InstSource> stream,
                     std::function<void()> on_complete,
                     IoService *io_service = nullptr);

    /**
     * Submit @p attempt of a request to the disk; on failure, run
     * the ErrorRecovery service and schedule the next attempt after
     * the policy's backoff, or record the give-up.
     */
    void submitDiskAttempt(std::uint64_t block,
                           std::uint32_t num_blocks,
                           std::function<void()> done, int attempt);

    /** Paper-equivalent seconds → event-queue ticks (min 1). */
    Tick ticksForEquivSeconds(double seconds) const;

    /** Record stats for a completed service and erase its frame. */
    void finalizeService(std::size_t index, bool force = false);

    /** Finalize if the frame has ended and all its ops committed. */
    void maybeFinalize(std::size_t index);

    /** First frame (from the top) still producing instructions. */
    Frame *activeFrame() const;

    /** The active frame is an I/O service blocked on the disk. */
    bool frameWaitingForIo() const;

    /** Attach squashed ops (minus idle) for replay at this level. */
    void stashReplay(std::vector<MicroOp> replay);

    void scheduleClockTick();

    /** Body of the periodic timer event (named so a restored
     *  checkpoint can re-register the event). */
    void onClockTick();
};

} // namespace softwatt

#endif // SOFTWATT_OS_KERNEL_HH
