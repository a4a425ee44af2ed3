/**
 * @file
 * The softwatt-serve daemon core: a crash-tolerant simulation
 * service accepting experiment specs over a local unix socket
 * (newline-delimited JSON, see protocol.hh) and answering each with
 * a complete softwatt-experiment-v2 document.
 *
 * Robustness properties (DESIGN.md §4j):
 *  - Bounded admission with client-fair round-robin scheduling and a
 *    structured `overloaded` rejection once the queue is full.
 *  - Per-job wall and simulated deadlines, cooperative cancellation.
 *  - One cold diagnostic rerun of a run that failed behind the
 *    exception firewall, with the invariant sweeps forced on.
 *  - Graceful drain: the first SIGTERM/SIGINT/SIGHUP (bridged to a
 *    CancelToken by the caller's SignalGuard) stops admissions and
 *    finishes admitted + in-flight work; a second signal cancels
 *    queued jobs and hard-stops in-flight ones at their next sample
 *    window.
 *  - Crash recovery: finished runs are journaled (append-only across
 *    daemon generations), so a SIGKILL'd daemon re-answers finished
 *    jobs byte-identically from the journal.
 *  - Resume: each executing job autosaves (at serve_warm_s=) to one
 *    file named by its run fingerprint, removed once the answer is
 *    journaled; a job cancelled or killed mid-flight leaves it, and
 *    the next submission of the same spec continues from it. At most
 *    one job per run fingerprint executes at a time.
 */

#ifndef SOFTWATT_SERVE_SERVER_HH
#define SOFTWATT_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hh"
#include "core/runner.hh"
#include "sim/thread_pool.hh"

#include "admission.hh"
#include "protocol.hh"
#include "session.hh"

namespace softwatt::serve
{

/** Service configuration (see EXPERIMENTS.md for the key reference). */
struct ServeOptions
{
    /** serve_socket=: unix socket path the daemon listens on. */
    std::string socketPath;

    /** serve_state=: directory for the journal and run autosaves. */
    std::string statePath;

    /** serve_jobs=: worker threads executing runs. */
    int jobs = 2;

    /** serve_queue_max=: admission bound; 0 = unbounded. */
    std::size_t queueMax = 64;

    /**
     * serve_warm_s=: autosave cadence in simulated seconds; 0 off.
     * Folded into every job's RunSpec::checkpointEveryS before its
     * run fingerprint is taken, so answers and autosaves computed at
     * one cadence are never reused at another.
     */
    double warmS = 0.0;

    /** serve_wall_timeout_s=: default per-job wall budget; 0 none. */
    double wallTimeoutS = 0.0;

    /**
     * durability=: barrier discipline for the answer journal and
     * the run autosaves. Buffered (default) survives SIGKILL; full
     * also survives a power cut (fdatasync per journal append,
     * fsync'd rename chains).
     */
    Durability durability = Durability::Buffered;

    /**
     * The autosave file of the run whose specFingerprint() is
     * @p runFingerprint: <serve_state>/ckpt/<fingerprint>.ckpt, a
     * two-generation checkpoint file (sim/checkpoint.hh).
     */
    std::string checkpointPath(const std::string &runFingerprint) const;

    /**
     * Read and range-check every serve_* key; fatal() on nonsense
     * (missing socket/state paths, negative budgets).
     */
    static ServeOptions fromConfig(const Config &args);
};

/**
 * The daemon. Lifecycle: construct, start() (bind + recover state),
 * serveUntil(token) (blocks until the token drains the service).
 * The caller owns signal wiring — the daemon binary bridges
 * SIGINT/SIGTERM/SIGHUP via SignalGuard; tests drive the token
 * directly.
 */
class ServeServer
{
  public:
    explicit ServeServer(ServeOptions options);
    ~ServeServer();

    ServeServer(const ServeServer &) = delete;
    ServeServer &operator=(const ServeServer &) = delete;

    /**
     * Create the state directory, open the journal (append mode —
     * answers accumulate across daemon generations), load journaled
     * answers, delete any autosave a killed daemon left for a run
     * whose answer is journaled, bind the socket, and start the
     * worker pool. @return false with @p error on failure.
     */
    bool start(std::string &error);

    /**
     * Accept and serve until @p token reports cancellation and all
     * admitted work has finished (Drain) or been cancelled (Hard).
     * Installs the throwing error handler for its duration.
     */
    void serveUntil(CancelToken &token);

    const ServeOptions &options() const { return opts; }
    std::string journalPath() const;

    // Service counters (tests and the drain log line).
    std::uint64_t executedJobs() const { return executed.load(); }
    std::uint64_t journalHits() const { return journalHit.load(); }
    std::uint64_t shedJobs() const { return shed.load(); }
    std::uint64_t warmStartedJobs() const { return warmStarted.load(); }

    /**
     * Sessions currently tracked, after reaping finished ones —
     * bounded by the live client count, not the accept history.
     */
    std::size_t sessionCount();

  private:
    /** One admitted run request. */
    struct Job
    {
        ServeRequest request;
        RunSpec spec;
        std::string benchName;
        std::string fingerprint;  ///< specFingerprint(spec), the run key
        std::string identity;     ///< journal answer key
        CancelToken cancel;
        std::shared_ptr<Session> session;
        bool hasDeadline = false;
        std::chrono::steady_clock::time_point deadline;
    };
    using JobPtr = std::shared_ptr<Job>;

    /** A journaled answer, replayable byte-identically. */
    struct Answer
    {
        std::string runJson;
        int attempts = 1;
        std::string outcome;
    };

    void sessionLoop(std::shared_ptr<Session> session);
    void handleRun(const std::shared_ptr<Session> &session,
                   ServeRequest request);
    void handleCancel(const std::shared_ptr<Session> &session,
                      const ServeRequest &request);
    void dispatchLoop();
    void deadlineLoop();
    void executeJob(const JobPtr &job);

    /**
     * Fill @p response from the answer journaled for @p job's
     * identity. @return false when there is none.
     */
    bool answerFromJournal(const Job &job, ServeResponse &response);

    /**
     * Wait until no other job with @p job's run fingerprint is
     * executing, then mark it executing. @return false (nothing
     * marked) when @p job is cancelled while it waits.
     */
    bool claimRun(const Job &job);
    void releaseRun(const Job &job);
    void respond(const std::shared_ptr<Session> &session,
                 const ServeResponse &response);

    /** Assemble the one-run experiment document for a response. */
    std::string renderDocument(const std::string &experiment,
                               const std::string &runJson) const;

    static std::string liveKey(const std::string &client,
                               const std::string &id);
    void eraseLive(const JobPtr &job);

    /** Join and drop every session whose reader thread has exited. */
    void reapSessionsLocked();

    ServeOptions opts;
    int listenFd = -1;
    RunJournal journal;
    AdmissionQueue<JobPtr> queue;
    std::unique_ptr<ThreadPool> workers;

    const CancelToken *stopToken = nullptr;

    std::mutex answersMutex;
    std::map<std::string, Answer> answers;

    std::mutex liveMutex;
    std::map<std::string, JobPtr> live;

    std::mutex slotMutex;
    std::condition_variable slotFree;

    /** Run fingerprints with a job executing (see claimRun). */
    std::mutex runningMutex;
    std::condition_variable runFinished;
    std::set<std::string> running;

    /**
     * One accepted connection: its session, its reader thread, and
     * the flag the thread raises on exit so the accept loop can join
     * it. A long-lived daemon serves many short-lived clients;
     * finished workers are reaped on every accept, not hoarded until
     * shutdown.
     */
    struct SessionWorker
    {
        std::shared_ptr<Session> session;
        std::shared_ptr<std::atomic<bool>> done;
        std::thread thread;
    };

    std::mutex sessionsMutex;
    std::vector<SessionWorker> sessionWorkers;

    std::atomic<bool> stopDeadline{false};
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> journalHit{0};
    std::atomic<std::uint64_t> shed{0};
    std::atomic<std::uint64_t> warmStarted{0};
};

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_SERVER_HH
