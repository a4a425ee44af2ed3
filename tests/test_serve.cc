/**
 * @file
 * Coverage for the softwatt-serve service layer (DESIGN.md §4j):
 * admission queue fairness and shedding, the wire protocol, the
 * journal's cross-generation read path under adversarial truncation,
 * spec parsing, session I/O against dead peers, the executor's
 * diagnostic rerun, and an in-process end-to-end daemon driven
 * through ServeClient: journal replay across a simulated restart, a
 * cancelled run resumed from its own autosave (it must skip what the
 * cancelled submission ran and still produce a byte-identical
 * document), answers that match their cold references across CPU
 * models and deadlines, and one execution per run fingerprint.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/journal.hh"
#include "core/runner.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/logging.hh"

#include "serve/admission.hh"
#include "serve/client.hh"
#include "serve/executor.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/session.hh"

namespace fs = std::filesystem;

using softwatt::CancelToken;
using softwatt::Config;
using softwatt::JournalEntry;
using softwatt::RunJournal;
using softwatt::RunSpec;
using softwatt::ScopedErrorHandler;
using softwatt::SimError;
using softwatt::throwingErrorHandler;

using softwatt::serve::AdmissionQueue;
using softwatt::serve::executeServeSpec;
using softwatt::serve::parseServeRequest;
using softwatt::serve::parseServeResponse;
using softwatt::serve::parseServeSpec;
using softwatt::serve::renderServeRequest;
using softwatt::serve::renderServeResponse;
using softwatt::serve::ServeClient;
using softwatt::serve::ServeExecResult;
using softwatt::serve::ServeOptions;
using softwatt::serve::ServeRequest;
using softwatt::serve::ServeResponse;
using softwatt::serve::ServeServer;
using softwatt::serve::Session;

namespace
{

/** Per-test scratch directory, removed on teardown. */
class ServeDirTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir = (fs::temp_directory_path() /
               ("softwatt-serve-" + std::to_string(getpid()) + "-" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name()))
                  .string();
        fs::remove_all(dir);
        fs::create_directories(dir);
    }

    void TearDown() override { fs::remove_all(dir); }

    std::string dir;
};

JournalEntry
makeEntry(const std::string &bench, const std::string &config,
          int attempts, const std::string &body)
{
    JournalEntry entry;
    entry.experiment = "serve";
    entry.bench = bench;
    entry.variant = "";
    entry.config = config;
    entry.outcome = "completed";
    entry.attempts = attempts;
    entry.runJson = body;
    return entry;
}

} // namespace

// ---------------------------------------------------------------
// AdmissionQueue

TEST(ServeAdmission, RoundRobinsAcrossClients)
{
    AdmissionQueue<int> queue(0);
    ASSERT_EQ(queue.push("a", 1), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("a", 2), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("a", 3), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("b", 10), AdmissionQueue<int>::Admit::Admitted);
    ASSERT_EQ(queue.push("c", 20), AdmissionQueue<int>::Admit::Admitted);

    // One job from each client in turn; a's backlog only drains once
    // b and c got their slot.
    std::vector<int> order;
    int item = 0;
    for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(queue.pop(item));
        order.push_back(item);
    }
    EXPECT_EQ(order, (std::vector<int>{1, 10, 20, 2, 3}));
    EXPECT_EQ(queue.size(), 0u);
}

TEST(ServeAdmission, ShedsAtTheBoundAndRecovers)
{
    AdmissionQueue<int> queue(2);
    EXPECT_EQ(queue.push("a", 1), AdmissionQueue<int>::Admit::Admitted);
    EXPECT_EQ(queue.push("b", 2), AdmissionQueue<int>::Admit::Admitted);
    EXPECT_EQ(queue.push("c", 3), AdmissionQueue<int>::Admit::Shed);

    int item = 0;
    ASSERT_TRUE(queue.pop(item));
    EXPECT_EQ(queue.push("c", 3), AdmissionQueue<int>::Admit::Admitted);
}

TEST(ServeAdmission, CloseDrainsBacklogThenUnblocks)
{
    AdmissionQueue<int> queue(0);
    queue.push("a", 1);
    queue.close();
    EXPECT_EQ(queue.push("a", 2), AdmissionQueue<int>::Admit::Closed);
    EXPECT_TRUE(queue.closed());

    int item = 0;
    ASSERT_TRUE(queue.pop(item));
    EXPECT_EQ(item, 1);
    EXPECT_FALSE(queue.pop(item));
}

TEST(ServeAdmission, DrainReturnsRoundRobinOrder)
{
    AdmissionQueue<int> queue(0);
    queue.push("a", 1);
    queue.push("a", 2);
    queue.push("b", 10);
    std::vector<int> dropped = queue.drain();
    EXPECT_EQ(dropped, (std::vector<int>{1, 10, 2}));
    EXPECT_EQ(queue.size(), 0u);
}

// ---------------------------------------------------------------
// Wire protocol

TEST(ServeProtocol, RequestRoundTrips)
{
    ServeRequest request;
    request.op = "run";
    request.id = "job-7";
    request.client = "sweeper \"alpha\"";
    request.experiment = "fig5";
    request.spec = "bench=gcc scale=0.25 variant=x\ty";
    request.wallMs = 12345;

    ServeRequest parsed;
    std::string error;
    ASSERT_TRUE(
        parseServeRequest(renderServeRequest(request), parsed, error))
        << error;
    EXPECT_EQ(parsed.op, request.op);
    EXPECT_EQ(parsed.id, request.id);
    EXPECT_EQ(parsed.client, request.client);
    EXPECT_EQ(parsed.experiment, request.experiment);
    EXPECT_EQ(parsed.spec, request.spec);
    EXPECT_EQ(parsed.wallMs, request.wallMs);
}

TEST(ServeProtocol, ResponseRoundTrips)
{
    ServeResponse response;
    response.id = "job-7";
    response.status = "ok";
    response.error = "";
    response.servedFrom = "journal";
    response.warmStart = true;
    response.warmStartTick = 531369;
    response.ticksExecuted = 4329;
    response.attempts = 2;
    response.document = "{\n  \"schema\": \"x\"\n}\n";

    ServeResponse parsed;
    std::string error;
    ASSERT_TRUE(parseServeResponse(renderServeResponse(response),
                                   parsed, error))
        << error;
    EXPECT_EQ(parsed.id, response.id);
    EXPECT_EQ(parsed.status, response.status);
    EXPECT_EQ(parsed.servedFrom, response.servedFrom);
    EXPECT_TRUE(parsed.warmStart);
    EXPECT_EQ(parsed.warmStartTick, response.warmStartTick);
    EXPECT_EQ(parsed.ticksExecuted, response.ticksExecuted);
    EXPECT_EQ(parsed.attempts, response.attempts);
    EXPECT_EQ(parsed.document, response.document);
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    ServeRequest parsed;
    std::string error;

    // Not this protocol at all.
    EXPECT_FALSE(parseServeRequest("", parsed, error));
    EXPECT_FALSE(parseServeRequest("garbage", parsed, error));
    EXPECT_FALSE(parseServeRequest(
        "{\"schema\":\"softwatt-journal-v1\"}", parsed, error));

    ServeRequest request;
    request.id = "j";
    request.client = "c";
    request.spec = "bench=jess";

    // Unknown op.
    request.op = "frobnicate";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos);
    request.op = "run";

    // Missing id / client / spec.
    request.id = "";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));
    request.id = "j";
    request.client = "";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));
    request.client = "c";
    request.spec = "";
    EXPECT_FALSE(
        parseServeRequest(renderServeRequest(request), parsed, error));

    // A cancel needs no spec.
    request.op = "cancel";
    EXPECT_TRUE(
        parseServeRequest(renderServeRequest(request), parsed, error))
        << error;
}

// ---------------------------------------------------------------
// Journal: the cross-generation read path (loadLatest) under the
// truncation and duplication patterns a SIGKILL'd daemon produces.

TEST_F(ServeDirTest, JournalSkipsTornFinalLine)
{
    std::string path = dir + "/serve.journal.jsonl";
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, true));
        journal.append(makeEntry("jess", "aaaa", 1, "{one}"));
        journal.append(makeEntry("gcc", "bbbb", 1, "{two}"));
    }
    // Tear the last line mid-record, as a crash mid-append would.
    std::uintmax_t size = fs::file_size(path);
    fs::resize_file(path, size - 9);

    std::vector<JournalEntry> entries = RunJournal::loadLatest(path);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].bench, "jess");
    EXPECT_EQ(entries[0].runJson, "{one}");
}

TEST_F(ServeDirTest, JournalLastDuplicateWins)
{
    std::string path = dir + "/serve.journal.jsonl";
    {
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, true));
        journal.append(makeEntry("jess", "aaaa", 1, "{stale}"));
        journal.append(makeEntry("gcc", "bbbb", 1, "{other}"));
        journal.append(makeEntry("jess", "aaaa", 2, "{fresh}"));
    }
    std::vector<JournalEntry> entries = RunJournal::loadLatest(path);
    ASSERT_EQ(entries.size(), 2u);
    // Keys keep first-seen order; the duplicate's payload is the
    // last (final retry) occurrence.
    EXPECT_EQ(entries[0].bench, "jess");
    EXPECT_EQ(entries[0].attempts, 2);
    EXPECT_EQ(entries[0].runJson, "{fresh}");
    EXPECT_EQ(entries[1].bench, "gcc");
}

TEST_F(ServeDirTest, JournalInterleavesDaemonGenerations)
{
    std::string path = dir + "/serve.journal.jsonl";
    {
        // Generation 1 answers two jobs, then is SIGKILL'd.
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, true));
        journal.append(makeEntry("jess", "aaaa", 1, "{gen1-jess}"));
        journal.append(makeEntry("gcc", "bbbb", 1, "{gen1-gcc}"));
    }
    {
        // Generation 2 opens in append mode (truncate=false), re-runs
        // one job and answers a new one.
        RunJournal journal;
        ASSERT_TRUE(journal.open(path, false));
        journal.append(makeEntry("gcc", "bbbb", 2, "{gen2-gcc}"));
        journal.append(makeEntry("perl", "cccc", 1, "{gen2-perl}"));
    }
    std::vector<JournalEntry> entries = RunJournal::loadLatest(path);
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0].runJson, "{gen1-jess}");
    EXPECT_EQ(entries[1].runJson, "{gen2-gcc}");
    EXPECT_EQ(entries[1].attempts, 2);
    EXPECT_EQ(entries[2].runJson, "{gen2-perl}");
}

TEST_F(ServeDirTest, JournalMissingFileYieldsNoEntries)
{
    EXPECT_TRUE(
        RunJournal::loadLatest(dir + "/absent.jsonl").empty());
}

// ---------------------------------------------------------------
// Spec parsing and service options

TEST(ServeSpec, ParsesRunKeysAndMachineKeys)
{
    RunSpec spec;
    std::string bench, error;
    ASSERT_TRUE(parseServeSpec(
        "bench=db scale=0.25 variant=base deadline_s=2 grace_s=1 "
        "tech.mhz=400",
        spec, bench, error))
        << error;
    EXPECT_EQ(bench, "db");
    EXPECT_EQ(spec.variant, "base");
    EXPECT_DOUBLE_EQ(spec.scale, 0.25);
    EXPECT_DOUBLE_EQ(spec.config.deadlineSeconds, 2.0);
    EXPECT_DOUBLE_EQ(spec.config.shutdownGraceSeconds, 1.0);
    EXPECT_DOUBLE_EQ(spec.config.machine.freqMhz, 400.0);
}

TEST(ServeSpec, RejectsBadSpecsWithoutTerminating)
{
    RunSpec spec;
    std::string bench, error;

    EXPECT_FALSE(parseServeSpec("notakv", spec, bench, error));
    EXPECT_NE(error.find("notakv"), std::string::npos);

    EXPECT_FALSE(
        parseServeSpec("bench=nosuch", spec, bench, error));

    EXPECT_FALSE(
        parseServeSpec("bench=jess scale=0", spec, bench, error));

    EXPECT_FALSE(parseServeSpec("bench=jess bogus_key=1", spec,
                                bench, error));
    EXPECT_NE(error.find("bogus_key"), std::string::npos);
}

TEST(ServeSpec, UsesTheCallersInstalledHandler)
{
    // With a handler already installed (as in the daemon, for its
    // whole lifetime), parsing must not swap the process-global
    // handler — session threads would race each other doing so. The
    // caller's handler observing the error proves it stayed put.
    int calls = 0;
    ScopedErrorHandler firewall(
        [&calls](softwatt::ErrorKind, const std::string &) {
            ++calls;
        });
    RunSpec spec;
    std::string bench, error;
    EXPECT_FALSE(parseServeSpec("notakv", spec, bench, error));
    EXPECT_EQ(calls, 1);
    EXPECT_NE(error.find("notakv"), std::string::npos);
}

TEST(ServeSpec, OptionsValidateRanges)
{
    ScopedErrorHandler firewall(throwingErrorHandler);

    Config good;
    good.parseAssignment("serve_socket=/tmp/x.sock");
    good.parseAssignment("serve_state=/tmp/x.state");
    good.parseAssignment("serve_jobs=4");
    good.parseAssignment("serve_queue_max=8");
    good.parseAssignment("serve_warm_s=0.5");
    ServeOptions options = ServeOptions::fromConfig(good);
    EXPECT_EQ(options.jobs, 4);
    EXPECT_EQ(options.queueMax, 8u);
    EXPECT_DOUBLE_EQ(options.warmS, 0.5);

    Config missingSocket;
    missingSocket.parseAssignment("serve_state=/tmp/x.state");
    EXPECT_THROW(ServeOptions::fromConfig(missingSocket), SimError);

    Config badJobs;
    badJobs.parseAssignment("serve_socket=/tmp/x.sock");
    badJobs.parseAssignment("serve_state=/tmp/x.state");
    badJobs.parseAssignment("serve_jobs=0");
    EXPECT_THROW(ServeOptions::fromConfig(badJobs), SimError);
}

// ---------------------------------------------------------------
// Session I/O against misbehaving peers

TEST(ServeSession, SplitsLinesAndStripsNewlines)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);

    const char *bytes = "alpha\nbeta\n";
    ASSERT_EQ(::send(fds[1], bytes, 11, 0), 11);
    ::close(fds[1]);

    std::string line;
    ASSERT_TRUE(session.readLine(line));
    EXPECT_EQ(line, "alpha");
    ASSERT_TRUE(session.readLine(line));
    EXPECT_EQ(line, "beta");
    EXPECT_FALSE(session.readLine(line));
}

TEST(ServeSession, DiscardsTornLineAtEof)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);

    const char *bytes = "whole\ntorn-partial";
    ASSERT_EQ(::send(fds[1], bytes, 18, 0), 18);
    ::close(fds[1]);

    std::string line;
    ASSERT_TRUE(session.readLine(line));
    EXPECT_EQ(line, "whole");
    EXPECT_FALSE(session.readLine(line));
}

TEST(ServeSession, DeadPeerBreaksTheSessionNotTheProcess)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);
    ::close(fds[1]);

    // The first write may land in the socket buffer; repeated writes
    // must surface EPIPE as a broken session, never a SIGPIPE kill.
    std::string line(4096, 'x');
    bool failed = false;
    for (int i = 0; i < 64 && !failed; ++i)
        failed = !session.writeLine(line);
    EXPECT_TRUE(failed);
    EXPECT_TRUE(session.broken());
    EXPECT_FALSE(session.writeLine("still broken"));
}

TEST(ServeSession, ShutdownUnblocksAReader)
{
    int fds[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Session session(fds[0]);

    std::thread reader([&session] {
        std::string line;
        EXPECT_FALSE(session.readLine(line));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    session.shutdownBoth();
    reader.join();
    ::close(fds[1]);
}

// ---------------------------------------------------------------
// Executor

TEST(ServeExecutor, FailedRunGetsOneDiagnosticRerun)
{
    ScopedErrorHandler firewall(throwingErrorHandler);
    RunSpec spec;
    std::string bench, error;
    ASSERT_TRUE(parseServeSpec("bench=jess scale=0.05", spec, bench,
                               error))
        << error;
    spec.injectFailure = "deliberately poisoned run";

    softwatt::LogLevel saved = softwatt::logLevel();
    softwatt::setLogLevel(softwatt::LogLevel::Normal);
    CancelToken token;
    testing::internal::CaptureStderr();
    ServeExecResult failed = executeServeSpec(spec, "serve", token);
    std::string log = testing::internal::GetCapturedStderr();

    EXPECT_EQ(failed.attempts, 2);
    EXPECT_EQ(failed.run.result.outcome, softwatt::RunOutcome::Failed);
    // Exactly one rerun, and it forced the invariant sweeps on.
    const std::string forced = "(invariant sweeps forced on)";
    std::size_t at = log.find(forced);
    EXPECT_NE(at, std::string::npos) << log;
    EXPECT_EQ(log.find(forced, at + 1), std::string::npos) << log;

    // A cancelled job is not rerun.
    CancelToken cancelled;
    cancelled.request(CancelToken::Hard);
    testing::internal::CaptureStderr();
    ServeExecResult stopped =
        executeServeSpec(spec, "serve", cancelled);
    log = testing::internal::GetCapturedStderr();
    softwatt::setLogLevel(saved);
    EXPECT_EQ(stopped.attempts, 1);
    EXPECT_EQ(log.find(forced), std::string::npos) << log;
}

// ---------------------------------------------------------------
// End to end: an in-process daemon driven through ServeClient.

namespace
{

/** Start @p server's serveUntil on a thread; joins on destruction. */
class ServerThread
{
  public:
    explicit ServerThread(ServeServer &server)
        : thread([&server, this] { server.serveUntil(stop); })
    {}

    ~ServerThread()
    {
        stop.request(CancelToken::Hard);
        if (thread.joinable())
            thread.join();
    }

    /** Graceful drain, then wait for exit. */
    void
    drain()
    {
        stop.request(CancelToken::Drain);
        thread.join();
    }

    CancelToken stop;

  private:
    std::thread thread;
};

/** A one-worker daemon under @p dir autosaving every 20k ticks
 *  (1e-4 simulated seconds at the default 200 MHz). */
ServeOptions
daemonOptions(const std::string &dir)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;
    options.warmS = 0.0001;
    return options;
}

/** @p specText as the daemon runs it: parsed, with its cadence. */
RunSpec
servedSpec(const std::string &specText, double warmS)
{
    RunSpec spec;
    std::string bench, error;
    EXPECT_TRUE(parseServeSpec(specText, spec, bench, error)) << error;
    spec.checkpointEveryS = warmS;
    return spec;
}

struct ColdRun
{
    std::string document;
    std::uint64_t ticks = 0;
};

/**
 * The cold reference for @p specText, as softwatt-serve-client
 * cold=1 makes it: a fresh run at cadence @p warmS that autosaves to
 * @p scratch and restores nothing. Call it before a daemon starts:
 * it installs the process-wide error handler for its duration.
 */
ColdRun
coldRun(const std::string &specText, double warmS,
        const std::string &scratch)
{
    ScopedErrorHandler firewall(throwingErrorHandler);
    RunSpec spec = servedSpec(specText, warmS);
    spec.checkpointPath = scratch;
    CancelToken token;
    ServeExecResult done = executeServeSpec(spec, "serve", token);
    softwatt::removeCheckpoint(scratch);
    EXPECT_FALSE(done.warmStarted);
    std::ostringstream document;
    softwatt::writeExperimentDocument(document, "serve", false,
                                      {done.runJson});
    return {document.str(), done.ticksExecuted};
}

} // namespace

TEST_F(ServeDirTest, ServerAnswersJournalsAndReplaysAcrossRestart)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 2;
    options.warmS = 0.0001;

    std::string firstDocument;
    {
        ServeServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        ServerThread running(server);

        ServeClient client;
        ASSERT_TRUE(client.connect(options.socketPath, error))
            << error;

        ServeRequest request;
        request.id = "job-1";
        request.client = "e2e";
        request.spec = "bench=jess scale=0.03";
        ServeResponse response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.id, "job-1");
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "executed");
        ASSERT_FALSE(response.document.empty());
        EXPECT_EQ(response.document.front(), '{');
        firstDocument = response.document;

        // Same spec under a new id: answered from the journal,
        // byte-identically, without executing anything.
        request.id = "job-2";
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "journal");
        EXPECT_EQ(response.document, firstDocument);

        // A malformed line gets a structured rejection, and the
        // session survives to serve the next request.
        ASSERT_TRUE(client.session()->writeLine("not json"));
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.status, "bad-request");

        // A run whose spec cannot parse is rejected, not executed.
        request.id = "job-3";
        request.spec = "bench=jess nonsense_key=1";
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "bad-request");
        EXPECT_NE(response.error.find("nonsense_key"),
                  std::string::npos);

        EXPECT_EQ(server.executedJobs(), 1u);
        EXPECT_EQ(server.journalHits(), 1u);
        running.drain();
        EXPECT_FALSE(fs::exists(options.socketPath));
        // The answer is journaled, so its autosave is gone.
        EXPECT_TRUE(fs::is_empty(options.statePath + "/ckpt"));
    }

    // A kill between the journal append and the autosave's removal
    // leaves a stray the restarted daemon must delete.
    const std::string stray = options.checkpointPath(
        softwatt::specFingerprint(
            servedSpec("bench=jess scale=0.03", options.warmS)));
    std::ofstream(stray) << "left by a killed daemon";
    ASSERT_TRUE(fs::exists(stray));

    // "Restart" the daemon on the same state directory: the journal
    // must re-answer the finished job byte-identically.
    {
        ServeServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        EXPECT_FALSE(fs::exists(stray));
        ServerThread running(server);

        ServeClient client;
        ASSERT_TRUE(client.connect(options.socketPath, error))
            << error;
        ServeRequest request;
        request.id = "job-after-restart";
        request.client = "e2e";
        request.spec = "bench=jess scale=0.03";
        ServeResponse response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        EXPECT_EQ(response.servedFrom, "journal");
        EXPECT_EQ(response.document, firstDocument);
        EXPECT_EQ(server.executedJobs(), 0u);
        EXPECT_EQ(server.journalHits(), 1u);
        running.drain();
    }
}

TEST_F(ServeDirTest, ServerExecutesASpecThatDiffersOnlyInPowerPolicy)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;
    ServeRequest request;
    request.id = "plain";
    request.client = "e2e";
    request.spec = "bench=jess scale=0.03";
    ServeResponse plain;
    ASSERT_TRUE(client.call(request, plain, error)) << error;
    EXPECT_EQ(plain.status, "ok") << plain.error;
    EXPECT_EQ(plain.servedFrom, "executed");

    // The journal holds the plain answer; a governed run is a
    // different result and must not be answered from it.
    request.id = "governed";
    request.spec = "bench=jess scale=0.03 dvfs=1 power_budget_w=3";
    ServeResponse governed;
    ASSERT_TRUE(client.call(request, governed, error)) << error;
    EXPECT_EQ(governed.status, "ok") << governed.error;
    EXPECT_EQ(governed.servedFrom, "executed");
    EXPECT_NE(governed.document, plain.document);
    EXPECT_NE(governed.document.find("\"dvfs\""), std::string::npos);
    EXPECT_EQ(server.executedJobs(), 2u);
    EXPECT_EQ(server.journalHits(), 0u);
    running.drain();
}

TEST_F(ServeDirTest, WarmStartSkipsWarmupByteIdentically)
{
    const ServeOptions options = daemonOptions(dir);
    const std::string specText = "bench=jess scale=0.1";
    const ColdRun reference =
        coldRun(specText, options.warmS, dir + "/reference.ckpt");
    const std::string keyFile = options.checkpointPath(
        softwatt::specFingerprint(servedSpec(specText, options.warmS)));

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);
    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    // The first submission is cancelled once it has autosaved; the
    // cancel must leave its key file behind.
    ServeRequest request;
    request.id = "first";
    request.client = "e2e";
    request.spec = specText;
    ASSERT_TRUE(client.send(request));
    for (int i = 0; i < 10000 && softwatt::checkpointBytes(keyFile) == 0;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_GT(softwatt::checkpointBytes(keyFile), 0u);
    ServeRequest cancel;
    cancel.op = "cancel";
    cancel.id = "first";
    cancel.client = "e2e";
    ASSERT_TRUE(client.send(cancel));
    std::set<std::string> statuses;
    ServeResponse response;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(client.receive(response, error)) << error;
        statuses.insert(response.status);
    }
    ASSERT_TRUE(statuses.count("cancelled"));
    EXPECT_GT(softwatt::checkpointBytes(keyFile), 0u);

    // The second submission of the same spec resumes from it, skips
    // what the first one ran, and still matches the cold reference.
    request.id = "second";
    ASSERT_TRUE(client.call(request, response, error)) << error;
    EXPECT_EQ(response.status, "ok") << response.error;
    EXPECT_EQ(response.servedFrom, "executed");
    EXPECT_TRUE(response.warmStart);
    EXPECT_GT(response.warmStartTick, 0u);
    EXPECT_LT(response.ticksExecuted, reference.ticks);
    EXPECT_EQ(response.warmStartTick + response.ticksExecuted,
              reference.ticks);
    EXPECT_EQ(response.document, reference.document);
    EXPECT_EQ(server.warmStartedJobs(), 1u);

    // Its answer is journaled, so the autosave is gone.
    EXPECT_EQ(softwatt::checkpointBytes(keyFile), 0u);
    running.drain();
}

TEST_F(ServeDirTest, ServerAnswersEachCpuModelAndDeadlineLikeItsColdRun)
{
    // Three specs whose machine fingerprint is the same: only the
    // CPU model or the deadline differs. Each is its own run, and
    // each answer must be the bytes its own cold run produces.
    const ServeOptions options = daemonOptions(dir);
    const std::vector<std::string> specs = {
        "bench=jess scale=0.05 cpu.model=mipsy",
        "bench=jess scale=0.05 cpu.model=mxs",
        "bench=jess scale=0.05 cpu.model=mipsy deadline_s=0.001",
    };
    std::vector<ColdRun> references;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        references.push_back(coldRun(
            specs[i], options.warmS,
            dir + "/reference" + std::to_string(i) + ".ckpt"));
    }

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);
    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        ServeRequest request;
        request.id = "job-" + std::to_string(i);
        request.client = "e2e";
        request.spec = specs[i];
        ServeResponse response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << specs[i];
        EXPECT_EQ(response.servedFrom, "executed") << specs[i];
        EXPECT_FALSE(response.warmStart) << specs[i];
        EXPECT_EQ(response.ticksExecuted, references[i].ticks)
            << specs[i];
        EXPECT_EQ(response.document, references[i].document)
            << specs[i];
    }
    EXPECT_EQ(server.warmStartedJobs(), 0u);
    EXPECT_TRUE(fs::is_empty(options.statePath + "/ckpt"));
    running.drain();
}

TEST_F(ServeDirTest, ServerReexecutesAfterARestartAtAnotherCadence)
{
    // The cadence is part of what a run computes, so a journal
    // written at one serve_warm_s= answers nothing at another.
    ServeOptions options = daemonOptions(dir);
    ServeRequest request;
    request.client = "e2e";
    request.spec = "bench=jess scale=0.03";
    const std::pair<double, const char *> restarts[] = {
        {0.0001, "executed"}, {0.0002, "executed"}, {0.0001, "journal"}};
    for (const auto &[warmS, servedFrom] : restarts) {
        options.warmS = warmS;
        ServeServer server(options);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        ServerThread running(server);
        ServeClient client;
        ASSERT_TRUE(client.connect(options.socketPath, error))
            << error;
        request.id = "at-" + std::to_string(warmS);
        ServeResponse response;
        ASSERT_TRUE(client.call(request, response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        // Only the return to the first cadence finds its answer.
        EXPECT_EQ(response.servedFrom, servedFrom)
            << "serve_warm_s=" << warmS;
        running.drain();
    }
}

TEST_F(ServeDirTest, ServerExecutesConcurrentTwinsOnce)
{
    // Two workers and two submissions of one spec: the twin waits
    // for the executing job instead of racing it on the run's
    // autosave file, then takes its journaled answer.
    ServeOptions options = daemonOptions(dir);
    options.jobs = 2;
    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);
    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    ServeRequest request;
    request.client = "e2e";
    request.spec = "bench=jess scale=0.05";
    for (const char *id : {"one", "two"}) {
        request.id = id;
        ASSERT_TRUE(client.send(request));
    }
    std::map<std::string, ServeResponse> responses;
    for (int i = 0; i < 2; ++i) {
        ServeResponse response;
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.status, "ok") << response.error;
        responses[response.servedFrom] = response;
    }
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses["journal"].document,
              responses["executed"].document);
    EXPECT_EQ(server.executedJobs(), 1u);
    EXPECT_EQ(server.journalHits(), 1u);
    running.drain();
}

TEST_F(ServeDirTest, ServerShedsWhenTheQueueIsFull)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;
    options.queueMax = 1;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    // Flood the service with slow jobs. The worker, the thread
    // pool's pending bound, the dispatcher's hand, and the admission
    // queue together buffer only a handful, so the flood must draw a
    // structured overloaded rejection long before any job finishes —
    // and the first response received can only be such a rejection.
    for (int i = 1; i <= 8; ++i) {
        ServeRequest request;
        request.id = "slow-" + std::to_string(i);
        request.client = "flood";
        request.spec = "bench=jess scale=2.0";
        ASSERT_TRUE(client.send(request));
    }

    ServeResponse response;
    ASSERT_TRUE(client.receive(response, error)) << error;
    EXPECT_EQ(response.status, "overloaded");
    EXPECT_GE(server.shedJobs(), 1u);
    // Destructor hard-cancels the in-flight jobs.
}

TEST_F(ServeDirTest, ServerCancelsAndEnforcesWallDeadlines)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 2;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    ServeClient client;
    ASSERT_TRUE(client.connect(options.socketPath, error)) << error;

    // A job with a tiny wall budget is cancelled by the deadliner.
    ServeRequest request;
    request.id = "deadline";
    request.client = "e2e";
    request.spec = "bench=jess scale=2.0";
    request.wallMs = 50;
    ServeResponse response;
    ASSERT_TRUE(client.call(request, response, error)) << error;
    EXPECT_EQ(response.id, "deadline");
    EXPECT_EQ(response.status, "cancelled");

    // An explicit cancel stops a long run; both the ack and the run's
    // terminal response arrive, correlated by the id.
    request.id = "victim";
    request.wallMs = 0;
    ASSERT_TRUE(client.send(request));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ServeRequest cancel;
    cancel.op = "cancel";
    cancel.id = "victim";
    cancel.client = "e2e";
    ASSERT_TRUE(client.send(cancel));

    std::set<std::string> statuses;
    for (int i = 0; i < 2; ++i) {
        ASSERT_TRUE(client.receive(response, error)) << error;
        EXPECT_EQ(response.id, "victim");
        statuses.insert(response.status);
    }
    EXPECT_TRUE(statuses.count("cancelled"));

    // Cancel is idempotent: cancelling a job that is not in flight
    // still acknowledges, but says so.
    cancel.id = "no-such-job";
    ASSERT_TRUE(client.call(cancel, response, error)) << error;
    EXPECT_EQ(response.status, "ok");
    EXPECT_NE(response.error.find("no in-flight job"),
              std::string::npos);
}

TEST_F(ServeDirTest, ServerReapsFinishedSessionThreads)
{
    ServeOptions options;
    options.socketPath = dir + "/serve.sock";
    options.statePath = dir + "/state";
    options.jobs = 1;

    ServeServer server(options);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ServerThread running(server);

    // A long-lived daemon serving many short-lived clients must not
    // accumulate one unjoined thread per historical connection.
    for (int i = 0; i < 8; ++i) {
        ServeClient churn;
        ASSERT_TRUE(churn.connect(options.socketPath, error))
            << error;
        churn.disconnect();
    }

    // A client that stays connected is still tracked; the eight
    // dead readers are reaped once they notice the disconnect.
    ServeClient keeper;
    ASSERT_TRUE(keeper.connect(options.socketPath, error)) << error;
    // Wait for exactly one tracked session: the keeper accepted and
    // every dead reader noticed its disconnect and got reaped.
    for (int i = 0; i < 500 && server.sessionCount() != 1; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(server.sessionCount(), 1u);

    // And the keeper's session still works after the sweep.
    ServeRequest request;
    request.op = "cancel";
    request.id = "nothing";
    request.client = "reap";
    ServeResponse response;
    ASSERT_TRUE(keeper.call(request, response, error)) << error;
    EXPECT_EQ(response.status, "ok");
}
