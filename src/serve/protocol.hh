/**
 * @file
 * Wire format of the softwatt-serve daemon: newline-delimited JSON
 * over a local unix socket, one request or response per line.
 *
 * A request carries an experiment spec in the exact "key=value"
 * syntax the command-line harnesses accept (tryParseArgs), so a
 * sweep driven through the service and one driven through a binary
 * read identical configuration. A response carries the complete
 * softwatt-experiment-v2 document as an escaped string member plus
 * service metadata (status, retry count, warm-start evidence).
 *
 * Both directions are rendered by JsonWriter and parsed with the
 * shared jsonExtract* helpers; the protocol only ever parses
 * documents this codebase wrote, so no general JSON parser is
 * needed — exactly the resume journal's contract.
 */

#ifndef SOFTWATT_SERVE_PROTOCOL_HH
#define SOFTWATT_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace softwatt::serve
{

/** Protocol schema tags (one per direction). */
constexpr const char *requestSchema = "softwatt-serve-request-v1";
constexpr const char *responseSchema = "softwatt-serve-response-v1";

/**
 * Response status vocabulary. `ok` covers every run that executed to
 * a recorded outcome (including deadline-exceeded — the document
 * carries the outcome); the others describe why no document exists.
 */
constexpr const char *statusOk = "ok";
constexpr const char *statusFailed = "failed";
constexpr const char *statusCancelled = "cancelled";
constexpr const char *statusOverloaded = "overloaded";
constexpr const char *statusShuttingDown = "shutting-down";
constexpr const char *statusBadRequest = "bad-request";

/** One client request: submit a run, or cancel a submitted one. */
struct ServeRequest
{
    /** "run" (default) or "cancel". */
    std::string op = "run";

    /** Client-chosen job id; (client, id) must be unique. */
    std::string id;

    /** Client name; admission fairness round-robins across these. */
    std::string client;

    /** Experiment title (journal identity + document header). */
    std::string experiment = "serve";

    /**
     * Whitespace-separated "key=value" assignments describing the
     * run — the same keys the harness binaries accept (bench=,
     * scale=, variant=, deadline_s=, machine keys, ...).
     */
    std::string spec;

    /** Wall-clock budget in milliseconds; 0 = server default. */
    std::uint64_t wallMs = 0;
};

/** One daemon response, correlated to the request by id. */
struct ServeResponse
{
    std::string id;
    std::string status;

    /** Human-readable reason when status is not ok. */
    std::string error;

    /** "executed" or "journal"; "" when no run was performed. */
    std::string servedFrom;

    /** Run resumed from the autosave an earlier, interrupted
     *  submission of the same spec left behind. */
    bool warmStart = false;

    /** Simulated tick the run resumed from (0 for cold runs). */
    std::uint64_t warmStartTick = 0;

    /** Simulated ticks actually executed by this submission. */
    std::uint64_t ticksExecuted = 0;

    /** Executor attempts consumed (retries + 1). */
    int attempts = 0;

    /**
     * True when the daemon's storage degraded while serving this
     * job: the answer journal fell back to non-durable mode, or the
     * run continued checkpoint-less after a failed autosave. The
     * answer itself is complete and correct; it may just not survive
     * a daemon restart. SmartWatts-style self-monitoring: degrade
     * and report rather than fail.
     */
    bool degraded = false;

    /** Complete softwatt-experiment-v2 document; "" on failure. */
    std::string document;
};

/** Render a request as one compact JSON line (no trailing \n). */
std::string renderServeRequest(const ServeRequest &request);

/**
 * Parse one request line. @return false with @p error set when the
 * line is not a well-formed request (wrong schema, missing id or
 * client, unknown op, run without a spec).
 */
bool parseServeRequest(const std::string &line, ServeRequest &out,
                       std::string &error);

/** Render a response as one compact JSON line (no trailing \n). */
std::string renderServeResponse(const ServeResponse &response);

/** Parse one response line; mirrors parseServeRequest. */
bool parseServeResponse(const std::string &line, ServeResponse &out,
                        std::string &error);

} // namespace softwatt::serve

#endif // SOFTWATT_SERVE_PROTOCOL_HH
