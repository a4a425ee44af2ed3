/**
 * @file
 * Status and error reporting, following the gem5 fatal/panic split:
 * fatal() is the user's fault (bad configuration), panic() is an
 * internal invariant violation (a SoftWatt bug).
 */

#ifndef SOFTWATT_SIM_LOGGING_HH
#define SOFTWATT_SIM_LOGGING_HH

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace softwatt
{

/** Verbosity levels for status messages. */
enum class LogLevel
{
    Quiet = 0,
    Normal,
    Verbose,
};

/** Set the global verbosity for inform()/warn(). */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/**
 * Terminate the simulation due to a user error (bad configuration or
 * arguments). Exits with status 1, unless an error handler is
 * installed — then the error surfaces as a SimError instead.
 */
[[noreturn]] void fatal(const std::string &message);

/**
 * Terminate the simulation due to an internal invariant violation.
 * Aborts so a debugger or core dump can capture the state, unless an
 * error handler is installed — then the violation surfaces as a
 * SimError instead.
 */
[[noreturn]] void panic(const std::string &message);

/** Which termination path an error handler intercepted. */
enum class ErrorKind
{
    Fatal,  ///< User error; default action is exit(1).
    Panic,  ///< Internal invariant violation; default action is abort().
};

/**
 * Hook called by fatal()/panic() instead of terminating. If the
 * handler throws, the exception propagates to the caller; if it
 * merely returns (e.g. it only logs), a SimError is thrown on its
 * behalf. Either way, a process with a handler installed never
 * hard-exits on fatal()/panic() — the default exit(1)/abort() is
 * taken only when no handler is set.
 */
using ErrorHandler =
    std::function<void(ErrorKind, const std::string &)>;

/**
 * Install an error handler; pass nullptr to restore the default
 * terminate behaviour. @return the previously installed handler.
 * The handler storage is synchronized: worker threads may hit
 * fatal()/panic() while another thread installs a handler.
 */
ErrorHandler setErrorHandler(ErrorHandler handler);

/** Exception thrown by throwingErrorHandler(). */
class SimError : public std::runtime_error
{
  public:
    SimError(ErrorKind kind, const std::string &message)
        : std::runtime_error(message), errorKind(kind)
    {}

    ErrorKind kind() const { return errorKind; }

  private:
    ErrorKind errorKind;
};

/**
 * Ready-made handler that converts fatal()/panic() into a thrown
 * SimError, letting tests assert on error paths without dying:
 *
 *     setErrorHandler(throwingErrorHandler);
 *     EXPECT_THROW(SystemConfig::fromConfig(bad), SimError);
 *     setErrorHandler(nullptr);
 */
void throwingErrorHandler(ErrorKind kind, const std::string &message);

/** Print a warning about questionable but survivable behaviour. */
void warn(const std::string &message);

/**
 * Print an unprefixed progress line to stderr (shown unless Quiet).
 * Used by the experiment runner for per-run completion notices, which
 * may arrive from worker threads in any order; emission is serialized
 * so lines never interleave.
 */
void status(const std::string &message);

/** Print an informational status message. */
void inform(const std::string &message);

/**
 * Build a message from stream-formatted parts.
 *
 * Usage: fatal(msg() << "bad size " << size);
 */
class msg
{
  public:
    template <typename T>
    msg &
    operator<<(const T &value)
    {
        stream << value;
        return *this;
    }

    operator std::string() const { return stream.str(); }

  private:
    std::ostringstream stream;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_LOGGING_HH
