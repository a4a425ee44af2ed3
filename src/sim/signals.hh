/**
 * @file
 * The one place in SoftWatt that may install process signal
 * handlers. A SignalGuard routes SIGINT/SIGTERM/SIGHUP into a
 * CancelToken: the first signal escalates the token to Drain (the
 * experiment runner stops dispatching runs and lets in-flight work
 * finish up to its grace budget), the second to Hard (in-flight runs
 * stop at their next sample-window boundary). SIGHUP gets the same
 * graceful-drain treatment as SIGTERM so a closed terminal or a
 * dropped ssh connection checkpoints and journals in-flight work
 * instead of killing the sweep. While a guard is active, SIGPIPE is
 * ignored: a reader that goes away mid-write (say, `| head` on the
 * report stream) surfaces as an EPIPE write error the caller can
 * handle instead of a signal that kills the sweep before it journals
 * its runs. The guard restores the previous handlers on destruction,
 * so signal disposition never leaks past the experiment that
 * installed it.
 *
 * The determinism linter (tools/lint, rule raw-signal) bans
 * signal()/sigaction() everywhere else: ad-hoc handlers would race
 * with this protocol and reintroduce kill-on-Ctrl-C semantics.
 */

#ifndef SOFTWATT_SIM_SIGNALS_HH
#define SOFTWATT_SIM_SIGNALS_HH

#include <csignal>

#include "cancel.hh"

namespace softwatt
{

/**
 * RAII installer of the SIGINT/SIGTERM/SIGHUP -> CancelToken bridge.
 *
 * Only one guard may be active at a time (the experiment runner
 * creates one per runExperiment call); nesting panics. The token
 * must outlive the guard.
 */
class SignalGuard
{
  public:
    explicit SignalGuard(CancelToken &token);
    ~SignalGuard();

    SignalGuard(const SignalGuard &) = delete;
    SignalGuard &operator=(const SignalGuard &) = delete;

    /** Is any guard currently installed (for tests)? */
    static bool active();

    /** Signals delivered to the active guard so far. */
    static int deliveredSignals();

  private:
    struct sigaction previousInt;
    struct sigaction previousTerm;
    struct sigaction previousHup;
    struct sigaction previousPipe;
};

} // namespace softwatt

#endif // SOFTWATT_SIM_SIGNALS_HH
