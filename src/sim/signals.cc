#include "signals.hh"

#include "logging.hh"

namespace softwatt
{

namespace
{

/**
 * The token the active guard routes signals into, plus a delivery
 * counter for diagnostics. Both are lock-free atomics: the handler
 * runs in signal context and may only touch async-signal-safe
 * state.
 */
std::atomic<CancelToken *> activeToken{nullptr};
std::atomic<int> signalCount{0};

extern "C" void
forwardSignalToToken(int)
{
    CancelToken *token =
        activeToken.load(std::memory_order_acquire);
    if (token)
        token->escalate();
    signalCount.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

SignalGuard::SignalGuard(CancelToken &token)
{
    CancelToken *expected = nullptr;
    if (!activeToken.compare_exchange_strong(
            expected, &token, std::memory_order_acq_rel)) {
        panic("SignalGuard: a guard is already installed; only the "
              "experiment runner may own signal disposition");
    }
    signalCount.store(0, std::memory_order_relaxed);

    struct sigaction action = {};
    action.sa_handler = forwardSignalToToken;
    sigemptyset(&action.sa_mask);
    // No SA_RESTART: a blocked f.get()/condition wait in the runner
    // is fine (futures are signal-agnostic), but interruptible I/O
    // should see EINTR rather than hang past a cancellation.
    action.sa_flags = 0;
    // SIGHUP takes the same path as SIGTERM: a vanished controlling
    // terminal means "wrap up", not "die mid-write".
    // SIGPIPE is ignored outright: a closed output pipe must surface
    // as an EPIPE write error, never as a process-killing signal.
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ignore.sa_flags = 0;
    if (sigaction(SIGINT, &action, &previousInt) != 0 ||
        sigaction(SIGTERM, &action, &previousTerm) != 0 ||
        sigaction(SIGHUP, &action, &previousHup) != 0 ||
        sigaction(SIGPIPE, &ignore, &previousPipe) != 0) {
        activeToken.store(nullptr, std::memory_order_release);
        panic("SignalGuard: sigaction failed");
    }
}

SignalGuard::~SignalGuard()
{
    sigaction(SIGINT, &previousInt, nullptr);
    sigaction(SIGTERM, &previousTerm, nullptr);
    sigaction(SIGHUP, &previousHup, nullptr);
    sigaction(SIGPIPE, &previousPipe, nullptr);
    activeToken.store(nullptr, std::memory_order_release);
}

bool
SignalGuard::active()
{
    return activeToken.load(std::memory_order_acquire) != nullptr;
}

int
SignalGuard::deliveredSignals()
{
    return signalCount.load(std::memory_order_relaxed);
}

} // namespace softwatt
