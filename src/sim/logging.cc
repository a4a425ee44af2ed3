#include "logging.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace softwatt
{

namespace
{

std::atomic<LogLevel> globalLevel{LogLevel::Normal};

/**
 * Guards the global error handler. std::function cannot be atomic,
 * and an experiment's worker threads (jobs>1) read the handler inside
 * fatal()/panic() while another thread may install one, so every
 * access goes through this mutex; fatal()/panic() copy the handler
 * out and invoke it unlocked (a handler is free to throw or to
 * install another handler).
 */
std::mutex &
handlerMutex()
{
    static std::mutex m;
    return m;
}

ErrorHandler globalErrorHandler;  // guarded by handlerMutex()

ErrorHandler
currentErrorHandler()
{
    std::lock_guard<std::mutex> lock(handlerMutex());
    return globalErrorHandler;
}

/**
 * Serializes message emission: experiment runs execute on a thread
 * pool, so concurrent warn()/status() calls must not interleave
 * their bytes. (The level setter stays a main-thread operation;
 * only emission is contended.)
 */
std::mutex &
outputMutex()
{
    static std::mutex m;
    return m;
}

void
emit(const char *prefix, const std::string &message)
{
    std::lock_guard<std::mutex> lock(outputMutex());
    std::fprintf(stderr, "%s%s\n", prefix, message.c_str());
}

} // namespace

ErrorHandler
setErrorHandler(ErrorHandler handler)
{
    std::lock_guard<std::mutex> lock(handlerMutex());
    ErrorHandler previous = std::move(globalErrorHandler);
    globalErrorHandler = std::move(handler);
    return previous;
}

void
throwingErrorHandler(ErrorKind kind, const std::string &message)
{
    throw SimError(kind, message);
}

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
fatal(const std::string &message)
{
    if (ErrorHandler handler = currentErrorHandler()) {
        handler(ErrorKind::Fatal, message);
        // A handler that returns must not fall through to exit():
        // with a handler installed the process belongs to a test or
        // an embedding application, which is never hard-killed.
        throw SimError(ErrorKind::Fatal, message);
    }
    emit("fatal: ", message);
    std::exit(1);
}

void
panic(const std::string &message)
{
    if (ErrorHandler handler = currentErrorHandler()) {
        handler(ErrorKind::Panic, message);
        throw SimError(ErrorKind::Panic, message);
    }
    emit("panic: ", message);
    std::abort();
}

void
warn(const std::string &message)
{
    if (logLevel() >= LogLevel::Normal)
        emit("warn: ", message);
}

void
status(const std::string &message)
{
    if (logLevel() >= LogLevel::Normal)
        emit("", message);
}

void
inform(const std::string &message)
{
    if (logLevel() >= LogLevel::Verbose)
        emit("info: ", message);
}

} // namespace softwatt
