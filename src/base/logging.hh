/**
 * @file
 * Logging and error-reporting primitives.
 *
 * Follows the gem5 convention: panic() is for internal invariant
 * violations (simulator bugs), fatal() is for unrecoverable user
 * errors, warn()/inform() report conditions without stopping the run.
 */

#ifndef CRONUS_BASE_LOGGING_HH
#define CRONUS_BASE_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace cronus
{

/** Severity of a log record. */
enum class LogLevel
{
    Debug,
    Info,
    Warn,
    Error,
};

/**
 * Global logging sink. A single process-wide instance collects all
 * records; tests can silence or capture it.
 */
class Logger
{
  public:
    static Logger &instance();

    /** Minimum level that is actually emitted. */
    void setLevel(LogLevel level) { minLevel = level; }
    LogLevel level() const { return minLevel; }

    /** Completely silence the logger (used by benches/tests). */
    void setQuiet(bool quiet) { quietMode = quiet; }
    bool quiet() const { return quietMode; }

    /** Emit one record. */
    void log(LogLevel level, const std::string &msg);

    /** Number of warnings emitted since construction/reset. */
    uint64_t warnCount() const { return numWarnings; }
    void resetCounters() { numWarnings = 0; }

  private:
    Logger() = default;

    LogLevel minLevel = LogLevel::Info;
    bool quietMode = false;
    uint64_t numWarnings = 0;
};

/**
 * Exception thrown by panic()/fatal(). Keeping these as exceptions
 * (rather than abort()) lets the test suite assert that invalid
 * operations are rejected.
 */
class PanicError : public std::runtime_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::runtime_error(msg) {}
};

class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

namespace detail
{

std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace detail

/** Report an internal invariant violation and unwind. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unrecoverable configuration/user error and unwind. */
[[noreturn]] void fatal(const std::string &msg);

/** Report a suspicious-but-survivable condition. */
void warn(const std::string &msg);

/** Report normal operating status. */
void inform(const std::string &msg);

/** Debug-level trace message. */
void trace(const std::string &msg);

/**
 * Assert a simulator invariant; throws PanicError on failure so tests
 * can observe rejected operations.
 */
#define CRONUS_ASSERT(cond, msg)                                        \
    do {                                                                \
        if (!(cond))                                                    \
            ::cronus::panic(std::string("assertion failed: ") + (msg)); \
    } while (0)

} // namespace cronus

#endif // CRONUS_BASE_LOGGING_HH
