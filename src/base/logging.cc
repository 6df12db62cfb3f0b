#include "logging.hh"

#include <cstdarg>
#include <vector>

namespace cronus
{

Logger &
Logger::instance()
{
    static Logger logger;
    return logger;
}

void
Logger::log(LogLevel level, const std::string &msg)
{
    if (level == LogLevel::Warn)
        ++numWarnings;
    if (quietMode)
        return;
    std::fprintf(stderr, "[%s] %s\n",
                 level == LogLevel::Warn ? "warn" : "error", msg.c_str());
}

namespace detail
{

std::string
formatString(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::vector<char> buf(needed + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), needed);
}

} // namespace detail

void
panic(const std::string &msg)
{
    Logger::instance().log(LogLevel::Error, "panic: " + msg);
    throw PanicError(msg);
}

void
fatal(const std::string &msg)
{
    Logger::instance().log(LogLevel::Error, "fatal: " + msg);
    throw FatalError(msg);
}

void
warn(const std::string &msg)
{
    Logger::instance().log(LogLevel::Warn, msg);
}

} // namespace cronus
