#include "core/logging.h"

namespace dbsens {

namespace {

void
logLine(const char *tag, const std::string &msg)
{
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

void
panic(const std::string &msg)
{
    logLine("panic", msg);
    std::abort();
}

void
fatal(const std::string &msg)
{
    logLine("fatal", msg);
    std::exit(1);
}

void
warn(const std::string &msg)
{
    logLine("warn", msg);
}

} // namespace dbsens
