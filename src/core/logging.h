/**
 * @file
 * Minimal logging and error-termination helpers, following the
 * gem5-style split: panic() for internal invariant violations (aborts),
 * fatal() for user/configuration errors (clean exit), warn() for
 * survivable oddities. All three write one line to stderr.
 */

#ifndef DBSENS_CORE_LOGGING_H
#define DBSENS_CORE_LOGGING_H

#include <cstdio>
#include <cstdlib>
#include <string>

namespace dbsens {

/** Report a condition that indicates a bug in dbsens itself and abort. */
[[noreturn]] void panic(const std::string &msg);

/** Report an unrecoverable user/configuration error and exit(1). */
[[noreturn]] void fatal(const std::string &msg);

/** Report a suspicious-but-survivable condition. */
void warn(const std::string &msg);

} // namespace dbsens

#endif // DBSENS_CORE_LOGGING_H
