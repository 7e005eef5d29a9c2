#include "support/logging.hh"

#include <cstdio>
#include <unordered_map>

namespace flowguard {

namespace {

bool errors_throw = true;
bool log_verbose = false;

uint64_t log_repeat_every = 100;
uint64_t log_suppressed = 0;
/** message -> occurrences; bounded by periodic reset (see emitLog). */
std::unordered_map<std::string, uint64_t> dedup_counts;
constexpr size_t dedup_table_cap = 4096;

} // namespace

void
setErrorsThrow(bool throws)
{
    errors_throw = throws;
}

bool
errorsThrow()
{
    return errors_throw;
}

void
setLogVerbose(bool verbose)
{
    log_verbose = verbose;
}

bool
logVerbose()
{
    return log_verbose;
}

void
setLogRepeatEvery(uint64_t n)
{
    log_repeat_every = n ? n : 1;
}

uint64_t
logRepeatEvery()
{
    return log_repeat_every;
}

uint64_t
logSuppressed()
{
    return log_suppressed;
}

void
resetLogDedup()
{
    dedup_counts.clear();
    log_suppressed = 0;
}

namespace detail {

void
raiseError(SimError::Kind kind, const std::string &msg,
           const char *file, int line)
{
    std::ostringstream oss;
    oss << (kind == SimError::Kind::Panic ? "panic: " : "fatal: ")
        << msg << " (" << file << ":" << line << ")";
    if (errors_throw)
        throw SimError(kind, oss.str());
    std::fprintf(stderr, "%s\n", oss.str().c_str());
    if (kind == SimError::Kind::Panic)
        std::abort();
    std::exit(1);
}

void
emitLog(const char *prefix, const std::string &msg)
{
    // Duplicate suppression: first occurrence plus every Nth after
    // that, so a fault-injection sweep repeating one warning ten
    // thousand times prints it ~100 times, each stamped with the
    // running count.
    if (dedup_counts.size() >= dedup_table_cap)
        dedup_counts.clear();
    uint64_t &count =
        ++dedup_counts[std::string(prefix) + '\x1f' + msg];
    const bool print = log_repeat_every <= 1 || count == 1 ||
        (count - 1) % log_repeat_every == 0;
    if (!print) {
        ++log_suppressed;
        return;
    }
    if (count > 1) {
        std::fprintf(stderr, "%s: %s [seen %llu times]\n", prefix,
                     msg.c_str(),
                     static_cast<unsigned long long>(count));
    } else {
        std::fprintf(stderr, "%s: %s\n", prefix, msg.c_str());
    }
}

} // namespace detail

} // namespace flowguard
