/**
 * @file
 * Logging and error-termination helpers in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated: a FlowGuard bug.
 *            Aborts so a core dump / debugger can capture the state.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Exits cleanly.
 * warn()   — something works, but not as well as it should.
 * inform() — normal operational status for the user.
 */

#ifndef FLOWGUARD_SUPPORT_LOGGING_HH
#define FLOWGUARD_SUPPORT_LOGGING_HH

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace flowguard {

/** Exception thrown by panic()/fatal() so tests can intercept them. */
class SimError : public std::runtime_error
{
  public:
    enum class Kind { Panic, Fatal };

    SimError(Kind kind, const std::string &message)
        : std::runtime_error(message), _kind(kind)
    {}

    Kind kind() const { return _kind; }

  private:
    Kind _kind;
};

namespace detail {

/** Formats "prefix: message (file:line)" and raises/prints. */
[[noreturn]] void raiseError(SimError::Kind kind, const std::string &msg,
                             const char *file, int line);

void emitLog(const char *prefix, const std::string &msg);

/** Builds a message from stream-formattable pieces. */
template <typename... Args>
std::string
formatPieces(Args &&...args)
{
    std::ostringstream oss;
    (oss << ... << std::forward<Args>(args));
    return oss.str();
}

} // namespace detail

/** Global switch: when true (default), panic/fatal throw SimError
 *  instead of terminating the process. Tests rely on this. */
void setErrorsThrow(bool throws);
bool errorsThrow();

/** Verbosity control for warn()/inform(). */
void setLogVerbose(bool verbose);
bool logVerbose();

/**
 * Duplicate-message rate limit for the stderr path: a message that
 * repeats verbatim is printed on its first occurrence and then every
 * `n`th after that (so fault-injection sweeps stop flooding stderr).
 * `n` == 1 disables suppression. Default: 100.
 */
void setLogRepeatEvery(uint64_t n);
uint64_t logRepeatEvery();

/** Messages swallowed by duplicate suppression since the last reset. */
uint64_t logSuppressed();

/** Clears the duplicate-tracking table and the suppressed count. */
void resetLogDedup();

template <typename... Args>
[[noreturn]] void
panicAt(const char *file, int line, Args &&...args)
{
    detail::raiseError(SimError::Kind::Panic,
                       detail::formatPieces(std::forward<Args>(args)...),
                       file, line);
}

template <typename... Args>
[[noreturn]] void
fatalAt(const char *file, int line, Args &&...args)
{
    detail::raiseError(SimError::Kind::Fatal,
                       detail::formatPieces(std::forward<Args>(args)...),
                       file, line);
}

template <typename... Args>
void
warn(Args &&...args)
{
    if (logVerbose()) {
        detail::emitLog("warn",
                        detail::formatPieces(std::forward<Args>(args)...));
    }
}

template <typename... Args>
void
inform(Args &&...args)
{
    if (logVerbose()) {
        detail::emitLog("info",
                        detail::formatPieces(std::forward<Args>(args)...));
    }
}

#define fg_panic(...) \
    ::flowguard::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define fg_fatal(...) \
    ::flowguard::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** Internal-invariant assertion; always on (not tied to NDEBUG). */
#define fg_assert(cond, ...)                                              \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::flowguard::panicAt(__FILE__, __LINE__,                      \
                                 "assertion failed: " #cond " "           \
                                 __VA_ARGS__);                            \
        }                                                                 \
    } while (0)

} // namespace flowguard

#endif // FLOWGUARD_SUPPORT_LOGGING_HH
