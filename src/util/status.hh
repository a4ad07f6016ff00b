/**
 * @file
 * Structured error taxonomy for input-dependent failure paths.
 *
 * The library distinguishes "the caller handed us something bad" from
 * "the library has a bug". Bare asserts/throws conflate the two: a
 * malformed profile upload or an empty design space must be a *reported*
 * condition the process survives (and a server turns into an error
 * response), while an internal invariant violation should still fail
 * loudly. Status carries that distinction as data:
 *
 *  - Ok                 success
 *  - InvalidArgument    request/input is structurally wrong (empty
 *                       design space, unknown workload, bad flag value)
 *  - DeadlineExceeded   a cooperative deadline/cancellation fired; any
 *                       partial result is flagged degraded, not wrong
 *  - ResourceExhausted  a bound was hit (request queue full, input
 *                       larger than the configured limit)
 *  - Corrupt            bytes that claim to be a profile/report but
 *                       fail magic/version/checksum/bounds validation
 *  - Internal           everything that indicates a library bug; the
 *                       only code that should page a human
 *
 * Two idioms are supported so the taxonomy can thread through both
 * Status-returning new code and the existing exception-based call sites:
 * return a Status (preferred on hot/request paths), or throw StatusError
 * (derives std::runtime_error, so legacy `catch (std::exception)`
 * handlers keep working and now have a code to map).
 */

#ifndef MIPP_UTIL_STATUS_HH
#define MIPP_UTIL_STATUS_HH

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace mipp {

enum class StatusCode : uint8_t {
    Ok = 0,
    InvalidArgument,
    DeadlineExceeded,
    ResourceExhausted,
    Corrupt,
    Internal,
};

/** Stable wire/report name ("Ok", "InvalidArgument", ...). */
std::string_view statusCodeName(StatusCode c);

class Status
{
  public:
    Status() = default;  // Ok
    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {
    }

    static Status ok() { return {}; }

    bool isOk() const { return code_ == StatusCode::Ok; }
    explicit operator bool() const { return isOk(); }

    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "InvalidArgument: empty design space" (or "Ok"). */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

inline Status
invalidArgument(std::string msg)
{
    return {StatusCode::InvalidArgument, std::move(msg)};
}
inline Status
deadlineExceeded(std::string msg)
{
    return {StatusCode::DeadlineExceeded, std::move(msg)};
}
inline Status
resourceExhausted(std::string msg)
{
    return {StatusCode::ResourceExhausted, std::move(msg)};
}
inline Status
corrupt(std::string msg)
{
    return {StatusCode::Corrupt, std::move(msg)};
}
inline Status
internalError(std::string msg)
{
    return {StatusCode::Internal, std::move(msg)};
}

/**
 * Exception carrier for Status on legacy throw paths. Derives
 * std::runtime_error so existing catch blocks keep working; new code
 * should catch StatusError first to preserve the code.
 */
class StatusError : public std::runtime_error
{
  public:
    explicit StatusError(Status s)
        : std::runtime_error(s.toString()), status_(std::move(s))
    {
    }

    const Status &status() const { return status_; }
    StatusCode code() const { return status_.code(); }

  private:
    Status status_;
};

/** Throw @p s as a StatusError unless it is Ok. */
inline void
throwIfError(const Status &s)
{
    if (!s.isOk())
        throw StatusError(s);
}

} // namespace mipp

#endif // MIPP_UTIL_STATUS_HH
