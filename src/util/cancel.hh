/**
 * @file
 * Cooperative cancellation and deadlines.
 *
 * A CancelToken is a cheap copyable handle checked at natural yield
 * points (per sweep chunk, per batch, per detailed-sim invocation). It
 * cancels for two reasons, which callers need not distinguish at check
 * sites:
 *
 *  - an explicit cancel() from another thread (client disconnected,
 *    server shutting down);
 *  - a wall-clock deadline passing (per-request budgets).
 *
 * The default-constructed token is "null": it never cancels and checks
 * cost a single pointer test, so hot loops can check unconditionally.
 * Deadline checks intentionally read the clock only when a deadline was
 * actually set.
 *
 * Cancellation here is *graceful degradation*, not abort: the sweep
 * loops stop starting new work, keep everything already computed, and
 * return a partial result flagged degraded (see SweepResult::degraded).
 */

#ifndef MIPP_UTIL_CANCEL_HH
#define MIPP_UTIL_CANCEL_HH

#include <atomic>
#include <chrono>
#include <memory>

namespace mipp {

class CancelToken
{
    using Clock = std::chrono::steady_clock;

    struct State {
        std::atomic<bool> cancelled{false};
        bool hasDeadline = false;
        Clock::time_point deadline{};
    };

  public:
    /** Null token: never cancels. */
    CancelToken() = default;

    /** Cancellable token without a deadline. */
    static CancelToken
    manual()
    {
        CancelToken t;
        t.state_ = std::make_shared<State>();
        return t;
    }

    /** Token that cancels @p ms milliseconds from now (and can also be
     *  cancelled manually). Non-positive @p ms is already expired. */
    static CancelToken
    withDeadlineMs(double ms)
    {
        CancelToken t = manual();
        t.state_->hasDeadline = true;
        t.state_->deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   ms > 0 ? ms : 0));
        return t;
    }

    /** Request cancellation (thread-safe; no-op on a null token). */
    void
    cancel() const
    {
        if (state_)
            state_->cancelled.store(true, std::memory_order_relaxed);
    }

    /** True once cancel() was called or the deadline passed. */
    bool
    cancelled() const
    {
        if (!state_)
            return false;
        if (state_->cancelled.load(std::memory_order_relaxed))
            return true;
        if (state_->hasDeadline && Clock::now() >= state_->deadline) {
            // Latch: later checks skip the clock read.
            state_->cancelled.store(true, std::memory_order_relaxed);
            return true;
        }
        return false;
    }

    /** Identity of the shared state (null token = nullptr); lets
     *  registries match tokens without exposing the state itself. */
    const void *id() const { return state_.get(); }

  private:
    std::shared_ptr<State> state_;
};

} // namespace mipp

#endif // MIPP_UTIL_CANCEL_HH
