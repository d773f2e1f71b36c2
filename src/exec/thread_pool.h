#ifndef SMARTCONF_EXEC_THREAD_POOL_H_
#define SMARTCONF_EXEC_THREAD_POOL_H_

/**
 * @file
 * The executor: an index-claiming fork/join pool.
 *
 * Everything this repo runs in parallel is a grid of independent,
 * index-addressed work — a sweep's (scenario, policy, seed) runs, a
 * fleet epoch's tenant groups — so the pool offers one operation,
 * parallelFor(n, body).  A pool of size k is k − 1 parked helper
 * threads plus the calling thread: parallelFor wakes the helpers, and
 * every runner, the caller included, claims indices from one atomic
 * counter until none are left.
 *
 * Determinism: body(i) writes its result to slot i, so which runner
 * claims an index decides when it runs, never where its result lands;
 * output is the same at every pool size.  ThreadPool(0) and
 * ThreadPool(1) spawn no thread and run the indices on the caller in
 * index order.
 *
 * Exceptions: every index runs even when bodies throw; afterwards the
 * exception of the lowest throwing index is rethrown.
 */

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace smartconf::exec {

class ThreadPool
{
  public:
    /** @p threads runners: the caller plus threads − 1 helper threads
     *  (0 counts as 1). */
    explicit ThreadPool(std::size_t threads);

    /** Joins the helpers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Runners per parallelFor call, the caller included. */
    std::size_t size() const { return helpers_.size() + 1; }

    /**
     * Run body(i) for every i in [0, n) on the caller and the helpers;
     * returns once every index has run.  If bodies throw, the
     * lowest-index exception is rethrown after all indices have run.
     * Calls from different threads are serialized; a body must not
     * call parallelFor on its own pool.
     */
    template <typename Body>
    void parallelFor(std::size_t n, Body &&body)
    {
        run(n,
            const_cast<void *>(
                static_cast<const void *>(std::addressof(body))),
            [](void *b, std::size_t i) {
                (*static_cast<std::remove_reference_t<Body> *>(b))(i);
            });
    }

    /**
     * Sensible pool size for this machine:
     * std::thread::hardware_concurrency(), or 1 when unknown.
     */
    static std::size_t defaultConcurrency();

  private:
    using Invoke = void (*)(void *, std::size_t);

    void run(std::size_t n, void *body, Invoke invoke);
    void claimAll() noexcept;
    void helperLoop(std::size_t index);
    void joinHelpers() noexcept;

    std::mutex call_mutex_; ///< one parallelFor at a time

    /** Guards the members below, except the claim counter. */
    std::mutex mutex_;
    std::condition_variable wake_; ///< helpers: new job or stop
    std::condition_variable done_; ///< caller: participants finished
    std::uint64_t generation_ = 0; ///< bumped once per job
    std::size_t participants_ = 0; ///< helpers [0, p) join this job
    std::size_t pending_ = 0;      ///< participants still claiming
    bool stopping_ = false;

    // The current job, published under mutex_ with generation_.
    std::size_t n_ = 0;
    void *body_ = nullptr;
    Invoke invoke_ = nullptr;
    std::atomic<std::size_t> next_{0}; ///< index claim counter
    std::exception_ptr error_;
    std::size_t error_index_ = 0;

    std::vector<std::thread> helpers_;
};

} // namespace smartconf::exec

#endif // SMARTCONF_EXEC_THREAD_POOL_H_
