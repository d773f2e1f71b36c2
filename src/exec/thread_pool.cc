#include "exec/thread_pool.h"

#include <algorithm>
#include <utility>

namespace smartconf::exec {

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t helpers = threads > 1 ? threads - 1 : 0;
    helpers_.reserve(helpers);
    try {
        for (std::size_t i = 0; i < helpers; ++i)
            helpers_.emplace_back([this, i] { helperLoop(i); });
    } catch (...) {
        joinHelpers(); // a failed spawn must not leave threads running
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    joinHelpers();
}

void
ThreadPool::joinHelpers() noexcept
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : helpers_)
        t.join();
}

void
ThreadPool::run(std::size_t n, void *body, Invoke invoke)
{
    if (n == 0)
        return;
    std::lock_guard<std::mutex> call(call_mutex_);
    // A job of n indices has work for at most n − 1 helpers besides
    // the caller; one index never wakes anyone.
    const std::size_t participants = std::min(helpers_.size(), n - 1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        n_ = n;
        body_ = body;
        invoke_ = invoke;
        next_.store(0);
        participants_ = pending_ = participants;
        ++generation_;
    }
    if (participants != 0)
        wake_.notify_all();

    claimAll();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        // Every participant must check out before the job's slots —
        // and the caller's stack that body points into — go away.
        done_.wait(lock, [this] { return pending_ == 0; });
        error = std::exchange(error_, nullptr);
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::claimAll() noexcept
{
    for (;;) {
        const std::size_t i = next_.fetch_add(1);
        if (i >= n_)
            return;
        try {
            invoke_(body_, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!error_ || i < error_index_) {
                error_ = std::current_exception();
                error_index_ = i;
            }
        }
    }
}

void
ThreadPool::helperLoop(std::size_t index)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        wake_.wait(lock,
                   [&] { return stopping_ || generation_ != seen; });
        if (stopping_)
            return;
        seen = generation_;
        if (index >= participants_)
            continue; // not needed for this job; touch nothing of it
        lock.unlock();
        claimAll();
        lock.lock();
        if (--pending_ == 0)
            done_.notify_one();
    }
}

std::size_t
ThreadPool::defaultConcurrency()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

} // namespace smartconf::exec
