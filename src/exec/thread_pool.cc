#include "exec/thread_pool.hh"

#include <algorithm>
#include <cstdlib>

#include "common/parse.hh"

namespace consim
{

ThreadPool::ThreadPool(int threads)
{
    const int n = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        jobs_.push_back(std::move(job));
        ++inFlight_;
    }
    workAvailable_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    allDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workAvailable_.wait(lock, [this] {
                return stopping_ || !jobs_.empty();
            });
            if (jobs_.empty())
                return; // stopping and drained
            job = std::move(jobs_.front());
            jobs_.pop_front();
        }
        job();
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

int
ThreadPool::defaultThreads()
{
    // Strict parse: CONSIM_JOBS=garbage is fatal rather than silently
    // falling back to hardware_concurrency.
    const int jobs =
        envIntInRange("CONSIM_JOBS", 1, 4096, 0 /* unset */);
    if (jobs > 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

} // namespace consim
