/**
 * @file
 * ThreadPool: a fixed-size work-queue pool for the sweep engine
 * (independent simulations on independent OS threads).
 */

#ifndef CONSIM_EXEC_THREAD_POOL_HH
#define CONSIM_EXEC_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace consim
{

/** Fixed-size worker pool draining a FIFO job queue. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (>= 1; clamped). */
    explicit ThreadPool(int threads);

    /** Drains remaining jobs, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue a job. Jobs must not throw. */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    /** @return number of worker threads. */
    int threadCount() const { return static_cast<int>(workers_.size()); }

    /**
     * @return worker count from the CONSIM_JOBS environment variable,
     * falling back to std::thread::hardware_concurrency().
     */
    static int defaultThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> jobs_;
    std::mutex mu_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    std::size_t inFlight_ = 0; ///< queued + executing
    bool stopping_ = false;
};

} // namespace consim

#endif // CONSIM_EXEC_THREAD_POOL_HH
