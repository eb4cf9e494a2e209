#include "runtime/thread_pool.h"

#include <algorithm>
#include <exception>

#include "runtime/env_config.h"
#include "telemetry/obs.h"
#include "util/logging.h"

namespace snip {
namespace runtime {

namespace {

/** Set while the current thread executes chunks (worker or caller), so
 *  nested parallelFor calls degrade to inline serial execution. */
thread_local bool t_in_parallel_region = false;

} // namespace

int
defaultThreadCount()
{
    return envConfig().threads();
}

/** One parallelFor invocation. Heap-held via shared_ptr so a worker
 *  that wakes late can never touch a dead job. */
struct ThreadPool::Job
{
    int64_t begin = 0;
    int64_t grain = 1;
    int64_t n_chunks = 0;
    const std::function<void(int64_t, int64_t)> *fn = nullptr;
    int64_t end = 0;

    std::atomic<int64_t> next_chunk{0};
    std::atomic<int64_t> done_chunks{0};
    /** Workers currently inside runChunks for this job (incremented
     *  under mu_ when a worker picks the job up). The submitter only
     *  recycles the storage once this drops to zero, so a straggler
     *  that finished its chunks but is still unwinding can never see
     *  the fields reinitialized under it. */
    std::atomic<int> active_workers{0};

    util::Mutex err_mu;
    /** First exception thrown by a chunk; rethrown by the submitter.
     *  The final read happens after all chunks completed (the
     *  done_chunks acquire), but taking err_mu there too keeps the
     *  contract machine-checked at negligible cost. */
    std::exception_ptr error SNIP_GUARDED_BY(err_mu);
};

ThreadPool::ThreadPool(int threads)
    : n_threads_(threads > 0 ? threads : defaultThreadCount())
{
    workers_.reserve(static_cast<size_t>(n_threads_ - 1));
    for (int i = 0; i < n_threads_ - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        util::MutexLock lk(mu_);
        stop_ = true;
    }
    wake_cv_.notifyAll();
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::inParallelRegion()
{
    return t_in_parallel_region;
}

void
ThreadPool::runChunks(Job &job)
{
    obs::Scope busy(telemetry::Seconds::PoolBusy);
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    for (;;) {
        // Relaxed: the ticket only claims an index; the chunk's
        // output is published by the done_chunks release below.
        const int64_t chunk =
            job.next_chunk.fetch_add(1, std::memory_order_relaxed);
        if (chunk >= job.n_chunks)
            break;
        const int64_t i0 = job.begin + chunk * job.grain;
        const int64_t i1 = std::min(i0 + job.grain, job.end);
        try {
            (*job.fn)(i0, i1);
        } catch (...) {
            util::MutexLock lk(job.err_mu);
            if (!job.error)
                job.error = std::current_exception();
        }
        // Release: publishes this chunk's writes (and any stored
        // exception) to the submitter's acquire load in parallelFor.
        job.done_chunks.fetch_add(1, std::memory_order_release);
    }
    t_in_parallel_region = was_in_region;
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0;
    for (;;) {
        std::shared_ptr<Job> job;
        {
            util::MutexLock lk(mu_);
            while (!stop_ && generation_ == seen)
                wake_cv_.wait(mu_);
            if (stop_)
                return;
            seen = generation_;
            job = job_;
            if (job)
                job->active_workers.fetch_add(
                    1, std::memory_order_relaxed);
        }
        if (!job)
            continue;
        runChunks(*job);
        // Read completion BEFORE dropping the active count: after the
        // decrement the submitter may recycle the Job's fields.
        // Acquire pairs with the other workers' release increments:
        // whoever observes the last chunk retired wakes the submitter.
        const bool all_done =
            job->done_chunks.load(std::memory_order_acquire) >=
            job->n_chunks;
        job->active_workers.fetch_sub(1, std::memory_order_release);
        if (all_done) {
            util::MutexLock lk(mu_);
            done_cv_.notifyAll();
        }
    }
}

void
ThreadPool::parallelFor(int64_t begin, int64_t end, int64_t grain,
                        const std::function<void(int64_t, int64_t)> &fn)
{
    if (end <= begin)
        return;
    if (grain < 1)
        grain = 1;
    const int64_t n = end - begin;
    const int64_t n_chunks = (n + grain - 1) / grain;

    // Timed and counted on every path (inline included) so job/chunk
    // totals are thread-count invariant: the chunking never depends on
    // n_threads_. The span is sampled (1 in 16 per submitter): B*H
    // fan-outs issue thousands of jobs per step and would flood the
    // flight recorder.
    static thread_local uint32_t t_trace_tick = 0;
    const bool traced =
        trace::enabled() && ((++t_trace_tick & 15u) == 0);
    obs::Scope job_scope(
        {telemetry::Timer::PoolJob, telemetry::Seconds::PoolWall},
        trace::Category::Pool, traced ? "parallel_for" : nullptr, "n", n,
        "chunks", n_chunks);
    telemetry::count(telemetry::Counter::PoolChunks, n_chunks);

    // Inline serial path: 1-thread pool, a single chunk, or a nested
    // call from inside a parallel region. Chunk boundaries are identical
    // to the parallel path, so numerics cannot differ.
    if (n_threads_ == 1 || n_chunks == 1 || t_in_parallel_region) {
        obs::Scope busy(telemetry::Seconds::PoolBusy);
        for (int64_t c = 0; c < n_chunks; ++c) {
            const int64_t i0 = begin + c * grain;
            fn(i0, std::min(i0 + grain, end));
        }
        return;
    }

    util::MutexLock submit_lk(submit_mu_);

    // Reuse the recycled Job unless a straggling worker from the
    // previous submission is still unwinding (acquire pairs with the
    // worker's release decrement; a stale non-zero read just costs one
    // allocation).
    std::shared_ptr<Job> job;
    if (job_storage_ &&
        job_storage_->active_workers.load(std::memory_order_acquire) ==
            0) {
        job = job_storage_;
        job->next_chunk.store(0, std::memory_order_relaxed);
        job->done_chunks.store(0, std::memory_order_relaxed);
        {
            util::MutexLock err_lk(job->err_mu);
            job->error = nullptr;
        }
    } else {
        job = std::make_shared<Job>();
        job_storage_ = job;
    }
    job->begin = begin;
    job->end = end;
    job->grain = grain;
    job->n_chunks = n_chunks;
    job->fn = &fn;

    {
        util::MutexLock lk(mu_);
        job_ = job;
        ++generation_;
    }
    wake_cv_.notifyAll();

    // The submitting thread works too.
    runChunks(*job);

    {
        util::MutexLock lk(mu_);
        // Acquire pairs with each worker's release increment, making
        // every chunk's writes visible to the submitter.
        while (job->done_chunks.load(std::memory_order_acquire) <
               job->n_chunks)
            done_cv_.wait(mu_);
        job_.reset();
    }

    {
        util::MutexLock err_lk(job->err_mu);
        if (job->error)
            std::rethrow_exception(job->error);
    }
}

namespace {

util::Mutex g_pool_mu;
// Intentionally leaked: a static destructor would join worker threads
// at exit, which deadlocks or crashes in processes that fork() with
// the pool alive (gtest death tests) and is hostage to static
// destruction order. The OS reclaims the threads at process exit.
ThreadPool *g_pool SNIP_GUARDED_BY(g_pool_mu) = nullptr;

} // namespace

ThreadPool &
globalThreadPool()
{
    util::MutexLock lk(g_pool_mu);
    if (!g_pool)
        g_pool = new ThreadPool();
    return *g_pool;
}

void
setGlobalThreadCount(int threads)
{
    util::MutexLock lk(g_pool_mu);
    delete g_pool; // join old workers before spawning replacements
    g_pool = new ThreadPool(threads);
}

void
parallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int64_t)> &fn)
{
    globalThreadPool().parallelFor(begin, end, grain, fn);
}

ThreadPool &
poolOrGlobal(ThreadPool *pool)
{
    return pool ? *pool : globalThreadPool();
}

} // namespace runtime
} // namespace snip
