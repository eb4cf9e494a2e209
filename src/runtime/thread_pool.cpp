#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "runtime/env_config.h"
#include "telemetry/obs.h"
#include "util/logging.h"

namespace snip {
namespace runtime {

namespace {

/** Set while the current thread executes chunks (worker or caller), so
 *  nested parallelFor calls degrade to inline serial execution. */
thread_local bool t_in_parallel_region = false;

// state_ layout (see thread_pool.h): the joined-worker count in the
// low 16 bits (the pool is capped at 512 threads), the closed flag,
// then the job generation.
constexpr uint64_t kJoinedMask = (uint64_t{1} << 16) - 1;
constexpr uint64_t kClosed = uint64_t{1} << 16;
constexpr int kGenerationShift = 17;
constexpr uint64_t kGenerationStep = uint64_t{1} << kGenerationShift;

uint64_t
generationOf(uint64_t state)
{
    return state >> kGenerationShift;
}

/** True when @p state holds an open job newer than generation @p seen. */
bool
joinable(uint64_t state, uint64_t seen)
{
    return (state & kClosed) == 0 && generationOf(state) != seen;
}

/** How long an idle worker polls for the next job, and a submitter for
 *  its last chunks, before parking on a condition variable. Long enough
 *  to span the serial gap between the jobs of one training step (a few
 *  to tens of microseconds), short enough that an idle pool sleeps
 *  almost at once. A constant by design: not a tuning knob. */
constexpr std::chrono::microseconds kSpinFor{100};

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/** Poll @p ready for up to kSpinFor; returns its last result. Yields
 *  the CPU about once a microsecond: a short syscall when the thread
 *  has a core to itself, and a turn for other runnable threads when it
 *  does not (more pool threads than cores, or other processes). */
template <class Ready>
bool
spinUntil(Ready ready)
{
    if (ready())
        return true;
    const auto deadline = std::chrono::steady_clock::now() + kSpinFor;
    for (;;) {
        for (int i = 0; i < 32; ++i) {
            cpuRelax();
            if (ready())
                return true;
        }
        if (std::chrono::steady_clock::now() >= deadline)
            return ready();
        std::this_thread::yield();
    }
}

} // namespace

int
defaultThreadCount()
{
    return envConfig().threads();
}

ThreadPool::ThreadPool(int threads)
    : n_threads_(threads > 0 ? threads : defaultThreadCount())
{
    workers_.reserve(static_cast<size_t>(n_threads_ - 1));
    for (int i = 0; i < n_threads_ - 1; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    // Relaxed: spinning workers poll it, and parked ones re-check it
    // under mu_, which the notify below takes after this store.
    stop_.store(true, std::memory_order_relaxed);
    {
        util::MutexLock lk(mu_);
        wake_cv_.notifyAll();
    }
    for (auto &w : workers_)
        w.join();
}

bool
ThreadPool::inParallelRegion()
{
    return t_in_parallel_region;
}

bool
ThreadPool::runChunks(Job &job)
{
    // Relaxed: the ticket only claims an index; the chunk's output is
    // published by the done_chunks increment below.
    int64_t chunk = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.n_chunks)
        return false; // joined too late: every chunk is taken
    obs::Scope busy(telemetry::Seconds::PoolBusy);
    const bool was_in_region = t_in_parallel_region;
    t_in_parallel_region = true;
    bool retired_last = false;
    for (; chunk < job.n_chunks;
         chunk = job.next_chunk.fetch_add(1, std::memory_order_relaxed)) {
        const int64_t i0 = job.begin + chunk * job.grain;
        const int64_t i1 = std::min(i0 + job.grain, job.end);
        try {
            (*job.fn)(i0, i1);
        } catch (...) {
            util::MutexLock lk(job.err_mu);
            if (!job.error)
                job.error = std::current_exception();
        }
        // Seq_cst (a release at least): publishes this chunk's writes
        // and any stored exception to the submitter's acquire loads,
        // and orders against submitter_parked_ — the finisher reads
        // that flag after this increment while a parking submitter
        // sets it before re-reading done_chunks, so one of the two
        // always sees the other.
        const int64_t done =
            job.done_chunks.fetch_add(1, std::memory_order_seq_cst);
        retired_last = done == job.n_chunks - 1;
    }
    t_in_parallel_region = was_in_region;
    return retired_last;
}

uint64_t
ThreadPool::awaitJob(uint64_t seen)
{
    uint64_t state = 0;
    // Acquire pairs with the submitter's publishing store: a joinable
    // word carries a fully written slot.
    auto ready = [&] {
        state = state_.load(std::memory_order_acquire);
        return stop_.load(std::memory_order_relaxed) || joinable(state, seen);
    };
    if (spinUntil(ready))
        return state;
    util::MutexLock lk(mu_);
    // Seq_cst pairs with the submitter's publish-then-check: either
    // this thread's re-read below sees the new generation, or the
    // submitter sees the count and notifies under mu_ (which it can
    // only take once this thread is waiting).
    parked_workers_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
        state = state_.load(std::memory_order_seq_cst);
        if (stop_.load(std::memory_order_relaxed) || joinable(state, seen))
            break;
        wake_cv_.wait(mu_);
    }
    parked_workers_.fetch_sub(1, std::memory_order_relaxed);
    return state;
}

void
ThreadPool::workerLoop()
{
    uint64_t seen = 0; // generation 0 is the empty initial slot
    for (;;) {
        uint64_t state = awaitJob(seen);
        if (stop_.load(std::memory_order_relaxed))
            return;
        // Join: count ourselves in only if the word is unchanged — the
        // generation is still the open one we saw. Acquire pairs with
        // the publishing store. On failure the slot was closed or a
        // newer job published since; look again.
        if (!state_.compare_exchange_strong(state, state + 1,
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed))
            continue;
        seen = generationOf(state);
        const bool retired_last = runChunks(job_);
        // Leave. Release pairs with the submitter's closing CAS: after
        // it, the submitter may rewrite the slot, so job_ is not
        // touched again below.
        state_.fetch_sub(1, std::memory_order_release);
        if (retired_last &&
            submitter_parked_.load(std::memory_order_seq_cst)) {
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

    // Close the slot. The CAS succeeds only once every worker that
    // joined the previous job has left (joined count zero), and from
    // then on no worker can join until the publish below. Relaxed
    // read: only this thread (under submit_mu_) moves the generation
    // and the closed flag. Acquire pairs with each leaving worker's
    // release decrement: their reads of the old job happen before the
    // rewrite.
    const uint64_t open_idle =
        state_.load(std::memory_order_relaxed) & ~kJoinedMask;
    for (uint64_t expect = open_idle;
         !state_.compare_exchange_weak(expect, open_idle | kClosed,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed);
         expect = open_idle)
        std::this_thread::yield(); // a straggler is still unwinding

    job_.begin = begin;
    job_.end = end;
    job_.grain = grain;
    job_.n_chunks = n_chunks;
    job_.fn = &fn;
    // Relaxed: published by the seq_cst (release) store below.
    job_.next_chunk.store(0, std::memory_order_relaxed);
    job_.done_chunks.store(0, std::memory_order_relaxed);

    // Publish: open, next generation, nobody joined. Seq_cst pairs
    // with a parking worker's count-then-re-read (awaitJob).
    state_.store(open_idle + kGenerationStep, std::memory_order_seq_cst);
    if (parked_workers_.load(std::memory_order_seq_cst) > 0) {
        util::MutexLock lk(mu_);
        wake_cv_.notifyAll();
    }

    // The submitting thread works too, then waits for the stragglers.
    // Acquire pairs with each chunk's done_chunks increment, making
    // every chunk's writes visible here.
    runChunks(job_);
    auto all_done = [&] {
        return job_.done_chunks.load(std::memory_order_acquire) >= n_chunks;
    };
    if (!spinUntil(all_done)) {
        util::MutexLock lk(mu_);
        // Seq_cst pairs with the finisher's increment-then-check in
        // runChunks/workerLoop (see there).
        submitter_parked_.store(true, std::memory_order_seq_cst);
        while (job_.done_chunks.load(std::memory_order_seq_cst) < n_chunks)
            done_cv_.wait(mu_);
        submitter_parked_.store(false, std::memory_order_relaxed);
    }

    std::exception_ptr error;
    {
        util::MutexLock err_lk(job_.err_mu);
        std::swap(error, job_.error);
    }
    if (error)
        std::rethrow_exception(error);
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
