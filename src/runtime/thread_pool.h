/**
 * @file
 * Deterministic parallel execution runtime.
 *
 * A fixed-size, work-stealing-free thread pool plus a parallelFor
 * primitive built on static range partitioning: the loop range is cut
 * into chunks whose boundaries depend only on the range and the grain —
 * never on the number of workers — and each chunk is executed as one
 * self-contained unit. Kernels built on it (GEMM, quantization, stats,
 * eval) therefore produce bit-identical results for ANY thread count:
 * floating-point accumulation order inside a chunk is fixed, and chunks
 * write disjoint outputs. This is the data-parallel partition/join
 * discipline of DaPPA and the Parallel PM model (see PAPERS.md) applied
 * to a CPU pool.
 *
 * Contract for parallelFor bodies: fn(i0, i1) must only write state
 * reachable from indices [i0, i1) (disjoint-write rule) and must not
 * depend on chunk boundaries for its numerics. All library kernels obey
 * this.
 *
 * One pool is shared per process (globalThreadPool()); its size comes
 * from the SNIP_THREADS environment variable, defaulting to
 * std::thread::hardware_concurrency(). Nested parallelFor calls (from
 * inside a worker, or re-entrantly from a caller thread that is already
 * executing chunks) run inline and serial, so composed kernels are
 * deadlock-free by construction.
 *
 * Dispatch is spin-then-park over one pool-owned job slot. Idle workers
 * poll an atomic job generation for a short fixed bound before parking
 * on a condition variable, and the submitter notifies only when some
 * worker is actually parked; symmetrically, the submitter spins on the
 * job's completion count before parking, and the worker that retires
 * the last chunk notifies only a parked submitter. Back-to-back jobs —
 * the common case inside a training step — therefore never sleep or
 * pay for a wakeup, and a submission allocates nothing.
 */
#ifndef SNIP_RUNTIME_THREAD_POOL_H
#define SNIP_RUNTIME_THREAD_POOL_H

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace snip {
namespace runtime {

/** Worker count from SNIP_THREADS (clamped to [1, 512]), else
 *  hardware_concurrency(), else 1. */
int defaultThreadCount();

/**
 * Fixed-size thread pool executing chunked index ranges.
 *
 * The pool owns numThreads()-1 worker threads; the thread that submits
 * a parallelFor participates as the remaining worker, so a 1-thread
 * pool spawns no threads at all and runs everything inline.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; <= 0 means defaultThreadCount(). */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total workers (including the submitting thread). */
    int numThreads() const { return n_threads_; }

    /**
     * Apply fn(i0, i1) to chunks covering [begin, end).
     *
     * Chunk boundaries are begin + j*grain for j = 0.. — a pure
     * function of (begin, end, grain). Chunks are claimed dynamically
     * but, by the disjoint-write rule, scheduling order cannot affect
     * results. Empty ranges return immediately; grain < 1 is treated
     * as 1. The first exception thrown by fn is rethrown on the
     * calling thread after all chunks finish. Re-entrant calls run
     * inline and serial.
     */
    void parallelFor(int64_t begin, int64_t end, int64_t grain,
                     const std::function<void(int64_t, int64_t)> &fn);

    /** True when the current thread is executing a parallelFor chunk
     *  (worker or participating caller). */
    static bool inParallelRegion();

  private:
    /** One parallelFor invocation, held in the pool's single job slot.
     *  The submitter writes the plain fields only while the slot is
     *  closed and no worker has joined it (see state_), so every worker
     *  that joins sees them fully formed and never sees them change. */
    struct Job
    {
        int64_t begin = 0;
        int64_t end = 0;
        int64_t grain = 1;
        int64_t n_chunks = 0;
        const std::function<void(int64_t, int64_t)> *fn = nullptr;

        alignas(64) std::atomic<int64_t> next_chunk{0};
        alignas(64) std::atomic<int64_t> done_chunks{0};

        util::Mutex err_mu;
        /** First exception thrown by a chunk; the submitter moves it
         *  out (and rethrows it) once every chunk has finished. */
        std::exception_ptr error SNIP_GUARDED_BY(err_mu);
    };

    void workerLoop();
    /** Wait (spin, then park) until a job newer than @p seen is open
     *  for joining or the pool stops; returns the state_ word seen. */
    uint64_t awaitJob(uint64_t seen);
    /** Claim and run chunks until none are left; true when this call
     *  retired the job's last chunk. */
    static bool runChunks(Job &job);

    int n_threads_;
    std::vector<std::thread> workers_;

    /** Serializes concurrent parallelFor submissions from distinct
     *  non-worker threads (the pool runs one job at a time), and with
     *  it every write to job_. Lock hierarchy: submit_mu_ is taken
     *  strictly before mu_, never the reverse (workers only ever take
     *  mu_). */
    util::Mutex submit_mu_ SNIP_ACQUIRED_BEFORE(mu_);

    /** Guards nothing but the park/wake handshakes: a thread parks on
     *  wake_cv_ / done_cv_ under mu_, and a notifier takes mu_ before
     *  notifying, so a wakeup cannot fall between a parker's last
     *  check and its wait. */
    util::Mutex mu_;
    util::CondVar wake_cv_;
    util::CondVar done_cv_;

    Job job_;
    /** The slot's join word: job generation (bits 17 and up), a closed
     *  flag (bit 16) and the number of workers currently joined (bits
     *  0-15). A worker joins with one CAS that increments the count
     *  only if the generation is still the one it saw and the slot is
     *  open — the increment and the generation re-check are one atomic
     *  step. The submitter closes the slot with a CAS that succeeds
     *  only at a zero count, rewrites job_, then publishes the next
     *  generation with the slot open and the count zero. */
    alignas(64) std::atomic<uint64_t> state_{0};
    /** Workers parked (or about to park) on wake_cv_; the submitter
     *  takes mu_ and notifies only when this is non-zero. */
    std::atomic<int> parked_workers_{0};
    /** Set while the submitter is parked (or about to park) on
     *  done_cv_; the worker that retires the last chunk notifies only
     *  when it is set. */
    std::atomic<bool> submitter_parked_{false};
    /** Set once, by the destructor; spinning workers poll it and
     *  parked ones re-check it when woken. */
    std::atomic<bool> stop_{false};
};

/** The process-wide shared pool (created on first use). */
ThreadPool &globalThreadPool();

/**
 * Replace the global pool with one of @p threads workers (<= 0 restores
 * the SNIP_THREADS/hardware default). Intended for tests and benches
 * that sweep thread counts; must not race with in-flight parallel work.
 */
void setGlobalThreadCount(int threads);

/** parallelFor on the global pool. */
void parallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)> &fn);

/** @p pool if non-null, else the global pool (helper for call sites
 *  that thread an explicit pool handle through). */
ThreadPool &poolOrGlobal(ThreadPool *pool);

} // namespace runtime
} // namespace snip

#endif // SNIP_RUNTIME_THREAD_POOL_H
