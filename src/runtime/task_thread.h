/**
 * @file
 * A single dedicated background executor.
 *
 * TaskThread complements ThreadPool: the pool runs *data-parallel*
 * chunked loops on the trainer's critical path, while a TaskThread runs
 * whole *tasks* (e.g. an ILP solve) off the critical path, one at a
 * time, in submission order. Keeping the two separate means background
 * work never contends for the pool's job slot with the kernels the
 * trainer is executing — the pool serializes concurrent submissions, so
 * routing long-running background tasks through it would stall training.
 *
 * The worker thread is started lazily on the first submit(), so a
 * TaskThread that is never used (e.g. a controller in inline mode)
 * costs nothing. Tasks run strictly FIFO. The destructor runs every
 * task submitted before it, then joins.
 */
#ifndef SNIP_RUNTIME_TASK_THREAD_H
#define SNIP_RUNTIME_TASK_THREAD_H

#include <deque>
#include <functional>
#include <thread>

#include "util/thread_annotations.h"

namespace snip {
namespace runtime {

/** FIFO single-thread task executor (see file comment). */
class TaskThread
{
  public:
    TaskThread() = default;
    ~TaskThread();

    TaskThread(const TaskThread &) = delete;
    TaskThread &operator=(const TaskThread &) = delete;

    /** Enqueue @p fn; starts the worker on first use. Tasks must not
     *  throw (a throwing task panics — background work has no caller
     *  to rethrow into). */
    void submit(std::function<void()> fn);

  private:
    void workerLoop();

    util::Mutex mu_;
    util::CondVar wake_cv_;
    std::deque<std::function<void()>> queue_ SNIP_GUARDED_BY(mu_);
    /** Started (at most once) under mu_ by the first submit(); joined
     *  by the destructor after stop_ is set, when no other thread may
     *  touch this object anymore — so the join itself needs no lock. */
    std::thread worker_;
    bool started_ SNIP_GUARDED_BY(mu_) = false;
    bool stop_ SNIP_GUARDED_BY(mu_) = false;
};

} // namespace runtime
} // namespace snip

#endif // SNIP_RUNTIME_TASK_THREAD_H
