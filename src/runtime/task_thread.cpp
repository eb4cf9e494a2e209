#include "runtime/task_thread.h"

#include "util/logging.h"

namespace snip {
namespace runtime {

TaskThread::~TaskThread()
{
    {
        util::MutexLock lock(mu_);
        stop_ = true;
    }
    wake_cv_.notifyAll();
    if (worker_.joinable())
        worker_.join();
}

void
TaskThread::submit(std::function<void()> fn)
{
    SNIP_ASSERT(fn, "null task submitted");
    {
        util::MutexLock lock(mu_);
        SNIP_ASSERT(!stop_, "submit after TaskThread shutdown");
        queue_.push_back(std::move(fn));
        if (!started_) {
            started_ = true;
            worker_ = std::thread([this] { workerLoop(); });
        }
    }
    wake_cv_.notifyOne();
}

void
TaskThread::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            util::MutexLock lock(mu_);
            while (!stop_ && queue_.empty())
                wake_cv_.wait(mu_);
            // Drain remaining tasks even when stopping, so destruction
            // never drops submitted work.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace runtime
} // namespace snip
