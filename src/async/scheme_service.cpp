#include "async/scheme_service.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "runtime/fault_injection.h"
#include "telemetry/obs.h"
#include "util/logging.h"

namespace snip {

SchemeUpdateResult
runSchemeUpdate(const SchemeUpdateRequest &request)
{
    obs::Scope span(trace::Category::Scheme, "scheme_solve", "epoch",
                    static_cast<int64_t>(request.epoch));
    const auto start = std::chrono::steady_clock::now();

    if (SNIP_FAULT_POINT("scheme.solve"))
        throw std::runtime_error("injected scheme.solve fault");

    // Step 4: divergence analysis on the snapshotted statistics.
    DivergenceAnalyzer analyzer(request.stats, &request.bwd_probe,
                                &request.fwd_probe, request.flops);
    const DivergenceTable table =
        analyzer.analyze(request.options, request.divergence);

    // Step 5: ILP solve.
    SchemeUpdateResult result;
    result.epoch = request.epoch;
    result.apply_step = request.apply_step;
    result.selection = selectScheme(table, request.target_fp4_fraction,
                                    request.flops, {}, request.pipeline);

    result.work_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    return result;
}

SchemeUpdateResult
runSchemeUpdateGuarded(const SchemeUpdateRequest &request)
{
    try {
        return runSchemeUpdate(request);
    } catch (const std::exception &e) {
        warn("scheme update epoch ", request.epoch, " failed: ",
             e.what(), "; the current scheme stays in effect");
        SchemeUpdateResult result;
        result.epoch = request.epoch;
        result.apply_step = request.apply_step;
        result.failed = true;
        return result;
    }
}

uint64_t
SchemeUpdateService::submit(SchemeUpdateRequest request)
{
    SNIP_ASSERT(request.epoch > 0, "epochs are 1-based");
    const uint64_t epoch = request.epoch;
    // The worker owns the snapshot; nothing in it aliases trainer
    // state, so the solve proceeds while training continues. The
    // guarded runner publishes even on failure, so the trainer's
    // blocking wait at the apply boundary always completes.
    auto req = std::make_shared<SchemeUpdateRequest>(std::move(request));
    worker_.submit([this, req] {
        trace::setCurrentThreadName("scheme-worker");
        publish(runSchemeUpdateGuarded(*req));
    });
    return epoch;
}

SchemeUpdateResult
SchemeUpdateService::wait(uint64_t epoch)
{
    util::MutexLock lock(mu_);
    while (result_.epoch < epoch)
        published_cv_.wait(mu_);
    SNIP_ASSERT(result_.epoch == epoch,
                "waited-for epoch was overwritten — more than one "
                "update in flight?");
    return result_;
}

void
SchemeUpdateService::publish(SchemeUpdateResult result)
{
    telemetry::count(telemetry::Counter::SchemePublishes);
    telemetry::addSeconds(telemetry::Seconds::SchemeWorker,
                          result.work_seconds);
    {
        util::MutexLock lock(mu_);
        result_ = std::move(result);
    }
    published_cv_.notifyAll();
}

} // namespace snip
