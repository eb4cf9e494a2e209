/**
 * @file
 * The instrumentation primitive: one obs::Scope per measured interval.
 *
 * A Scope samples one clock pair (obs::nowNs) and feeds every armed
 * output from it — the telemetry histogram and/or seconds accumulator
 * of its Metric, and the trace span of its name — so a timed site is
 * one declaration, the histogram and the span of one interval always
 * agree, and a site can never record one without the other:
 *
 *   obs::Scope scope(telemetry::Timer::Gemm, trace::Category::Gemm,
 *                    "gemm", "m", m, "n", n);   // histogram + span
 *   obs::Scope span(trace::Category::Train, "fwd", "step", step);
 *   obs::Scope busy(telemetry::Seconds::PoolBusy);  // seconds only
 *
 * With both outputs off, construction is one relaxed load of the shared
 * recording state (sink.h) and a predicted branch; no clock is read and
 * nothing is written. Armed, it performs no heap allocation once the
 * thread's telemetry shard and trace ring exist. Like both outputs, a
 * Scope observes and never steers: no kernel branches on it.
 */
#ifndef SNIP_TELEMETRY_OBS_H
#define SNIP_TELEMETRY_OBS_H

#include <cstdint>

#include "telemetry/sink.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"

namespace snip {
namespace obs {

/** The telemetry side of a Scope: a Timer histogram, a Seconds
 *  accumulator, both (the same interval in each), or neither. */
struct Metric
{
    constexpr Metric() = default;
    constexpr Metric(telemetry::Timer t) : timer(static_cast<int>(t)) {}
    constexpr Metric(telemetry::Seconds s) : seconds(static_cast<int>(s))
    {
    }
    constexpr Metric(telemetry::Timer t, telemetry::Seconds s)
        : timer(static_cast<int>(t)), seconds(static_cast<int>(s))
    {
    }

    int timer = -1;
    int seconds = -1;
};

class Scope
{
  public:
    /**
     * Measure until destruction into @p metric and the span @p name of
     * @p cat (null @p name: no span, e.g. for a sampled site). The
     * name and arg keys must be string literals; the args are
     * captured here.
     */
    Scope(Metric metric, trace::Category cat, const char *name,
          const char *k0 = nullptr, int64_t v0 = 0,
          const char *k1 = nullptr, int64_t v1 = 0)
        : metric_(metric), cat_(cat), name_(name), k0_(k0), v0_(v0),
          k1_(k1), v1_(v1), armed_(recording(wanted(metric, name)))
    {
        if (armed_ != 0)
            t0_ns_ = nowNs();
    }

    /** A span only. */
    Scope(trace::Category cat, const char *name,
          const char *k0 = nullptr, int64_t v0 = 0,
          const char *k1 = nullptr, int64_t v1 = 0)
        : Scope(Metric(), cat, name, k0, v0, k1, v1)
    {
    }

    /** Telemetry only. */
    explicit Scope(Metric metric)
        : Scope(metric, trace::Category::Train, nullptr)
    {
    }

    ~Scope()
    {
        if (armed_ == 0)
            return;
        const int64_t dur_ns = nowNs() - t0_ns_;
        if ((armed_ & kTelemetry) != 0) {
            const double seconds = static_cast<double>(dur_ns) * 1e-9;
            if (metric_.timer >= 0)
                telemetry::recordTimer(
                    static_cast<telemetry::Timer>(metric_.timer), seconds);
            if (metric_.seconds >= 0)
                telemetry::addSeconds(
                    static_cast<telemetry::Seconds>(metric_.seconds),
                    seconds);
        }
        if ((armed_ & kTrace) != 0)
            trace::record(cat_, name_, t0_ns_, dur_ns, k0_, v0_, k1_, v1_);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    /** The outputs a scope with these targets can feed. */
    static constexpr int
    wanted(Metric metric, const char *name)
    {
        return (metric.timer >= 0 || metric.seconds >= 0 ? kTelemetry
                                                          : 0) |
               (name != nullptr ? kTrace : 0);
    }

    Metric metric_;
    trace::Category cat_;
    const char *name_;
    const char *k0_;
    int64_t v0_;
    const char *k1_;
    int64_t v1_;
    int armed_;
    int64_t t0_ns_ = 0;
};

} // namespace obs
} // namespace snip

#endif // SNIP_TELEMETRY_OBS_H
