/**
 * @file
 * Shared pieces of the repository benchmark program: run options, the
 * result record every workload fills, the metric tables, order
 * statistics, the benchmark-side span log, and telemetry deltas.
 *
 * The benchmark measures the program from outside: it calls public entry
 * points of each module and times them itself. The program's own
 * counters are read through telemetry::snapshot() deltas in traced
 * runs only; end-to-end runs force telemetry and span tracing off.
 */
#ifndef SNIP_PERFBENCH_COMMON_H
#define SNIP_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace snip {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

inline double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    /** Wall seconds the measured phase lasts. */
    double seconds = 10.0;
    /** false: end-to-end metrics, telemetry off. true: per-layer
     *  metrics from a traced replay. */
    bool trace = false;
    int threads = 1;
    /** Where the traced run writes its span log (Chrome trace JSON);
     *  empty = keep in memory only. */
    std::string span_path;
};

/** One reported number. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Outcome
{
    std::vector<Metric> metrics;
    int64_t attempted = 0;
    int64_t failed = 0;
    /** Correctness failures; empty = correct. */
    std::vector<std::string> problems;
    /** Determinism fingerprint of the run's outputs at this seed
     *  (loss bits or generated tokens), compared across runs. */
    uint32_t output_crc = 0;

    void add(const std::string &name, double value, const char *unit);
    /** Record @p what as a correctness failure unless @p ok. */
    void check(bool ok, const std::string &what);
};

/** Name and unit of every end-to-end metric, in report order. Each is
 *  measured on every workload; see perfbench/METRICS.md. */
const std::vector<Metric> &endToEndTable();

/** Name and unit of every per-layer metric, in report order. A layer
 *  that is not on a workload's path reports 0. */
const std::vector<Metric> &perLayerTable();

Outcome runTrain(const RunOptions &opts, bool snip);
Outcome runServe(const RunOptions &opts);

// ------------------------------------------------------------ statistics

/** Linear-interpolated quantile (q in [0,1]) of @p v; 0 when empty. */
double quantile(std::vector<double> v, double q);

double mean(const std::vector<double> &v);

/**
 * Indices of the least-disturbed episodes of a run: the tenth with the
 * lowest @p cost (at least 3, all of them when fewer). Every episode
 * repeats identical work, so the cheapest ones are those the host
 * disturbed least; statistics pooled over them discard the stretches
 * in which other tenants slowed the machine (on shared 4-vCPU hosts,
 * by 30-50% for seconds at a time).
 */
std::vector<size_t> leastDisturbed(const std::vector<double> &cost);

/** Process peak resident set (VmHWM) in MiB; 0 if unreadable. */
double peakRssMb();

/**
 * Median over @p reps repetitions of the mean ns per item of @p fn,
 * where one call processes @p items items and each repetition runs it
 * for at least @p min_rep_s seconds.
 */
template <typename Fn>
double
nsPerItem(Fn &&fn, double items, int reps, double min_rep_s)
{
    fn(); // warm caches and lazily built state
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        int64_t calls = 0;
        const auto t0 = Clock::now();
        double dt = 0.0;
        do {
            fn();
            ++calls;
            dt = secondsSince(t0);
        } while (dt < min_rep_s);
        per.push_back(dt * 1e9 / (static_cast<double>(calls) * items));
    }
    return quantile(per, 0.5);
}

// ---------------------------------------------------------- span log

/**
 * The benchmark's own spans around calls into the program: name,
 * start, duration and the step or request they belong to. Kept in
 * memory and written as Chrome trace-event JSON at the end of a traced
 * run.
 */
class SpanLog
{
  public:
    struct Span
    {
        const char *name;
        double t0_s;
        double dur_s;
        int64_t unit;
    };

    SpanLog();

    /** Record a finished span and return its duration in seconds. */
    double record(const char *name, Clock::time_point t0,
                  Clock::time_point t1, int64_t unit);

    /** Write every span as Chrome trace-event JSON; false on I/O
     *  error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
};

// ------------------------------------------------------ telemetry

/** Program counters accumulated between two telemetry snapshots. */
struct CounterDelta
{
    double gemm_s = 0.0;
    double gemm_flops = 0.0;
    double gemm_packed_calls = 0.0;
    double gemm_legacy_calls = 0.0;
    double pack_hits = 0.0;
    double pack_rebuilds = 0.0;
    double attn_fwd_s = 0.0;
    double attn_bwd_s = 0.0;
    double pool_busy_s = 0.0;
    double pool_wall_s = 0.0;

    /** Add after - before. */
    void accumulate(const telemetry::Snapshot &before,
                    const telemetry::Snapshot &after);
    void add(const CounterDelta &other);
};

/**
 * Report the tensor/ and runtime/ per-layer metrics of @p d, with
 * per-unit values divided by @p units (steps or requests).
 */
void addCounterMetrics(Outcome &out, const CounterDelta &d, double units,
                       int threads);

} // namespace perfbench
} // namespace snip

#endif // SNIP_PERFBENCH_COMMON_H
