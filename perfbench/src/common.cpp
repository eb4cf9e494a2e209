#include "common.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "util/file_io.h"
#include "util/string_util.h"

namespace snip {
namespace perfbench {

void
Outcome::add(const std::string &name, double value, const char *unit)
{
    metrics.push_back({name, value, unit});
}

void
Outcome::check(bool ok, const std::string &what)
{
    if (!ok)
        problems.push_back(what);
}

const std::vector<Metric> &
endToEndTable()
{
    static const std::vector<Metric> t = {
        {"setup_s", 0.0, "s"},
        {"tokens_per_s", 0.0, "tok/s"},
        {"latency_ms_p50", 0.0, "ms"},
        {"latency_ms_tail", 0.0, "ms"},
        {"first_ms_p50", 0.0, "ms"},
        {"peak_rss_mb", 0.0, "MiB"},
    };
    return t;
}

const std::vector<Metric> &
perLayerTable()
{
    static const std::vector<Metric> t = {
        {"data.batch_ms", 0.0, "ms"},
        {"nn.fwd_ms", 0.0, "ms"},
        {"nn.bwd_ms", 0.0, "ms"},
        {"nn.attn_fwd_ms", 0.0, "ms"},
        {"nn.attn_bwd_ms", 0.0, "ms"},
        {"optim.step_ms", 0.0, "ms"},
        {"train.unattributed_ms", 0.0, "ms"},
        {"train.scheme_update_ms", 0.0, "ms"},
        {"train.loss_final", 0.0, "nats"},
        {"trace.overhead_ms", 0.0, "ms"},
        {"quant.sr_ns_per_elem", 0.0, "ns"},
        {"quant.rtn_ns_per_elem", 0.0, "ns"},
        {"tensor.gemm_ms", 0.0, "ms"},
        {"tensor.gemm_gflops", 0.0, "GFLOP/s"},
        {"tensor.gemm_packed_calls", 0.0, "count"},
        {"tensor.gemm_legacy_calls", 0.0, "count"},
        {"tensor.pack_cache_hit_frac", 0.0, "ratio"},
        {"runtime.pool_util", 0.0, "ratio"},
        {"runtime.arena_peak_mb", 0.0, "MiB"},
        {"core.stats_ms", 0.0, "ms"},
        {"core.probe_ms", 0.0, "ms"},
        {"core.divergence_ms", 0.0, "ms"},
        {"ilp.solve_ms", 0.0, "ms"},
        {"schemes.fp4_flop_frac", 0.0, "ratio"},
        {"serve.prefill_ms_per_req", 0.0, "ms"},
        {"serve.decode_step_ms", 0.0, "ms"},
        {"serve.decode_width_mean", 0.0, "seqs"},
        {"serve.kv_pages_peak", 0.0, "pages"},
        {"serve.kv_append_ns_per_row", 0.0, "ns"},
        {"serve.kv_gather_ns_per_row", 0.0, "ns"},
    };
    return t;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
mean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += x;
    return acc / static_cast<double>(v.size());
}

std::vector<size_t>
leastDisturbed(const std::vector<double> &cost)
{
    std::vector<size_t> idx(cost.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return cost[a] < cost[b]; });
    const size_t keep = std::min(idx.size(),
                                 std::max<size_t>(3, (idx.size() + 9) / 10));
    idx.resize(keep);
    std::sort(idx.begin(), idx.end());
    return idx;
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

SpanLog::SpanLog() : origin_(Clock::now()) { spans_.reserve(1 << 16); }

double
SpanLog::record(const char *name, Clock::time_point t0,
                Clock::time_point t1, int64_t unit)
{
    const double dur = secondsBetween(t0, t1);
    spans_.push_back({name, secondsBetween(origin_, t0), dur, unit});
    return dur;
}

bool
SpanLog::writeChromeJson(const std::string &path) const
{
    std::string doc = "{\"traceEvents\":[\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        doc += strformat("{\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                         "\"cat\":\"perfbench\",\"name\":\"%s\","
                         "\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"unit\":%lld}}%s\n",
                         s.name, s.t0_s * 1e6, s.dur_s * 1e6,
                         static_cast<long long>(s.unit),
                         i + 1 < spans_.size() ? "," : "");
    }
    doc += "]}\n";
    return fsio::writeFileAtomic(path, doc, /*durable=*/false);
}

void
CounterDelta::accumulate(const telemetry::Snapshot &before,
                         const telemetry::Snapshot &after)
{
    using telemetry::Counter;
    using telemetry::Seconds;
    using telemetry::Timer;
    auto counter = [&](Counter c) {
        return static_cast<double>(after.counter(c) - before.counter(c));
    };
    auto timer = [&](Timer t) {
        return after.timer(t).sum_seconds - before.timer(t).sum_seconds;
    };
    auto seconds = [&](Seconds s) {
        return after.secondsOf(s) - before.secondsOf(s);
    };
    gemm_s += timer(Timer::Gemm);
    gemm_flops += counter(Counter::GemmFlops);
    gemm_packed_calls += counter(Counter::GemmPackedCalls);
    gemm_legacy_calls += counter(Counter::GemmLegacyCalls);
    pack_hits += counter(Counter::PackCacheHits);
    pack_rebuilds += counter(Counter::PackCacheRebuilds);
    attn_fwd_s += timer(Timer::AttnFwd);
    attn_bwd_s += timer(Timer::AttnBwd);
    pool_busy_s += seconds(Seconds::PoolBusy);
    pool_wall_s += seconds(Seconds::PoolWall);
}

void
CounterDelta::add(const CounterDelta &o)
{
    gemm_s += o.gemm_s;
    gemm_flops += o.gemm_flops;
    gemm_packed_calls += o.gemm_packed_calls;
    gemm_legacy_calls += o.gemm_legacy_calls;
    pack_hits += o.pack_hits;
    pack_rebuilds += o.pack_rebuilds;
    attn_fwd_s += o.attn_fwd_s;
    attn_bwd_s += o.attn_bwd_s;
    pool_busy_s += o.pool_busy_s;
    pool_wall_s += o.pool_wall_s;
}

void
addCounterMetrics(Outcome &out, const CounterDelta &d, double units,
                  int threads)
{
    const double u = units > 0.0 ? units : 1.0;
    out.add("nn.attn_fwd_ms", d.attn_fwd_s * 1e3 / u, "ms");
    out.add("nn.attn_bwd_ms", d.attn_bwd_s * 1e3 / u, "ms");
    out.add("tensor.gemm_ms", d.gemm_s * 1e3 / u, "ms");
    out.add("tensor.gemm_gflops",
            d.gemm_s > 0.0 ? d.gemm_flops / d.gemm_s / 1e9 : 0.0,
            "GFLOP/s");
    out.add("tensor.gemm_packed_calls", d.gemm_packed_calls / u, "count");
    out.add("tensor.gemm_legacy_calls", d.gemm_legacy_calls / u, "count");
    const double lookups = d.pack_hits + d.pack_rebuilds;
    out.add("tensor.pack_cache_hit_frac",
            lookups > 0.0 ? d.pack_hits / lookups : 0.0, "ratio");
    out.add("runtime.pool_util",
            d.pool_wall_s > 0.0
                ? d.pool_busy_s / (d.pool_wall_s * threads)
                : 0.0,
            "ratio");
    const telemetry::Snapshot now = telemetry::snapshot();
    out.add("runtime.arena_peak_mb",
            static_cast<double>(now.maxGauge(
                telemetry::MaxGauge::ArenaHighWaterBytes)) /
                (1024.0 * 1024.0),
            "MiB");
}

} // namespace perfbench
} // namespace snip
