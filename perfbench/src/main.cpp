/**
 * @file
 * Repository benchmark program (one workload per process).
 *
 *   snip_perfbench --workload=train_snip75|train_bf16|serve_fp8kv
 *                  --seed=N --seconds=S --trace=0|1 --threads=T
 *                  [--spans=PATH]
 *
 * Prints the runtime configuration, human-readable metric lines, a
 * "crc" line fingerprinting the outputs at this seed, and as its last
 * line one JSON object {"correct", "attempted", "failed", "metrics"}:
 * the end-to-end metrics with --trace=0, the per-layer metrics with
 * --trace=1. Exit status: 0 correct, 1 a correctness check failed,
 * 2 bad arguments or a non-default program knob in the environment.
 *
 * perfbench/run.py builds this program and is the entry point named in
 * BENCHMARK.json.
 */
#include <cstdio>
#include <string>

#include "common.h"
#include "runtime/env_config.h"
#include "runtime/thread_pool.h"
#include "telemetry/trace.h"
#include "util/string_util.h"

namespace snip {
namespace perfbench {
namespace {

/**
 * The knobs that select a different program (kernel backend, GEMM
 * path, attention schedule, KV storage, fault injection). A baseline
 * is only ever taken with each at its shipped default; returns the
 * offending knob, or an empty string.
 */
std::string
nonDefaultKnob()
{
    const runtime::EnvConfig &env = runtime::envConfig();
    struct Knob
    {
        const char *name;
        const runtime::EnvKnob &knob;
        const char *shipped;
    };
    const Knob knobs[] = {
        {"SNIP_SIMD", env.simd(), "auto"},
        {"SNIP_GEMM_PACK", env.gemmPack(), "auto"},
        {"SNIP_ATTN", env.attn(), "par"},
        {"SNIP_KV_CACHE", env.kvCache(), "fp8"},
        {"SNIP_KV_PAGE", env.kvPage(), "16"},
        {"SNIP_FAULT", env.fault(), "off"},
    };
    for (const Knob &k : knobs)
        if (k.knob.set && k.knob.value != k.shipped)
            return strformat("%s=%s (shipped default %s)", k.name,
                             k.knob.value.c_str(), k.shipped);
    return "";
}

/** Every metric of @p table, taking measured values from @p out and 0
 *  for a layer the workload does not run. */
std::vector<Metric>
complete(const std::vector<Metric> &table, const Outcome &out)
{
    std::vector<Metric> all = table;
    for (Metric &m : all)
        for (const Metric &got : out.metrics)
            if (got.name == m.name)
                m.value = got.value;
    return all;
}

std::string
resultJson(const Outcome &out, const std::vector<Metric> &metrics)
{
    std::string s = strformat(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {",
        out.problems.empty() ? "true" : "false",
        static_cast<long long>(out.attempted),
        static_cast<long long>(out.failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        s += strformat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                       i > 0 ? ", " : "", metrics[i].name.c_str(),
                       metrics[i].value, metrics[i].unit.c_str());
    return s + "}}";
}

int
benchMain(int argc, char **argv)
{
    ArgParser args(argc, argv);
    RunOptions opts;
    opts.workload = args.get("workload", "");
    opts.seed = static_cast<uint64_t>(args.getInt("seed", 1));
    opts.seconds = args.getDouble("seconds", 10.0);
    opts.trace = args.getInt("trace", 0) != 0;
    opts.threads = static_cast<int>(args.getInt("threads", 1));
    opts.span_path = args.get("spans", "");
    if (opts.threads < 1 || opts.seconds <= 0.0) {
        std::fprintf(stderr, "--threads and --seconds must be > 0\n");
        return 2;
    }

    const std::string knob = nonDefaultKnob();
    if (!knob.empty()) {
        std::fprintf(stderr,
                     "refusing to benchmark a non-default program: %s\n",
                     knob.c_str());
        return 2;
    }
    // Whatever the environment says: end-to-end numbers are taken with
    // telemetry and span tracing off; a traced run enables telemetry
    // itself after its untraced reference episodes.
    telemetry::configure(telemetry::Config{});
    trace::configure(trace::Config{});
    runtime::setGlobalThreadCount(opts.threads);

    std::printf("%s", runtime::envConfig().dump().c_str());
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
                "pool_threads=%d\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0,
                runtime::globalThreadPool().numThreads());
    std::fflush(stdout);

    Outcome out;
    if (opts.workload == "train_snip75")
        out = runTrain(opts, /*snip=*/true);
    else if (opts.workload == "train_bf16")
        out = runTrain(opts, /*snip=*/false);
    else if (opts.workload == "serve_fp8kv")
        out = runServe(opts);
    else {
        std::fprintf(stderr, "unknown --workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }

    const std::vector<Metric> metrics =
        complete(opts.trace ? perLayerTable() : endToEndTable(), out);
    for (const Metric &m : metrics)
        std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("fail_frac %.6f (%lld failed / %lld attempted)\n",
                out.attempted > 0 ? static_cast<double>(out.failed) /
                                        static_cast<double>(out.attempted)
                                  : 0.0,
                static_cast<long long>(out.failed),
                static_cast<long long>(out.attempted));
    for (const std::string &p : out.problems)
        std::printf("INCORRECT: %s\n", p.c_str());
    std::printf("crc %s seed=%llu %08x\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                out.output_crc);
    std::printf("%s\n", resultJson(out, metrics).c_str());
    return out.problems.empty() ? 0 : 1;
}

} // namespace
} // namespace perfbench
} // namespace snip

int
main(int argc, char **argv)
{
    return snip::perfbench::benchMain(argc, argv);
}
