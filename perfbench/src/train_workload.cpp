/**
 * @file
 * train_snip75 and train_bf16: the fig8 configuration (tinyllamaSim,
 * trainerPreset batch 4 x seq 32) resumed from a BF16 warm-up, either
 * under an inline SnipController with a 0.75 FP4 target or in uniform
 * BF16 with no controller.
 *
 * A run is a series of identical episodes: restore the warm snapshot,
 * train kEpisodeSteps steps. Every episode replays the same program on
 * the same data, so their per-step loss bits must agree exactly.
 * Timings are pooled over the least-disturbed tenth of the episodes.
 *
 * End-to-end mode drives the public Trainer API and times each step
 * from outside. Traced mode alternates such untraced reference
 * episodes with a replay of the same steps that calls each module's
 * public entry point itself (data, core/ + ilp/ scheme update, nn/
 * forward and backward, optim/), timing each call and reading the
 * program's counters through telemetry::snapshot() deltas. The replay
 * must reproduce the reference loss bits.
 */
#include <cmath>
#include <cstdio>
#include <memory>

#include "common.h"
#include "core/controller.h"
#include "core/flops_model.h"
#include "optim/lr_schedule.h"
#include "quant/quantizer.h"
#include "runtime/thread_pool.h"
#include "train/presets.h"
#include "train/trainer.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace snip {
namespace perfbench {
namespace {

constexpr int64_t kWarmupSteps = 10;
constexpr int64_t kEpisodeSteps = 10;
constexpr int64_t kUpdateInterval = 10;
constexpr double kFp4Target = 0.75;
constexpr int kSetupReps = 7;
constexpr size_t kLossTail = 5;
/** Traced parts must sum to the untraced step wall within this share;
 *  BENCHMARK.json states the same figure. */
constexpr double kClosureTolerance = 0.20;

TrainerConfig
trainConfig(uint64_t seed)
{
    // Model init stays fixed; the seed picks the corpus and the batch
    // stream.
    TrainerConfig cfg = trainerPreset(tinyllamaSim(), 42);
    cfg.corpus.seed = 1234 + seed;
    cfg.data_seed = seed ^ 0xDA7A;
    return cfg;
}

SnipController::Config
controllerConfig()
{
    SnipController::Config cc;
    cc.target_fp4_fraction = kFp4Target;
    cc.update_interval = kUpdateInterval;
    cc.async = false;
    return cc;
}

PrecisionScheme
bf16Scheme(Trainer &t)
{
    return PrecisionScheme::uniform(
        static_cast<size_t>(t.model().registry().numLinear()),
        Precision::BF16);
}

/** FlopsModel speedup of the trainer's current scheme over BF16 (the
 *  analytic Blackwell throughput ratios). */
double
predictedSpeedup(Trainer &t)
{
    const FlopsModel fm(t.model().registry());
    return fm.totalTime(bf16Scheme(t)) /
           fm.totalTime(t.model().currentScheme());
}

/** A constructed, warmed-up trainer and the snapshot episodes start
 *  from. */
struct Prepared
{
    std::unique_ptr<Trainer> trainer;
    TrainerSnapshot warm;
};

Prepared
setUp(const TrainerConfig &cfg)
{
    Prepared p;
    p.trainer = std::make_unique<Trainer>(cfg);
    p.trainer->applyScheme(bf16Scheme(*p.trainer));
    p.trainer->train(kWarmupSteps);
    p.warm = p.trainer->snapshot();
    return p;
}

/** Seconds per module call of a traced replay, summed over its plain
 *  steps (and over its scheme updates for the core/ilp entries). */
struct Parts
{
    double data_s = 0.0, fwd_s = 0.0, bwd_s = 0.0, optim_s = 0.0;
    double step_s = 0.0;
    double stats_s = 0.0, probe_s = 0.0, div_s = 0.0, ilp_s = 0.0;
    int64_t updates = 0;
    CounterDelta counters;
};

/** Step timings and outputs of one episode. */
struct Episode
{
    std::vector<double> step_s;
    std::vector<char> updated; ///< step ran a scheme update
    std::vector<double> losses;
    double wall_s = 0.0;
    int64_t skipped = 0;
    double min_fp4 = 1.0;
    Parts parts; ///< traced replay only

    uint32_t
    crc() const
    {
        return crc32(losses.data(), losses.size() * sizeof(double));
    }

    /** A step that is neither an episode's first nor an update. */
    bool
    plain(size_t i) const
    {
        return i > 0 && !updated[i];
    }

    int64_t
    plainSteps() const
    {
        int64_t n = 0;
        for (size_t i = 0; i < step_s.size(); ++i)
            n += plain(i) ? 1 : 0;
        return n;
    }
};

using Picked = std::vector<const Episode *>;

/** The least-disturbed tenth of @p eps by episode wall. */
Picked
pick(const std::vector<Episode> &eps)
{
    std::vector<double> wall;
    for (const Episode &e : eps)
        wall.push_back(e.wall_s);
    Picked out;
    for (size_t i : leastDisturbed(wall))
        out.push_back(&eps[i]);
    return out;
}

/** One episode through Trainer::trainStep, timed from outside. */
Episode
runEpisode(Prepared &p, bool snip)
{
    Trainer &t = *p.trainer;
    t.restore(p.warm);
    std::unique_ptr<SnipController> ctrl;
    if (snip)
        ctrl = std::make_unique<SnipController>(controllerConfig());

    Episode e;
    const auto start = Clock::now();
    auto prev = start;
    for (int64_t i = 0; i < kEpisodeSteps; ++i) {
        const int before =
            ctrl ? ctrl->totals().updates + ctrl->totals().skipped : 0;
        const double loss = t.trainStep(ctrl.get());
        const auto now = Clock::now();
        e.step_s.push_back(secondsBetween(prev, now));
        prev = now;
        const bool updated =
            ctrl &&
            ctrl->totals().updates + ctrl->totals().skipped != before;
        e.updated.push_back(updated ? 1 : 0);
        if (updated)
            e.min_fp4 = std::min(e.min_fp4,
                                 ctrl->lastSelection().fp4_fraction);
        e.losses.push_back(loss);
    }
    e.wall_s = secondsSince(start);
    e.skipped = ctrl ? ctrl->totals().skipped : 0;
    return e;
}

/** Run episodes until @p seconds have passed (at least @p min_count). */
std::vector<Episode>
runEpisodes(Prepared &p, bool snip, double seconds, int min_count)
{
    std::vector<Episode> out;
    const auto t0 = Clock::now();
    while (static_cast<int>(out.size()) < min_count ||
           secondsSince(t0) < seconds)
        out.push_back(runEpisode(p, snip));
    return out;
}

/**
 * One episode replayed through the modules' public entry points, each
 * call timed into @p log. Mirrors Trainer::trainStep and the inline
 * SnipController (same cadence, same options), so its loss bits equal
 * runEpisode()'s.
 */
Episode
tracedEpisode(Prepared &p, bool snip, SpanLog &log)
{
    Trainer &t = *p.trainer;
    t.restore(p.warm);
    LlamaModel &model = t.model();
    AdamW &opt = t.optimizer();
    const TrainerConfig &cfg = t.config();
    const LrSchedule lr(cfg.lr_kind, cfg.adamw.lr, cfg.lr_total_steps,
                        cfg.lr_warmup_steps);
    const SnipController::Config cc = controllerConfig();
    const FlopsModel flops(model.registry());

    Episode e;
    Parts &acc = e.parts;
    const auto start = Clock::now();
    int64_t step = p.warm.step;
    for (int64_t i = 0; i < kEpisodeSteps; ++i, ++step) {
        const auto t_step = Clock::now();
        auto t0 = t_step;
        const Batch batch = t.nextBatch();
        auto t1 = Clock::now();
        const double data_s = log.record("data.batch", t0, t1, step);

        const bool update =
            snip && (i == 0 || step % cc.update_interval == 0);
        if (update) {
            StatsOptions so;
            so.pool = &t.pool();
            t0 = Clock::now();
            const TrainingStats stats =
                collectTrainingStats(model, &opt, batch, so);
            t1 = Clock::now();
            acc.stats_s += log.record("core.stats", t0, t1, step);
            t0 = t1;
            const ProbeResult bwd = runNoiseProbe(
                model, batch, stats, ProbeKind::Backward, cc.probe);
            const ProbeResult fwd = runNoiseProbe(
                model, batch, stats, ProbeKind::Forward, cc.probe);
            t1 = Clock::now();
            acc.probe_s += log.record("core.probe", t0, t1, step);
            t0 = t1;
            DivergenceOptions dopt;
            dopt.metric = cc.metric;
            dopt.weight_div_scale = cc.weight_div_scale;
            const DivergenceTable table =
                DivergenceAnalyzer(stats, &bwd, &fwd, flops)
                    .analyze(makeOptionSet(cc.option_set), dopt);
            t1 = Clock::now();
            acc.div_s += log.record("core.divergence", t0, t1, step);
            t0 = t1;
            const SchemeSelection sel =
                selectScheme(table, cc.target_fp4_fraction, flops,
                             cc.solve, cc.pipeline);
            model.setScheme(sel.scheme);
            t1 = Clock::now();
            acc.ilp_s += log.record("ilp.solve", t0, t1, step);
            ++acc.updates;
            e.min_fp4 = std::min(e.min_fp4, sel.fp4_fraction);
        }

        const telemetry::Snapshot before = telemetry::snapshot();
        model.zeroGrad();
        t0 = Clock::now();
        const LossResult loss = model.forwardLoss(
            batch.tokens, batch.targets, batch.batch, batch.seq);
        t1 = Clock::now();
        const double fwd_s = log.record("nn.fwd", t0, t1, step);
        t0 = t1;
        model.backward(loss.dlogits);
        t1 = Clock::now();
        const double bwd_s = log.record("nn.bwd", t0, t1, step);
        t0 = t1;
        opt.setLr(lr.at(step));
        opt.step();
        t1 = Clock::now();
        const double optim_s = log.record("optim.step", t0, t1, step);
        const telemetry::Snapshot after = telemetry::snapshot();
        const double step_s =
            log.record("train.step", t_step, Clock::now(), step);

        e.losses.push_back(loss.loss);
        e.updated.push_back(update ? 1 : 0);
        e.step_s.push_back(step_s);
        if (e.plain(static_cast<size_t>(i))) {
            acc.data_s += data_s;
            acc.fwd_s += fwd_s;
            acc.bwd_s += bwd_s;
            acc.optim_s += optim_s;
            acc.step_s += step_s;
            acc.counters.accumulate(before, after);
        }
    }
    e.wall_s = secondsSince(start);
    return e;
}

/** Checks shared by both modes: identical loss bits in every episode,
 *  finite losses, the FP4 target met, no skipped update. */
void
checkEpisodes(Outcome &out, const std::vector<Episode> &eps, bool snip)
{
    const uint32_t crc = eps.front().crc();
    for (const Episode &e : eps) {
        out.attempted += static_cast<int64_t>(e.losses.size());
        for (double l : e.losses)
            out.failed += std::isfinite(l) ? 0 : 1;
        out.failed += e.skipped;
        out.check(e.crc() == crc,
                  strformat("episode loss CRC %08x != first %08x",
                            e.crc(), crc));
        if (snip)
            out.check(e.min_fp4 >= kFp4Target - 1e-9,
                      strformat("selected FP4 FLOP fraction %.4f below "
                                "target %.2f",
                                e.min_fp4, kFp4Target));
    }
    out.output_crc = crc;
}

double
tailMean(const std::vector<double> &v, size_t k)
{
    k = std::min(k, v.size());
    double acc = 0.0;
    for (size_t i = v.size() - k; i < v.size(); ++i)
        acc += v[i];
    return k > 0 ? acc / static_cast<double>(k) : 0.0;
}

/** Walls of the plain steps, and of the update steps, of @p eps. */
void
splitSteps(const Picked &eps, std::vector<double> *plain,
           std::vector<double> *update)
{
    for (const Episode *e : eps)
        for (size_t i = 0; i < e->step_s.size(); ++i) {
            if (e->plain(i))
                plain->push_back(e->step_s[i]);
            else if (e->updated[i] && update != nullptr)
                update->push_back(e->step_s[i]);
        }
}

/** Trainer-visible cost of one scheme update: update-step wall minus
 *  the median plain step. */
double
schemeUpdateMs(const Picked &eps)
{
    std::vector<double> plain, update;
    splitSteps(eps, &plain, &update);
    if (update.empty())
        return 0.0;
    return (quantile(update, 0.5) - quantile(plain, 0.5)) * 1e3;
}

double
medianPlainMs(const Picked &eps)
{
    std::vector<double> plain;
    splitSteps(eps, &plain, nullptr);
    return quantile(plain, 0.5) * 1e3;
}

Outcome
endToEnd(const RunOptions &opts, bool snip)
{
    Outcome out;
    const TrainerConfig cfg = trainConfig(opts.seed);

    std::vector<double> setup_s;
    Prepared p;
    for (int r = 0; r < kSetupReps; ++r) {
        p = Prepared{};
            const auto t0 = Clock::now();
        p = setUp(cfg);
        setup_s.push_back(secondsSince(t0));
    }

    const std::vector<Episode> eps =
        runEpisodes(p, snip, opts.seconds, 4);
    checkEpisodes(out, eps, snip);

    const Picked sel = pick(eps);
    std::vector<double> plain, first;
    splitSteps(sel, &plain, nullptr);
    double wall = 0.0;
    int64_t steps = 0;
    for (const Episode *e : sel) {
        first.push_back(e->step_s.front());
        wall += e->wall_s;
        steps += static_cast<int64_t>(e->step_s.size());
    }
    const double tokens_per_step =
        static_cast<double>(cfg.batch_size * cfg.corpus.seq_len);

    out.add("setup_s", quantile(setup_s, 0.5), "s");
    out.add("tokens_per_s",
            tokens_per_step * static_cast<double>(steps) / wall, "tok/s");
    out.add("latency_ms_p50", quantile(plain, 0.5) * 1e3, "ms");
    out.add("latency_ms_tail", quantile(plain, 0.9) * 1e3, "ms");
    out.add("first_ms_p50", quantile(first, 0.5) * 1e3, "ms");
    out.add("peak_rss_mb", peakRssMb(), "MiB");

    std::printf("train: %zu episodes x %lld steps; pooled over the %zu "
                "least disturbed: %zu plain steps (latency tail = p90), "
                "%zu restarts\n",
                eps.size(), static_cast<long long>(kEpisodeSteps),
                sel.size(), plain.size(), first.size());
    std::printf("train: loss_final %.6f nats (mean of last %zu steps)\n",
                tailMean(eps.front().losses, kLossTail), kLossTail);
    if (snip) {
        std::printf("train: scheme update %.2f ms trainer-visible (p50 "
                    "update step - p50 plain step)\n",
                    schemeUpdateMs(sel));
        std::printf("model: FlopsModel predicted GEMM speedup of the "
                    "selected scheme vs BF16 %.3fx (Blackwell ratios)\n",
                    predictedSpeedup(*p.trainer));
    }
    return out;
}

/** ns per element of FakeQuantizer::quantize on a gradient-operand
 *  shaped tensor under @p qc. */
double
quantizeNsPerElem(const TrainerConfig &cfg, const QuantConfig &qc,
                  uint64_t seed)
{
    Rng rng(seed);
    const Tensor g = Tensor::randn(
        {cfg.batch_size * cfg.corpus.seq_len, cfg.model.ffn_hidden}, rng,
        1e-3f);
    FakeQuantizer q(seed);
    double sink = 0.0;
    const double ns = nsPerItem(
        [&] { sink += q.quantize(g, qc).data()[0]; },
        static_cast<double>(g.numel()), 5, 0.05);
    return std::isfinite(sink) ? ns : -1.0;
}

void
setTelemetry(bool on)
{
    telemetry::Config tc;
    tc.enabled = on;
    telemetry::configure(tc);
}

Outcome
traced(const RunOptions &opts, bool snip)
{
    Outcome out;
    const TrainerConfig cfg = trainConfig(opts.seed);
    Prepared p = setUp(cfg);

    // Untraced reference episodes (telemetry off, public Trainer API)
    // alternate with traced replays, so both see the same host.
    SpanLog log;
    std::vector<Episode> ref, replay;
    const auto t0 = Clock::now();
    while (ref.size() < 4 || secondsSince(t0) < opts.seconds * 0.8) {
        setTelemetry(false);
        ref.push_back(runEpisode(p, snip));
        setTelemetry(true);
        replay.push_back(tracedEpisode(p, snip, log));
    }
    setTelemetry(false);
    checkEpisodes(out, ref, snip);
    for (const Episode &e : replay) {
        out.check(e.crc() == out.output_crc,
                  strformat("traced replay loss CRC %08x != untraced "
                            "Trainer run %08x",
                            e.crc(), out.output_crc));
        out.attempted += static_cast<int64_t>(e.losses.size());
    }

    const Picked ref_sel = pick(ref);
    std::vector<double> ref_plain;
    splitSteps(ref_sel, &ref_plain, nullptr);
    const double untraced_ms = mean(ref_plain) * 1e3;

    Parts sum;
    double n = 0.0;
    double min_fp4 = 1.0;
    for (const Episode *e : pick(replay)) {
        const Parts &q = e->parts;
        sum.data_s += q.data_s;
        sum.fwd_s += q.fwd_s;
        sum.bwd_s += q.bwd_s;
        sum.optim_s += q.optim_s;
        sum.step_s += q.step_s;
        sum.stats_s += q.stats_s;
        sum.probe_s += q.probe_s;
        sum.div_s += q.div_s;
        sum.ilp_s += q.ilp_s;
        sum.updates += q.updates;
        sum.counters.add(q.counters);
        n += static_cast<double>(e->plainSteps());
        min_fp4 = std::min(min_fp4, e->min_fp4);
    }
    const double parts_ms =
        (sum.data_s + sum.fwd_s + sum.bwd_s + sum.optim_s) * 1e3 / n;
    const double traced_ms = sum.step_s * 1e3 / n;
    out.add("data.batch_ms", sum.data_s * 1e3 / n, "ms");
    out.add("nn.fwd_ms", sum.fwd_s * 1e3 / n, "ms");
    out.add("nn.bwd_ms", sum.bwd_s * 1e3 / n, "ms");
    out.add("optim.step_ms", sum.optim_s * 1e3 / n, "ms");
    out.add("train.unattributed_ms", traced_ms - parts_ms, "ms");
    out.add("train.scheme_update_ms", schemeUpdateMs(ref_sel), "ms");
    out.add("train.loss_final", tailMean(ref.front().losses, kLossTail),
            "nats");
    out.add("trace.overhead_ms", traced_ms - untraced_ms, "ms");
    addCounterMetrics(out, sum.counters, n, opts.threads);
    if (sum.updates > 0) {
        const double u = static_cast<double>(sum.updates);
        out.add("core.stats_ms", sum.stats_s * 1e3 / u, "ms");
        out.add("core.probe_ms", sum.probe_s * 1e3 / u, "ms");
        out.add("core.divergence_ms", sum.div_s * 1e3 / u, "ms");
        out.add("ilp.solve_ms", sum.ilp_s * 1e3 / u, "ms");
        out.add("schemes.fp4_flop_frac", min_fp4, "ratio");
    }
    const double sr_ns = quantizeNsPerElem(
        cfg, rolePolicy(Precision::FP4, TensorRole::OutputGrad),
        opts.seed);
    const double rtn_ns = quantizeNsPerElem(
        cfg, rolePolicy(Precision::FP4, TensorRole::Activation),
        opts.seed);
    out.check(sr_ns > 0.0 && rtn_ns > 0.0, "non-finite quantized value");
    out.add("quant.sr_ns_per_elem", sr_ns, "ns");
    out.add("quant.rtn_ns_per_elem", rtn_ns, "ns");

    const double closure = std::fabs(parts_ms - untraced_ms) / untraced_ms;
    std::printf("closure: parts (data+fwd+bwd+optim) %.3f ms vs "
                "untraced step %.3f ms: off by %.1f%% (tolerance "
                "%.0f%%); traced step %.3f ms, unattributed %.3f ms\n",
                parts_ms, untraced_ms, closure * 100.0,
                kClosureTolerance * 100.0, traced_ms,
                traced_ms - parts_ms);
    out.check(closure <= kClosureTolerance,
              strformat("per-layer parts miss the untraced step wall "
                        "by %.1f%%",
                        closure * 100.0));
    if (snip) {
        // Paper fig 13 style: the analytic model's prediction next to
        // what this host measures for the same scheme.
        const double snip_ms = medianPlainMs(ref_sel);
        const double predicted = predictedSpeedup(*p.trainer);
        const std::vector<Episode> bf16 = runEpisodes(p, false, 0.0, 4);
        const double bf16_ms = medianPlainMs(pick(bf16));
        std::printf("modeled vs measured: FlopsModel predicts the "
                    "selected scheme %.3fx faster than BF16; measured "
                    "step %.2f ms (snip75) / %.2f ms (bf16) = %.2fx "
                    "%s\n",
                    predicted, snip_ms, bf16_ms,
                    snip_ms / bf16_ms,
                    snip_ms > bf16_ms ? "slower: fake-quantized FP4 "
                                        "costs more on this CPU"
                                      : "faster");
    }
    if (!opts.span_path.empty() && !log.writeChromeJson(opts.span_path))
        out.check(false, "cannot write span log " + opts.span_path);
    return out;
}

} // namespace

Outcome
runTrain(const RunOptions &opts, bool snip)
{
    return opts.trace ? traced(opts, snip) : endToEnd(opts, snip);
}

} // namespace perfbench
} // namespace snip
