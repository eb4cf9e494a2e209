#include "serve/engine.h"

#include <algorithm>
#include <chrono>

#include "nn/model.h"
#include "runtime/env_config.h"
#include "runtime/fault_injection.h"
#include "telemetry/obs.h"
#include "util/logging.h"

namespace snip {
namespace serve {

namespace {

/** Greedy sampling: argmax with lowest-index tie-break. */
int32_t
argmaxRow(const float *row, int64_t n)
{
    int64_t best = 0;
    for (int64_t i = 1; i < n; ++i)
        if (row[i] > row[best])
            best = i;
    return static_cast<int32_t>(best);
}

double
percentile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = static_cast<double>(v.size() - 1) * q;
    return v[static_cast<size_t>(pos + 0.5)];
}

double
realSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Idle head-admission deferrals tolerated under an injected
 *  "serve.admit" fault before the request is rejected outright — the
 *  bound that keeps a hostile fault schedule from spinning an idle
 *  engine forever. */
constexpr int64_t kMaxHeadDeferrals = 64;

} // namespace

const char *
requestStatusName(RequestStatus status)
{
    switch (status) {
    case RequestStatus::Ok:
        return "ok";
    case RequestStatus::RejectedEmptyPrompt:
        return "rejected-empty-prompt";
    case RequestStatus::RejectedTooLong:
        return "rejected-too-long";
    case RequestStatus::RejectedPoolTooSmall:
        return "rejected-pool-too-small";
    case RequestStatus::RejectedAdmission:
        return "rejected-admission";
    case RequestStatus::Expired:
        return "expired";
    case RequestStatus::Preempted:
        return "preempted";
    }
    return "?";
}

Engine::Engine(LlamaModel &model, const EngineConfig &config)
    : model_(model),
      config_(config),
      cache_([&] {
          const ModelConfig &mc = model.config();
          KvCacheConfig kc;
          kc.n_layers = mc.n_blocks;
          kc.n_kv_heads = mc.n_kv_heads;
          kc.head_dim = mc.headDim();
          kc.page_tokens = config.kv_page_tokens > 0
                               ? config.kv_page_tokens
                               : runtime::envConfig().kvPageTokens();
          kc.max_seqs = config.max_concurrency;
          kc.max_seq_tokens = mc.max_seq;
          const int64_t worst_per_seq =
              mc.n_blocks *
              ((mc.max_seq + kc.page_tokens - 1) / kc.page_tokens);
          kc.max_pages = config.max_pages > 0
                             ? config.max_pages
                             : config.max_concurrency * worst_per_seq;
          kc.mode = config.kv_mode;
          return kc;
      }())
{
    SNIP_ASSERT(config_.max_concurrency > 0,
                "engine needs at least one sequence slot");
    const int64_t vocab = model_.config().vocab_size;
    seq_ids_.reserve(static_cast<size_t>(config_.max_concurrency));
    step_tokens_.reserve(static_cast<size_t>(config_.max_concurrency));
    logits_.resize(static_cast<size_t>(config_.max_concurrency * vocab));
    active_.reserve(static_cast<size_t>(config_.max_concurrency));
}

double
Engine::now() const
{
    return realSeconds() - t0_s_ + idle_skip_s_;
}

int64_t
Engine::pagesNeeded(int64_t tokens) const
{
    const KvCacheConfig &kc = cache_.config();
    return kc.n_layers *
           ((tokens + kc.page_tokens - 1) / kc.page_tokens);
}

void
Engine::admit(ServeRequest request, double now_s)
{
    // Structural fit was vetted by the admission loop in run();
    // everything past this point can only fail by page pressure,
    // which the pre-decode reservation pass resolves by preemption.
    const int64_t plen = static_cast<int64_t>(request.prompt.size());

    ActiveSeq seq;
    seq.slot = free_slots_.back();
    free_slots_.pop_back();
    seq.admit_order = admit_counter_++;
    cache_.beginSequence(seq.slot);

    if (trace::enabled()) {
        // The queue wait ended the instant this admission started;
        // backdate the span so the timeline shows the full wait.
        seq.admit_ns = obs::nowNs();
        const int64_t queued_ns = static_cast<int64_t>(
            std::max(0.0, now_s - request.arrival_s) * 1e9);
        trace::record(trace::Category::Serve, "queued",
                      seq.admit_ns - queued_ns, queued_ns, "id",
                      request.id);
    }

    const double t_pre = realSeconds();
    const KvCacheHandle handle{&cache_, &seq.slot, 1};
    {
        obs::Scope span(trace::Category::Serve, "prefill", "id",
                        request.id, "tokens", plen);
        model_.inferStep(request.prompt.data(), plen, handle, logits_.data());
    }
    const double prefill_s = realSeconds() - t_pre;
    stats_.prefill_s += prefill_s;
    stats_.prefill_tokens += plen;
    telemetry::addSeconds(telemetry::Seconds::ServePrefill, prefill_s);
    telemetry::count(telemetry::Counter::ServePrefillTokens, plen);

    const int32_t first =
        argmaxRow(logits_.data(), model_.config().vocab_size);
    const double t_first = now_s + prefill_s;
    seq.result.id = request.id;
    seq.result.tokens.push_back(first);
    seq.result.ttft_s = t_first - request.arrival_s;
    seq.last_token_s = t_first;
    stats_.decode_tokens += 1;
    seq.done = (first == request.eos_token &&
                request.eos_token >= 0) ||
               request.max_new_tokens <= 1;
    seq.request = std::move(request);
    active_.push_back(std::move(seq));
    if (active_.back().done)
        retire(active_.size() - 1);

    stats_.peak_kv_pages =
        std::max(stats_.peak_kv_pages, cache_.pagesInUse());
    telemetry::gaugeSet(telemetry::LastGauge::KvPagesInUse,
                        cache_.pagesInUse());
    telemetry::gaugeMax(telemetry::MaxGauge::KvPagesPeak,
                        cache_.pagesInUse());
    telemetry::gaugeSet(telemetry::LastGauge::ServeActiveSeqs,
                        static_cast<int64_t>(active_.size()));
}

void
Engine::decodeOnce(double now_s)
{
    const int64_t vocab = model_.config().vocab_size;
    seq_ids_.clear();
    step_tokens_.clear();
    for (const ActiveSeq &seq : active_) {
        seq_ids_.push_back(seq.slot);
        step_tokens_.push_back(seq.result.tokens.back());
    }
    const int64_t count = static_cast<int64_t>(active_.size());
    obs::Scope span(trace::Category::Serve, "decode_step", "width", count,
                    "step", stats_.decode_steps);

    const KvCacheHandle handle{&cache_, seq_ids_.data(), count};
    const double t_dec = realSeconds();
    model_.inferStep(step_tokens_.data(), count, handle, logits_.data());
    const double decode_s = realSeconds() - t_dec;
    stats_.decode_s += decode_s;
    stats_.decode_steps += 1;
    stats_.decode_tokens += count;
    telemetry::addSeconds(telemetry::Seconds::ServeDecode, decode_s);
    telemetry::count(telemetry::Counter::ServeDecodeSteps);
    telemetry::count(telemetry::Counter::ServeDecodeTokens, count);

    const double t_tok = now_s + decode_s;
    for (size_t i = active_.size(); i-- > 0;) {
        ActiveSeq &seq = active_[i];
        const int32_t next = argmaxRow(
            logits_.data() + static_cast<int64_t>(i) * vocab, vocab);
        seq.result.tokens.push_back(next);
        seq.result.itl_s.push_back(t_tok - seq.last_token_s);
        seq.last_token_s = t_tok;
        if (static_cast<int64_t>(seq.result.tokens.size()) >=
                seq.request.max_new_tokens ||
            (seq.request.eos_token >= 0 &&
             next == seq.request.eos_token))
            retire(i);
    }

    stats_.peak_kv_pages =
        std::max(stats_.peak_kv_pages, cache_.pagesInUse());
    telemetry::gaugeSet(telemetry::LastGauge::KvPagesInUse,
                        cache_.pagesInUse());
    telemetry::gaugeMax(telemetry::MaxGauge::KvPagesPeak,
                        cache_.pagesInUse());
    telemetry::gaugeSet(telemetry::LastGauge::ServeActiveSeqs,
                        static_cast<int64_t>(active_.size()));
}

void
Engine::retire(std::size_t idx)
{
    ActiveSeq &seq = active_[idx];
    if (trace::enabled() && seq.admit_ns > 0)
        trace::record(
            trace::Category::Serve, "request", seq.admit_ns,
            obs::nowNs() - seq.admit_ns, "id", seq.result.id,
            "tokens",
            static_cast<int64_t>(seq.result.tokens.size()));
    cache_.endSequence(seq.slot);
    free_slots_.push_back(seq.slot);
    done_.push_back(std::move(seq.result));
    stats_.requests += 1;
    telemetry::count(telemetry::Counter::ServeRequests);
    active_.erase(active_.begin() + static_cast<int64_t>(idx));
}

void
Engine::rejectRequest(ServeRequest request, RequestStatus status)
{
    RequestResult r;
    r.id = request.id;
    r.status = status;
    done_.push_back(std::move(r));
    stats_.requests += 1;
    if (status == RequestStatus::Expired) {
        stats_.expired += 1;
        telemetry::count(telemetry::Counter::ServeExpired);
    } else {
        stats_.rejected += 1;
        telemetry::count(telemetry::Counter::ServeRejected);
    }
    telemetry::count(telemetry::Counter::ServeRequests);
}

void
Engine::finishEarly(std::size_t idx, RequestStatus status)
{
    ActiveSeq &seq = active_[idx];
    seq.result.status = status;
    if (status == RequestStatus::Preempted) {
        stats_.preempted += 1;
        telemetry::count(telemetry::Counter::ServePreempted);
    } else {
        stats_.expired += 1;
        telemetry::count(telemetry::Counter::ServeExpired);
    }
    retire(idx); // releases every KV page and frees the slot
}

void
Engine::expireActive(double now_s)
{
    for (std::size_t i = active_.size(); i-- > 0;) {
        const ServeRequest &req = active_[i].request;
        if (req.deadline_s > 0.0 && now_s > req.deadline_s)
            finishEarly(i, RequestStatus::Expired);
    }
}

int64_t
Engine::pagesNeededThisStep() const
{
    // Decode appends one token to every layer of every active
    // sequence; a page is allocated exactly when the current length
    // sits on a page boundary (all layers advance in lockstep, so
    // layer 0 speaks for the sequence).
    const KvCacheConfig &kc = cache_.config();
    int64_t needed = 0;
    for (const ActiveSeq &seq : active_)
        if (cache_.length(seq.slot, 0) % kc.page_tokens == 0)
            needed += kc.n_layers;
    return needed;
}

std::vector<RequestResult>
Engine::run(RequestQueue &queue)
{
    stats_ = ServeStats{};
    trace::setCurrentThreadName("serve-engine");
    done_.clear();
    active_.clear();
    free_slots_.clear();
    for (int64_t s = config_.max_concurrency; s-- > 0;)
        free_slots_.push_back(s); // lowest slot admits first
    idle_skip_s_ = 0.0;
    admit_counter_ = 0;
    head_deferrals_ = 0;
    t0_s_ = realSeconds();

    while (!queue.empty() || !active_.empty()) {
        double t = now();
        if (active_.empty() && !queue.empty() &&
            queue.peek().arrival_s > t) {
            // Idle: skip the logical clock to the next arrival
            // instead of spinning.
            idle_skip_s_ += queue.peek().arrival_s - t;
            t = now();
        }
        expireActive(t);
        while (!queue.empty() && queue.peek().arrival_s <= t) {
            const ServeRequest &head = queue.peek();
            const int64_t plen =
                static_cast<int64_t>(head.prompt.size());
            // Structural rejects come before the slot check: a request
            // that can never run must not block the queue behind it.
            if (plen <= 0) {
                rejectRequest(queue.pop(),
                              RequestStatus::RejectedEmptyPrompt);
                continue;
            }
            if (plen + head.max_new_tokens > model_.config().max_seq) {
                rejectRequest(queue.pop(),
                              RequestStatus::RejectedTooLong);
                continue;
            }
            const int64_t need =
                pagesNeeded(plen + head.max_new_tokens);
            if (need > cache_.config().max_pages) {
                rejectRequest(queue.pop(),
                              RequestStatus::RejectedPoolTooSmall);
                continue;
            }
            if (head.deadline_s > 0.0 && t > head.deadline_s) {
                rejectRequest(queue.pop(), RequestStatus::Expired);
                continue;
            }
            if (free_slots_.empty())
                break; // wait for a retirement to free a slot
            if (cache_.pagesFree() < need) {
                if (!active_.empty())
                    break; // retirements will free pages
                // Idle yet short of pages: the never-fit check above
                // vetted the whole pool, so something else pinned
                // pages — reject rather than deadlock.
                rejectRequest(queue.pop(),
                              RequestStatus::RejectedPoolTooSmall);
                continue;
            }
            if (SNIP_FAULT_POINT("serve.admit")) {
                // Deterministic requeue: the head stays queued and is
                // retried next iteration. An idle engine bounds the
                // deferrals so the loop always makes progress.
                ++stats_.admission_retries;
                if (active_.empty() &&
                    ++head_deferrals_ > kMaxHeadDeferrals) {
                    head_deferrals_ = 0;
                    rejectRequest(queue.pop(),
                                  RequestStatus::RejectedAdmission);
                    continue;
                }
                break;
            }
            head_deferrals_ = 0;
            admit(queue.pop(), t);
            t = now();
        }
        if (!active_.empty()) {
            // Reserve this step's page allocations up front; when the
            // pool cannot cover them (or an injected "kv.alloc" fault
            // models an allocation failure), preempt the NEWEST
            // admission until the step fits — deterministic, and the
            // oldest work always completes.
            int64_t needed = pagesNeededThisStep();
            bool fault = SNIP_FAULT_POINT("kv.alloc");
            while ((cache_.pagesFree() < needed || fault) &&
                   !active_.empty()) {
                fault = false;
                std::size_t newest = 0;
                for (std::size_t i = 1; i < active_.size(); ++i)
                    if (active_[i].admit_order >
                        active_[newest].admit_order)
                        newest = i;
                finishEarly(newest, RequestStatus::Preempted);
                needed = pagesNeededThisStep();
            }
        }
        if (!active_.empty())
            decodeOnce(now());
    }

    stats_.elapsed_s = realSeconds() - t0_s_;
    std::vector<double> ttfts, itls;
    for (const RequestResult &r : done_) {
        if (r.tokens.empty())
            continue; // rejected before prefill: no latency sample
        ttfts.push_back(r.ttft_s);
        for (double itl : r.itl_s)
            itls.push_back(itl);
    }
    stats_.p50_ttft_s = percentile(ttfts, 0.50);
    stats_.p99_ttft_s = percentile(ttfts, 0.99);
    stats_.p50_itl_s = percentile(itls, 0.50);
    stats_.p99_itl_s = percentile(itls, 0.99);

    std::sort(done_.begin(), done_.end(),
              [](const RequestResult &a, const RequestResult &b) {
                  return a.id < b.id;
              });
    return std::move(done_);
}

} // namespace serve
} // namespace snip
