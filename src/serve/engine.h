/**
 * @file
 * Continuous-batching inference engine.
 *
 * One engine thread drives the whole loop: admit arrived requests into
 * free sequence slots, prefill each new prompt as one inference step
 * (LlamaModel::inferStep, which fills the paged KV cache), then
 * coalesce every active sequence into ONE decode step per iteration —
 * the decode batch shrinks and grows as sequences retire mid-flight
 * and new arrivals take their slots, never idling on a straggler.
 * Prefill and decode run the same allocation-free inference step and
 * leave the model's training state untouched.
 *
 * Generation is greedy argmax (lowest index wins ties), so the token
 * stream of a request depends only on model weights and its prompt:
 * continuous batching returns the same tokens as running requests one
 * at a time (tests/test_serve.cpp pins this).
 *
 * Admission runs on a logical clock that tracks real elapsed time but
 * skips ahead to the next arrival whenever the engine is idle, so a
 * sparse trace doesn't stall the loop; TTFT/ITL latencies are measured
 * on the same clock.
 *
 * Overload and failure behavior (every request gets a result, the
 * engine never asserts on traffic and never deadlocks):
 *
 *  - Structurally impossible requests — empty prompt, prompt +
 *    generation beyond max_seq, worst-case KV footprint beyond the
 *    whole pool — are rejected at admission with a per-request status.
 *  - A request that fits but not *right now* waits in the queue
 *    (backpressure) until retirements free pages.
 *  - Deadlines (ServeRequest::deadline_s) are enforced on the logical
 *    clock: a queued request past its deadline is rejected, an active
 *    one is cancelled cleanly with every KV page released.
 *  - Before each decode step the engine reserves the pages that step
 *    will allocate; when the pool can't cover them (admission
 *    overcommit, or an injected "kv.alloc" fault) it preempts the
 *    NEWEST-admitted sequence — deterministically, independent of
 *    timing — instead of asserting inside the allocator.
 *  - An injected "serve.admit" fault defers the head admission
 *    (deterministic requeue); an idle engine bounds the deferrals so
 *    a hostile schedule cannot spin it forever.
 *
 * Concurrency contract: the engine is single-threaded BY DESIGN — one
 * engine thread owns all mutable state below, and parallelism lives
 * inside the batched forward (ThreadPool's parallelFor, whose chunks
 * only read the engine's inputs). There is therefore no mutex to
 * annotate (src/util/thread_annotations.h): the contract is that no
 * Engine method is called from two threads, which is what lets the
 * serve path stay bit-identical at any thread count.
 */
#ifndef SNIP_SERVE_ENGINE_H
#define SNIP_SERVE_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "serve/kv_cache.h"
#include "serve/request_queue.h"

namespace snip {

class LlamaModel;

namespace serve {

/** Engine sizing; KV knobs default from SNIP_KV_CACHE/SNIP_KV_PAGE. */
struct EngineConfig
{
    /** Sequence slots = widest coalesced decode batch. */
    int64_t max_concurrency = 8;
    /** Tokens per KV page; 0 = envConfig().kvPageTokens(). */
    int64_t kv_page_tokens = 0;
    /** KV pool capacity in pages; 0 = worst case for max_concurrency
     *  sequences of max_seq tokens (no admission ever blocks). */
    int64_t max_pages = 0;
    /** KV storage mode; parsed from SNIP_KV_CACHE by default. */
    KvCacheMode kv_mode = kvCacheModeFromEnv();
};

/** How a request's service ended. */
enum class RequestStatus
{
    Ok = 0,               ///< ran to eos/max_new_tokens
    RejectedEmptyPrompt,  ///< no prompt tokens to prefill
    RejectedTooLong,      ///< prompt + max_new beyond model max_seq
    RejectedPoolTooSmall, ///< worst-case KV beyond the whole pool
    RejectedAdmission,    ///< admission fault, retries exhausted
    Expired,              ///< deadline passed (queued or mid-flight)
    Preempted,            ///< cancelled to relieve KV page pressure
};

/** Stable name of @p status ("ok", "expired", ...). */
const char *requestStatusName(RequestStatus status);

/** Per-request outcome. */
struct RequestResult
{
    int64_t id = 0;
    RequestStatus status = RequestStatus::Ok;
    std::vector<int32_t> tokens; ///< generated (greedy) tokens
    double ttft_s = 0.0;         ///< arrival -> first token
    std::vector<double> itl_s;   ///< inter-token gaps, decode only
};

/** Aggregate run statistics. */
struct ServeStats
{
    int64_t requests = 0;
    int64_t prefill_tokens = 0;
    int64_t decode_tokens = 0; ///< includes each prefill's first token
    int64_t decode_steps = 0;
    int64_t peak_kv_pages = 0;
    int64_t rejected = 0;  ///< requests refused at admission
    int64_t preempted = 0; ///< sequences cancelled for page pressure
    int64_t expired = 0;   ///< requests past their deadline
    int64_t admission_retries = 0; ///< deferred head admissions
    double elapsed_s = 0.0;
    double prefill_s = 0.0;
    double decode_s = 0.0;
    double p50_ttft_s = 0.0, p99_ttft_s = 0.0;
    double p50_itl_s = 0.0, p99_itl_s = 0.0;

    double
    tokensPerSecond() const
    {
        return elapsed_s > 0.0
                   ? static_cast<double>(decode_tokens) / elapsed_s
                   : 0.0;
    }
};

/** Continuous-batching engine over one model. */
class Engine
{
  public:
    /** @p model must outlive the engine; its max_seq bounds
     *  prompt + generation length per request. */
    Engine(LlamaModel &model, const EngineConfig &config);

    /** Drain @p queue to completion; results ordered by request id. */
    std::vector<RequestResult> run(RequestQueue &queue);

    /** Statistics of the most recent run(). */
    const ServeStats &stats() const { return stats_; }

    const KvCache &kvCache() const { return cache_; }

  private:
    struct ActiveSeq
    {
        int64_t slot = -1; ///< cache sequence id
        ServeRequest request;
        RequestResult result;
        double last_token_s = 0.0;
        int64_t admit_ns = 0;    ///< trace clock at admission (0 = off)
        int64_t admit_order = 0; ///< admission sequence number
        bool done = false;
    };

    double now() const;
    int64_t pagesNeeded(int64_t tokens) const;
    void admit(ServeRequest request, double now_s);
    void decodeOnce(double now_s);
    void retire(std::size_t idx);
    /** Reject @p request before admission with @p status. */
    void rejectRequest(ServeRequest request, RequestStatus status);
    /** Cancel active @p idx with @p status, releasing its pages. */
    void finishEarly(std::size_t idx, RequestStatus status);
    /** Expire active sequences past their deadline at @p now_s. */
    void expireActive(double now_s);
    /** Pages the next decode step will allocate across @p active_. */
    int64_t pagesNeededThisStep() const;

    LlamaModel &model_;
    EngineConfig config_;
    KvCache cache_;
    ServeStats stats_;

    std::vector<ActiveSeq> active_;
    std::vector<int64_t> free_slots_;
    std::vector<RequestResult> done_;
    // Preallocated inference-step staging (zero allocs per step).
    std::vector<int64_t> seq_ids_;
    std::vector<int32_t> step_tokens_;
    std::vector<float> logits_;

    double t0_s_ = 0.0;       ///< real-clock run start
    double idle_skip_s_ = 0.0; ///< logical time skipped while idle
    int64_t admit_counter_ = 0; ///< admissions so far this run
    int64_t head_deferrals_ = 0; ///< consecutive idle head deferrals
};

} // namespace serve
} // namespace snip

#endif // SNIP_SERVE_ENGINE_H
