/**
 * @file
 * Paged KV cache for incremental decoding.
 *
 * Storage is organized as fixed-size token pages drawn from a
 * preallocated pool through a free-list, so resident memory is
 * O(active tokens) rather than O(max_seqs * max_seq): a sequence only
 * holds the pages its tokens actually fill, and retiring a sequence
 * returns its pages for immediate reuse.
 *
 * Two storage modes (SNIP_KV_CACHE):
 *
 *   fp8   (default) K/V values are stored as FP8-E4M3 byte codes
 *         (quant/codec.h) with one scale per (token, kv-head) head_dim
 *         block — the paper's scale-per-block recipe (Sec. 2.3)
 *         applied as a storage format. A stored value dequantizes to
 *         exactly the float the fake quantizer would have produced, so
 *         decode attention reads the fake-quantized attention input,
 *         nothing looser.
 *   fp32  reference mode: values are stored verbatim; a decode step
 *         reading this cache is bit-identical to the full-sequence
 *         forward (the serving determinism baseline).
 *
 * Decode attention reads the pages in place: headView() hands the
 * KernelTable's kvAttend walker (simd/kernels.h) the page table and
 * strides of one kv head, and the walker dequantizes each row in
 * registers. gatherHeadK/V copy the same values into a slab; they are
 * the reference the walker is tested against.
 *
 * Concurrency contract: the cache is not thread-safe — the engine
 * serializes begin/append/end on one thread, so there is no mutex to
 * annotate (src/util/thread_annotations.h). headView and gatherHeadK/V
 * are const and safe to call from pool workers while no mutation is in
 * flight (the decode schedule appends serially, then fans the walkers
 * out); parallelFor's join is the happens-before edge that publishes
 * the appended pages to those workers.
 */
#ifndef SNIP_SERVE_KV_CACHE_H
#define SNIP_SERVE_KV_CACHE_H

#include <cstdint>
#include <vector>

#include "quant/codec.h"
#include "simd/kernels.h"

namespace snip {
namespace serve {

/** SNIP_KV_CACHE spellings. */
enum class KvCacheMode
{
    Fp8,
    Fp32,
};

/** Name for logging/tables ("fp8" | "fp32"). */
const char *kvCacheModeName(KvCacheMode mode);

/** Parse a SNIP_KV_CACHE spelling; false and unchanged for unknown
 *  names (null/empty select the default, fp8). */
bool parseKvCacheMode(const char *spec, KvCacheMode *out);

/** The process-wide mode from SNIP_KV_CACHE (warns and falls back to
 *  fp8 on unknown spellings). */
KvCacheMode kvCacheModeFromEnv();

/** Geometry and capacity of one cache. */
struct KvCacheConfig
{
    int64_t n_layers = 0;
    int64_t n_kv_heads = 0;
    int64_t head_dim = 0;
    /** Tokens per page (SNIP_KV_PAGE; envConfig().kvPageTokens()). */
    int64_t page_tokens = 16;
    /** Pool capacity in pages, shared by every sequence and layer. */
    int64_t max_pages = 0;
    /** Sequence slots ([0, max_seqs) are valid seq ids). */
    int64_t max_seqs = 0;
    /** Longest sequence a slot may hold (sizes the page tables). */
    int64_t max_seq_tokens = 0;
    KvCacheMode mode = KvCacheMode::Fp8;

    int64_t kvDim() const { return n_kv_heads * head_dim; }
};

/** Paged K/V storage for up to max_seqs concurrent sequences. */
class KvCache
{
  public:
    explicit KvCache(const KvCacheConfig &config);

    const KvCacheConfig &config() const { return config_; }

    /** Claim slot @p seq_id for a new sequence. The slot must be
     *  inactive; its per-layer lengths start at zero. */
    void beginSequence(int64_t seq_id);

    /** Retire slot @p seq_id: every page it holds (all layers)
     *  returns to the free list in ascending page order. */
    void endSequence(int64_t seq_id);

    /** Append one token's K and V rows (each [kv_dim] floats) for
     *  @p layer of @p seq_id, allocating a page on boundary. */
    void append(int64_t seq_id, int64_t layer, const float *k,
                const float *v);

    /** Tokens stored for (seq, layer). */
    int64_t length(int64_t seq_id, int64_t layer) const;

    /**
     * Copy kv-head @p kvh of every stored K row for (seq, layer) into
     * @p dst as a contiguous [length, head_dim] slab, dequantizing in
     * fp8 mode. Performs no allocation.
     */
    void gatherHeadK(int64_t seq_id, int64_t layer, int64_t kvh,
                     float *dst) const;

    /** V-side gatherHeadK. */
    void gatherHeadV(int64_t seq_id, int64_t layer, int64_t kvh,
                     float *dst) const;

    /** Page view of kv-head @p kvh's K and V rows for (seq, layer),
     *  read in place by KernelTable::kvAttend. Valid until the next
     *  append to or end of the sequence. */
    simd::KvHeadView headView(int64_t seq_id, int64_t layer,
                              int64_t kvh) const;

    int64_t pagesInUse() const { return pages_in_use_; }
    int64_t pagesFree() const
    {
        return static_cast<int64_t>(free_.size());
    }
    int64_t activeSequences() const { return active_seqs_; }
    bool sequenceActive(int64_t seq_id) const;

  private:
    struct SeqLayer
    {
        std::vector<int32_t> pages;
        int64_t length = 0;
    };

    SeqLayer &slot(int64_t seq_id, int64_t layer);
    const SeqLayer &slot(int64_t seq_id, int64_t layer) const;
    int64_t allocPage();

    /** Flat element offset of (page, k-or-v, token-slot). */
    int64_t rowOffset(int64_t page, int64_t kv, int64_t tok) const;
    /** Index of (page, k-or-v, token-slot)'s first inverse scale. */
    int64_t scaleIndex(int64_t page, int64_t kv, int64_t tok) const;

    void encodeRow(int64_t page, int64_t kv, int64_t tok,
                   const float *src);
    void gatherHead(int64_t seq_id, int64_t layer, int64_t kv,
                    int64_t kvh, float *dst) const;

    KvCacheConfig config_;
    std::vector<SeqLayer> slots_;     ///< [max_seqs * n_layers]
    std::vector<char> seq_active_;    ///< [max_seqs]
    std::vector<int32_t> free_;       ///< LIFO page free list
    int64_t pages_in_use_ = 0;
    int64_t active_seqs_ = 0;

    // fp32 mode: [max_pages][2][page_tokens][kv_dim] floats.
    std::vector<float> data_;
    // fp8 mode: byte codes with the same geometry plus one inverse
    // scale per (page, k/v, token, kv-head) head_dim block.
    std::vector<uint8_t> codes_;
    std::vector<float> inv_scales_;
    // fp8 append: grid constants hoisted once per cache, and one
    // head_dim block of grid-snap scratch.
    QuantGrid grid_{};
    double fmt_max_ = 0.0;
    std::vector<float> snap_;
};

} // namespace serve
} // namespace snip

#endif // SNIP_SERVE_KV_CACHE_H
