/**
 * @file
 * Persistent, content-addressed cache of ILP solutions.
 *
 * The scheme-search pipeline is deterministic: identical training state
 * produces a bit-identical DivergenceTable and therefore a bit-identical
 * IlpProblem. Warm-restarted or repeated searches (bench sweeps, resumed
 * pretraining, the async service re-solving a checkpointed interval)
 * hence re-pose problems the process — or a previous process — has
 * already solved. The cache maps solveCacheKey() (ilpProblemHash() x
 * the DP resolution) to the stored IlpSolution so those solves are
 * skipped entirely.
 *
 * Entries are verified against the live problem on every hit
 * (verifySolution), so a hash collision or a stale file can never
 * smuggle in an invalid scheme — it just degrades to a miss.
 *
 * On-disk format (binary, alongside the train/checkpoint format):
 * magic "SNIPSLC3", entry count, then per entry the key, feasibility,
 * objective, achieved efficiency, original solve seconds and the
 * choice vector, closed by a CRC-32 trailer. The file is rewritten
 * atomically (tmp + rename) after each insert when a path is
 * configured. Every entry is validated on load (finite objectives,
 * bounded counts); a truncated or corrupt tail drops only the bad
 * entries — the validated prefix is kept — and an unreadable file is
 * an empty cache. That includes the older "SNIPSLC1"/"SNIPSLC2" files,
 * which also stored a search-node count: they load empty with one
 * warning and are replaced by the next insert.
 *
 * The cache is LRU-bounded: setLimits() caps the entry count and the
 * approximate in-memory bytes (0 = unlimited, the default). Lookups
 * refresh recency; inserts evict from the cold end before the file is
 * rewritten, so the persisted cache respects the bounds too. Entries
 * are persisted most-recently-used first and reloaded in that order,
 * so recency survives restarts.
 *
 * Thread-safe: the async worker and the trainer thread may look up and
 * insert concurrently.
 */
#ifndef SNIP_ILP_SOLVE_CACHE_H
#define SNIP_ILP_SOLVE_CACHE_H

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

#include "ilp/problem.h"
#include "util/thread_annotations.h"

namespace snip {

/** Problem-hash -> IlpSolution store, optionally file-backed. */
class SolveCache
{
  public:
    /** In-memory cache (no persistence). */
    SolveCache() = default;

    /** File-backed cache: loads @p path if it exists and rewrites it
     *  after every insert. Optional LRU bounds as in setLimits(). */
    explicit SolveCache(std::string path, size_t max_entries = 0,
                        size_t max_bytes = 0);

    /**
     * Bound the cache: at most @p max_entries entries and (approximate,
     * per entryBytes()) @p max_bytes bytes; 0 disables a bound. Takes
     * effect immediately (evicting the least-recently-used entries) and
     * on every subsequent insert/load. The most recent entry is never
     * evicted.
     */
    void setLimits(size_t max_entries, size_t max_bytes);

    /** Copy the solution stored under @p key into @p out. Counts a hit
     *  or a miss. */
    bool lookup(uint64_t key, IlpSolution *out);

    /** Store (or overwrite) @p key; persists when file-backed. */
    void insert(uint64_t key, const IlpSolution &solution);

    /** Reload from the configured path, replacing the in-memory map.
     *  Returns false (leaving the cache empty) when the file is
     *  missing or corrupt. */
    bool load();

    /** Rewrite the configured path; false on I/O error or when
     *  path-less. */
    bool save() const;

    size_t size() const;
    int64_t hits() const;
    int64_t misses() const;
    /** Entries dropped by the LRU bounds since construction. */
    int64_t evictions() const;
    /** Approximate bytes held (sum of entryBytes()). */
    size_t bytesUsed() const;
    void resetStats();
    const std::string &path() const { return path_; }

    /** Approximate in-memory footprint of one cached solution. */
    static size_t entryBytes(const IlpSolution &solution);

  private:
    struct Entry
    {
        IlpSolution solution;
        std::list<uint64_t>::iterator lru_it;
    };

    /** Persist the current contents (caller holds mu_). */
    bool saveLocked() const SNIP_REQUIRES(mu_);
    void insertLocked(uint64_t key, const IlpSolution &solution)
        SNIP_REQUIRES(mu_);
    /** Evict cold entries over the bounds. */
    void enforceLimitsLocked() SNIP_REQUIRES(mu_);
    void touchLocked(Entry &entry, uint64_t key) SNIP_REQUIRES(mu_);

    mutable util::Mutex mu_;
    std::unordered_map<uint64_t, Entry> entries_ SNIP_GUARDED_BY(mu_);
    /** front = most recently used */
    std::list<uint64_t> lru_ SNIP_GUARDED_BY(mu_);
    /** Set once in the constructor, immutable afterwards — readable
     *  without the lock. */
    std::string path_;
    size_t max_entries_ SNIP_GUARDED_BY(mu_) = 0;
    size_t max_bytes_ SNIP_GUARDED_BY(mu_) = 0;
    size_t bytes_ SNIP_GUARDED_BY(mu_) = 0;
    int64_t hits_ SNIP_GUARDED_BY(mu_) = 0;
    int64_t misses_ SNIP_GUARDED_BY(mu_) = 0;
    int64_t evictions_ SNIP_GUARDED_BY(mu_) = 0;
};

} // namespace snip

#endif // SNIP_ILP_SOLVE_CACHE_H
