#include "ilp/solve_cache.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <vector>

#include "runtime/fault_injection.h"
#include "telemetry/telemetry.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/logging.h"

namespace snip {

namespace {

// v3 dropped the per-entry search-node count that v1 and v2 stored;
// older files load as an empty cache and are rewritten on the next
// insert.
constexpr uint64_t kMagic = 0x534E4950534C4333ull; // "SNIPSLC3"

// Sanity bound a corrupt entry can't push an allocation or loop
// through before validation rejects it.
constexpr uint64_t kMaxChoices = 1u << 20;

// Smallest encodings: an entry's fixed fields (key, feasible flag,
// objective, efficiency, seconds, choice count) and one choice. A
// count read from the file is bounded by the bytes left to hold it, so
// a CRC-valid but crafted count can't size an allocation.
constexpr uint64_t kEntryFixedBytes = 6 * sizeof(uint64_t);
constexpr uint64_t kChoiceBytes = sizeof(uint64_t);

void
putU64(std::string &out, uint64_t v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
putF64(std::string &out, double v)
{
    out.append(reinterpret_cast<const char *>(&v), sizeof(v));
}

struct Reader
{
    const char *p;
    const char *end;

    bool
    bytes(void *dst, size_t n)
    {
        // Signed comparison: end < p must read as "empty", never as a
        // huge unsigned remainder.
        if (end - p < static_cast<ptrdiff_t>(n))
            return false;
        std::memcpy(dst, p, n);
        p += n;
        return true;
    }

    bool u64(uint64_t &v) { return bytes(&v, sizeof(v)); }
    bool f64(double &v) { return bytes(&v, sizeof(v)); }

    uint64_t left() const
    {
        return end > p ? static_cast<uint64_t>(end - p) : 0;
    }
};

/** One persisted entry; false on truncation or an invalid field, so
 *  a corrupt tail degrades to "keep the good prefix". */
bool
readEntry(Reader &r, uint64_t *key, IlpSolution *sol)
{
    uint64_t feasible = 0, n_choice = 0;
    if (!r.u64(*key) || !r.u64(feasible) || !r.f64(sol->objective) ||
        !r.f64(sol->achieved_efficiency) || !r.f64(sol->solve_seconds) ||
        !r.u64(n_choice))
        return false;
    if (feasible > 1 || !std::isfinite(sol->objective) ||
        !std::isfinite(sol->achieved_efficiency) ||
        !std::isfinite(sol->solve_seconds) || sol->solve_seconds < 0.0 ||
        n_choice > kMaxChoices || n_choice > r.left() / kChoiceBytes)
        return false;
    sol->feasible = feasible != 0;
    sol->choice.resize(n_choice);
    for (uint64_t i = 0; i < n_choice; ++i) {
        uint64_t c = 0;
        if (!r.u64(c) || c > kMaxChoices)
            return false;
        sol->choice[i] = static_cast<int>(c);
    }
    return true;
}

} // namespace

SolveCache::SolveCache(std::string path, size_t max_entries,
                       size_t max_bytes)
    : path_(std::move(path)),
      max_entries_(max_entries),
      max_bytes_(max_bytes)
{
    load();
}

size_t
SolveCache::entryBytes(const IlpSolution &solution)
{
    // Key + fixed solution fields + choice payload; close enough for a
    // budget knob (allocator overhead is ignored).
    return sizeof(uint64_t) + sizeof(IlpSolution) +
           solution.choice.size() * sizeof(int);
}

void
SolveCache::setLimits(size_t max_entries, size_t max_bytes)
{
    util::MutexLock lock(mu_);
    max_entries_ = max_entries;
    max_bytes_ = max_bytes;
    const size_t before = entries_.size();
    const int64_t evictions_before = evictions_;
    enforceLimitsLocked();
    telemetry::count(telemetry::Counter::SolveCacheEvicts,
                     evictions_ - evictions_before);
    if (entries_.size() != before && !path_.empty() && !saveLocked())
        warn("could not persist solve cache to ", path_);
}

void
SolveCache::touchLocked(Entry &entry, uint64_t key)
{
    (void)key;
    lru_.splice(lru_.begin(), lru_, entry.lru_it);
}

bool
SolveCache::lookup(uint64_t key, IlpSolution *out)
{
    util::MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
        ++misses_;
        telemetry::count(telemetry::Counter::SolveCacheMisses);
        return false;
    }
    ++hits_;
    telemetry::count(telemetry::Counter::SolveCacheHits);
    touchLocked(it->second, key);
    if (out)
        *out = it->second.solution;
    return true;
}

void
SolveCache::insertLocked(uint64_t key, const IlpSolution &solution)
{
    IlpSolution stored = solution;
    stored.from_cache = false; // stored entries are canonical solves
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        bytes_ -= entryBytes(it->second.solution);
        it->second.solution = std::move(stored);
        bytes_ += entryBytes(it->second.solution);
        touchLocked(it->second, key);
    } else {
        lru_.push_front(key);
        bytes_ += entryBytes(stored);
        entries_[key] = Entry{std::move(stored), lru_.begin()};
    }
    enforceLimitsLocked();
}

void
SolveCache::enforceLimitsLocked()
{
    // Evict cold entries until both bounds hold; the freshest entry
    // always survives, so an insert can never evict itself.
    while (lru_.size() > 1 &&
           ((max_entries_ > 0 && entries_.size() > max_entries_) ||
            (max_bytes_ > 0 && bytes_ > max_bytes_))) {
        const uint64_t victim = lru_.back();
        auto it = entries_.find(victim);
        bytes_ -= entryBytes(it->second.solution);
        entries_.erase(it);
        lru_.pop_back();
        ++evictions_;
    }
}

void
SolveCache::insert(uint64_t key, const IlpSolution &solution)
{
    util::MutexLock lock(mu_);
    // Diffed around the locked call (rather than counted inside
    // enforceLimitsLocked) so load() trimming stays a non-eviction in
    // telemetry too.
    const int64_t evictions_before = evictions_;
    insertLocked(key, solution);
    telemetry::count(telemetry::Counter::SolveCacheEvicts,
                     evictions_ - evictions_before);
    if (!path_.empty() && !saveLocked())
        warn("could not persist solve cache to ", path_);
}

bool
SolveCache::load()
{
    util::MutexLock lock(mu_);
    entries_.clear();
    lru_.clear();
    bytes_ = 0;
    if (path_.empty())
        return false;
    std::string file;
    if (!fsio::readFile(path_, &file))
        return false;
    if (SNIP_FAULT_POINT("solve_cache.load") && !file.empty()) {
        // Simulated on-disk corruption: flip one mid-file bit after
        // the read, exercising the validated-parse salvage path.
        file[file.size() / 2] =
            static_cast<char>(file[file.size() / 2] ^ 0x40);
    }

    Reader r{file.data(), file.data() + file.size()};
    uint64_t magic = 0, count = 0;
    if (!r.u64(magic) || magic != kMagic || !r.u64(count)) {
        warn("ignoring unreadable or outdated solve cache ", path_);
        return false;
    }
    // The last 8 bytes hold the CRC of everything before them. A
    // mismatch doesn't discard the file outright — the per-entry
    // validation below salvages the good prefix.
    bool clean = false;
    if (file.size() < 3 * sizeof(uint64_t)) {
        // Too short to hold magic + count + CRC: the trailer overlaps
        // the header already consumed, so there is no entry region at
        // all — don't move r.end behind r.p.
        r.end = r.p;
    } else {
        uint64_t stored = 0;
        std::memcpy(&stored, file.data() + file.size() - sizeof(uint64_t),
                    sizeof(stored));
        clean = crc32(file.data(), file.size() - sizeof(uint64_t)) ==
                stored;
        r.end = file.data() + file.size() - sizeof(uint64_t);
    }
    if (!clean)
        warn("solve cache ", path_,
             " failed its CRC check; salvaging valid entries");

    // Entries are persisted most-recently-used first; re-inserting in
    // reverse file order rebuilds the same recency (and applies the
    // bounds: the file's coldest entries fall off first). A bad entry
    // ends the parse — the stream can't be resynchronized past it —
    // and the validated prefix is kept.
    std::vector<std::pair<uint64_t, IlpSolution>> loaded;
    loaded.reserve(static_cast<size_t>(
        std::min<uint64_t>(count, r.left() / kEntryFixedBytes)));
    for (uint64_t e = 0; e < count; ++e) {
        uint64_t key = 0;
        IlpSolution sol;
        if (!readEntry(r, &key, &sol)) {
            warn("solve cache ", path_, ": entry ", e, " of ", count,
                 " is corrupt; keeping the ", loaded.size(),
                 " entries before it");
            clean = false;
            break;
        }
        loaded.emplace_back(key, std::move(sol));
    }
    const int64_t evictions_before = evictions_;
    for (auto it = loaded.rbegin(); it != loaded.rend(); ++it)
        insertLocked(it->first, it->second);
    evictions_ = evictions_before; // load trimming is not an eviction
    return clean;
}

bool
SolveCache::save() const
{
    util::MutexLock lock(mu_);
    return saveLocked();
}

bool
SolveCache::saveLocked() const
{
    if (path_.empty())
        return false;
    if (SNIP_FAULT_POINT("solve_cache.rewrite"))
        return false; // simulated rewrite failure; callers warn
    std::string image;
    putU64(image, kMagic);
    putU64(image, static_cast<uint64_t>(entries_.size()));
    for (uint64_t key : lru_) { // MRU first: recency persists
        const IlpSolution &sol = entries_.at(key).solution;
        putU64(image, key);
        putU64(image, sol.feasible ? 1 : 0);
        putF64(image, sol.objective);
        putF64(image, sol.achieved_efficiency);
        putF64(image, sol.solve_seconds);
        putU64(image, static_cast<uint64_t>(sol.choice.size()));
        for (int c : sol.choice)
            putU64(image, static_cast<uint64_t>(c));
    }
    putU64(image, crc32(image.data(), image.size()));
    // A cache is reconstructible state: readers-only atomicity is
    // enough (a crash just re-solves), so skip the fsync.
    return fsio::writeFileAtomic(path_, image, /*durable=*/false);
}

size_t
SolveCache::size() const
{
    util::MutexLock lock(mu_);
    return entries_.size();
}

int64_t
SolveCache::hits() const
{
    util::MutexLock lock(mu_);
    return hits_;
}

int64_t
SolveCache::misses() const
{
    util::MutexLock lock(mu_);
    return misses_;
}

int64_t
SolveCache::evictions() const
{
    util::MutexLock lock(mu_);
    return evictions_;
}

size_t
SolveCache::bytesUsed() const
{
    util::MutexLock lock(mu_);
    return bytes_;
}

void
SolveCache::resetStats()
{
    util::MutexLock lock(mu_);
    hits_ = 0;
    misses_ = 0;
    evictions_ = 0;
}

} // namespace snip
