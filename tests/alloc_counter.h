/**
 * @file
 * Counting replacements of the global allocation operators, for the
 * zero-allocation contracts (warmed GEMM, decode step, telemetry and
 * trace hot paths, disarmed fault points) and for bounds on the
 * largest single request (parsers sizing nothing by an unchecked
 * count read from a file). This header DEFINES the
 * replaceable operators: include it from exactly one translation unit
 * of a test executable (each tests/test_*.cpp builds standalone).
 */
#ifndef SNIP_TESTS_ALLOC_COUNTER_H
#define SNIP_TESTS_ALLOC_COUNTER_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>

namespace snip {
namespace alloc_counter {

/** Heap allocations made through the operators below, any thread. */
inline std::atomic<int64_t> g_allocs{0};

/** Largest single request since the last largestAllocDuring() began. */
inline std::atomic<size_t> g_largest{0};

inline void
bump(size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen &&
           !g_largest.compare_exchange_weak(seen, n,
                                            std::memory_order_relaxed)) {
        // A failed exchange reloaded `seen`; retry while n is larger.
    }
}

} // namespace alloc_counter

/** Heap allocations performed while @p fn runs. */
inline int64_t
allocDelta(const std::function<void()> &fn)
{
    const int64_t before =
        alloc_counter::g_allocs.load(std::memory_order_relaxed);
    fn();
    return alloc_counter::g_allocs.load(std::memory_order_relaxed) -
           before;
}

/** Bytes of the largest single heap request made while @p fn runs (0
 *  when it allocates nothing). */
inline size_t
largestAllocDuring(const std::function<void()> &fn)
{
    alloc_counter::g_largest.store(0, std::memory_order_relaxed);
    fn();
    return alloc_counter::g_largest.load(std::memory_order_relaxed);
}

} // namespace snip

// Every flavor the library can reach: plain, array, nothrow, and the
// aligned forms the arena uses. These replacements back new with
// malloc and delete with free by design; GCC flags the free once it
// inlines a delete into a caller that got the pointer from new.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void *
operator new(size_t n)
{
    snip::alloc_counter::bump(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](size_t n)
{
    return ::operator new(n);
}

void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    // std::stable_sort's temporary buffer (and anything else using the
    // nothrow flavor) must allocate through the counting wrapper too,
    // or its storage would come from the default (possibly
    // sanitizer-intercepted) new yet be freed by our delete.
    snip::alloc_counter::bump(n);
    return std::malloc(n ? n : 1);
}

void *
operator new[](size_t n, const std::nothrow_t &tag) noexcept
{
    return ::operator new(n, tag);
}

void *
operator new(size_t n, std::align_val_t align)
{
    snip::alloc_counter::bump(n);
    void *p = nullptr;
    if (posix_memalign(&p, static_cast<size_t>(align), n ? n : 1) != 0)
        throw std::bad_alloc();
    return p;
}

void *
operator new[](size_t n, std::align_val_t align)
{
    return ::operator new(n, align);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif // SNIP_TESTS_ALLOC_COUNTER_H
