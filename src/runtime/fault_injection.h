/**
 * @file
 * Deterministic fault injection for the durable-state and overload
 * seams (checkpoint writes, telemetry export, KV page allocation,
 * serve admission, scheme solves).
 *
 * A fault *site* is a named branch compiled into production code:
 *
 *   if (SNIP_FAULT_POINT("ckpt.rename")) { <fail like a crash here> }
 *
 * Sites follow the SNIP_TRACE zero-overhead discipline: disabled
 * (SNIP_FAULT unset — the production configuration), every site is one
 * relaxed atomic flag load and a predicted branch, no allocation, no
 * lock, no clock — so arming the framework in tests cannot change what
 * ships, and leaving it off provably changes nothing (test_faults.cpp
 * pins bit-identical training/serving at 1/2/8 threads).
 *
 * Schedules come from the SNIP_FAULT environment variable (captured
 * once via runtime/env_config) or configureFromSpec():
 *
 *   SNIP_FAULT=<site>:<trigger>[,<site>:<trigger>...]
 *
 * with three trigger forms (a count or seed must fit in 64 bits):
 *
 *   <n>          fire on exactly the n-th hit of the site (1-based)
 *   every-<k>    fire on every k-th hit (k, 2k, 3k, ...)
 *   p=<x>[@<s>]  fire each hit with probability x, drawn from a
 *                dedicated per-site xoshiro256** stream seeded by
 *                s (default 0x5EED) mixed with the site name — so a
 *                probabilistic schedule is a pure function of the
 *                spec and the hit sequence, bit-reproducible across
 *                runs and never entangled with any model RNG.
 *
 * Example: SNIP_FAULT=ckpt.rename:2,kv.alloc:every-7,serve.admit:p=0.1
 *
 * Every injection is logged (warn) and counted in telemetry
 * (Counter::FaultsInjected); per-site hit/injection counts are
 * queryable for test assertions.
 */
#ifndef SNIP_RUNTIME_FAULT_INJECTION_H
#define SNIP_RUNTIME_FAULT_INJECTION_H

#include <atomic>
#include <cstdint>
#include <string>

namespace snip {
namespace fault {

namespace detail {

/** -1 = unresolved (parse SNIP_FAULT on first use), 0 = off,
 *  1 = armed (at least one site scheduled). */
extern std::atomic<int> g_mode;

int resolveMode();

/** Slow path behind an armed SNIP_FAULT_POINT: bump the site's hit
 *  counter and evaluate its trigger. Unscheduled sites return false
 *  (and are not tracked). */
bool shouldInject(const char *site);

inline bool
on()
{
    int mode = g_mode.load(std::memory_order_relaxed);
    if (mode < 0)
        mode = resolveMode();
    return mode == 1;
}

} // namespace detail

/** True when a fault schedule is armed (hot-path fast check). */
inline bool
enabled()
{
    return detail::on();
}

/** Parse a SNIP_FAULT-style spec and install it, replacing any
 *  previous schedule and zeroing all counters. nullptr, "" and "off"
 *  disarm. Returns false (schedule unchanged) on a malformed spec. */
bool configureFromSpec(const char *spec);

/** Disarm and clear every schedule and counter (test teardown). */
void reset();

/** Times @p site has been evaluated while armed. */
int64_t siteHits(const std::string &site);

/** Times @p site actually fired. */
int64_t siteInjected(const std::string &site);

/** Total injections across all sites since the last configure/reset. */
int64_t totalInjected();

} // namespace fault
} // namespace snip

/**
 * One named fault site. Evaluates to true when the armed schedule
 * says this hit of @p site fails; false (one relaxed load + branch)
 * whenever fault injection is off. @p site must be a string literal.
 */
#define SNIP_FAULT_POINT(site)                                         \
    (::snip::fault::detail::on() &&                                    \
     ::snip::fault::detail::shouldInject(site))

#endif // SNIP_RUNTIME_FAULT_INJECTION_H
