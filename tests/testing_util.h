/**
 * @file
 * Helpers shared by the test executables (each tests/test_*.cpp builds
 * standalone; this header is included relative to the source).
 */
#ifndef SNIP_TESTS_TESTING_UTIL_H
#define SNIP_TESTS_TESTING_UTIL_H

#include <cstdlib>

#include "runtime/thread_pool.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "tensor/gemm.h"

namespace snip {

/** Restores the default global pool when a thread-sweeping test ends,
 *  including on early exit from a failed ASSERT. */
struct GlobalPoolGuard
{
    GlobalPoolGuard() = default;
    GlobalPoolGuard(const GlobalPoolGuard &) = delete;
    GlobalPoolGuard &operator=(const GlobalPoolGuard &) = delete;
    ~GlobalPoolGuard() { runtime::setGlobalThreadCount(0); }
};

/** Restores SNIP_GEMM_PACK=auto semantics when a pack-mode-sweeping
 *  test ends. */
struct PackModeGuard
{
    PackModeGuard() = default;
    PackModeGuard(const PackModeGuard &) = delete;
    PackModeGuard &operator=(const PackModeGuard &) = delete;
    ~PackModeGuard() { setGemmPackModeByName("auto"); }
};

/** Restores telemetry and tracing to what SNIP_TELEMETRY / SNIP_TRACE
 *  ask for (off when unset) when a reconfiguring test ends. */
struct ObsGuard
{
    ObsGuard() = default;
    ObsGuard(const ObsGuard &) = delete;
    ObsGuard &operator=(const ObsGuard &) = delete;
    ~ObsGuard()
    {
        telemetry::configureFromSpec(std::getenv("SNIP_TELEMETRY"));
        trace::configureFromSpec(std::getenv("SNIP_TRACE"));
    }
};

} // namespace snip

#endif // SNIP_TESTS_TESTING_UTIL_H
