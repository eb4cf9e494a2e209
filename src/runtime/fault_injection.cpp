#include "runtime/fault_injection.h"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string_view>
#include <vector>

#include "runtime/env_config.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/thread_annotations.h"

namespace snip {
namespace fault {

namespace detail {

std::atomic<int> g_mode{-1};

} // namespace detail

namespace {

constexpr uint64_t kDefaultSeed = 0x5EEDull;

enum class TriggerKind
{
    Nth,    ///< fire on exactly the n-th hit
    EveryK, ///< fire on hits k, 2k, 3k, ...
    Prob,   ///< fire each hit with probability p (own Rng stream)
};

struct Site
{
    TriggerKind kind = TriggerKind::Nth;
    uint64_t n = 0; ///< Nth/EveryK operand
    double p = 0.0; ///< Prob operand
    Rng rng{0};     ///< Prob stream (seeded per site at install)
    int64_t hits = 0;
    int64_t injected = 0;
};

/** Schedule + counters behind every armed evaluation. The hot path
 *  never reaches here while disarmed. The transparent comparator lets
 *  shouldInject look up a `const char *` site without constructing a
 *  std::string. */
struct Registry
{
    util::Mutex mu;
    std::map<std::string, Site, std::less<>> sites SNIP_GUARDED_BY(mu);
    int64_t total_injected SNIP_GUARDED_BY(mu) = 0;
};

Registry &
registry()
{
    static Registry *r = new Registry; // leaked, like env_config
    return *r;
}

/** FNV-1a, mixing the site name into the per-site Prob seed so two
 *  sites sharing one spec seed still draw decorrelated streams. */
uint64_t
hashSiteName(const std::string &name)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull;
    }
    return h;
}

bool
parseU64(std::string_view text, uint64_t *out)
{
    if (text.empty())
        return false;
    uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        const uint64_t digit = static_cast<uint64_t>(c - '0');
        // A count or seed past 2^64 - 1 would wrap into a different
        // schedule; refuse it like any other malformed number.
        if (v > (std::numeric_limits<uint64_t>::max() - digit) / 10)
            return false;
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

/** One `<site>:<trigger>` clause -> (name, Site). */
bool
parseClause(std::string_view clause, std::string *name, Site *site)
{
    const size_t colon = clause.find(':');
    if (colon == std::string_view::npos || colon == 0 ||
        colon + 1 >= clause.size())
        return false;
    *name = std::string(clause.substr(0, colon));
    std::string_view trig = clause.substr(colon + 1);

    if (trig.substr(0, 6) == "every-") {
        site->kind = TriggerKind::EveryK;
        return parseU64(trig.substr(6), &site->n) && site->n > 0;
    }
    if (trig.substr(0, 2) == "p=") {
        site->kind = TriggerKind::Prob;
        std::string_view prob = trig.substr(2);
        uint64_t seed = kDefaultSeed;
        const size_t at = prob.find('@');
        if (at != std::string_view::npos) {
            if (!parseU64(prob.substr(at + 1), &seed))
                return false;
            prob = prob.substr(0, at);
        }
        char *end = nullptr;
        const std::string prob_str(prob);
        site->p = std::strtod(prob_str.c_str(), &end);
        // NaN compares false against both bounds — reject it
        // explicitly or strtod("nan") slips through as a schedule
        // that never fires.
        if (end == prob_str.c_str() || *end != '\0' ||
            !std::isfinite(site->p) || site->p < 0.0 || site->p > 1.0)
            return false;
        site->rng = Rng(seed ^ hashSiteName(*name));
        return true;
    }
    site->kind = TriggerKind::Nth;
    return parseU64(trig, &site->n) && site->n > 0;
}

bool
parseSpec(std::string_view spec,
          std::vector<std::pair<std::string, Site>> *out)
{
    while (!spec.empty()) {
        const size_t comma = spec.find(',');
        const std::string_view clause = spec.substr(0, comma);
        std::string name;
        Site site;
        if (!parseClause(clause, &name, &site))
            return false;
        out->emplace_back(std::move(name), site);
        spec = comma == std::string_view::npos
                   ? std::string_view{}
                   : spec.substr(comma + 1);
    }
    return true;
}

} // namespace

namespace detail {

int
resolveMode()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    int mode = g_mode.load(std::memory_order_acquire);
    if (mode >= 0)
        return mode; // raced with another resolver/configure()
    const char *spec = runtime::envConfig().fault().cstrOrNull();
    std::vector<std::pair<std::string, Site>> parsed;
    if (spec != nullptr && *spec != '\0' &&
        std::string_view(spec) != "off" &&
        !parseSpec(spec, &parsed)) {
        warn("unknown SNIP_FAULT value '", spec,
             "' (expected <site>:<n|every-k|p=x[@seed]>[,...]); fault "
             "injection disabled");
        parsed.clear();
    }
    reg.sites.clear();
    reg.total_injected = 0;
    for (auto &entry : parsed)
        reg.sites[entry.first] = entry.second;
    mode = reg.sites.empty() ? 0 : 1;
    g_mode.store(mode, std::memory_order_release);
    return mode;
}

bool
shouldInject(const char *site)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    auto it = reg.sites.find(std::string_view(site));
    if (it == reg.sites.end())
        return false;
    Site &s = it->second;
    ++s.hits;
    bool fire = false;
    switch (s.kind) {
        case TriggerKind::Nth:
            fire = static_cast<uint64_t>(s.hits) == s.n;
            break;
        case TriggerKind::EveryK:
            fire = static_cast<uint64_t>(s.hits) % s.n == 0;
            break;
        case TriggerKind::Prob:
            fire = s.rng.nextBernoulli(s.p);
            break;
    }
    if (fire) {
        ++s.injected;
        ++reg.total_injected;
        warn("fault injected: ", site, " (hit ", s.hits, ")");
        telemetry::count(telemetry::Counter::FaultsInjected);
    }
    return fire;
}

} // namespace detail

bool
configureFromSpec(const char *spec)
{
    std::vector<std::pair<std::string, Site>> parsed;
    if (spec != nullptr && *spec != '\0' &&
        std::string_view(spec) != "off" && !parseSpec(spec, &parsed))
        return false;
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    reg.sites.clear();
    reg.total_injected = 0;
    for (auto &entry : parsed)
        reg.sites[entry.first] = entry.second;
    detail::g_mode.store(reg.sites.empty() ? 0 : 1,
                         std::memory_order_release);
    return true;
}

void
reset()
{
    configureFromSpec(nullptr);
}

int64_t
siteHits(const std::string &site)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    auto it = reg.sites.find(site);
    return it == reg.sites.end() ? 0 : it->second.hits;
}

int64_t
siteInjected(const std::string &site)
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    auto it = reg.sites.find(site);
    return it == reg.sites.end() ? 0 : it->second.injected;
}

int64_t
totalInjected()
{
    Registry &reg = registry();
    util::MutexLock lk(reg.mu);
    return reg.total_injected;
}

} // namespace fault
} // namespace snip
