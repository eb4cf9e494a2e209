#include "util/logging.h"

namespace snip {

namespace detail {

void
emit(const std::string &prefix, const std::string &msg)
{
    std::fprintf(stderr, "[%s] %s\n", prefix.c_str(), msg.c_str());
}

void
die(const std::string &prefix, const std::string &msg, bool abort_process)
{
    std::fprintf(stderr, "[%s] %s\n", prefix.c_str(), msg.c_str());
    if (abort_process)
        std::abort();
    std::exit(1);
}

} // namespace detail
} // namespace snip
