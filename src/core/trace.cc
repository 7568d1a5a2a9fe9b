#include "core/trace.h"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string_view>

namespace cubicleos::core {

namespace {

/** Category names, indexed by TraceCategory. */
constexpr std::string_view kNames[] = {"faults", "evictions", "lifecycle"};

/** The enabled categories as a bit mask, parsed once. */
unsigned
enabledMask()
{
    static const unsigned mask = [] {
        const char *env = std::getenv("CUBICLEOS_TRACE");
        std::string_view rest = env != nullptr ? env : "";
        unsigned m = 0;
        while (!rest.empty()) {
            const std::size_t comma = rest.find(',');
            const std::string_view name = rest.substr(0, comma);
            rest = comma == std::string_view::npos ? ""
                                                   : rest.substr(comma + 1);
            if (name == "all") {
                m = ~0u;
                continue;
            }
            std::size_t i = 0;
            while (i < std::size(kNames) && kNames[i] != name)
                ++i;
            if (i < std::size(kNames)) {
                m |= 1u << i;
            } else if (!name.empty()) {
                std::fprintf(stderr,
                             "CUBICLEOS_TRACE: unknown category '%.*s' "
                             "(faults, evictions, lifecycle, all)\n",
                             static_cast<int>(name.size()), name.data());
            }
        }
        return m;
    }();
    return mask;
}

} // namespace

bool
traceOn(TraceCategory category)
{
    return (enabledMask() >> static_cast<unsigned>(category)) & 1u;
}

void
trace(TraceCategory category, const char *fmt, ...)
{
    if (!traceOn(category))
        return;
    // Format the whole line first and emit it with one call, so lines
    // from concurrent threads never interleave mid-line.
    char line[512];
    const std::string_view name = kNames[static_cast<unsigned>(category)];
    const int len = std::snprintf(line, sizeof line, "[%.*s] ",
                            static_cast<int>(name.size()), name.data());
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(line + len, sizeof line - len, fmt, ap);
    va_end(ap);
    std::fprintf(stderr, "%s\n", line);
}

} // namespace cubicleos::core
