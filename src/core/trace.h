/**
 * @file
 * Categorised stderr trace for the monitor's slow paths.
 *
 * One environment variable selects the categories, read once on first
 * use: CUBICLEOS_TRACE=faults,evictions,lifecycle (any subset, comma
 * separated) or CUBICLEOS_TRACE=all. Each line is prefixed with its
 * category, e.g. "[evictions] evict tenant0 tag=3 pages=44". A
 * disabled category costs a call and a branch per trace site.
 */

#ifndef CUBICLEOS_CORE_TRACE_H_
#define CUBICLEOS_CORE_TRACE_H_

#include <cstdint>

namespace cubicleos::core {

/** A trace category, named in CUBICLEOS_TRACE. */
enum class TraceCategory : uint8_t {
    kFaults,    ///< "faults": every trap-and-map entry
    kEvictions, ///< "evictions": tag evictions and fault-back-ins
    kLifecycle, ///< "lifecycle": destroy, restart, refused entries
};

/** True when CUBICLEOS_TRACE enables @p category. */
bool traceOn(TraceCategory category);

/** printf-style line "[<category>] ..." on stderr when enabled. */
void trace(TraceCategory category, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_TRACE_H_
