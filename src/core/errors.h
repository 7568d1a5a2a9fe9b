/**
 * @file
 * Error types raised by the CubicleOS trusted components.
 */

#ifndef CUBICLEOS_CORE_ERRORS_H_
#define CUBICLEOS_CORE_ERRORS_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/ids.h"

namespace cubicleos::core {

/**
 * Verdict value delivered to a caller whose cross-call was unwound
 * because the callee cubicle died (catchPeerFault). The porting
 * layers' libos::VfsErr::kErrPeerFault and
 * libos::NetErr::kNetPeerFault are defined as this value; -131
 * (ENOTRECOVERABLE) collides with neither error range.
 */
inline constexpr int64_t kPeerFaultVerdict = -131;

/** Misuse of the window API (non-owner management, bad wid, ...). */
class WindowError : public std::runtime_error {
  public:
    explicit WindowError(const std::string &what)
        : std::runtime_error("window error: " + what) {}
};

/** The loader refused an image or ran out of resources. */
class LoaderError : public std::runtime_error {
  public:
    explicit LoaderError(const std::string &what)
        : std::runtime_error("loader error: " + what) {}
};

/**
 * The loader refused an image: it is empty, it holds a forbidden byte
 * sequence anywhere (core/codescan.h; the message names the first
 * one's mnemonic and offset), or an entry point or declared
 * indirect-target table lies outside it. A LoaderError subtype so
 * callers treating every load refusal uniformly keep working.
 */
class VerifierError : public LoaderError {
  public:
    explicit VerifierError(const std::string &what) : LoaderError(what) {}
};

/** Symbol resolution failure (unknown component/symbol, bad signature). */
class LinkError : public std::runtime_error {
  public:
    explicit LinkError(const std::string &what)
        : std::runtime_error("link error: " + what) {}
};

/** Control-flow-integrity violation in cross-cubicle calls. */
class CfiError : public std::runtime_error {
  public:
    explicit CfiError(const std::string &what)
        : std::runtime_error("CFI violation: " + what) {}
};

/**
 * A cross-call's callee cubicle is dead or draining (lifecycle
 * subsystem, DESIGN.md §15). Thrown by CrossCallGuard on entry to a
 * non-live cubicle and by the fault/heap paths when a victim thread is
 * being unwound; porting layers catch it and return kPeerFaultVerdict
 * to their callers instead of crashing the deployment.
 */
class PeerFault : public std::runtime_error {
  public:
    PeerFault(Cid peer, const std::string &what)
        : std::runtime_error("peer fault: " + what), peer_(peer)
    {
    }

    /** The dead/draining cubicle the call was headed into. */
    Cid peer() const { return peer_; }

  private:
    Cid peer_;
};

/**
 * Runs @p fn, mapping PeerFault to kPeerFaultVerdict. The porting
 * layers wrap every call into another cubicle with it, so a destroyed
 * or draining callee (DESIGN.md §15) surfaces as an error return that
 * application code predating the lifecycle subsystem already handles.
 * A real generated trampoline could not propagate a C++ exception
 * across cubicles anyway.
 */
template <typename R, typename Fn>
R
catchPeerFault(Fn &&fn)
{
    try {
        return fn();
    } catch (const PeerFault &) {
        return static_cast<R>(kPeerFaultVerdict);
    }
}

/** Out of memory in the monitor's page pool or a cubicle heap. */
class OutOfMemory : public std::runtime_error {
  public:
    explicit OutOfMemory(const std::string &what)
        : std::runtime_error("out of memory: " + what) {}
};

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_ERRORS_H_
