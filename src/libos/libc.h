/**
 * @file
 * The shared LIBC cubicle (newlibc stand-in).
 *
 * Small, state-light primitives used by every component. As a shared
 * cubicle it executes with the caller's privileges, stack and heap
 * (paper §3 step ❹): its checked memory primitives consult the MPK
 * state of the *calling* cubicle, which is exactly how Fig. 2's memcpy
 * accesses both the VFS window and RAMFS's own buffer.
 */

#ifndef CUBICLEOS_LIBOS_LIBC_H_
#define CUBICLEOS_LIBOS_LIBC_H_

#include "builder/image.h"
#include "core/system.h"

namespace cubicleos::libos {

/** The shared LIBC component. */
class LibcComponent : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "libc";
        s.kind = core::CubicleKind::kShared;
        s.image = builder::componentImage(builder::ImageSeed::kLibc);
        return s;
    }

    void registerExports(core::Exporter &exp) override;
};

/**
 * Resolved handle to the LIBC exports; cheap to copy. Every call runs
 * with the current cubicle's privileges (no trampoline).
 */
class Libc {
  public:
    Libc() = default;
    explicit Libc(core::System &sys);

    /** Checked memcpy across cubicle memory. */
    void memcpy(void *dst, const void *src, std::size_t n) const
    {
        memcpy_(dst, src, n);
    }
    /** Checked memset. */
    void memset(void *dst, int v, std::size_t n) const
    {
        memset_(dst, v, n);
    }
    /** Checked strlen (bounded by @p max). */
    std::size_t strnlen(const char *s, std::size_t max) const
    {
        return strnlen_(s, max);
    }
    /** Checked strcmp of NUL-terminated strings (bounded). */
    int strcmp(const char *a, const char *b) const
    {
        return strcmp_(a, b);
    }

  private:
    core::CrossFn<void(void *, const void *, std::size_t)> memcpy_;
    core::CrossFn<void(void *, int, std::size_t)> memset_;
    core::CrossFn<std::size_t(const char *, std::size_t)> strnlen_;
    core::CrossFn<int(const char *, const char *)> strcmp_;
};

} // namespace cubicleos::libos

#endif // CUBICLEOS_LIBOS_LIBC_H_
