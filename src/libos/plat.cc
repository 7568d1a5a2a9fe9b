#include "libos/plat.h"

namespace cubicleos::libos {

uint64_t
PlatComponent::nowNs() const
{
    // Wall progress = real elapsed time + modelled hardware cycles.
    const auto real = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - epoch_)
                          .count();
    const double modelled =
        hw::CycleClock::toNanoseconds(sys()->clock().read());
    return static_cast<uint64_t>(real) + static_cast<uint64_t>(modelled);
}

void
PlatComponent::registerExports(core::Exporter &exp)
{
    exp.fn<void(const char *, std::size_t)>(
        "plat_console_write", [this](const char *s, std::size_t n) {
            sys()->touch(s, n, hw::Access::kRead);
            console_.append(s, n);
        });

    exp.fn<uint64_t()>("plat_ticks_ns", [this] { return nowNs(); });

    exp.fn<void()>("plat_yield", [this] {
        // Host-OS yield: charged as a syscall on the Linux host.
        sys()->clock().charge(hw::cost::kSyscall);
    });
}

} // namespace cubicleos::libos
