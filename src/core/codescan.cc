#include "core/codescan.h"

namespace cubicleos::core {

namespace {

/**
 * Forbidden encodings. wrpkru changes MPK permissions directly; xsetbv
 * and xrstor (/5 selects the state component that restores PKRU) can
 * smuggle a PKRU change through XSAVE state; the syscall family could
 * ask the host kernel to change page tags (pkey_mprotect) or
 * permissions (mprotect).
 */
constexpr ForbiddenPattern kForbidden[] = {
    {"wrpkru", {0x0F, 0x01, 0xEF}, {0xFF, 0xFF, 0xFF}, 3},
    {"xsetbv", {0x0F, 0x01, 0xD1}, {0xFF, 0xFF, 0xFF}, 3},
    {"xrstor", {0x0F, 0xAE, 0x28}, {0xFF, 0xFF, 0x38}, 3},
    {"syscall", {0x0F, 0x05, 0x00}, {0xFF, 0xFF, 0x00}, 2},
    {"sysenter", {0x0F, 0x34, 0x00}, {0xFF, 0xFF, 0x00}, 2},
    {"int80", {0xCD, 0x80, 0x00}, {0xFF, 0xFF, 0x00}, 2},
};

bool
matchAt(std::span<const uint8_t> image, std::size_t pos,
        const ForbiddenPattern &p)
{
    if (pos + p.len > image.size())
        return false;
    for (std::size_t i = 0; i < p.len; ++i) {
        if ((image[pos + i] & p.mask[i]) != p.bytes[i])
            return false;
    }
    return true;
}

} // namespace

std::span<const ForbiddenPattern>
forbiddenPatterns()
{
    return kForbidden;
}

std::optional<ForbiddenInsn>
scanCodeImage(std::span<const uint8_t> image)
{
    for (std::size_t pos = 0; pos < image.size(); ++pos) {
        for (const ForbiddenPattern &p : kForbidden) {
            if (matchAt(image, pos, p))
                return ForbiddenInsn{pos, p.mnemonic, p.len};
        }
    }
    return std::nullopt;
}

std::vector<ForbiddenInsn>
scanCodeImageAll(std::span<const uint8_t> image)
{
    std::vector<ForbiddenInsn> out;
    std::size_t pos = 0;
    while (pos < image.size()) {
        std::size_t advance = 1;
        for (const ForbiddenPattern &p : kForbidden) {
            if (matchAt(image, pos, p)) {
                out.push_back(ForbiddenInsn{pos, p.mnemonic, p.len});
                // Resume past the match so one sequence is reported
                // once, not again at its interior positions.
                advance = p.len;
                break;
            }
        }
        pos += advance;
    }
    return out;
}

} // namespace cubicleos::core
