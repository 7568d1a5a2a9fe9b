#include "builder/image.h"

#include <array>

#include "hw/prng.h"

namespace cubicleos::builder {

namespace {

/** Two pages of code per in-tree component. */
constexpr std::size_t kComponentImageBytes = 8192;

} // namespace

std::vector<uint8_t>
makeBenignImage(std::size_t size, uint64_t seed,
                std::vector<std::size_t> *entries)
{
    std::vector<uint8_t> image;
    image.reserve(size);
    hw::Prng prng(seed | 1);
    if (entries != nullptr && size > 0)
        entries->push_back(0);

    // mod=11 ModRM byte over random registers, avoiding the one value
    // (0xCD) that starts the int80 pattern.
    auto modrmReg = [&]() -> uint8_t {
        const auto reg = static_cast<uint8_t>(prng.nextBelow(8));
        auto rm = static_cast<uint8_t>(prng.nextBelow(8));
        if (reg == 1 && rm == 5) // 0xC0 | 1<<3 | 5 == 0xCD
            rm = 0;
        return static_cast<uint8_t>(0xC0 | (reg << 3) | rm);
    };
    // Immediate bytes drawn from a menu that contains neither 0x0F nor
    // 0xCD, so no forbidden pattern can start inside an immediate.
    auto immByte = [&]() -> uint8_t {
        static constexpr uint8_t kImm[] = {0x00, 0x01, 0x11, 0x22, 0x33,
                                           0x44, 0x55, 0x66, 0x77, 0x7F};
        return kImm[prng.nextBelow(sizeof(kImm))];
    };

    while (image.size() < size) {
        const std::size_t room = size - image.size();
        switch (prng.nextBelow(14)) {
          case 0: // nop
            image.push_back(0x90);
            break;
          case 1: // push r64
            image.push_back(static_cast<uint8_t>(0x50 + prng.nextBelow(8)));
            break;
          case 2: // pop r64
            image.push_back(static_cast<uint8_t>(0x58 + prng.nextBelow(8)));
            break;
          case 3: // mov r64, r64
            if (room < 3) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0x48);
            image.push_back(0x89);
            image.push_back(modrmReg());
            break;
          case 4: // mov r32, imm32
            if (room < 5) {
                image.push_back(0x90);
                break;
            }
            image.push_back(static_cast<uint8_t>(0xB8 + prng.nextBelow(8)));
            for (int i = 0; i < 4; ++i)
                image.push_back(immByte());
            break;
          case 5: // add/sub/cmp r64, imm8
            if (room < 4) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0x48);
            image.push_back(0x83);
            image.push_back(modrmReg());
            image.push_back(immByte());
            break;
          case 6: // test r64, r64
            if (room < 3) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0x48);
            image.push_back(0x85);
            image.push_back(modrmReg());
            break;
          case 7: // ret — the byte after it starts a fresh function
            image.push_back(0xC3);
            if (entries != nullptr && image.size() < size)
                entries->push_back(image.size());
            break;
          // The two-byte-map and prefixed entries below keep the
          // invariant: 0x0F is always followed by a second opcode byte
          // outside {01, AE, 05, 34}, and 0xCD is never emitted.
          case 8: // movaps xmm, xmm
            if (room < 3) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0x0F);
            image.push_back(0x28);
            image.push_back(modrmReg());
            break;
          case 9: // movzx r32, r8
            if (room < 3) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0x0F);
            image.push_back(0xB6);
            image.push_back(modrmReg());
            break;
          case 10: // shl/shr r64, imm8 (group 2)
            if (room < 4) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0x48);
            image.push_back(0xC1);
            image.push_back(modrmReg());
            image.push_back(immByte());
            break;
          case 11: // rep movsb
            if (room < 2) {
                image.push_back(0x90);
                break;
            }
            image.push_back(0xF3);
            image.push_back(0xA4);
            break;
          case 12: { // bounded-switch jump-table dispatch (pass-3 idiom)
            // cmp rax,bound; ja default; lea rcx,[rip+9];
            // movsxd rdx,[rcx+rax*4]; add rcx,rdx; jmp rcx; then the
            // table ((bound+1) LE32 offsets relative to its own base)
            // and a nop sled the entries point into. Entry value bytes
            // are {4c+4k, 0, 0, 0} — multiples of 4 up to 28, so every
            // table byte pair decodes as a benign 2-byte ALU op and the
            // linear sweep re-aligns exactly at the sled. ja skips the
            // whole construct, and the walk follows the dispatch into
            // the sled, so it never decodes the table either.
            const std::size_t count = 2 + prng.nextBelow(3); // 2..4
            if (room < 22 + 8 * count) {
                image.push_back(0x90);
                break;
            }
            constexpr uint8_t kL = 1; // rcx: table base, then target
            constexpr uint8_t kD = 2; // rdx: sign-extended entry
            image.push_back(0x48); // cmp rax, count-1
            image.push_back(0x83);
            image.push_back(0xF8);
            image.push_back(static_cast<uint8_t>(count - 1));
            image.push_back(0x77); // ja past table + sled
            image.push_back(static_cast<uint8_t>(16 + 8 * count));
            image.push_back(0x48); // lea rcx, [rip+9]
            image.push_back(0x8D);
            image.push_back(0x05 | (kL << 3));
            image.push_back(0x09);
            image.push_back(0x00);
            image.push_back(0x00);
            image.push_back(0x00);
            image.push_back(0x48); // movsxd rdx, dword [rcx+rax*4]
            image.push_back(0x63);
            image.push_back(0x04 | (kD << 3));
            image.push_back(0x80 | kL);
            image.push_back(0x48); // add rcx, rdx
            image.push_back(0x01);
            image.push_back(0xC0 | (kD << 3) | kL);
            image.push_back(0xFF); // jmp rcx
            image.push_back(0xE0 | kL);
            for (std::size_t k = 0; k < count; ++k) {
                image.push_back(
                    static_cast<uint8_t>(4 * count + 4 * k));
                image.push_back(0x00);
                image.push_back(0x00);
                image.push_back(0x00);
            }
            for (std::size_t k = 0; k < 4 * count; ++k)
                image.push_back(0x90);
            break;
          }
          case 13: { // lea/call singleton; rarely a naked call r64
            if (room < 10) { // keep the lea target inside the image
                image.push_back(0x90);
                break;
            }
            if (prng.nextBelow(8) == 0) {
                // Residual CFI-trusted indirect call: pass 3 counts
                // and lists it as unresolved.
                image.push_back(0xFF);
                image.push_back(
                    static_cast<uint8_t>(0xD0 | prng.nextBelow(8)));
                break;
            }
            const auto reg = static_cast<uint8_t>(prng.nextBelow(8));
            image.push_back(0x48); // lea reg, [rip+2] → after the call
            image.push_back(0x8D);
            image.push_back(static_cast<uint8_t>(0x05 | (reg << 3)));
            image.push_back(0x02);
            image.push_back(0x00);
            image.push_back(0x00);
            image.push_back(0x00);
            image.push_back(0xFF); // call reg
            image.push_back(static_cast<uint8_t>(0xD0 | reg));
            break;
          }
        }
    }
    return image;
}

std::vector<uint8_t>
makeCfiImage(std::size_t size, uint64_t seed,
             core::verifier::EntryTable *table,
             std::vector<std::size_t> *entries)
{
    std::vector<uint8_t> image = makeBenignImage(size, seed, entries);
    image.push_back(0xC3); // seal fallthrough before the table data
    if (table != nullptr) {
        table->offset = image.size();
        table->count = 1;
    }
    // One address-taken entry: offset 0. All-zero bytes, so even if a
    // misaligned decode reads the table, no forbidden pattern can form.
    for (int i = 0; i < 4; ++i)
        image.push_back(0x00);
    return image;
}

const std::vector<uint8_t> &
componentImage(ImageSeed seed)
{
    // Seeds run 1..kBoot, the last slot.
    constexpr auto kSeeds = static_cast<std::size_t>(ImageSeed::kBoot);
    static const std::array<std::vector<uint8_t>, kSeeds> images = [] {
        std::array<std::vector<uint8_t>, kSeeds> all;
        for (std::size_t i = 0; i < kSeeds; ++i)
            all[i] = makeBenignImage(kComponentImageBytes, i + 1);
        return all;
    }();
    return images[static_cast<std::size_t>(seed) - 1];
}

} // namespace cubicleos::builder
