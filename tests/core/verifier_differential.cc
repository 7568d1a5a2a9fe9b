/**
 * @file
 * Differential check of the auditor's length decoder against objdump.
 *
 * Usage: verifier_differential <objdump> <objcopy> <binary>
 *
 * objdump disassembles two inputs: a fixed-seed random byte stream,
 * and the .text of <binary> (extracted with objcopy). At every
 * instruction boundary objdump reports, decodeAt must return the same
 * length whenever both decode. A mismatch puts the reachability walk
 * out of step with the machine, the way a crafted image hides a
 * reachable wrpkru inside an immediate the walk misreads.
 * Two kinds of disagreement are counted, not failed:
 *
 *   - opaque: decodeAt refuses the bytes, so a reachable one is a
 *     hole in the walk and every finding rejects;
 *   - objdump "(bad)": c6/c7/fe/ff with an invalid ModRM.reg and 8d
 *     with mod=3, which decodeAt sizes but the CPU raises #UD on, so
 *     no instruction starts after them.
 *
 * Exits 1 on any length mismatch. Prints [SKIP] and exits 0 when
 * objdump or objcopy cannot be run.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "audit/insn.h"
#include "hw/prng.h"

namespace {

namespace fs = std::filesystem;
using cubicleos::audit::decodeAt;
using cubicleos::audit::kMaxInsnLen;

/** Random stream size: large enough that the 0x66 + REX.W immediate
 *  bug (an imm16 read where the CPU reads imm32) shows up. */
constexpr std::size_t kStreamBytes = std::size_t{1} << 20;
constexpr uint64_t kStreamSeed = 0xD1FF;
constexpr int kMaxPrinted = 10;

struct Tally {
    std::size_t boundaries = 0; ///< objdump instructions compared
    std::size_t agree = 0;      ///< both decode, same length
    std::size_t opaque = 0;     ///< decodeAt refuses the bytes
    std::size_t objdumpBad = 0; ///< objdump "(bad)", decodeAt sizes it
    std::size_t mismatches = 0;
};

std::string
quoted(const fs::path &p)
{
    return "'" + p.string() + "'";
}

bool
runnable(const char *tool)
{
    return tool[0] != '\0' && ::access(tool, X_OK) == 0;
}

/**
 * Walks objdump's listing of the raw x86-64 bytes in @p file, which
 * holds @p image, and compares each instruction with decodeAt.
 */
bool
compare(const char *objdump, const fs::path &file,
        const std::vector<uint8_t> &image, const char *what, Tally &t)
{
    const std::string cmd = quoted(objdump) +
        " -D -z -b binary -m i386:x86-64 --insn-width=16 " + quoted(file);
    FILE *pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return false;
    char line[512];
    int printed = 0;
    while (std::fgets(line, sizeof line, pipe) != nullptr) {
        // "   1f:\t66 4a a9 ...\tmnemonic operands"
        char *end = nullptr;
        const unsigned long addr = std::strtoul(line, &end, 16);
        if (end == line || end[0] != ':' || end[1] != '\t')
            continue;
        const char *bytes = end + 2;
        const char *text = std::strchr(bytes, '\t');
        if (text == nullptr)
            continue;
        std::size_t len = 0;
        for (const char *c = bytes; c < text; c += 3) {
            if (*c == ' ')
                break;
            len++;
        }
        // objdump sizes a truncated tail its own way; skip it.
        if (addr + kMaxInsnLen > image.size())
            continue;
        t.boundaries++;
        const auto insn = decodeAt(image, addr);
        if (!insn) {
            t.opaque++;
        } else if (std::strstr(text, "(bad)") != nullptr) {
            t.objdumpBad++;
        } else if (insn->length == len) {
            t.agree++;
        } else {
            t.mismatches++;
            if (printed++ < kMaxPrinted) {
                std::printf("MISMATCH %s+0x%lx: objdump %zu bytes, "
                            "decodeAt %u:", what, addr, len,
                            static_cast<unsigned>(insn->length));
                for (std::size_t k = 0; k < kMaxInsnLen; ++k)
                    std::printf(" %02x", image[addr + k]);
                std::printf("\n    objdump: %s", text + 1);
            }
        }
    }
    return ::pclose(pipe) == 0;
}

void
report(const char *what, const Tally &t)
{
    std::printf("%-12s %9zu boundaries: %9zu agree, %7zu opaque to the "
                "decoder, %6zu objdump (bad), %zu mismatches\n",
                what, t.boundaries, t.agree, t.opaque, t.objdumpBad,
                t.mismatches);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 4) {
        std::fprintf(stderr,
                     "usage: %s <objdump> <objcopy> <binary>\n", argv[0]);
        return 2;
    }
    const char *objdump = argv[1];
    const char *objcopy = argv[2];
    const fs::path binary = argv[3];
    if (!runnable(objdump) || !runnable(objcopy)) {
        std::printf("verifier_differential: [SKIP] objdump or objcopy "
                    "not installed\n");
        return 0;
    }

    const fs::path dir = fs::temp_directory_path() /
        ("verifier_differential." + std::to_string(::getpid()));
    fs::create_directories(dir);
    bool ok = true;

    std::vector<uint8_t> stream(kStreamBytes);
    cubicleos::hw::Prng prng(kStreamSeed);
    for (uint8_t &b : stream)
        b = static_cast<uint8_t>(prng.nextBelow(256));
    const fs::path streamFile = dir / "stream.bin";
    std::ofstream(streamFile, std::ios::binary)
        .write(reinterpret_cast<const char *>(stream.data()),
               static_cast<std::streamsize>(stream.size()));
    Tally random;
    ok &= compare(objdump, streamFile, stream, "random", random);
    report("random", random);

    const fs::path textFile = dir / "text.bin";
    const std::string extract = quoted(objcopy) +
        " -O binary --only-section=.text " + quoted(binary) + " " +
        quoted(textFile);
    Tally text;
    if (std::system(extract.c_str()) == 0) {
        std::ifstream in(textFile, std::ios::binary);
        const std::vector<uint8_t> image(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        ok &= !image.empty() &&
              compare(objdump, textFile, image, ".text", text);
        report(".text", text);
    } else {
        ok = false;
    }
    fs::remove_all(dir);

    if (!ok) {
        std::printf("FAIL: could not disassemble the inputs\n");
        return 1;
    }
    if (random.mismatches + text.mismatches != 0) {
        std::printf("FAIL: decodeAt and objdump disagree on %zu "
                    "instruction lengths\n",
                    random.mismatches + text.mismatches);
        return 1;
    }
    std::printf("OK: decodeAt matches objdump at every boundary both "
                "decode\n");
    return 0;
}
