/**
 * @file
 * Randomized property test for MPK tag virtualisation (DESIGN.md §14):
 * a program must not be able to tell whether its cubicle holds a real
 * physical tag or a dynamic one that is being multiplexed. The same
 * seeded operation sequence runs once on plain hardware tags and once
 * under severe artificial tag pressure (physical tags forced to 4, so
 * a single dynamic tag serves every cubicle); the observable outputs
 * must be byte-identical.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "core/system.h"
#include "tests/core/toy_components.h"

namespace cubicleos::core {
namespace {

using testing::ToyComponent;
using testing::addToy;
using testing::numbered;

constexpr int kToys = 10;
constexpr int kOps = 400;
constexpr uint32_t kSeed = 0xC0B1C1E5;

/** Host-side per-component accumulator, reset for every run. */
struct ToyState {
    uint64_t acc = 0;
};

/**
 * Runs the seeded op sequence on a fresh system built from @p cfg and
 * returns every observable value the program produced, in order.
 */
std::vector<uint64_t>
runScenario(const SystemConfig &cfg)
{
    System sys(cfg);
    std::vector<ToyState> state(kToys);
    for (int i = 0; i < kToys; ++i) {
        ToyState *st = &state[i];
        addToy(sys, numbered("c", i))
            .onExports([st](Exporter &exp, ToyComponent &me) {
                exp.fn<int(int)>("step", [st](int x) {
                    st->acc = st->acc * 1103515245u +
                              static_cast<uint64_t>(x);
                    return static_cast<int>(st->acc >> 16);
                });
                exp.fn<int(const char *, std::size_t)>(
                    "sum", [&me](const char *p, std::size_t n) {
                        me.sys()->touch(p, n, hw::Access::kRead);
                        int s = 0;
                        for (std::size_t j = 0; j < n; ++j)
                            s += p[j];
                        return s;
                    });
            });
    }
    sys.boot();

    std::vector<CrossFn<int(int)>> step;
    std::vector<CrossFn<int(const char *, std::size_t)>> sum;
    std::vector<char *> buf(kToys);
    for (int i = 0; i < kToys; ++i) {
        const std::string n = numbered("c", i);
        step.push_back(sys.resolve<int(int)>(n, "step"));
        sum.push_back(
            sys.resolve<int(const char *, std::size_t)>(n, "sum"));
        const Cid cid = sys.cidOf(n);
        buf[i] = reinterpret_cast<char *>(
            sys.monitor()
                .allocPagesFor(cid, 1, mem::PageType::kHeap)
                .ptr);
        // Each cubicle exposes its page to its ring neighbour.
        sys.runAs(cid, [&] {
            const Wid wid = sys.windowInit();
            sys.windowAdd(wid, buf[i], 256);
            sys.windowOpen(wid, sys.cidOf(numbered("c", (i + 1) % kToys)));
        });
    }

    // The op stream depends only on the seed, never on system state,
    // so both runs draw the identical sequence.
    std::mt19937 rng(kSeed);
    std::vector<uint64_t> out;
    out.reserve(kOps);
    for (int op = 0; op < kOps; ++op) {
        const int kind = static_cast<int>(rng() % 3);
        const int a = static_cast<int>(rng() % kToys);
        const int b = (a + 1 + static_cast<int>(rng() % (kToys - 1))) %
                      kToys;
        const int v = static_cast<int>(rng() % 1000);
        switch (kind) {
        case 0: // cross-call into a random peer
            sys.runAs(sys.cidOf(numbered("c", a)), [&] {
                out.push_back(
                    static_cast<uint64_t>(step[b](v)));
            });
            break;
        case 1: // owner rewrites its shared page
            sys.runAs(sys.cidOf(numbered("c", a)), [&] {
                sys.touch(buf[a], 256, hw::Access::kWrite);
                std::memset(buf[a], v & 0x3f, 256);
                out.push_back(static_cast<uint64_t>(v & 0x3f));
            });
            break;
        default: // ring neighbour reads through the window
            sys.runAs(sys.cidOf(numbered("c", a)), [&] {
                out.push_back(static_cast<uint64_t>(
                    sum[(a + 1) % kToys](buf[a], 256)));
            });
            break;
        }
    }
    // Final accumulator states are part of the observable output.
    for (int i = 0; i < kToys; ++i)
        out.push_back(state[i].acc);
    return out;
}

TEST(TagPressureProperty, PressuredRunIsByteIdenticalToPressureFree)
{
    SystemConfig base;
    base.numPages = 16384;
    base.stackPages = 2;

    SystemConfig pressured = base;
    pressured.virtualizeTags = true;
    pressured.physTagBudget = 4; // monitor, shared, parked + ONE tag
    pressured.dynamicTags = 1;

    const std::vector<uint64_t> want = runScenario(base);
    const std::vector<uint64_t> got = runScenario(pressured);

    ASSERT_EQ(want.size(), got.size());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(uint64_t)))
        << "tag multiplexing must be invisible to programs";
    EXPECT_EQ(want, got);
}

TEST(TagPressureProperty, PressuredRunActuallyEvicts)
{
    // Companion sanity check: the pressured configuration really does
    // exercise the eviction machinery (otherwise the property above
    // proves nothing).
    SystemConfig cfg;
    cfg.numPages = 16384;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 4;
    cfg.dynamicTags = 1;
    System sys(cfg);
    std::vector<ToyState> state(4);
    for (int i = 0; i < 4; ++i) {
        ToyState *st = &state[i];
        addToy(sys, numbered("c", i))
            .onExports([st](Exporter &exp, ToyComponent &) {
                exp.fn<int(int)>("step", [st](int x) {
                    st->acc += static_cast<uint64_t>(x);
                    return static_cast<int>(st->acc);
                });
            });
    }
    sys.boot();
    auto f = sys.resolve<int(int)>("c1", "step");
    for (int i = 0; i < 50; ++i) {
        sys.runAs(sys.cidOf("c0"), [&] { f(1); });
        auto &own = sys.monitor()
                        .cubicle(sys.cidOf("c2"))
                        .globalRange;
        sys.runAs(sys.cidOf("c2"), [&] {
            sys.touch(own.ptr, 16, hw::Access::kWrite);
        });
    }
    EXPECT_GT(sys.stats().evictions(), 0u);
    EXPECT_GT(sys.stats().faultIns(), 0u);
    EXPECT_LT(sys.stats().tagHitRatePercent(), 100.0);
}

TEST(TagPressure, EvictionParksGrantedPageInAGroupWithoutTenantPages)
{
    // The eviction walks only the groups the key summary flags for the
    // victim's tag. A page granted to the victim through a window sits
    // in a group holding none of the victim's own pages, and the
    // grant's retag alone flags that group: the sweep must still park
    // the page, or the cubicle inheriting the recycled tag reads it.
    SystemConfig cfg;
    cfg.numPages = 4096;
    cfg.stackPages = 2;
    cfg.virtualizeTags = true;
    cfg.physTagBudget = 4; // monitor, shared, parked + ONE tag
    cfg.dynamicTags = 1;
    System sys(cfg);
    addToy(sys, "tenant").onExports([](Exporter &exp, ToyComponent &me) {
        exp.fn<int(const char *)>("peek", [&me](const char *p) {
            me.sys()->touch(p, 1, hw::Access::kRead);
            return static_cast<int>(p[0]);
        });
    });
    addToy(sys, "owner");
    addToy(sys, "heir");
    sys.boot();
    auto peek = sys.resolve<int(const char *)>("tenant", "peek");
    const Cid tenant = sys.cidOf("tenant");
    const Cid owner = sys.cidOf("owner");
    const Cid heir = sys.cidOf("heir");
    Monitor &mon = sys.monitor();
    const auto parked = static_cast<uint8_t>(mon.parkedKey());

    // A whole group of padding puts the buffer, the last mapped page,
    // in a group of its own.
    ASSERT_TRUE(mon.allocPagesFor(owner, hw::kKeyGroupPages,
                                  mem::PageType::kHeap)
                    .valid());
    char *buf = reinterpret_cast<char *>(
        mon.allocPagesFor(owner, 1, mem::PageType::kHeap).ptr);
    ASSERT_NE(buf, nullptr);
    const std::size_t page = mon.space().pageIndexOf(buf);
    const std::size_t group = page / hw::kKeyGroupPages;
    for (std::size_t p = group * hw::kKeyGroupPages;
         p < (group + 1) * hw::kKeyGroupPages; ++p) {
        ASSERT_NE(mon.pageMeta().at(p).owner, tenant) << p;
        if (p > page) {
            ASSERT_FALSE(mon.space().entryAt(p).present) << p;
        }
    }

    sys.runAs(owner, [&] {
        sys.touch(buf, 1, hw::Access::kWrite);
        buf[0] = 42;
        const Wid wid = sys.windowInit();
        sys.windowAdd(wid, buf, 64);
        sys.windowOpen(wid, tenant);
        ASSERT_EQ(peek(buf), 42); // trap-and-map grants the tenant
    });
    const int tag = mon.cubicle(tenant).pkey;
    ASSERT_NE(tag, mon.parkedKey());
    ASSERT_EQ(mon.space().entryAt(page).pkey.load(),
              static_cast<uint8_t>(tag));

    // The heir's first touch evicts the tenant and inherits its tag.
    const mem::PageRange &own = mon.cubicle(heir).globalRange;
    sys.runAs(heir, [&] { sys.touch(own.ptr, 16, hw::Access::kWrite); });
    ASSERT_EQ(mon.cubicle(tenant).pkey.load(), mon.parkedKey());
    ASSERT_EQ(mon.cubicle(heir).pkey.load(), tag);
    EXPECT_EQ(mon.space().entryAt(page).pkey.load(), parked);

    const uint64_t violations = sys.stats().violations();
    EXPECT_THROW(sys.runAs(heir,
                           [&] { sys.touch(buf, 1, hw::Access::kRead); }),
                 hw::CubicleFault);
    EXPECT_EQ(sys.stats().violations(), violations + 1);
}

} // namespace
} // namespace cubicleos::core
