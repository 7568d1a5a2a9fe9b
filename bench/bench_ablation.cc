/**
 * @file
 * Ablations of the paper's §8 future-work proposals:
 *
 *  1. Hot windows ("window-specific tags that reduce overhead for
 *     frequently-used windows"): keeping a frequently used buffer's
 *     window open across calls eliminates the per-call prestage and
 *     hand-back retags (per-call grants already take no trap); this
 *     bench quantifies the saving on an I/O-heavy read loop, in
 *     retags and modelled time.
 *
 *  2. MPK tag virtualisation (>16 compartments): overflow cubicles
 *     are dynamically tagged and time-multiplex a pool of physical
 *     tags (DESIGN.md §14); this bench shows a 20-isolated-cubicle
 *     system boots and runs, and reports its tag hit rate.
 */

#include <cstdio>
#include <cstring>

#include "bench/bench_util.h"
#include "builder/image.h"
#include "libos/app.h"
#include "libos/stack.h"
#include "libos/ukapi.h"
#include "tests/core/toy_components.h"

using namespace cubicleos;

namespace {

struct Rig {
    explicit Rig(bool hot)
    {
        core::SystemConfig cfg;
        cfg.numPages = 16384;
        sys = std::make_unique<core::System>(cfg);
        libos::addLibosComponents(*sys);
        app = static_cast<libos::AppComponent *>(
            &sys->addComponent(std::make_unique<libos::AppComponent>()));
        libos::finishBoot(*sys);
        app->run([&] {
            fs = std::make_unique<libos::CubicleFileApi>(*sys, "ramfs",
                                                         hot);
        });
    }

    ~Rig()
    {
        app->run([&] { fs.reset(); });
    }

    std::unique_ptr<core::System> sys;
    libos::AppComponent *app = nullptr;
    std::unique_ptr<libos::CubicleFileApi> fs;
};

/** A measured pread loop and the protection work it did. */
struct Loop {
    bench::Measurement m;
    uint64_t traps = 0;
    uint64_t retags = 0;    ///< trap-and-map retags (Stats::retags)
    uint64_t mprotects = 0; ///< every pkey_mprotect call
};

Loop
readLoop(Rig &rig, int iters)
{
    Loop loop;
    core::Stats &st = rig.sys->stats();
    const hw::AddressSpace &space = rig.sys->monitor().space();
    rig.app->run([&] {
        char *buf = static_cast<char *>(rig.sys->heapAlloc(4096));
        const int fd = rig.fs->open("/hot.bin", libos::kCreate |
                                                    libos::kRdWr);
        rig.fs->pwrite(fd, buf, 4096, 0);
        const uint64_t traps0 = st.traps();
        const uint64_t retags0 = st.retags();
        const uint64_t mprotects0 = space.retagCount();
        loop.m = bench::measure(rig.sys->clock(), [&] {
            for (int i = 0; i < iters; ++i)
                rig.fs->pread(fd, buf, 4096, 0);
        });
        loop.traps = st.traps() - traps0;
        loop.retags = st.retags() - retags0;
        loop.mprotects = space.retagCount() - mprotects0;
        rig.fs->close(fd);
    });
    return loop;
}

} // namespace

int
main()
{
    const int iters = bench::intFromEnv("CUBICLE_BENCH_SCALE", 5000);

    bench::header("Ablation 1: hot windows (paper Sec. 8 proposal)",
                  "Sartakov et al., ASPLOS'21, Sec. 8 discussion");
    {
        Rig per_call(false);
        Rig hot(true);
        readLoop(per_call, 100); // warm-up
        readLoop(hot, 100);
        const Loop cold = readLoop(per_call, iters);
        const Loop hot_l = readLoop(hot, iters);
        std::printf("%d preads of 4 kB, counts over the measured loop\n",
                    iters);
        std::printf("%-20s %10s %10s %8s %8s %14s\n", "config",
                    "total(ms)", "model(ms)", "traps", "retags",
                    "pkey_mprotect");
        bench::rule('-', 76);
        const auto row = [](const char *label, const Loop &l) {
            std::printf("%-20s %10.2f %10.2f %8llu %8llu %14llu\n", label,
                        l.m.totalMs(), l.m.modelMs,
                        static_cast<unsigned long long>(l.traps),
                        static_cast<unsigned long long>(l.retags),
                        static_cast<unsigned long long>(l.mprotects));
        };
        row("per-call windows", cold);
        row("hot windows", hot_l);
        bench::rule('-', 76);
        std::printf("speed-up from hot windows: %.2fx total, %.2fx "
                    "modelled\n\n",
                    cold.m.totalMs() / hot_l.m.totalMs(),
                    cold.m.modelMs / hot_l.m.modelMs);
    }

    bench::header(
        "Ablation 2: MPK tag virtualisation (>16 compartments)",
        "Sartakov et al., ASPLOS'21, Sec. 8 discussion");
    {
        core::SystemConfig cfg;
        cfg.numPages = 16384;
        cfg.virtualizeTags = true;
        core::System sys(cfg);
        constexpr int kCubicles = 20;
        struct Echo : core::Component {
            std::string name_;
            explicit Echo(std::string n) : name_(std::move(n)) {}
            core::ComponentSpec spec() const override
            {
                core::ComponentSpec s;
                s.name = name_;
                s.image =
                    builder::componentImage(builder::ImageSeed::kApp);
                s.stackPages = 2;
                return s;
            }
            void registerExports(core::Exporter &exp) override
            {
                exp.fn<int(int)>(name_ + "_inc",
                                 [](int x) { return x + 1; });
            }
        };
        for (int i = 0; i < kCubicles; ++i) {
            sys.addComponent(
                std::make_unique<Echo>(core::testing::numbered("c", i)));
        }
        sys.boot();

        // Chain a call through every cubicle.
        std::vector<core::CrossFn<int(int)>> fns;
        for (int i = 0; i < kCubicles; ++i) {
            fns.push_back(sys.resolve<int(int)>(
                core::testing::numbered("c", i),
                core::testing::numbered("c", i) + "_inc"));
        }
        int v = 0;
        const auto m = bench::measure(sys.clock(), [&] {
            sys.runAs(sys.cidOf("c0"), [&] {
                for (int round = 0; round < 2000; ++round) {
                    for (auto &fn : fns)
                        v = fn(v);
                }
            });
        });
        std::printf("20 isolated cubicles on 16 hardware keys: boot OK, "
                    "%d calls in %.2f ms\n", v, m.totalMs());
        int parked = 0, dynamic = 0;
        for (core::Cid cid = 0;
             cid < static_cast<core::Cid>(sys.cubicleCount()); ++cid) {
            const auto &cub = sys.monitor().cubicle(cid);
            if (cub.dynamicTag())
                ++dynamic;
            if (cub.pkey == sys.monitor().parkedKey())
                ++parked;
        }
        const uint64_t hits = sys.stats().tagHits();
        const uint64_t misses = sys.stats().tagMisses();
        std::printf("dynamically tagged cubicles: %d (%d currently "
                    "parked); physical-tag hit rate %.1f%% over %llu "
                    "switches — evicted cubicles keep full isolation "
                    "behind the parked tag and fault back in on demand "
                    "(evictions: %llu)\n",
                    dynamic, parked,
                    hits + misses
                        ? 100.0 * static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0.0,
                    static_cast<unsigned long long>(hits + misses),
                    static_cast<unsigned long long>(
                        sys.stats().evictions()));
    }
    return 0;
}
