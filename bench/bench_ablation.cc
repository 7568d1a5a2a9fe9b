/**
 * @file
 * Ablations of the paper's §8 future-work proposals:
 *
 *  1. Hot windows ("window-specific tags that reduce overhead for
 *     frequently-used windows"): keeping a frequently used buffer's
 *     window open across calls eliminates the per-call trap-and-map
 *     ping-pong; this bench quantifies the saving on an I/O-heavy
 *     read loop.
 *
 *  2. MPK tag virtualisation (>16 compartments): overflow cubicles
 *     hold logical keys and time-multiplex a dynamic pool of physical
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

bench::Measurement
readLoop(Rig &rig, int iters)
{
    bench::Measurement m;
    rig.app->run([&] {
        char *buf = static_cast<char *>(rig.sys->heapAlloc(4096));
        const int fd = rig.fs->open("/hot.bin", libos::kCreate |
                                                    libos::kRdWr);
        rig.fs->pwrite(fd, buf, 4096, 0);
        m = bench::measure(rig.sys->clock(), [&] {
            for (int i = 0; i < iters; ++i)
                rig.fs->pread(fd, buf, 4096, 0);
        });
        rig.fs->close(fd);
    });
    return m;
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
        const auto cold_m = readLoop(per_call, iters);
        const auto hot_m = readLoop(hot, iters);
        std::printf("%-28s %12s %12s %10s %10s\n", "config",
                    "total(ms)", "model(ms)", "traps", "retags");
        bench::rule('-', 78);
        std::printf("%-28s %12.2f %12.2f %10llu %10llu\n",
                    "per-call windows", cold_m.totalMs(),
                    cold_m.modelMs,
                    static_cast<unsigned long long>(
                        per_call.sys->stats().traps()),
                    static_cast<unsigned long long>(
                        per_call.sys->stats().retags()));
        std::printf("%-28s %12.2f %12.2f %10llu %10llu\n",
                    "hot windows", hot_m.totalMs(), hot_m.modelMs,
                    static_cast<unsigned long long>(
                        hot.sys->stats().traps()),
                    static_cast<unsigned long long>(
                        hot.sys->stats().retags()));
        bench::rule('-', 78);
        std::printf("speedup from hot windows: %.2fx on a cached "
                    "4 kB pread loop\n\n",
                    cold_m.totalMs() / hot_m.totalMs());
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
                std::make_unique<Echo>("c" + std::to_string(i)));
        }
        sys.boot();

        // Chain a call through every cubicle.
        std::vector<core::CrossFn<int(int)>> fns;
        for (int i = 0; i < kCubicles; ++i) {
            fns.push_back(sys.resolve<int(int)>(
                "c" + std::to_string(i),
                "c" + std::to_string(i) + "_inc"));
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
        int parked = 0, logical = 0;
        for (core::Cid cid = 0;
             cid < static_cast<core::Cid>(sys.cubicleCount()); ++cid) {
            const auto &cub = sys.monitor().cubicle(cid);
            if (cub.lkey >= hw::kFirstLogicalKey)
                ++logical;
            if (cub.pkey == sys.monitor().parkedKey())
                ++parked;
        }
        const uint64_t hits = sys.stats().tagHits();
        const uint64_t misses = sys.stats().tagMisses();
        std::printf("logical-key cubicles: %d (%d currently parked); "
                    "physical-tag hit rate %.1f%% over %llu switches — "
                    "evicted cubicles keep full isolation behind the "
                    "parked tag and fault back in on demand "
                    "(evictions: %llu)\n",
                    logical, parked,
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
