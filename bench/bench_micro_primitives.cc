/**
 * @file
 * Microbenchmarks of the isolation primitives (google-benchmark).
 *
 * Covers the costs the paper cites in §2.2 — wrpkru ≈ 20 cycles,
 * pkey assignment ≈ 1,100 cycles — plus the building blocks of every
 * figure: cross-cubicle call vs direct call vs message-based RPC,
 * window operations, and the trap-and-map path.
 *
 * Times shown are real host time of the simulation; modelled virtual
 * cycles are reported as counters where relevant.
 */

#include <benchmark/benchmark.h>

#include "baselines/memfs.h"
#include "baselines/microkernel.h"
#include "core/system.h"
#include "libos/app.h"
#include "libos/grant.h"
#include "libos/stack.h"

using namespace cubicleos;

namespace {

/** Minimal two-cubicle system with one exported no-op. */
struct CallRig {
    explicit CallRig(core::IsolationMode mode)
    {
        core::SystemConfig cfg;
        cfg.numPages = 2048;
        cfg.mode = mode;
        sys = std::make_unique<core::System>(cfg);
        struct Srv : core::Component {
            core::ComponentSpec spec() const override
            {
                core::ComponentSpec s;
                s.name = "srv";
                return s;
            }
            void registerExports(core::Exporter &exp) override
            {
                exp.fn<int(int)>("noop", [](int x) { return x + 1; });
            }
        };
        sys->addComponent(std::make_unique<Srv>());
        sys->addComponent(std::make_unique<libos::AppComponent>("app"));
        sys->boot();
        fn = sys->resolve<int(int)>("srv", "noop");
        app = sys->cidOf("app");
    }

    std::unique_ptr<core::System> sys;
    core::CrossFn<int(int)> fn;
    core::Cid app{};
};

void
BM_DirectCall(benchmark::State &state)
{
    CallRig rig(core::IsolationMode::kUnikraft);
    rig.sys->runAs(rig.app, [&] {
        int v = 0;
        for (auto _ : state)
            benchmark::DoNotOptimize(v = rig.fn(v));
    });
}
BENCHMARK(BM_DirectCall);

void
BM_CrossCubicleCall(benchmark::State &state)
{
    CallRig rig(core::IsolationMode::kFull);
    rig.sys->runAs(rig.app, [&] {
        int v = 0;
        for (auto _ : state)
            benchmark::DoNotOptimize(v = rig.fn(v));
    });
    state.counters["model_cycles/call"] = benchmark::Counter(
        static_cast<double>(rig.sys->clock().read()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_CrossCubicleCall);

void
BM_MicrokernelRpc(benchmark::State &state)
{
    hw::CycleClock clock;
    baselines::MemFileApi server;
    baselines::MicrokernelFileApi ipc(baselines::kernels::seL4(),
                                      &clock, &server, 1);
    const int fd = ipc.open("/f", libos::kCreate | libos::kRdWr);
    for (auto _ : state)
        benchmark::DoNotOptimize(ipc.lseek(fd, 0, libos::kSeekSet));
    state.counters["model_cycles/call"] = benchmark::Counter(
        static_cast<double>(clock.read()) /
        static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MicrokernelRpc);

void
BM_WrpkruModel(benchmark::State &state)
{
    // The PKRU write itself: permission-set swap on the thread ctx.
    hw::Pkru pkru = hw::Pkru::denyAll();
    int key = 3;
    for (auto _ : state) {
        pkru.allow(key);
        pkru.deny(key);
        benchmark::DoNotOptimize(pkru.raw());
    }
    state.counters["paper_cycles"] = hw::cost::kWrpkru;
}
BENCHMARK(BM_WrpkruModel);

void
BM_WindowOpenClose(benchmark::State &state)
{
    // Grant-layer ACL cycling over an already-staged range: each
    // iteration is exactly one windowOpen + one windowClose in the
    // monitor, reached through the GrantWindow wrappers every port
    // uses (the raw System::window* API is grant.cc-private).
    CallRig rig(core::IsolationMode::kFull);
    rig.sys->runAs(rig.app, [&] {
        void *buf = rig.sys->heapAlloc(256);
        const core::Cid srv = rig.sys->cidOf("srv");
        const libos::PeerSet peers{srv};
        libos::GrantWindow win(*rig.sys);
        win.stage(buf, 256);
        for (auto _ : state) {
            win.open(peers);
            win.closeAll();
        }
        win.destroy();
    });
}
BENCHMARK(BM_WindowOpenClose);

void
BM_WindowAddRemove(benchmark::State &state)
{
    // Range staging churn via the grant layer: each iteration adds a
    // range and removes it again, paying the removal's epoch bump.
    CallRig rig(core::IsolationMode::kFull);
    rig.sys->runAs(rig.app, [&] {
        void *buf = rig.sys->heapAlloc(256);
        libos::GrantWindow win(*rig.sys);
        for (auto _ : state) {
            win.stage(buf, 256);
            win.unstage(buf);
        }
        win.destroy();
    });
}
BENCHMARK(BM_WindowAddRemove);

void
BM_TrapAndMap(benchmark::State &state)
{
    // Full fault path: access denied -> trap -> window lookup -> ACL
    // check -> retag. Ping-pong between two cubicles so every
    // iteration faults.
    CallRig rig(core::IsolationMode::kFull);
    auto &sys = *rig.sys;
    const core::Cid app = rig.app;
    const core::Cid srv = sys.cidOf("srv");
    char *buf = nullptr;
    libos::GrantWindow win;
    sys.runAs(app, [&] {
        buf = static_cast<char *>(sys.heapAlloc(64));
        const libos::PeerSet peers{srv};
        win = libos::GrantWindow(sys, peers);
        win.stage(buf, 64);
        win.open(peers);
    });
    const uint64_t cycles0 = sys.clock().read();
    for (auto _ : state) {
        sys.runAs(srv,
                  [&] { sys.touch(buf, 64, hw::Access::kRead); });
        sys.runAs(app,
                  [&] { sys.touch(buf, 64, hw::Access::kWrite); });
    }
    state.counters["model_cycles/trap"] = benchmark::Counter(
        static_cast<double>(sys.clock().read() - cycles0) /
        (2.0 * static_cast<double>(state.iterations())));
    state.counters["traps"] = benchmark::Counter(
        static_cast<double>(sys.stats().traps()));
}
BENCHMARK(BM_TrapAndMap);

void
BM_TouchCheckHit(benchmark::State &state)
{
    // The no-fault fast path: MPK check passes, no monitor involved.
    CallRig rig(core::IsolationMode::kFull);
    rig.sys->runAs(rig.app, [&] {
        void *buf = rig.sys->heapAlloc(4096);
        rig.sys->touch(buf, 4096, hw::Access::kWrite);
        for (auto _ : state)
            rig.sys->touch(buf, 4096, hw::Access::kWrite);
    });
}
BENCHMARK(BM_TouchCheckHit);

void
BM_PkeyMprotectModel(benchmark::State &state)
{
    hw::CycleClock clock;
    hw::AddressSpace space(16, &clock);
    space.map(0, 16, hw::kPermRead | hw::kPermWrite, 2);
    uint8_t key = 3;
    for (auto _ : state) {
        space.setKeyRange(0, 1, key);
        key = key == 3 ? 4 : 3;
    }
    state.counters["paper_cycles"] = hw::cost::kPkeyMprotect;
}
BENCHMARK(BM_PkeyMprotectModel);

} // namespace

BENCHMARK_MAIN();
