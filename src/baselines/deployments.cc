#include "baselines/deployments.h"

#include "baselines/memfs.h"
#include "libos/alloc.h"
#include "libos/app.h"
#include "libos/boot.h"
#include "libos/libc.h"
#include "libos/plat.h"
#include "libos/ramfs.h"
#include "libos/random.h"
#include "libos/stack.h"
#include "libos/time.h"
#include "libos/ukapi.h"
#include "libos/vfscore.h"

namespace cubicleos::baselines {

namespace {

/** Fig. 10a "Linux": MemFileApi with per-op syscall charges. */
class LinuxDeployment : public SqliteDeployment {
  public:
    explicit LinuxDeployment(std::size_t cache_pages)
        : SqliteDeployment("Linux"), fs_(&clock_),
          db_(&fs_, "/bench.db", cache_pages)
    {
        if (db_.open() != 0)
            throw std::runtime_error("linux deployment: open failed");
    }

    minisql::Database &database() override { return db_; }
    uint64_t modelCycles() override { return clock_.read(); }
    void enter(const std::function<void()> &fn) override { fn(); }

  private:
    hw::CycleClock clock_;
    MemFileApi fs_;
    minisql::Database db_;
};

/** Genode-style message-based componentisation. */
class MicrokernelDeployment : public SqliteDeployment {
  public:
    MicrokernelDeployment(const KernelProfile &profile, int hops,
                          std::size_t cache_pages)
        : SqliteDeployment(profile.name + "-" +
                           std::to_string(hops + 2)),
          server_(nullptr), // server executes in user space
          ipc_(profile, &clock_, &server_, hops),
          db_(&ipc_, "/bench.db", cache_pages)
    {
        if (db_.open() != 0)
            throw std::runtime_error("microkernel deployment: open "
                                     "failed");
    }

    minisql::Database &database() override { return db_; }
    uint64_t modelCycles() override { return clock_.read(); }
    void enter(const std::function<void()> &fn) override { fn(); }

    const IpcStats &ipcStats() const { return ipc_.stats(); }

  private:
    hw::CycleClock clock_;
    MemFileApi server_;
    MicrokernelFileApi ipc_;
    minisql::Database db_;
};

/** Cubicle-based deployments (3, 4 or 7 isolated components). */
class CubicleDeployment : public SqliteDeployment {
  public:
    CubicleDeployment(int components, core::IsolationMode mode,
                      std::size_t cache_pages, std::size_t num_pages)
        : SqliteDeployment(std::string(mode ==
                                       core::IsolationMode::kUnikraft
                                           ? "Unikraft"
                                           : "CubicleOS") +
                           "-" + std::to_string(components))
    {
        core::SystemConfig cfg;
        cfg.numPages = num_pages;
        cfg.mode = mode;
        sys_ = std::make_unique<core::System>(cfg);

        if (components >= 7) {
            // Full Fig. 8 deployment.
            libos::addLibosComponents(*sys_);
            app_ = static_cast<libos::AppComponent *>(
                &sys_->addComponent(
                    std::make_unique<libos::AppComponent>("sqlite")));
            libos::finishBoot(*sys_);
        } else {
            // Fig. 9 partitionings: PLAT hosts the "core" module;
            // ALLOC, VFSCORE (and with 3 components RAMFS) colocate
            // into it. TIME stays its own cubicle (the TIMER module).
            sys_->addComponent(std::make_unique<libos::PlatComponent>());
            auto &alloc = sys_->addComponent(
                std::make_unique<libos::AllocComponent>());
            alloc.colocateWith("plat");
            sys_->addComponent(std::make_unique<libos::TimeComponent>());
            auto &vfs = sys_->addComponent(
                std::make_unique<libos::VfsComponent>());
            vfs.colocateWith("plat");
            auto &ramfs = sys_->addComponent(
                std::make_unique<libos::RamfsComponent>());
            if (components <= 3)
                ramfs.colocateWith("plat");
            sys_->addComponent(std::make_unique<libos::LibcComponent>());
            sys_->addComponent(
                std::make_unique<libos::RandomComponent>());
            app_ = static_cast<libos::AppComponent *>(
                &sys_->addComponent(
                    std::make_unique<libos::AppComponent>("sqlite")));
            auto &boot = sys_->addComponent(
                std::make_unique<libos::BootComponent>());
            boot.colocateWith("plat");
            sys_->boot();
        }

        app_->run([&] {
            fs_ = std::make_unique<libos::CubicleFileApi>(*sys_,
                                                          "ramfs");
            minisql::DbAllocator mem;
            core::System *sys = sys_.get();
            mem.alloc = [sys](std::size_t n) {
                return sys->heapAlloc(n);
            };
            mem.free = [sys](void *p) { sys->heapFree(p); };
            db_ = std::make_unique<minisql::Database>(
                fs_.get(), "/bench.db", cache_pages, mem);
            if (db_->open() != 0)
                throw std::runtime_error("cubicle deployment: open "
                                         "failed");
        });
    }

    ~CubicleDeployment() override
    {
        app_->run([&] {
            db_.reset();
            fs_.reset();
        });
    }

    minisql::Database &database() override { return *db_; }
    uint64_t modelCycles() override { return sys_->clock().read(); }
    void enter(const std::function<void()> &fn) override
    {
        app_->run(fn);
    }
    core::System *system() override { return sys_.get(); }

  private:
    std::unique_ptr<core::System> sys_;
    libos::AppComponent *app_ = nullptr;
    std::unique_ptr<libos::CubicleFileApi> fs_;
    std::unique_ptr<minisql::Database> db_;
};

} // namespace

std::unique_ptr<SqliteDeployment>
SqliteDeployment::makeLinux(std::size_t cache_pages)
{
    return std::make_unique<LinuxDeployment>(cache_pages);
}

std::unique_ptr<SqliteDeployment>
SqliteDeployment::makeMicrokernel(const KernelProfile &profile,
                                  int hops, std::size_t cache_pages)
{
    return std::make_unique<MicrokernelDeployment>(profile, hops,
                                                   cache_pages);
}

std::unique_ptr<SqliteDeployment>
SqliteDeployment::makeCubicles(int components, core::IsolationMode mode,
                               std::size_t cache_pages,
                               std::size_t num_pages)
{
    return std::make_unique<CubicleDeployment>(components, mode,
                                               cache_pages, num_pages);
}

} // namespace cubicleos::baselines
