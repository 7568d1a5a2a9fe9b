/**
 * @file
 * Tests for the application-side porting glue (CubicleFileApi),
 * including the hot-windows ablation mode.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "libos/app.h"
#include "libos/stack.h"
#include "libos/ukapi.h"

namespace cubicleos::libos {
namespace {

class UkapiTest : public ::testing::Test {
  protected:
    /**
     * Boots the file stack with an app and a spy cubicle. With
     * @p spend_keys, tag virtualisation is on and the app spends every
     * key the monitor has left before it builds the file API, so none
     * of the API's windows gets one.
     */
    void boot(bool hot_windows, bool spend_keys = false)
    {
        core::SystemConfig cfg;
        cfg.numPages = 8192;
        cfg.virtualizeTags = spend_keys;
        sys = std::make_unique<core::System>(cfg);
        addLibosComponents(*sys);
        app = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>()));
        spy = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>("spy")));
        finishBoot(*sys);
        app->run([&] {
            std::vector<GrantWindow> spent;
            while (spend_keys &&
                   (spent.empty() || spent.back().hot()))
                spent.emplace_back(*sys, PeerSet{}, /*hot=*/true);
            fs = std::make_unique<CubicleFileApi>(*sys, "ramfs",
                                                  hot_windows);
        });
    }

    void TearDown() override
    {
        if (app && fs)
            app->run([&] { fs.reset(); });
    }

    /**
     * The app page that starts with @p path: where the file API staged
     * it (read host-side, without a checked access), or nullptr.
     */
    char *pageStartingWith(const char *path)
    {
        const core::Cid appCid = sys->cidOf("app");
        core::Monitor &mon = sys->monitor();
        for (std::size_t i = 0; i < mon.pageMeta().numPages(); ++i) {
            if (mon.pageMeta().at(i).owner != appCid)
                continue;
            auto *page = reinterpret_cast<char *>(mon.space().pageAt(i));
            if (std::strncmp(page, path, kMaxPath) == 0)
                return page;
        }
        return nullptr;
    }

    /** Whether cubicle @p name faults reading the page at @p page. */
    bool faults(const char *name, const char *page)
    {
        bool faulted = false;
        sys->runAs(sys->cidOf(name), [&] {
            try {
                sys->touch(page, hw::kPageSize, hw::Access::kRead);
            } catch (const hw::CubicleFault &) {
                faulted = true;
            }
        });
        return faulted;
    }

    std::unique_ptr<core::System> sys;
    AppComponent *app = nullptr;
    AppComponent *spy = nullptr;
    std::unique_ptr<CubicleFileApi> fs;
};

TEST_F(UkapiTest, PerCallPreadsPrestageAndHandBackWithoutTraps)
{
    boot(false);
    app->run([&] {
        char *buf = static_cast<char *>(sys->heapAlloc(4096));
        const int fd = fs->open("/f", kCreate | kRdWr);
        fs->pwrite(fd, buf, 4096, 0);
        sys->stats().reset();
        const hw::AddressSpace &space = sys->monitor().space();
        const uint64_t mprotects = space.retagCount();
        for (int i = 0; i < 10; ++i)
            fs->pread(fd, buf, 4096, 0);
        // Each pread retags the buffer to RAMFS before the call and back
        // to the app after it, one pkey_mprotect each way. VFSCORE only
        // checks its window, so neither it nor RAMFS nor the app traps.
        EXPECT_EQ(sys->stats().traps(), 0u);
        EXPECT_EQ(sys->stats().prestages(), 10u);
        EXPECT_EQ(sys->stats().handBacks(), 10u);
        EXPECT_EQ(space.retagCount() - mprotects, 20u);
        fs->close(fd);
    });
}

TEST_F(UkapiTest, HotWindowsEliminateSteadyStateTraps)
{
    boot(true);
    app->run([&] {
        char *buf = static_cast<char *>(sys->heapAlloc(4096));
        const int fd = fs->open("/f", kCreate | kRdWr);
        fs->pwrite(fd, buf, 4096, 0);
        fs->pread(fd, buf, 4096, 0); // settle the tag
        sys->stats().reset();
        for (int i = 0; i < 10; ++i)
            fs->pread(fd, buf, 4096, 0);
        EXPECT_LE(sys->stats().traps(), 2u);
        fs->close(fd);
    });
}

TEST_F(UkapiTest, HotWindowsStillExcludeThirdParties)
{
    boot(true);
    char *buf = nullptr;
    app->run([&] {
        buf = static_cast<char *>(sys->heapAlloc(4096));
        const int fd = fs->open("/f", kCreate | kRdWr);
        fs->pwrite(fd, buf, 4096, 0);
        fs->close(fd);
    });
    // The hot window is open for VFSCORE and RAMFS only; an unrelated
    // cubicle still faults.
    spy->run([&] {
        EXPECT_THROW(sys->touch(buf, 64, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(UkapiTest, HotWindowRestagesWhenBufferChanges)
{
    boot(true);
    app->run([&] {
        char *a = static_cast<char *>(sys->heapAlloc(4096));
        char *b = static_cast<char *>(sys->heapAlloc(4096));
        const int fd = fs->open("/f", kCreate | kRdWr);
        std::memset(a, 0x11, 4096);
        fs->pwrite(fd, a, 4096, 0);
        EXPECT_EQ(fs->pread(fd, b, 4096, 0), 4096);
        EXPECT_EQ(static_cast<unsigned char>(b[100]), 0x11u);
        fs->close(fd);
    });
}

TEST_F(UkapiTest, PathsNeverExposeCallerMemory)
{
    boot(false);
    app->run([&] {
        // The path lives in app memory next to a "secret"; the file API
        // copies it to the dedicated staging page, so the secret's page
        // is never windowed.
        char *blob = static_cast<char *>(sys->heapAlloc(64));
        std::strcpy(blob, "/visible");
        std::strcpy(blob + 16, "SECRET");
        const int fd = fs->open(blob, kCreate | kRdWr);
        EXPECT_GE(fd, 0);
        fs->close(fd);
    });
    char *blob = nullptr;
    app->run([&] {
        blob = static_cast<char *>(sys->heapAlloc(16));
        std::strcpy(blob, "x");
    });
    (void)blob;
    // No window covers any app heap page at rest: a spy access faults.
    // (The staging page is windowed, but it only ever holds paths.)
    const auto before = sys->stats().violations();
    spy->run([&] {
        EXPECT_THROW(sys->touch(blob, 1, hw::Access::kRead),
                     hw::CubicleFault);
    });
    EXPECT_GT(sys->stats().violations(), before);
}

TEST_F(UkapiTest, LongPathsAreTruncatedSafely)
{
    boot(false);
    app->run([&] {
        const std::string longpath =
            "/" + std::string(2 * kMaxPath, 'a');
        // Must not crash or overflow the staging page; open fails
        // cleanly.
        const int fd = fs->open(longpath.c_str(), kCreate | kRdWr);
        if (fd >= 0)
            fs->close(fd);
    });
}

TEST_F(UkapiTest, OverLongPathIsRefusedNotCut)
{
    // A 511-byte path (the longest the slot holds) under nine nested
    // directories, and the same path with "-other" appended: cut at
    // 511 bytes, the longer one would name the shorter one's file.
    boot(false);
    app->run([&] {
        std::string dir;
        for (int d = 0; d < 9; ++d) {
            dir += "/" + std::string(50, static_cast<char>('a' + d));
            ASSERT_EQ(fs->mkdir(dir.c_str()), 0) << d;
        }
        const std::string file =
            dir + "/" + std::string(kMaxPath - 1 - dir.size() - 1, 'f');
        ASSERT_EQ(file.size(), kMaxPath - 1);
        const int fd = fs->open(file.c_str(), kCreate | kWrOnly);
        ASSERT_GE(fd, 0);
        EXPECT_EQ(fs->close(fd), 0);

        const std::string longer = file + "-other";
        ASSERT_EQ(longer.size(), 517u);
        EXPECT_EQ(fs->open(longer.c_str(), kRdOnly), kErrNameTooLong);
        EXPECT_EQ(fs->open(longer.c_str(), kCreate | kRdWr),
                  kErrNameTooLong);
        VfsStat st{};
        EXPECT_EQ(fs->stat(longer.c_str(), &st), kErrNameTooLong);
        EXPECT_EQ(fs->unlink(longer.c_str()), kErrNameTooLong);

        // The 511-byte path still works, and the file is still there.
        EXPECT_EQ(fs->stat(file.c_str(), &st), 0);
        EXPECT_TRUE(st.isFile());
        EXPECT_EQ(fs->unlink(file.c_str()), 0);
    });
}

TEST_F(UkapiTest, StatAndReaddirThroughStagedStructs)
{
    boot(false);
    app->run([&] {
        fs->mkdir("/d");
        const int fd = fs->open("/d/file", kCreate | kWrOnly);
        char byte = 'x';
        fs->write(fd, &byte, 1);
        fs->close(fd);

        VfsStat st{};
        EXPECT_EQ(fs->stat("/d/file", &st), 0);
        EXPECT_EQ(st.size, 1u);

        VfsDirent ent{};
        EXPECT_EQ(fs->readdir("/d", 0, &ent), 0);
        EXPECT_STREQ(ent.name, "file");
        EXPECT_EQ(fs->readdir("/d", 1, &ent), kErrNoEnt);
    });
}

TEST_F(UkapiTest, EmptyPathIsRefused)
{
    // VFSCORE only checks the path's slot; the backend reads the path
    // and refuses the empty one.
    boot(false);
    app->run([&] {
        VfsStat st{};
        VfsDirent ent{};
        EXPECT_LT(fs->open("", kCreate | kRdWr), 0);
        EXPECT_LT(fs->stat("", &st), 0);
        EXPECT_LT(fs->unlink(""), 0);
        EXPECT_LT(fs->mkdir(""), 0);
        EXPECT_LT(fs->readdir("", 0, &ent), 0);
    });
}

TEST_F(UkapiTest, HotStagingPageIsPageAlignedAndRefusesASpy)
{
    boot(false);
    VfsStat st{};
    app->run([&] { EXPECT_EQ(fs->stat("/probe", &st), kErrNoEnt); });
    // The staged copy starts its own page (§5.3), away from caller
    // data.
    const char *page = pageStartingWith("/probe");
    ASSERT_NE(page, nullptr);
    // With a key the staging page stays open to the file stack between
    // calls, and to nobody else.
    EXPECT_FALSE(faults("vfscore", page));
    EXPECT_FALSE(faults("ramfs", page));
    EXPECT_TRUE(faults("spy", page));
}

TEST_F(UkapiTest, KeylessStagingPageClosesOnceAStatReturns)
{
    boot(false, /*spend_keys=*/true);
    const core::Cid appCid = sys->cidOf("app");
    for (const core::WindowWiring &w : sys->wiringSnapshot().windows) {
        if (w.owner == appCid) {
            ASSERT_EQ(w.hotKey, -1) << "window " << w.wid << " got a key";
        }
    }
    app->run([&] {
        const int fd = fs->open("/f", kCreate | kWrOnly);
        char byte = 'x';
        fs->write(fd, &byte, 1);
        fs->close(fd);
    });
    sys->stats().reset();
    VfsStat st{};
    app->run([&] { EXPECT_EQ(fs->stat("/f", &st), 0); });
    EXPECT_EQ(st.size, 1u);
    // Prestaged for RAMFS, checked by VFSCORE, handed home: no trap...
    EXPECT_EQ(sys->stats().traps(), 0u);
    // ...and closed to both once the call returned.
    const char *page = pageStartingWith("/f");
    ASSERT_NE(page, nullptr);
    EXPECT_TRUE(faults("vfscore", page));
    EXPECT_TRUE(faults("ramfs", page));
}

} // namespace
} // namespace cubicleos::libos
