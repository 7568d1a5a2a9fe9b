/**
 * @file
 * Integration tests for the file stack: application cubicle → VFSCORE
 * → RAMFS → ALLOC with window-managed buffers (the SQLite deployment's
 * file path, paper Fig. 8).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>

#include "libos/app.h"
#include "libos/stack.h"
#include "libos/ukapi.h"

namespace cubicleos::libos {
namespace {

class FsStackTest : public ::testing::Test {
  protected:
    /** Boots one app, or with @p second_app a second one, "b". */
    void boot(core::IsolationMode mode = core::IsolationMode::kFull,
              bool second_app = false)
    {
        TearDown(); // release before old System dies
        core::SystemConfig cfg;
        cfg.numPages = 8192; // 32 MiB
        cfg.mode = mode;
        sys = std::make_unique<core::System>(cfg);
        addLibosComponents(*sys);
        app = static_cast<AppComponent *>(
            &sys->addComponent(std::make_unique<AppComponent>()));
        other = second_app
            ? static_cast<AppComponent *>(&sys->addComponent(
                  std::make_unique<AppComponent>("b")))
            : nullptr;
        finishBoot(*sys);
        app->run([&] {
            fs = std::make_unique<CubicleFileApi>(*sys, "ramfs");
        });
        if (other) {
            other->run([&] {
                otherFs = std::make_unique<CubicleFileApi>(*sys, "ramfs");
            });
        }
    }

    void TearDown() override
    {
        if (app && fs)
            app->run([&] { fs.reset(); });
        if (other && otherFs)
            other->run([&] { otherFs.reset(); });
    }

    /** Allocates an I/O buffer inside the app cubicle. */
    char *appBuf(std::size_t n)
    {
        char *p = nullptr;
        app->run(
            [&] { p = static_cast<char *>(sys->heapAllocZeroed(n)); });
        return p;
    }

    std::unique_ptr<core::System> sys;
    AppComponent *app = nullptr;
    std::unique_ptr<CubicleFileApi> fs;
    AppComponent *other = nullptr; ///< the second app, "b"
    std::unique_ptr<CubicleFileApi> otherFs;
};

TEST_F(FsStackTest, CreateWriteReadRoundtrip)
{
    boot();
    char *buf = appBuf(256);
    app->run([&] {
        int fd = fs->open("/hello.txt", kCreate | kRdWr);
        ASSERT_GE(fd, 0);
        std::strcpy(buf, "the quick brown fox");
        EXPECT_EQ(fs->write(fd, buf, 20), 20);
        EXPECT_EQ(fs->lseek(fd, 0, kSeekSet), 0);
        std::memset(buf, 0, 256);
        EXPECT_EQ(fs->read(fd, buf, 256), 20);
        EXPECT_STREQ(buf, "the quick brown fox");
        EXPECT_EQ(fs->close(fd), 0);
    });
}

TEST_F(FsStackTest, BorrowRefusesAPeerTheMonitorCannotGrant)
{
    // The borrowing peer is a caller-supplied argument: a shared
    // cubicle (the monitor refuses to open a window to it), an id past
    // the cubicle table and one past the ACL mask are invalid
    // arguments, not exceptions that escape into the application.
    boot();
    char *buf = appBuf(4096);
    app->run([&] {
        int fd = fs->open("/lent.bin", kCreate | kRdWr);
        ASSERT_GE(fd, 0);
        std::memset(buf, 0x3c, 4096);
        ASSERT_EQ(fs->write(fd, buf, 4096), 4096);
        const core::Cid bad[] = {
            sys->cidOf("libc"), static_cast<core::Cid>(sys->cubicleCount()),
            static_cast<core::Cid>(core::kMaxCubicles)};
        for (const core::Cid peer : bad) {
            VfsSpan span;
            EXPECT_EQ(fs->borrow(fd, 0, peer, 0, &span), kErrInval)
                << "peer " << peer;
        }
        // A peer the monitor grants still borrows.
        VfsSpan span;
        ASSERT_EQ(fs->borrow(fd, 0, sys->cidOf("vfscore"), 0, &span), kOk);
        EXPECT_GT(span.len, 0u);
        EXPECT_EQ(fs->release(fd, span.token), kOk);
        EXPECT_EQ(fs->close(fd), 0);
    });
}

TEST_F(FsStackTest, AnotherCubiclesDescriptorIsRefused)
{
    // The app opens a file as fd 0; app b names fd 0 in a pread and a
    // close. Descriptors are one table in VFSCORE, so both calls reach
    // the app's open file unless VFSCORE checks who opened it.
    boot(core::IsolationMode::kFull, /*second_app=*/true);
    static constexpr char kText[] = "sixteen bytes!!";
    static_assert(sizeof(kText) == 16);
    char *buf = appBuf(64);
    int fd = -1;
    app->run([&] {
        fd = fs->open("/a.txt", kCreate | kRdWr);
        std::memcpy(buf, kText, sizeof(kText));
        EXPECT_EQ(fs->pwrite(fd, buf, sizeof(kText), 0), 16);
    });
    ASSERT_EQ(fd, 0);

    char *b_buf = nullptr;
    other->run([&] {
        b_buf = static_cast<char *>(sys->heapAllocZeroed(64));
        EXPECT_EQ(otherFs->pread(fd, b_buf, 64, 0), kErrBadF);
        EXPECT_EQ(otherFs->close(fd), kErrBadF);
    });
    EXPECT_TRUE(std::all_of(b_buf, b_buf + 64, [](char c) { return c == 0; }));

    app->run([&] {
        std::memset(buf, 0, 64);
        EXPECT_EQ(fs->pread(fd, buf, 64, 0), 16);
        EXPECT_STREQ(buf, kText);
        EXPECT_EQ(fs->close(fd), kOk);
    });
}

TEST_F(FsStackTest, OpenMissingFileFails)
{
    boot();
    app->run([&] {
        EXPECT_EQ(fs->open("/nope", kRdOnly), kErrNoEnt);
    });
}

TEST_F(FsStackTest, PreadPwriteAtOffsets)
{
    boot();
    char *buf = appBuf(8192);
    app->run([&] {
        int fd = fs->open("/data.bin", kCreate | kRdWr);
        ASSERT_GE(fd, 0);
        // Write a pattern crossing the 4 KiB block boundary.
        for (int i = 0; i < 8192; ++i)
            buf[i] = static_cast<char>(i % 251);
        EXPECT_EQ(fs->pwrite(fd, buf, 8192, 0), 8192);
        std::memset(buf, 0, 8192);
        EXPECT_EQ(fs->pread(fd, buf, 4096, 2048), 4096);
        for (int i = 0; i < 4096; ++i) {
            ASSERT_EQ(buf[i], static_cast<char>((i + 2048) % 251))
                << "offset " << i;
        }
        fs->close(fd);
    });
}

TEST_F(FsStackTest, StatReportsSizeAndType)
{
    boot();
    char *buf = appBuf(100);
    app->run([&] {
        int fd = fs->open("/f", kCreate | kWrOnly);
        fs->write(fd, buf, 100);
        fs->close(fd);

        VfsStat st;
        EXPECT_EQ(fs->stat("/f", &st), 0);
        EXPECT_EQ(st.size, 100u);
        EXPECT_TRUE(st.isFile());

        EXPECT_EQ(fs->mkdir("/dir"), 0);
        EXPECT_EQ(fs->stat("/dir", &st), 0);
        EXPECT_TRUE(st.isDir());
    });
}

TEST_F(FsStackTest, UnlinkRemovesAndFreesBlocks)
{
    boot();
    char *buf = appBuf(64 * 1024);
    app->run([&] {
        int fd = fs->open("/big", kCreate | kWrOnly);
        EXPECT_EQ(fs->write(fd, buf, 64 * 1024), 64 * 1024);
        fs->close(fd);
        EXPECT_EQ(fs->unlink("/big"), 0);
        VfsStat st;
        EXPECT_EQ(fs->stat("/big", &st), kErrNoEnt);
    });
}

TEST_F(FsStackTest, GapBeforeAWritePastTheEndReadsAsZeros)
{
    // POSIX reads the gap a write past the end leaves as zeros. RAMFS
    // backs it with fresh ALLOC blocks, and the first pages ALLOC hands
    // out again are the ones an unlinked file just gave back.
    boot();
    constexpr int kGap = 12288;
    char *buf = appBuf(kGap);
    app->run([&] {
        int fd = fs->open("/old", kCreate | kWrOnly);
        std::memset(buf, 'x', kGap);
        ASSERT_EQ(fs->write(fd, buf, kGap), kGap);
        fs->close(fd);
        ASSERT_EQ(fs->unlink("/old"), 0);

        fd = fs->open("/new", kCreate | kRdWr);
        ASSERT_EQ(fs->pwrite(fd, buf, 1, kGap), 1);
        std::memset(buf, 0x5a, kGap);
        ASSERT_EQ(fs->pread(fd, buf, kGap, 0), kGap);
        EXPECT_EQ(std::count(buf, buf + kGap, '\0'), kGap);
        fs->close(fd);
    });
}

TEST_F(FsStackTest, TruncateShrinksAndZeroFills)
{
    boot();
    char *buf = appBuf(4096);
    app->run([&] {
        int fd = fs->open("/t", kCreate | kRdWr);
        std::memset(buf, 0xAA, 4096);
        fs->write(fd, buf, 4096);
        EXPECT_EQ(fs->ftruncate(fd, 100), 0);
        VfsStat st;
        fs->fstat(fd, &st);
        EXPECT_EQ(st.size, 100u);
        // Re-extend: the tail must read as zeros.
        EXPECT_EQ(fs->ftruncate(fd, 200), 0);
        EXPECT_EQ(fs->pread(fd, buf, 200, 0), 200);
        EXPECT_EQ(static_cast<unsigned char>(buf[50]), 0xAAu);
        EXPECT_EQ(buf[150], 0);
        fs->close(fd);
    });
}

TEST_F(FsStackTest, AppendMode)
{
    boot();
    char *buf = appBuf(16);
    app->run([&] {
        int fd = fs->open("/log", kCreate | kWrOnly);
        std::strcpy(buf, "aaaa");
        fs->write(fd, buf, 4);
        fs->close(fd);
        fd = fs->open("/log", kWrOnly | kAppend);
        std::strcpy(buf, "bbbb");
        fs->write(fd, buf, 4);
        fs->close(fd);
        fd = fs->open("/log", kRdOnly);
        EXPECT_EQ(fs->read(fd, buf, 16), 8);
        buf[8] = '\0';
        EXPECT_STREQ(buf, "aaaabbbb");
        fs->close(fd);
    });
}

TEST_F(FsStackTest, ReaddirEnumeratesChildren)
{
    boot();
    app->run([&] {
        fs->mkdir("/d");
        fs->close(fs->open("/d/one", kCreate | kWrOnly));
        fs->close(fs->open("/d/two", kCreate | kWrOnly));
        VfsDirent ent;
        std::vector<std::string> names;
        for (uint64_t i = 0; fs->readdir("/d", i, &ent) == 0; ++i)
            names.push_back(ent.name);
        ASSERT_EQ(names.size(), 2u);
        EXPECT_EQ(names[0], "one");
        EXPECT_EQ(names[1], "two");
    });
}

TEST_F(FsStackTest, NestedDirectories)
{
    boot();
    char *buf = appBuf(8);
    app->run([&] {
        EXPECT_EQ(fs->mkdir("/a"), 0);
        EXPECT_EQ(fs->mkdir("/a/b"), 0);
        int fd = fs->open("/a/b/c.txt", kCreate | kWrOnly);
        ASSERT_GE(fd, 0);
        std::strcpy(buf, "deep");
        fs->write(fd, buf, 4);
        fs->close(fd);
        VfsStat st;
        EXPECT_EQ(fs->stat("/a/b/c.txt", &st), 0);
        EXPECT_EQ(st.size, 4u);
        // Removing a non-empty directory fails.
        EXPECT_EQ(fs->unlink("/a/b"), kErrNotEmpty);
    });
}

// mkdir reports why it failed, one code per cause.
TEST_F(FsStackTest, MkdirRefusesAnEmptyOrRelativePathAsInvalid)
{
    boot();
    app->run([&] {
        EXPECT_EQ(fs->mkdir(""), kErrInval);
        EXPECT_EQ(fs->mkdir("dir"), kErrInval);
    });
}

TEST_F(FsStackTest, MkdirUnderAMissingParentIsNoEnt)
{
    boot();
    app->run([&] {
        EXPECT_EQ(fs->mkdir("/missing/dir"), kErrNoEnt);
        VfsStat st;
        EXPECT_EQ(fs->stat("/missing", &st), kErrNoEnt);
    });
}

TEST_F(FsStackTest, MkdirOfASixtyByteLeafIsNameTooLong)
{
    boot();
    app->run([&] {
        // VfsDirent::name holds 59 bytes and the terminator.
        const std::string fits = "/" + std::string(59, 'd');
        const std::string over = "/" + std::string(60, 'd');
        EXPECT_EQ(fs->mkdir(over.c_str()), kErrNameTooLong);
        EXPECT_EQ(fs->mkdir(fits.c_str()), 0);
    });
}

TEST_F(FsStackTest, MkdirOfAnExistingNameIsExist)
{
    boot();
    app->run([&] {
        ASSERT_EQ(fs->mkdir("/d"), 0);
        EXPECT_EQ(fs->mkdir("/d"), kErrExist);
        const int fd = fs->open("/f", kCreate | kWrOnly);
        ASSERT_GE(fd, 0);
        fs->close(fd);
        EXPECT_EQ(fs->mkdir("/f"), kErrExist);
        EXPECT_EQ(fs->mkdir("/"), kErrExist);
    });
}

TEST_F(FsStackTest, CallEdgesMatchDeploymentTopology)
{
    boot();
    char *buf = appBuf(4096);
    sys->stats().reset();
    app->run([&] {
        int fd = fs->open("/edges", kCreate | kRdWr);
        for (int i = 0; i < 10; ++i)
            fs->pwrite(fd, buf, 4096, static_cast<uint64_t>(i) * 4096);
        fs->close(fd);
    });
    const auto app_cid = sys->cidOf("app");
    const auto vfs = sys->cidOf("vfscore");
    const auto ramfs = sys->cidOf("ramfs");
    const auto alloc = sys->cidOf("alloc");
    // The Fig. 8 topology: app talks to VFS, VFS to RAMFS, RAMFS to
    // ALLOC; the app never calls RAMFS or ALLOC directly.
    EXPECT_GE(sys->stats().callsOnEdge(app_cid, vfs), 12u);
    EXPECT_GE(sys->stats().callsOnEdge(vfs, ramfs), 12u);
    EXPECT_GE(sys->stats().callsOnEdge(ramfs, alloc), 10u);
    EXPECT_EQ(sys->stats().callsOnEdge(app_cid, ramfs), 0u);
    EXPECT_EQ(sys->stats().callsOnEdge(app_cid, alloc), 0u);
}

TEST_F(FsStackTest, RamfsBlocksUnreachableFromApp)
{
    boot();
    char *buf = appBuf(64);
    core::Cid ramfs_cid = sys->cidOf("ramfs");
    app->run([&] {
        int fd = fs->open("/secret", kCreate | kWrOnly);
        std::strcpy(buf, "classified");
        fs->write(fd, buf, 11);
        fs->close(fd);
    });
    // Find a RAMFS-owned heap page (a data block) and try to read it
    // from the app cubicle: spatial isolation must hold.
    auto &mon = sys->monitor();
    const std::byte *block = nullptr;
    for (std::size_t page = 0; page < mon.pageMeta().numPages(); ++page) {
        const auto &pm = mon.pageMeta().at(page);
        if (pm.owner == ramfs_cid && pm.type == mem::PageType::kHeap) {
            block = mon.space().pageAt(page);
        }
    }
    ASSERT_NE(block, nullptr);
    app->run([&] {
        EXPECT_THROW(sys->touch(block, 16, hw::Access::kRead),
                     hw::CubicleFault);
    });
}

TEST_F(FsStackTest, WorksInEveryIsolationMode)
{
    for (auto mode :
         {core::IsolationMode::kUnikraft, core::IsolationMode::kNoMpk,
          core::IsolationMode::kNoAcl, core::IsolationMode::kFull}) {
        SCOPED_TRACE(core::isolationModeName(mode));
        boot(mode);
        char *buf = appBuf(1024);
        app->run([&] {
            int fd = fs->open("/m", kCreate | kRdWr);
            std::memset(buf, 0x5A, 1024);
            EXPECT_EQ(fs->write(fd, buf, 1024), 1024);
            std::memset(buf, 0, 1024);
            EXPECT_EQ(fs->pread(fd, buf, 1024, 0), 1024);
            EXPECT_EQ(static_cast<unsigned char>(buf[1000]), 0x5Au);
            fs->close(fd);
            fs.reset();
        });
    }
}

TEST_F(FsStackTest, LargeFileManyBlocks)
{
    boot();
    constexpr std::size_t kSize = 256 * 1024;
    char *buf = appBuf(kSize);
    app->run([&] {
        for (std::size_t i = 0; i < kSize; ++i)
            buf[i] = static_cast<char>((i * 7) & 0xFF);
        int fd = fs->open("/large", kCreate | kRdWr);
        EXPECT_EQ(fs->write(fd, buf, kSize),
                  static_cast<int64_t>(kSize));
        std::memset(buf, 0, kSize);
        EXPECT_EQ(fs->pread(fd, buf, kSize, 0),
                  static_cast<int64_t>(kSize));
        for (std::size_t i = 0; i < kSize; i += 1013) {
            ASSERT_EQ(buf[i], static_cast<char>((i * 7) & 0xFF))
                << "offset " << i;
        }
        fs->close(fd);
    });
}

} // namespace
} // namespace cubicleos::libos
