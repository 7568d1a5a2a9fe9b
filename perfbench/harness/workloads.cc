/**
 * @file
 * The four workloads. Each builds its inputs from the seed, sets its
 * deployment up several times (verify cache cold), warms it, and then
 * either measures for the requested seconds (untraced run: end-to-end
 * metrics) or runs a fixed, seed-determined number of operations
 * twice, untraced and traced (traced run: per-layer metrics and the
 * tracing overhead). Every operation is checked against an oracle; a
 * miss or an isolation violation counts as a failure.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "apps/minisql/speedtest.h"
#include "core/verifier/cache.h"
#include "harness/common.h"
#include "harness/http.h"
#include "hw/prng.h"
#include "libos/app.h"
#include "libos/grant.h"
#include "libos/stack.h"
#include "libos/ukapi.h"

namespace cubicleos::perfbench {

namespace {

void
clearVerifyCache()
{
    core::verifier::VerifyCache::instance().clear();
}

double
secondsSince(uint64_t startNs)
{
    return static_cast<double>(monoNs() - startNs) / 1e9;
}

/** Seeded log-uniform sizes in [lo, hi], stratified into @p n bins. */
std::vector<std::size_t>
stratifiedSizes(hw::Prng &prng, std::size_t n, double lo, double hi)
{
    // One size per equal-width bin of log(size), jittered within the
    // middle half of its bin: the mix has the same shape for every
    // seed while the sizes themselves differ.
    std::vector<std::size_t> out;
    const double a = std::log(lo), b = std::log(hi);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = static_cast<double>(prng.nextBelow(1 << 20)) /
                         static_cast<double>(1 << 20);
        const double pos = (static_cast<double>(i) + 0.25 + 0.5 * u) /
                           static_cast<double>(n);
        out.push_back(static_cast<std::size_t>(std::exp(a + pos * (b - a))));
    }
    return out;
}

template <typename T>
void
shuffle(std::vector<T> &v, hw::Prng &prng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[prng.nextBelow(i)]);
}

void
addTraceOverhead(Outcome &out, const Tracer &tracer, double untracedMs,
                 double tracedMs, double ops)
{
    out.add("trace.overhead_pct", 100.0 * (tracedMs / untracedMs - 1.0),
            "%");
    out.add("trace.spans_per_op", static_cast<double>(tracer.spans()) / ops,
            "count");
}

// ----------------------------------------------------------------------
// HTTP workloads: nginx-large and tenants-small
// ----------------------------------------------------------------------

struct HttpFile {
    int tenant;
    std::string path;
    std::size_t size;
    std::string body; ///< oracle: the bytes a GET must return
};

struct HttpRequest {
    int tenant;
    std::size_t file;
};

struct HttpInputs {
    int tenants = 0; ///< 0: the single-server Fig. 5 deployment
    std::vector<HttpFile> files;
    std::vector<HttpRequest> sequence; ///< cycled by the load generator
    /**
     * Operations per --seconds in each phase of a traced run, sized so
     * its untraced and traced phases together take about --seconds of
     * wall time on a 4-vCPU x86 VM.
     */
    double tracedOpsPerSecond = 0;
};

std::string
objectName(hw::Prng &prng, std::size_t i)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "/obj%02zu-%08llx.bin", i,
                  static_cast<unsigned long long>(prng.next() >> 32));
    return buf;
}

/**
 * nginx-large: 32 files, log-uniform 64 KiB..2 MiB, fetched one per
 * fresh connection in seeded permutations of the whole set.
 */
HttpInputs
makeNginxLarge(uint64_t seed)
{
    constexpr std::size_t kFiles = 32;
    hw::Prng prng(seed * 0x9E3779B97F4A7C15ull + 0x51);
    HttpInputs in;
    in.tracedOpsPerSecond = 250;
    const auto sizes =
        stratifiedSizes(prng, kFiles, 64.0 * 1024, 2.0 * 1024 * 1024);
    for (std::size_t i = 0; i < kFiles; ++i)
        in.files.push_back({0, objectName(prng, i), sizes[i], {}});
    std::vector<std::size_t> order(kFiles);
    for (std::size_t c = 0; c < 64; ++c) {
        for (std::size_t i = 0; i < kFiles; ++i)
            order[i] = i;
        shuffle(order, prng);
        for (std::size_t f : order)
            in.sequence.push_back({0, f});
    }
    return in;
}

/**
 * tenants-small: 26 tenants x 4 files of 1..16 KiB. Tenants are drawn
 * from a Zipf(1) popularity over a seeded ranking, in bursts of seeded
 * length 1..8; each request picks one of the tenant's files.
 */
HttpInputs
makeTenantsSmall(uint64_t seed)
{
    constexpr int kTenants = 26; // 12 + 2 * 26 = 64 cubicles
    constexpr std::size_t kFilesPerTenant = 4;
    constexpr std::size_t kRequests = 40000;
    hw::Prng prng(seed * 0x9E3779B97F4A7C15ull + 0x7e);
    HttpInputs in;
    in.tenants = kTenants;
    in.tracedOpsPerSecond = 8000;
    // Every tenant has one file in each quarter of the log-size range,
    // so which tenants the seed makes popular does not change the mix
    // of request sizes.
    for (int t = 0; t < kTenants; ++t) {
        const auto sizes =
            stratifiedSizes(prng, kFilesPerTenant, 1024.0, 16.0 * 1024);
        for (std::size_t j = 0; j < kFilesPerTenant; ++j)
            in.files.push_back({t, objectName(prng, j), sizes[j], {}});
    }

    std::vector<int> byRank(kTenants);
    for (int t = 0; t < kTenants; ++t)
        byRank[t] = t;
    shuffle(byRank, prng);
    std::vector<double> cdf;
    double sum = 0;
    for (int r = 0; r < kTenants; ++r) {
        sum += 1.0 / (r + 1);
        cdf.push_back(sum);
    }
    while (in.sequence.size() < kRequests) {
        const double u = static_cast<double>(prng.nextBelow(1u << 30)) /
                         static_cast<double>(1u << 30) * sum;
        const int rank = static_cast<int>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        const int t = byRank[std::min(rank, kTenants - 1)];
        const int burst = static_cast<int>(prng.nextInRange(1, 8));
        for (int b = 0; b < burst; ++b) {
            in.sequence.push_back(
                {t, t * kFilesPerTenant + prng.nextBelow(kFilesPerTenant)});
        }
    }
    in.sequence.resize(kRequests);
    return in;
}

/** Builds a deployment and creates every input file on it. */
std::unique_ptr<HttpDeployment>
setUpHttp(HttpInputs &in, Tracer &tracer, SetupTimes &times)
{
    auto dep = std::make_unique<HttpDeployment>(in.tenants, tracer, times);
    const uint64_t t0 = monoNs();
    {
        Tracer::Span span(tracer, SpanKind::kPopulate);
        for (const HttpFile &f : in.files)
            dep->createFile(f.tenant, f.path, f.size);
    }
    times.populateS = secondsSince(t0);
    return dep;
}

Outcome
runHttp(const RunConfig &cfg, HttpInputs in)
{
    Tracer tracer;
    Outcome out;
    // The oracle is computed host-side, outside the program under test.
    Digest digest;
    for (HttpFile &f : in.files) {
        f.body = expectedBody(servedPath(in.tenants, f.tenant, f.path),
                              f.size);
        digest.add(f.path);
        digest.add(f.size);
    }
    for (const HttpRequest &r : in.sequence)
        digest.add(r.file);
    out.info.emplace_back("inputs_digest", digest.value());

    const auto fetch = [&](HttpDeployment &dep, std::size_t i,
                           OpSample &s) {
        const HttpRequest &r = in.sequence[i % in.sequence.size()];
        const HttpFile &f = in.files[r.file];
        tracer.setOp(i);
        ++out.attempted;
        if (!dep.fetch(f.tenant, f.path, f.body, s))
            ++out.failed;
    };
    // Warm-up: every file once (cold tenants fault their tags in).
    const auto warm = [&](HttpDeployment &dep) {
        OpSample s;
        for (const HttpFile &f : in.files) {
            if (!dep.fetch(f.tenant, f.path, f.body, s))
                throw std::runtime_error("warm-up fetch failed: " + f.path);
        }
    };

    std::unique_ptr<HttpDeployment> dep;
    if (!cfg.trace) {
        Measurement run(cfg.seconds);
        for (int k = 0; k < 5; ++k) {
            dep.reset();
            clearVerifyCache();
            SetupTimes times;
            dep = setUpHttp(in, tracer, times);
            run.addSetup(times.totalS());
        }
        warm(*dep);
        const Counters before = dep->counters();
        run.start();
        for (std::size_t i = 0; run.running(); ++i) {
            OpSample s;
            fetch(*dep, i, s);
            run.add(s);
        }
        out.failed += (dep->counters() - before).violations;
        run.report(out);
        return out;
    }

    // Traced run: one cold and one warm set-up, then K untraced and K
    // traced operations of the same seeded sequence.
    tracer.enable(true);
    SetupTimes cold, warmTimes;
    clearVerifyCache();
    dep = setUpHttp(in, tracer, cold);
    const uint64_t verifyMisses = dep->counters().verifyCacheMisses;
    dep.reset();
    dep = setUpHttp(in, tracer, warmTimes);
    tracer.enable(false);
    warm(*dep);

    const std::size_t k = static_cast<std::size_t>(
        std::ceil(in.tracedOpsPerSecond * cfg.seconds));
    double untracedMs = 0, untracedWall = 0;
    for (std::size_t i = 0; i < k; ++i) {
        OpSample s;
        fetch(*dep, i, s);
        untracedMs += s.ms();
        untracedWall += s.wallMs;
    }
    tracer.enable(true);
    const Counters before = dep->counters();
    double tracedMs = 0;
    for (std::size_t i = k; i < 2 * k; ++i) {
        OpSample s;
        fetch(*dep, i, s);
        tracedMs += s.ms();
    }
    const Counters d = dep->counters() - before;
    tracer.enable(false);
    out.failed += d.violations;

    const double ops = static_cast<double>(k);
    addLedger(out, d, ops);
    addSetupSplit(out, cold.constructS, cold.bootS, warmTimes.bootS,
                  cold.populateS, verifyMisses);
    out.add("wall_ms_per_op", untracedWall / ops, "ms");
    out.add("httpd.poll_ms_per_op", tracer.totalMs(SpanKind::kNginxPoll) / ops,
            "ms");
    out.add("httpd.polls_per_op",
            static_cast<double>(tracer.totals(SpanKind::kNginxPoll).count) /
                ops,
            "count");
    out.add("client.ms_per_op",
            (tracer.selfMs(SpanKind::kClientTick) +
             tracer.selfMs(SpanKind::kClientOutput) +
             tracer.selfMs(SpanKind::kClientInput)) /
                ops,
            "ms");
    addTraceOverhead(out, tracer, untracedMs, tracedMs, ops);
    if (!cfg.traceOut.empty() && !tracer.writeChromeJson(cfg.traceOut))
        throw std::runtime_error("cannot write " + cfg.traceOut);
    out.info.emplace_back("traced_ops", ops);
    return out;
}

// ----------------------------------------------------------------------
// sqlite-speedtest
// ----------------------------------------------------------------------

constexpr int kSpeedtestScale = 1000;
constexpr std::size_t kPageCache = 64;

/** What the oracle run of the suite saw, per test in queryIds() order. */
struct Reference {
    std::vector<uint64_t> rows; ///< rowsTouched
    std::vector<bool> writes;   ///< the test wrote pages (db or journal)
};

/**
 * The Fig. 8 SQLite deployment (PLAT, ALLOC, TIME, VFSCORE, RAMFS,
 * the minisql application and BOOT isolated; LIBC and RANDOM shared)
 * with a fresh database in RAMFS.
 */
class SqlDeployment {
  public:
    SqlDeployment(core::IsolationMode mode, Tracer &tracer,
                  SetupTimes &times)
    {
        core::SystemConfig cfg;
        cfg.mode = mode;
        cfg.numPages = 8192;
        const uint64_t t0 = monoNs();
        {
            Tracer::Span span(tracer, SpanKind::kConstruct);
            sys_ = std::make_unique<core::System>(cfg);
        }
        const uint64_t t1 = monoNs();
        {
            Tracer::Span span(tracer, SpanKind::kBoot);
            libos::addLibosComponents(*sys_);
            app_ = static_cast<libos::AppComponent *>(&sys_->addComponent(
                std::make_unique<libos::AppComponent>("sqlite")));
            libos::finishBoot(*sys_);
        }
        const uint64_t t2 = monoNs();
        {
            Tracer::Span span(tracer, SpanKind::kPopulate);
            app_->run([&] {
                fs_ = std::make_unique<libos::CubicleFileApi>(*sys_, "ramfs");
                minisql::DbAllocator mem;
                core::System *sys = sys_.get();
                mem.alloc = [sys](std::size_t n) { return sys->heapAlloc(n); };
                mem.free = [sys](void *p) { sys->heapFree(p); };
                db_ = std::make_unique<minisql::Database>(
                    fs_.get(), "/bench.db", kPageCache, mem);
                if (db_->open() != 0)
                    throw std::runtime_error("database open failed");
            });
        }
        times.constructS = static_cast<double>(t1 - t0) / 1e9;
        times.bootS = static_cast<double>(t2 - t1) / 1e9;
        times.populateS = secondsSince(t2);
    }

    ~SqlDeployment()
    {
        app_->run([&] {
            db_.reset();
            fs_.reset();
        });
    }

    SqlDeployment(const SqlDeployment &) = delete;
    SqlDeployment &operator=(const SqlDeployment &) = delete;

    minisql::Database &db() { return *db_; }
    core::System &sys() { return *sys_; }

    /** Runs @p fn inside the application cubicle. */
    template <typename F>
    void enter(F &&fn)
    {
        ++entries_;
        app_->run(std::forward<F>(fn));
    }

    Counters counters()
    {
        Counters c = Counters::read(*sys_, nullptr);
        c.harnessEntries = entries_;
        return c;
    }

  private:
    std::unique_ptr<core::System> sys_;
    libos::AppComponent *app_ = nullptr;
    std::unique_ptr<libos::CubicleFileApi> fs_;
    std::unique_ptr<minisql::Database> db_;
    uint64_t entries_ = 0;
};

/** One measured speedtest pass. */
struct Pass {
    std::vector<OpSample> tests; ///< in queryIds() order
    double readMs = 0;
    double writeMs = 0;
    double totalMs = 0;
    double wallMs = 0;
    uint64_t failed = 0;
    Counters counters;
    minisql::PagerStats pager;
};

Pass
runPass(SqlDeployment &dep, uint64_t speedSeed, const Reference &reference,
        Tracer &tracer)
{
    Pass p;
    minisql::Speedtest suite(&dep.db(), kSpeedtestScale, speedSeed);
    const Counters before = dep.counters();
    const std::vector<int> &ids = minisql::Speedtest::queryIds();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        const uint64_t cycles0 = dep.sys().clock().read();
        const uint64_t t0 = monoNs();
        uint64_t rows = 0;
        dep.enter([&] {
            Tracer::Span span(tracer, SpanKind::kSpeedtest);
            rows = suite.run(ids[i]).rowsTouched;
        });
        OpSample t;
        t.wallMs = static_cast<double>(monoNs() - t0) / 1e6;
        t.modelMs = cyclesToMs(
            static_cast<double>(dep.sys().clock().read() - cycles0));
        p.tests.push_back(t);
        (reference.writes[i] ? p.writeMs : p.readMs) += t.ms();
        p.totalMs += t.ms();
        p.wallMs += t.wallMs;
        if (rows != reference.rows[i])
            ++p.failed;
    }
    p.counters = dep.counters() - before;
    p.failed += p.counters.violations;
    p.pager = dep.db().pagerStats();
    return p;
}

Outcome
runSqlite(const RunConfig &cfg)
{
    Tracer tracer;
    Outcome out;
    const uint64_t speedSeed = cfg.seed * 0x9E3779B97F4A7C15ull + 2021;
    const std::size_t tests = minisql::Speedtest::queryIds().size();

    // Oracle: the unprotected Unikraft build of the same suite and seed.
    // Its pager also tells which tests write: they split read and write
    // time.
    Reference reference;
    {
        SetupTimes ignored;
        SqlDeployment base(core::IsolationMode::kUnikraft, tracer, ignored);
        minisql::Speedtest suite(&base.db(), kSpeedtestScale, speedSeed);
        base.enter([&] {
            for (int id : minisql::Speedtest::queryIds()) {
                const uint64_t writes = base.db().pagerStats().pageWrites;
                reference.rows.push_back(suite.run(id).rowsTouched);
                reference.writes.push_back(
                    base.db().pagerStats().pageWrites != writes);
            }
        });
    }
    Digest digest;
    digest.add(speedSeed);
    for (uint64_t rows : reference.rows)
        digest.add(rows);
    out.info.emplace_back("inputs_digest", digest.value());
    out.info.emplace_back(
        "write_tests", static_cast<double>(std::count(
                           reference.writes.begin(), reference.writes.end(),
                           true)));

    // Every pass runs on a fresh deployment. In the untraced run each
    // is set up with the verify cache cold and is one setup_s sample.
    const auto freshPass = [&](Measurement *run) {
        SetupTimes times;
        if (run)
            clearVerifyCache();
        SqlDeployment dep(core::IsolationMode::kFull, tracer, times);
        if (run)
            run->addSetup(times.totalS());
        Pass p = runPass(dep, speedSeed, reference, tracer);
        out.attempted += tests;
        out.failed += p.failed;
        return p;
    };

    freshPass(nullptr); // warm-up pass
    out.attempted = out.failed = 0;

    if (!cfg.trace) {
        Measurement run(cfg.seconds);
        run.start();
        std::size_t passes = 0;
        do {
            // Tests of one pass are stamped at the pass's end: a pass
            // never straddles two blocks.
            const Pass p = freshPass(&run);
            const uint64_t now = monoNs();
            for (const OpSample &t : p.tests)
                run.add(now, t.ms());
            ++passes;
        } while (run.running());
        run.report(out);
        out.info.emplace_back("passes", static_cast<double>(passes));
        return out;
    }

    const std::size_t k = static_cast<std::size_t>(
        std::max(2.0, std::ceil(cfg.seconds * 3.5)));
    SetupTimes cold, warmTimes;
    tracer.enable(true);
    clearVerifyCache();
    uint64_t verifyMisses = 0;
    {
        SqlDeployment dep(core::IsolationMode::kFull, tracer, cold);
        verifyMisses = dep.counters().verifyCacheMisses;
    }
    { SqlDeployment dep(core::IsolationMode::kFull, tracer, warmTimes); }
    tracer.enable(false);

    std::vector<double> passMs, readMs, writeMs;
    double untracedMs = 0, untracedWall = 0;
    for (std::size_t i = 0; i < k; ++i) {
        const Pass p = freshPass(nullptr);
        passMs.push_back(p.totalMs);
        readMs.push_back(p.readMs);
        writeMs.push_back(p.writeMs);
        untracedMs += p.totalMs;
        untracedWall += p.wallMs;
    }
    tracer.enable(true);
    Counters d;
    minisql::PagerStats pager;
    double tracedMs = 0;
    for (std::size_t i = 0; i < k; ++i) {
        tracer.setOp(i);
        const Pass p = freshPass(nullptr);
        d += p.counters;
        pager.cacheHits += p.pager.cacheHits;
        pager.cacheMisses += p.pager.cacheMisses;
        pager.pageReads += p.pager.pageReads;
        pager.pageWrites += p.pager.pageWrites;
        pager.evictions += p.pager.evictions;
        tracedMs += p.totalMs;
    }
    tracer.enable(false);

    const double ops = static_cast<double>(k);
    const auto dbl = [](uint64_t v) { return static_cast<double>(v); };
    addLedger(out, d, ops);
    addSetupSplit(out, cold.constructS, cold.bootS, warmTimes.bootS,
                  cold.populateS, verifyMisses);
    const uint64_t lookups = pager.cacheHits + pager.cacheMisses;
    out.add("minisql.cache_hit_pct",
            lookups ? 100.0 * dbl(pager.cacheHits) / dbl(lookups) : 0, "%");
    out.add("minisql.page_reads_per_op", dbl(pager.pageReads) / ops,
            "count");
    out.add("minisql.page_writes_per_op", dbl(pager.pageWrites) / ops,
            "count");
    out.add("minisql.pager_evictions_per_op", dbl(pager.evictions) / ops,
            "count");
    out.add("minisql.read_ms_per_op", quantile(readMs, 0.5), "ms");
    out.add("minisql.write_ms_per_op", quantile(writeMs, 0.5), "ms");
    out.add("minisql.pass_p90_ms", quantile(passMs, 0.9), "ms");
    out.add("minisql.test_ms_per_op",
            tracer.totalMs(SpanKind::kSpeedtest) / ops, "ms");
    out.add("wall_ms_per_op", untracedWall / ops, "ms");
    addTraceOverhead(out, tracer, untracedMs, tracedMs, ops);
    if (!cfg.traceOut.empty() && !tracer.writeChromeJson(cfg.traceOut))
        throw std::runtime_error("cannot write " + cfg.traceOut);
    out.info.emplace_back("traced_ops", ops);
    return out;
}

// ----------------------------------------------------------------------
// mt-grant
// ----------------------------------------------------------------------

constexpr std::size_t kMtBuf = 256;
constexpr uint32_t kMtBatch = 256; ///< iterations per stop-flag check
constexpr uint64_t kMtWarmup = 80 * kMtBatch; ///< iterations per thread

/** Seeds worker @p t's buffer contents and byte rewrites. */
uint64_t
mtBufferSeed(uint64_t seed, int t)
{
    return seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(t) + 1;
}

/** The shared server: sums a buffer granted through a window. */
class MtServer : public core::Component {
  public:
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = "srv";
        return s;
    }
    void registerExports(core::Exporter &exp) override
    {
        exp.fn<long(const uint8_t *, std::size_t)>(
            "sum", [this](const uint8_t *p, std::size_t n) {
                sys()->touch(p, n, hw::Access::kRead);
                long s = 0;
                for (std::size_t i = 0; i < n; ++i)
                    s += p[i];
                return s;
            });
    }
};

/** A client cubicle owning one buffer. */
class MtWorker : public core::Component {
  public:
    explicit MtWorker(std::string name) : name_(std::move(name)) {}
    core::ComponentSpec spec() const override
    {
        core::ComponentSpec s;
        s.name = name_;
        return s;
    }
    void registerExports(core::Exporter &) override {}
    void init() override
    {
        buf = reinterpret_cast<uint8_t *>(
            sys()->monitor()
                .allocPagesFor(self(), 1, mem::PageType::kHeap)
                .ptr);
    }
    uint8_t *buf = nullptr;

  private:
    std::string name_;
};

struct MtSystem {
    std::unique_ptr<core::System> sys;
    std::vector<MtWorker *> workers;
    core::CrossFn<long(const uint8_t *, std::size_t)> sum;
    core::Cid srv = core::kNoCubicle;
};

MtSystem
setUpMt(int threads, Tracer &tracer, SetupTimes &times)
{
    MtSystem m;
    core::SystemConfig cfg;
    cfg.numPages = 8192;
    const uint64_t t0 = monoNs();
    {
        Tracer::Span span(tracer, SpanKind::kConstruct);
        m.sys = std::make_unique<core::System>(cfg);
    }
    const uint64_t t1 = monoNs();
    {
        Tracer::Span span(tracer, SpanKind::kBoot);
        m.sys->addComponent(std::make_unique<MtServer>());
        for (int t = 0; t < threads; ++t) {
            std::string name = "w";
            name += std::to_string(t);
            m.workers.push_back(static_cast<MtWorker *>(&m.sys->addComponent(
                std::make_unique<MtWorker>(std::move(name)))));
        }
        m.sys->boot();
        m.sum = m.sys->resolve<long(const uint8_t *, std::size_t)>("srv",
                                                                   "sum");
        m.srv = m.sys->cidOf("srv");
    }
    times.constructS = static_cast<double>(t1 - t0) / 1e9;
    times.bootS = secondsSince(t1);
    return m;
}

struct MtPhase {
    uint64_t iters = 0;
    uint64_t bad = 0;
    double wallMs = 0;  ///< first worker start to last worker end
    double modelMs = 0; ///< each thread's share of the modelled clock
    double modelPerOpMs = 0;
    Counters counters;
    double reportedMs() const { return wallMs + modelMs; }
    double opsPerSecond() const
    {
        return static_cast<double>(iters) / (reportedMs() / 1e3);
    }
};

/**
 * Runs @p threads workers. Each loops { cross-call into srv, which
 * reads the worker's windowed buffer; owner write-reclaim of the
 * buffer, changing one byte } and checks every sum. With
 * @p itersPerThread > 0 each worker runs exactly that many iterations;
 * otherwise they run until @p run's seconds pass, and every iteration's
 * wall time is recorded in @p run (its modelled share is charged when
 * the run reports, as MtPhase::modelPerOpMs).
 */
MtPhase
runMtPhase(MtSystem &m, int threads, uint64_t seed, uint64_t itersPerThread,
           Measurement *run, Tracer &tracer)
{
    core::System &sys = *m.sys;
    std::atomic<bool> stop{false};
    std::barrier sync(threads + 1);
    // Phases without a Measurement record into throwaway logs, so every
    // phase runs the same loop.
    std::vector<LatencyLog> logs;
    for (int t = 0; t < threads; ++t)
        logs.push_back(run ? run->emptyLog() : LatencyLog(monoNs(), 1));
    std::vector<uint64_t> iters(threads, 0), bad(threads, 0);
    std::vector<uint64_t> start(threads, 0), end(threads, 0);

    std::vector<std::exception_ptr> errors(threads);
    const auto worker = [&](int t) {
        MtWorker &w = *m.workers[t];
        int barriersPassed = 0;
        try {
            sys.runAs(w.self(), [&] {
                hw::Prng prng(mtBufferSeed(seed, t));
                long expect = 0;
                for (std::size_t i = 0; i < kMtBuf; ++i) {
                    w.buf[i] = static_cast<uint8_t>(prng.next());
                    expect += w.buf[i];
                }
                libos::GrantWindow win(sys, libos::PeerSet{m.srv});
                win.stage(w.buf, kMtBuf);
                win.open(win.peers());
                sync.arrive_and_wait(); // every window open before any loop
                ++barriersPassed;
                start[t] = monoNs();
                // An iteration's latency runs from the previous one's
                // end, so time the thread spent descheduled counts too.
                uint64_t prev = start[t];
                uint64_t n = 0;
                while (itersPerThread ? n < itersPerThread
                                      : !stop.load(std::memory_order_relaxed)) {
                    for (uint64_t j = 0; j < kMtBatch; ++j, ++n) {
                        if (m.sum(w.buf, kMtBuf) != expect)
                            ++bad[t];
                        // Write-reclaim: the owner's write takes the
                        // page back from the server's grant.
                        sys.touch(w.buf, kMtBuf, hw::Access::kWrite);
                        uint8_t &byte = w.buf[n % kMtBuf];
                        const auto next = static_cast<uint8_t>(prng.next());
                        expect += static_cast<long>(next) - byte;
                        byte = next;
                        const uint64_t now = monoNs();
                        logs[t].add(now,
                                    static_cast<double>(now - prev) / 1e6);
                        prev = now;
                    }
                }
                end[t] = monoNs();
                iters[t] = n;
                sync.arrive_and_wait(); // nobody closes a window early
                ++barriersPassed;
                win.destroy();
            });
        } catch (...) {
            errors[t] = std::current_exception();
            if (barriersPassed < 2)
                sync.arrive_and_drop(); // keep the other parties moving
        }
    };

    const Counters before = Counters::read(sys, nullptr);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back(worker, t);
    sync.arrive_and_wait();
    if (!itersPerThread) {
        while (run->running())
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        stop = true;
    }
    sync.arrive_and_wait();
    for (std::thread &th : pool)
        th.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }

    MtPhase p;
    p.counters = Counters::read(sys, nullptr) - before;
    uint64_t first = UINT64_MAX, last = 0;
    for (int t = 0; t < threads; ++t) {
        p.iters += iters[t];
        p.bad += bad[t];
        first = std::min(first, start[t]);
        last = std::max(last, end[t]);
        tracer.record(SpanKind::kMtWorker, start[t], end[t],
                      static_cast<uint32_t>(t + 1));
    }
    p.wallMs = static_cast<double>(last - first) / 1e6;
    // hw::CycleClock is shared: it sums every thread's modelled cycles.
    // Every thread does identical work, so each is charged total/threads.
    const double modelTotalMs =
        cyclesToMs(static_cast<double>(p.counters.cycles));
    p.modelMs = modelTotalMs / threads;
    p.modelPerOpMs =
        p.iters ? modelTotalMs / static_cast<double>(p.iters) : 0;
    if (run) {
        for (const LatencyLog &log : logs)
            run->merge(log);
    }
    return p;
}

int
mtThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(n, 1u, 4u));
}

Outcome
runMtGrant(const RunConfig &cfg)
{
    Tracer tracer;
    Outcome out;
    const int threads = mtThreads();
    out.info.emplace_back("threads", threads);
    Digest digest;
    for (int t = 0; t < threads; ++t) {
        hw::Prng prng(mtBufferSeed(cfg.seed, t));
        for (std::size_t i = 0; i < 2 * kMtBuf; ++i)
            digest.add(prng.next() & 0xff);
    }
    out.info.emplace_back("inputs_digest", digest.value());

    const auto account = [&](const MtPhase &p) {
        out.attempted += p.iters;
        out.failed += p.bad + p.counters.violations;
    };

    MtSystem m;
    if (!cfg.trace) {
        Measurement run(cfg.seconds);
        for (int k = 0; k < 5; ++k) {
            m = MtSystem{};
            clearVerifyCache();
            SetupTimes times;
            m = setUpMt(threads, tracer, times);
            run.addSetup(times.totalS());
        }
        runMtPhase(m, threads, cfg.seed, kMtWarmup, nullptr, tracer);
        run.start();
        const MtPhase p = runMtPhase(m, threads, cfg.seed, 0, &run, tracer);
        account(p);
        run.report(out, threads, p.modelPerOpMs);
        return out;
    }

    SetupTimes cold, warmTimes;
    tracer.enable(true);
    clearVerifyCache();
    m = setUpMt(threads, tracer, cold);
    const uint64_t verifyMisses = m.sys->stats().verifyCacheMisses();
    m = MtSystem{};
    m = setUpMt(threads, tracer, warmTimes);
    tracer.enable(false);

    const uint64_t iters =
        static_cast<uint64_t>(std::ceil(cfg.seconds * 800)) * kMtBatch;
    runMtPhase(m, threads, cfg.seed, kMtWarmup, nullptr, tracer);
    const MtPhase one = runMtPhase(m, 1, cfg.seed, iters, nullptr, tracer);
    const MtPhase untraced =
        runMtPhase(m, threads, cfg.seed, iters, nullptr, tracer);
    tracer.enable(true);
    const MtPhase traced =
        runMtPhase(m, threads, cfg.seed, iters, nullptr, tracer);
    tracer.enable(false);
    account(traced);

    const double ops = static_cast<double>(traced.iters);
    addLedger(out, traced.counters, ops);
    addSetupSplit(out, cold.constructS, cold.bootS, warmTimes.bootS, 0,
                  verifyMisses);
    out.add("core.mt_ops_s_1t", one.opsPerSecond(), "1/s");
    out.add("core.mt_scaling_x", untraced.opsPerSecond() / one.opsPerSecond(),
            "x");
    out.add("wall_ms_per_op", untraced.wallMs * threads / ops, "ms");
    addTraceOverhead(out, tracer, untraced.reportedMs(), traced.reportedMs(),
                     ops);
    if (!cfg.traceOut.empty() && !tracer.writeChromeJson(cfg.traceOut))
        throw std::runtime_error("cannot write " + cfg.traceOut);
    out.info.emplace_back("traced_ops", ops);
    return out;
}

} // namespace

Outcome
runWorkload(const RunConfig &cfg)
{
    if (cfg.workload == "nginx-large")
        return runHttp(cfg, makeNginxLarge(cfg.seed));
    if (cfg.workload == "tenants-small")
        return runHttp(cfg, makeTenantsSmall(cfg.seed));
    if (cfg.workload == "sqlite-speedtest")
        return runSqlite(cfg);
    if (cfg.workload == "mt-grant")
        return runMtGrant(cfg);
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

} // namespace cubicleos::perfbench
