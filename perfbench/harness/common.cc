#include "harness/common.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace cubicleos::perfbench {

const char *
spanName(SpanKind kind)
{
    static const char *const kNames[] = {
        "op",         "client.tick", "client.output", "client.input",
        "wire.send",  "wire.recv",   "httpd.poll",    "setup.construct",
        "setup.boot", "setup.populate", "minisql.test", "mt.worker",
    };
    static_assert(std::size(kNames) ==
                  static_cast<std::size_t>(SpanKind::kCount));
    return kNames[static_cast<std::size_t>(kind)];
}

// ----------------------------------------------------------------------
// Tracer
// ----------------------------------------------------------------------

void
Tracer::open(SpanKind kind)
{
    stack_.push_back(Open{kind, monoNs(), 0});
}

void
Tracer::close()
{
    const uint64_t end = monoNs();
    const Open o = stack_.back();
    stack_.pop_back();
    const uint64_t dur = end - o.start;
    Totals &t = totals_[static_cast<std::size_t>(o.kind)];
    ++t.count;
    t.totalNs += dur;
    t.selfNs += dur - std::min(dur, o.childNs);
    if (!stack_.empty())
        stack_.back().childNs += dur;
    keep(o.kind, 0, o.start, dur);
}

void
Tracer::record(SpanKind kind, uint64_t startNs, uint64_t endNs,
               uint32_t tid)
{
    if (!on_)
        return;
    const uint64_t dur = endNs - startNs;
    Totals &t = totals_[static_cast<std::size_t>(kind)];
    ++t.count;
    t.totalNs += dur;
    t.selfNs += dur;
    keep(kind, tid, startNs, dur);
}

void
Tracer::keep(SpanKind kind, uint32_t tid, uint64_t start, uint64_t dur)
{
    if (events_.size() < kMaxKept)
        events_.push_back(Event{kind, tid, op_, start, dur});
    else
        ++dropped_;
}

uint64_t
Tracer::spans() const
{
    uint64_t n = 0;
    for (const Totals &t : totals_)
        n += t.count;
    return n;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event &e = events_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"op\":%llu}}",
                     i ? "," : "", spanName(e.kind), e.tid,
                     static_cast<double>(e.start - origin_) / 1e3,
                     static_cast<double>(e.dur) / 1e3,
                     static_cast<unsigned long long>(e.op));
    }
    std::fprintf(f, "\n],\"droppedSpans\":%llu}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
}

// ----------------------------------------------------------------------
// Counters
// ----------------------------------------------------------------------

std::string
foldCubicleName(const std::string &name)
{
    std::string base = name;
    while (!base.empty() &&
           std::isdigit(static_cast<unsigned char>(base.back())))
        base.pop_back();
    if (base.size() == name.size())
        return name;
    return base == "w" ? "worker" : base;
}

Counters
Counters::read(core::System &sys, const libos::FrameChannel *wire)
{
    core::Stats &st = sys.stats();
    Counters c;
    c.cycles = sys.clock().read();
    c.traps = st.traps();
    c.retags = st.retags();
    c.retagPages = st.retagPages();
    c.pkeyMprotects = sys.monitor().space().retagCount();
    c.prestagePages = st.prestagePages();
    c.windowOps = st.windowOps();
    c.ringFlushes = st.ringFlushes();
    c.ringCalls = st.ringCalls();
    c.wrpkrus = st.wrpkrus();
    c.grantCacheHits = st.grantCacheHits();
    c.tagHits = st.tagHits();
    c.tagMisses = st.tagMisses();
    c.evictions = st.evictions();
    c.faultInPages = st.faultInPages();
    c.violations = st.violations();
    c.copies = st.dataCopies();
    c.copyBytes = st.dataCopyBytes();
    c.zeroCopyBytes = st.zeroCopyBytes();
    c.verifyCacheMisses = st.verifyCacheMisses();
    for (const core::CallEdge &e : st.edges()) {
        c.calls += e.count;
        c.edges[foldCubicleName(sys.monitor().cubicle(e.caller).name) +
                "." +
                foldCubicleName(sys.monitor().cubicle(e.callee).name)] +=
            e.count;
    }
    if (wire) {
        c.frames = wire->framesCarried();
        c.wireBytes = wire->bytesCarried();
    }
    return c;
}

Counters
Counters::operator-(const Counters &b) const
{
    Counters d;
    d.cycles = cycles - b.cycles;
    d.traps = traps - b.traps;
    d.retags = retags - b.retags;
    d.retagPages = retagPages - b.retagPages;
    d.pkeyMprotects = pkeyMprotects - b.pkeyMprotects;
    d.prestagePages = prestagePages - b.prestagePages;
    d.windowOps = windowOps - b.windowOps;
    d.calls = calls - b.calls;
    d.ringFlushes = ringFlushes - b.ringFlushes;
    d.ringCalls = ringCalls - b.ringCalls;
    d.wrpkrus = wrpkrus - b.wrpkrus;
    d.grantCacheHits = grantCacheHits - b.grantCacheHits;
    d.tagHits = tagHits - b.tagHits;
    d.tagMisses = tagMisses - b.tagMisses;
    d.evictions = evictions - b.evictions;
    d.faultInPages = faultInPages - b.faultInPages;
    d.violations = violations - b.violations;
    d.copies = copies - b.copies;
    d.copyBytes = copyBytes - b.copyBytes;
    d.zeroCopyBytes = zeroCopyBytes - b.zeroCopyBytes;
    d.verifyCacheMisses = verifyCacheMisses - b.verifyCacheMisses;
    d.frames = frames - b.frames;
    d.wireBytes = wireBytes - b.wireBytes;
    d.harnessEntries = harnessEntries - b.harnessEntries;
    for (const auto &[edge, n] : edges) {
        const auto it = b.edges.find(edge);
        const uint64_t v = n - (it == b.edges.end() ? 0 : it->second);
        if (v)
            d.edges[edge] = v;
    }
    return d;
}

Counters &
Counters::operator+=(const Counters &d)
{
    cycles += d.cycles;
    traps += d.traps;
    retags += d.retags;
    retagPages += d.retagPages;
    pkeyMprotects += d.pkeyMprotects;
    prestagePages += d.prestagePages;
    windowOps += d.windowOps;
    calls += d.calls;
    ringFlushes += d.ringFlushes;
    ringCalls += d.ringCalls;
    wrpkrus += d.wrpkrus;
    grantCacheHits += d.grantCacheHits;
    tagHits += d.tagHits;
    tagMisses += d.tagMisses;
    evictions += d.evictions;
    faultInPages += d.faultInPages;
    violations += d.violations;
    copies += d.copies;
    copyBytes += d.copyBytes;
    zeroCopyBytes += d.zeroCopyBytes;
    verifyCacheMisses += d.verifyCacheMisses;
    frames += d.frames;
    wireBytes += d.wireBytes;
    harnessEntries += d.harnessEntries;
    for (const auto &[edge, n] : d.edges)
        edges[edge] += n;
    return *this;
}

// ----------------------------------------------------------------------
// Metrics
// ----------------------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0;
}

void
Histogram::add(uint64_t ns)
{
    constexpr uint64_t kSub = uint64_t{1} << kSubBits;
    ns = std::min(ns, (uint64_t{1} << kMaxExp) - 1);
    std::size_t i;
    if (ns < 2 * kSub) {
        i = static_cast<std::size_t>(ns);
    } else {
        const int shift = std::bit_width(ns) - 1 - kSubBits;
        i = static_cast<std::size_t>(shift) * kSub +
            static_cast<std::size_t>(ns >> shift);
    }
    ++buckets_[i];
    ++n_;
}

void
Histogram::merge(const Histogram &o)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets_[i] += o.buckets_[i];
    n_ += o.n_;
}

double
Histogram::quantileNs(double q) const
{
    if (n_ == 0)
        return 0;
    constexpr std::size_t kSub = std::size_t{1} << kSubBits;
    // Same rank as quantile(): linear over the sorted samples, with the
    // samples of one bucket spread evenly across its width.
    const double rank = q * static_cast<double>(n_ - 1);
    double below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        const uint32_t c = buckets_[i];
        if (c == 0 || rank >= below + c) {
            below += c;
            continue;
        }
        double lo = static_cast<double>(i), width = 1;
        if (i >= 2 * kSub) {
            const std::size_t shift = i / kSub - 1;
            lo = static_cast<double>((i - shift * kSub) << shift);
            width = static_cast<double>(std::size_t{1} << shift);
        }
        return lo + width * (rank - below + 0.5) / c;
    }
    return 0; // unreachable: rank < n_
}

LatencyLog::LatencyLog(uint64_t startNs, double seconds)
    : start_(startNs),
      sliceNs_(std::max<uint64_t>(
          1, static_cast<uint64_t>(seconds * 1e9 / kSlices))),
      slices_(kSlices)
{
}

void
LatencyLog::add(uint64_t endNs, double ms)
{
    // Operations ending after the phase (a pass that overran the
    // deadline) count in the last slice.
    const uint64_t i = (endNs > start_ ? endNs - start_ : 0) / sliceNs_;
    Slice &s = slices_[std::min<uint64_t>(i, kSlices - 1)];
    ++s.ops;
    s.ms += ms;
    s.hist.add(static_cast<uint64_t>(std::llround(ms * 1e6)));
}

void
LatencyLog::merge(const LatencyLog &o)
{
    for (std::size_t i = 0; i < kSlices; ++i) {
        slices_[i].ops += o.slices_[i].ops;
        slices_[i].ms += o.slices_[i].ms;
        slices_[i].hist.merge(o.slices_[i].hist);
    }
}

void
Measurement::start()
{
    start_ = monoNs();
    deadline_ = start_ + static_cast<uint64_t>(seconds_ * 1e9);
    log_ = LatencyLog(start_, seconds_);
}

void
Measurement::report(Outcome &out, int clients, double extraMsPerOp) const
{
    uint64_t total = 0;
    for (const LatencyLog::Slice &s : log_.slices_)
        total += s.ops;
    // Each block keeps at least kMinBlockSamples, so its p99 has ten
    // samples beyond it.
    const std::size_t nBlocks = std::clamp<std::size_t>(
        total / kMinBlockSamples, 1, kMaxBlocks);
    std::vector<LatencyLog::Slice> blocks(nBlocks);
    for (std::size_t i = 0; i < LatencyLog::kSlices; ++i) {
        const LatencyLog::Slice &s = log_.slices_[i];
        LatencyLog::Slice &b = blocks[i * nBlocks / LatencyLog::kSlices];
        b.ops += s.ops;
        b.ms += s.ms;
        b.hist.merge(s.hist);
    }
    std::vector<double> thr, p50, p99;
    for (const LatencyLog::Slice &b : blocks) {
        if (b.ops == 0)
            continue;
        const double ops = static_cast<double>(b.ops);
        thr.push_back(ops / ((b.ms + ops * extraMsPerOp) / clients / 1e3));
        p50.push_back(b.hist.quantileNs(0.50) / 1e6 + extraMsPerOp);
        p99.push_back(b.hist.quantileNs(0.99) / 1e6 + extraMsPerOp);
    }
    out.add("setup_s", quantile(setups_, 0.5), "s");
    out.add("throughput_ops_s", quantile(thr, 0.5), "1/s");
    out.add("latency_p50_ms", quantile(p50, 0.5), "ms");
    out.add("latency_p99_ms", quantile(p99, 0.5), "ms");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    out.info.emplace_back("setups", static_cast<double>(setups_.size()));
    out.info.emplace_back("latency_samples", static_cast<double>(total));
    out.info.emplace_back("blocks", static_cast<double>(thr.size()));
}

void
addLedger(Outcome &out, const Counters &d, double ops)
{
    const auto per = [ops](double v) { return v / ops; };
    const auto dbl = [](uint64_t v) { return static_cast<double>(v); };

    // Trap-and-map.
    out.add("core.traps_per_op", per(dbl(d.traps)), "count");
    out.add("core.retags_per_op", per(dbl(d.retags)), "count");
    out.add("core.retag_pages_per_op", per(dbl(d.retagPages)), "count");
    out.add("core.prestage_pages_per_op", per(dbl(d.prestagePages)),
            "count");
    out.add("core.window_ops_per_op", per(dbl(d.windowOps)), "count");
    out.add("core.violations", dbl(d.violations), "count");

    // Cross-calls and the CallRing.
    out.add("core.calls_per_op", per(dbl(d.calls)), "count");
    out.add("core.wrpkru_per_op", per(dbl(d.wrpkrus)), "count");
    out.add("core.ring_calls_per_flush",
            d.ringFlushes ? dbl(d.ringCalls) / dbl(d.ringFlushes) : 0,
            "count");
    for (const auto &[edge, n] : d.edges)
        out.add("calls." + edge + "_per_op", per(dbl(n)), "count");

    // Keytable (tag virtualisation). Like Stats::tagHitRatePercent,
    // 100 when no call reached a virtualised cubicle.
    const uint64_t lookups = d.tagHits + d.tagMisses;
    out.add("keytable.tag_hit_pct",
            lookups ? 100.0 * dbl(d.tagHits) / dbl(lookups) : 100.0, "%");
    out.add("keytable.evictions_per_op", per(dbl(d.evictions)), "count");
    out.add("keytable.fault_in_pages_per_op", per(dbl(d.faultInPages)),
            "count");

    // Concurrency and the libos data path.
    out.add("core.grant_cache_hits_per_op", per(dbl(d.grantCacheHits)),
            "count");
    out.add("libos.copies_per_op", per(dbl(d.copies)), "count");
    out.add("libos.copy_bytes_per_op", per(dbl(d.copyBytes)), "B");
    out.add("libos.zero_copy_bytes_per_op", per(dbl(d.zeroCopyBytes)),
            "B");
    out.add("wire.frames_per_op", per(dbl(d.frames)), "count");
    out.add("wire.bytes_per_op", per(dbl(d.wireBytes)), "B");

    // Modelled time by cost kind: count x hw::cost constant. Every
    // trampoline entry (cross-call guard, ring flush, harness runAs)
    // charges trampoline + stack switch on the way in and out.
    namespace cost = hw::cost;
    const uint64_t entries =
        d.calls - d.ringCalls + d.ringFlushes + d.harnessEntries;
    const double trap = dbl(d.traps) * cost::kFaultTrap;
    const double retag = dbl(d.pkeyMprotects) * cost::kPkeyMprotect;
    const double wrpkru = dbl(d.wrpkrus) * cost::kWrpkru;
    const double trampoline =
        dbl(entries) * 2 * (cost::kTrampoline + cost::kStackSwitch);
    const double wire = dbl(d.frames) * 8800 + dbl(d.wireBytes) * 1.76;
    const double total = dbl(d.cycles);
    out.add("model_ms_per_op", per(cyclesToMs(total)), "ms");
    out.add("model.trap_ms_per_op", per(cyclesToMs(trap)), "ms");
    out.add("model.retag_ms_per_op", per(cyclesToMs(retag)), "ms");
    out.add("model.wrpkru_ms_per_op", per(cyclesToMs(wrpkru)), "ms");
    out.add("model.trampoline_ms_per_op", per(cyclesToMs(trampoline)),
            "ms");
    out.add("model.wire_ms_per_op", per(cyclesToMs(wire)), "ms");
    out.add("model.other_ms_per_op",
            per(cyclesToMs(total - trap - retag - wrpkru - trampoline -
                           wire)),
            "ms");
}

void
addSetupSplit(Outcome &out, double constructS, double bootColdS,
              double bootWarmS, double populateS, uint64_t verifyMisses)
{
    out.add("setup.load_verify_s", std::max(0.0, bootColdS - bootWarmS),
            "s");
    out.add("setup.boot_s", constructS + bootWarmS, "s");
    out.add("setup.populate_s", populateS, "s");
    out.add("core.verify_cache_misses", static_cast<double>(verifyMisses),
            "count");
}

} // namespace cubicleos::perfbench
