/**
 * @file
 * Shared pieces of the benchmark harness: run configuration, the
 * in-memory span recorder, counter snapshots over core::Stats, and the
 * metric set each workload fills in.
 *
 * Reported time follows bench/bench_util.h: real wall time plus the
 * modelled hw::CycleClock cycles at the paper's 2.2 GHz.
 */

#ifndef CUBICLEOS_PERFBENCH_COMMON_H_
#define CUBICLEOS_PERFBENCH_COMMON_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "libos/netdev.h"

namespace cubicleos::perfbench {

/** Command-line configuration of one run. */
struct RunConfig {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut; ///< span dump path (traced runs); may be empty
};

/** Monotonic wall clock in nanoseconds. */
inline uint64_t
monoNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
cyclesToMs(double cycles)
{
    return cycles / hw::cost::kCpuGhz / 1e6;
}

// ----------------------------------------------------------------------
// Spans
// ----------------------------------------------------------------------

/** The layer boundaries the harness brackets with spans. */
enum class SpanKind : uint8_t {
    kOp,           ///< one measured operation (request, test, loop)
    kClientTick,   ///< client TcpIpStack::tick
    kClientOutput, ///< client TcpIpStack::pollOutput
    kClientInput,  ///< client TcpIpStack::input
    kWireSend,     ///< FrameChannel::hostSend
    kWireRecv,     ///< FrameChannel::hostRecv
    kNginxPoll,    ///< System::runAs of nginx_poll
    kConstruct,    ///< core::System construction
    kBoot,         ///< component load + verify + init
    kPopulate,     ///< file or database creation
    kSpeedtest,    ///< minisql::Speedtest::run(id)
    kMtWorker,     ///< one mt-grant worker's loop
    kCount,
};

const char *spanName(SpanKind kind);

/**
 * Single-threaded span recorder. Disabled, a span costs one branch.
 * Enabled, each span adds to per-kind totals (count, total and self
 * time, self = duration minus nested spans) and is kept in a bounded
 * in-memory log that writeChromeJson() dumps when the run ends.
 */
class Tracer {
  public:
    struct Totals {
        uint64_t count = 0;
        uint64_t totalNs = 0;
        uint64_t selfNs = 0;
    };

    /** RAII span; nests under the innermost open span. */
    class Span {
      public:
        Span(Tracer &t, SpanKind kind) : t_(t.on_ ? &t : nullptr)
        {
            if (t_)
                t_->open(kind);
        }
        ~Span()
        {
            if (t_)
                t_->close();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *t_;
    };

    void enable(bool on) { on_ = on; }

    /** Sets the operation id stamped on subsequent spans. */
    void setOp(uint64_t op) { op_ = op; }

    /** Records a finished, unnested span (e.g. from a worker thread). */
    void record(SpanKind kind, uint64_t startNs, uint64_t endNs,
                uint32_t tid);

    const Totals &totals(SpanKind kind) const
    {
        return totals_[static_cast<std::size_t>(kind)];
    }
    double totalMs(SpanKind kind) const
    {
        return static_cast<double>(totals(kind).totalNs) / 1e6;
    }
    double selfMs(SpanKind kind) const
    {
        return static_cast<double>(totals(kind).selfNs) / 1e6;
    }
    uint64_t spans() const;

    /** Writes the kept spans as Chrome trace-event JSON. */
    bool writeChromeJson(const std::string &path) const;

  private:
    struct Open {
        SpanKind kind;
        uint64_t start;
        uint64_t childNs;
    };
    struct Event {
        SpanKind kind;
        uint32_t tid;
        uint64_t op;
        uint64_t start;
        uint64_t dur;
    };
    static constexpr std::size_t kMaxKept = 200000;

    void open(SpanKind kind);
    void close();
    void keep(SpanKind kind, uint32_t tid, uint64_t start, uint64_t dur);

    bool on_ = false;
    uint64_t op_ = 0;
    uint64_t origin_ = monoNs();
    std::vector<Open> stack_;
    std::vector<Event> events_;
    uint64_t dropped_ = 0;
    std::array<Totals, static_cast<std::size_t>(SpanKind::kCount)>
        totals_{};
};

// ----------------------------------------------------------------------
// Counters
// ----------------------------------------------------------------------

/**
 * One snapshot of every counter the per-layer ledger reads: core::Stats,
 * the address space's retag count, the modelled clock, the wire, and
 * the call edges keyed by folded cubicle names. Subtracting two
 * snapshots gives the work done in between.
 */
struct Counters {
    uint64_t cycles = 0;
    uint64_t traps = 0;
    uint64_t retags = 0;       ///< trap-and-map retags (Stats)
    uint64_t retagPages = 0;
    uint64_t pkeyMprotects = 0; ///< every setKeyRange (AddressSpace)
    uint64_t prestagePages = 0;
    uint64_t windowOps = 0;
    uint64_t calls = 0;
    uint64_t ringFlushes = 0;
    uint64_t ringCalls = 0;
    uint64_t wrpkrus = 0;
    uint64_t grantCacheHits = 0;
    uint64_t tagHits = 0;
    uint64_t tagMisses = 0;
    uint64_t evictions = 0;
    uint64_t faultInPages = 0;
    uint64_t violations = 0;
    uint64_t copies = 0;
    uint64_t copyBytes = 0;
    uint64_t zeroCopyBytes = 0;
    uint64_t verifyCacheMisses = 0;
    uint64_t frames = 0;
    uint64_t wireBytes = 0;
    /** Trampoline entries made by the harness itself (System::runAs). */
    uint64_t harnessEntries = 0;
    std::map<std::string, uint64_t> edges;

    /** Reads @p sys (and @p wire, when the deployment has one). */
    static Counters read(core::System &sys,
                         const libos::FrameChannel *wire);

    Counters operator-(const Counters &base) const;
    Counters &operator+=(const Counters &d);
};

/**
 * Folds a cubicle name for the call-edge table: numbered tenant
 * cubicles ("tenant7", "tlog7") and mt-grant workers ("w3") collapse
 * into one name per role.
 */
std::string foldCubicleName(const std::string &name);

// ----------------------------------------------------------------------
// Metrics and results
// ----------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/** Result of one workload run, printed by main() as JSON. */
struct Outcome {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Provenance and op counts beside the metrics. */
    std::vector<std::pair<std::string, double>> info;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/**
 * FNV-1a digest of a run's generated inputs, reported as info
 * "inputs_digest" so tests can tell that the seed drives the inputs.
 * 32 bits, so the JSON number is exact.
 */
class Digest {
  public:
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ = (h_ ^ static_cast<uint8_t>(v >> (8 * i))) * 16777619u;
        }
    }
    void add(const std::string &s)
    {
        for (char c : s)
            h_ = (h_ ^ static_cast<uint8_t>(c)) * 16777619u;
        add(s.size());
    }
    double value() const { return static_cast<double>(h_); }

  private:
    uint32_t h_ = 2166136261u;
};

/** Linear-interpolated quantile @p q in [0,1] of @p v (sorted copy). */
double quantile(std::vector<double> v, double q);

/** Peak resident set size of this process in MiB (VmHWM). */
double peakRssMb();

/** Wall + modelled time of one operation. */
struct OpSample {
    double wallMs = 0;
    double modelMs = 0;
    double ms() const { return wallMs + modelMs; }
};

/**
 * Log-linear histogram of durations in nanoseconds: exact below 256 ns,
 * then 128 buckets per power of two (under 0.8% relative error) up to
 * 2^36 ns. Its size is fixed, so a sample costs no memory.
 */
class Histogram {
  public:
    Histogram() : buckets_(kBuckets, 0) {}

    void add(uint64_t ns);
    void merge(const Histogram &o);

    /** Quantile @p q in [0,1], interpolated within its bucket. */
    double quantileNs(double q) const;

  private:
    static constexpr int kSubBits = 7;
    static constexpr int kMaxExp = 36;
    static constexpr std::size_t kBuckets = (kMaxExp - kSubBits + 1)
                                            << kSubBits;

    std::vector<uint32_t> buckets_;
    uint64_t n_ = 0;
};

/**
 * Per-operation latencies of a measured phase in fixed-size storage.
 * The phase is cut into kSlices equal time slices, each keeping an op
 * count, the summed reported time and a Histogram, so the harness's own
 * memory does not grow with the number of operations it records.
 */
class LatencyLog {
  public:
    static constexpr std::size_t kSlices = 20;

    /** A log of a phase of @p seconds that starts at @p startNs. */
    LatencyLog(uint64_t startNs, double seconds);

    /** Records one operation of @p ms reported time ending at @p endNs. */
    void add(uint64_t endNs, double ms);
    void merge(const LatencyLog &o);

  private:
    friend class Measurement;
    struct Slice {
        uint64_t ops = 0;
        double ms = 0;
        Histogram hist;
    };

    uint64_t start_;
    uint64_t sliceNs_;
    std::vector<Slice> slices_;
};

/**
 * The measured phase and the set-ups before it.
 *
 * The phase's time slices are grouped into up to kMaxBlocks blocks of
 * at least kMinBlockSamples operations each. Throughput and latency are
 * computed per block and reported as the median over blocks, so a burst
 * of host interference moves a few blocks rather than the run.
 */
class Measurement {
  public:
    static constexpr std::size_t kMaxBlocks = 10;
    static constexpr std::size_t kMinBlockSamples = 1000;

    explicit Measurement(double seconds)
        : seconds_(seconds), log_(0, seconds)
    {
    }

    /** Records one set-up that took @p s seconds. */
    void addSetup(double s) { setups_.push_back(s); }

    /** Starts the measured phase; it lasts the given seconds. */
    void start();
    bool running() const { return monoNs() < deadline_; }

    void add(const OpSample &s) { log_.add(monoNs(), s.ms()); }
    void add(uint64_t endNs, double ms) { log_.add(endNs, ms); }

    /** An empty log on this phase's time base (e.g. one per thread). */
    LatencyLog emptyLog() const { return LatencyLog(start_, seconds_); }
    void merge(const LatencyLog &log) { log_.merge(log); }

    /**
     * Appends setup_s (median set-up), throughput (ops over reported
     * time, with @p clients closed loops running in parallel), latency
     * p50/p99 per op (median over blocks) and peak RSS. Every recorded
     * op is charged @p extraMsPerOp more reported time.
     */
    void report(Outcome &out, int clients = 1,
                double extraMsPerOp = 0) const;

  private:
    double seconds_;
    uint64_t start_ = 0;
    uint64_t deadline_ = 0;
    std::vector<double> setups_;
    LatencyLog log_;
};

/**
 * Appends the per-layer counter metrics derived from @p d over @p ops
 * operations: trap-and-map, cross-call, keytable, data-path and wire
 * counts, per-edge calls, and the modelled-time split by cost kind.
 */
void addLedger(Outcome &out, const Counters &d, double ops);

/**
 * Appends the set-up split: cold and warm boot differ by the verifier
 * work the image cache saves.
 */
void addSetupSplit(Outcome &out, double constructS, double bootColdS,
                   double bootWarmS, double populateS,
                   uint64_t verifyMisses);

/** Runs the workload named in @p cfg. @throws std::invalid_argument. */
Outcome runWorkload(const RunConfig &cfg);

} // namespace cubicleos::perfbench

#endif // CUBICLEOS_PERFBENCH_COMMON_H_
