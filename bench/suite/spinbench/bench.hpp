// Shared machinery of spinbench: clocks and resource usage,
// order statistics, the metric table a run reports, the in-memory span
// recorder behind --trace, and the load generator (source) and exit probe
// (sink) the benchmark plugs into the engine through AppFactory.
//
// spinbench measures every layer from outside: it times calls into public
// functions and reads the engine's public outputs.  Nothing here reaches
// into the runtime's internals.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gen/rng.hpp"
#include "runtime/operator.hpp"

namespace spinbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide origin (the first call).
std::int64_t now_ns();
inline double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
inline double ns_to_ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Process user+system CPU seconds so far (getrusage).
double cpu_seconds();
/// Peak resident set size of the process so far, MiB: VmHWM, which unlike
/// ru_maxrss does not start from the peak of the process that launched it.
double peak_rss_mb();

/// Value at quantile q in [0, 1] (nearest rank on a sorted copy); 0 when
/// empty.  Takes by value: callers hand over temporary vectors.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }
/// Harrell-Davis estimate of quantile q in (0, 1): a Beta-weighted average
/// of every order statistic.  For a small sample it moves smoothly when
/// noise swaps the ranks of nearby values, where the nearest rank jumps
/// from one value to the next.  0 when empty.
double harrell_davis(std::vector<double> values, double q);

/// A uniform sample of fixed size from a stream of values (reservoir
/// sampling, Algorithm R): percentiles pooled over any number of segments
/// in constant memory.  The storage is allocated and touched up front, so
/// the benchmark's own footprint does not grow with the number of segments a
/// fast system completes.
class Reservoir {
 public:
  explicit Reservoir(std::uint64_t seed, std::size_t capacity = 1 << 20)
      : values_(capacity, 0.0F), rng_(seed) {}
  void add(double value);
  void clear() { seen_ = 0; }
  /// Values offered so far (not only those kept).
  [[nodiscard]] std::int64_t seen() const { return seen_; }
  /// Value at quantile q of the kept sample; reorders the storage in place
  /// rather than allocating.
  [[nodiscard]] double quantile(double q);

 private:
  std::vector<float> values_;
  std::int64_t seen_ = 0;
  ss::Rng rng_;
};

// ------------------------------------------------------------------ metrics

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Samples behind the value (percentiles and medians); 0 = a single
  /// measurement or a count.
  std::int64_t samples = 0;
};

inline Metric metric(double value, const char* unit, std::int64_t samples = 0) {
  return Metric{value, unit, samples};
}

/// Metrics by name; std::map keeps the JSON output ordered.
using Metrics = std::map<std::string, Metric>;

/// One JSON object {"name": {"value": v, "unit": u, "samples": n}, ...}.
std::string to_json(const Metrics& metrics);
/// JSON string literal with escaping.
std::string json_string(const std::string& text);

// ------------------------------------------------------------------ tracing

/// Spans recorded in memory by the benchmark around each call into a layer,
/// written once at exit in Chrome trace-event format (Perfetto loads it;
/// tools/trace_check.py validates it).  A null Tracer* disables recording
/// everywhere; Span still times its interval.
class Tracer {
 public:
  /// Benchmark threads: the run thread, the control thread (checkpoints,
  /// reconfiguration) and the sampled-tuple lane.
  enum Lane : int { kBench = 1, kControl = 2, kTuples = 3 };

  std::int64_t reserve_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void add(std::string name, std::int64_t id, std::int64_t parent, std::int64_t begin_ns,
           std::int64_t end_ns, int lane, std::int64_t tuple_id = -1);
  /// Writes {"traceEvents": [...]} with thread_name metadata; throws on I/O
  /// failure.
  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::int64_t id;
    std::int64_t parent;
    std::int64_t begin_ns;
    std::int64_t end_ns;
    int lane;
    std::int64_t tuple_id;
  };
  mutable std::mutex mutex_;
  std::vector<Record> records_;  ///< guarded by mutex_
  std::atomic<std::int64_t> next_id_{1};
};

/// Times one call into a layer; records it as a span when a tracer is set.
class Span {
 public:
  Span(Tracer* tracer, std::string name, std::int64_t parent = 0,
       int lane = Tracer::kBench);
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span (idempotent) and returns its length in seconds.
  double end();
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::string name_;
  std::int64_t parent_;
  int lane_;
  std::int64_t id_ = 0;
  std::int64_t begin_ns_;
  std::int64_t end_ns_ = -1;
};

// ------------------------------------------------------------ load and exit

/// The generated input of one engine run and everything recorded about
/// each tuple on its way through.  The source (one actor) writes
/// `start_ns`/`lag_ns`, the sink (one actor) writes `exit_ns`/`exits`/
/// `result`; the benchmark reads them after the run has joined every thread.
struct Feed {
  /// Arrival offsets from `t0_ns` (open loop); empty = closed loop, the
  /// source emits as fast as backpressure lets it.
  std::vector<std::int64_t> due_ns;
  /// Tuple keys and f[0] values; empty = key = id, f[0] = 1.
  std::vector<std::int64_t> key;
  std::vector<double> value;
  std::int64_t items = 0;

  std::int64_t t0_ns = 0;  ///< schedule origin, set when the run starts
  std::vector<std::int64_t> start_ns;  ///< due (open) or emit (closed) time
  std::vector<std::int64_t> lag_ns;    ///< open loop: emit − due
  std::vector<std::int64_t> exit_ns;   ///< sink exit time
  std::vector<std::uint8_t> exits;     ///< sink exits per id (saturating)
  std::vector<double> result;          ///< f[1] at the sink (only with `value`)
  std::atomic<std::int64_t> cursor{0};  ///< next id the source emits
  std::atomic<std::int64_t> bad_ids{0};  ///< sink saw an id outside [0, items)

  /// Closed loop: at most this many tuples in flight, a fixed population
  /// of clients (0 = bounded by backpressure alone).  A full window waits
  /// until half of it has left, so the source parks once per window/2
  /// tuples rather than once per tuple.
  std::int64_t window = 0;
  std::atomic<std::int64_t> exited{0};  ///< exits recorded so far
  /// Exit count at which the waiting source must be woken (-1 = none).
  std::atomic<std::int64_t> wake_at{-1};
  std::mutex window_mutex;
  std::condition_variable window_cv;

  /// Allocates and touches the per-tuple arrays for up to `n` items, so
  /// later resets up to that size leave the process footprint unchanged.
  void reserve(std::int64_t n);
  /// Sizes the per-tuple arrays for `n` items and clears the records.
  void reset(std::int64_t n);
};

/// Source logic replaying a Feed: sleeps until each tuple is due (open
/// loop) or emits at once (closed loop), stamping start/lag per id.
class FeedSource final : public ss::runtime::SourceLogic {
 public:
  explicit FeedSource(Feed& feed) : feed_(feed) {}
  bool next(ss::runtime::Tuple& out) override;

 private:
  Feed& feed_;
  bool slack_set_ = false;
};

/// Wraps the logic of a sink operator: everything it emits leaves the
/// system, so each emission records the tuple's exit in the Feed.
class ExitProbe final : public ss::runtime::OperatorLogic {
 public:
  ExitProbe(Feed& feed, std::unique_ptr<ss::runtime::OperatorLogic> inner)
      : feed_(feed), inner_(std::move(inner)) {}
  void process(const ss::runtime::Tuple& item, ss::OpIndex from,
               ss::runtime::Collector& out) override;
  void on_finish(ss::runtime::Collector& out) override;
  [[nodiscard]] std::unique_ptr<ss::runtime::OperatorLogic> clone() const override {
    return std::make_unique<ExitProbe>(feed_, inner_->clone());
  }
  [[nodiscard]] bool save_state(std::string& out) const override {
    return inner_->save_state(out);
  }
  bool restore_state(const std::string& bytes) override { return inner_->restore_state(bytes); }

 private:
  Feed& feed_;
  std::unique_ptr<ss::runtime::OperatorLogic> inner_;
};

/// Per-run tuple accounting: every generated id must exit exactly once.
struct Accounting {
  std::int64_t generated = 0;
  std::int64_t lost = 0;
  std::int64_t duplicated = 0;
  std::int64_t wrong = 0;    ///< exited with a result differing from the reference
  std::int64_t dropped = 0;  ///< engine send-timeout drops + ids outside the feed
  [[nodiscard]] std::int64_t failed() const { return lost + duplicated + wrong + dropped; }
  Accounting& operator+=(const Accounting& o);
};

/// Checks exit-exactly-once over the feed; with `expected` non-empty also
/// compares each tuple's sink result with it.
Accounting account(const Feed& feed, std::uint64_t engine_dropped,
                   const std::vector<double>& expected = {});

/// Poisson arrivals at `rate` per second for `seconds`, written into `due`
/// (its capacity is reused).
void poisson_schedule(std::uint64_t seed, double rate, double seconds,
                      std::vector<std::int64_t>& due);
/// Arrivals a Poisson schedule of `rate` × `seconds` stays below (with a
/// margin far beyond any realistic deviation): the size to reserve.
std::int64_t poisson_capacity(double rate, double seconds);

}  // namespace spinbench
