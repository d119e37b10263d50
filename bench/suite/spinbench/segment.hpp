// One engine run of a runtime workload ("segment"): build the topology and
// deployment, construct a fresh Engine, replay a Feed through it, and read
// back timings, tuple accounting and the engine's own RunStats.  The four
// runtime workloads and the engine probes are all made of segments.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/topology.hpp"
#include "runtime/engine.hpp"
#include "workloads.hpp"

namespace spinbench {

namespace rt = ss::runtime;

struct Deploy {
  ss::Topology topology;
  ss::Deployment deployment;
};

using LogicFactory =
    std::function<std::unique_ptr<rt::OperatorLogic>(ss::OpIndex, const ss::OperatorSpec&)>;

struct Segment {
  /// Topology and deployment decisions; timed as part of set-up.
  std::function<Deploy()> build;
  rt::EngineConfig config;
  /// Logic of each non-source operator; the sink's gets wrapped in an
  /// ExitProbe by run_segment.
  LogicFactory logic;
  /// Optional control actions on the running engine, on a thread of their
  /// own; must return soon after `done` turns true.
  std::function<void(rt::Engine&, Tracer*, std::int64_t run_span, const std::atomic<bool>& done)>
      control;
  /// Reference f[1] per tuple id at the sink; empty = no result check.
  std::vector<double> expected;
  /// Tuples due earlier than this (open loop) or the first tenth of ids
  /// (closed loop) are warm-up: excluded from throughput and latency.
  double warmup_s = 0.5;
};

/// Per-tuple samples pooled over the segments of a run.
struct Samples {
  explicit Samples(std::uint64_t seed, std::size_t capacity = 1 << 20)
      : latency(seed, capacity), lag(seed ^ 0x6c6167ULL, capacity / 4) {}
  Reservoir latency;  ///< due (open) or emit (closed) → sink exit, ms
  Reservoir lag;      ///< open loop: emission − due, ms
  std::int64_t late = 0;  ///< open-loop tuples emitted more than kLateMs after due

  void clear() {
    latency.clear();
    lag.clear();
    late = 0;
  }
};

/// Generator lag beyond which a tuple counts as emitted late.
constexpr double kLateMs = 1.0;

struct Outcome {
  bool traced = false;
  double setup_s = 0.0;      ///< build + Engine ctor + run start → first sink exit
  double construct_s = 0.0;  ///< Engine ctor alone
  double first_exit_s = 0.0; ///< run start → first sink exit
  double drain_s = 0.0;      ///< last source emission → run returned
  double throughput = 0.0;   ///< tuples/s over the post-warm-up window
  double cpu_s = 0.0;        ///< process user+system CPU during the run
  Accounting accounting;
  rt::RunStats stats;
  rt::PredictedLatency predicted;
};

/// Runs one segment over `feed` (filled and reset by the caller) and adds
/// the post-warm-up tuples to `samples`.  `traced` sets
/// EngineConfig::metrics_path, records benchmark spans and gives one tuple in
/// 1024 a span.
Outcome run_segment(const Segment& segment, Feed& feed, bool traced, const RunOptions& options,
                    int index, Samples& samples);

/// The engine's own readings over some segments: ctor / first-exit / drain
/// times, its end-to-end histogram, and the layers the segments exercised
/// (scheduler counters under the pool, busy/blocked telemetry where
/// metering ran).
Metrics engine_readings(const std::vector<const Outcome*>& outcomes);

// ---------------------------------------------------------------- shapes

/// Logic realizing each operator synthetically from its spec; `time_scale`
/// 0 gives zero-service pass-through operators.
LogicFactory synthetic_logic(std::uint64_t seed, double time_scale);

/// src → op1 → op2 → op3, thread-per-actor (4 threads).
Segment chain_segment(std::uint64_t seed);
/// src → split → 4-way fan-out (p = 0.25) → merge (2 replicas) → sink on a
/// pool of `workers`.
Segment fanin_segment(std::uint64_t seed, int workers);
/// The paper's Fig. 11 topology, op2–op6 service times × 0.25, Table 1
/// fusion {op3, op4, op5} as one meta actor, thread-per-actor; the source's
/// declared service time is 1/rate so the model predicts at that rate.
Segment fig11_segment(std::uint64_t seed, double rate);

/// Keyed-state pipeline: src → enrich → keyed running sum (partitioned,
/// Zipf keys, `replicas` by key partition) → sink, pooled; the benchmark
/// checkpoints every `checkpoint_period` seconds into `checkpoint_dir` and
/// reconfigures to `replicas − 1` replicas at `reconfigure_at` seconds.
struct KeyedPlan {
  std::size_t keys = 10'000;
  double zipf_alpha = 0.8;
  int replicas = 3;
  int workers = 4;
  double rate = 0.0;
  double checkpoint_period = 0.5;
  double reconfigure_at = 0.0;  ///< 0 = never
  std::string checkpoint_dir;
};
/// What the keyed segment's control actions measured.
struct KeyedLog {
  std::vector<double> pause_ms;  ///< checkpoint_now() calls that snapshotted
  double reconfigure_ms = 0.0;
  bool reconfigured = false;
};
Segment keyed_segment(const KeyedPlan& plan, Feed& feed, KeyedLog& log);
/// Fills `feed` with Poisson arrivals over `seconds`, Zipf keys and small
/// integer values, and `expected` with the reference running sum per tuple
/// id (a single-threaded computation of the same input).
void keyed_feed(const KeyedPlan& plan, std::uint64_t seed, double seconds, Feed& feed,
                std::vector<double>& expected);
/// Mean size of the checkpoint files left in `dir`, bytes.
double checkpoint_bytes(const std::string& dir);

}  // namespace spinbench
