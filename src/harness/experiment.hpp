// Predicted-vs-measured experiment plumbing shared by the fig* benches,
// the ablations and the CLI.
//
// The "measured" side can come from any execution backend:
//   * kSim     — the discrete-event BAS simulator (default; sweeps the
//                whole 50-topology testbed in seconds on one core),
//   * kThreads — the real actor runtime, one dedicated thread per actor
//                (the configuration closest to the paper's Akka runs;
//                wall-clock bound, used for spot validation), or
//   * kPool    — the real actor runtime on the pooled scheduler: N actors
//                multiplexed onto K workers (MeasureOptions::workers).
// See DESIGN.md §2 for why these are faithful stand-ins for the paper's
// 24-core Akka deployment.
#pragma once

#include <string>
#include <vector>

#include "core/optimizer.hpp"
#include "core/steady_state.hpp"
#include "core/topology.hpp"
#include "runtime/plan.hpp"
#include "sim/des.hpp"

namespace ss::harness {

/// Which execution backend produces the "measured" side of an experiment.
enum class ExecutionBackend { kSim, kThreads, kPool };

/// Legacy alias kept for older bench code; new code should say
/// ExecutionBackend.
using Engine = ExecutionBackend;

/// Parses "sim"/"threads"/"pool" (the CLI --engine values).
ExecutionBackend engine_from_string(const std::string& name);
const char* backend_name(ExecutionBackend backend);

struct MeasureOptions {
  ExecutionBackend engine = ExecutionBackend::kSim;
  /// Simulated seconds (kSim).
  double sim_duration = 200.0;
  /// Service law for the simulator.
  sim::ServiceLaw law = sim::ServiceLaw::exponential();
  /// Wall-clock seconds per topology (kThreads/kPool).
  double real_duration = 2.0;
  /// Mailbox/buffer capacity.
  std::size_t buffer_capacity = 64;
  std::uint64_t seed = 7;
  /// Worker threads of the pooled backend; <= 0 means one per hardware
  /// thread.  Ignored by kSim/kThreads.
  int workers = 0;
  /// Slice size of the live backends (messages an actor drains per slice,
  /// items a source emits per slice); <= 0 means the default of 64.
  /// Ignored by kSim.
  int pool_batch = 0;
  /// Elastic re-deployment (kThreads/kPool only): run a ReconfigController
  /// that re-runs Algorithms 1-3 on measured rates every `reconfig_period`
  /// seconds and switches epochs when the predicted gain exceeds
  /// `reconfig_threshold`.  measure() rejects elastic under kSim.
  bool elastic = false;
  double reconfig_period = 0.5;
  double reconfig_threshold = 0.10;
  /// End-to-end p99 latency SLO in seconds (0 = none).  Under an elastic
  /// runtime backend the controller re-deploys on measured SLO breach;
  /// every backend reports predicted-vs-measured latency either way.
  double slo_p99 = 0.0;
  /// Objective of the controller's re-optimization ("throughput",
  /// "latency" or "balanced"; see ss::Objective).
  Objective objective = Objective::kThroughput;
  /// When non-empty (kThreads/kPool only), the engine's MetricsExporter
  /// appends one JSON metrics snapshot per line to this file every
  /// `metrics_period` seconds.  measure() rejects it under kSim.
  std::string metrics_path;
  double metrics_period = 0.5;
};

/// Measured steady-state rates of one run.
struct Measured {
  double throughput = 0.0;               ///< source departure rate (tuples/s)
  std::vector<double> departure_rates;   ///< per logical operator
  std::vector<double> arrival_rates;
  /// Measured per-operator utilization ρ (busy time / window / replicas)
  /// and blocked-on-send fraction — filled by every backend (virtual time
  /// under kSim; -1 under kThreads/kPool runs without telemetry), so
  /// predicted-vs-measured ρ comparisons work sim-vs-runtime alike.
  std::vector<double> busy_fractions;
  std::vector<double> blocked_fractions;
  /// End-to-end tuple latency over the steady-state window (seconds):
  /// wall-clock under kThreads/kPool, virtual time under kSim (the DES
  /// records per-tuple sojourn, so the percentile columns fill everywhere).
  std::uint64_t latency_samples = 0;
  double latency_p50 = 0.0;
  double latency_p95 = 0.0;
  double latency_p99 = 0.0;
  /// Model-predicted end-to-end tuple latency of the same deployment
  /// (estimate_latency on the final plan) — filled by every backend so
  /// predicted-vs-measured tail comparisons need no extra plumbing.
  double predicted_mean_latency = 0.0;
  double predicted_p50 = 0.0;
  double predicted_p95 = 0.0;
  double predicted_p99 = 0.0;
  /// Elastic re-deployment outcome (1 epoch / 0 reconfigurations when the
  /// controller is off or never moved).
  int epochs = 1;
  int reconfigurations = 0;
  std::uint64_t keys_migrated = 0;
};

/// Runs `t` under `deployment` on the chosen engine and returns rates.
Measured measure(const Topology& t, const runtime::Deployment& deployment,
                 const MeasureOptions& options);

/// Predicted + measured + relative error for one topology.
struct Comparison {
  double predicted = 0.0;
  double measured = 0.0;
  double error = 0.0;  ///< |predicted - measured| / measured
};

/// Full fig-7-style comparison of an unoptimized (or replicated) topology.
Comparison compare_throughput(const Topology& t, const runtime::Deployment& deployment,
                              const MeasureOptions& options);

}  // namespace ss::harness
