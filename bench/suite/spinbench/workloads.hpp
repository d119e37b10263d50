// The five benchmark workloads and the per-layer probes.
#pragma once

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace spinbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time budget of the run
  bool trace = false;
  /// Working directory for checkpoints and metrics files (inside the
  /// checkout; the caller creates it and removes it).
  std::string work_dir;
  Tracer* tracer = nullptr;  ///< non-null iff trace
};

struct WorkloadResult {
  /// The gated end-to-end metrics, from the untraced segments.
  Metrics end_to_end;
  /// The workload's own readings of the layers it exercises (engine
  /// telemetry, scheduler counters, checkpoint pauses, generator lag, model
  /// comparison...).  A traced run reports them in its per-layer section
  /// in place of the fixed probes of the same layers.
  Metrics detail;
  Accounting accounting;
  /// Traced-minus-untraced change of the workload's primary metric,
  /// percent (traced runs only).
  double trace_overhead_pct = 0.0;
};

/// Runs one workload; throws std::invalid_argument on an unknown name.
WorkloadResult run_workload(const std::string& name, const RunOptions& options);

/// Fixed-size microbenchmarks of each layer through its public API,
/// identical for every workload.
Metrics run_probes(const RunOptions& options);

}  // namespace spinbench
