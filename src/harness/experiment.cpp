#include "harness/experiment.hpp"

#include "core/error.hpp"
#include "harness/table.hpp"
#include "runtime/engine.hpp"

namespace ss::harness {

ExecutionBackend engine_from_string(const std::string& name) {
  if (name == "sim") return ExecutionBackend::kSim;
  if (name == "threads") return ExecutionBackend::kThreads;
  if (name == "pool") return ExecutionBackend::kPool;
  throw Error("unknown engine '" + name + "' (expected 'sim', 'threads' or 'pool')");
}

const char* backend_name(ExecutionBackend backend) {
  switch (backend) {
    case ExecutionBackend::kSim:
      return "sim";
    case ExecutionBackend::kThreads:
      return "threads";
    case ExecutionBackend::kPool:
      return "pool";
  }
  return "?";
}

Measured measure(const Topology& t, const runtime::Deployment& deployment,
                 const MeasureOptions& options) {
  Measured result;
  {
    // Predicted side (every backend): estimate_latency on the deployed
    // plan — the figures the measured percentiles should land near.
    const SteadyStateResult rates = steady_state(t, deployment.replication);
    const LatencyEstimate est =
        estimate_latency(t, rates, deployment.replication, options.buffer_capacity);
    result.predicted_mean_latency = est.sojourn_mean;
    result.predicted_p50 = est.sojourn.p50;
    result.predicted_p95 = est.sojourn.p95;
    result.predicted_p99 = est.sojourn.p99;
  }
  if (options.engine == ExecutionBackend::kSim) {
    require(!options.elastic,
            "--elastic needs a live runtime: use --engine=threads or --engine=pool");
    sim::SimOptions sim_options;
    sim_options.duration = options.sim_duration;
    sim_options.buffer_capacity = options.buffer_capacity;
    sim_options.law = options.law;
    sim_options.seed = options.seed;
    sim_options.replication = deployment.replication;
    sim_options.partitions = deployment.partitions;
    require(options.metrics_path.empty(),
            "--metrics-out needs a live runtime: use --engine=threads or --engine=pool");
    const sim::SimResult sim = sim::simulate(t, sim_options);
    result.throughput = sim.throughput;
    for (const auto& op : sim.ops) {
      result.departure_rates.push_back(op.departure_rate);
      result.arrival_rates.push_back(op.arrival_rate);
      result.busy_fractions.push_back(op.busy_fraction);
      result.blocked_fractions.push_back(op.blocked_fraction);
    }
    result.latency_samples = sim.end_to_end.count;
    result.latency_p50 = sim.end_to_end.p50;
    result.latency_p95 = sim.end_to_end.p95;
    result.latency_p99 = sim.end_to_end.p99;
    return result;
  }

  runtime::EngineConfig config;
  config.mailbox_capacity = options.buffer_capacity;
  config.seed = options.seed;
  config.pool_batch = options.pool_batch;
  if (options.engine == ExecutionBackend::kPool) {
    config.scheduler = runtime::SchedulerKind::kPooled;
    config.workers = options.workers;
  }
  config.elastic = options.elastic;
  config.reconfig_period = options.reconfig_period;
  config.reconfig_threshold = options.reconfig_threshold;
  config.slo_p99 = options.slo_p99;
  config.objective = options.objective;
  config.metrics_path = options.metrics_path;
  config.metrics_period = options.metrics_period;
  runtime::Engine engine(t, deployment, runtime::synthetic_factory(), config);
  const runtime::RunStats stats =
      engine.run_for(std::chrono::duration<double>(options.real_duration));
  result.throughput = stats.source_rate;
  for (const auto& op : stats.ops) {
    result.departure_rates.push_back(op.departure_rate);
    result.arrival_rates.push_back(op.arrival_rate);
    result.busy_fractions.push_back(op.busy_fraction);
    result.blocked_fractions.push_back(op.blocked_fraction);
  }
  result.latency_samples = stats.end_to_end.count;
  result.latency_p50 = stats.end_to_end.p50;
  result.latency_p95 = stats.end_to_end.p95;
  result.latency_p99 = stats.end_to_end.p99;
  result.epochs = stats.epochs;
  result.reconfigurations = stats.reconfigurations;
  result.keys_migrated = stats.keys_migrated;
  return result;
}

Comparison compare_throughput(const Topology& t, const runtime::Deployment& deployment,
                              const MeasureOptions& options) {
  Comparison cmp;
  ReplicationPlan plan = deployment.replication;
  cmp.predicted = steady_state(t, plan).throughput();
  cmp.measured = measure(t, deployment, options).throughput;
  cmp.error = relative_error(cmp.predicted, cmp.measured);
  return cmp;
}

}  // namespace ss::harness
