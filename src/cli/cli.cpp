#include "cli/cli.hpp"

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/bottleneck.hpp"
#include "core/codegen.hpp"
#include "core/error.hpp"
#include "core/fusion.hpp"
#include "core/latency.hpp"
#include "core/optimizer.hpp"
#include "core/profile.hpp"
#include "core/validate.hpp"
#include "gen/workload.hpp"
#include "harness/args.hpp"
#include "harness/experiment.hpp"
#include "harness/profiler.hpp"
#include "harness/table.hpp"
#include "core/joint.hpp"
#include "ops/registry.hpp"
#include "runtime/engine.hpp"
#include "runtime/tenants.hpp"
#include "runtime/trace.hpp"
#include "sim/des.hpp"
#include "xmlio/topology_xml.hpp"

namespace ss::cli {

namespace {

using harness::Args;
using harness::Table;

constexpr const char* kUsage = R"(spinstreams — static optimization tool for stream processing topologies

usage: spinstreams <command> <topology.xml> [flags]

commands:
  validate <file>                    check the description (all issues listed)
  analyze <file> [--latency]         steady-state analysis (Alg. 1)
  optimize <file> [--max-replicas=N] [--save-xml=OUT]
                                     bottleneck elimination (Alg. 2)
  auto <file> [--max-replicas=N] [--no-fusion] [--out=FILE]
              [--slo-p99=MS] [--objective=throughput|latency|balanced]
                                     fission + every safe fusion, optional codegen;
                                     --slo-p99 constrains the predicted end-to-end
                                     p99 (extra fission, fusion latency gate),
                                     --objective trades throughput vs tail latency
  candidates <file> [--threshold=R]  fusion suggestions ranked by utilization
  fuse <file> --members=a,b,c [--multi] [--name=F]
                                     evaluate a fusion (Alg. 3 / Fig. 2 ext.)
  simulate <file> [--duration=S] [--optimize] [--shedding] [--engine=sim|threads|pool]
                  [--slo-p99=MS] [--objective=NAME]
                                     discrete-event simulation vs the model
                                     (tables print predicted next to measured)
  run <file> [--seconds=S] [--optimize] [--engine=threads|pool] [--workers=K]
             [--batch=N] [--pin=none|cores|sockets]
             [--elastic] [--reconfig-period=S] [--reconfig-threshold=R]
             [--slo-p99=MS] [--objective=NAME] [--items=N]
             [--checkpoint-dir=D] [--checkpoint-period=S] [--recover]
             [--trace=FILE] [--metrics-out=FILE] [--metrics-period=S]
             [--stats-port=N] [--profile=on|off]
                                     execute on the actor runtime (threads =
                                     one thread per actor, pool = K work-
                                     stealing workers; either way an actor
                                     handles up to N msgs per slice); --pin
                                     maps pool workers onto CPUs (cores =
                                     round-robin, sockets = spread across
                                     packages; warns and continues unpinned
                                     where CPU affinity is unavailable);
                                     --elastic runs the online controller that
                                     re-optimizes the live topology from
                                     measured rates without losing tuples
                                     (with --slo-p99 it also re-deploys on
                                     measured SLO breach);
                                     --items bounds every source to N items and
                                     runs to completion (--seconds caps it);
                                     --checkpoint-dir snapshots the quiesced
                                     graph every --checkpoint-period seconds
                                     (epoch checkpointing), --recover restores
                                     the newest valid checkpoint and rewinds
                                     the sources so the resumed run produces
                                     the exact uninterrupted stream;
                                     --trace writes a Chrome trace-event JSON
                                     (open in Perfetto), --metrics-out appends
                                     one JSON metrics snapshot per line every
                                     --metrics-period seconds;
                                     --stats-port serves live stats on
                                     127.0.0.1:N for the duration of the run
                                     (/ or /stats.json = JSON snapshot,
                                     /metrics = Prometheus text);
                                     --profile=off disables the online
                                     sub-saturation profiler (service-rate
                                     estimation + backpressure attribution;
                                     on by default)
  run --app A.xml --app B.xml [--workers=K] [--batch=N] [--seconds=S]
      [--pin=none|cores|sockets]
      [--optimize] [--budget=N] [--weights=1,2,...] [--elastic]
      [--reconfig-period=S] [--reconfig-threshold=R] [--slo-p99=MS]
      [--objective=NAME] [--metrics-out=FILE] [--checkpoint-dir=D]
      [--checkpoint-period=S] [--recover] [--profile=on|off]
                                     multi-tenant: every --app topology runs as
                                     a tenant of one shared worker pool;
                                     --optimize splits the --budget global
                                     replica budget across tenants jointly
                                     (water-filling by weighted marginal gain,
                                     SLO-breached tenants first), --elastic
                                     keeps re-balancing the live tenants from
                                     measured rates, --weights sets the CPU
                                     share per tenant, --metrics-out writes one
                                     JSONL file per tenant (FILE.<tenant>)
  codegen <file> [--max-replicas=N] [--out=FILE] [--run-seconds=S]
                                     generate a C++ program for the deployment
  whatif <file> --set op=ms[,op=ms...] [--replicas=op=n,...]
                                     re-run the analysis under hypothetical
                                     service times / replica counts
  profile <file> [--items=N] [--save-xml=OUT]
                                     measure the real operator implementations
                                     and re-annotate the description (§4.1)
  generate [--seed=S] [--out=FILE]   random testbed topology (Alg. 5) as XML
  help                               this text
)";

Topology load(const Args& args) {
  require(!args.positional().empty(), "expected a topology XML file argument");
  return xml::load_topology_file(args.positional().front());
}

/// "--slo-p99=MS" -> seconds; 0 when absent; rejects non-positive values.
double parse_slo_flag(const Args& args) {
  if (!args.has("slo-p99")) return 0.0;
  const double ms = args.get_double("slo-p99", 0.0);
  require(ms > 0.0, "--slo-p99 must be positive (milliseconds)");
  return ms * 1e-3;
}

/// "--objective=NAME" -> Objective; rejects unknown names.
Objective parse_objective_flag(const Args& args) {
  const std::string name = args.get("objective", "throughput");
  const auto objective = parse_objective(name);
  require(objective.has_value(),
          "--objective must be 'throughput', 'latency' or 'balanced', got '" + name + "'");
  return *objective;
}

/// Resolves "--members=a,b,c" (names or indices) against the topology.
FusionSpec parse_members(const Topology& t, const Args& args) {
  const std::string csv = args.get("members");
  require(!csv.empty(), "fuse: --members=a,b,c is required");
  FusionSpec spec;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    if (auto index = t.find(token)) {
      spec.members.push_back(*index);
    } else {
      try {
        spec.members.push_back(static_cast<OpIndex>(std::stoul(token)));
      } catch (const std::exception&) {
        throw Error("fuse: unknown operator '" + token + "'");
      }
    }
  }
  spec.fused_name = args.get("name", "");
  return spec;
}

int cmd_validate(const Args& args, std::ostream& out) {
  // Load through the DOM (not load_topology) so *all* issues are reported.
  std::ifstream in(args.positional().front());
  require(in.good(), "cannot open '" + args.positional().front() + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const Topology t = xml::load_topology(buffer.str());  // throws on hard errors
  const ValidationReport report = validate_draft(t.operators(), t.edges());
  out << (report.issues.empty() ? "OK: the description satisfies all constraints\n"
                                : report.to_string());
  return report.ok() ? 0 : 1;
}

int cmd_analyze(const Args& args, std::ostream& out) {
  const Topology t = load(args);
  const SteadyStateResult rates = steady_state(t);
  out << format_analysis(t, rates);
  if (args.has("latency")) {
    const LatencyEstimate latency = estimate_latency(t, rates);
    Table table({"operator", "response (ms)", "p99 (ms)", "window delay (ms)",
                 "to sink (ms)"});
    for (OpIndex i = 0; i < t.num_operators(); ++i) {
      table.add_row({t.op(i).name, Table::num(latency.response[i] * 1e3),
                     Table::num(latency.response_percentiles(i).p99 * 1e3),
                     Table::num(latency.window_delay[i] * 1e3),
                     Table::num(latency.to_sink[i] * 1e3)});
    }
    table.print(out);
    out << "estimated end-to-end latency: " << Table::num(latency.end_to_end * 1e3)
        << " ms (tuple sojourn p50 " << Table::num(latency.sojourn.p50 * 1e3) << " / p95 "
        << Table::num(latency.sojourn.p95 * 1e3) << " / p99 "
        << Table::num(latency.sojourn.p99 * 1e3) << " ms)\n";
  }
  return 0;
}

int cmd_optimize(const Args& args, std::ostream& out) {
  const Topology t = load(args);
  BottleneckOptions options;
  if (args.has("max-replicas")) {
    options.max_total_replicas = static_cast<int>(args.get_int("max-replicas", 0));
  }
  const BottleneckResult result = eliminate_bottlenecks(t, options);
  const LatencyEstimate latency = estimate_latency(t, result.analysis, result.plan);
  out << format_analysis(t, result.analysis, result.plan, &latency);
  out << "total replicas: " << result.total_replicas << " (+" << result.additional_replicas
      << "), " << (result.reaches_ideal ? "reaches the ideal throughput" : "still limited by: ");
  for (OpIndex op : result.unresolved) out << "'" << t.op(op).name << "' ";
  out << '\n';
  const std::string save = args.get("save-xml", "");
  if (!save.empty()) {
    xml::save_topology_file(t, save, "optimized");
    out << "description written to " << save << '\n';
  }
  return 0;
}

int cmd_auto(const Args& args, std::ostream& out) {
  const Topology t = load(args);
  AutoOptimizeOptions options;
  if (args.has("max-replicas")) {
    options.bottleneck.max_total_replicas = static_cast<int>(args.get_int("max-replicas", 0));
  }
  options.enable_fusion = !args.has("no-fusion");
  options.slo_p99 = parse_slo_flag(args);
  options.objective = parse_objective_flag(args);
  const AutoOptimizeResult result = auto_optimize(t, options);

  out << format_analysis(t, result.analysis, result.plan, &result.latency);
  out << "replicas added: " << result.additional_replicas
      << (result.reaches_ideal ? " (reaches the ideal throughput)" : " (still limited)")
      << "\n";
  if (result.overshoot_replicas > 0) {
    out << "latency overshoot: " << result.overshoot_replicas
        << " replica(s) beyond ceil(rho) to chase the tail\n";
  }
  if (result.fusions_rejected_by_latency > 0) {
    out << "fusions vetoed by the latency gate: " << result.fusions_rejected_by_latency
        << "\n";
  }
  if (options.slo_p99 > 0.0) {
    out << "slo: p99 " << Table::num(result.predicted_p99 * 1e3) << " ms vs "
        << Table::num(options.slo_p99 * 1e3) << " ms -> "
        << (result.slo_feasible ? "met" : "INFEASIBLE (best effort deployed)") << "\n";
  }
  if (result.fusions.empty()) {
    out << "no safe fusion found\n";
  } else {
    out << "fusions applied (" << result.actors_saved_by_fusion << " actors saved):\n";
    for (const FusionSpec& fusion : result.fusions) {
      out << "  {";
      for (std::size_t i = 0; i < fusion.members.size(); ++i) {
        out << (i ? ", " : "") << t.op(fusion.members[i]).name;
      }
      out << "}\n";
    }
  }
  const std::string path = args.get("out", "");
  if (!path.empty()) {
    CodegenOptions codegen;
    codegen.app_name = args.positional().front();
    std::ofstream file(path);
    require(file.good(), "cannot write '" + path + "'");
    file << generate_runtime_source(t, result.plan, result.fusions, codegen);
    out << "generated program written to " << path << "\n";
  }
  return 0;
}

int cmd_candidates(const Args& args, std::ostream& out) {
  const Topology t = load(args);
  FusionSuggestOptions options;
  options.utilization_threshold = args.get_double("threshold", 0.5);
  const auto candidates = suggest_fusion_candidates(t, steady_state(t), options);
  if (candidates.empty()) {
    out << "no fusion candidates below utilization " << options.utilization_threshold << '\n';
    return 0;
  }
  Table table({"members", "mean rho", "fused service (ms)"});
  for (const FusionCandidate& candidate : candidates) {
    std::string members;
    for (OpIndex m : candidate.spec.members) {
      if (!members.empty()) members += ',';
      members += t.op(m).name;
    }
    table.add_row({members, Table::num(candidate.mean_utilization),
                   Table::num(candidate.service_time * 1e3)});
  }
  table.print(out);
  return 0;
}

int cmd_fuse(const Args& args, std::ostream& out) {
  const Topology t = load(args);
  const FusionSpec spec = parse_members(t, args);
  const FusionResult result =
      args.has("multi") ? apply_fusion_multi(t, spec) : apply_fusion(t, spec);
  out << "fused service time: " << Table::num(result.service_time * 1e3) << " ms\n"
      << "throughput: " << Table::num(result.throughput_before, 1) << " -> "
      << Table::num(result.throughput_after, 1) << " tuples/s\n";
  if (result.introduces_bottleneck) {
    out << "ALERT: this fusion introduces a bottleneck (performance impaired)\n";
  } else {
    out << "the fusion is feasible (no new bottleneck)\n";
  }
  out << format_analysis(result.topology, result.analysis);
  return result.introduces_bottleneck ? 1 : 0;
}

/// The one execution path behind `run` and `simulate`: same topology
/// loading and --optimize deployment, then a backend switch.  `run`
/// defaults to the real runtime (threads), `simulate` to the DES; either
/// can be redirected with --engine=sim|threads|pool.
int cmd_execute(const Args& args, std::ostream& out, harness::ExecutionBackend backend) {
  const Topology t = load(args);
  const double slo_p99 = parse_slo_flag(args);
  const Objective objective = parse_objective_flag(args);
  runtime::Deployment deployment;
  if (args.has("optimize")) {
    if (slo_p99 > 0.0 || args.has("objective")) {
      // Latency-aware pipeline: the SLO/objective shapes the plan (fission
      // overshoot, fusion latency gate) instead of pure ceil(rho).
      AutoOptimizeOptions options;
      options.enable_fusion = false;  // run/simulate deploy plain replication
      options.slo_p99 = slo_p99;
      options.objective = objective;
      const AutoOptimizeResult result = auto_optimize(t, options);
      deployment.replication = result.plan;
      deployment.partitions = result.partitions;
      if (slo_p99 > 0.0 && !result.slo_feasible) {
        out << "warning: predicted p99 " << Table::num(result.predicted_p99 * 1e3)
            << " ms misses the " << Table::num(slo_p99 * 1e3)
            << " ms SLO (best effort deployed)\n";
      }
    } else {
      const BottleneckResult result = eliminate_bottlenecks(t);
      deployment.replication = result.plan;
      deployment.partitions = result.partitions;
    }
  }
  if (args.has("engine")) backend = harness::engine_from_string(args.get("engine"));

  if (backend == harness::ExecutionBackend::kSim) {
    require(!args.has("elastic"),
            "--elastic needs a live runtime: use --engine=threads or --engine=pool");
    require(!args.has("trace") && !args.has("metrics-out"),
            "--trace/--metrics-out need a live runtime: use --engine=threads or "
            "--engine=pool");
    require(!args.has("checkpoint-dir") && !args.has("checkpoint-period") &&
                !args.has("recover") && !args.has("items"),
            "--checkpoint-dir/--checkpoint-period/--recover/--items need a live "
            "runtime: use --engine=threads or --engine=pool");
    require(!args.has("pin"),
            "--pin configures the live runtime: use --engine=threads or --engine=pool");
    require(!args.has("stats-port") && !args.has("profile"),
            "--stats-port/--profile need a live runtime: use --engine=threads or "
            "--engine=pool");
    sim::SimOptions options;
    options.duration = args.get_double("duration", 120.0);
    require(options.duration > 0.0, "--duration must be positive (seconds)");
    options.shedding = args.has("shedding");
    options.replication = deployment.replication;
    options.partitions = deployment.partitions;
    const sim::SimResult result = sim::simulate(t, options);
    const SteadyStateResult rates = steady_state(t, deployment.replication);
    const double predicted = rates.throughput();
    const LatencyEstimate est =
        estimate_latency(t, rates, deployment.replication, options.buffer_capacity);

    Table table({"operator", "arrival/s", "departure/s", "busy", "blocked", "q_hi",
                 "sojourn (ms)", "pred (ms)", "p50 ms", "p95 ms", "p99 ms", "pred p99",
                 "shed"});
    for (OpIndex i = 0; i < t.num_operators(); ++i) {
      const auto& lat = result.ops[i].latency;
      table.add_row({t.op(i).name, Table::num(result.ops[i].arrival_rate, 1),
                     Table::num(result.ops[i].departure_rate, 1),
                     Table::percent(result.ops[i].busy_fraction, 0),
                     Table::percent(result.ops[i].blocked_fraction, 0),
                     std::to_string(result.ops[i].queue_peak),
                     Table::num(result.ops[i].mean_sojourn * 1e3),
                     Table::num(est.response[i] * 1e3),
                     lat.count > 0 ? Table::num(lat.p50 * 1e3) : "-",
                     lat.count > 0 ? Table::num(lat.p95 * 1e3) : "-",
                     lat.count > 0 ? Table::num(lat.p99 * 1e3) : "-",
                     Table::num(est.response_percentiles(i).p99 * 1e3),
                     std::to_string(result.ops[i].shed)});
    }
    table.print(out);
    out << "simulated throughput: " << Table::num(result.throughput, 1)
        << " tuples/s, model predicts " << Table::num(predicted, 1) << " (error "
        << Table::percent(harness::relative_error(predicted, result.throughput)) << ")\n";
    if (result.end_to_end.count > 0) {
      out << "simulated end-to-end latency: p50 " << Table::num(result.end_to_end.p50 * 1e3)
          << " ms / p95 " << Table::num(result.end_to_end.p95 * 1e3) << " ms / p99 "
          << Table::num(result.end_to_end.p99 * 1e3) << " ms ("
          << result.end_to_end.count << " samples, virtual time)\n";
    }
    out << "predicted end-to-end latency: p50 " << Table::num(est.sojourn.p50 * 1e3)
        << " ms / p95 " << Table::num(est.sojourn.p95 * 1e3) << " ms / p99 "
        << Table::num(est.sojourn.p99 * 1e3) << " ms (mean "
        << Table::num(est.sojourn_mean * 1e3) << " ms)\n";
    if (slo_p99 > 0.0 && result.end_to_end.count > 0) {
      out << "slo: measured p99 " << Table::num(result.end_to_end.p99 * 1e3) << " ms vs "
          << Table::num(slo_p99 * 1e3) << " ms -> "
          << (result.end_to_end.p99 <= slo_p99 ? "met" : "MISSED") << "\n";
    }
    return 0;
  }

  runtime::EngineConfig config;
  require(!args.has("workers") || args.get_int("workers", 0) > 0,
          "--workers must be a positive integer");
  require(!args.has("batch") || args.get_int("batch", 0) > 0,
          "--batch must be a positive integer");
  config.pool_batch = static_cast<int>(args.get_int("batch", 0));
  if (backend == harness::ExecutionBackend::kPool) {
    config.scheduler = runtime::SchedulerKind::kPooled;
    config.workers = static_cast<int>(args.get_int("workers", 0));
  }
  if (args.has("pin")) {
    // Pinning maps *pool workers* onto CPUs; the thread-per-actor engine
    // has no worker set to map (one thread per actor, placement is the
    // OS's call).  pin_mode_from_string rejects unknown values, and a
    // kernel without sched_setaffinity degrades to a one-time warning at
    // run time rather than an error here.
    require(backend == harness::ExecutionBackend::kPool,
            "--pin maps pool workers onto CPUs: use --engine=pool");
    config.pin = runtime::pin_mode_from_string(args.get("pin"));
  }
  config.elastic = args.has("elastic");
  config.slo_p99 = slo_p99;
  config.objective = objective;
  config.reconfig_period = args.get_double("reconfig-period", config.reconfig_period);
  require(config.reconfig_period > 0.0, "--reconfig-period must be positive (seconds)");
  config.reconfig_threshold =
      args.get_double("reconfig-threshold", config.reconfig_threshold);
  require(config.reconfig_threshold >= 0.0, "--reconfig-threshold must be >= 0");
  const double seconds = args.get_double("seconds", 5.0);
  require(seconds > 0.0, "--seconds must be positive");
  config.metrics_path = args.get("metrics-out", "");
  config.metrics_period = args.get_double("metrics-period", config.metrics_period);
  require(config.metrics_period > 0.0, "--metrics-period must be positive (seconds)");
  // Live stats endpoint + online profiler toggle.  The port range check
  // repeats in the StatsServer constructor (which also fails early when the
  // port is taken); rejecting malformed values here keeps the error message
  // a flag error, not a socket error.
  config.stats_port = static_cast<int>(args.get_int("stats-port", 0));
  require(!args.has("stats-port") || (config.stats_port > 0 && config.stats_port <= 65535),
          "--stats-port must be a port number (1-65535)");
  if (args.has("profile")) {
    const std::string mode = args.get("profile");
    require(mode == "on" || mode == "off",
            "--profile must be 'on' or 'off', got '" + mode + "'");
    config.profile = mode == "on";
  }
  const std::string trace_path = args.get("trace", "");
  if (!trace_path.empty()) {
    // Probe writability now: fail with a usable error before the run, not
    // after `seconds` of execution when the trace flushes.
    std::ofstream probe(trace_path, std::ios::trunc);
    require(probe.good(), "cannot write trace file: " + trace_path);
  }
  // --items=N bounds every source and runs to completion: the deterministic
  // finite mode the recovery tests compare byte-for-byte.
  const auto items = static_cast<std::int64_t>(args.get_int("items", -1));
  require(!args.has("items") || items > 0, "--items must be a positive integer");
  // Epoch checkpointing flags (runtime/checkpoint.hpp).
  config.checkpoint_dir = args.get("checkpoint-dir", "");
  require(!args.has("checkpoint-period") || !config.checkpoint_dir.empty(),
          "--checkpoint-period requires --checkpoint-dir");
  config.checkpoint_period =
      args.get_double("checkpoint-period", config.checkpoint_period);
  require(config.checkpoint_period > 0.0,
          "--checkpoint-period must be positive (seconds)");
  require(!args.has("recover") || !config.checkpoint_dir.empty(),
          "--recover requires --checkpoint-dir");
  if (args.has("recover")) {
    // The manager validates the directory and scans for the newest valid
    // checkpoint, skipping torn/corrupt files.  An empty (or all-corrupt)
    // directory is a fresh start, not an error: a crash before the first
    // snapshot must still be restartable with the same command line.
    runtime::CheckpointManager manager(config.checkpoint_dir);
    auto cp = std::make_shared<runtime::Checkpoint>();
    if (manager.load_latest(*cp)) {
      out << "recover: restoring checkpoint " << cp->sequence << " (epoch " << cp->epoch
          << ") from " << config.checkpoint_dir << "\n";
      config.recover_from = std::move(cp);
    } else {
      out << "recover: no valid checkpoint in " << config.checkpoint_dir
          << ", starting fresh\n";
    }
  }
  // The engine validates --metrics-out the same way (the exporter opens
  // the file before any actor thread starts).
  runtime::Engine engine(t, deployment, ops::make_logic_factory(t, items), config);
  const bool tracing =
      !trace_path.empty() && runtime::trace::Tracer::instance().start();
  runtime::RunStats stats;
  try {
    if (items > 0) {
      // Finite run: --seconds caps the wait for natural completion.
      const double cap = args.has("seconds") ? seconds : 300.0;
      stats = engine.run_until_complete(std::chrono::duration<double>(cap));
    } else {
      stats = engine.run_for(std::chrono::duration<double>(seconds));
    }
  } catch (...) {
    // Disarm so a failed run never leaves the process-global tracer armed.
    if (tracing) {
      try {
        runtime::trace::Tracer::instance().stop_and_flush(trace_path);
      } catch (...) {
      }
    }
    throw;
  }
  out << runtime::format_stats(t, stats);
  if (slo_p99 > 0.0 && stats.end_to_end.count > 0) {
    out << "slo: measured p99 " << Table::num(stats.end_to_end.p99 * 1e3) << " ms vs "
        << Table::num(slo_p99 * 1e3) << " ms -> "
        << (stats.end_to_end.p99 <= slo_p99 ? "met" : "MISSED") << "\n";
  }
  if (tracing) {
    const std::size_t events = runtime::trace::Tracer::instance().stop_and_flush(trace_path);
    out << "trace: " << events << " events written to " << trace_path;
    if (runtime::trace::Tracer::instance().dropped() > 0) {
      out << " (" << runtime::trace::Tracer::instance().dropped()
          << " dropped to ring wrap-around)";
    }
    out << '\n';
  }
  if (!config.metrics_path.empty()) {
    out << "metrics: JSONL snapshots written to " << config.metrics_path << '\n';
  }
  if (config.stats_port > 0) {
    out << "stats: served http://127.0.0.1:" << config.stats_port
        << "/ (JSON) and /metrics (Prometheus) during the run\n";
  }
  if (engine.controller() != nullptr) {
    out << "controller decisions:\n";
    for (const auto& d : engine.controller()->decisions()) {
      out << "  t=" << Table::num(d.at_seconds) << "s measured "
          << Table::num(d.measured_throughput, 1) << " tuples/s: " << d.reason;
      if (d.ops_estimated > 0) {
        out << " [" << d.ops_estimated << " op(s) from profiler estimates]";
      }
      out << '\n';
    }
  }
  return 0;
}

int cmd_simulate(const Args& args, std::ostream& out) {
  return cmd_execute(args, out, harness::ExecutionBackend::kSim);
}

/// `run --app a.xml --app b.xml`: every topology becomes a tenant of one
/// shared SchedulerHost; --optimize splits the global --budget jointly and
/// --elastic keeps re-balancing the live tenants from measured rates.
int cmd_run_multi(const Args& args, std::ostream& out) {
  const std::vector<std::string> paths = args.get_all("app");
  const double slo_p99 = parse_slo_flag(args);
  const Objective objective = parse_objective_flag(args);
  const double seconds = args.get_double("seconds", 5.0);
  require(seconds > 0.0, "--seconds must be positive");
  require(!args.has("workers") || args.get_int("workers", 0) > 0,
          "--workers must be a positive integer");
  require(!args.has("batch") || args.get_int("batch", 0) > 0,
          "--batch must be a positive integer");
  require(!args.has("budget") || args.get_int("budget", 0) > 0,
          "--budget must be a positive integer (global replica budget)");
  const int budget = static_cast<int>(args.get_int("budget", 0));
  // One port cannot serve N engines; metrics JSONL is the multi-tenant
  // observability path (one file per tenant).
  require(!args.has("stats-port"),
          "--stats-port serves a single engine: run one app per process to "
          "expose live stats");
  bool profile_on = true;
  if (args.has("profile")) {
    const std::string mode = args.get("profile");
    require(mode == "on" || mode == "off",
            "--profile must be 'on' or 'off', got '" + mode + "'");
    profile_on = mode == "on";
  }

  std::vector<double> weights(paths.size(), 1.0);
  if (args.has("weights")) {
    std::istringstream in(args.get("weights"));
    std::string token;
    std::size_t i = 0;
    while (std::getline(in, token, ',')) {
      require(i < paths.size(), "--weights: more weights than --app topologies");
      weights[i] = std::stod(token);
      require(weights[i] > 0.0, "--weights: weights must be positive");
      ++i;
    }
    require(i == paths.size(), "--weights: expected one weight per --app topology");
  }

  // Load every tenant; names derive from the file stem (de-duplicated by
  // index) and tag that tenant's stats, metrics lines and trace events.
  std::vector<Topology> topologies;
  std::vector<std::string> names;
  topologies.reserve(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    topologies.push_back(xml::load_topology_file(paths[i]));
    std::string stem = paths[i];
    if (const auto slash = stem.find_last_of('/'); slash != std::string::npos) {
      stem.erase(0, slash + 1);
    }
    if (const auto dot = stem.rfind('.'); dot != std::string::npos) stem.erase(dot);
    for (const std::string& taken : names) {
      if (taken == stem) {
        stem += "-" + std::to_string(i);
        break;
      }
    }
    names.push_back(std::move(stem));
  }

  std::vector<AutoOptimizeOptions> optimize(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    optimize[i].enable_fusion = false;  // run deploys plain replication
    optimize[i].slo_p99 = slo_p99;
    optimize[i].objective = objective;
  }

  std::vector<runtime::Deployment> deployments(paths.size());
  if (args.has("optimize")) {
    std::vector<TenantWorkload> workloads(paths.size());
    for (std::size_t i = 0; i < paths.size(); ++i) {
      workloads[i].topology = topologies[i];
      workloads[i].options = optimize[i];
      workloads[i].weight = weights[i];
      workloads[i].name = names[i];
    }
    JointOptions joint_options;
    joint_options.replica_budget = budget;
    const JointResult joint = optimize_joint(workloads, joint_options);
    Table table({"tenant", "weight", "desired", "granted", "pred tuples/s", "pred p99 ms"});
    for (std::size_t i = 0; i < paths.size(); ++i) {
      deployments[i] = joint.tenants[i].deployment;
      table.add_row({names[i], Table::num(weights[i], 1),
                     std::to_string(joint.tenants[i].desired_replicas),
                     std::to_string(joint.tenants[i].granted_replicas),
                     Table::num(joint.tenants[i].predicted_throughput, 1),
                     Table::num(joint.tenants[i].predicted_p99 * 1e3)});
    }
    out << "joint allocation (" << joint.total_granted << "/" << joint.total_desired
        << " replicas granted" << (joint.budget_binding ? ", budget binding" : "")
        << "):\n";
    table.print(out);
  }

  const std::string metrics_path = args.get("metrics-out", "");
  // Epoch checkpointing: one subdirectory per tenant under --checkpoint-dir
  // so tenants sharing one host never clobber each other's snapshots.
  const std::string checkpoint_dir = args.get("checkpoint-dir", "");
  require(!args.has("checkpoint-period") || !checkpoint_dir.empty(),
          "--checkpoint-period requires --checkpoint-dir");
  const double checkpoint_period = args.get_double("checkpoint-period", 1.0);
  require(checkpoint_period > 0.0, "--checkpoint-period must be positive (seconds)");
  require(!args.has("recover") || !checkpoint_dir.empty(),
          "--recover requires --checkpoint-dir");
  runtime::PinMode pin = runtime::PinMode::kNone;
  if (args.has("pin")) pin = runtime::pin_mode_from_string(args.get("pin"));
  runtime::TenantGroup group(static_cast<int>(args.get_int("workers", 0)),
                             static_cast<int>(args.get_int("batch", 0)), pin);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    runtime::TenantSpec spec;
    spec.name = names[i];
    spec.topology = topologies[i];
    spec.deployment = deployments[i];
    spec.factory = ops::make_logic_factory(topologies[i]);
    spec.weight = weights[i];
    spec.optimize = optimize[i];
    spec.config.profile = profile_on;
    spec.max_duration = std::chrono::duration<double>(seconds);
    if (!metrics_path.empty()) {
      spec.config.metrics_path = metrics_path + "." + names[i];
      spec.config.metrics_period =
          args.get_double("metrics-period", spec.config.metrics_period);
      require(spec.config.metrics_period > 0.0,
              "--metrics-period must be positive (seconds)");
    }
    if (!checkpoint_dir.empty()) {
      spec.config.checkpoint_dir = checkpoint_dir + "/" + names[i];
      spec.config.checkpoint_period = checkpoint_period;
      if (args.has("recover")) {
        runtime::CheckpointManager manager(spec.config.checkpoint_dir);
        auto cp = std::make_shared<runtime::Checkpoint>();
        if (manager.load_latest(*cp)) {
          out << "recover: tenant " << names[i] << " restoring checkpoint "
              << cp->sequence << " (epoch " << cp->epoch << ")\n";
          spec.config.recover_from = std::move(cp);
        } else {
          out << "recover: tenant " << names[i] << " has no valid checkpoint, "
              << "starting fresh\n";
        }
      }
    }
    group.submit(std::move(spec));
  }
  if (args.has("elastic")) {
    runtime::JointControllerOptions controller;
    controller.period = args.get_double("reconfig-period", controller.period);
    require(controller.period > 0.0, "--reconfig-period must be positive (seconds)");
    controller.threshold = args.get_double("reconfig-threshold", controller.threshold);
    require(controller.threshold >= 0.0, "--reconfig-threshold must be >= 0");
    controller.replica_budget = budget;
    group.start_controller(controller);
  }
  const std::vector<runtime::RunStats> stats = group.wait_all();

  for (std::size_t i = 0; i < paths.size(); ++i) {
    out << "== tenant " << names[i] << " ==\n"
        << runtime::format_stats(topologies[i], stats[i]);
    if (slo_p99 > 0.0 && stats[i].end_to_end.count > 0) {
      out << "slo: measured p99 " << Table::num(stats[i].end_to_end.p99 * 1e3)
          << " ms vs " << Table::num(slo_p99 * 1e3) << " ms -> "
          << (stats[i].end_to_end.p99 <= slo_p99 ? "met" : "MISSED") << "\n";
    }
  }
  if (!metrics_path.empty()) {
    out << "metrics: one JSONL file per tenant at " << metrics_path << ".<tenant>\n";
  }
  if (group.controller() != nullptr) {
    out << "joint controller decisions:\n";
    for (const auto& d : group.controller()->decisions()) {
      out << "  t=" << Table::num(d.at_seconds) << "s: " << d.reason << '\n';
    }
  }
  return 0;
}

int cmd_run(const Args& args, std::ostream& out) {
  if (args.has("app")) return cmd_run_multi(args, out);
  return cmd_execute(args, out, harness::ExecutionBackend::kThreads);
}

int cmd_codegen(const Args& args, std::ostream& out) {
  const Topology t = load(args);
  BottleneckOptions options;
  if (args.has("max-replicas")) {
    options.max_total_replicas = static_cast<int>(args.get_int("max-replicas", 0));
  }
  const BottleneckResult result = eliminate_bottlenecks(t, options);
  CodegenOptions codegen;
  codegen.app_name = args.positional().front();
  codegen.run_seconds = args.get_double("run-seconds", 10.0);
  const std::string source = generate_runtime_source(t, result.plan, {}, codegen);
  const std::string path = args.get("out", "");
  if (path.empty()) {
    out << source;
  } else {
    std::ofstream file(path);
    require(file.good(), "cannot write '" + path + "'");
    file << source;
    out << "generated program written to " << path << '\n';
  }
  return 0;
}

/// Parses "name=value,name=value" pairs against operator names.
std::vector<std::pair<OpIndex, double>> parse_assignments(const Topology& t,
                                                          const std::string& csv,
                                                          const char* flag) {
  std::vector<std::pair<OpIndex, double>> result;
  std::istringstream in(csv);
  std::string token;
  while (std::getline(in, token, ',')) {
    const auto eq = token.find('=');
    require(eq != std::string::npos,
            std::string(flag) + ": expected name=value, got '" + token + "'");
    const std::string name = token.substr(0, eq);
    const auto index = t.find(name);
    require(index.has_value(), std::string(flag) + ": unknown operator '" + name + "'");
    result.emplace_back(*index, std::stod(token.substr(eq + 1)));
  }
  return result;
}

int cmd_whatif(const Args& args, std::ostream& out) {
  const Topology original = load(args);
  const SteadyStateResult before = steady_state(original);

  // Hypothetical service times (milliseconds).
  Topology::Builder builder;
  std::vector<double> new_times(original.num_operators(), -1.0);
  for (const auto& [op, ms] : parse_assignments(original, args.get("set", ""), "--set")) {
    require(ms > 0.0, "--set: service times must be positive");
    new_times[op] = ms * 1e-3;
  }
  for (OpIndex i = 0; i < original.num_operators(); ++i) {
    OperatorSpec spec = original.op(i);
    if (new_times[i] > 0.0) spec.service_time = new_times[i];
    builder.add_operator(std::move(spec));
  }
  for (const Edge& e : original.edges()) builder.add_edge(e.from, e.to, e.probability);
  const Topology changed = builder.build();

  // Hypothetical replica counts.
  ReplicationPlan plan;
  plan.replicas.assign(changed.num_operators(), 1);
  for (const auto& [op, n] :
       parse_assignments(original, args.get("replicas", ""), "--replicas")) {
    require(n >= 1.0, "--replicas: counts must be >= 1");
    plan.replicas[op] = static_cast<int>(n);
  }

  const SteadyStateResult after = steady_state(changed, plan);
  out << "-- current --\n" << format_analysis(original, before) << "\n-- what-if --\n"
      << format_analysis(changed, after, plan);
  const double delta = after.throughput() - before.throughput();
  out << "throughput change: " << (delta >= 0 ? "+" : "") << Table::num(delta, 1)
      << " tuples/s (" << Table::num(100.0 * delta / before.throughput(), 1) << "%)\n";
  return 0;
}

int cmd_profile(const Args& args, std::ostream& out) {
  const Topology declared = load(args);
  const int items = static_cast<int>(args.get_int("items", 2000));
  const ProfileData profile = harness::profile_topology(declared, items);
  require(!profile.operators.empty(),
          "profile: no operator names a known implementation (impl=...)");
  const Topology annotated = annotate_with_profile(declared, profile);

  Table table({"operator", "declared (us)", "measured (us)", "measured out/in"});
  for (OpIndex i = 0; i < declared.num_operators(); ++i) {
    auto it = profile.operators.find(declared.op(i).name);
    if (it == profile.operators.end()) continue;
    table.add_row({declared.op(i).name, Table::num(declared.op(i).service_time * 1e6, 1),
                   Table::num(it->second.service_time * 1e6, 3),
                   Table::num(it->second.selectivity.output / it->second.selectivity.input,
                              3)});
  }
  table.print(out);
  out << "re-annotated analysis:\n" << format_analysis(annotated, steady_state(annotated));
  const std::string save = args.get("save-xml", "");
  if (!save.empty()) {
    xml::save_topology_file(annotated, save, "profiled");
    out << "annotated description written to " << save << '\n';
  }
  return 0;
}

int cmd_generate(const Args& args, std::ostream& out) {
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  const Topology t = random_topology(rng);
  const std::string xml_text = xml::save_topology(t, "generated");
  const std::string path = args.get("out", "");
  if (path.empty()) {
    out << xml_text;
  } else {
    std::ofstream file(path);
    require(file.good(), "cannot write '" + path + "'");
    file << xml_text;
    out << "topology with " << t.num_operators() << " operators written to " << path << '\n';
  }
  return 0;
}

}  // namespace

const char* usage() { return kUsage; }

int run_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    err << kUsage;
    return 2;
  }
  const std::string command = argv[1];
  const Args args(argc - 1, argv + 1);
  try {
    if (command == "help" || command == "--help") {
      out << kUsage;
      return 0;
    }
    if (command == "validate") return cmd_validate(args, out);
    if (command == "analyze") return cmd_analyze(args, out);
    if (command == "optimize") return cmd_optimize(args, out);
    if (command == "auto") return cmd_auto(args, out);
    if (command == "candidates") return cmd_candidates(args, out);
    if (command == "fuse") return cmd_fuse(args, out);
    if (command == "simulate") return cmd_simulate(args, out);
    if (command == "run") return cmd_run(args, out);
    if (command == "codegen") return cmd_codegen(args, out);
    if (command == "profile") return cmd_profile(args, out);
    if (command == "whatif") return cmd_whatif(args, out);
    if (command == "generate") return cmd_generate(args, out);
    err << "unknown command '" << command << "'\n\n" << kUsage;
    return 2;
  } catch (const Error& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace ss::cli
