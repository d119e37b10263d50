#include "segment.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <thread>

#include "core/key_partitioning.hpp"
#include "gen/zipf.hpp"
#include "ops/keyed.hpp"
#include "ops/stateless.hpp"
#include "runtime/synthetic.hpp"

namespace spinbench {

namespace {

/// Upper bound on one engine run; a run that takes longer is a hang.
constexpr double kMaxRunSeconds = 60.0;
/// One tuple in this many gets a span in traced runs.
constexpr std::size_t kTupleSpanEvery = 1024;

bool is_sink(const ss::Topology& t, ss::OpIndex op) {
  const auto& sinks = t.sinks();
  return std::find(sinks.begin(), sinks.end(), op) != sinks.end();
}

}  // namespace

Outcome run_segment(const Segment& segment, Feed& feed, bool traced, const RunOptions& options,
                    int index, Samples& samples) {
  Outcome out;
  out.traced = traced;
  Tracer* tracer = traced ? options.tracer : nullptr;
  const std::int64_t setup_id = tracer != nullptr ? tracer->reserve_id() : 0;
  const std::int64_t setup_begin = now_ns();

  Deploy d = [&] {
    Span span(tracer, "core.build_deployment", setup_id);
    return segment.build();
  }();
  rt::EngineConfig config = segment.config;
  if (traced) {
    config.metrics_path = options.work_dir + "/metrics-" + std::to_string(index) + ".jsonl";
  }
  rt::AppFactory factory;
  factory.source = [&feed](ss::OpIndex, const ss::OperatorSpec&) {
    return std::make_unique<FeedSource>(feed);
  };
  factory.logic = [&](ss::OpIndex op,
                      const ss::OperatorSpec& spec) -> std::unique_ptr<rt::OperatorLogic> {
    auto logic = segment.logic(op, spec);
    if (is_sink(d.topology, op)) return std::make_unique<ExitProbe>(feed, std::move(logic));
    return logic;
  };

  Span ctor(tracer, "engine.ctor", setup_id);
  auto engine = std::make_unique<rt::Engine>(d.topology, d.deployment, factory, config);
  out.construct_s = ctor.end();
  const std::int64_t ctor_end = now_ns();

  const double cpu_begin = cpu_seconds();
  const std::int64_t run_call = now_ns();
  feed.t0_ns = run_call;
  Span run(tracer, "engine.run");
  std::atomic<bool> done{false};
  std::thread control;
  if (segment.control) {
    control = std::thread([&] { segment.control(*engine, tracer, run.id(), done); });
  }
  try {
    out.stats = engine->run_until_complete(std::chrono::duration<double>(kMaxRunSeconds));
  } catch (...) {
    done = true;
    if (control.joinable()) control.join();
    throw;
  }
  done = true;
  if (control.joinable()) control.join();
  const std::int64_t run_end = now_ns();
  run.end();
  out.cpu_s = cpu_seconds() - cpu_begin;
  out.predicted = engine->predicted_latency();
  engine.reset();

  out.accounting = account(feed, out.stats.dropped, segment.expected);
  if (feed.cursor.load() < feed.items) {
    throw std::runtime_error("engine run ended before the source drained (" +
                             std::to_string(feed.cursor.load()) + " of " +
                             std::to_string(feed.items) + " emitted)");
  }

  const bool open_loop = !feed.due_ns.empty();
  const auto n = static_cast<std::size_t>(feed.items);
  std::int64_t first_exit = std::numeric_limits<std::int64_t>::max();
  std::int64_t last_exit = run_call;
  std::int64_t last_emit = run_call;
  for (std::size_t i = 0; i < n; ++i) {
    last_emit = std::max(last_emit, feed.start_ns[i] + (open_loop ? feed.lag_ns[i] : 0));
    if (feed.exits[i] == 0) continue;
    first_exit = std::min(first_exit, feed.exit_ns[i]);
    last_exit = std::max(last_exit, feed.exit_ns[i]);
  }
  if (first_exit == std::numeric_limits<std::int64_t>::max()) first_exit = run_end;
  // The open-loop generator deliberately idles until the first tuple is
  // due; that wait is load shape, not set-up work.
  const std::int64_t idle =
      open_loop && n > 0 ? std::max<std::int64_t>(0, feed.t0_ns + feed.due_ns[0] - run_call) : 0;
  out.first_exit_s = ns_to_s(first_exit - run_call);
  out.setup_s = ns_to_s(ctor_end - setup_begin) + ns_to_s(first_exit - run_call - idle);
  out.drain_s = ns_to_s(run_end - last_emit);

  // Post-warm-up window.
  const auto warmup_ns = static_cast<std::int64_t>(segment.warmup_s * 1e9);
  std::int64_t window_begin = 0;  // absolute ns
  if (open_loop) {
    window_begin = feed.t0_ns + warmup_ns;
  } else if (n > 0) {
    window_begin = feed.start_ns[n / 10];
  }
  std::size_t window_items = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool in_window = open_loop ? feed.due_ns[i] >= warmup_ns : i >= n / 10;
    if (!in_window || feed.exits[i] == 0) continue;
    ++window_items;
    samples.latency.add(ns_to_ms(feed.exit_ns[i] - feed.start_ns[i]));
    if (open_loop) {
      const double lag = ns_to_ms(feed.lag_ns[i]);
      samples.lag.add(lag);
      if (lag > kLateMs) ++samples.late;
    }
  }
  if (last_exit > window_begin) {
    out.throughput = static_cast<double>(window_items) / ns_to_s(last_exit - window_begin);
  }

  if (tracer != nullptr) {
    tracer->add("setup", setup_id, 0, setup_begin, std::max(first_exit, ctor_end),
                Tracer::kBench);
    for (std::size_t i = 0; i < n; i += kTupleSpanEvery) {
      if (feed.exits[i] == 0) continue;
      tracer->add("tuple", tracer->reserve_id(), run.id(), feed.start_ns[i], feed.exit_ns[i],
                  Tracer::kTuples, static_cast<std::int64_t>(i));
    }
  }
  return out;
}

Metrics engine_readings(const std::vector<const Outcome*>& outcomes) {
  Metrics d;
  const auto n = static_cast<std::int64_t>(outcomes.size());
  auto median_of = [&](auto field) {
    std::vector<double> v;
    for (const Outcome* o : outcomes) v.push_back(field(*o));
    return median(std::move(v));
  };
  d["runtime.engine.construct_ms"] =
      metric(median_of([](const Outcome& o) { return o.construct_s * 1e3; }), "ms", n);
  d["runtime.engine.first_exit_ms"] =
      metric(median_of([](const Outcome& o) { return o.first_exit_s * 1e3; }), "ms", n);
  d["runtime.engine.drain_ms"] =
      metric(median_of([](const Outcome& o) { return o.drain_s * 1e3; }), "ms", n);
  d["runtime.engine.e2e_p99_ms"] =
      metric(median_of([](const Outcome& o) { return o.stats.end_to_end.p99 * 1e3; }), "ms", n);

  rt::SchedulerCounters c;
  double tuples = 0.0;
  for (const Outcome* o : outcomes) {
    c += o->stats.scheduler;
    tuples += static_cast<double>(o->accounting.generated);
  }
  // The pool's counters; all zero under thread-per-actor, which has no
  // scheduler layer to report.
  if (c.batches > 0) {
    const double ktuples = std::max(1.0, tuples / 1e3);
    const auto claims = static_cast<double>(c.local_pops + c.steals);
    d["runtime.scheduler.mean_batch"] =
        metric(static_cast<double>(c.batch_messages) / static_cast<double>(c.batches), "msgs");
    d["runtime.scheduler.steal_ratio"] =
        metric(claims > 0 ? static_cast<double>(c.steals) / claims : 0.0, "ratio");
    d["runtime.scheduler.parks_per_ktuple"] =
        metric(static_cast<double>(c.parks) / ktuples, "count");
    d["runtime.scheduler.wakeups_per_ktuple"] =
        metric(static_cast<double>(c.wakeups) / ktuples, "count");
  }
  if (c.ring_enqueues > 0) {
    d["runtime.mailbox.ring_spill_ratio"] = metric(
        static_cast<double>(c.ring_spills) / static_cast<double>(c.ring_enqueues), "ratio");
  }

  // Busy/blocked telemetry exists only where metering ran (traced segments).
  double busy = -1.0;
  double blocked = -1.0;
  double peak = 0.0;
  for (const Outcome* o : outcomes) {
    for (const rt::OperatorStats& op : o->stats.ops) {
      busy = std::max(busy, op.busy_fraction);
      blocked = std::max(blocked, op.blocked_fraction);
      peak = std::max(peak, static_cast<double>(op.queue_peak));
    }
  }
  if (busy >= 0.0) {
    d["runtime.engine.max_busy_frac"] = metric(busy, "ratio");
    d["runtime.engine.max_blocked_frac"] = metric(blocked, "ratio");
  }
  d["runtime.engine.max_queue_peak"] = metric(peak, "count");
  return d;
}

// ---------------------------------------------------------------- shapes

LogicFactory synthetic_logic(std::uint64_t seed, double time_scale) {
  return [seed, time_scale](ss::OpIndex op, const ss::OperatorSpec& spec) {
    return std::make_unique<rt::SyntheticOperator>(spec, seed * 0x9e3779b97f4a7c15ULL + op,
                                                   time_scale);
  };
}

Segment chain_segment(std::uint64_t seed) {
  Segment s;
  s.build = [] {
    ss::Topology::Builder b;
    b.add_operator("src", 1e-6);
    for (ss::OpIndex i = 1; i <= 3; ++i) {
      b.add_operator("op" + std::to_string(i), 1e-6);
      b.add_edge(i - 1, i);
    }
    return Deploy{b.build(), {}};
  };
  s.config.scheduler = rt::SchedulerKind::kThreadPerActor;
  s.config.seed = seed;
  s.logic = synthetic_logic(seed, 0.0);
  return s;
}

Segment fanin_segment(std::uint64_t seed, int workers) {
  Segment s;
  s.build = [] {
    ss::Topology::Builder b;
    const ss::OpIndex src = b.add_operator("src", 1e-6);
    const ss::OpIndex split = b.add_operator("split", 1e-6);
    const ss::OpIndex merge = b.add_operator("merge", 1e-6);
    const ss::OpIndex sink = b.add_operator("sink", 1e-6);
    b.add_edge(src, split);
    for (int i = 0; i < 4; ++i) {
      const ss::OpIndex branch = b.add_operator("branch" + std::to_string(i), 1e-6);
      b.add_edge(split, branch, 0.25);
      b.add_edge(branch, merge);
    }
    b.add_edge(merge, sink);
    Deploy d{b.build(), {}};
    d.deployment.replication.replicas.assign(d.topology.num_operators(), 1);
    d.deployment.replication.replicas[merge] = 2;
    return d;
  };
  s.config.scheduler = rt::SchedulerKind::kPooled;
  s.config.workers = workers;
  s.config.seed = seed;
  s.logic = synthetic_logic(seed, 0.0);
  return s;
}

Segment fig11_segment(std::uint64_t seed, double rate) {
  Segment s;
  s.build = [rate] {
    // Table 1 service times (ms) of op2..op6, scaled by 0.25.
    constexpr double kScale = 0.25;
    const double service_ms[] = {1e3 / rate,   1.2 * kScale, 0.7 * kScale,
                                 2.0 * kScale, 1.5 * kScale, 0.2 * kScale};
    ss::Topology::Builder b;
    for (int i = 0; i < 6; ++i) b.add_operator("op" + std::to_string(i + 1), service_ms[i] * 1e-3);
    // The edge probabilities that reproduce every cell of Tables 1-2.
    b.add_edge(0, 1, 0.7);
    b.add_edge(0, 2, 0.3);
    b.add_edge(1, 5, 1.0);
    b.add_edge(2, 3, 2.0 / 3.0);
    b.add_edge(2, 4, 1.0 / 3.0);
    b.add_edge(3, 4, 0.25);
    b.add_edge(3, 5, 0.75);
    b.add_edge(4, 5, 1.0);
    Deploy d{b.build(), {}};
    d.deployment.fusions.push_back(ss::FusionSpec{{2, 3, 4}, "F"});
    return d;
  };
  s.config.scheduler = rt::SchedulerKind::kThreadPerActor;
  s.config.seed = seed;
  s.logic = synthetic_logic(seed, 1.0);
  return s;
}

namespace {

ss::Topology keyed_topology(const KeyedPlan& plan) {
  ss::Topology::Builder b;
  b.add_operator("src", 1.0 / plan.rate);
  b.add_operator("enrich", 1e-6);
  ss::OperatorSpec keyed;
  keyed.name = "keyed_sum";
  keyed.service_time = 2e-6;
  keyed.state = ss::StateKind::kPartitionedStateful;
  keyed.keys = ss::KeyDistribution::zipf(plan.keys, plan.zipf_alpha);
  b.add_operator(std::move(keyed));
  b.add_operator("sink", 1e-6);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
  return b.build();
}

ss::Deployment keyed_deployment(const ss::Topology& t, int replicas) {
  ss::Deployment d;
  d.replication.replicas = {1, 1, replicas, 1};
  d.partitions.resize(t.num_operators());
  d.partitions[2] = ss::partition_keys(t.op(2).keys, replicas);
  return d;
}

}  // namespace

Segment keyed_segment(const KeyedPlan& plan, Feed& feed, KeyedLog& log) {
  Segment s;
  auto next = std::make_shared<ss::Deployment>();
  s.build = [plan, next] {
    Deploy d{keyed_topology(plan), {}};
    d.deployment = keyed_deployment(d.topology, plan.replicas);
    *next = keyed_deployment(d.topology, plan.replicas - 1);
    return d;
  };
  s.config.scheduler = rt::SchedulerKind::kPooled;
  s.config.workers = plan.workers;
  s.config.assign_keys_at_emitter = false;
  s.config.checkpoint_dir = plan.checkpoint_dir;
  // Snapshots are taken by the benchmark's checkpoint_now() calls, timed one
  // by one; the engine's own periodic controller stays out of the way.
  s.config.checkpoint_period = 1e6;
  s.config.checkpoint_retain = 2;
  s.logic = [](ss::OpIndex op, const ss::OperatorSpec&) -> std::unique_ptr<rt::OperatorLogic> {
    if (op == 1) return std::make_unique<ss::ops::Enrich>();
    if (op == 2) return std::make_unique<ss::ops::KeyedRunningSum>();
    return std::make_unique<rt::SyntheticOperator>(ss::OperatorSpec{}, 0, 0.0);
  };
  s.control = [plan, next, &feed, &log](rt::Engine& engine, Tracer* tracer, std::int64_t parent,
                                        const std::atomic<bool>& done) {
    const std::int64_t t0 = feed.t0_ns;
    const std::int64_t period = static_cast<std::int64_t>(plan.checkpoint_period * 1e9);
    const std::int64_t reconfigure_at = static_cast<std::int64_t>(plan.reconfigure_at * 1e9);
    std::int64_t next_checkpoint = t0 + period;
    bool reconfigure_due = plan.reconfigure_at > 0.0;  // one attempt per segment
    while (!done.load()) {
      const std::int64_t now = now_ns();
      if (reconfigure_due && now >= t0 + reconfigure_at) {
        reconfigure_due = false;
        Span span(tracer, "checkpoint.reconfigure", parent, Tracer::kControl);
        log.reconfigured = engine.reconfigure(*next);
        log.reconfigure_ms = span.end() * 1e3;
        continue;
      }
      if (now >= next_checkpoint) {
        Span span(tracer, "checkpoint.checkpoint_now", parent, Tracer::kControl);
        if (engine.checkpoint_now()) log.pause_ms.push_back(span.end() * 1e3);
        next_checkpoint += period;
        continue;
      }
      const std::int64_t wake =
          reconfigure_due ? std::min(next_checkpoint, t0 + reconfigure_at) : next_checkpoint;
      // Short naps so the thread notices the end of the run promptly.
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::clamp<std::int64_t>(wake - now, 0, 20'000'000)));
    }
  };
  return s;
}

void keyed_feed(const KeyedPlan& plan, std::uint64_t seed, double seconds, Feed& feed,
                std::vector<double>& expected) {
  poisson_schedule(seed, plan.rate, seconds, feed.due_ns);
  const std::size_t n = feed.due_ns.size();
  ss::Rng rng(seed ^ 0x6b65796564ULL);
  const ss::ZipfSampler keys(plan.keys, plan.zipf_alpha);
  feed.key.resize(n);
  feed.value.resize(n);
  expected.resize(n);
  std::vector<double> sums(plan.keys, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = keys.sample(rng);
    feed.key[i] = static_cast<std::int64_t>(k);
    // Small integers: every running sum is exact in a double, so the sink's
    // results must equal the reference bit for bit.
    feed.value[i] = static_cast<double>(1 + rng.rand_int(0, 99));
    sums[k] += feed.value[i];
    expected[i] = sums[k];
  }
  feed.reset(static_cast<std::int64_t>(n));
}

double checkpoint_bytes(const std::string& dir) {
  namespace fs = std::filesystem;
  double total = 0.0;
  int files = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) != 0) continue;
    total += static_cast<double>(entry.file_size(ec));
    ++files;
  }
  return files > 0 ? total / files : 0.0;
}

}  // namespace spinbench
