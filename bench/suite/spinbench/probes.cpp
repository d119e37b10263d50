// Per-layer probes: fixed-size microbenchmarks of each layer through its
// public API, the same whatever the workload.  A traced run reports a layer
// from these probes unless the workload itself exercised it (the pool's
// counters on fanin_pool, checkpoint pauses on keyed_state, ...).
#include <algorithm>
#include <filesystem>
#include <thread>

#include "core/bottleneck.hpp"
#include "core/fusion.hpp"
#include "core/latency.hpp"
#include "core/optimizer.hpp"
#include "gen/random_topology.hpp"
#include "gen/workload.hpp"
#include "gen/zipf.hpp"
#include "ops/keyed.hpp"
#include "ops/stateless.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/routing.hpp"
#include "runtime/synthetic.hpp"
#include "segment.hpp"
#include "workloads.hpp"
#include "xmlio/topology_xml.hpp"

namespace spinbench {

namespace {

using namespace std::chrono_literals;
using rt::Mailbox;
using rt::Message;
using rt::Tuple;

constexpr int kReps = 5;  // median over this many repetitions per probe

/// Median over kReps of `body()`, which returns one measurement.
template <typename F>
double median_of_reps(F body, int reps = kReps) {
  std::vector<double> v;
  for (int i = 0; i < reps; ++i) v.push_back(body());
  return median(std::move(v));
}

/// Nanoseconds per iteration of `body` over `iterations`.
template <typename F>
double ns_per(std::int64_t iterations, F body) {
  const std::int64_t t = now_ns();
  body();
  return static_cast<double>(now_ns() - t) / static_cast<double>(iterations);
}

// ------------------------------------------------------------- mailbox

void mailbox_probes(Metrics& m, Tracer* tracer) {
  Span span(tracer, "probe.mailbox");
  const Message msg = Message::data(Tuple{}, 0, 1);
  m["runtime.mailbox.try_send_recv_ns"] = metric(median_of_reps([&] {
    Mailbox box(64);
    Message out;
    constexpr std::int64_t kIters = 1'000'000;
    return ns_per(kIters, [&] {
      for (std::int64_t i = 0; i < kIters; ++i) {
        if (!box.try_send(msg) || !box.try_receive(out)) throw std::runtime_error("mailbox probe");
      }
    });
  }), "ns", kReps);

  m["runtime.mailbox.batch16_ns_per_msg"] = metric(median_of_reps([&] {
    Mailbox box(64);
    std::vector<Message> batch(16, msg);
    std::vector<Message> out;
    out.reserve(16);
    constexpr std::int64_t kIters = 100'000;
    return ns_per(kIters * 16, [&] {
      for (std::int64_t i = 0; i < kIters; ++i) {
        if (box.try_send_batch(batch.data(), batch.size()) != batch.size()) {
          throw std::runtime_error("mailbox batch probe");
        }
        out.clear();
        box.drain(out, 16);
      }
    });
  }), "ns", kReps);

  // Three producers into one bounded mailbox, one consumer: MPSC fan-in
  // under backpressure, wall time per message.
  m["runtime.mailbox.fanin4_ns_per_msg"] = metric(median_of_reps([&] {
    Mailbox box(64);
    constexpr std::int64_t kPerProducer = 200'000;
    constexpr int kProducers = 3;
    const std::int64_t t = now_ns();
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&] {
        for (std::int64_t i = 0; i < kPerProducer; ++i) box.send(msg, 5s);
      });
    }
    Message out;
    for (std::int64_t i = 0; i < kProducers * kPerProducer; ++i) box.receive(out);
    const std::int64_t elapsed = now_ns() - t;
    for (auto& p : producers) p.join();
    return static_cast<double>(elapsed) / (kProducers * kPerProducer);
  }, 3), "ns", 3);

  // Round trip between two threads through two mailboxes, wall time.
  m["runtime.mailbox.pingpong_rtt_ns"] = metric(median_of_reps([&] {
    Mailbox request(64);
    Mailbox response(64);
    std::thread echo([&] {
      Message in;
      while (request.receive(in)) {
        if (in.kind == Message::Kind::kShutdown) break;
        response.send_unbounded(in);
      }
    });
    constexpr std::int64_t kIters = 50'000;
    Message out;
    const double ns = ns_per(kIters, [&] {
      for (std::int64_t i = 0; i < kIters; ++i) {
        request.send(msg, 5s);
        response.receive(out);
      }
    });
    request.send_unbounded(Message::shutdown());
    echo.join();
    return ns;
  }, 3), "ns", 3);
}

// ------------------------------------------------------------- routing

void routing_probes(Metrics& m, std::uint64_t seed, Tracer* tracer) {
  Span span(tracer, "probe.routing");
  const Deploy fanin = fanin_segment(seed, 4).build();
  const rt::EdgeRouter router(fanin.topology, *fanin.topology.find("split"));
  ss::Rng rng(seed);
  m["runtime.routing.edge_choose_ns"] = metric(median_of_reps([&] {
    constexpr std::int64_t kIters = 2'000'000;
    std::uint64_t sink = 0;
    const double ns = ns_per(kIters, [&] {
      for (std::int64_t i = 0; i < kIters; ++i) sink += router.choose(rng);
    });
    if (sink == 0) throw std::runtime_error("routing probe");
    return ns;
  }), "ns", kReps);

  const KeyedPlan plan;
  const ss::KeyDistribution keys = ss::KeyDistribution::zipf(plan.keys, plan.zipf_alpha);
  auto selector = rt::ReplicaSelector::by_key(ss::partition_keys(keys, plan.replicas));
  const ss::ZipfSampler sampler(plan.keys, plan.zipf_alpha);
  std::vector<std::int64_t> drawn(1 << 20);
  for (auto& k : drawn) k = static_cast<std::int64_t>(sampler.sample(rng));
  m["runtime.routing.by_key_select_ns"] = metric(median_of_reps([&] {
    std::int64_t sink = 0;
    const double ns = ns_per(static_cast<std::int64_t>(drawn.size()), [&] {
      for (std::int64_t k : drawn) sink += selector.select(k, rng);
    });
    if (sink < 0) throw std::runtime_error("selector probe");
    return ns;
  }), "ns", kReps);
}

// ------------------------------------------------------- engine layers

void engine_probes(Metrics& m, const RunOptions& options) {
  Span span(options.tracer, "probe.engine");
  Feed feed;
  Samples samples(options.seed, 1 << 16);
  // Engine lifecycle on a small thread-per-actor chain.
  const Segment chain = chain_segment(options.seed);
  std::vector<Outcome> lifecycle;
  for (int i = 0; i < kReps; ++i) {
    feed.reset(50'000);
    lifecycle.push_back(run_segment(chain, feed, false, options, 100 + i, samples));
  }
  std::vector<const Outcome*> views;
  for (const Outcome& o : lifecycle) views.push_back(&o);
  const Metrics life = engine_readings(views);
  for (const char* name : {"runtime.engine.construct_ms", "runtime.engine.first_exit_ms",
                           "runtime.engine.drain_ms"}) {
    m[name] = life.at(name);
  }

  // Scheduler and telemetry on a metered fan-in pool run, closed by
  // backpressure alone: no window, so mailboxes fill and senders park.
  // fanin_pool keeps 128 tuples in flight and never gets there.
  feed.reset(200'000);
  const Outcome pool =
      run_segment(fanin_segment(options.seed, 4), feed, true, options, 110, samples);
  for (const auto& [name, reading] : engine_readings({&pool})) {
    if (name.rfind("runtime.scheduler.", 0) == 0 || name.rfind("runtime.mailbox.", 0) == 0 ||
        name.rfind("runtime.engine.max_", 0) == 0 || name == "runtime.engine.e2e_p99_ms") {
      m[name] = reading;
    }
  }
  m["runtime.scheduler.backpressured_tps"] = metric(pool.throughput, "tuples/s");
}

void checkpoint_probes(Metrics& m, const RunOptions& options) {
  Span span(options.tracer, "probe.checkpoint");
  KeyedPlan plan;
  plan.rate = 50'000.0;
  plan.checkpoint_period = 0.1;
  plan.reconfigure_at = 0.75;
  plan.checkpoint_dir = options.work_dir + "/ckpt-probe";
  Feed feed;
  KeyedLog log;
  Segment segment = keyed_segment(plan, feed, log);
  keyed_feed(plan, options.seed, 1.5, feed, segment.expected);
  Samples samples(options.seed, 1 << 16);
  const Outcome o = run_segment(segment, feed, true, options, 120, samples);
  if (o.accounting.failed() > 0 || !log.reconfigured) {
    throw std::runtime_error("checkpoint probe: keyed results differ from the reference");
  }
  const auto n = static_cast<std::int64_t>(log.pause_ms.size());
  m["runtime.checkpoint.pause_ms_p50"] = metric(quantile(log.pause_ms, 0.5), "ms", n);
  m["runtime.checkpoint.pause_ms_max"] = metric(quantile(log.pause_ms, 1.0), "ms", n);
  m["runtime.checkpoint.bytes"] = metric(checkpoint_bytes(plan.checkpoint_dir), "B");
  m["runtime.checkpoint.reconfigure_pause_ms"] = metric(log.reconfigure_ms, "ms");
  m["runtime.checkpoint.keys_migrated"] =
      metric(static_cast<double>(o.stats.keys_migrated), "count");
  std::filesystem::remove_all(plan.checkpoint_dir);
}

// ----------------------------------------------------------------- core

void core_probes(Metrics& m, const RunOptions& options) {
  Span span(options.tracer, "probe.core");
  constexpr int kTopologies = 8;
  ss::Rng rng(options.seed);
  std::vector<double> xml_us, steady_us, bottleneck_ms, fusion_ms, latency_us, auto_tput_ms,
      auto_lat_ms;
  for (int i = 0; i < kTopologies; ++i) {
    ss::ShapeOptions shape;
    shape.min_vertices = shape.max_vertices = 10 + i * 30 / (kTopologies - 1);
    const std::string xml = ss::xml::save_topology(ss::random_topology(rng, shape));
    auto time_s = [&](const char* name, auto body) {
      Span s(options.tracer, name, span.id());
      body();
      return s.end();
    };
    ss::Topology t;
    xml_us.push_back(time_s("core.xml_load", [&] { t = ss::xml::load_topology(xml); }) * 1e6);
    ss::SteadyStateResult rates;
    steady_us.push_back(time_s("core.steady_state", [&] { rates = ss::steady_state(t); }) * 1e6);
    ss::BottleneckResult fission;
    bottleneck_ms.push_back(
        time_s("core.eliminate_bottlenecks", [&] { fission = ss::eliminate_bottlenecks(t); }) *
        1e3);
    fusion_ms.push_back(time_s("core.suggest_fusion", [&] {
                          (void)ss::suggest_fusion_candidates(t, fission.analysis);
                        }) * 1e3);
    latency_us.push_back(time_s("core.estimate_latency", [&] {
                           (void)ss::estimate_latency(t, fission.analysis, fission.plan);
                         }) * 1e6);
    auto_tput_ms.push_back(time_s("core.auto_optimize", [&] { (void)ss::auto_optimize(t); }) *
                           1e3);
    ss::AutoOptimizeOptions latency;
    latency.objective = ss::Objective::kLatency;
    latency.slo_p99 = 5e-3;
    auto_lat_ms.push_back(
        time_s("core.auto_optimize", [&] { (void)ss::auto_optimize(t, latency); }) * 1e3);
  }
  m["core.xml_load_us"] = metric(median(xml_us), "us", kTopologies);
  m["core.steady_state_us"] = metric(median(steady_us), "us", kTopologies);
  m["core.bottleneck_ms"] = metric(median(bottleneck_ms), "ms", kTopologies);
  m["core.fusion_suggest_ms"] = metric(median(fusion_ms), "ms", kTopologies);
  m["core.latency_estimate_us"] = metric(median(latency_us), "us", kTopologies);
  m["core.auto_throughput_ms"] = metric(median(auto_tput_ms), "ms", kTopologies);
  m["core.auto_latency_ms"] = metric(median(auto_lat_ms), "ms", kTopologies);
}

// ------------------------------------------------- generator and baselines

void loadgen_probe(Metrics& m, const RunOptions& options) {
  Span span(options.tracer, "probe.loadgen");
  // The generator alone, no engine: how late does it wake at the nominal
  // open-loop rate?
  Feed feed;
  poisson_schedule(options.seed, 4000.0, 0.5, feed.due_ns);
  feed.reset(static_cast<std::int64_t>(feed.due_ns.size()));
  feed.t0_ns = now_ns();
  FeedSource source(feed);
  Tuple t;
  while (source.next(t)) {
  }
  std::vector<double> lag;
  for (std::int64_t l : feed.lag_ns) lag.push_back(ns_to_ms(l));
  const auto n = static_cast<std::int64_t>(lag.size());
  const auto late = std::count_if(lag.begin(), lag.end(), [](double l) { return l > kLateMs; });
  m["loadgen.late_frac"] = metric(static_cast<double>(late) / static_cast<double>(n), "ratio", n);
  m["loadgen.lag_p99_ms"] = metric(quantile(std::move(lag), 0.99), "ms", n);
}

/// Collects into a plain vector: the single-threaded baselines run each
/// operator directly, no engine.
class VectorCollector final : public rt::Collector {
 public:
  explicit VectorCollector(std::vector<Tuple>& out) : out_(out) {}
  void emit(const Tuple& t) override { out_.push_back(t); }
  void emit_to(ss::OpIndex, const Tuple& t) override { out_.push_back(t); }

 private:
  std::vector<Tuple>& out_;
};

void baseline_probes(Metrics& m, const RunOptions& options) {
  Span span(options.tracer, "probe.baseline");
  constexpr std::int64_t kItems = 1'000'000;
  // fanin_pool's operator chain in a plain loop: split, routed branch, merge, sink.
  {
    const Deploy d = fanin_segment(options.seed, 4).build();
    const auto logic = synthetic_logic(options.seed, 0.0);
    std::vector<std::unique_ptr<rt::OperatorLogic>> ops;
    std::vector<rt::EdgeRouter> routers;
    for (ss::OpIndex i = 0; i < d.topology.num_operators(); ++i) {
      ops.push_back(logic(i, d.topology.op(i)));
      routers.emplace_back(d.topology, i);
    }
    ss::Rng rng(options.seed);
    std::vector<Tuple> a, b;
    std::int64_t exits = 0;
    const double seconds = median_of_reps([&] {
      exits = 0;
      const std::int64_t t0 = now_ns();
      for (std::int64_t id = 0; id < kItems; ++id) {
        Tuple t;
        t.id = id;
        ss::OpIndex op = routers[d.topology.source()].choose(rng);
        a.assign(1, t);
        while (op != ss::kInvalidOp) {
          b.clear();
          VectorCollector out(b);
          for (const Tuple& x : a) ops[op]->process(x, 0, out);
          a.swap(b);
          op = routers[op].choose(rng);
        }
        exits += static_cast<std::int64_t>(a.size());
      }
      return ns_to_s(now_ns() - t0);
    }, 3);
    if (exits != kItems) throw std::runtime_error("fan-in baseline lost tuples");
    m["baseline.fanin_single_thread_tps"] = metric(kItems / seconds, "tuples/s", 3);
  }
  // keyed_state's operator chain: enrich then keyed running sum.
  {
    const KeyedPlan plan;
    const ss::ZipfSampler sampler(plan.keys, plan.zipf_alpha);
    ss::Rng rng(options.seed);
    std::vector<std::int64_t> keys(kItems);
    for (auto& k : keys) k = static_cast<std::int64_t>(sampler.sample(rng));
    std::vector<Tuple> a, b;
    const double seconds = median_of_reps([&] {
      ss::ops::Enrich enrich;
      ss::ops::KeyedRunningSum sum;
      const std::int64_t t0 = now_ns();
      for (std::int64_t id = 0; id < kItems; ++id) {
        Tuple t;
        t.id = id;
        t.key = keys[static_cast<std::size_t>(id)];
        t.f[0] = 1.0;
        a.clear();
        b.clear();
        VectorCollector to_sum(a);
        enrich.process(t, 0, to_sum);
        VectorCollector to_sink(b);
        sum.process(a.front(), 1, to_sink);
      }
      return ns_to_s(now_ns() - t0);
    }, 3);
    m["baseline.keyed_single_thread_tps"] = metric(kItems / seconds, "tuples/s", 3);
  }
}

}  // namespace

Metrics run_probes(const RunOptions& options) {
  Metrics m;
  mailbox_probes(m, options.tracer);
  routing_probes(m, options.seed, options.tracer);
  engine_probes(m, options);
  checkpoint_probes(m, options);
  core_probes(m, options);
  loadgen_probe(m, options);
  baseline_probes(m, options);
  return m;
}

}  // namespace spinbench
