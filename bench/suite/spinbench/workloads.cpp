#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>

#include "core/optimizer.hpp"
#include "gen/random_topology.hpp"
#include "gen/workload.hpp"
#include "runtime/plan.hpp"
#include "segment.hpp"
#include "xmlio/topology_xml.hpp"

namespace spinbench {

namespace {

// Fixed load: nothing is calibrated at run time, so a parent and a change
// always run identical work for a given seed.
constexpr int kWorkers = 4;                      // engine threads per process
constexpr std::int64_t kChainItems = 1'000'000;  // tuples per chain_threads segment
constexpr std::int64_t kFaninItems = 200'000;    // tuples per fanin_pool segment
// Tuples in flight in a closed loop: fewer than the mailboxes hold, so the
// window, not whichever actor happens to be slowest, sets how many tuples
// queue.  Under backpressure alone chain_threads' median latency jumped
// between ~0.06 and ~0.12 ms from run to run with the bottleneck's
// position, and fanin_pool's spread 25%.
constexpr std::int64_t kWindow = 128;
constexpr int kMinClosedSegments = 3;
constexpr double kFig11Nominal = 4000.0;         // 84% of the Alg. 1 capacity (4762/s)
constexpr double kFig11Ladder[] = {3000.0, 4400.0};
constexpr double kLadderSeconds = 5.0;           // per ladder point, traced runs only
constexpr double kLatencyLimitMs = 20.0;         // sustainable-rate criterion on p99
// ~20% of the ~515k/s keyed_state saturates at.  At 39%, a stretch of
// this host at half speed (checkpoint pauses doubled to ~9 ms) overloaded
// it and its median latency jumped from 0.1 to ~300 ms.
constexpr double kKeyedRate = 100'000.0;
constexpr int kKeyedSegments = 2;                // each with one reconfiguration
// A 10k-key state snapshots in ~3.5 ms; every 50 ms that pauses ~7% of the
// time, so latency_p99_ms falls inside the pauses and follows their length.
// (At a 3% share p99 sat at the pauses' edge and spread ~19% from run to
// run; a 100k-key state pauses 12-40 ms, growing through a segment.)
constexpr double kCheckpointPeriod = 0.05;
// Set-up is timed on fresh engines over a short closed-loop feed, several
// times per run; the median is reported.
constexpr int kSetupReps = 21;
constexpr std::int64_t kSetupItems = 64;
constexpr std::uint64_t kSweepSampleSeed = 2018;  // pinned Alg. 5 sample
constexpr int kSweepMinVertices = 10;
constexpr int kSweepMaxVertices = 40;
// Two topologies per vertex count: with one, the median fell between
// topologies ±12% apart, and noise swapping their ranks moved p50 by that.
constexpr int kSweepPerVertexCount = 2;

template <typename F>
std::vector<double> collect(const std::vector<Outcome>& outcomes, F field) {
  std::vector<double> v;
  for (const Outcome& o : outcomes) v.push_back(field(o));
  return v;
}

std::vector<const Outcome*> views(const std::vector<Outcome>& outcomes) {
  std::vector<const Outcome*> v;
  for (const Outcome& o : outcomes) v.push_back(&o);
  return v;
}

/// The segments of one series (all traced or all plain).  A closed-loop
/// series reports each metric as its median over segments, which keeps an
/// odd segment (a descheduled thread, a cold cache) out of the result; an
/// open-loop series pools its tuples, too few per segment for a stable p99.
struct Series {
  Series(std::uint64_t seed, bool closed_loop) : closed_loop(closed_loop), samples(seed) {}
  bool closed_loop;
  std::vector<Outcome> outcomes;
  Samples samples;
  std::vector<double> p50_ms, p99_ms;  ///< closed loop: per segment
  std::int64_t cleared = 0;            ///< closed loop: samples seen so far

  void add(Outcome o) {
    outcomes.push_back(std::move(o));
    if (closed_loop) {
      cleared += samples.latency.seen();
      p50_ms.push_back(samples.latency.quantile(0.5));
      p99_ms.push_back(samples.latency.quantile(0.99));
      samples.clear();
    }
  }
  [[nodiscard]] double latency_ms(double q) {
    if (!closed_loop) return samples.latency.quantile(q);
    return median(q == 0.5 ? p50_ms : p99_ms);
  }
  [[nodiscard]] std::int64_t latency_samples() const { return cleared + samples.latency.seen(); }
  [[nodiscard]] double throughput() const {
    return median(collect(outcomes, [](const Outcome& o) { return o.throughput; }));
  }
  [[nodiscard]] double cpu_ms_per_ktuple() const {
    return median(collect(outcomes, [](const Outcome& o) {
      return o.cpu_s * 1e3 / (static_cast<double>(o.accounting.generated) / 1e3);
    }));
  }
};

/// Median set-up time over kSetupReps fresh engines of `segment` (without
/// control actions), each fed the first kSetupItems tuples of `feed`'s keys
/// and values in a closed loop.  Their tuples join `acc`.
double setup_seconds(const Segment& segment, const Feed& feed, const RunOptions& options,
                     Accounting& acc) {
  Segment probe;
  probe.build = segment.build;
  probe.config = segment.config;
  probe.logic = segment.logic;
  const auto n = static_cast<std::ptrdiff_t>(kSetupItems);
  if (!segment.expected.empty()) {
    probe.expected.assign(segment.expected.begin(), segment.expected.begin() + n);
  }
  Feed small;
  if (!feed.key.empty()) small.key.assign(feed.key.begin(), feed.key.begin() + n);
  if (!feed.value.empty()) small.value.assign(feed.value.begin(), feed.value.begin() + n);
  Samples unused(options.seed, 1024);
  std::vector<double> setup;
  for (int i = 0; i < kSetupReps; ++i) {
    small.reset(kSetupItems);
    const Outcome o = run_segment(probe, small, false, options, 200 + i, unused);
    acc += o.accounting;
    setup.push_back(o.setup_s);
  }
  return median(std::move(setup));
}

void add_loadgen(Metrics& m, Samples& s) {
  m["loadgen.lag_p99_ms"] = metric(s.lag.quantile(0.99), "ms", s.lag.seen());
  m["loadgen.late_frac"] = metric(
      static_cast<double>(s.late) / static_cast<double>(std::max<std::int64_t>(1, s.lag.seen())),
      "ratio", s.lag.seen());
}

/// What every runtime workload reports.  The trace overhead is judged on
/// throughput in a closed loop and on median latency in an open one.
WorkloadResult finish(double setup_s, double rss_base_mb, Series& plain, Series* traced,
                      Accounting acc) {
  WorkloadResult r;
  Metrics& m = r.end_to_end;
  const auto segments = static_cast<std::int64_t>(plain.outcomes.size());
  m["setup_s"] = metric(setup_s, "s", kSetupReps);
  m["throughput_tps"] = metric(plain.throughput(), "tuples/s", segments);
  m["latency_p50_ms"] = metric(plain.latency_ms(0.5), "ms", plain.latency_samples());
  m["latency_p99_ms"] = metric(plain.latency_ms(0.99), "ms", plain.latency_samples());
  m["cpu_ms_per_ktuple"] = metric(plain.cpu_ms_per_ktuple(), "ms", segments);
  m["peak_rss_mb"] = metric(peak_rss_mb() - rss_base_mb, "MB");

  for (const Outcome& o : plain.outcomes) acc += o.accounting;
  std::vector<const Outcome*> all = views(plain.outcomes);
  if (traced != nullptr) {
    for (const Outcome& o : traced->outcomes) {
      acc += o.accounting;
      all.push_back(&o);
    }
    const bool closed = plain.closed_loop;
    const double base = closed ? plain.throughput() : plain.latency_ms(0.5);
    const double with = closed ? traced->throughput() : traced->latency_ms(0.5);
    r.trace_overhead_pct = (closed ? base - with : with - base) / base * 100.0;
  }
  r.accounting = acc;
  r.detail = engine_readings(all);
  if (!plain.closed_loop) add_loadgen(r.detail, plain.samples);
  return r;
}

// ------------------------------------------------------------- workloads

/// Closed loop: segments of `items` tuples with at most kWindow in flight,
/// at least kMinClosedSegments and then more while the time budget lasts.
WorkloadResult closed_loop(const Segment& segment, std::int64_t items,
                           const RunOptions& options) {
  Feed feed;
  feed.reserve(items);
  feed.window = kWindow;
  Series plain(options.seed, true);
  std::unique_ptr<Series> traced;
  if (options.trace) traced = std::make_unique<Series>(options.seed + 1, true);
  const double rss_base = peak_rss_mb();
  Accounting acc;
  const double setup = setup_seconds(segment, feed, options, acc);

  auto run_series = [&](Series& series, bool trace) {
    const std::int64_t begin = now_ns();
    std::vector<double> lengths;
    for (int i = 0;; ++i) {
      const double elapsed = ns_to_s(now_ns() - begin);
      if (i >= kMinClosedSegments && elapsed + median(lengths) > options.seconds) break;
      feed.reset(items);
      const std::int64_t t = now_ns();
      series.add(run_segment(segment, feed, trace, options, i, series.samples));
      lengths.push_back(ns_to_s(now_ns() - t));
    }
  };
  run_series(plain, false);
  if (traced) run_series(*traced, true);
  return finish(setup, rss_base, plain, traced.get(), acc);
}

WorkloadResult chain_threads(const RunOptions& options) {
  return closed_loop(chain_segment(options.seed), kChainItems, options);
}

WorkloadResult fanin_pool(const RunOptions& options) {
  return closed_loop(fanin_segment(options.seed, kWorkers), kFaninItems, options);
}

/// One open-loop fig11 segment at `rate` for `seconds`.
Outcome fig11_run(const RunOptions& options, double rate, double seconds, bool trace, int index,
                  Feed& feed, Samples& samples) {
  poisson_schedule(options.seed * 1000 + static_cast<std::uint64_t>(rate), rate, seconds,
                   feed.due_ns);
  feed.reset(static_cast<std::int64_t>(feed.due_ns.size()));
  return run_segment(fig11_segment(options.seed, rate), feed, trace, options, index, samples);
}

WorkloadResult fig11_threads(const RunOptions& options) {
  Feed feed;
  feed.reserve(poisson_capacity(kFig11Ladder[1], std::max(options.seconds, kLadderSeconds)));
  Series plain(options.seed, false);
  std::unique_ptr<Series> traced;
  if (options.trace) traced = std::make_unique<Series>(options.seed + 1, false);
  const double rss_base = peak_rss_mb();
  Accounting acc;
  const double setup =
      setup_seconds(fig11_segment(options.seed, kFig11Nominal), feed, options, acc);

  plain.add(fig11_run(options, kFig11Nominal, options.seconds, false, 0, feed, plain.samples));
  if (traced) {
    traced->add(fig11_run(options, kFig11Nominal, options.seconds, true, 1, feed, traced->samples));
  }
  WorkloadResult r = finish(setup, rss_base, plain, traced.get(), acc);

  // Model comparison: Alg. 1 throughput and the latency model's p99 for the
  // deployed (fused) plan, against the measurement at the nominal rate.
  const rt::PredictedLatency& predicted = plain.outcomes.front().predicted;
  const double measured_tput = r.end_to_end["throughput_tps"].value;
  const double measured_p99 = r.end_to_end["latency_p99_ms"].value;
  if (predicted.valid && predicted.throughput > 0.0 && predicted.p99 > 0.0) {
    r.detail["model.tput_error_pct"] =
        metric((measured_tput - predicted.throughput) / predicted.throughput * 100.0, "%");
    r.detail["model.p99_ratio"] = metric(measured_p99 / (predicted.p99 * 1e3), "ratio");
    r.detail["model.predicted_p99_ms"] = metric(predicted.p99 * 1e3, "ms");
  }

  if (options.trace) {
    // Latency at the ladder's other rates, one plain segment each, and the
    // rate where p99 crosses the limit (linear interpolation).
    std::vector<std::pair<double, double>> points{{kFig11Nominal, measured_p99}};
    for (double rate : kFig11Ladder) {
      Samples samples(options.seed + static_cast<std::uint64_t>(rate), 1 << 16);
      const Outcome o = fig11_run(options, rate, kLadderSeconds, false, 2, feed, samples);
      r.accounting += o.accounting;
      const std::string tag = std::to_string(static_cast<int>(rate));
      r.detail["ladder.p50_ms.r" + tag] = metric(samples.latency.quantile(0.5), "ms",
                                               samples.latency.seen());
      r.detail["ladder.p99_ms.r" + tag] = metric(samples.latency.quantile(0.99), "ms",
                                               samples.latency.seen());
      points.emplace_back(rate, samples.latency.quantile(0.99));
    }
    std::sort(points.begin(), points.end());
    double sustainable = points.back().first;  // limit never crossed
    if (points.front().second > kLatencyLimitMs) {
      sustainable = points.front().first;  // crossed below the ladder
    } else {
      for (std::size_t i = 1; i < points.size(); ++i) {
        const auto [r0, p0] = points[i - 1];
        const auto [r1, p1] = points[i];
        if (p1 > kLatencyLimitMs) {
          sustainable = r0 + (r1 - r0) * (kLatencyLimitMs - p0) / (p1 - p0);
          break;
        }
      }
    }
    r.detail["ladder.sustainable_tps"] = metric(sustainable, "tuples/s");
  }
  return r;
}

WorkloadResult keyed_state(const RunOptions& options) {
  namespace fs = std::filesystem;
  KeyedPlan plan;
  plan.workers = kWorkers;
  plan.rate = kKeyedRate;
  plan.checkpoint_period = kCheckpointPeriod;
  const double seconds = options.seconds / kKeyedSegments;
  plan.reconfigure_at = seconds / 2.0;

  Feed feed;
  feed.reserve(poisson_capacity(plan.rate, seconds));
  std::vector<double> expected;
  expected.reserve(static_cast<std::size_t>(poisson_capacity(plan.rate, seconds)));
  std::vector<KeyedLog> logs;
  logs.reserve(2 * kKeyedSegments);
  std::vector<double> bytes;
  Series plain(options.seed, false);
  std::unique_ptr<Series> traced;
  if (options.trace) traced = std::make_unique<Series>(options.seed + 1, false);
  const double rss_base = peak_rss_mb();

  // Set-up on the first segment's input, without checkpoints or
  // reconfiguration.
  Accounting acc;
  KeyedLog unused;
  Segment setup_segment = keyed_segment(plan, feed, unused);
  keyed_feed(plan, options.seed * 1000, seconds, feed, expected);
  setup_segment.expected.swap(expected);
  const double setup = setup_seconds(setup_segment, feed, options, acc);
  setup_segment.expected.swap(expected);

  auto run_series = [&](Series& series, bool trace) {
    for (int i = 0; i < kKeyedSegments; ++i) {
      const int index = static_cast<int>(logs.size());
      plan.checkpoint_dir = options.work_dir + "/ckpt-" + std::to_string(index);
      KeyedLog& log = logs.emplace_back();
      Segment segment = keyed_segment(plan, feed, log);
      keyed_feed(plan, options.seed * 1000 + static_cast<std::uint64_t>(i), seconds, feed,
                 expected);
      segment.expected.swap(expected);
      Outcome o = run_segment(segment, feed, trace, options, index, series.samples);
      segment.expected.swap(expected);
      if (!log.reconfigured) o.accounting.wrong += 1;  // the reconfiguration must have run
      series.add(std::move(o));
      bytes.push_back(checkpoint_bytes(plan.checkpoint_dir));
      fs::remove_all(plan.checkpoint_dir);
    }
  };
  run_series(plain, false);
  if (traced) run_series(*traced, true);
  WorkloadResult r = finish(setup, rss_base, plain, traced.get(), acc);

  std::vector<double> pauses, reconfigures;
  double pause_total = 0.0;
  for (const KeyedLog& log : logs) {
    pauses.insert(pauses.end(), log.pause_ms.begin(), log.pause_ms.end());
    reconfigures.push_back(log.reconfigure_ms);
    for (double p : log.pause_ms) pause_total += p;
  }
  double keys_migrated = 0.0;
  for (const Outcome& o : plain.outcomes) {
    keys_migrated += static_cast<double>(o.stats.keys_migrated);
  }
  const auto n = static_cast<std::int64_t>(pauses.size());
  r.detail["runtime.checkpoint.pause_ms_p50"] = metric(quantile(pauses, 0.5), "ms", n);
  r.detail["runtime.checkpoint.pause_ms_max"] = metric(quantile(pauses, 1.0), "ms", n);
  r.detail["runtime.checkpoint.pause_share"] = metric(
      pause_total / (seconds * 1e3 * static_cast<double>(logs.size())), "ratio");
  r.detail["runtime.checkpoint.bytes"] = metric(median(bytes), "B");
  r.detail["runtime.checkpoint.reconfigure_pause_ms"] =
      metric(median(reconfigures), "ms", static_cast<std::int64_t>(reconfigures.size()));
  r.detail["runtime.checkpoint.keys_migrated"] =
      metric(keys_migrated / kKeyedSegments, "count");
  return r;
}

/// The pinned Alg. 5 sample serialized to XML.
std::vector<std::string> sweep_sample() {
  ss::Rng rng(kSweepSampleSeed);
  std::vector<std::string> xml;
  for (int v = kSweepMinVertices; v <= kSweepMaxVertices; ++v) {
    for (int k = 0; k < kSweepPerVertexCount; ++k) {
      ss::ShapeOptions shape;
      shape.min_vertices = shape.max_vertices = v;
      xml.push_back(ss::xml::save_topology(ss::random_topology(rng, shape),
                                           "sweep" + std::to_string(xml.size())));
    }
  }
  return xml;
}

WorkloadResult optimize_sweep(const RunOptions& options) {
  // The sample is pinned because per-topology cost spans 30x across shapes:
  // a seeded sample of the few dozen topologies a run can afford moved p50
  // by 20-30% from seed to seed, which would drown any change in the
  // optimizer.  --seed sets the order they are processed in.
  std::vector<std::size_t> order(
      static_cast<std::size_t>(kSweepMaxVertices - kSweepMinVertices + 1) * kSweepPerVertexCount);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  ss::Rng shuffle(options.seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(shuffle.rand_int(0, static_cast<int>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }

  ss::AutoOptimizeOptions optimize;
  optimize.objective = ss::Objective::kLatency;
  optimize.slo_p99 = 5e-3;
  optimize.buffer_capacity = 64;

  // Whole passes over the sample only, so every topology weighs the same
  // in every run; each topology's time is its median over the passes.
  // Every pass first generates and serializes the sample again: that is the
  // set-up, timed once per pass so its median spans the run (this host's
  // speed drifts by tens of percent over seconds).  Traced runs alternate
  // plain and traced passes.
  // The optimizer's working set stays below the serializer's, so the
  // footprint counts from before the first set-up.
  const double rss_base = peak_rss_mb();
  std::vector<std::vector<double>> plain_ms(order.size());
  std::vector<double> setup;
  double busy_s[2] = {0.0, 0.0};  // plain, traced
  int passes[2] = {0, 0};
  double cpu_s = 0.0;
  Accounting acc;
  const std::int64_t begin = now_ns();
  const double budget = options.trace ? 2.0 * options.seconds : options.seconds;
  double pass_s = 0.0;
  for (int pass = 0; pass < 2 || ns_to_s(now_ns() - begin) + pass_s <= budget; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    Tracer* tracer = traced ? options.tracer : nullptr;
    const std::int64_t pass_begin = now_ns();
    Span setup_span(tracer, "setup");
    const std::vector<std::string> xml = sweep_sample();
    if (!traced) setup.push_back(setup_span.end());
    const double cpu_begin = cpu_seconds();
    for (std::size_t k : order) {
      ++acc.generated;
      try {
        Span item(tracer, "core.optimize_topology");
        ss::Topology t = [&] {
          Span span(tracer, "core.xml_load", item.id());
          return ss::xml::load_topology(xml[k]);
        }();
        ss::AutoOptimizeResult result = [&] {
          Span span(tracer, "core.auto_optimize", item.id());
          return ss::auto_optimize(t, optimize);
        }();
        ss::Deployment deployment = [&] {
          Span span(tracer, "core.deployment_of", item.id());
          return ss::deployment_of(result);
        }();
        const double seconds = item.end();
        busy_s[traced] += seconds;
        if (!traced) plain_ms[k].push_back(seconds * 1e3);
        // Validity (untimed): the deployment must analyze to a positive,
        // finite throughput and instantiate as an actor graph.
        const ss::SteadyStateResult check = ss::steady_state(t, deployment.replication);
        (void)rt::ActorGraph::build(t, deployment);
        if (!(check.throughput() > 0.0) || !std::isfinite(check.throughput())) ++acc.wrong;
      } catch (const std::exception&) {
        ++acc.wrong;
      }
    }
    if (!traced) cpu_s += cpu_seconds() - cpu_begin;
    ++passes[traced];
    pass_s = ns_to_s(now_ns() - pass_begin);
  }

  std::vector<double> per_topology;
  for (const auto& times : plain_ms) per_topology.push_back(median(times));
  const auto topologies = static_cast<std::int64_t>(order.size()) * passes[0];

  WorkloadResult r;
  Metrics& m = r.end_to_end;
  m["setup_s"] = metric(median(setup), "s", passes[0]);
  m["throughput_tps"] = metric(static_cast<double>(topologies) / busy_s[0], "tuples/s", topologies);
  m["latency_p50_ms"] = metric(harrell_davis(per_topology, 0.5), "ms", topologies);
  m["latency_p99_ms"] = metric(harrell_davis(per_topology, 0.99), "ms", topologies);
  m["cpu_ms_per_ktuple"] =
      metric(cpu_s * 1e3 / (static_cast<double>(topologies) / 1e3), "ms", topologies);
  m["peak_rss_mb"] = metric(peak_rss_mb() - rss_base, "MB");
  r.accounting = acc;
  if (passes[1] > 0) {
    const double plain = busy_s[0] / passes[0];
    r.trace_overhead_pct = (busy_s[1] / passes[1] - plain) / plain * 100.0;
  }
  return r;
}

}  // namespace

WorkloadResult run_workload(const std::string& name, const RunOptions& options) {
  if (name == "chain_threads") return chain_threads(options);
  if (name == "fanin_pool") return fanin_pool(options);
  if (name == "fig11_threads") return fig11_threads(options);
  if (name == "keyed_state") return keyed_state(options);
  if (name == "optimize_sweep") return optimize_sweep(options);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace spinbench
