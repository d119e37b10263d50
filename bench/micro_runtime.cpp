// Micro-benchmarks of the runtime substrate: mailbox operations (the cost
// of one actor hop), routing decisions, and end-to-end pipeline hops
// through the engine — the overheads operator fusion exists to remove.
//
// --profile=both skips Google Benchmark entirely and runs the A/B of the
// online profiler: the pooled engine's pipeline-hop workload with the
// estimator off vs on-and-disarmed, printing a machine-parseable line
// ("profile on vs off: X.XXx") that the CI profiler gate checks.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "runtime/engine.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/routing.hpp"
#include "runtime/synthetic.hpp"

namespace {

using namespace std::chrono_literals;
using ss::runtime::Mailbox;
using ss::runtime::Message;
using ss::runtime::Tuple;

void BM_MailboxSendReceive(benchmark::State& state) {
  Mailbox box(64);
  const Message m = Message::data(Tuple{}, 0, 1);
  Message out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(box.send(m, 1s));
    benchmark::DoNotOptimize(box.receive(out));
  }
}
BENCHMARK(BM_MailboxSendReceive);

void BM_MailboxPingPongThreads(benchmark::State& state) {
  // Producer thread + benchmark thread: the cross-thread hop cost.
  Mailbox request(64);
  Mailbox response(64);
  std::thread echo([&] {
    Message m;
    while (request.receive(m)) {
      if (m.kind == Message::Kind::kShutdown) break;
      response.send_unbounded(m);
    }
  });
  const Message m = Message::data(Tuple{}, 0, 1);
  Message out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(request.send(m, 1s));
    benchmark::DoNotOptimize(response.receive(out));
  }
  request.send_unbounded(Message::shutdown());
  echo.join();
}
BENCHMARK(BM_MailboxPingPongThreads);

void BM_MailboxTrySend(benchmark::State& state) {
  // The pooled scheduler's fast path: no blocking machinery touched.
  Mailbox box(64);
  const Message m = Message::data(Tuple{}, 0, 1);
  Message out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(box.try_send(m));
    benchmark::DoNotOptimize(box.try_receive(out));
  }
}
BENCHMARK(BM_MailboxTrySend);

void BM_MailboxTrySendBatch(benchmark::State& state) {
  // The output-staging hand-off: one credit reservation moves a whole
  // MessageBatch worth of messages.
  Mailbox box(64);
  Message msgs[ss::runtime::MessageBatch::kCapacity];
  for (auto& m : msgs) m = Message::data(Tuple{}, 0, 1);
  Message out;
  for (auto _ : state) {
    const std::size_t n =
        box.try_send_batch(msgs, ss::runtime::MessageBatch::kCapacity);
    for (std::size_t i = 0; i < n; ++i) box.try_receive(out);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_MailboxTrySendBatch);

void BM_EdgeRouterChoose(benchmark::State& state) {
  ss::Topology::Builder b;
  b.add_operator("src", 1e-3);
  for (int i = 0; i < 4; ++i) {
    b.add_operator("d" + std::to_string(i), 1e-3);
    b.add_edge(0, static_cast<ss::OpIndex>(i + 1), 0.25);
  }
  const ss::Topology t = b.build();
  ss::runtime::EdgeRouter router(t, 0);
  ss::Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.choose(rng));
  }
}
BENCHMARK(BM_EdgeRouterChoose);

void BM_ReplicaSelectorByKey(benchmark::State& state) {
  ss::KeyPartition partition = ss::partition_keys(ss::KeyDistribution::zipf(1024, 0.5), 8);
  auto selector = ss::runtime::ReplicaSelector::by_key(partition);
  ss::Rng rng(7);
  std::int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(key++, rng));
  }
}
BENCHMARK(BM_ReplicaSelectorByKey);

/// One run of the pipeline-hop workload: a `stages`-hop chain of
/// pass-through synthetic operators with near-zero service time pushes
/// `items` tuples end to end.  Returns the wall-clock seconds of the run.
double run_pipeline_hops(ss::runtime::SchedulerKind scheduler, int stages,
                         std::int64_t items, int workers, bool profile = false) {
  ss::Topology::Builder b;
  b.add_operator("src", 1e-6);
  for (int i = 0; i < stages; ++i) {
    b.add_operator("s" + std::to_string(i), 1e-7);
    b.add_edge(static_cast<ss::OpIndex>(i), static_cast<ss::OpIndex>(i + 1));
  }
  const ss::Topology t = b.build();
  ss::runtime::EngineConfig config;
  config.scheduler = scheduler;
  config.workers = workers;
  config.profile = profile;
  // Fold fast so the estimator reaches confidence and disarms within the
  // first few tens of milliseconds: the A/B measures the *disarmed*
  // steady-state overhead (thinned sampling), which is what a long
  // production run pays.  At the default 0.25 s period a ~0.2 s benchmark
  // run would spend itself entirely in the armed dense-sampling window.
  if (profile) config.profile_period = 0.02;
  ss::runtime::Engine engine(t, ss::runtime::Deployment{},
                             ss::runtime::synthetic_factory(0.0, items), config);
  const auto stats = engine.run_until_complete(std::chrono::duration<double>(60.0));
  return stats.total_seconds;
}

/// Full engine: N-stage pipeline; reports tuples/second through the whole
/// chain, i.e. the per-hop actor overhead fusion removes.  Runs on both
/// execution backends so the hop cost of the dedicated-thread and the
/// pooled scheduler can be compared directly.
void engine_pipeline_hops(benchmark::State& state, ss::runtime::SchedulerKind scheduler) {
  const auto stages = static_cast<int>(state.range(0));
  constexpr std::int64_t kItems = 20000;
  for (auto _ : state) {
    const double seconds = run_pipeline_hops(scheduler, stages, kItems, 0);
    state.counters["tuples/s"] =
        benchmark::Counter(static_cast<double>(kItems) / seconds);
    state.counters["hop_ns"] = benchmark::Counter(
        seconds * 1e9 / (static_cast<double>(kItems) * stages));
  }
}

void BM_EnginePipelineHops(benchmark::State& state) {
  engine_pipeline_hops(state, ss::runtime::SchedulerKind::kThreadPerActor);
}
BENCHMARK(BM_EnginePipelineHops)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_EnginePipelineHopsPooled(benchmark::State& state) {
  engine_pipeline_hops(state, ss::runtime::SchedulerKind::kPooled);
}
BENCHMARK(BM_EnginePipelineHopsPooled)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

/// The --profile=both comparison: the pooled pipeline-hop workload run
/// `kReps` times per side, best-of each.  "On" runs with a 20 ms fold
/// period so the estimator disarms almost immediately — the line CI parses
/// ("profile on vs off:") is therefore the *disarmed* overhead of the
/// online profiler, gated at <= 2%.
int run_profile_ab() {
  // AB_STAGES / AB_WORKERS / AB_ITEMS env overrides support local
  // experimentation; CI runs the defaults.
  const char* stages_env = std::getenv("AB_STAGES");
  const int kStages = stages_env != nullptr ? std::atoi(stages_env) : 4;
  const char* workers_env = std::getenv("AB_WORKERS");
  const int kWorkers = workers_env != nullptr ? std::atoi(workers_env) : 4;
  // Long runs and 7 reps: a 2% overhead gate needs the noise floor pushed
  // below the +-5% that 60k-item runs show.
  constexpr std::int64_t kDefaultItems = 150000;
  const char* items_env = std::getenv("AB_ITEMS");
  const std::int64_t kItems = items_env != nullptr ? std::atoll(items_env) : kDefaultItems;
  constexpr int kReps = 7;
  const auto one = [&](bool profile) {
    return run_pipeline_hops(ss::runtime::SchedulerKind::kPooled, kStages, kItems,
                             kWorkers, profile);
  };
  double off_best = 1e300;
  double on_best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    off_best = std::min(off_best, one(false));
    on_best = std::min(on_best, one(true));
  }
  // Best-of rather than a per-pair median: a 2% gate sits below this
  // workload's per-run scheduler noise (+-8% pair to pair), and best-of-N
  // suppresses one-sided hiccups that pairing cannot cancel.
  const double ratio = off_best / on_best;
  const double hops = static_cast<double>(kItems) * kStages;
  const double off_hop_ns = off_best * 1e9 / hops;
  const double on_hop_ns = on_best * 1e9 / hops;
  std::printf(
      "profiler A/B: pool engine, %d workers, %d-stage pipeline, %lld items, "
      "best of %d runs each\n",
      kWorkers, kStages, static_cast<long long>(kItems), kReps);
  std::printf("  profile off: %8.1f ns/hop  %12.0f tuples/s\n", off_hop_ns,
              static_cast<double>(kItems) / off_best);
  std::printf("  profile on:  %8.1f ns/hop  %12.0f tuples/s\n", on_hop_ns,
              static_cast<double>(kItems) / on_best);
  std::printf(
      "profile on vs off: %.2fx throughput (per-hop %.1f ns -> %.1f ns)\n",
      ratio, off_hop_ns, on_hop_ns);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args;
  bool profile_ab = false;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--profile=both") {
      profile_ab = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (profile_ab) return run_profile_ab();
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
