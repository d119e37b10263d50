// spinbench: runs one benchmark workload per process (so peak RSS is per
// workload) and prints one JSON object as the last line of stdout.
//
//   spinbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs the workload
// once plain and once more traced (engine metrics export on, benchmark spans
// recorded), then the per-layer probes, writes DIR/trace_<NAME>.json and
// reports the per-layer metrics: each layer as the workload itself
// exercised it, else as its fixed-size probe measured it.  Progress goes
// to stderr.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* error) {
  std::fprintf(stderr,
               "spinbench: %s\nusage: spinbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work DIR\n",
               error);
  return 2;
}

void print_table(const char* title, const spinbench::Metrics& metrics) {
  std::fprintf(stderr, "  %s\n", title);
  for (const auto& [name, m] : metrics) {
    std::fprintf(stderr, "    %-42s %14.6g %-8s", name.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::fprintf(stderr, " (n=%lld)", static_cast<long long>(m.samples));
    std::fprintf(stderr, "\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spinbench;
  std::string workload;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string arg = argv[i + 1];
    try {
      if (flag == "--workload") {
        workload = arg;
      } else if (flag == "--seed") {
        options.seed = std::stoull(arg);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(arg);
      } else if (flag == "--trace") {
        options.trace = arg == "1";
      } else if (flag == "--work") {
        options.work_dir = arg;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return usage("flags take one value each");
  if (workload.empty() || options.work_dir.empty()) {
    return usage("--workload and --work are required");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 120.0)) {
    return usage("--seconds must be in (0, 120]");
  }

  try {
    std::filesystem::create_directories(options.work_dir);
    Tracer tracer;
    if (options.trace) options.tracer = &tracer;
    (void)now_ns();  // pin the time origin before any measurement

    std::fprintf(stderr, "spinbench: %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
                 static_cast<unsigned long long>(options.seed), options.seconds,
                 options.trace ? 1 : 0);
    const WorkloadResult result = run_workload(workload, options);
    Metrics reported = result.end_to_end;
    std::string trace_file;
    if (options.trace) {
      reported = run_probes(options);
      for (const auto& [name, m] : result.detail) reported[name] = m;
      reported["trace.overhead_pct"] = metric(result.trace_overhead_pct, "%");
      trace_file = options.work_dir + "/trace_" + workload + ".json";
      tracer.write(trace_file);
    }

    const Accounting& acc = result.accounting;
    print_table("end to end", result.end_to_end);
    if (options.trace) {
      print_table("per layer", reported);
    } else {
      print_table("layers exercised", result.detail);
    }
    std::fprintf(stderr, "  tuples/topologies: %lld generated, %lld lost, %lld duplicated, "
                 "%lld wrong, %lld dropped\n",
                 static_cast<long long>(acc.generated), static_cast<long long>(acc.lost),
                 static_cast<long long>(acc.duplicated), static_cast<long long>(acc.wrong),
                 static_cast<long long>(acc.dropped));

    std::cout << "{\"workload\": " << json_string(workload) << ", \"seed\": " << options.seed
              << ", \"trace\": " << (options.trace ? 1 : 0)
              << ", \"correct\": " << (acc.failed() == 0 && acc.generated > 0 ? "true" : "false")
              << ", \"attempted\": " << acc.generated << ", \"failed\": " << acc.failed()
              << ", \"accounting\": {\"lost\": " << acc.lost
              << ", \"duplicated\": " << acc.duplicated << ", \"wrong\": " << acc.wrong
              << ", \"dropped\": " << acc.dropped << "}"
              << ", \"metrics\": " << to_json(reported)
              << ", \"end_to_end\": " << to_json(result.end_to_end)
              << ", \"trace_file\": " << json_string(trace_file) << "}" << std::endl;
    return acc.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spinbench: %s: %s\n", workload.c_str(), e.what());
    return 2;
  }
}
