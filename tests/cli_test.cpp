// Tests of the spinstreams CLI: every command exercised against a
// temporary XML description, exit codes and key output fragments checked.
#include "cli/cli.hpp"

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

namespace ss::cli {
namespace {

constexpr const char* kTopologyXml = R"(<?xml version="1.0"?>
<topology name="t">
  <operator name="src"  impl="source" service-time="1"   time-unit="ms"/>
  <operator name="slow" impl="map_affine" service-time="2.5" time-unit="ms"/>
  <operator name="tail_a" impl="clamp" service-time="0.2" time-unit="ms"/>
  <operator name="tail_b" impl="sink" service-time="0.3" time-unit="ms"/>
  <edge from="src" to="slow"/>
  <edge from="slow" to="tail_a"/>
  <edge from="tail_a" to="tail_b"/>
</topology>
)";

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test: parallel ctest runs each test as its own process,
    // and a shared path would let one SetUp truncate the XML while
    // another test is still parsing it.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + "/cli_topology_" + info->name() + ".xml";
    std::ofstream file(path_);
    file << kTopologyXml;
  }

  /// Runs the CLI with the given arguments (file path appended when
  /// `with_file`), returning {exit code, stdout, stderr}.
  std::tuple<int, std::string, std::string> run(std::vector<std::string> argv,
                                                bool with_file = true) {
    argv.insert(argv.begin(), "spinstreams");
    if (with_file) argv.insert(argv.begin() + 2, path_);
    std::vector<const char*> raw;
    raw.reserve(argv.size());
    for (const std::string& a : argv) raw.push_back(a.c_str());
    std::ostringstream out;
    std::ostringstream err;
    const int code = run_cli(static_cast<int>(raw.size()), raw.data(), out, err);
    return {code, out.str(), err.str()};
  }

  std::string path_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  auto [code, out, err] = run({"help"}, false);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("usage:"), std::string::npos);

  auto [bad_code, bad_out, bad_err] = run({"frobnicate"}, false);
  EXPECT_EQ(bad_code, 2);
  EXPECT_NE(bad_err.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, NoArgumentsPrintsUsage) {
  const char* argv[] = {"spinstreams"};
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_cli(1, argv, out, err), 2);
  EXPECT_NE(err.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, Validate) {
  auto [code, out, err] = run({"validate"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("OK"), std::string::npos);
}

TEST_F(CliTest, ValidateMissingFile) {
  auto [code, out, err] = run({"validate", "/nonexistent/x.xml"}, false);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("error:"), std::string::npos);
}

TEST_F(CliTest, AnalyzeReportsBottleneck) {
  auto [code, out, err] = run({"analyze"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("slow"), std::string::npos);
  EXPECT_NE(out.find("bottleneck"), std::string::npos);
  EXPECT_NE(out.find("400.0 tuples/s"), std::string::npos);  // 1000/2.5
}

TEST_F(CliTest, AnalyzeWithLatency) {
  auto [code, out, err] = run({"analyze", "--latency"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("end-to-end latency"), std::string::npos);
}

TEST_F(CliTest, OptimizeAddsReplicas) {
  auto [code, out, err] = run({"optimize"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("total replicas: 6 (+2)"), std::string::npos) << out;
  EXPECT_NE(out.find("reaches the ideal"), std::string::npos);
}

TEST_F(CliTest, OptimizeWithBudget) {
  auto [code, out, err] = run({"optimize", "--max-replicas=5"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("total replicas: 5"), std::string::npos) << out;
}

TEST_F(CliTest, CandidatesListsIdleTail) {
  auto [code, out, err] = run({"candidates", "--threshold=0.6"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("tail_a,tail_b"), std::string::npos) << out;
}

TEST_F(CliTest, FuseByNames) {
  auto [code, out, err] = run({"fuse", "--members=tail_a,tail_b", "--name=tail"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("fused service time: 0.50 ms"), std::string::npos) << out;
  EXPECT_NE(out.find("feasible"), std::string::npos);
}

TEST_F(CliTest, FuseRejectsUnknownMember) {
  auto [code, out, err] = run({"fuse", "--members=ghost,tail_b"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("unknown operator"), std::string::npos);
}

TEST_F(CliTest, FuseAlertExitCode) {
  // Fusing src's busy successor with the tail saturates: exit code 1.
  auto [code, out, err] = run({"fuse", "--members=slow,tail_a,tail_b"});
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find("ALERT"), std::string::npos);
}

TEST_F(CliTest, SimulateComparesToModel) {
  auto [code, out, err] = run({"simulate", "--duration=40"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("model predicts 400.0"), std::string::npos) << out;
  EXPECT_NE(out.find("error"), std::string::npos);
}

TEST_F(CliTest, SimulateOptimized) {
  auto [code, out, err] = run({"simulate", "--duration=40", "--optimize"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("model predicts 1000.0"), std::string::npos) << out;
}

TEST_F(CliTest, CodegenWritesProgram) {
  const std::string out_path = ::testing::TempDir() + "/cli_generated.cpp";
  auto [code, out, err] = run({"codegen", "--out=" + out_path});
  EXPECT_EQ(code, 0) << err;
  std::ifstream file(out_path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_NE(buffer.str().find("int main()"), std::string::npos);
  EXPECT_NE(buffer.str().find("ss::runtime::Engine"), std::string::npos);
}

TEST_F(CliTest, AutoOptimizeEndToEnd) {
  const std::string out_path = ::testing::TempDir() + "/cli_auto.cpp";
  auto [code, out, err] = run({"auto", "--out=" + out_path});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("replicas added: 2"), std::string::npos) << out;
  EXPECT_NE(out.find("fusions applied"), std::string::npos) << out;
  EXPECT_NE(out.find("tail_a"), std::string::npos);
  std::ifstream file(out_path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_NE(buffer.str().find("deployment.fusions.push_back"), std::string::npos);
}

TEST_F(CliTest, WhatIfExploresHypotheticals) {
  // Halving the bottleneck's service time doubles the predicted rate.
  auto [code, out, err] = run({"whatif", "--set=slow=1.25"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("-- what-if --"), std::string::npos);
  EXPECT_NE(out.find("800.0 tuples/s"), std::string::npos) << out;
  EXPECT_NE(out.find("+400.0 tuples/s (100.0%)"), std::string::npos) << out;

  // Replicas instead of faster code.
  auto [rcode, rout, rerr] = run({"whatif", "--replicas=slow=3"});
  EXPECT_EQ(rcode, 0) << rerr;
  EXPECT_NE(rout.find("1000.0 tuples/s"), std::string::npos) << rout;

  auto [bad, bout, berr] = run({"whatif", "--set=ghost=1"});
  EXPECT_EQ(bad, 1);
  EXPECT_NE(berr.find("unknown operator"), std::string::npos);
}

TEST_F(CliTest, ProfileReplacesDeclaredTimes) {
  const std::string out_path = ::testing::TempDir() + "/cli_profiled.xml";
  auto [code, out, err] = run({"profile", "--items=500", "--save-xml=" + out_path});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("measured (us)"), std::string::npos);
  EXPECT_NE(out.find("re-annotated analysis"), std::string::npos);
  // The annotated description must load and validate.
  auto [vcode, vout, verr] = run({"validate", out_path}, false);
  EXPECT_EQ(vcode, 0) << verr;
}

TEST_F(CliTest, RunExecutesOnBothRuntimeBackends) {
  auto [code, out, err] = run({"run", "--seconds=0.4"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("src"), std::string::npos);

  auto [pcode, pout, perr] = run({"run", "--engine=pool", "--workers=2", "--seconds=0.4"});
  EXPECT_EQ(pcode, 0) << perr;
  EXPECT_NE(pout.find("src"), std::string::npos);
}

TEST_F(CliTest, PoolRunReportsLatencyColumns) {
  auto [code, out, err] =
      run({"run", "--engine=pool", "--workers=2", "--batch=16", "--seconds=0.5"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("p50 ms"), std::string::npos) << out;
  EXPECT_NE(out.find("p99 ms"), std::string::npos) << out;
  EXPECT_NE(out.find("end-to-end latency"), std::string::npos) << out;
}

TEST_F(CliTest, RunRejectsUnknownEngine) {
  auto [code, out, err] = run({"run", "--engine=quantum", "--seconds=0.1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("unknown engine"), std::string::npos);
}

TEST_F(CliTest, RunRejectsNonPositiveWorkerAndBatchCounts) {
  auto [wcode, wout, werr] = run({"run", "--engine=pool", "--workers=0", "--seconds=0.1"});
  EXPECT_EQ(wcode, 1);
  EXPECT_NE(werr.find("--workers"), std::string::npos) << werr;

  auto [bcode, bout, berr] = run({"run", "--engine=pool", "--batch=-4", "--seconds=0.1"});
  EXPECT_EQ(bcode, 1);
  EXPECT_NE(berr.find("--batch"), std::string::npos) << berr;

  // A bogus count fails even on a backend that would ignore the flag.
  auto [tcode, tout, terr] = run({"run", "--workers=0", "--seconds=0.1"});
  EXPECT_EQ(tcode, 1);
  EXPECT_NE(terr.find("--workers"), std::string::npos) << terr;
}

TEST_F(CliTest, RunRejectsMalformedNumericFlags) {
  auto [code, out, err] = run({"run", "--engine=pool", "--workers=many", "--seconds=0.1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("expected an integer"), std::string::npos) << err;

  auto [pcode, pout, perr] = run({"run", "--reconfig-period=0", "--seconds=0.1"});
  EXPECT_EQ(pcode, 1);
  EXPECT_NE(perr.find("--reconfig-period"), std::string::npos) << perr;
}

TEST_F(CliTest, ElasticRejectedUnderSimBackend) {
  auto [code, out, err] = run({"simulate", "--elastic", "--duration=1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--elastic needs a live runtime"), std::string::npos) << err;
}

TEST_F(CliTest, ElasticRunPrintsControllerDecisions) {
  auto [code, out, err] =
      run({"run", "--elastic", "--reconfig-period=0.2", "--seconds=0.8"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("controller decisions:"), std::string::npos) << out;
}

TEST_F(CliTest, SimulateReportsVirtualTimeLatencyPercentiles) {
  auto [code, out, err] = run({"simulate", "--duration=40"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("p99 ms"), std::string::npos) << out;
  EXPECT_NE(out.find("simulated end-to-end latency"), std::string::npos) << out;
}

TEST_F(CliTest, SimulateRedirectsToRuntimeEngine) {
  // The unified execution path: `simulate --engine=pool` runs the real
  // runtime instead of the DES.
  auto [code, out, err] = run({"simulate", "--engine=pool", "--workers=2", "--seconds=0.4"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_EQ(out.find("simulated throughput"), std::string::npos);
  EXPECT_NE(out.find("src"), std::string::npos);
}

TEST_F(CliTest, RunRejectsUnwritableTelemetryPaths) {
  // Both sinks are probed before any tuple flows: a bad path must fail
  // fast instead of discarding a completed run at flush time.
  auto [tcode, tout, terr] =
      run({"run", "--seconds=0.1", "--trace=/nonexistent-dir/trace.json"});
  EXPECT_EQ(tcode, 1);
  EXPECT_NE(terr.find("cannot write trace file"), std::string::npos) << terr;

  auto [mcode, mout, merr] =
      run({"run", "--seconds=0.1", "--metrics-out=/nonexistent-dir/m.jsonl"});
  EXPECT_EQ(mcode, 1);
  EXPECT_NE(merr.find("cannot write metrics file"), std::string::npos) << merr;
}

TEST_F(CliTest, RunRejectsNonPositiveMetricsPeriod) {
  auto [code, out, err] = run({"run", "--seconds=0.1", "--metrics-out=" +
                                   ::testing::TempDir() + "/cli_period.jsonl",
                               "--metrics-period=0"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--metrics-period must be positive"), std::string::npos) << err;
}

TEST_F(CliTest, TelemetryFlagsRejectedUnderSimBackend) {
  // The DES has no wall-clock threads to trace or sample.
  auto [tcode, tout, terr] = run({"simulate", "--duration=1", "--trace=t.json"});
  EXPECT_EQ(tcode, 1);
  EXPECT_NE(terr.find("need a live runtime"), std::string::npos) << terr;

  auto [mcode, mout, merr] =
      run({"simulate", "--duration=1", "--metrics-out=m.jsonl"});
  EXPECT_EQ(mcode, 1);
  EXPECT_NE(merr.find("need a live runtime"), std::string::npos) << merr;
}

TEST_F(CliTest, TracedRunWritesChromeJsonAndMetricsJsonl) {
  const std::string trace_path = ::testing::TempDir() + "/cli_trace.json";
  const std::string metrics_path = ::testing::TempDir() + "/cli_metrics.jsonl";
  auto [code, out, err] =
      run({"run", "--engine=pool", "--workers=2", "--seconds=0.5",
           "--trace=" + trace_path, "--metrics-out=" + metrics_path,
           "--metrics-period=0.1"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("trace:"), std::string::npos) << out;
  EXPECT_NE(out.find("metrics:"), std::string::npos) << out;
  // The rho/blk/q_hi telemetry columns appear in the per-operator table.
  EXPECT_NE(out.find("rho"), std::string::npos) << out;
  EXPECT_NE(out.find("q_hi"), std::string::npos) << out;

  std::ifstream trace_file(trace_path);
  std::stringstream trace_buf;
  trace_buf << trace_file.rdbuf();
  EXPECT_NE(trace_buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_buf.str().find("thread_name"), std::string::npos);

  std::ifstream metrics_file(metrics_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(metrics_file, line)) {
    if (line.empty()) continue;
    ++lines;
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"ops\":["), std::string::npos) << line;
  }
  EXPECT_GE(lines, 2u);  // >= 0.5s run at 0.1s period, plus the final sample
}

// ---------------------------------------------------------------------------
// Latency-aware optimization flags (--slo-p99, --objective).

TEST_F(CliTest, AutoAcceptsSloAndObjectiveFlags) {
  auto [code, out, err] = run({"auto", "--slo-p99=50", "--objective=latency"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("slo: p99"), std::string::npos) << out;
  EXPECT_NE(out.find("-> met"), std::string::npos) << out;
  // The latency objective overshoots ceil(rho) on this bottlenecked
  // pipeline (slow at rho 2.5 is left near saturation by pure fission).
  EXPECT_NE(out.find("latency overshoot:"), std::string::npos) << out;
}

TEST_F(CliTest, AutoReportsInfeasibleSlo) {
  // 0.1 ms is below the pipeline's bare service time: no deployment can
  // meet it and the CLI must say so rather than pretend.
  auto [code, out, err] = run({"auto", "--slo-p99=0.1"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("INFEASIBLE (best effort deployed)"), std::string::npos) << out;
}

TEST_F(CliTest, RejectsNonPositiveSlo) {
  auto [zcode, zout, zerr] = run({"auto", "--slo-p99=0"});
  EXPECT_EQ(zcode, 1);
  EXPECT_NE(zerr.find("--slo-p99 must be positive"), std::string::npos) << zerr;

  auto [ncode, nout, nerr] = run({"run", "--seconds=0.1", "--slo-p99=-5"});
  EXPECT_EQ(ncode, 1);
  EXPECT_NE(nerr.find("--slo-p99 must be positive"), std::string::npos) << nerr;
}

TEST_F(CliTest, RejectsUnknownObjective) {
  auto [code, out, err] = run({"auto", "--objective=speed"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--objective must be"), std::string::npos) << err;

  auto [scode, sout, serr] = run({"simulate", "--duration=1", "--objective=speed"});
  EXPECT_EQ(scode, 1);
  EXPECT_NE(serr.find("--objective must be"), std::string::npos) << serr;
}

TEST_F(CliTest, SimulatePrintsPredictedLatencyNextToMeasured) {
  auto [code, out, err] = run({"simulate", "--duration=40", "--slo-p99=100"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("pred (ms)"), std::string::npos) << out;
  EXPECT_NE(out.find("pred p99"), std::string::npos) << out;
  EXPECT_NE(out.find("predicted end-to-end latency:"), std::string::npos) << out;
  EXPECT_NE(out.find("slo: measured p99"), std::string::npos) << out;
}

TEST_F(CliTest, RunPrintsPredictedLatencyNextToMeasured) {
  auto [code, out, err] = run({"run", "--seconds=0.4", "--slo-p99=100"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("pred ms"), std::string::npos) << out;
  EXPECT_NE(out.find("pred p99"), std::string::npos) << out;
  EXPECT_NE(out.find("predicted end-to-end:"), std::string::npos) << out;
  EXPECT_NE(out.find("slo: measured p99"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// Checkpointing & recovery flags (--checkpoint-dir, --checkpoint-period,
// --recover, --items).

TEST_F(CliTest, RunRejectsUnwritableCheckpointDir) {
  // A plain file where the directory should go: validated at startup, not
  // at the first fence.
  const std::string blocker = ::testing::TempDir() + "/cli_ckpt_blocker";
  std::ofstream(blocker) << "not a directory";
  auto [code, out, err] =
      run({"run", "--seconds=0.1", "--checkpoint-dir=" + blocker});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("checkpoint: cannot create directory"), std::string::npos) << err;
}

TEST_F(CliTest, RunRejectsNonPositiveCheckpointPeriod) {
  const std::string dir = ::testing::TempDir() + "/cli_ckpt_period";
  auto [code, out, err] = run({"run", "--seconds=0.1", "--checkpoint-dir=" + dir,
                               "--checkpoint-period=0"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--checkpoint-period must be positive"), std::string::npos) << err;
}

TEST_F(CliTest, CheckpointPeriodAndRecoverRequireDir) {
  auto [pcode, pout, perr] = run({"run", "--seconds=0.1", "--checkpoint-period=1"});
  EXPECT_EQ(pcode, 1);
  EXPECT_NE(perr.find("--checkpoint-period requires --checkpoint-dir"),
            std::string::npos)
      << perr;

  auto [rcode, rout, rerr] = run({"run", "--seconds=0.1", "--recover"});
  EXPECT_EQ(rcode, 1);
  EXPECT_NE(rerr.find("--recover requires --checkpoint-dir"), std::string::npos) << rerr;
}

TEST_F(CliTest, CheckpointFlagsRejectedUnderSimBackend) {
  // The DES has no live actor graph to fence or restore.
  for (const std::string flag :
       {std::string("--checkpoint-dir=/tmp/x"), std::string("--checkpoint-period=1"),
        std::string("--recover"), std::string("--items=100")}) {
    auto [code, out, err] = run({"simulate", "--duration=1", flag});
    EXPECT_EQ(code, 1) << flag;
    EXPECT_NE(err.find("need a live runtime"), std::string::npos) << flag << ": " << err;
  }
}

TEST_F(CliTest, RunRejectsNonPositiveItems) {
  auto [code, out, err] = run({"run", "--items=0"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--items must be a positive integer"), std::string::npos) << err;
}

TEST_F(CliTest, CheckpointedRunPrintsFooterAndWritesFinalSnapshot) {
  const std::string dir = ::testing::TempDir() + "/cli_ckpt_run_" +
                          ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  auto [code, out, err] = run({"run", "--items=1500", "--seconds=20",
                               "--checkpoint-dir=" + dir, "--checkpoint-period=0.1"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("checkpoints:"), std::string::npos) << out;
  std::ifstream final_file(dir + "/final.bin", std::ios::binary);
  EXPECT_TRUE(final_file.good());
}

TEST_F(CliTest, RecoverOnEmptyDirStartsFresh) {
  // A crash before the first snapshot must be restartable with the exact
  // same command line: an empty directory is a fresh start, not an error.
  const std::string dir = ::testing::TempDir() + "/cli_ckpt_fresh_" +
                          ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::filesystem::remove_all(dir);
  auto [code, out, err] = run({"run", "--items=500", "--seconds=20", "--recover",
                               "--checkpoint-dir=" + dir});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("recover: no valid checkpoint"), std::string::npos) << out;
}

TEST_F(CliTest, PinAndMailboxRejectedUnderSimBackend) {
  // The simulator has no worker threads to configure.
  auto [pcode, pout, perr] = run({"run", "--engine=sim", "--pin=cores"});
  EXPECT_EQ(pcode, 1);
  EXPECT_NE(perr.find("--pin configures the live runtime"), std::string::npos) << perr;

  auto [mcode, mout, merr] = run({"simulate", "--pin=cores", "--duration=1"});
  EXPECT_EQ(mcode, 1);
  EXPECT_NE(merr.find("--pin configures the live runtime"), std::string::npos) << merr;
}

TEST_F(CliTest, PinRequiresThePoolEngine) {
  // Dedicated-thread actors are scheduled by the OS; only pool workers pin.
  auto [code, out, err] = run({"run", "--pin=cores", "--seconds=0.1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--pin maps pool workers onto CPUs"), std::string::npos) << err;
}

TEST_F(CliTest, RunRejectsUnknownPinMode) {
  auto [code, out, err] =
      run({"run", "--engine=pool", "--pin=diagonal", "--seconds=0.1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("unknown pin mode"), std::string::npos) << err;
}

TEST_F(CliTest, PinnedPoolRunExecutes) {
  // --pin=cores and --pin=sockets must run end to end on any host: when
  // affinity syscalls are unavailable the runtime warns and continues
  // unpinned rather than failing the run.
  for (const char* mode : {"cores", "sockets", "none"}) {
    auto [code, out, err] = run({"run", "--engine=pool", "--workers=2",
                                 std::string("--pin=") + mode, "--seconds=0.3"});
    EXPECT_EQ(code, 0) << "--pin=" << mode << ": " << err;
    EXPECT_NE(out.find("src"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Online profiler + live stats endpoint flags

/// Asks the kernel for a free loopback port (bind 0, read back, close).
int free_loopback_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const int port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Minimal HTTP/1.0 GET against 127.0.0.1:`port`; whole response or "".
std::string loopback_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return {};
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const auto n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(CliTest, RunRejectsMalformedStatsPort) {
  auto [zcode, zout, zerr] = run({"run", "--stats-port=0", "--seconds=0.1"});
  EXPECT_EQ(zcode, 1);
  EXPECT_NE(zerr.find("--stats-port must be a port number"), std::string::npos) << zerr;

  auto [hcode, hout, herr] = run({"run", "--stats-port=99999", "--seconds=0.1"});
  EXPECT_EQ(hcode, 1);
  EXPECT_NE(herr.find("--stats-port must be a port number"), std::string::npos) << herr;
}

TEST_F(CliTest, RunFailsFastWhenStatsPortIsTaken) {
  // Occupy a port, then ask the run to serve on it: the server binds in
  // its constructor, before any actor thread starts, so the run must fail
  // up front with a bind error instead of executing without the endpoint.
  const int port = free_loopback_port();
  const int holder = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(holder, 1), 0);

  auto [code, out, err] =
      run({"run", "--stats-port=" + std::to_string(port), "--seconds=0.1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("cannot bind 127.0.0.1:" + std::to_string(port)),
            std::string::npos)
      << err;
  ::close(holder);
}

TEST_F(CliTest, StatsPortAndProfileRejectedUnderSimBackend) {
  auto [scode, sout, serr] =
      run({"simulate", "--duration=1", "--stats-port=19876"});
  EXPECT_EQ(scode, 1);
  EXPECT_NE(serr.find("need a live runtime"), std::string::npos) << serr;

  auto [pcode, pout, perr] = run({"simulate", "--duration=1", "--profile=off"});
  EXPECT_EQ(pcode, 1);
  EXPECT_NE(perr.find("need a live runtime"), std::string::npos) << perr;
}

TEST_F(CliTest, RunRejectsUnknownProfileMode) {
  auto [code, out, err] = run({"run", "--profile=banana", "--seconds=0.1"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--profile must be 'on' or 'off'"), std::string::npos) << err;
}

TEST_F(CliTest, ProfileToggleControlsTheEstimatorBlock) {
  // On (the default): the pooled run prints estimated service rates.
  auto [code, out, err] =
      run({"run", "--engine=pool", "--workers=2", "--seconds=0.6"});
  EXPECT_EQ(code, 0) << err;
  EXPECT_NE(out.find("profiler: estimated non-blocking service rates"),
            std::string::npos)
      << out;

  // Off: the estimator is never constructed, so the block cannot appear.
  auto [ocode, oout, oerr] =
      run({"run", "--engine=pool", "--workers=2", "--seconds=0.6", "--profile=off"});
  EXPECT_EQ(ocode, 0) << oerr;
  EXPECT_EQ(oout.find("profiler:"), std::string::npos) << oout;
}

TEST_F(CliTest, StatsPortServesJsonAndPrometheusDuringTheRun) {
  const int port = free_loopback_port();
  std::tuple<int, std::string, std::string> result;
  std::thread runner([&] {
    result = run({"run", "--engine=pool", "--workers=2", "--seconds=1.5",
                  "--stats-port=" + std::to_string(port)});
  });
  // Poll until the endpoint answers (the server starts with the engine).
  std::string json;
  for (int i = 0; i < 40 && json.find("\"ops\":[") == std::string::npos; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    json = loopback_get(port, "/stats.json");
  }
  const std::string prom = loopback_get(port, "/metrics");
  const std::string missing = loopback_get(port, "/bogus");
  runner.join();

  EXPECT_EQ(std::get<0>(result), 0) << std::get<2>(result);
  EXPECT_NE(std::get<1>(result).find("stats: served http://127.0.0.1:"),
            std::string::npos);
  EXPECT_NE(json.find("200 OK"), std::string::npos) << json.substr(0, 200);
  EXPECT_NE(json.find("\"name\":\"src\""), std::string::npos);
  EXPECT_NE(json.find("\"sched\":{"), std::string::npos);
  EXPECT_NE(prom.find("ss_op_processed_total{op=\"src\"}"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE ss_epoch gauge"), std::string::npos);
  EXPECT_NE(missing.find("404"), std::string::npos);

  // After the run the socket is closed: the endpoint must not outlive it.
  EXPECT_TRUE(loopback_get(port, "/stats.json").empty());
}

TEST_F(CliTest, MultiTenantRunRejectsStatsPort) {
  auto [code, out, err] =
      run({"run", "--app=" + path_, "--app=" + path_, "--seconds=0.1",
           "--stats-port=19321"},
          false);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--stats-port serves a single engine"), std::string::npos)
      << err;
}

TEST_F(CliTest, GenerateProducesLoadableXml) {
  const std::string out_path = ::testing::TempDir() + "/cli_random.xml";
  auto [code, out, err] = run({"generate", "--seed=9", "--out=" + out_path}, false);
  EXPECT_EQ(code, 0) << err;
  // The generated description must round-trip through validate.
  auto [vcode, vout, verr] = run({"validate", out_path}, false);
  EXPECT_EQ(vcode, 0) << verr;
}

}  // namespace
}  // namespace ss::cli
