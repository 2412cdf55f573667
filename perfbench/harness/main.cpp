//===- harness/main.cpp - Benchmark entry point ---------------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Runs one workload (harness/workloads.h) and prints, as the last line of
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A run whose validity gate breaks reports no metrics and
// exits 1. The host block, every metric and, for traced runs, the spans
// are also written under --work-dir.
//
//===----------------------------------------------------------------------===//

#include "harness/trace.h"
#include "harness/workloads.h"

#include "support/benchjson.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>

using namespace perfbench;

namespace fs = std::filesystem;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n",
               Why);
  std::exit(2);
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// Metrics reported on untraced runs; the traced run reports the rest.
bool endToEnd(const std::string &Name) {
  static const std::set<std::string> E2E = {
      "setup_s", "qps", "query_p50_us", "query_p90_us", "peak_rss_mib"};
  return E2E.count(Name) != 0;
}

std::string metricsJson(const std::vector<Metric> &Ms, bool Trace,
                        bool Pretty) {
  std::string Out = "{";
  bool First = true;
  for (const Metric &M : Ms) {
    if (!Pretty && endToEnd(M.Name) == Trace)
      continue;
    Out += std::string(First ? "" : ", ") + (Pretty ? "\n  " : "") + "\"" +
           M.Name + "\": {\"value\": " + number(M.Value) + ", \"unit\": \"" +
           M.Unit + "\"}";
    First = false;
  }
  return Out + (Pretty ? "\n}" : "}");
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions O;
  bool HaveTrace = false, HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10), HaveSeed = true;
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str()), HaveSeconds = true;
    else if (A == "--trace")
      O.Trace = V == "1", HaveTrace = true;
    else if (A == "--work-dir")
      O.WorkDir = V;
    else
      usage(("unknown argument " + A).c_str());
  }
  const auto &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), O.Workload) == Names.end())
    usage("unknown or missing --workload");
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.WorkDir.empty() ||
      !(O.Seconds > 0))
    usage("--seed, --seconds, --trace and --work-dir are required");

  // One directory per workload and mode: a run replaces the last one's.
  const std::string Tag = O.Workload + (O.Trace ? "-trace" : "");
  const fs::path Work = fs::path(O.WorkDir) / Tag;
  std::error_code Ec;
  fs::remove_all(Work, Ec);
  fs::create_directories(Work, Ec);
  // Every cache the JIT touches (including its one-time toolchain probe)
  // stays inside the work directory.
  setenv("ETCH_JIT_CACHE", (Work / "jit-default").c_str(), 1);
  O.WorkDir = Work.string();

  tracer().setEnabled(O.Trace);
  RunReport R = runWorkload(O);
  tracer().setEnabled(false);

  for (const Metric &M : R.Metrics)
    if (!std::isfinite(M.Value))
      R.GateFailures.push_back("metric " + M.Name + " is not finite");
  for (const std::string &N : R.Notes)
    std::fprintf(stderr, "perfbench: %s\n", N.c_str());
  for (const std::string &G : R.GateFailures)
    std::fprintf(stderr, "perfbench: validity gate broken: %s\n", G.c_str());

  const bool GatesHold = R.GateFailures.empty();
  std::string Record = "{\"workload\": \"" + O.Workload +
                       "\", \"seed\": " + std::to_string(O.Seed) +
                       ", \"seconds\": " + number(O.Seconds) +
                       ", \"trace\": " + (O.Trace ? "true" : "false") +
                       ",\n \"host\": " + etch::BenchJson::hostJson() +
                       ",\n \"attempted\": " + std::to_string(R.Attempted) +
                       ", \"failed\": " + std::to_string(R.Failed) +
                       ", \"gates_hold\": " + (GatesHold ? "true" : "false") +
                       ",\n \"metrics\": " +
                       metricsJson(R.Metrics, O.Trace, true) +
                       ",\n \"details\": " +
                       metricsJson(R.Details, O.Trace, true) +
                       "}\n";
  if (std::FILE *F = std::fopen((Work / "run.json").c_str(), "w")) {
    std::fputs(Record.c_str(), F);
    std::fclose(F);
  }
  if (O.Trace && !tracer().writeJson((Work / "spans.json").string()))
    std::fprintf(stderr, "perfbench: could not write spans\n");
  fs::remove_all(Work / "jit-default", Ec);
  std::fprintf(stderr, "perfbench: host %s\n",
               etch::BenchJson::hostJson().c_str());

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.correct() ? "true" : "false",
              (unsigned long long)std::max<uint64_t>(R.Attempted, 1),
              (unsigned long long)R.Failed,
              GatesHold ? metricsJson(R.Metrics, O.Trace, false).c_str()
                        : "{}");
  std::fflush(stdout);
  return GatesHold ? 0 : 1;
}
