//===- harness/workloads.h - The benchmark's workloads ---------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four closed-loop workloads against one in-process
/// `ContractionService` (see README.md for why each exists):
///
///   serve_hot    warm reads of four shapes on bench_serve's tensors
///   serve_large  the same shapes on data that outgrows L2
///   serve_rw     serve_hot's reads plus live views and scheduled writes
///   adhoc_cold   a seeded stream of never-seen shapes, one query each
///
/// A run sets the workload up three times (reporting the median set-up),
/// each from a fresh process state — two in child processes, the last in
/// this one — then drives the last set-up for the requested seconds, checks every answer
/// against the plain-loop oracle and the workload's validity gates, and
/// reports the end-to-end metrics. A traced run drives the same traffic
/// with spans toggled on and off in alternating blocks (the difference is
/// the tracing overhead) and then runs the layer probes (probes.h).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_WORKLOADS_H
#define PERFBENCH_HARNESS_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string WorkDir; ///< Scratch space: JIT caches, span dumps.
};

struct RunReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;   ///< Errors plus answers that missed the oracle.
  std::vector<std::string> GateFailures; ///< Broken validity gates.
  std::vector<std::string> Notes;        ///< Diagnostics for stderr.
  std::vector<Metric> Metrics;
  /// Supporting figures for the run record only (per-shape percentiles
  /// and sample counts); never part of the printed result.
  std::vector<Metric> Details;

  bool correct() const { return Failed == 0 && GateFailures.empty(); }
  void fail(std::string Why) {
    ++Failed;
    if (Notes.size() < 20)
      Notes.push_back(std::move(Why));
  }
  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

const std::vector<std::string> &workloadNames();

RunReport runWorkload(const RunOptions &O);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_WORKLOADS_H
