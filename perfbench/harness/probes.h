//===- harness/probes.h - Per-layer probes for traced runs -----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's layer probes: after the workload's traffic, each layer
/// is called directly through its public functions on the workload's own
/// data, inside spans, and the per-layer metrics are read off the spans:
///
///   serve      query() minus executePlan() on a prepared plan, per shape
///   planner    enumeratePlans, and every enumerated plan compiled, JIT'd
///              and timed, so the chosen plan's regret is measured
///   compiler   realize + lower, bytecode, C emission (size), jitCompile
///   kernels    executePlan next to the hand-written src/baselines kernels
///   prepare    rebindPlan(…, Force=true)
///   catalog    appendCsr, then statsOfCsr on the successor, on a scratch
///              catalog
///   ivm        MaintenanceDriver::onAppendCsr over that catalog with
///              serve_rw's scalar view (and, on serve_rw, its grouped view)
///   serve      writes through a probe service with the same views, and
///              the first query of each shape reading A after each write
///
/// (The first answer of each serve shape, serve.cold_query_us, is timed
/// in the set-ups, which start from a fresh process state; see
/// workloads.cpp.)
///
/// Every probe answer is checked against the plain-loop oracle.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_PROBES_H
#define PERFBENCH_HARNESS_PROBES_H

#include "harness/data.h"
#include "harness/workloads.h"
#include "serve/service.h"

#include <string>

namespace perfbench {

struct ProbeInputs {
  const Dataset &Data;
  etch::ContractionService &Svc; ///< The workload's warmed service.
  etch::ServeOptions Opts;       ///< Options for probe-owned services.
  std::string JitDir;            ///< Fresh directory for probe compiles.
  uint64_t Seed = 1;
  /// Register serve_rw's grouped view on the write probe's service too.
  /// Off elsewhere: its K-relation build is quadratic in the operands, far
  /// too slow for serve_large's matrix.
  bool GroupedView = false;
};

/// Runs every layer probe, appending per-layer metrics to \p Out.
void runLayerProbes(const ProbeInputs &In, RunReport &Out);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_PROBES_H
