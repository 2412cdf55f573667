//===- harness/stats.h - Percentile and aggregation rules ------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's summary statistics. Latency percentiles are taken per
/// query shape and only where the sample supports them: a percentile q of
/// n samples is reported only when at least `MinBeyond` (10) samples lie
/// beyond it, so p90 needs n >= 100. Shapes are then combined by the
/// geometric mean, never by pooling samples: shapes span three orders of
/// magnitude, and a pooled median lands on whichever mode happens to
/// straddle the middle rank.
///
/// Latencies are kept in fixed-size uniform samples (`Reservoir`), so the
/// memory the benchmark holds does not grow with the number of operations
/// a run completes, and no latency is dropped in favour of earlier ones.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_STATS_H
#define PERFBENCH_HARNESS_STATS_H

#include "support/rng.h"

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr size_t MinBeyond = 10;

/// The 1-based nearest rank of quantile \p Q (0 < Q <= 1) among \p N
/// samples: ceil(Q * N), clamped to [1, N].
size_t nearestRank(size_t N, double Q);

/// The nearest-rank percentile \p Q of \p Samples (any order), or nullopt
/// when fewer than MinBeyond samples would lie beyond it.
std::optional<double> percentile(std::vector<double> Samples, double Q);

/// Geometric mean of positive values; nullopt when empty or any value is
/// not positive.
std::optional<double> geomean(const std::vector<double> &Values);

/// The median (mean of the two middle values for even sizes); nullopt
/// when empty.
std::optional<double> median(std::vector<double> Values);

/// Per-shape percentile \p Q, combined across shapes by geometric mean.
/// Nullopt when any shape's sample cannot support the percentile; the
/// offending shape is named in \p Why.
std::optional<double>
combinedPercentile(const std::map<std::string, std::vector<double>> &ByShape,
                   double Q, std::string *Why = nullptr);

/// A uniform random sample of at most `Cap` of the values added
/// (Algorithm R): every value added so far is held with the same
/// probability. Its buffer is allocated and touched at construction.
class Reservoir {
public:
  Reservoir(size_t Cap, uint64_t Seed);

  void add(double V);
  /// The values held: every value added while fewer than `Cap` were seen.
  std::vector<double> samples() const;
  uint64_t seen() const { return Seen; }

private:
  std::vector<float> Buf;
  size_t N = 0; ///< Buf entries filled.
  uint64_t Seen = 0;
  etch::Rng R;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_STATS_H
