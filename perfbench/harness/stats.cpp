//===- harness/stats.cpp - Percentile and aggregation rules ---------------===//

#include "harness/stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

size_t perfbench::nearestRank(size_t N, double Q) {
  double R = std::ceil(Q * static_cast<double>(N));
  return std::clamp<size_t>(static_cast<size_t>(R), 1, N);
}

std::optional<double> perfbench::percentile(std::vector<double> Samples,
                                            double Q) {
  const size_t N = Samples.size();
  if (N == 0)
    return std::nullopt;
  size_t Rank = nearestRank(N, Q);
  if (N - Rank < MinBeyond)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

std::optional<double> perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return std::nullopt;
  double LogSum = 0.0;
  for (double V : Values) {
    if (!(V > 0.0))
      return std::nullopt;
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

std::optional<double> perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return std::nullopt;
  std::sort(Values.begin(), Values.end());
  size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

std::optional<double> perfbench::combinedPercentile(
    const std::map<std::string, std::vector<double>> &ByShape, double Q,
    std::string *Why) {
  std::vector<double> PerShape;
  for (const auto &[Shape, Samples] : ByShape) {
    std::optional<double> P = percentile(Samples, Q);
    if (!P) {
      if (Why)
        *Why = "shape '" + Shape + "' has " + std::to_string(Samples.size()) +
               " samples, too few for its p" +
               std::to_string(static_cast<int>(Q * 100));
      return std::nullopt;
    }
    PerShape.push_back(*P);
  }
  return geomean(PerShape);
}

Reservoir::Reservoir(size_t Cap, uint64_t Seed) : Buf(Cap), R(Seed) {}

void Reservoir::add(double V) {
  ++Seen;
  if (N < Buf.size()) {
    Buf[N++] = static_cast<float>(V);
    return;
  }
  uint64_t Slot = R.nextBelow(Seen);
  if (Slot < Buf.size())
    Buf[Slot] = static_cast<float>(V);
}

std::vector<double> Reservoir::samples() const {
  return {Buf.begin(), Buf.begin() + static_cast<std::ptrdiff_t>(N)};
}
