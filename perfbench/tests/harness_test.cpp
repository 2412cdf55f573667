//===- tests/harness_test.cpp - Tests of the benchmark's own logic --------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The rules the benchmark's numbers rest on: the percentile rule (a
// percentile needs ten samples beyond it), the geometric-mean combination
// of per-shape percentiles, the uniform latency reservoir, the plain-loop
// oracle, and the determinism of the seeded operation schedule and ad-hoc
// shape stream.
//
//===----------------------------------------------------------------------===//

#include "harness/data.h"
#include "harness/reference.h"
#include "harness/schedule.h"
#include "harness/stats.h"

#include "formats/random.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;
using namespace etch;

namespace {

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(double(I));
  return V;
}

TEST(Percentile, NeedsTenSamplesBeyond) {
  // p90 of 99 samples would leave 9 beyond rank 90: refused.
  EXPECT_FALSE(percentile(iota(99), 0.9).has_value());
  // p90 of 100 samples is rank 90 with exactly 10 beyond.
  ASSERT_TRUE(percentile(iota(100), 0.9).has_value());
  EXPECT_EQ(*percentile(iota(100), 0.9), 90.0);
  // p50 needs 20 samples; 19 leaves 9 beyond rank 10.
  EXPECT_FALSE(percentile(iota(19), 0.5).has_value());
  EXPECT_EQ(*percentile(iota(20), 0.5), 10.0);
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, IsOrderIndependentNearestRank) {
  std::vector<double> V = iota(200);
  Rng R(7);
  R.shuffle(V);
  EXPECT_EQ(*percentile(V, 0.5), 100.0);
  EXPECT_EQ(*percentile(V, 0.9), 180.0);
  EXPECT_EQ(nearestRank(200, 0.9), 180u);
  EXPECT_EQ(nearestRank(3, 0.01), 1u);
}

TEST(Geomean, CombinesMultiplicatively) {
  EXPECT_DOUBLE_EQ(*geomean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(*geomean({5.0}), 5.0);
  EXPECT_FALSE(geomean({}).has_value());
  EXPECT_FALSE(geomean({1.0, 0.0}).has_value());
}

TEST(Geomean, PerShapePercentilesAreNeverPooled) {
  // Two shapes three orders of magnitude apart: the pooled median would
  // sit on the boundary of the two modes; the rule combines per-shape
  // medians instead.
  std::map<std::string, std::vector<double>> ByShape;
  for (int I = 0; I < 100; ++I) {
    ByShape["fast"].push_back(5.0);
    ByShape["slow"].push_back(5000.0);
  }
  EXPECT_DOUBLE_EQ(*combinedPercentile(ByShape, 0.5), std::sqrt(5.0 * 5000.0));
  ByShape["rare"] = iota(50);
  std::string Why;
  EXPECT_FALSE(combinedPercentile(ByShape, 0.9, &Why).has_value());
  EXPECT_NE(Why.find("rare"), std::string::npos);
  EXPECT_TRUE(combinedPercentile(ByShape, 0.5).has_value());
}

TEST(Median, EvenAndOdd) {
  EXPECT_EQ(*median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(*median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_FALSE(median({}).has_value());
}

std::vector<Op> take(OpSchedule S, size_t N) {
  std::vector<Op> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(S.next());
  return Out;
}

bool sameOps(const std::vector<Op> &A, const std::vector<Op> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (A[I].Kind != B[I].Kind || A[I].Shape != B[I].Shape ||
        A[I].Ordinal != B[I].Ordinal)
      return false;
  return true;
}

TEST(Schedule, SameSeedSameOperations) {
  ScheduleConfig C;
  C.ViewReads = 1;
  C.WriteEvery = 16;
  EXPECT_TRUE(sameOps(take(OpSchedule(42, 0, C), 500),
                      take(OpSchedule(42, 0, C), 500)));
  EXPECT_FALSE(sameOps(take(OpSchedule(42, 0, C), 500),
                       take(OpSchedule(43, 0, C), 500)));
  EXPECT_FALSE(sameOps(take(OpSchedule(42, 0, C), 500),
                       take(OpSchedule(42, 1, C), 500)));
}

TEST(Schedule, ReadBlocksInterleaveEveryShape) {
  ScheduleConfig C; // Read-only, four shapes.
  std::vector<Op> Ops = take(OpSchedule(9, 0, C), 400);
  for (size_t B = 0; B < Ops.size(); B += 4) {
    std::set<uint32_t> Shapes;
    for (size_t I = B; I < B + 4; ++I) {
      EXPECT_EQ(Ops[I].Kind, OpKind::Query);
      Shapes.insert(Ops[I].Shape);
    }
    EXPECT_EQ(Shapes.size(), 4u) << "block " << B / 4;
  }
}

TEST(Schedule, WriteMixIsFixedByOperationCount) {
  ScheduleConfig C;
  C.ViewReads = 1;
  C.WriteEvery = 10;
  std::vector<Op> Ops = take(OpSchedule(5, 0, C), 400);
  uint64_t Appends = 0, Deletes = 0;
  for (size_t I = 0; I < Ops.size(); ++I) {
    bool Write = Ops[I].Kind == OpKind::Append || Ops[I].Kind == OpKind::Delete;
    EXPECT_EQ(Write, (I + 1) % 10 == 0) << "op " << I;
    if (Ops[I].Kind == OpKind::Append)
      EXPECT_EQ(Ops[I].Ordinal, Appends++);
    if (Ops[I].Kind == OpKind::Delete)
      EXPECT_EQ(Ops[I].Ordinal, Deletes++);
  }
  EXPECT_EQ(Appends, 30u);
  EXPECT_EQ(Deletes, 10u);
}

TEST(WriteBatches, DeterministicAndDisjointFromEachOther) {
  Rng R(3);
  CsrMatrix<double> A = randomCsr(R, 50, 50, 400);
  WriteBatches B(11, A, 3, 8), Again(11, A, 3, 8);
  std::set<std::pair<Idx, Idx>> Initial, Deleted;
  for (Idx Row = 0; Row < A.NumRows; ++Row)
    for (size_t P = A.Pos[static_cast<size_t>(Row)];
         P < A.Pos[static_cast<size_t>(Row) + 1]; ++P)
      Initial.insert({Row, A.Crd[P]});
  for (uint32_t Slot = 0; Slot < 3; ++Slot)
    for (uint64_t N = 0; N < B.deletesPerSlot(); ++N) {
      auto Del = B.remove(Slot, N);
      EXPECT_EQ(Del, Again.remove(Slot, N));
      for (const auto &C : Del) {
        EXPECT_TRUE(Initial.count(C));
        EXPECT_TRUE(Deleted.insert(C).second) << "deleted twice";
      }
      auto App = B.append(Slot, N);
      auto App2 = Again.append(Slot, N);
      ASSERT_EQ(App.size(), 8u);
      for (size_t I = 0; I < App.size(); ++I) {
        EXPECT_FALSE(Initial.count({App[I].Row, App[I].Col}));
        EXPECT_EQ(App[I].Row, App2[I].Row);
        EXPECT_EQ(App[I].Col, App2[I].Col);
        EXPECT_EQ(App[I].Val, App2[I].Val);
      }
    }
}

TEST(AdhocStream, PoolCountsMultisetsAndExcludes) {
  std::vector<std::string> Names = {"a", "b", "c"};
  // Multisets of size 1..3 over 3 names: 3 + 6 + 10.
  EXPECT_EQ(adhocShapePool(Names, 3, {}).size(), 19u);
  auto Pool = adhocShapePool(Names, 3, {{"a", "b"}, {"c"}});
  EXPECT_EQ(Pool.size(), 17u);
  std::set<ShapeFactors> Unique(Pool.begin(), Pool.end());
  EXPECT_EQ(Unique.size(), Pool.size());
  EXPECT_FALSE(Unique.count({"a", "b"}));
  for (const ShapeFactors &F : Pool)
    EXPECT_TRUE(std::is_sorted(F.begin(), F.end()));
}

TEST(AdhocStream, SeededAndDistinct) {
  std::vector<std::string> Names;
  for (const TensorData &T : makeAdhocData(1).Tensors)
    Names.push_back(T.Name);
  // Multisets of size 1..3 over the 18-tensor catalog, less the four
  // serve shapes the set-up warms.
  auto Pool = adhocShapePool(Names, 3, serveShapeFactors());
  EXPECT_EQ(Pool.size(), 18u + 171u + 1140u - 4u);
  auto S1 = adhocShapeStream(1, Pool), S1b = adhocShapeStream(1, Pool),
       S2 = adhocShapeStream(2, Pool);
  EXPECT_EQ(S1, S1b);
  EXPECT_NE(S1, S2);
  std::set<ShapeFactors> Unique(S1.begin(), S1.end());
  EXPECT_EQ(Unique.size(), Pool.size());
}

TEST(Reservoir, KeepsEverythingUpToItsCapacity) {
  Reservoir R(100, 7);
  for (int I = 1; I <= 60; ++I)
    R.add(I);
  EXPECT_EQ(R.seen(), 60u);
  EXPECT_EQ(R.samples(), iota(60));
}

TEST(Reservoir, SamplesUniformlyPastItsCapacity) {
  Reservoir R(1000, 7), Again(1000, 7);
  for (int I = 0; I < 20000; ++I) {
    R.add(I);
    Again.add(I);
  }
  EXPECT_EQ(R.seen(), 20000u);
  std::vector<double> S = R.samples();
  ASSERT_EQ(S.size(), 1000u);
  EXPECT_EQ(S, Again.samples()); // Seeded.
  // Every value is equally likely to be held, so the sample's median sits
  // near the stream's (sd ~ 316 here), not at the start of the stream.
  EXPECT_NEAR(*median(S), 10000.0, 1500.0);
  EXPECT_GT(*std::max_element(S.begin(), S.end()), 19000.0);
}

TEST(Reference, DenseOracleMatchesHandComputedProducts) {
  Dataset D = makeAdhocData(4);
  const TensorData &A = D.get("A");
  std::vector<double> X = denseOf(D.get("x").Sparse);
  EXPECT_TRUE(closeEnough(denseReference(D, {"A", "x"}), sumMatVec(A.Csr, X)));
  double Sum = 0;
  for (double V : A.Csr.Val)
    Sum += V;
  EXPECT_TRUE(closeEnough(denseReference(D, {"A"}), Sum));
  // Σ_{i,j} A(i,j)·A(i,j) is the sum of squares.
  double Sq = 0;
  for (double V : A.Csr.Val)
    Sq += V * V;
  EXPECT_TRUE(closeEnough(denseReference(D, {"A", "A"}), Sq));
  // Factors over disjoint attributes multiply their sums.
  double SumD = 0, SumE = 0;
  for (double V : D.get("d").Dense.Val)
    SumD += V;
  for (double V : D.get("e").Dense.Val)
    SumE += V;
  EXPECT_TRUE(closeEnough(denseReference(D, {"d", "e"}), SumD * SumE));
}

TEST(Reference, MatrixModelFollowsWriteSemantics) {
  CsrMatrix<double> A = CsrMatrix<double>::fromCoo(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
  MatrixModel M(A);
  std::vector<double> V = {1.0, 10.0, 100.0};
  EXPECT_EQ(M.dot(V), 1.0 + 200.0 + 30.0);
  M.append({{1, 1, -3.0}, {1, 2, 0.5}}); // Cancels (1,1) exactly.
  M.remove({{0, 0}});
  EXPECT_EQ(M.dot(V), 200.0 + 50.0);
  auto Rows = M.rowDots({0.0, 0.0, 1.0});
  EXPECT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows[0], 2.0);
  EXPECT_EQ(Rows[1], 0.5);
}

} // namespace
