//===- tests/parallel_eval_test.cpp - Parallel vs serial oracles ---------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// Oracle tests for the data-parallel evaluation layer (streams/parallel.h,
// support/threadpool.h) and the parallel baseline kernels:
//
//   - the thread pool runs every index exactly once, under serial pools,
//     oversubscription, and nesting;
//   - partitioners produce disjoint, covering, ordered chunk lists;
//   - parallelEvalStream and the chunk-partitioned kernels are
//     *bit-identical* to their serial counterparts (every output value is
//     fully computed within one chunk, with the serial association);
//   - parallelSumAll is bit-identical to the chunk-ordered serial fold for
//     every thread count (determinism), exact for integer semirings, and
//     within float tolerance of the flat serial sum;
//   - degenerate shapes: 1 chunk, more chunks than threads, more chunks
//     than elements (empty chunks), empty streams.
//
// The CI ThreadSanitizer job runs exactly this binary to race-check the
// concurrency layer.
//
//===----------------------------------------------------------------------===//

#include "baselines/etch_kernels.h"
#include "formats/random.h"
#include "relational/prepared.h"
#include "streams/laws.h"
#include "streams/parallel.h"
#include "support/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

using namespace etch;

namespace {

using S = F64Semiring;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    ThreadPool Pool(Threads);
    EXPECT_EQ(Pool.threadCount(), Threads);
    const size_t N = 1000;
    std::vector<std::atomic<int>> Hits(N);
    Pool.parallelFor(N, [&](size_t I) { ++Hits[I]; });
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << ", " << Threads
                                   << " threads";
  }
}

TEST(ThreadPool, HandlesEmptyAndSingleton) {
  ThreadPool Pool(4);
  int Calls = 0;
  Pool.parallelFor(0, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  Pool.parallelFor(1, [&](size_t I) {
    EXPECT_EQ(I, 0u);
    ++Calls;
  });
  EXPECT_EQ(Calls, 1);
}

TEST(ThreadPool, NestedCallsRunInline) {
  ThreadPool Pool(4);
  const size_t Outer = 16, Inner = 16;
  std::vector<std::atomic<int>> Hits(Outer * Inner);
  Pool.parallelFor(Outer, [&](size_t O) {
    Pool.parallelFor(Inner, [&](size_t I) { ++Hits[O * Inner + I]; });
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, SurvivesManySmallRegions) {
  ThreadPool Pool(3);
  std::atomic<int64_t> Sum{0};
  for (int Round = 0; Round < 200; ++Round)
    Pool.parallelFor(7, [&](size_t I) {
      Sum += static_cast<int64_t>(I) + 1;
    });
  EXPECT_EQ(Sum.load(), 200 * (7 * 8 / 2));
}

//===----------------------------------------------------------------------===//
// Partitioners
//===----------------------------------------------------------------------===//

void expectPartition(const std::vector<IdxRange> &Chunks, Idx Lo, Idx Hi) {
  ASSERT_FALSE(Chunks.empty());
  EXPECT_EQ(Chunks.front().Lo, Lo);
  EXPECT_EQ(Chunks.back().Hi, Hi);
  for (size_t C = 0; C < Chunks.size(); ++C) {
    EXPECT_LE(Chunks[C].Lo, Chunks[C].Hi);
    if (C + 1 < Chunks.size())
      EXPECT_EQ(Chunks[C].Hi, Chunks[C + 1].Lo);
  }
}

TEST(Partition, DenseCoversAndBalances) {
  for (Idx Size : {Idx(0), Idx(1), Idx(7), Idx(100)}) {
    for (size_t Chunks : {size_t(1), size_t(3), size_t(8), size_t(200)}) {
      auto P = partitionDense(Size, Chunks);
      EXPECT_EQ(P.size(), Chunks);
      expectPartition(P, 0, Size);
      for (const IdxRange &R : P)
        EXPECT_LE(R.Hi - R.Lo, Size / static_cast<Idx>(Chunks) + 1);
    }
  }
}

TEST(Partition, SparseSplitsByPosition) {
  Rng R(7);
  auto V = randomSparseVector(R, 1000, 237);
  for (size_t Chunks : {size_t(1), size_t(4), size_t(64), size_t(500)}) {
    auto P = partitionSparse(V.stream(), Chunks);
    EXPECT_EQ(P.size(), Chunks);
    expectPartition(P, 0, IdxRangeMax);
    // Each chunk holds a near-equal share of the stored entries.
    for (const IdxRange &Range : P) {
      size_t Count = 0;
      forEach(BoundedStream<decltype(V.stream())>(V.stream(), Range.Lo,
                                                  Range.Hi),
              [&](Idx, double) { ++Count; });
      EXPECT_LE(Count, 237 / Chunks + 1);
    }
  }
}

TEST(Partition, ByPosBalancesSkewedRows) {
  // One huge row among many empty ones: the nnz-balanced partitioner must
  // isolate it rather than splitting rows evenly.
  std::vector<CooEntry<double>> Coo;
  for (Idx J = 0; J < 100; ++J)
    Coo.push_back({50, J, 1.0});
  Coo.push_back({0, 0, 1.0});
  Coo.push_back({99, 0, 1.0});
  auto A = CsrMatrix<double>::fromCoo(100, 100, Coo);
  auto P = partitionByPos(A.Pos.data(), A.NumRows, 4);
  expectPartition(P, 0, 100);
  size_t MaxNnz = 0;
  for (const IdxRange &Range : P)
    MaxNnz = std::max<size_t>(
        MaxNnz, A.Pos[static_cast<size_t>(Range.Hi)] -
                    A.Pos[static_cast<size_t>(Range.Lo)]);
  // The dominant row cannot be split; the worst chunk holds it plus at
  // most a fair share of the two remaining entries.
  EXPECT_LE(MaxNnz, 101u);
}

//===----------------------------------------------------------------------===//
// BoundedStream
//===----------------------------------------------------------------------===//

TEST(BoundedStream, SatisfiesStreamLaws) {
  Rng R(11);
  auto V = randomSparseVector(R, 200, 40);
  using St = decltype(V.stream());
  BoundedStream<St> B(V.stream(), 30, 150);
  EXPECT_TRUE(checkStrictMonotone(B));
  std::vector<std::pair<Idx, bool>> Probes;
  for (Idx I : {0, 10, 50, 149, 150, 151})
    for (bool Strict : {false, true})
      Probes.push_back({I, Strict});
  EXPECT_TRUE(checkSkipMonotone(B, Probes));
}

TEST(BoundedStream, VisitsExactlyTheRange) {
  Rng R(12);
  auto V = randomSparseVector(R, 300, 120);
  for (auto [Lo, Hi] : {std::pair<Idx, Idx>{0, 300},
                        {50, 200},
                        {100, 100},
                        {250, IdxRangeMax}}) {
    std::vector<Idx> Got;
    forEach(BoundedStream<decltype(V.stream())>(V.stream(), Lo, Hi),
            [&](Idx I, double) { Got.push_back(I); });
    std::vector<Idx> Want;
    for (Idx C : V.Crd)
      if (C >= Lo && C < Hi)
        Want.push_back(C);
    EXPECT_EQ(Got, Want) << "range [" << Lo << ", " << Hi << ")";
  }
}

//===----------------------------------------------------------------------===//
// Parallel drivers vs serial oracles
//===----------------------------------------------------------------------===//

/// The chunk-ordered serial fold parallelSumAll must reproduce bit-exactly
/// at every thread count.
template <Semiring K, AnIndexedStream St>
typename K::Value chunkedSerialSum(const St &Q,
                                   const std::vector<IdxRange> &Chunks) {
  typename K::Value Acc = K::zero();
  for (const IdxRange &R : Chunks)
    Acc = K::add(Acc, sumAll<K>(BoundedStream<St>(Q, R.Lo, R.Hi)));
  return Acc;
}

TEST(ParallelSumAll, DeterministicAcrossThreadCounts) {
  Rng R(21);
  const Idx N = 5000;
  auto X = randomSparseVector(R, N, 900);
  auto Y = randomSparseVector(R, N, 1100);
  auto Q = mulStreams<S>(X.stream(), Y.stream());
  for (size_t Chunks : {size_t(1), size_t(7), size_t(64)}) {
    auto Ranges = partitionSparse(X.stream(), Chunks);
    double Want = chunkedSerialSum<S>(Q, Ranges);
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      ThreadPool Pool(Threads);
      // Bit-identical: chunk partials fold in chunk order.
      EXPECT_EQ(parallelSumAll<S>(Pool, Q, Ranges), Want)
          << Chunks << " chunks, " << Threads << " threads";
    }
    // And within float tolerance of the flat serial fold (reassociation
    // across chunk boundaries only).
    EXPECT_NEAR(Want, sumAll<S>(Q), 1e-9 * std::abs(Want) + 1e-12);
  }
}

TEST(ParallelSumAll, ExactForIntegerSemiring) {
  // Integer payloads through the I64 semiring: chunked reassociation is
  // exact, so the parallel sum equals the flat serial sum bit-for-bit.
  std::vector<std::array<Idx, 2>> Keys;
  Rng R(22);
  for (uint64_t C : R.sampleDistinctSorted(4000, 300 * 300))
    Keys.push_back({static_cast<Idx>(C / 300), static_cast<Idx>(C % 300)});
  auto T = Trie<2, int64_t>::fromKeysCounting(std::move(Keys));
  using K = I64Semiring;
  int64_t Want = sumAll<K>(T.stream());
  ThreadPool Pool(4);
  for (size_t Chunks : {size_t(1), size_t(5), size_t(32), size_t(1000)}) {
    EXPECT_EQ(parallelSumAll<K>(Pool, T.stream(),
                                partitionSparse(T.stream(), Chunks)),
              Want)
        << Chunks << " chunks";
  }
}

TEST(ParallelSumAll, BoolSemiringChunksWriteDisjointPartials) {
  // Per-chunk partials are written concurrently; for the boolean semiring
  // they must not share storage words (the TSan job checks this).
  SparseVector<uint8_t> X(4096);
  for (Idx I = 5; I < 4096; I += 7)
    X.push(I, 1);
  ThreadPool Pool(4);
  for (size_t Chunks : {size_t(8), size_t(64)})
    EXPECT_TRUE(parallelSumAll<BoolSemiring>(
        Pool, X.stream(), partitionSparse(X.stream(), Chunks)))
        << Chunks << " chunks";
}

TEST(ParallelSumAll, EmptyStreamAndEmptyChunks) {
  SparseVector<double> Empty(100);
  ThreadPool Pool(4);
  auto Q = Empty.stream();
  EXPECT_EQ(parallelSumAll<S>(Pool, Q, partitionSparse(Q, 8)), 0.0);
  // More chunks than elements: trailing chunks are empty ranges.
  Rng R(23);
  auto V = randomSparseVector(R, 50, 3);
  EXPECT_EQ(parallelSumAll<S>(Pool, V.stream(),
                              partitionSparse(V.stream(), 16)),
            chunkedSerialSum<S>(V.stream(),
                                partitionSparse(V.stream(), 16)));
}

TEST(ParallelEvalStream, BitIdenticalToSerialExhaustive) {
  // Exhaustive small inputs: every support pattern of two 5-dim vectors.
  const Idx N = 5;
  Attr A = Attr::named("par_i");
  ThreadPool Pool(3);
  for (unsigned MX = 0; MX < (1u << N); ++MX) {
    for (unsigned MY = 0; MY < (1u << N); ++MY) {
      SparseVector<double> X(N), Y(N);
      for (Idx I = 0; I < N; ++I) {
        if (MX & (1u << I))
          X.push(I, 1.0 + static_cast<double>(I) / 3.0);
        if (MY & (1u << I))
          Y.push(I, 2.0 - static_cast<double>(I) / 7.0);
      }
      auto Q = mulStreams<S>(X.stream(), Y.stream());
      auto Serial = evalStream<S>(Q, {A});
      for (size_t Chunks : {size_t(1), size_t(3), size_t(8)}) {
        auto Par = parallelEvalStream<S>(Pool, Q, {A},
                                         partitionDense(N, Chunks));
        ASSERT_EQ(Par.entries(), Serial.entries())
            << "supports " << MX << "/" << MY << ", " << Chunks
            << " chunks";
      }
    }
  }
}

TEST(ParallelEvalStream, BitIdenticalOnNestedRandomInput) {
  Rng R(31);
  auto A = randomCsr(R, 200, 150, 3000);
  Attr Ai = Attr::named("par_r"), Aj = Attr::named("par_s");
  auto Serial = evalStream<S>(A.stream(), {Ai, Aj});
  for (unsigned Threads : {1u, 4u}) {
    ThreadPool Pool(Threads);
    for (size_t Chunks : {size_t(1), size_t(6), size_t(64)}) {
      auto Par = parallelEvalStream<S>(
          Pool, A.stream(), {Ai, Aj},
          partitionByPos(A.Pos.data(), A.NumRows, Chunks));
      ASSERT_EQ(Par.entries(), Serial.entries());
    }
  }
}

//===----------------------------------------------------------------------===//
// Parallel kernels vs serial kernels
//===----------------------------------------------------------------------===//

TEST(ParallelKernels, SpmvBitIdentical) {
  Rng R(41);
  const Idx N = 500;
  auto A = randomCsr(R, N, N, 20'000);
  auto X = randomDenseVector(R, N);
  DenseVector<double> YSerial(N), YPar(N);
  kernels::spmv(A, X, YSerial);
  for (unsigned Threads : {1u, 4u}) {
    ThreadPool Pool(Threads);
    for (size_t Chunks : {size_t(1), size_t(8), size_t(700)}) {
      YPar.Val.assign(static_cast<size_t>(N), -1.0);
      kernels::spmvParallel(Pool, A, X, YPar, Chunks);
      ASSERT_EQ(YPar.Val, YSerial.Val)
          << Threads << " threads, " << Chunks << " chunks";
    }
  }
}

TEST(ParallelKernels, MttkrpBitIdentical) {
  Rng R(42);
  const Idx NI = 60, NJ = 50, NK = 40;
  const int64_t Rank = 8;
  auto B = randomCsf3(R, NI, NJ, NK, 4000);
  std::vector<double> C(static_cast<size_t>(NJ * Rank)),
      D(static_cast<size_t>(NK * Rank));
  for (auto &V : C)
    V = randomValue(R);
  for (auto &V : D)
    V = randomValue(R);
  std::vector<double> Serial, Par;
  kernels::mttkrp(B, C, D, Rank, Serial);
  ThreadPool Pool(4);
  for (size_t Chunks : {size_t(1), size_t(7), size_t(100)}) {
    kernels::mttkrpParallel(Pool, B, C, D, Rank, Par, Chunks);
    ASSERT_EQ(Par, Serial) << Chunks << " chunks";
  }
}

TEST(ParallelKernels, SmulBitIdentical) {
  Rng R(43);
  const Idx N = 400;
  auto A = randomDcsr(R, N, N, 2000);
  auto B = randomDcsr(R, N, N, 30'000);
  auto Serial = kernels::smul<SearchPolicy::Gallop>(A, B);
  ThreadPool Pool(4);
  for (size_t Chunks : {size_t(1), size_t(6), size_t(64)}) {
    auto Par = kernels::smulParallel<SearchPolicy::Gallop>(Pool, A, B,
                                                           Chunks);
    ASSERT_EQ(Par.RowCrd, Serial.RowCrd) << Chunks << " chunks";
    ASSERT_EQ(Par.Pos, Serial.Pos) << Chunks << " chunks";
    ASSERT_EQ(Par.Crd, Serial.Crd) << Chunks << " chunks";
    ASSERT_EQ(Par.Val, Serial.Val) << Chunks << " chunks";
  }
}

TEST(ParallelKernels, FilteredSpmvBitIdentical) {
  Rng R(44);
  const Idx N = 600;
  auto A = randomCsr(R, N, N, 25'000);
  auto X = randomDenseVector(R, N);
  for (size_t Pass : {size_t(0), size_t(1), size_t(150), size_t(600)}) {
    Rng RP(45);
    auto PassRows = randomSparseVector(RP, N, Pass);
    DenseVector<double> YSerial(N), YPar(N);
    kernels::filteredSpmvFused(A, X, PassRows, YSerial);
    ThreadPool Pool(4);
    for (size_t Chunks : {size_t(1), size_t(8), size_t(64)}) {
      YPar.Val.assign(static_cast<size_t>(N), 0.0);
      kernels::filteredSpmvFusedParallel(Pool, A, X, PassRows, YPar,
                                         Chunks);
      ASSERT_EQ(YPar.Val, YSerial.Val)
          << Pass << " passing rows, " << Chunks << " chunks";
    }
  }
}

TEST(ParallelKernels, TriangleMatchesSerialAndReference) {
  // Worst-case family and random graphs, across chunk/thread shapes.
  for (Idx N : {Idx(1), Idx(64), Idx(1000)}) {
    EdgeList G = triangleWorstCase(N);
    auto P = trianglePrepare(G, G, G);
    int64_t Want = triangleFused(*P);
    EXPECT_EQ(Want, triangleReference(G, G, G));
    for (unsigned Threads : {1u, 4u}) {
      ThreadPool Pool(Threads);
      for (size_t Chunks : {size_t(1), size_t(5), size_t(64)})
        EXPECT_EQ(triangleFusedParallel(Pool, *P, Chunks), Want)
            << "n=" << N << ", " << Threads << "x" << Chunks;
    }
  }
  Rng R(46);
  for (int Round = 0; Round < 4; ++Round) {
    EdgeList Rab = randomEdges(R, 80, 600), Sbc = randomEdges(R, 80, 600),
             Tca = randomEdges(R, 80, 600);
    auto P = trianglePrepare(Rab, Sbc, Tca);
    int64_t Want = triangleFused(*P);
    EXPECT_EQ(Want, triangleReference(Rab, Sbc, Tca));
    ThreadPool Pool(4);
    EXPECT_EQ(triangleFusedParallel(Pool, *P, 16), Want);
  }
}

//===----------------------------------------------------------------------===//
// Saturating skip (overflow regression)
//===----------------------------------------------------------------------===//

TEST(SaturatingSkip, UnboundedRepeatSurvivesAdversarialStrictSkip) {
  auto Rep = repeatUnbounded(2.5);
  // Strict skip at the maximum index must saturate, not wrap negative.
  Rep.skip(std::numeric_limits<Idx>::max(), true);
  EXPECT_FALSE(Rep.valid());

  auto Rep2 = repeatUnbounded(1.0);
  Rep2.skip(std::numeric_limits<Idx>::max() - 1, true);
  EXPECT_FALSE(Rep2.valid()); // max-1 + 1 == max >= 1<<62: exhausted.

  DenseStream<double (*)(Idx)> D(
      100, +[](Idx) { return 1.0; });
  D.skip(std::numeric_limits<Idx>::max(), true);
  EXPECT_FALSE(D.valid());
  DenseStream<double (*)(Idx)> D2(
      100, +[](Idx) { return 1.0; });
  D2.skip(50, true);
  EXPECT_TRUE(D2.valid());
  EXPECT_EQ(D2.index(), 51);
}

} // namespace
