//===- streams/parallel.h - Data-parallel stream evaluation ----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Data-parallel evaluation of indexed streams. The paper's `skip`
/// primitive (Definition 5.1) is exactly the hook needed to split a fused
/// contraction across cores: a stream cursor is a cheap value, so it can be
/// forked once per chunk and `skip`-ed to the start of a sub-range of the
/// outermost index space, after which each chunk runs the ordinary fused
/// serial loop of streams/eval.h. No combinator or format needs to know
/// about parallelism.
///
/// The pieces:
///
///   - `BoundedStream`: clips any (non-contracted) stream to a half-open
///     index range [Lo, Hi) — one `skip(Lo, false)` at construction plus an
///     upper-bound check in `valid()`.
///   - Partitioners producing disjoint, covering ranges of the outermost
///     level: `partitionDense` (by coordinate, for dense levels),
///     `partitionSparse` (by storage position, for compressed levels — even
///     nnz per chunk), and `partitionByPos` (by cumulative child count, for
///     CSR-style dense-over-compressed formats — even leaf nnz per chunk).
///   - Drivers `parallelSumAll` / `parallelForEach` / `parallelEvalStream`:
///     run the existing serial loops per chunk into per-chunk accumulators
///     and reduce the partials **in chunk order**, so for a fixed chunk
///     list the result is deterministic regardless of thread count. When
///     chunks partition the outer index space, `parallelEvalStream` (and
///     the per-index work of `parallelForEach`) is bit-identical to its
///     serial counterpart; a fully contracted float sum (`parallelSumAll`)
///     re-associates across chunk boundaries only, so it is deterministic
///     per chunk list and exact for exact semirings.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_STREAMS_PARALLEL_H
#define ETCH_STREAMS_PARALLEL_H

#include "streams/eval.h"
#include "streams/primitives.h"
#include "support/assert.h"
#include "support/threadpool.h"

#include <limits>
#include <memory>
#include <vector>

namespace etch {

/// A half-open range [Lo, Hi) of the outermost index space.
struct IdxRange {
  Idx Lo, Hi;
};

/// The open upper bound used by the last chunk of a partition.
inline constexpr Idx IdxRangeMax = std::numeric_limits<Idx>::max();

/// Clips a stream to the index range [Lo, Hi): skips to Lo on construction
/// and reports termination once the cursor reaches Hi. Iterating the
/// bounded stream visits exactly the original stream's states with index in
/// range (lawfulness of `skip` guarantees their values are unchanged).
template <AnIndexedStream St> class BoundedStream {
  static_assert(!IsContractedV<St>,
                "a contracted level has no index space to bound");

public:
  using ValueType = typename St::ValueType;
  static constexpr bool Contracted = false;

  BoundedStream(St Inner, Idx Lo, Idx Hi)
      : Inner(std::move(Inner)), Hi(Hi) {
    this->Inner.skip(Lo, false);
  }

  bool valid() const { return Inner.valid() && Inner.index() < Hi; }
  Idx index() const { return Inner.index(); }
  bool ready() const { return Inner.ready(); }
  ValueType value() const { return Inner.value(); }
  void skip(Idx I, bool Strict) { Inner.skip(I, Strict); }

  /// Fast δ from a ready state.
  void next() { advanceReady(Inner); }

private:
  St Inner;
  Idx Hi;
};

//===----------------------------------------------------------------------===//
// Partitioners
//===----------------------------------------------------------------------===//

/// Splits the dense coordinate space [0, Size) into \p Chunks contiguous
/// ranges of near-equal width (trailing chunks may be empty when
/// Chunks > Size).
inline std::vector<IdxRange> partitionDense(Idx Size, size_t Chunks) {
  ETCH_ASSERT(Chunks >= 1, "need at least one chunk");
  // Quotient/remainder split: the first Size % Chunks chunks are one index
  // wider. The tempting `Size * (C + 1) / Chunks` form overflows once Size
  // approaches the Idx maximum, leaving the top of the coordinate space in
  // no chunk (found by differential fuzzing: parallel legs silently dropped
  // entries with coordinates past the wrap point).
  Idx N = static_cast<Idx>(Chunks);
  Idx Q = Size / N, R = Size % N;
  std::vector<IdxRange> Out;
  Out.reserve(Chunks);
  Idx Lo = 0;
  for (Idx C = 0; C < N; ++C) {
    Idx Hi = Lo + Q + (C < R ? 1 : 0);
    Out.push_back({Lo, Hi});
    Lo = Hi;
  }
  return Out;
}

/// Splits a compressed level into \p Chunks coordinate ranges holding
/// near-equal numbers of stored entries, using the stream's storage
/// positions: chunk boundaries fall on position boundaries and translate to
/// coordinate bounds via coordAt. Covers [0, IdxRangeMax).
template <typename ValueFn, SearchPolicy P>
std::vector<IdxRange> partitionSparse(const SparseStream<ValueFn, P> &S,
                                      size_t Chunks) {
  ETCH_ASSERT(Chunks >= 1, "need at least one chunk");
  size_t Begin = S.position(), End = S.positionEnd();
  size_t Len = End - Begin;
  std::vector<IdxRange> Out;
  Out.reserve(Chunks);
  Idx Lo = 0;
  for (size_t C = 0; C < Chunks; ++C) {
    size_t Split = Begin + Len * (C + 1) / Chunks;
    Idx Hi = (C + 1 == Chunks || Split >= End) ? IdxRangeMax
                                               : S.coordAt(Split);
    // Coordinates are strictly increasing, so distinct position boundaries
    // give distinct coordinates; equal boundaries give an empty chunk.
    Out.push_back({Lo, Hi});
    Lo = Hi;
  }
  return Out;
}

/// Splits the dense coordinate space [0, N) into \p Chunks ranges holding
/// near-equal numbers of *children*, where \p Pos is a CSR-style offset
/// array (Pos[i]..Pos[i+1) are the children of coordinate i, length N + 1).
/// This balances nnz across chunks for dense-over-compressed formats where
/// plain coordinate splitting would be skew-sensitive.
inline std::vector<IdxRange> partitionByPos(const size_t *Pos, Idx N,
                                            size_t Chunks) {
  ETCH_ASSERT(Chunks >= 1, "need at least one chunk");
  size_t Total = Pos[static_cast<size_t>(N)];
  std::vector<IdxRange> Out;
  Out.reserve(Chunks);
  Idx Lo = 0;
  for (size_t C = 0; C < Chunks; ++C) {
    Idx Hi = N;
    if (C + 1 < Chunks) {
      // First coordinate whose cumulative child count reaches the target.
      size_t Target = Total * (C + 1) / Chunks;
      Idx A = Lo, B = N;
      while (A < B) {
        Idx Mid = A + (B - A) / 2;
        if (Pos[static_cast<size_t>(Mid)] < Target)
          A = Mid + 1;
        else
          B = Mid;
      }
      Hi = A;
    }
    Out.push_back({Lo, Hi});
    Lo = Hi;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Parallel drivers
//===----------------------------------------------------------------------===//

/// Parallel `sumAll`: forks the cursor once per chunk, sums each bounded
/// sub-stream with the serial fused loop, and folds the per-chunk partials
/// in chunk order — deterministic for a fixed chunk list regardless of the
/// pool's thread count. \p Chunks must be disjoint and cover the stream's
/// outer index space.
template <Semiring S, AnIndexedStream St>
typename S::Value parallelSumAll(ThreadPool &Pool, const St &Q,
                                 const std::vector<IdxRange> &Chunks) {
  using V = typename S::Value;
  // One element per chunk, each written by its own task — so not a
  // std::vector, whose bool specialization packs neighbours into one word.
  auto Partials = std::make_unique<V[]>(Chunks.size());
  Pool.parallelFor(Chunks.size(), [&](size_t C) {
    Partials[C] =
        sumAll<S>(BoundedStream<St>(Q, Chunks[C].Lo, Chunks[C].Hi));
  });
  V Acc = S::zero();
  for (size_t C = 0; C < Chunks.size(); ++C)
    Acc = S::add(Acc, Partials[C]);
  return Acc;
}

/// Parallel `forEach`: drives one level of the stream chunk-parallel,
/// invoking `Body(index, value)` at every ready state. Within a chunk the
/// order and association are the serial ones; distinct chunks run
/// concurrently, so Body's effects at distinct indices must be disjoint
/// (e.g. writing distinct output rows).
template <AnIndexedStream St, typename F>
void parallelForEach(ThreadPool &Pool, const St &Q,
                     const std::vector<IdxRange> &Chunks, F &&Body) {
  Pool.parallelFor(Chunks.size(), [&](size_t C) {
    forEach(BoundedStream<St>(Q, Chunks[C].Lo, Chunks[C].Hi), Body);
  });
}

/// Parallel `evalStream`: evaluates each bounded sub-stream into its own
/// KRelation, then merges in chunk order. Because the chunks partition the
/// outer index space, every output tuple is produced by exactly one chunk
/// with the serial association — the merged result is bit-identical to
/// `evalStream(Q, Sh)`.
template <Semiring S, AnIndexedStream St>
KRelation<S> parallelEvalStream(ThreadPool &Pool, const St &Q,
                                const Shape &Sh,
                                const std::vector<IdxRange> &Chunks) {
  std::vector<KRelation<S>> Parts(Chunks.size(), KRelation<S>(Sh));
  Pool.parallelFor(Chunks.size(), [&](size_t C) {
    Parts[C] = evalStream<S>(
        BoundedStream<St>(Q, Chunks[C].Lo, Chunks[C].Hi), Sh);
  });
  KRelation<S> Out(Sh);
  for (const KRelation<S> &P : Parts)
    for (const auto &[T, V] : P.entries())
      Out.insert(T, V);
  return Out;
}

} // namespace etch

#endif // ETCH_STREAMS_PARALLEL_H
