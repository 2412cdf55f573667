//===- fuzz/dynstream.h - Type-erased runtime indexed streams --*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime-composable indexed streams for the differential fuzzer. The
/// stream library is fully template-typed — every combinator fixes its
/// operand types and its Contracted flag at compile time — but the fuzzer
/// needs to build the stream for an *arbitrary generated expression*. The
/// bridge is `Erased<S, D>`: a depth-indexed type-erased stream whose value
/// type is `Erased<S, D-1>` (scalar at D == 1), so the real library
/// combinators (MulStream, AddStream, ContractStream, MapStream,
/// RepeatStream) can be instantiated *over erased children* and are exactly
/// the code under test; erasure only pays a virtual hop per level.
///
/// Contractedness is static in the library, so `Erased` additionally
/// carries a runtime level mask (bit k set = level k is a Σ level,
/// outermost level is bit 0). `dynEval` mirrors `detail::evalRec` against
/// that mask; the *real* `evalStream`/`sumAll`/parallel drivers are used
/// directly whenever their static preconditions hold (see fuzz/exec.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FUZZ_DYNSTREAM_H
#define ETCH_FUZZ_DYNSTREAM_H

#include "fuzz/fuzzcase.h"
#include "streams/combinators.h"
#include "streams/eval.h"
#include "streams/parallel.h"
#include "streams/primitives.h"
#include "support/assert.h"
#include "support/threadpool.h"

#include <bit>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>

namespace etch {

/// A type-erased indexed stream of \p D total levels (contracted levels
/// included) over semiring \p S. Satisfies AnIndexedStream; copying clones
/// the underlying cursor (streams are cheap value types, Definition 5.1).
template <Semiring S, int D> class Erased {
  static_assert(D >= 1, "a stream has at least one level");

public:
  static constexpr int Depth = D;
  using ValueType =
      std::conditional_t<D == 1, typename S::Value, Erased<S, D - 1>>;
  // Static flag only; the truth lives in the runtime mask. Every consumer
  // that relies on the static flag (evalStream's shape check, BoundedStream)
  // is only applied when mask() says it is sound — see fuzz/exec.cpp.
  static constexpr bool Contracted = false;

  Erased() = default;

  /// Wraps a concrete stream. \p Mask covers this level (bit 0) and all
  /// inner levels; produced values that are not already erased are wrapped
  /// with Mask >> 1.
  template <typename St>
    requires(!std::is_same_v<std::decay_t<St>, Erased> && AnIndexedStream<St>)
  Erased(St Q, uint32_t Mask)
      : Msk(Mask),
        Impl(std::make_unique<Model<St>>(std::move(Q), Mask >> 1)) {}

  Erased(const Erased &O)
      : Msk(O.Msk), Impl(O.Impl ? O.Impl->clone() : nullptr) {}
  Erased(Erased &&) noexcept = default;
  Erased &operator=(const Erased &O) {
    Msk = O.Msk;
    Impl = O.Impl ? O.Impl->clone() : nullptr;
    return *this;
  }
  Erased &operator=(Erased &&) noexcept = default;

  bool valid() const { return Impl && Impl->valid(); }
  Idx index() const { return Impl->index(); }
  bool ready() const { return Impl->ready(); }
  ValueType value() const { return Impl->value(); }
  void skip(Idx I, bool Strict) { Impl->skip(I, Strict); }

  /// Fast δ from a ready state: forwards to advanceReady on the wrapped
  /// stream, so inner fast paths (`++pos` etc.) are still exercised.
  void next() { Impl->next(); }

  /// The runtime contracted-level mask (bit 0 = this level).
  uint32_t mask() const { return Msk; }

  /// Number of indexed (non-Σ) levels — the length of the output shape.
  int indexedLevels() const { return D - std::popcount(Msk); }

private:
  struct Concept {
    virtual ~Concept() = default;
    virtual std::unique_ptr<Concept> clone() const = 0;
    virtual bool valid() const = 0;
    virtual Idx index() const = 0;
    virtual bool ready() const = 0;
    virtual ValueType value() const = 0;
    virtual void skip(Idx I, bool Strict) = 0;
    virtual void next() = 0;
  };

  template <typename St> struct Model final : Concept {
    St Q;
    uint32_t InnerMask;

    Model(St Q, uint32_t InnerMask)
        : Q(std::move(Q)), InnerMask(InnerMask) {}

    std::unique_ptr<Concept> clone() const override {
      return std::make_unique<Model>(*this);
    }
    bool valid() const override { return Q.valid(); }
    Idx index() const override { return Q.index(); }
    bool ready() const override { return Q.ready(); }
    ValueType value() const override {
      if constexpr (D == 1) {
        // Leaf storage may be narrower than the semiring's value type
        // (uint8_t indicators under the boolean semiring).
        return static_cast<ValueType>(Q.value());
      } else if constexpr (std::is_same_v<std::decay_t<decltype(Q.value())>,
                                          Erased<S, D - 1>>) {
        return Q.value(); // already erased; carries its own mask
      } else {
        return Erased<S, D - 1>(Q.value(), InnerMask);
      }
    }
    void skip(Idx I, bool Strict) override { Q.skip(I, Strict); }
    void next() override { advanceReady(Q); }
  };

  uint32_t Msk = 0;
  std::unique_ptr<Concept> Impl;
};

/// A runtime-depth stream: one alternative per supported depth.
template <Semiring S>
using DynStream = std::variant<std::monostate, Erased<S, 1>, Erased<S, 2>,
                               Erased<S, 3>, Erased<S, 4>>;

/// The runtime contracted-level mask.
template <Semiring S> uint32_t dynMask(const DynStream<S> &Q) {
  return std::visit(
      [](const auto &E) -> uint32_t {
        if constexpr (std::is_same_v<std::decay_t<decltype(E)>,
                                     std::monostate>)
          return 0;
        else
          return E.mask();
      },
      Q);
}

//===----------------------------------------------------------------------===//
// Combinator application at runtime depth
//===----------------------------------------------------------------------===//

/// Product of two equal-depth, fully indexed streams: the real MulStream
/// over erased operands.
template <Semiring S>
DynStream<S> dynMul(const DynStream<S> &A, const DynStream<S> &B) {
  return std::visit(
      [](const auto &Ea, const auto &Eb) -> DynStream<S> {
        using TA = std::decay_t<decltype(Ea)>;
        using TB = std::decay_t<decltype(Eb)>;
        if constexpr (std::is_same_v<TA, TB> &&
                      !std::is_same_v<TA, std::monostate>) {
          ETCH_ASSERT(Ea.mask() == 0 && Eb.mask() == 0,
                      "cannot multiply contracted levels");
          return DynStream<S>(
              TA(mulStreams<S>(Ea, Eb), /*Mask=*/0u));
        } else {
          ETCH_UNREACHABLE("mul operands must have equal depth");
        }
      },
      A, B);
}

/// Union-merge of two equal-depth streams with identical level masks: the
/// real AddStream over erased operands.
template <Semiring S>
DynStream<S> dynAdd(const DynStream<S> &A, const DynStream<S> &B) {
  return std::visit(
      [](const auto &Ea, const auto &Eb) -> DynStream<S> {
        using TA = std::decay_t<decltype(Ea)>;
        using TB = std::decay_t<decltype(Eb)>;
        if constexpr (std::is_same_v<TA, TB> &&
                      !std::is_same_v<TA, std::monostate>) {
          ETCH_ASSERT(Ea.mask() == Eb.mask(),
                      "addition operands must agree on contracted levels");
          return DynStream<S>(TA(addStreams<S>(Ea, Eb), Ea.mask()));
        } else {
          ETCH_UNREACHABLE("add operands must have equal depth");
        }
      },
      A, B);
}

namespace fuzz_detail {

/// Applies ContractStream at level \p K (0 = outermost) of an erased
/// stream, threading through MapStream at the levels above — the runtime
/// mirror of the `map^k Σ` construction (Section 5.2).
template <Semiring S, int D>
Erased<S, D> contractAt(Erased<S, D> Q, int K) {
  uint32_t NewMask = Q.mask() | (1u << K);
  ETCH_ASSERT(!(Q.mask() & (1u << K)), "level is already contracted");
  if (K == 0)
    return Erased<S, D>(contractStream(std::move(Q)), NewMask);
  if constexpr (D > 1) {
    auto Fn = [K](Erased<S, D - 1> V) {
      return contractAt<S, D - 1>(std::move(V), K - 1);
    };
    return Erased<S, D>(mapStream(std::move(Q), Fn), NewMask);
  } else {
    ETCH_UNREACHABLE("contraction level exceeds stream depth");
  }
}

/// Inserts a RepeatStream level at position \p K (0 = above the current
/// outermost level, D = below the leaf), the runtime mirror of `map^k ↑`.
template <Semiring S, int D>
Erased<S, D + 1> expandAt(Erased<S, D> Q, int K, Idx Extent) {
  uint32_t M = Q.mask();
  uint32_t NewMask = (M & ((1u << K) - 1)) | ((M >> K) << (K + 1));
  if (K == 0)
    return Erased<S, D + 1>(
        RepeatStream<Erased<S, D>>(Extent, std::move(Q)), NewMask);
  if constexpr (D > 1) {
    auto Fn = [K, Extent](Erased<S, D - 1> V) {
      return expandAt<S, D - 1>(std::move(V), K - 1, Extent);
    };
    return Erased<S, D + 1>(mapStream(std::move(Q), Fn), NewMask);
  } else {
    // K == 1 at a leaf level: repeat the scalar below it.
    ETCH_ASSERT(K == 1, "expansion level exceeds stream depth");
    auto Fn = [Extent](typename S::Value V) {
      return Erased<S, 1>(RepeatStream<typename S::Value>(Extent, V),
                          /*Mask=*/0u);
    };
    return Erased<S, 2>(mapStream(std::move(Q), Fn), NewMask);
  }
}

} // namespace fuzz_detail

/// Contracts the level at position \p K of a runtime-depth stream.
template <Semiring S>
DynStream<S> dynContractAt(const DynStream<S> &Q, int K) {
  return std::visit(
      [K](const auto &E) -> DynStream<S> {
        using T = std::decay_t<decltype(E)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          ETCH_UNREACHABLE("contraction of an empty stream");
        } else {
          ETCH_ASSERT(K >= 0 && K < T::Depth, "contraction level in range");
          return DynStream<S>(fuzz_detail::contractAt<S, T::Depth>(E, K));
        }
      },
      Q);
}

/// Inserts an expansion level of the given extent at position \p K.
template <Semiring S>
DynStream<S> dynExpandAt(const DynStream<S> &Q, int K, Idx Extent) {
  return std::visit(
      [K, Extent](const auto &E) -> DynStream<S> {
        using T = std::decay_t<decltype(E)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          ETCH_UNREACHABLE("expansion of an empty stream");
        } else if constexpr (T::Depth >= FuzzMaxLevels) {
          ETCH_UNREACHABLE("expansion would exceed the level cap");
        } else {
          ETCH_ASSERT(K >= 0 && K <= T::Depth, "expansion level in range");
          return DynStream<S>(
              fuzz_detail::expandAt<S, T::Depth>(E, K, Extent));
        }
      },
      Q);
}

//===----------------------------------------------------------------------===//
// Evaluation against the runtime mask
//===----------------------------------------------------------------------===//

namespace fuzz_detail {

/// `detail::evalRec` with the compile-time Contracted flag replaced by the
/// erased stream's runtime mask; everything else — the ready/blocked loop
/// shape, advanceReady on ready states — is byte-for-byte the same
/// discipline, so the streams underneath run exactly as the library runs
/// them.
template <Semiring S, int D>
void evalDynRec(Erased<S, D> Q, KRelation<S> &Out, Tuple &Prefix) {
  bool Contr = (Q.mask() & 1) != 0;
  while (Q.valid()) {
    if (Q.ready()) {
      if (!Contr)
        Prefix.push_back(Q.index());
      if constexpr (D > 1)
        evalDynRec<S, D - 1>(Q.value(), Out, Prefix);
      else
        Out.insert(Prefix, Q.value());
      if (!Contr)
        Prefix.pop_back();
      advanceReady(Q);
    } else {
      Q.skip(Q.index(), false);
    }
  }
}

} // namespace fuzz_detail

/// Evaluates a runtime-depth stream into a K-relation over \p Sh (the
/// stream's indexed levels, outermost first).
template <Semiring S>
KRelation<S> dynEval(const DynStream<S> &Q, const Shape &Sh) {
  return std::visit(
      [&Sh](const auto &E) -> KRelation<S> {
        using T = std::decay_t<decltype(E)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          ETCH_UNREACHABLE("evaluation of an empty stream");
        } else {
          ETCH_ASSERT(static_cast<int>(Sh.size()) == E.indexedLevels(),
                      "shape length must match the indexed depth");
          KRelation<S> Out(Sh);
          Tuple Prefix;
          fuzz_detail::evalDynRec<S, T::Depth>(E, Out, Prefix);
          Out.pruneZeros();
          return Out;
        }
      },
      Q);
}

/// Full contraction through the *real* `sumAll` driver (summation ignores
/// contracted flags, so it is sound for any mask).
template <Semiring S>
typename S::Value dynSumAll(const DynStream<S> &Q) {
  return std::visit(
      [](const auto &E) -> typename S::Value {
        using T = std::decay_t<decltype(E)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          ETCH_UNREACHABLE("summation of an empty stream");
        } else {
          return sumAll<S>(E);
        }
      },
      Q);
}

/// Full contraction through the *real* `parallelSumAll` driver. Requires an
/// indexed outermost level (mask bit 0 clear): a Σ outer level reports
/// index 0 at every state, so range-bounding it would double-count.
template <Semiring S>
typename S::Value dynParallelSumAll(ThreadPool &Pool, const DynStream<S> &Q,
                                    const std::vector<IdxRange> &Chunks) {
  return std::visit(
      [&](const auto &E) -> typename S::Value {
        using T = std::decay_t<decltype(E)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          ETCH_UNREACHABLE("summation of an empty stream");
        } else {
          ETCH_ASSERT((E.mask() & 1) == 0,
                      "parallel drivers need an indexed outer level");
          return parallelSumAll<S>(Pool, E, Chunks);
        }
      },
      Q);
}

/// Chunk-parallel evaluation: the real BoundedStream clips each fork of the
/// cursor, the mask-aware loop evaluates each chunk, and partials merge in
/// chunk order (mirroring parallelEvalStream).
template <Semiring S>
KRelation<S> dynParallelEval(ThreadPool &Pool, const DynStream<S> &Q,
                             const Shape &Sh,
                             const std::vector<IdxRange> &Chunks) {
  return std::visit(
      [&](const auto &E) -> KRelation<S> {
        using T = std::decay_t<decltype(E)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          ETCH_UNREACHABLE("evaluation of an empty stream");
        } else {
          ETCH_ASSERT((E.mask() & 1) == 0,
                      "parallel drivers need an indexed outer level");
          std::vector<KRelation<S>> Parts(Chunks.size(), KRelation<S>(Sh));
          Pool.parallelFor(Chunks.size(), [&](size_t C) {
            T B(BoundedStream<T>(E, Chunks[C].Lo, Chunks[C].Hi), E.mask());
            KRelation<S> R(Sh);
            Tuple Prefix;
            fuzz_detail::evalDynRec<S, T::Depth>(std::move(B), R, Prefix);
            R.pruneZeros();
            Parts[C] = std::move(R);
          });
          KRelation<S> Out(Sh);
          for (const KRelation<S> &P : Parts)
            for (const auto &[T2, V] : P.entries())
              Out.insert(T2, V);
          Out.pruneZeros();
          return Out;
        }
      },
      Q);
}

} // namespace etch

#endif // ETCH_FUZZ_DYNSTREAM_H
