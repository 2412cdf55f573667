//===- fuzz/exec.cpp - The differential executor matrix -------------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/exec.h"

#include "compiler/bytecode.h"
#include "compiler/frontend.h"
#include "compiler/jit.h"
#include "compiler/vm.h"
#include "fuzz/dynstream.h"
#include "fuzz/legs.h"
#include "ivm/deltafuzz.h"
#include "support/assert.h"

#include <algorithm>
#include <sstream>
#include <type_traits>

using namespace etch;

namespace {

/// Packs \p T's (sorted, distinct, validated) entries into the level
/// composition \p Kinds. The fromCoo builders are deliberately not used:
/// their canonicalization drops values equal to `V()`, which is the
/// additive identity for (+,*) semirings but a perfectly meaningful value
/// under (min,+), where the zero is +inf.
template <Semiring S, size_t R>
LevelPack<FuzzStoreT<S>, R> pack(const FuzzCase &C, const FuzzTensor &T,
                                 const std::array<LevelKind, R> &Kinds) {
  std::array<Idx, R> Extents;
  for (size_t L = 0; L < R; ++L)
    Extents[L] = C.dimOf(T.Shp[L]);
  std::vector<std::pair<std::array<Idx, R>, FuzzStoreT<S>>> Entries;
  for (const FuzzEntry &En : T.Entries) {
    std::array<Idx, R> Tu;
    std::copy(En.Coords.begin(), En.Coords.end(), Tu.begin());
    Entries.push_back({Tu, static_cast<FuzzStoreT<S>>(fuzzValue<S>(En.Val))});
  }
  return packLevels<FuzzStoreT<S>, R>(Kinds, Extents, Entries);
}

template <Semiring S> FuzzStorage<S> materialize(const FuzzCase &C) {
  using V = FuzzStoreT<S>;
  constexpr LevelKind Dn = LevelKind::Dense, Cm = LevelKind::Compressed;
  FuzzStorage<S> M;
  for (const FuzzTensor &T : C.Tensors) {
    switch (T.Fmt) {
    case FuzzFormat::SparseVec: {
      // Also as a hashed level: probe-table inserts, then a frozen sorted
      // snapshot. Entries are distinct, so the snapshot holds exactly the
      // case data, bit-identical to the SparseVector layout.
      SparseVector<V> X(C.dimOf(T.Shp[0]));
      HashedVector<V> H(X.Size, T.Entries.size());
      for (const FuzzEntry &En : T.Entries) {
        X.push(En.Coords[0], static_cast<V>(fuzzValue<S>(En.Val)));
        H.accumulate(En.Coords[0], static_cast<V>(fuzzValue<S>(En.Val)));
      }
      H.freeze();
      M.Sv.emplace(T.Name, std::move(X));
      M.Hv.emplace(T.Name, std::move(H));
      break;
    }
    case FuzzFormat::DenseVec: {
      // Unset positions hold the semiring zero, not V() (again: +inf under
      // (min,+)).
      DenseVector<V> X(C.dimOf(T.Shp[0]), static_cast<V>(S::zero()));
      for (const FuzzEntry &En : T.Entries)
        X.Val[static_cast<size_t>(En.Coords[0])] =
            static_cast<V>(fuzzValue<S>(En.Val));
      M.Dv.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::Csr: {
      auto P = pack<S, 2>(C, T, {Dn, Cm});
      CsrMatrix<V> X(C.dimOf(T.Shp[0]), C.dimOf(T.Shp[1]));
      X.Pos = std::move(P.Pos[1]);
      X.Crd = std::move(P.Crd[1]);
      X.Val = std::move(P.Val);
      M.Csr.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::Dcsr: {
      auto P = pack<S, 2>(C, T, {Cm, Cm});
      DcsrMatrix<V> X;
      X.NumRows = C.dimOf(T.Shp[0]);
      X.NumCols = C.dimOf(T.Shp[1]);
      X.RowCrd = std::move(P.Crd[0]);
      X.Pos = std::move(P.Pos[1]);
      X.Crd = std::move(P.Crd[1]);
      X.Val = std::move(P.Val);
      M.Dcsr.emplace(T.Name, std::move(X));
      break;
    }
    case FuzzFormat::Csf3: {
      auto P = pack<S, 3>(C, T, {Cm, Cm, Cm});
      CsfTensor3<V> X;
      X.DimI = C.dimOf(T.Shp[0]);
      X.DimJ = C.dimOf(T.Shp[1]);
      X.DimK = C.dimOf(T.Shp[2]);
      X.Crd0 = std::move(P.Crd[0]);
      X.Pos0 = std::move(P.Pos[1]);
      X.Crd1 = std::move(P.Crd[1]);
      X.Pos1 = std::move(P.Pos[2]);
      X.Crd2 = std::move(P.Crd[2]);
      X.Val = std::move(P.Val);
      M.Csf.emplace(T.Name, std::move(X));
      break;
    }
    }
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Oracle and dispatch
//===----------------------------------------------------------------------===//

/// Materializes every dense (expand-produced) attribute of \p R over its
/// full extent [0, dim). KRelation::expandFinite cannot do this (it asserts
/// the attribute is not already in the shape), so replay each entry against
/// a copy whose dense set shrinks by one attribute at a time.
template <Semiring S>
KRelation<S> densifyAll(KRelation<S> R, const FuzzCase &C) {
  while (!R.denseAttrs().empty()) {
    Attr A = R.denseAttrs().front();
    Idx N = C.dimOf(A);
    KRelation<S> Next(R.shape(), shapeMinus(R.denseAttrs(), Shape{A}));
    int Pos = shapeIndexOf(Next.finiteShape(), A);
    ETCH_ASSERT(Pos >= 0, "densified attribute must be finite");
    for (const auto &[T, V] : R.entries())
      for (Idx I = 0; I < N; ++I) {
        Tuple U = T;
        U.insert(U.begin() + Pos, I);
        Next.insert(U, V);
      }
    R = std::move(Next);
  }
  R.pruneZeros();
  return R;
}

template <Semiring S> ValueContext<S> inputsOf(const FuzzCase &C) {
  ValueContext<S> Inputs;
  for (const FuzzTensor &T : C.Tensors)
    Inputs.emplace(T.Name, fuzzTensorRelation<S>(T));
  return Inputs;
}

template <Semiring S>
FuzzOracle<S> oracleOf(const FuzzCase &C, const ValueContext<S> &Inputs) {
  FuzzOracle<S> O;
  O.Want = densifyAll<S>(evalT<S>(C.E, Inputs), C);
  for (const auto &[Tu, V] : O.Want.entries())
    O.Total = S::add(O.Total, V);
  return O;
}

/// Validates \p C and runs \p F(std::type_identity<S>{}, typing) under the
/// case's semiring S. Returns why the case is invalid, or nullopt once F
/// has run.
template <class Fn>
std::optional<std::string> withTypedCase(const FuzzCase &C, Fn &&F) {
  std::string Err;
  std::optional<FuzzTyping> Ty = fuzzValidate(C, &Err);
  if (!Ty)
    return Err;
  if (C.SemiringName == "f64")
    F(std::type_identity<F64Semiring>{}, *Ty);
  else if (C.SemiringName == "i64")
    F(std::type_identity<I64Semiring>{}, *Ty);
  else if (C.SemiringName == "bool")
    F(std::type_identity<BoolSemiring>{}, *Ty);
  else if (C.SemiringName == "minplus")
    F(std::type_identity<MinPlusSemiring>{}, *Ty);
  else
    return "unknown semiring '" + C.SemiringName + "'";
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// The streams leg
//===----------------------------------------------------------------------===//

const char *policyName(SearchPolicy P) {
  constexpr const char *Names[] = {"linear", "binary", "gallop"};
  return Names[static_cast<size_t>(P)];
}

/// Builds the type-erased runtime stream for an expression, mirroring the
/// placement discipline fuzzValidate derives (and the compiler lowers):
/// Σ contracts the unique indexed level carrying its attribute; ↑ inserts a
/// repeat level at the shallowest slot after `attrsBefore` indexed levels.
template <Semiring S, SearchPolicy P> struct StreamBuilder {
  const FuzzCase &C;
  const FuzzStorage<S> &M;
  bool Hashed1D = false; ///< Sparse vectors stream from M.Hv, not M.Sv.

  struct Res {
    DynStream<S> Q;
    FuzzSig Sig;
  };

  Res build(const ExprPtr &E) const {
    switch (E->kind()) {
    case ExprKind::Var: {
      const FuzzTensor *T = C.tensor(E->varName());
      ETCH_ASSERT(T, "expression references an unknown tensor");
      Res R;
      for (Attr A : T->Shp)
        R.Sig.push_back(FuzzLevel{A, false});
      switch (T->Fmt) {
      case FuzzFormat::SparseVec:
        if (Hashed1D)
          R.Q = Erased<S, 1>(M.Hv.at(T->Name).template stream<P>(), 0u);
        else
          R.Q = Erased<S, 1>(M.Sv.at(T->Name).template stream<P>(), 0u);
        break;
      case FuzzFormat::DenseVec:
        R.Q = Erased<S, 1>(M.Dv.at(T->Name).stream(), 0u);
        break;
      case FuzzFormat::Csr:
        R.Q = Erased<S, 2>(M.Csr.at(T->Name).template stream<P>(), 0u);
        break;
      case FuzzFormat::Dcsr:
        R.Q = Erased<S, 2>(M.Dcsr.at(T->Name).template stream<P, P>(), 0u);
        break;
      case FuzzFormat::Csf3:
        R.Q = Erased<S, 3>(M.Csf.at(T->Name).template stream<P>(), 0u);
        break;
      }
      return R;
    }
    case ExprKind::Mul: {
      Res A = build(E->lhs()), B = build(E->rhs());
      return Res{dynMul<S>(A.Q, B.Q), A.Sig};
    }
    case ExprKind::Add: {
      Res A = build(E->lhs()), B = build(E->rhs());
      return Res{dynAdd<S>(A.Q, B.Q), A.Sig};
    }
    case ExprKind::Sum: {
      Res A = build(E->lhs());
      int K = -1;
      for (size_t L = 0; L < A.Sig.size(); ++L)
        if (!A.Sig[L].Contracted && A.Sig[L].A == E->attr()) {
          K = static_cast<int>(L);
          break;
        }
      ETCH_ASSERT(K >= 0, "sum attribute not in the signature");
      Res O;
      O.Q = dynContractAt<S>(A.Q, K);
      O.Sig = A.Sig;
      O.Sig[static_cast<size_t>(K)].Contracted = true;
      return O;
    }
    case ExprKind::Expand: {
      Res A = build(E->lhs());
      int Depth = attrsBefore(fuzzIndexedShape(A.Sig), E->attr());
      size_t K = 0;
      for (int Seen = 0; K < A.Sig.size() && Seen < Depth; ++K)
        if (!A.Sig[K].Contracted)
          ++Seen;
      Res O;
      O.Q = dynExpandAt<S>(A.Q, static_cast<int>(K), C.dimOf(E->attr()));
      O.Sig = A.Sig;
      fuzzSigExpandInsert(O.Sig, E->attr());
      return O;
    }
    case ExprKind::Rename: {
      // Pure re-labelling: the stream is untouched, only the signature's
      // indexed attributes change (extents are equal by validation).
      Res A = build(E->lhs());
      for (FuzzLevel &L : A.Sig) {
        if (L.Contracted)
          continue;
        for (const auto &[From, To] : E->mapping())
          if (L.A == From) {
            L.A = To;
            break;
          }
      }
      return A;
    }
    }
    ETCH_UNREACHABLE("unknown expression kind");
  }
};

/// The runtime-stream realizations under one search policy, each held to
/// the oracle: the mask-aware evaluation, evalStream (nothing contracted),
/// sumAll, and the parallel drivers (outermost level indexed).
template <Semiring S, SearchPolicy P>
void streamRealizations(const FuzzTypedCase<S> &Ctx, const FuzzStorage<S> &M,
                        bool Hashed1D, FuzzRealizations<S> &Out) {
  const FuzzCase &C = Ctx.C;
  std::string Tag = std::string(Hashed1D ? "hstream/" : "stream/") +
                    policyName(P);
  StreamBuilder<S, P> B{C, M, Hashed1D};
  auto R = B.build(C.E);
  ETCH_ASSERT(R.Sig == Ctx.Ty.Sig, "builder and validator signatures agree");
  uint32_t Mask = fuzzMaskOf(R.Sig);
  ETCH_ASSERT(Mask == dynMask<S>(R.Q), "mask bookkeeping agrees");
  Shape OutSh = fuzzIndexedShape(R.Sig);

  auto Add = [&](const std::string &Leg, auto Got) {
    FuzzRealization<S> X;
    X.Tag = Tag + Leg;
    X.Checks = FuzzCheckOracle;
    if constexpr (std::is_same_v<decltype(Got), KRelation<S>>)
      X.Rel = std::move(Got);
    else
      X.Total = Got;
    Out.push_back(std::move(X));
  };
  // The library's own evalStream / parallelEvalStream, sound when nothing
  // is contracted.
  auto EvalStream = [&](const auto &Eval) {
    return std::visit(
        [&](const auto &E) -> KRelation<S> {
          using T = std::decay_t<decltype(E)>;
          if constexpr (std::is_same_v<T, std::monostate>)
            ETCH_UNREACHABLE("evaluation of an empty stream");
          else
            return Eval(E);
        },
        R.Q);
  };

  Add("/eval", dynEval<S>(R.Q, OutSh));
  if (Mask == 0)
    Add("/evalStream",
        EvalStream([&](const auto &E) { return evalStream<S>(E, OutSh); }));
  Add("/sumAll", dynSumAll<S>(R.Q));

  // Parallel drivers need an indexed outermost level to range-partition.
  if ((Mask & 1) != 0 || R.Sig.empty())
    return;
  Idx Extent = C.dimOf(R.Sig[0].A);
  for (size_t NC : {size_t(1), size_t(3)}) {
    std::string N = std::to_string(NC);
    auto Chunks = partitionDense(Extent, NC);
    Add("/psum" + N, dynParallelSumAll<S>(Ctx.Pool, R.Q, Chunks));
    Add("/peval" + N, dynParallelEval<S>(Ctx.Pool, R.Q, OutSh, Chunks));
    if (Mask == 0)
      Add("/pevalStream" + N, EvalStream([&](const auto &E) {
            return parallelEvalStream<S>(Ctx.Pool, E, OutSh, Chunks);
          }));
  }
}

struct StreamsLeg {
  template <Semiring S>
  static void build(const FuzzTypedCase<S> &Ctx, FuzzRealizations<S> &Out) {
    streamRealizations<S, SearchPolicy::Linear>(Ctx, Ctx.Storage, false, Out);
    streamRealizations<S, SearchPolicy::Binary>(Ctx, Ctx.Storage, false, Out);
    streamRealizations<S, SearchPolicy::Gallop>(Ctx, Ctx.Storage, false, Out);
  }
};

//===----------------------------------------------------------------------===//
// The compiled legs: tree, bytecode, native
//===----------------------------------------------------------------------===//

template <Semiring S> const ScalarAlgebra &algebraOf() {
  if constexpr (std::is_same_v<S, F64Semiring>)
    return f64Algebra();
  else if constexpr (std::is_same_v<S, I64Semiring>)
    return i64Algebra();
  else if constexpr (std::is_same_v<S, BoolSemiring>)
    return boolAlgebra();
  else
    return minPlusAlgebra();
}

/// How the formats matrix re-binds sparse-vector tensors: as stored
/// (None), or overridden to a hashed, compressed, or dense level. All
/// three overrides bind the same sorted snapshot data, so the compiled
/// legs compute over identical inputs.
enum class VecOverride { None, Hashed, Compressed, Dense };

TensorBinding bindingFor(const FuzzTensor &T, SearchPolicy P,
                         VecOverride Ov = VecOverride::None, size_t Nnz = 0) {
  switch (T.Fmt) {
  case FuzzFormat::SparseVec:
    switch (Ov) {
    case VecOverride::None:
    case VecOverride::Compressed:
      break;
    case VecOverride::Hashed:
      return hashedVecBinding(T.Name, T.Shp[0], hashedTabSizeFor(Nnz), P);
    case VecOverride::Dense:
      return denseVecBinding(T.Name, T.Shp[0]);
    }
    return sparseVecBinding(T.Name, T.Shp[0], P);
  case FuzzFormat::DenseVec:
    return denseVecBinding(T.Name, T.Shp[0]);
  case FuzzFormat::Csr:
    return csrBinding(T.Name, T.Shp[0], T.Shp[1], P);
  case FuzzFormat::Dcsr:
    return dcsrBinding(T.Name, T.Shp[0], T.Shp[1], P);
  case FuzzFormat::Csf3:
    return csf3Binding(T.Name, T.Shp[0], T.Shp[1], T.Shp[2], P);
  }
  ETCH_UNREACHABLE("unknown format");
}

template <Semiring S>
void bindArrays(VmMemory &Mem, const FuzzTensor &T, const FuzzStorage<S> &M,
                VecOverride Ov = VecOverride::None) {
  using V = FuzzStoreT<S>;
  auto PutVals = [&Mem](const std::string &Name, const std::vector<V> &Data) {
    if constexpr (std::is_same_v<typename S::Value, bool>) {
      std::vector<ImpValue> W;
      W.reserve(Data.size());
      for (V X : Data)
        W.push_back(static_cast<bool>(X));
      Mem.setArray(Name, std::move(W));
    } else if constexpr (std::is_same_v<typename S::Value, int64_t>) {
      Mem.setArrayI64(Name, Data);
    } else {
      Mem.setArrayF64(Name, Data);
    }
  };
  auto PutPos = [&Mem](const std::string &Name,
                       const std::vector<size_t> &Pos) {
    Mem.setArrayI64(Name,
                    std::vector<int64_t>(Pos.begin(), Pos.end()));
  };
  switch (T.Fmt) {
  case FuzzFormat::SparseVec: {
    const auto &X = M.Sv.at(T.Name);
    if (Ov == VecOverride::Hashed) {
      const auto &H = M.Hv.at(T.Name);
      Mem.setArrayI64(T.Name + "_pos0",
                      {0, static_cast<int64_t>(H.Crd.size())});
      Mem.setArrayI64(T.Name + "_crd0", H.Crd);
      PutVals(T.Name + "_vals", H.Val);
      int64_t TabSize = hashedTabSizeFor(H.Crd.size());
      auto [Key, Rank] = hashedProbeArrays(H.Crd, TabSize);
      Mem.setArrayI64(T.Name + "_hkey0", Key);
      Mem.setArrayI64(T.Name + "_hpos0", Rank);
      break;
    }
    if (Ov == VecOverride::Dense) {
      // Unset positions hold the semiring zero (+inf under (min,+)).
      std::vector<V> D(static_cast<size_t>(X.Size),
                       static_cast<V>(S::zero()));
      for (size_t Q = 0; Q < X.Crd.size(); ++Q)
        D[static_cast<size_t>(X.Crd[Q])] = X.Val[Q];
      PutVals(T.Name + "_vals", D);
      break;
    }
    Mem.setArrayI64(T.Name + "_pos0",
                    {0, static_cast<int64_t>(X.Crd.size())});
    Mem.setArrayI64(T.Name + "_crd0", X.Crd);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  case FuzzFormat::DenseVec: {
    PutVals(T.Name + "_vals", M.Dv.at(T.Name).Val);
    break;
  }
  case FuzzFormat::Csr: {
    const auto &X = M.Csr.at(T.Name);
    PutPos(T.Name + "_pos1", X.Pos);
    Mem.setArrayI64(T.Name + "_crd1", X.Crd);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  case FuzzFormat::Dcsr: {
    const auto &X = M.Dcsr.at(T.Name);
    Mem.setArrayI64(T.Name + "_pos0",
                    {0, static_cast<int64_t>(X.RowCrd.size())});
    Mem.setArrayI64(T.Name + "_crd0", X.RowCrd);
    PutPos(T.Name + "_pos1", X.Pos);
    Mem.setArrayI64(T.Name + "_crd1", X.Crd);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  case FuzzFormat::Csf3: {
    const auto &X = M.Csf.at(T.Name);
    Mem.setArrayI64(T.Name + "_pos0",
                    {0, static_cast<int64_t>(X.Crd0.size())});
    Mem.setArrayI64(T.Name + "_crd0", X.Crd0);
    PutPos(T.Name + "_pos1", X.Pos0);
    Mem.setArrayI64(T.Name + "_crd1", X.Crd1);
    PutPos(T.Name + "_pos2", X.Pos1);
    Mem.setArrayI64(T.Name + "_crd2", X.Crd2);
    PutVals(T.Name + "_vals", X.Val);
    break;
  }
  }
}

/// Lowers \p C at opt level \p K, every sparse vector bound per \p Ov.
/// The search policy rotates with the level: O0 linear, O1 binary, O2
/// gallop (the SearchPolicy enumerators' order).
template <Semiring S>
PRef compileCase(const FuzzCase &C, int K, VecOverride Ov,
                 const FuzzStorage<S> &M) {
  LowerCtx Ctx;
  Ctx.Alg = &algebraOf<S>();
  Ctx.OptLevel = K;
  for (const auto &[A, N] : C.Dims)
    Ctx.setDim(A, N);
  for (const FuzzTensor &T : C.Tensors) {
    size_t Nnz = T.Fmt == FuzzFormat::SparseVec && Ov != VecOverride::None
                     ? M.Hv.at(T.Name).nnz()
                     : 0;
    Ctx.bind(bindingFor(T, static_cast<SearchPolicy>(K), Ov, Nnz));
  }
  return compileFullContraction(Ctx, C.E, "out");
}

/// The case's stored-format program at opt level \p K, compiled once.
template <Semiring S>
const PRef &programOf(const FuzzTypedCase<S> &Ctx, int K) {
  PRef &P = Ctx.Programs[static_cast<size_t>(K)];
  if (!P)
    P = compileCase<S>(Ctx.C, K, VecOverride::None, Ctx.Storage);
  return P;
}

/// Runs \p Prog once on executor \p Exec over \p M's arrays, sparse
/// vectors bound per \p Ov. Native kernels are compiled with \p JO. A
/// compile error fails the realization; the JIT's source-size cap
/// declines it (production falls back to the bytecode VM, so that is no
/// emitter gap).
template <Semiring S>
FuzzRealization<S> execute(FuzzLeg Exec, const PRef &Prog,
                           const JitOptions &JO, const FuzzCase &C,
                           const FuzzStorage<S> &M, VecOverride Ov,
                           std::string Tag, unsigned Checks) {
  FuzzRealization<S> R;
  R.Tag = std::move(Tag);
  R.Checks = Checks;
  VmMemory Mem;
  for (const FuzzTensor &T : C.Tensors)
    bindArrays<S>(Mem, T, M, Ov);
  VmRunResult Run;
  switch (Exec) {
  case FuzzLeg::Tree:
    Run = vmRun(Prog, Mem);
    break;
  case FuzzLeg::Bytecode: {
    BytecodeProgram BC = compileBytecode(Prog);
    if (!BC.ok()) {
      R.Failed = "bytecode compile error: " + BC.CompileError;
      return R;
    }
    Run = bytecodeRun(BC, Mem);
    break;
  }
  case FuzzLeg::Native: {
    std::string JitErr;
    NativeKernelRef K = jitCompile(Prog, JO, &JitErr);
    if (!K) {
      if (JitErr.rfind(JitSourceTooLargePrefix, 0) == 0)
        R.Declined = true;
      else
        R.Failed = "jit compile error: " + JitErr;
      return R;
    }
    Run = K->run(Mem);
    break;
  }
  default:
    ETCH_UNREACHABLE("not an executor leg");
  }
  R.Error = Run.Error.value_or("");
  R.Steps = Run.Steps;
  if (!Run.ok())
    return R;
  auto Out = Mem.getScalar("out");
  if (const auto *V = Out ? std::get_if<typename S::Value>(&*Out) : nullptr)
    R.Total = *V;
  else
    R.Missing = Out ? "'out' has the wrong scalar type"
                    : "program produced no 'out' scalar";
  return R;
}

/// The compiled executors, anchor first: the tree VM is the reference the
/// others are held to step for step.
struct Executor {
  FuzzLeg Leg;
  const char *Short; ///< Tag stem: "vm", "bvm", "nvm".
};
constexpr Executor Executors[] = {{FuzzLeg::Tree, "vm"},
                                  {FuzzLeg::Bytecode, "bvm"},
                                  {FuzzLeg::Native, "nvm"}};

/// \p E's realizations of \p Progs (one per opt level), tagged
/// FormTag + "<short>/O<k>" and held to the oracle. With the tree leg
/// selected, the other executors are also cross-checked against it —
/// identical steps, error text and output bits — under
/// FormTag + "tree-vs-<short>/O<k>". Native kernels count steps so that
/// even budget exhaustion must agree.
template <Semiring S>
void executorRealizations(const FuzzTypedCase<S> &Ctx, const Executor &E,
                          const std::array<PRef, 3> &Progs,
                          const FuzzStorage<S> &M, VecOverride Ov,
                          const std::string &FormTag,
                          FuzzRealizations<S> &Out) {
  JitOptions JO;
  JO.CountSteps = true;
  for (int K = 0; K < 3; ++K) {
    std::string Level = "O" + std::to_string(K);
    FuzzRealization<S> R = execute<S>(
        E.Leg, Progs[static_cast<size_t>(K)], JO, Ctx.C, M, Ov,
        FormTag + E.Short + "/" + Level, FuzzCheckOracle);
    if (E.Leg != FuzzLeg::Tree && Ctx.Legs.has(FuzzLeg::Tree))
      R.Anchors.push_back({FormTag + "vm/" + Level,
                           FormTag + "tree-vs-" + E.Short + "/" + Level,
                           FuzzCheckSteps | FuzzCheckError | FuzzCheckBits});
    Out.push_back(std::move(R));
  }
}

template <FuzzLeg L> struct ExecutorLeg {
  template <Semiring S>
  static void build(const FuzzTypedCase<S> &Ctx, FuzzRealizations<S> &Out) {
    for (const Executor &E : Executors)
      if (E.Leg == L)
        executorRealizations<S>(
            Ctx, E, {programOf(Ctx, 0), programOf(Ctx, 1), programOf(Ctx, 2)},
            Ctx.Storage, VecOverride::None, "", Out);
  }
};

/// The dense override materializes the full extent; beyond this it is
/// skipped (sparse vectors over huge index spaces are exactly the inputs
/// hashing exists for).
constexpr Idx MaxDenseOverrideExtent = Idx(1) << 16;

/// Every sparse vector re-materialized hashed: hashed runtime streams per
/// policy against the oracle, and each selected executor with sparse
/// vectors re-bound hashed / compressed / dense ("h"/"c"/"d" tag
/// prefixes). Hashed and compressed iterate the same sorted snapshot, so
/// their outputs must agree bit-for-bit; dense changes the loop structure
/// and is held to the oracle tolerance only. Cases without a sparse vector
/// have nothing to re-bind.
struct FormatsLeg {
  template <Semiring S>
  static void build(const FuzzTypedCase<S> &Ctx, FuzzRealizations<S> &Out) {
    const FuzzCase &C = Ctx.C;
    bool AnySparseVec = false, DenseOk = true;
    for (const FuzzTensor &T : C.Tensors)
      if (T.Fmt == FuzzFormat::SparseVec) {
        AnySparseVec = true;
        DenseOk = DenseOk && C.dimOf(T.Shp[0]) <= MaxDenseOverrideExtent;
      }
    if (!AnySparseVec)
      return;
    const FuzzStorage<S> &M = Ctx.Storage;

    streamRealizations<S, SearchPolicy::Linear>(Ctx, M, true, Out);
    streamRealizations<S, SearchPolicy::Binary>(Ctx, M, true, Out);
    streamRealizations<S, SearchPolicy::Gallop>(Ctx, M, true, Out);

    const struct {
      VecOverride Ov;
      const char *Form;
    } Forms[] = {{VecOverride::Hashed, "h"},
                 {VecOverride::Compressed, "c"},
                 {VecOverride::Dense, "d"}};
    for (const auto &F : Forms) {
      if (F.Ov == VecOverride::Dense && !DenseOk)
        continue;
      std::array<PRef, 3> Progs;
      for (int K = 0; K < 3; ++K)
        Progs[static_cast<size_t>(K)] = compileCase<S>(C, K, F.Ov, M);
      for (const Executor &E : Executors)
        if (Ctx.Legs.has(E.Leg))
          executorRealizations<S>(Ctx, E, Progs, M, F.Ov, F.Form, Out);
    }

    // Hashed vs compressed on the first selected executor.
    auto First = std::find_if(
        std::begin(Executors), std::end(Executors),
        [&](const Executor &E) { return Ctx.Legs.has(E.Leg); });
    if (First == std::end(Executors))
      return;
    for (FuzzRealization<S> &R : Out)
      for (int K = 0; K < 3; ++K) {
        std::string Stem = First->Short + ("/O" + std::to_string(K));
        if (R.Tag == "c" + Stem)
          R.Anchors.push_back({"h" + Stem,
                               "hashed-vs-compressed/O" + std::to_string(K),
                               FuzzCheckBits});
      }
  }
};

/// The dense-tail tiling matrix: the O2/gallop program on the tree VM and
/// as uncounted native kernels at several TileDenseTails values. Tiles
/// force both degenerate blocks (3: many boundary re-checks) and
/// whole-loop blocks (1024: most fuzz extents fit one block). The blocked
/// emission must be invisible: identical error text and output bits across
/// every tile, and bits identical to the tree VM whenever both succeeded.
/// Uncounted kernels have no step parity, and a tree-VM budget exhaustion
/// is not comparable to them, so errors are not held to the oracle.
struct TilesLeg {
  template <Semiring S>
  static void build(const FuzzTypedCase<S> &Ctx, FuzzRealizations<S> &Out) {
    const PRef &Prog = programOf(Ctx, 2);
    const VecOverride Ov = VecOverride::None;
    Out.push_back(execute<S>(FuzzLeg::Tree, Prog, JitOptions{}, Ctx.C,
                             Ctx.Storage, Ov, "tiles/vm/O2",
                             FuzzCheckOracleIfOk));
    for (int64_t Tile : {0, 3, 1024}) {
      JitOptions JO;
      JO.CountSteps = false;
      JO.TileDenseTails = Tile;
      std::string T = std::to_string(Tile);
      FuzzRealization<S> R =
          execute<S>(FuzzLeg::Native, Prog, JO, Ctx.C, Ctx.Storage, Ov,
                     "tiles/nvm/t" + T, FuzzCheckOracleIfOk);
      if (Tile == 0)
        R.Anchors.push_back(
            {"tiles/vm/O2", "tiles/tree-vs-plain", FuzzCheckBits});
      else
        R.Anchors.push_back({"tiles/nvm/t0", "tiles/plain-vs-t" + T,
                             FuzzCheckError | FuzzCheckBits});
      Out.push_back(std::move(R));
    }
  }
};

ThreadPool &sharedFuzzPool() {
  // Shared across calls: the shrinker invokes the executor hundreds of
  // times per campaign and must not pay thread spawn/join each time.
  static ThreadPool Pool(3);
  return Pool;
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry and driver
//===----------------------------------------------------------------------===//

const std::vector<FuzzLegRow> &etch::fuzzLegRegistry() {
  static const std::vector<FuzzLegRow> Rows = {
      {FuzzLeg::Streams, "streams", false, fuzzCaseBuild<StreamsLeg>(),
       nullptr},
      {FuzzLeg::Tree, "tree", false,
       fuzzCaseBuild<ExecutorLeg<FuzzLeg::Tree>>(), nullptr},
      {FuzzLeg::Bytecode, "bytecode", false,
       fuzzCaseBuild<ExecutorLeg<FuzzLeg::Bytecode>>(), nullptr},
      {FuzzLeg::Native, "native", true,
       fuzzCaseBuild<ExecutorLeg<FuzzLeg::Native>>(), nullptr},
      {FuzzLeg::Formats, "formats", false, fuzzCaseBuild<FormatsLeg>(),
       nullptr},
      {FuzzLeg::Tiles, "tiles", true, fuzzCaseBuild<TilesLeg>(), nullptr},
      {FuzzLeg::Delta, "delta", false, deltaCaseBuild(), &deltaSeedBuild},
  };
  return Rows;
}

std::optional<FuzzLegSet> etch::parseFuzzLegs(const std::string &List,
                                              std::string *Err) {
  FuzzLegSet Legs;
  std::istringstream In(List);
  const auto &Rows = fuzzLegRegistry();
  for (std::string Name; std::getline(In, Name, ',');) {
    auto It = std::find_if(Rows.begin(), Rows.end(),
                           [&](const auto &Row) { return Name == Row.Name; });
    if (It == Rows.end()) {
      if (Err)
        *Err = "unknown leg '" + Name + "'";
      return std::nullopt;
    }
    Legs.add(It->Leg);
  }
  if (Legs.empty()) {
    if (Err)
      *Err = "no legs selected";
    return std::nullopt;
  }
  return Legs;
}

std::string etch::fuzzLegNames(FuzzLegSet Legs) {
  std::string Out;
  for (const FuzzLegRow &Row : fuzzLegRegistry())
    if (Legs.has(Row.Leg))
      Out += (Out.empty() ? "" : ",") + std::string(Row.Name);
  return Out;
}

bool etch::fuzzLegsNeedToolchain(FuzzLegSet Legs) {
  for (const FuzzLegRow &Row : fuzzLegRegistry())
    if (Legs.has(Row.Leg) && Row.NeedsToolchain)
      return true;
  return false;
}

void etch::fuzzReportDiv(FuzzReport &Rep, const std::string &Context,
                         std::string Leg, const std::string &Detail) {
  constexpr size_t Cap = 2000;
  std::string D = Context.empty() ? Detail : Context + "\n" + Detail;
  if (D.size() > Cap) {
    D.resize(Cap);
    D += " ...";
  }
  Rep.Divs.push_back(FuzzDivergence{std::move(Leg), std::move(D)});
}

std::string FuzzReport::toString() const {
  if (Invalid)
    return "invalid: " + ValidationError;
  if (Divs.empty())
    return "ok";
  std::ostringstream Os;
  Os << Divs.size() << " divergence(s)";
  for (const FuzzDivergence &D : Divs)
    Os << "\n[" << D.Leg << "] " << D.Detail;
  return Os.str();
}

FuzzReport etch::runFuzzCase(const FuzzCase &C, ThreadPool &Pool,
                             FuzzLegSet Legs) {
  FuzzReport Rep;
  auto Invalid = withTypedCase(C, [&](auto Sr, const FuzzTyping &Ty) {
    using S = typename decltype(Sr)::type;
    ValueContext<S> Inputs = inputsOf<S>(C);
    FuzzOracle<S> Oracle = oracleOf<S>(C, Inputs);
    FuzzTypedCase<S> Ctx{C,
                         Ty,
                         Legs,
                         Pool,
                         std::move(Inputs),
                         std::move(Oracle),
                         materialize<S>(C),
                         {}};
    FuzzRealizations<S> Rs;
    for (const FuzzLegRow &Row : fuzzLegRegistry())
      if (Legs.has(Row.Leg))
        if (FuzzCaseBuilder<S> Build = std::get<FuzzCaseBuilder<S>>(Row.Build))
          Build(Ctx, Rs);
    fuzzCrossCheck<S>(Rs, &Ctx.Oracle, C.summary(), Rep);
  });
  if (Invalid) {
    Rep.Invalid = true;
    Rep.ValidationError = *Invalid;
  }
  return Rep;
}

FuzzReport etch::runFuzzCase(const FuzzCase &C, FuzzLegSet Legs) {
  return runFuzzCase(C, sharedFuzzPool(), Legs);
}

FuzzReport etch::runFuzzSeed(uint64_t Seed, FuzzLegSet Legs) {
  FuzzReport Rep;
  FuzzRealizations<F64Semiring> Rs;
  for (const FuzzLegRow &Row : fuzzLegRegistry())
    if (Legs.has(Row.Leg) && Row.BuildSeed)
      Row.BuildSeed(Seed, Legs, Rs, Rep);
  fuzzCrossCheck<F64Semiring>(Rs, nullptr, "", Rep);
  return Rep;
}

std::optional<FuzzTotal> etch::fuzzOracleTotal(const FuzzCase &C) {
  std::optional<FuzzTotal> Total;
  withTypedCase(C, [&](auto Sr, const FuzzTyping &) {
    using S = typename decltype(Sr)::type;
    FuzzOracle<S> O = oracleOf<S>(C, inputsOf<S>(C));
    Total = FuzzTotal{fuzzValStr<S>(O.Total), static_cast<double>(O.Total)};
  });
  return Total;
}
