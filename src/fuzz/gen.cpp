//===- fuzz/gen.cpp - Seeded generation of random fuzz cases -------------===//

#include "fuzz/gen.h"

#include "support/assert.h"
#include "support/rng.h"

#include <algorithm>
#include <limits>
#include <set>

using namespace etch;

namespace {

/// An expression under construction, with its typing tracked incrementally
/// (same bookkeeping fuzzValidate re-derives).
struct Node {
  ExprPtr E;
  FuzzTyping Ty;
};

class Gen {
public:
  Gen(uint64_t Seed, const GenOptions &Opts) : R(Seed), Opts(Opts) {}

  FuzzCase run() {
    Huge = R.nextBool(Opts.HugeProb);
    pickSemiring();
    pickDims();
    int Depth = 1 + static_cast<int>(R.nextBelow(
                        static_cast<uint64_t>(std::max(1, Opts.MaxDepth))));
    Node N = genExpr(Depth);

    FuzzCase C;
    C.SemiringName = Semiring;
    const auto &U = fuzzAttrUniverse();
    for (size_t I = 0; I < U.size(); ++I)
      C.Dims.emplace_back(U[I], Dim[I]);
    C.Tensors = Tensors;
    C.E = N.E;

    std::string Err;
    auto Ty = fuzzValidate(C, &Err);
    ETCH_ASSERT(Ty, "generator produced an invalid case");
    ETCH_ASSERT(Ty->Sig == N.Ty.Sig && Ty->Dense == N.Ty.Dense,
                "generator typing out of sync with the validator");
    return C;
  }

private:
  Rng R;
  GenOptions Opts;
  bool Huge = false;
  std::string Semiring;
  std::vector<Idx> Dim; // aligned with fuzzAttrUniverse()
  std::vector<FuzzTensor> Tensors;

  Idx dimOf(Attr A) const {
    const auto &U = fuzzAttrUniverse();
    for (size_t I = 0; I < U.size(); ++I)
      if (U[I] == A)
        return Dim[I];
    ETCH_UNREACHABLE("attribute outside the fuzz universe");
  }

  void pickSemiring() {
    uint64_t X = R.nextBelow(100);
    Semiring = X < 35 ? "f64" : X < 60 ? "i64" : X < 80 ? "bool" : "minplus";
  }

  void pickDims() {
    const auto &U = fuzzAttrUniverse();
    Dim.assign(U.size(), 0);
    if (Huge) {
      const Idx IMax = std::numeric_limits<Idx>::max();
      const Idx Half = static_cast<Idx>(1) << 62;
      const Idx Choices[] = {IMax, IMax - 5, Half + 3, Half, Half - 2};
      bool Equal = R.nextBool(0.7);
      Idx Common = Choices[R.nextBelow(5)];
      for (Idx &D : Dim)
        D = Equal ? Common : Choices[R.nextBelow(5)];
    } else {
      bool Equal = R.nextBool(0.4);
      Idx Common = 2 + static_cast<Idx>(R.nextBelow(7)); // 2..8
      for (Idx &D : Dim) {
        if (Equal)
          D = Common;
        else if (R.nextBool(0.05))
          D = 0; // empty index set: everything over it is empty
        else
          D = 1 + static_cast<Idx>(R.nextBelow(8)); // 1..8
      }
    }
  }

  FuzzFormat pickFormat(size_t Arity) {
    switch (Arity) {
    case 1:
      return (!Huge && R.nextBool(0.45)) ? FuzzFormat::DenseVec
                                         : FuzzFormat::SparseVec;
    case 2:
      if (Huge)
        return FuzzFormat::Dcsr;
      return R.nextBool(0.5) ? FuzzFormat::Csr : FuzzFormat::Dcsr;
    default:
      return FuzzFormat::Csf3;
    }
  }

  /// A coordinate in [0, D) clustered at the interesting spots of a huge
  /// extent: near zero, near 1 << 62 (the repeatUnbounded scale), near the
  /// top of the extent, or uniform.
  Idx hugeCoord(Idx D) {
    Idx C;
    switch (R.nextBelow(4)) {
    case 0:
      C = static_cast<Idx>(R.nextBelow(8));
      break;
    case 1:
      C = (static_cast<Idx>(1) << 62) - 2 + static_cast<Idx>(R.nextBelow(5));
      break;
    case 2:
      C = D - 1 - static_cast<Idx>(R.nextBelow(4));
      break;
    default:
      C = static_cast<Idx>(R.nextBelow(static_cast<uint64_t>(D)));
      break;
    }
    return std::clamp<Idx>(C, 0, D - 1);
  }

  FuzzTensor genTensor(const Shape &Sh) {
    FuzzTensor T;
    T.Name = "t" + std::to_string(Tensors.size());
    T.Shp = Sh;
    T.Fmt = pickFormat(Sh.size());

    uint64_t Target =
        R.nextBool(0.08) ? 0 : 1 + R.nextBelow(Huge ? 6 : 10);
    if (Huge) {
      std::set<Tuple> Got;
      for (uint64_t A = 0; A < Target * 4 && Got.size() < Target; ++A) {
        Tuple Tu;
        for (Attr At : Sh)
          Tu.push_back(hugeCoord(dimOf(At)));
        Got.insert(std::move(Tu));
      }
      for (const Tuple &Tu : Got)
        T.Entries.push_back({Tu, genFuzzValue(R, Semiring)});
    } else {
      uint64_t Uni = 1;
      for (Attr At : Sh)
        Uni *= static_cast<uint64_t>(dimOf(At)); // dims <= 8, so <= 512
      if (Uni > 0 && Uni <= 128 && R.nextBool(0.12))
        Target = Uni; // full (dense) support
      Target = std::min(Target, Uni);
      // Sorted linear indices decode row-major into lexicographically
      // sorted tuples, which is the storage order every format wants.
      for (uint64_t L : R.sampleDistinctSorted(Target, Uni)) {
        Tuple Tu(Sh.size());
        uint64_t Rem = L;
        for (size_t I = Sh.size(); I-- > 0;) {
          uint64_t D = static_cast<uint64_t>(dimOf(Sh[I]));
          Tu[I] = static_cast<Idx>(Rem % D);
          Rem /= D;
        }
        T.Entries.push_back({std::move(Tu), genFuzzValue(R, Semiring)});
      }
    }
    Tensors.push_back(T);
    return T;
  }

  const FuzzTensor *findTensor(const std::string &Name) const {
    for (const FuzzTensor &T : Tensors)
      if (T.Name == Name)
        return &T;
    return nullptr;
  }

  /// A Var leaf of the given shape; sometimes reuses an existing tensor of
  /// that shape so one tensor feeds several operands (aliasing coverage).
  Node genLeaf(const Shape &Sh) {
    ETCH_ASSERT(!Sh.empty() && Sh.size() <= 3, "leaf arity out of range");
    const FuzzTensor *Pick = nullptr;
    if (R.nextBool(0.35)) {
      std::vector<const FuzzTensor *> Same;
      for (const FuzzTensor &T : Tensors)
        if (T.Shp == Sh)
          Same.push_back(&T);
      if (!Same.empty())
        Pick = Same[R.nextBelow(Same.size())];
    }
    FuzzTensor T = Pick ? *Pick : genTensor(Sh);
    Node N;
    N.E = Expr::var(T.Name);
    // Read the shape back off the copy: genTensor grew Tensors, so \p Sh
    // is dangling if the caller passed a stored tensor's shape.
    for (Attr A : T.Shp)
      N.Ty.Sig.push_back({A, false});
    return N;
  }

  /// A random sorted attribute set of arity 1..3 from the universe.
  Shape randomShape() {
    uint64_t X = R.nextBelow(10);
    size_t K = X < 4 ? 1 : X < 8 ? 2 : 3;
    const auto &U = fuzzAttrUniverse();
    Shape Sh;
    for (uint64_t I : R.sampleDistinctSorted(K, U.size()))
      Sh.push_back(U[I]);
    return Sh;
  }

  /// Wraps ↑ around \p N for every attribute of \p Target it is missing.
  Node wrapExpand(Node N, const Shape &Target) {
    for (Attr A : shapeMinus(Target, fuzzIndexedShape(N.Ty.Sig))) {
      N.E = Expr::expand(A, N.E);
      fuzzSigExpandInsert(N.Ty.Sig, A);
      N.Ty.Dense = shapeUnion(N.Ty.Dense, {A});
    }
    return N;
  }

  /// `A · B` over target shape \p Sh: each operand covers a random subset
  /// (their union is Sh) and is expanded up to the full shape, so the
  /// product is dense-free — the paper's inferred-expansion form.
  Node genMul(const Shape &Sh, int D) {
    std::vector<int> Side(Sh.size()); // 0 = both, 1 = left only, 2 = right
    bool AnyL = false, AnyR = false;
    for (int &S : Side) {
      S = Huge ? 0 : static_cast<int>(R.nextBelow(3));
      AnyL |= S != 2;
      AnyR |= S != 1;
    }
    if (!AnyL || !AnyR)
      std::fill(Side.begin(), Side.end(), 0);
    Shape SA, SB;
    for (size_t I = 0; I < Sh.size(); ++I) {
      if (Side[I] != 2)
        SA.push_back(Sh[I]);
      if (Side[I] != 1)
        SB.push_back(Sh[I]);
    }
    Node L = wrapExpand(genSimple(SA, D - 1), Sh);
    Node Rn = wrapExpand(genSimple(SB, D - 1), Sh);
    Node N;
    N.E = Expr::mul(L.E, Rn.E);
    for (Attr At : Sh)
      N.Ty.Sig.push_back({At, false});
    return N; // dense = (Sh\SA) ∩ (Sh\SB) = ∅ by construction
  }

  /// A Σ-free, fully indexed, dense-free expression of exactly shape \p Sh
  /// — the only form allowed under a `·` operand.
  Node genSimple(const Shape &Sh, int D) {
    if (D <= 0 || R.nextBool(0.35))
      return genLeaf(Sh);
    if (R.nextBool(0.5)) {
      Node A = genSimple(Sh, D - 1);
      Node B = genSimple(Sh, D - 1);
      Node N;
      N.E = Expr::add(A.E, B.E);
      N.Ty = A.Ty;
      return N;
    }
    return genMul(Sh, D);
  }

  /// Rebuilds \p E with the same operator structure but freshly chosen
  /// leaf tensors of the same shapes (sometimes the very same tensor) —
  /// guaranteed to have the identical typing, which is what `+` needs.
  ExprPtr genLikeExpr(const ExprPtr &E) {
    switch (E->kind()) {
    case ExprKind::Var: {
      const FuzzTensor *T = findTensor(E->varName());
      ETCH_ASSERT(T, "genLike over an unbound variable");
      if (R.nextBool(0.4))
        return E; // alias the same tensor
      // Copy the shape: genLeaf may materialize a fresh tensor, growing
      // Tensors and invalidating T (and a reference to T->Shp with it).
      Shape Sh = T->Shp;
      return genLeaf(Sh).E;
    }
    case ExprKind::Add:
      return Expr::add(genLikeExpr(E->lhs()), genLikeExpr(E->rhs()));
    case ExprKind::Mul:
      return Expr::mul(genLikeExpr(E->lhs()), genLikeExpr(E->rhs()));
    case ExprKind::Sum:
      return Expr::sum(E->attr(), genLikeExpr(E->lhs()));
    case ExprKind::Expand:
      return Expr::expand(E->attr(), genLikeExpr(E->lhs()));
    case ExprKind::Rename:
      return Expr::rename(E->mapping(), genLikeExpr(E->lhs()));
    }
    ETCH_UNREACHABLE("unknown expression kind");
  }

  /// Tries to wrap \p A in an order-preserving rename whose target
  /// attributes have the same extents (a few random attempts; identity
  /// renames are allowed and still exercise the Rename node).
  bool tryRename(const Node &A, Node &Out) {
    Shape Have = fuzzIndexedShape(A.Ty.Sig);
    if (Have.empty())
      return false;
    const auto &U = fuzzAttrUniverse();
    for (int Try = 0; Try < 6; ++Try) {
      auto Pick = R.sampleDistinctSorted(Have.size(), U.size());
      std::vector<Attr> To;
      bool Ok = true;
      for (size_t I = 0; I < Pick.size() && Ok; ++I) {
        Attr T = U[Pick[I]];
        Ok = dimOf(T) == dimOf(Have[I]);
        To.push_back(T);
      }
      if (!Ok)
        continue;
      std::vector<std::pair<Attr, Attr>> Map;
      for (size_t I = 0; I < Have.size(); ++I)
        if (Have[I] != To[I])
          Map.emplace_back(Have[I], To[I]);
      Out.E = Expr::rename(Map, A.E);
      Out.Ty = A.Ty;
      for (FuzzLevel &L : Out.Ty.Sig) {
        if (L.Contracted)
          continue;
        for (const auto &[F, T] : Map)
          if (L.A == F) {
            L.A = T;
            break;
          }
      }
      Shape ND;
      for (Attr Dn : A.Ty.Dense) {
        Attr Y = Dn;
        for (const auto &[F, T] : Map)
          if (F == Dn) {
            Y = T;
            break;
          }
        ND.push_back(Y);
      }
      Out.Ty.Dense = makeShape(ND);
      return true;
    }
    return false;
  }

  Node genExpr(int D) {
    if (D <= 0)
      return genLeaf(randomShape());
    switch (R.nextBelow(6)) {
    case 0:
      return genLeaf(randomShape());
    case 1:
      return genMul(randomShape(), D);
    case 2: { // add: a structural twin, or an independent same-shape term
      Node A = genExpr(D - 1);
      Shape Sh = fuzzIndexedShape(A.Ty.Sig);
      Node B;
      if (A.Ty.Dense.empty() && fuzzMaskOf(A.Ty.Sig) == 0 && !Sh.empty() &&
          Sh.size() <= 3 && R.nextBool(0.5))
        B = genSimple(Sh, D - 1);
      else
        B = Node{genLikeExpr(A.E), A.Ty};
      Node N;
      N.E = Expr::add(A.E, B.E);
      N.Ty = A.Ty;
      return N;
    }
    case 3: { // sum over any indexed, non-expanded attribute
      Node A = genExpr(D - 1);
      Shape Cand = shapeMinus(fuzzIndexedShape(A.Ty.Sig), A.Ty.Dense);
      if (Cand.empty())
        return A;
      Attr At = Cand[R.nextBelow(Cand.size())];
      Node N;
      N.E = Expr::sum(At, A.E);
      N.Ty = A.Ty;
      fuzzSigContract(N.Ty.Sig, At);
      return N;
    }
    case 4: { // expand over a fresh attribute (normal mode only)
      Node A = genExpr(D - 1);
      if (Huge || static_cast<int>(A.Ty.Sig.size()) >= FuzzMaxLevels)
        return A;
      Shape Cand = shapeMinus(Shape(fuzzAttrUniverse()),
                              fuzzIndexedShape(A.Ty.Sig));
      if (Cand.empty())
        return A;
      Attr At = Cand[R.nextBelow(Cand.size())];
      Node N;
      N.E = Expr::expand(At, A.E);
      N.Ty = A.Ty;
      fuzzSigExpandInsert(N.Ty.Sig, At);
      N.Ty.Dense = shapeUnion(N.Ty.Dense, {At});
      return N;
    }
    default: { // rename
      Node A = genExpr(D - 1);
      Node N;
      return tryRename(A, N) ? N : A;
    }
    }
  }
};

} // namespace

double etch::genFuzzValue(Rng &R, const std::string &Semiring) {
  if (Semiring == "i64")
    return static_cast<double>(R.nextInRange(-3, 3));
  if (Semiring == "bool")
    return R.nextBool(0.9) ? 1.0 : 0.0;
  if (Semiring == "minplus")
    return R.nextBool(0.06)
               ? std::numeric_limits<double>::infinity()
               : static_cast<double>(R.nextInRange(-6, 12)) * 0.5;
  return static_cast<double>(R.nextInRange(-8, 8)) * 0.5; // f64
}

FuzzCase etch::genCase(uint64_t Seed, const GenOptions &Opts) {
  return Gen(Seed, Opts).run();
}
