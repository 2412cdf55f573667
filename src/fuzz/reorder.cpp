//===- fuzz/reorder.cpp - Attribute-order sweeps for fuzz cases -----------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/reorder.h"

#include "support/assert.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

namespace etch {

namespace {

/// Pre-interned permutation universes: for every permutation of the fuzz
/// pool there is a fixed quadruple of fresh attributes interned ascending,
/// so realizing an order never perturbs the global interning order at
/// sweep time. 24 * 4 attributes total, built once.
const std::map<FuzzPerm, std::vector<Attr>> &permUniverses() {
  static const std::map<FuzzPerm, std::vector<Attr>> Table = [] {
    std::map<FuzzPerm, std::vector<Attr>> T;
    FuzzPerm P{0, 1, 2, 3};
    int Rank = 0;
    do {
      std::vector<Attr> Us;
      for (int I = 0; I < 4; ++I)
        Us.push_back(Attr::named("fzp" + std::to_string(Rank) + "_" +
                                 std::to_string(I)));
      T.emplace(P, std::move(Us));
      ++Rank;
    } while (std::next_permutation(P.begin(), P.end()));
    return T;
  }();
  return Table;
}

/// The dense-storage extent guard of fuzzValidate; a reorder that lands a
/// huge extent on a CSR row level downgrades the tensor to DCSR instead of
/// becoming illegal.
constexpr Idx DenseExtentGuard = 1 << 20;

ExprPtr mapExpr(const ExprPtr &E, const std::map<uint32_t, Attr> &M) {
  auto MapA = [&M](Attr A) {
    auto It = M.find(A.id());
    return It == M.end() ? A : It->second;
  };
  switch (E->kind()) {
  case ExprKind::Var:
    return Expr::var(E->varName());
  case ExprKind::Add:
    return Expr::add(mapExpr(E->lhs(), M), mapExpr(E->rhs(), M));
  case ExprKind::Mul:
    return Expr::mul(mapExpr(E->lhs(), M), mapExpr(E->rhs(), M));
  case ExprKind::Sum:
    return Expr::sum(MapA(E->attr()), mapExpr(E->lhs(), M));
  case ExprKind::Expand:
    return Expr::expand(MapA(E->attr()), mapExpr(E->lhs(), M));
  case ExprKind::Rename: {
    std::vector<std::pair<Attr, Attr>> Pairs;
    for (const auto &[From, To] : E->mapping())
      Pairs.emplace_back(MapA(From), MapA(To));
    return Expr::rename(std::move(Pairs), mapExpr(E->lhs(), M));
  }
  }
  ETCH_UNREACHABLE("unknown expression kind");
}

std::string permToString(const FuzzPerm &Perm) {
  const auto &U = fuzzAttrUniverse();
  std::string S = "order";
  for (int I : Perm)
    S += " " + U[static_cast<size_t>(I)].name();
  return S;
}

} // namespace

std::optional<FuzzCase> fuzzReorder(const FuzzCase &C, const FuzzPerm &Perm,
                                    std::string *Err) {
  auto fail = [&](const std::string &Why) -> std::optional<FuzzCase> {
    if (Err)
      *Err = Why;
    return std::nullopt;
  };
  auto It = permUniverses().find(Perm);
  if (It == permUniverses().end())
    return fail("not a permutation of the fuzz universe");
  const std::vector<Attr> &NewU = It->second;
  const std::vector<Attr> &OldU = fuzzAttrUniverse();

  // Original universe attr at new-order position i: OldU[Perm[i]] -> NewU[i].
  std::map<uint32_t, Attr> M;
  for (size_t I = 0; I < NewU.size(); ++I)
    M[OldU[static_cast<size_t>(Perm[I])].id()] = NewU[I];
  auto MapA = [&M, &fail](Attr A) -> std::optional<Attr> {
    auto F = M.find(A.id());
    if (F == M.end())
      return std::nullopt;
    return F->second;
  };

  FuzzCase R;
  R.SemiringName = C.SemiringName;
  for (const auto &[A, N] : C.Dims) {
    auto NA = MapA(A);
    if (!NA)
      return fail("case uses an attribute outside the fuzz universe");
    R.Dims.emplace_back(*NA, N);
  }
  std::sort(R.Dims.begin(), R.Dims.end());

  for (const FuzzTensor &T : C.Tensors) {
    FuzzTensor NT;
    NT.Name = T.Name;
    NT.Fmt = T.Fmt;
    // Map the shape, then re-sort it into the new hierarchy; OldPos[j] is
    // the original level feeding new level j.
    std::vector<std::pair<Attr, size_t>> Mapped;
    for (size_t L = 0; L < T.Shp.size(); ++L) {
      auto NA = MapA(T.Shp[L]);
      if (!NA)
        return fail("tensor attribute outside the fuzz universe");
      Mapped.emplace_back(*NA, L);
    }
    std::sort(Mapped.begin(), Mapped.end());
    std::vector<size_t> OldPos;
    for (const auto &[A, L] : Mapped) {
      NT.Shp.push_back(A);
      OldPos.push_back(L);
    }
    NT.Entries.reserve(T.Entries.size());
    for (const FuzzEntry &E : T.Entries) {
      FuzzEntry NE;
      NE.Val = E.Val;
      for (size_t L : OldPos)
        NE.Coords.push_back(E.Coords[L]);
      NT.Entries.push_back(std::move(NE));
    }
    std::sort(NT.Entries.begin(), NT.Entries.end(),
              [](const FuzzEntry &A, const FuzzEntry &B) {
                return A.Coords < B.Coords;
              });
    // A CSR whose new row level has a huge extent would trip the dense
    // storage guard; store the permuted copy doubly compressed instead.
    if (NT.Fmt == FuzzFormat::Csr && R.dimOf(NT.Shp[0]) > DenseExtentGuard)
      NT.Fmt = FuzzFormat::Dcsr;
    R.Tensors.push_back(std::move(NT));
  }

  R.E = mapExpr(C.E, M);
  std::string VErr;
  if (!fuzzValidate(R, &VErr))
    return fail("illegal under this order: " + VErr);
  return R;
}

std::vector<FuzzPerm> fuzzLegalOrders(const FuzzCase &C, size_t MaxOrders) {
  std::vector<FuzzPerm> Out;
  if (!fuzzValidate(C))
    return Out;
  // Attributes the case actually constrains; permutations that agree on
  // them produce identical cases, so dedup by the projection.
  std::set<uint32_t> Used;
  for (const auto &[A, N] : C.Dims)
    Used.insert(A.id());
  const auto &U = fuzzAttrUniverse();
  std::set<std::vector<int>> SeenProj;
  FuzzPerm P{0, 1, 2, 3};
  do {
    std::vector<int> Proj;
    for (int I : P)
      if (Used.count(U[static_cast<size_t>(I)].id()))
        Proj.push_back(I);
    if (!SeenProj.insert(Proj).second)
      continue;
    if (fuzzReorder(C, P))
      Out.push_back(P);
    if (Out.size() >= MaxOrders)
      break;
  } while (std::next_permutation(P.begin(), P.end()));
  return Out;
}

std::string FuzzOrderReport::toString() const {
  if (!failing())
    return "ok (" + std::to_string(OrdersRun) + " orders)";
  std::ostringstream Os;
  Os << "diverges under " << permToString(FailingPerm);
  if (!TotalMismatch.empty())
    Os << "\noracle total mismatch: " << TotalMismatch;
  if (!Rep.Divs.empty() || Rep.Invalid)
    Os << "\n" << Rep.toString();
  return Os.str();
}

FuzzOrderReport runFuzzCaseOrders(const FuzzCase &C, size_t MaxOrders,
                                  FuzzLegSet Legs) {
  FuzzOrderReport R;
  auto Base = fuzzOracleTotal(C);
  if (!Base)
    return R; // Invalid cases are not failures (mirrors runFuzzCase).
  const bool Approx = C.SemiringName == "f64";
  for (const FuzzPerm &Perm : fuzzLegalOrders(C, MaxOrders)) {
    auto RC = fuzzReorder(C, Perm);
    ETCH_ASSERT(RC, "legal order must reorder cleanly");
    ++R.OrdersRun;
    // Cross-order oracle agreement: totals are attribute-independent.
    auto Tot = fuzzOracleTotal(*RC);
    ETCH_ASSERT(Tot, "reordered case re-validates");
    bool TotOk;
    if (Approx) {
      double Scale =
          std::max({1.0, std::fabs(Base->Num), std::fabs(Tot->Num)});
      TotOk = std::fabs(Base->Num - Tot->Num) <= 1e-9 * Scale;
    } else {
      TotOk = Base->Text == Tot->Text;
    }
    if (!TotOk) {
      R.FailingPerm = Perm;
      R.TotalMismatch = "want " + Base->Text + "  got " + Tot->Text;
      return R;
    }
    // The selected legs under the permuted order.
    FuzzReport Rep = runFuzzCase(*RC, Legs);
    if (Rep.failing() || Rep.Invalid) {
      R.FailingPerm = Perm;
      R.Rep = std::move(Rep);
      return R;
    }
  }
  return R;
}

} // namespace etch
