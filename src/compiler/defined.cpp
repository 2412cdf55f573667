//===- compiler/defined.cpp - The definitely-defined analysis ------------===//

#include "compiler/defined.h"

using namespace etch;

void DefinedSet::define(const PStmt &S) {
  bool IsScalar = S.kind() == PKind::DeclVar || S.kind() == PKind::StoreVar;
  if (!IsScalar && S.kind() != PKind::DeclArr)
    return;
  std::vector<std::string> &Names = IsScalar ? Scalars : Arrays;
  auto It = std::lower_bound(Names.begin(), Names.end(), S.name());
  if (It == Names.end() || *It != S.name())
    Names.insert(It, S.name());
}

bool DefinedSet::canError(const EExpr &E) const {
  if (E.kind() == EKind::Access)
    return true;
  if (E.kind() == EKind::Var)
    return !scalar(E.name());
  for (const ERef &A : E.args()) // Calls; constants have no arguments.
    if (canError(*A))
      return true;
  return false;
}
