//===- compiler/defined.h - The definitely-defined analysis ----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler's one definedness policy: which names are definitely
/// defined at a program point, hence which of the tree VM's undefined-name
/// errors cannot fire there. The verifier, loop-invariant hoisting, the
/// bytecode compiler and the native kernel emitter all ask it; the tree VM
/// stays fully dynamic and is the reference. DeclVar/StoreVar define a
/// scalar and DeclArr an array; branch arms intersect; loop-body
/// definitions are dropped after the loop (it may run zero times); and
/// externals are undefined until stored (the caller may leave them
/// unbound). A walker drives a `DefinedSet` in execution order; facts are
/// never attached to nodes, since rewrites share a node between program
/// points with different facts.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_COMPILER_DEFINED_H
#define ETCH_COMPILER_DEFINED_H

#include "compiler/imp.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace etch {

class DefinedSet {
public:
  bool scalar(const std::string &Name) const {
    return std::binary_search(Scalars.begin(), Scalars.end(), Name);
  }
  bool array(const std::string &Name) const {
    return std::binary_search(Arrays.begin(), Arrays.end(), Name);
  }

  /// Records that \p S just executed (a no-op unless it defines a name).
  void define(const PStmt &S);

  /// Runs \p Body against the loop-entry state, then drops its definitions.
  template <typename Fn> void loopBody(Fn &&Body) {
    DefinedSet Entry = *this;
    Body();
    *this = std::move(Entry);
  }

  /// Runs each arm against the state before the branch, then keeps the
  /// names both arms define.
  template <typename ThenFn, typename ElseFn>
  void branch(ThenFn &&Then, ElseFn &&Else) {
    DefinedSet Other = *this;
    Then();
    std::swap(*this, Other);
    Else();
    std::erase_if(Scalars, [&](const auto &N) { return !Other.scalar(N); });
    std::erase_if(Arrays, [&](const auto &N) { return !Other.array(N); });
  }

  /// True when evaluating \p E can fail here: it accesses an array (a
  /// bounds check) or reads a scalar not definitely defined. Arithmetic
  /// cannot (i64 division by zero is undefined behaviour in the IR).
  bool canError(const EExpr &E) const;

  /// True when \p Access must check its array is bound before evaluating
  /// the index, because the tree VM reports the unbound array first and
  /// the index can fail. Otherwise the bounds check catches an unbound
  /// array (length 0) and its failure path picks the message off the
  /// runtime defined bit. Stores never need it: the tree VM evaluates the
  /// index and value before looking the array up.
  bool needsArrayCheck(const EExpr &Access) const {
    return !array(Access.name()) && canError(*Access.args()[0]);
  }

private:
  /// Sorted: walkers copy the state at every branch and loop, and a flat
  /// vector of short strings copies in one allocation.
  std::vector<std::string> Scalars, Arrays;
};

} // namespace etch

#endif // ETCH_COMPILER_DEFINED_H
