//===- fuzz/reorder.h - Attribute-order sweeps for fuzz cases --*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a fuzz case under alternative global attribute orders. The global
/// order is the interning order, so an alternative order is realized by
/// *remapping* the case onto a pre-interned permutation universe: for each
/// of the 4! = 24 permutations of the fuzz attribute pool there is a fixed
/// set of fresh attributes interned ascending, and `fuzzReorder` rewrites
/// dims, tensors (levels and entries re-sorted into the new hierarchy),
/// and the expression onto it. Orders that break validation (a rename that
/// stops being monotone, dense storage landing on a huge extent the
/// CSR→DCSR downgrade cannot absorb) are skipped as *illegal*, mirroring
/// Definition 5.7 rather than weakening it.
///
/// `runFuzzCaseOrders` is the executor-matrix sweep: every legal order's
/// case runs through the selected legs (`runFuzzCase`), and its oracle total
/// must also agree with the original case's total (the denotational
/// semantics is permutation-equivariant, so any disagreement is a bug in
/// either a semantics or the reorder transformation itself).
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FUZZ_REORDER_H
#define ETCH_FUZZ_REORDER_H

#include "fuzz/exec.h"

namespace etch {

/// A permutation of fuzz-universe positions: Perm[i] = the original
/// universe index whose attribute comes i-th in the new global order.
using FuzzPerm = std::vector<int>;

/// Rewrites \p C onto the permutation universe of \p Perm. Returns nullopt
/// (with a diagnostic) if the reordered case fails validation — the order
/// is illegal for this case. The identity permutation returns a case
/// equivalent to \p C modulo attribute names.
std::optional<FuzzCase> fuzzReorder(const FuzzCase &C, const FuzzPerm &Perm,
                                    std::string *Err = nullptr);

/// The distinct legal orders of \p C (permutations projected to the
/// attributes the case actually uses), identity-equivalent order first,
/// capped at \p MaxOrders. A case that itself fails validation has none.
std::vector<FuzzPerm> fuzzLegalOrders(const FuzzCase &C,
                                      size_t MaxOrders = 24);

/// The outcome of an order sweep.
struct FuzzOrderReport {
  size_t OrdersRun = 0;     ///< Legal orders executed (identity included).
  FuzzPerm FailingPerm;     ///< The first failing permutation, if any.
  FuzzReport Rep;           ///< Its executor report (or empty).
  std::string TotalMismatch; ///< Cross-order oracle-total disagreement.

  bool failing() const { return !FailingPerm.empty(); }
  std::string toString() const;
};

/// Runs \p C under every legal order (up to \p MaxOrders): the case legs
/// of \p Legs per order plus the cross-order oracle-total check. Stops at
/// the first failing order.
FuzzOrderReport runFuzzCaseOrders(const FuzzCase &C, size_t MaxOrders = 24,
                                  FuzzLegSet Legs = FuzzLegSet::defaults());

} // namespace etch

#endif // ETCH_FUZZ_REORDER_H
