//===- harness/reference.h - Plain-loop reference answers ------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness oracle: every served value, view reading and ad-hoc
/// answer is compared against a value computed here from the raw generated
/// data with plain loops — the K-relation meaning of a full contraction,
/// Σ over every attribute of the pointwise product. Nothing here calls the
/// compiler, planner or kernels under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_REFERENCE_H
#define PERFBENCH_HARNESS_REFERENCE_H

#include "harness/data.h"
#include "harness/schedule.h"

#include <map>
#include <vector>

namespace perfbench {

/// True when \p Got matches \p Want up to relative rounding (1e-9): the
/// served kernels and these loops sum in different orders.
bool closeEnough(double Got, double Want);

/// \p V expanded to a dense array of its dimension.
std::vector<double> denseOf(const etch::SparseVector<double> &V);

/// Σ_{i,j} A(i,j) · v(j).
double sumMatVec(const etch::CsrMatrix<double> &A,
                 const std::vector<double> &V);

/// Σ_i Π_k v_k(i) over dense expansions of sparse vectors.
double sumProduct(const std::vector<const std::vector<double> *> &Vs);

/// The four serve shapes' answers on a serve dataset, in the order
/// Σ A·x, Σ y·z·w, Σ A·d, Σ x·d.
std::vector<double> serveReferences(const Dataset &D);

/// Σ over every attribute of Π Factors, by dense iteration over the union
/// of the factors' attributes (small catalogs only).
double denseReference(const Dataset &D, const ShapeFactors &Factors);

/// The written matrix as a mutable row map, replaying the service's write
/// semantics: appends add (K-relation addition), entries summing to an
/// exact zero vanish, deletes remove the stored entry.
class MatrixModel {
public:
  explicit MatrixModel(const etch::CsrMatrix<double> &A);

  void append(const std::vector<etch::CooEntry<double>> &Delta);
  void remove(const std::vector<std::pair<etch::Idx, etch::Idx>> &Coords);

  /// Σ_{i,j} A(i,j) · v(j).
  double dot(const std::vector<double> &V) const;
  /// Per row i: Σ_j A(i,j) · v(j); rows with no matched entry are absent,
  /// as in the pruned grouped relation.
  std::map<etch::Idx, double> rowDots(const std::vector<double> &V) const;

  /// The current state as a CSR matrix with \p Cols columns.
  etch::CsrMatrix<double> toCsr(etch::Idx Cols) const;

private:
  std::vector<std::map<etch::Idx, double>> Rows;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_REFERENCE_H
