//===- harness/data.h - Seeded workload inputs -----------------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generated catalog contents of each workload. Every tensor is drawn
/// from the run's seed, so the same seed gives the same inputs. Tensors are
/// named so that the four serve shapes exist in every workload's catalog:
///
///   A(i,j) CSR matrix, x(j) sparse, y/z/w(i) sparse, d(j) dense
///
/// and the ad-hoc catalog adds matrices B(j,k), C(i,k) and sparser
/// G(i,j), H(j,k), M(i,k), sparse vectors u(k), v(j), t(k), and dense
/// e(k), f(i), g(i), h(j), so products of up to three factors share
/// attributes. Its 18 tensors give 1329 shapes of one to three factors,
/// about eight times what a 12 s adhoc_cold run asks on the seed code.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_DATA_H
#define PERFBENCH_HARNESS_DATA_H

#include "core/attr.h"
#include "formats/matrices.h"
#include "formats/vectors.h"

#include <cstdint>
#include <string>
#include <vector>

namespace etch {
class ContractionService;
class TensorCatalog;
} // namespace etch

namespace perfbench {

using etch::Attr;
using etch::Idx;

/// The benchmark's attributes, interned in this order (the global order).
Attr attrI();
Attr attrJ();
Attr attrK();

struct TensorData {
  enum class Kind { Csr, Sparse, Dense };
  std::string Name;
  Kind K = Kind::Sparse;
  std::vector<Attr> Attrs; ///< Stored level order, outermost first.
  etch::CsrMatrix<double> Csr;
  etch::SparseVector<double> Sparse;
  etch::DenseVector<double> Dense;
};

struct Dataset {
  std::vector<TensorData> Tensors;
  int64_t ExtentI = 0, ExtentJ = 0, ExtentK = 0;

  const TensorData &get(const std::string &Name) const;
  int64_t extent(Attr A) const;

  void load(etch::ContractionService &S) const;
  void load(etch::TensorCatalog &C) const;
};

/// Sizes of the serve-family catalog (A, x, y, z, w, d over i, j).
struct ServeSizes {
  int64_t N = 2000;        ///< Extent of i and j.
  size_t NnzA = 40000;
  size_t NnzX = 400;
  size_t NnzYZW = 600;
};

/// `bench_serve`'s tensors: A 2000x2000 with 40k nnz, x 400 nnz, y/z/w
/// 600 nnz, d dense.
ServeSizes hotSizes();
/// The same shapes over data that outgrows L2 but fits L3.
ServeSizes largeSizes();

Dataset makeServeData(uint64_t Seed, const ServeSizes &Sz);

/// The ad-hoc catalog: small matrices and vectors over i, j, k.
Dataset makeAdhocData(uint64_t Seed);

/// The four serve shapes Σ A·x, Σ y·z·w, Σ A·d, Σ x·d (factors sorted),
/// and their metric suffixes ax, yzw, ad, xd, in that order.
const std::vector<std::vector<std::string>> &serveShapeFactors();
const std::vector<std::string> &serveShapeTags();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_DATA_H
