//===- harness/data.cpp - Seeded workload inputs --------------------------===//

#include "harness/data.h"

#include "formats/random.h"
#include "serve/service.h"
#include "support/assert.h"

using namespace perfbench;
using namespace etch;

Attr perfbench::attrI() { return Attr::named("pb_i"); }
Attr perfbench::attrJ() { return Attr::named("pb_j"); }
Attr perfbench::attrK() { return Attr::named("pb_k"); }

const std::vector<std::vector<std::string>> &perfbench::serveShapeFactors() {
  static const std::vector<std::vector<std::string>> F = {
      {"A", "x"}, {"w", "y", "z"}, {"A", "d"}, {"d", "x"}};
  return F;
}

const std::vector<std::string> &perfbench::serveShapeTags() {
  static const std::vector<std::string> Tags = {"ax", "yzw", "ad", "xd"};
  return Tags;
}

const TensorData &Dataset::get(const std::string &Name) const {
  for (const TensorData &T : Tensors)
    if (T.Name == Name)
      return T;
  ETCH_UNREACHABLE("perfbench: unknown tensor");
}

int64_t Dataset::extent(Attr A) const {
  if (A == attrI())
    return ExtentI;
  if (A == attrJ())
    return ExtentJ;
  return ExtentK;
}

void Dataset::load(ContractionService &S) const {
  for (const TensorData &T : Tensors)
    switch (T.K) {
    case TensorData::Kind::Csr:
      S.loadCsr(T.Name, T.Csr, T.Attrs[0], T.Attrs[1]);
      break;
    case TensorData::Kind::Sparse:
      S.loadSparse(T.Name, T.Sparse, T.Attrs[0]);
      break;
    case TensorData::Kind::Dense:
      S.loadDense(T.Name, T.Dense, T.Attrs[0]);
      break;
    }
}

void Dataset::load(TensorCatalog &C) const {
  for (const TensorData &T : Tensors)
    switch (T.K) {
    case TensorData::Kind::Csr:
      C.putCsr(T.Name, T.Csr, T.Attrs[0], T.Attrs[1]);
      break;
    case TensorData::Kind::Sparse:
      C.putSparse(T.Name, T.Sparse, T.Attrs[0]);
      break;
    case TensorData::Kind::Dense:
      C.putDense(T.Name, T.Dense, T.Attrs[0]);
      break;
    }
}

namespace {

void internAttrs() {
  attrI();
  attrJ();
  attrK();
}

TensorData matrix(Rng &R, std::string Name, Attr Row, Attr Col, Idx Rows,
                  Idx Cols, size_t Nnz) {
  TensorData T;
  T.Name = std::move(Name);
  T.K = TensorData::Kind::Csr;
  T.Attrs = {Row, Col};
  T.Csr = randomCsr(R, Rows, Cols, Nnz);
  return T;
}

TensorData sparse(Rng &R, std::string Name, Attr A, Idx N, size_t Nnz) {
  TensorData T;
  T.Name = std::move(Name);
  T.K = TensorData::Kind::Sparse;
  T.Attrs = {A};
  T.Sparse = randomSparseVector(R, N, Nnz);
  return T;
}

TensorData dense(Rng &R, std::string Name, Attr A, Idx N) {
  TensorData T;
  T.Name = std::move(Name);
  T.K = TensorData::Kind::Dense;
  T.Attrs = {A};
  T.Dense = randomDenseVector(R, N);
  return T;
}

} // namespace

ServeSizes perfbench::hotSizes() { return {}; }

ServeSizes perfbench::largeSizes() {
  ServeSizes S;
  S.N = 100000;
  S.NnzA = 500000;
  S.NnzX = 16000;
  S.NnzYZW = 25000;
  return S;
}

Dataset perfbench::makeServeData(uint64_t Seed, const ServeSizes &Sz) {
  internAttrs();
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  Dataset D;
  D.ExtentI = D.ExtentJ = Sz.N;
  D.ExtentK = 1;
  D.Tensors.push_back(matrix(R, "A", attrI(), attrJ(), Sz.N, Sz.N, Sz.NnzA));
  D.Tensors.push_back(sparse(R, "x", attrJ(), Sz.N, Sz.NnzX));
  D.Tensors.push_back(sparse(R, "y", attrI(), Sz.N, Sz.NnzYZW));
  D.Tensors.push_back(sparse(R, "z", attrI(), Sz.N, Sz.NnzYZW));
  D.Tensors.push_back(sparse(R, "w", attrI(), Sz.N, Sz.NnzYZW));
  D.Tensors.push_back(dense(R, "d", attrJ(), Sz.N));
  return D;
}

Dataset perfbench::makeAdhocData(uint64_t Seed) {
  internAttrs();
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 2);
  const Idx N = 64;
  const size_t MatNnz = 800, ThinNnz = 200, VecNnz = 16;
  Dataset D;
  D.ExtentI = D.ExtentJ = D.ExtentK = N;
  D.Tensors.push_back(matrix(R, "A", attrI(), attrJ(), N, N, MatNnz));
  D.Tensors.push_back(matrix(R, "B", attrJ(), attrK(), N, N, MatNnz));
  D.Tensors.push_back(matrix(R, "C", attrI(), attrK(), N, N, MatNnz));
  D.Tensors.push_back(matrix(R, "G", attrI(), attrJ(), N, N, ThinNnz));
  D.Tensors.push_back(matrix(R, "H", attrJ(), attrK(), N, N, ThinNnz));
  D.Tensors.push_back(matrix(R, "M", attrI(), attrK(), N, N, ThinNnz));
  D.Tensors.push_back(sparse(R, "x", attrJ(), N, VecNnz));
  D.Tensors.push_back(sparse(R, "y", attrI(), N, VecNnz));
  D.Tensors.push_back(sparse(R, "z", attrI(), N, VecNnz));
  D.Tensors.push_back(sparse(R, "w", attrI(), N, VecNnz));
  D.Tensors.push_back(sparse(R, "u", attrK(), N, VecNnz));
  D.Tensors.push_back(sparse(R, "v", attrJ(), N, VecNnz));
  D.Tensors.push_back(sparse(R, "t", attrK(), N, VecNnz));
  D.Tensors.push_back(dense(R, "d", attrJ(), N));
  D.Tensors.push_back(dense(R, "e", attrK(), N));
  D.Tensors.push_back(dense(R, "f", attrI(), N));
  D.Tensors.push_back(dense(R, "g", attrI(), N));
  D.Tensors.push_back(dense(R, "h", attrJ(), N));
  return D;
}
