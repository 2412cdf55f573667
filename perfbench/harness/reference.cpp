//===- harness/reference.cpp - Plain-loop reference answers ---------------===//

#include "harness/reference.h"

#include "support/assert.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;
using namespace etch;

bool perfbench::closeEnough(double Got, double Want) {
  return std::abs(Got - Want) <= 1e-9 * std::max(1.0, std::abs(Want));
}

std::vector<double> perfbench::denseOf(const SparseVector<double> &V) {
  std::vector<double> Out(static_cast<size_t>(V.Size), 0.0);
  for (size_t K = 0; K < V.Crd.size(); ++K)
    Out[static_cast<size_t>(V.Crd[K])] = V.Val[K];
  return Out;
}

double perfbench::sumMatVec(const CsrMatrix<double> &A,
                            const std::vector<double> &V) {
  double S = 0.0;
  for (size_t P = 0; P < A.Val.size(); ++P)
    S += A.Val[P] * V[static_cast<size_t>(A.Crd[P])];
  return S;
}

double
perfbench::sumProduct(const std::vector<const std::vector<double> *> &Vs) {
  double S = 0.0;
  for (size_t I = 0; I < Vs.front()->size(); ++I) {
    double P = 1.0;
    for (const std::vector<double> *V : Vs)
      P *= (*V)[I];
    S += P;
  }
  return S;
}

std::vector<double> perfbench::serveReferences(const Dataset &D) {
  const CsrMatrix<double> &A = D.get("A").Csr;
  std::vector<double> X = denseOf(D.get("x").Sparse);
  std::vector<double> Y = denseOf(D.get("y").Sparse);
  std::vector<double> Z = denseOf(D.get("z").Sparse);
  std::vector<double> W = denseOf(D.get("w").Sparse);
  const std::vector<double> &Dv = D.get("d").Dense.Val;
  return {sumMatVec(A, X), sumProduct({&Y, &Z, &W}), sumMatVec(A, Dv),
          sumProduct({&X, &Dv})};
}

namespace {

/// A factor as a dense array over its attributes (row-major).
struct DenseFactor {
  std::vector<Attr> Attrs;
  std::vector<int64_t> Dims;
  std::vector<double> Val;
};

DenseFactor densify(const Dataset &D, const TensorData &T) {
  DenseFactor F;
  F.Attrs = T.Attrs;
  for (Attr A : T.Attrs)
    F.Dims.push_back(D.extent(A));
  switch (T.K) {
  case TensorData::Kind::Csr:
    F.Val.assign(static_cast<size_t>(F.Dims[0] * F.Dims[1]), 0.0);
    for (Idx R = 0; R < T.Csr.NumRows; ++R)
      for (size_t P = T.Csr.Pos[static_cast<size_t>(R)];
           P < T.Csr.Pos[static_cast<size_t>(R) + 1]; ++P)
        F.Val[static_cast<size_t>(R * F.Dims[1] + T.Csr.Crd[P])] = T.Csr.Val[P];
    break;
  case TensorData::Kind::Sparse:
    F.Val = denseOf(T.Sparse);
    break;
  case TensorData::Kind::Dense:
    F.Val = T.Dense.Val;
    break;
  }
  return F;
}

} // namespace

double perfbench::denseReference(const Dataset &D,
                                 const ShapeFactors &Factors) {
  std::vector<DenseFactor> Fs;
  std::vector<Attr> Union;
  for (const std::string &Name : Factors) {
    Fs.push_back(densify(D, D.get(Name)));
    for (Attr A : Fs.back().Attrs)
      if (std::find(Union.begin(), Union.end(), A) == Union.end())
        Union.push_back(A);
  }
  std::vector<int64_t> Ext;
  for (Attr A : Union)
    Ext.push_back(D.extent(A));
  // Position of each factor attribute within the union tuple.
  std::vector<std::vector<size_t>> Slot(Fs.size());
  for (size_t F = 0; F < Fs.size(); ++F)
    for (Attr A : Fs[F].Attrs)
      Slot[F].push_back(static_cast<size_t>(
          std::find(Union.begin(), Union.end(), A) - Union.begin()));

  std::vector<int64_t> Tup(Union.size(), 0);
  double Sum = 0.0;
  while (true) {
    double P = 1.0;
    for (size_t F = 0; F < Fs.size() && P != 0.0; ++F) {
      int64_t Off = 0;
      for (size_t L = 0; L < Slot[F].size(); ++L)
        Off = Off * Fs[F].Dims[L] + Tup[Slot[F][L]];
      P *= Fs[F].Val[static_cast<size_t>(Off)];
    }
    Sum += P;
    size_t L = Union.size();
    while (L > 0 && ++Tup[L - 1] == Ext[L - 1])
      Tup[--L] = 0;
    if (L == 0)
      break;
  }
  return Sum;
}

MatrixModel::MatrixModel(const CsrMatrix<double> &A)
    : Rows(static_cast<size_t>(A.NumRows)) {
  for (Idx R = 0; R < A.NumRows; ++R)
    for (size_t P = A.Pos[static_cast<size_t>(R)];
         P < A.Pos[static_cast<size_t>(R) + 1]; ++P)
      Rows[static_cast<size_t>(R)].emplace(A.Crd[P], A.Val[P]);
}

void MatrixModel::append(const std::vector<CooEntry<double>> &Delta) {
  for (const CooEntry<double> &E : Delta) {
    auto &Row = Rows[static_cast<size_t>(E.Row)];
    double &V = Row[E.Col];
    V += E.Val;
    if (V == 0.0)
      Row.erase(E.Col);
  }
}

void MatrixModel::remove(const std::vector<std::pair<Idx, Idx>> &Coords) {
  for (const auto &[R, C] : Coords)
    Rows[static_cast<size_t>(R)].erase(C);
}

double MatrixModel::dot(const std::vector<double> &V) const {
  double S = 0.0;
  for (const auto &Row : Rows)
    for (const auto &[C, X] : Row)
      S += X * V[static_cast<size_t>(C)];
  return S;
}

std::map<Idx, double> MatrixModel::rowDots(const std::vector<double> &V) const {
  std::map<Idx, double> Out;
  for (size_t R = 0; R < Rows.size(); ++R) {
    double S = 0.0;
    for (const auto &[C, X] : Rows[R])
      S += X * V[static_cast<size_t>(C)];
    if (S != 0.0) // No matched x entry: the grouped relation prunes it.
      Out[static_cast<Idx>(R)] = S;
  }
  return Out;
}

CsrMatrix<double> MatrixModel::toCsr(Idx Cols) const {
  CsrMatrix<double> A(static_cast<Idx>(Rows.size()), Cols);
  for (size_t R = 0; R < Rows.size(); ++R) {
    for (const auto &[C, X] : Rows[R]) {
      A.Crd.push_back(C);
      A.Val.push_back(X);
    }
    A.Pos[R + 1] = A.Crd.size();
  }
  return A;
}
