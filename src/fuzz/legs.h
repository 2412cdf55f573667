//===- fuzz/legs.h - The fuzz-leg registry ---------------------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every semantics the fuzzer holds to the K-relation oracle is one row of
/// a registry: a stable name (what `etch-fuzz --legs` selects), a builder
/// turning a validated, typed case (or a seed) into *realizations* —
/// results of running it one particular way, each carrying its comparison
/// policy — and whether the row needs a C toolchain. The driver
/// (fuzz/exec.cpp) validates, dispatches on the semiring and computes the
/// oracle once per case, builds the selected rows, and runs every
/// comparison through `fuzzCrossCheck`; a new leg costs one enum value,
/// one row and its builder.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FUZZ_LEGS_H
#define ETCH_FUZZ_LEGS_H

#include "compiler/imp.h"
#include "core/eval.h"
#include "core/semiring.h"
#include "formats/csf.h"
#include "formats/levels.h"
#include "formats/matrices.h"
#include "formats/vectors.h"
#include "fuzz/exec.h"
#include "support/assert.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace etch {

/// What a realization is compared by. Combine with `|`.
enum FuzzCheck : unsigned {
  /// The value agrees with the oracle (exactly, or within a scaled
  /// tolerance for f64); a run error is a divergence.
  FuzzCheckOracle = 1u << 0,
  /// As FuzzCheckOracle, but a run error is only compared against an
  /// anchor (uncounted kernels may run past the tree VM's step budget).
  FuzzCheckOracleIfOk = 1u << 1,
  FuzzCheckBits = 1u << 2,  ///< Value bit-identical to the anchor's.
  FuzzCheckError = 1u << 3, ///< Error text identical ("" = success).
  FuzzCheckSteps = 1u << 4, ///< Step count identical.
};

/// A pairwise comparison against another realization of the same case.
struct FuzzAnchor {
  std::string Tag;    ///< The anchor realization's tag.
  std::string Report; ///< The leg tag divergences are reported under.
  unsigned Checks = 0; ///< FuzzCheckBits | FuzzCheckError | FuzzCheckSteps.
};

/// One way of running a case, with what it produced and how it is judged.
template <Semiring S> struct FuzzRealization {
  std::string Tag;      ///< e.g. "bvm/O1"; oracle divergences report here.
  unsigned Checks = 0;  ///< FuzzCheckOracle or FuzzCheckOracleIfOk, or 0.
  std::vector<FuzzAnchor> Anchors;

  /// Nonempty when the realization could not be built (a compile error):
  /// reported under Tag, and compared with nothing.
  std::string Failed;
  bool Declined = false; ///< A designed decline (the JIT's size cap).

  std::string Error;  ///< Run-time error text, "" on success.
  int64_t Steps = 0;  ///< Steps charged (step-counting executors only).
  std::optional<typename S::Value> Total; ///< A scalar result.
  std::optional<KRelation<S>> Rel;        ///< A relation result.
  std::string Missing; ///< Why a successful run has no result.
  std::string Note;    ///< Appended to every divergence reported here.
};

/// The reference every oracle-checked realization is held to: the case's
/// relation (dense attributes materialized) and its full contraction.
template <Semiring S> struct FuzzOracle {
  KRelation<S> Want;
  typename S::Value Total = S::zero();
};

/// Leaf storage element: the semiring's value type, but uint8_t for bool
/// (std::vector<bool> has no data() to stream over).
template <Semiring S>
using FuzzStoreT = std::conditional_t<std::is_same_v<typename S::Value, bool>,
                                      uint8_t, typename S::Value>;

/// All of a case's tensors materialized into real format storage; Hv holds
/// every sparse-vector tensor again as a hashed coordinate level.
template <Semiring S> struct FuzzStorage {
  using V = FuzzStoreT<S>;
  std::map<std::string, SparseVector<V>> Sv;
  std::map<std::string, DenseVector<V>> Dv;
  std::map<std::string, CsrMatrix<V>> Csr;
  std::map<std::string, DcsrMatrix<V>> Dcsr;
  std::map<std::string, CsfTensor3<V>> Csf;
  std::map<std::string, HashedVector<V>> Hv;
};

/// What a row's builder receives: the validated case, its typing, the
/// selected legs (rows anchor on other rows only when those are selected),
/// and everything the driver computed once.
template <Semiring S> struct FuzzTypedCase {
  const FuzzCase &C;
  const FuzzTyping &Ty;
  FuzzLegSet Legs;
  ThreadPool &Pool;
  ValueContext<S> Inputs; ///< The case's tensors as K-relations.
  FuzzOracle<S> Oracle;
  FuzzStorage<S> Storage;
  /// The case lowered at O0/linear, O1/binary, O2/gallop over its stored
  /// formats, compiled on first use and shared by every row.
  mutable std::array<PRef, 3> Programs;
};

template <Semiring S>
using FuzzRealizations = std::vector<FuzzRealization<S>>;

/// A row's case builder, instantiated once per semiring
/// (`fuzzCaseBuild<Leg>()` takes `Leg::build<S>`).
template <Semiring S>
using FuzzCaseBuilder = void (*)(const FuzzTypedCase<S> &,
                                 FuzzRealizations<S> &);
using FuzzCaseBuild =
    std::tuple<FuzzCaseBuilder<F64Semiring>, FuzzCaseBuilder<I64Semiring>,
               FuzzCaseBuilder<BoolSemiring>, FuzzCaseBuilder<MinPlusSemiring>>;

template <class Leg> constexpr FuzzCaseBuild fuzzCaseBuild() {
  return {&Leg::template build<F64Semiring>,
          &Leg::template build<I64Semiring>,
          &Leg::template build<BoolSemiring>,
          &Leg::template build<MinPlusSemiring>};
}

/// A seed-driven builder. Scenario-internal checks (the scenario carries
/// its own oracle) report into the FuzzReport directly; realizations it
/// returns are cross-checked like a case's, without an oracle.
using FuzzSeedBuilder = void (*)(uint64_t Seed, FuzzLegSet Legs,
                                 FuzzRealizations<F64Semiring> &,
                                 FuzzReport &);

/// One registry row.
struct FuzzLegRow {
  FuzzLeg Leg;
  const char *Name;
  bool NeedsToolchain;
  FuzzCaseBuild Build;       ///< Null entries: the row has no case legs.
  FuzzSeedBuilder BuildSeed; ///< Null: the row has no seed-driven legs.
};

/// The rows, in FuzzLeg order.
const std::vector<FuzzLegRow> &fuzzLegRegistry();

/// Appends a divergence under \p Leg. \p Context (the case summary, or
/// empty) prefixes the detail; the whole detail is capped for the report.
void fuzzReportDiv(FuzzReport &Rep, const std::string &Context,
                   std::string Leg, const std::string &Detail);

/// Scalar agreement. Exact for i64/bool and for (min,+) — min and + of the
/// generator's dyadic-rational values re-associate exactly — and within a
/// scaled tolerance for f64, whose parallel and compiled legs re-associate
/// sums. Note KRelation::approxEquals is NOT usable for (min,+): its scaled
/// tolerance is infinite against the +inf zero of missing entries.
template <Semiring S>
bool fuzzValEq(typename S::Value A, typename S::Value B) {
  if (A == B)
    return true;
  if constexpr (std::is_same_v<S, F64Semiring>) {
    double Scale = std::max({1.0, std::fabs(A), std::fabs(B)});
    return std::fabs(A - B) <= 1e-9 * Scale;
  } else {
    return false;
  }
}

template <Semiring S>
bool fuzzRelEq(const KRelation<S> &A, const KRelation<S> &B) {
  if constexpr (std::is_same_v<S, F64Semiring>)
    return A.approxEquals(B);
  else
    return A.equals(B);
}

/// Bit-level equality: floating values compare as bit patterns (the
/// executors promise bit-identical results, so even NaN payloads must
/// agree).
template <Semiring S>
bool fuzzBitsEq(typename S::Value A, typename S::Value B) {
  if constexpr (std::is_floating_point_v<typename S::Value>)
    return std::memcmp(&A, &B, sizeof(A)) == 0;
  else
    return A == B;
}

/// Round-trip text: doubles print all 17 significant digits, so values
/// that differ in one bit print differently.
template <Semiring S> std::string fuzzValStr(typename S::Value V) {
  std::ostringstream Os;
  if constexpr (std::is_same_v<typename S::Value, bool>)
    Os << (V ? "true" : "false");
  else
    Os << std::setprecision(17) << V;
  return Os.str();
}

/// Applies every realization's policy: its oracle check against \p Oracle
/// (which must be non-null if any realization asks for one), then each
/// anchored comparison. A Failed realization is reported under its tag;
/// Failed and Declined realizations are compared with nothing. Every
/// anchor must name a realization in \p Rs.
template <Semiring S>
void fuzzCrossCheck(const FuzzRealizations<S> &Rs, const FuzzOracle<S> *Oracle,
                    const std::string &Context, FuzzReport &Rep) {
  std::map<std::string, const FuzzRealization<S> *> ByTag;
  for (const FuzzRealization<S> &R : Rs)
    ByTag.emplace(R.Tag, &R);
  for (const FuzzRealization<S> &R : Rs) {
    auto Report = [&](std::string Leg, std::string Detail) {
      if (!R.Note.empty())
        Detail += "\n" + R.Note;
      fuzzReportDiv(Rep, Context, std::move(Leg), Detail);
    };
    if (R.Declined)
      continue;
    if (!R.Failed.empty()) {
      Report(R.Tag, R.Failed);
      continue;
    }

    if (R.Checks & (FuzzCheckOracle | FuzzCheckOracleIfOk)) {
      ETCH_ASSERT(Oracle, "an oracle check needs the oracle");
      if (!R.Error.empty()) {
        if (R.Checks & FuzzCheckOracle)
          Report(R.Tag, "vm error: " + R.Error);
      } else if (R.Rel) {
        if (!fuzzRelEq<S>(*R.Rel, Oracle->Want))
          Report(R.Tag, "want: " + Oracle->Want.toString() +
                            "\n got: " + R.Rel->toString());
      } else if (R.Total) {
        if (!fuzzValEq<S>(*R.Total, Oracle->Total))
          Report(R.Tag, "want: " + fuzzValStr<S>(Oracle->Total) +
                            "  got: " + fuzzValStr<S>(*R.Total));
      } else {
        Report(R.Tag, R.Missing);
      }
    }

    for (const FuzzAnchor &A : R.Anchors) {
      auto It = ByTag.find(A.Tag);
      ETCH_ASSERT(It != ByTag.end(), "an anchor names no realization");
      const FuzzRealization<S> &B = *It->second;
      if (B.Declined || !B.Failed.empty())
        continue;
      if ((A.Checks & FuzzCheckSteps) && B.Steps != R.Steps)
        Report(A.Report, "step counts differ: " + B.Tag + "=" +
                             std::to_string(B.Steps) + " " + R.Tag + "=" +
                             std::to_string(R.Steps));
      if ((A.Checks & FuzzCheckError) && B.Error != R.Error)
        Report(A.Report, "errors differ: " + B.Tag + "='" + B.Error + "' " +
                             R.Tag + "='" + R.Error + "'");
      if (!(A.Checks & FuzzCheckBits))
        continue;
      if (B.Total && R.Total && !fuzzBitsEq<S>(*B.Total, *R.Total))
        Report(A.Report, "value differs bit-wise: " + B.Tag + "=" +
                             fuzzValStr<S>(*B.Total) + " " + R.Tag + "=" +
                             fuzzValStr<S>(*R.Total));
      if (B.Rel && R.Rel && !B.Rel->equals(*R.Rel))
        Report(A.Report, "relations differ: " + B.Tag + "=" +
                             B.Rel->toString() + " " + R.Tag + "=" +
                             R.Rel->toString());
    }
  }
}

} // namespace etch

#endif // ETCH_FUZZ_LEGS_H
