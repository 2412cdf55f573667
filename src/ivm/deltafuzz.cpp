//===- ivm/deltafuzz.cpp - Fuzzing the incremental-maintenance path -------===//

#include "ivm/deltafuzz.h"

#include "core/eval.h"
#include "core/expr.h"
#include "fuzz/corpus.h"
#include "fuzz/gen.h"
#include "ivm/delta.h"
#include "ivm/maintain.h"
#include "serve/catalog.h"
#include "serve/plancache.h"
#include "serve/prepare.h"
#include "support/rng.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <vector>

using namespace etch;

namespace {

uint64_t mix(uint64_t A, uint64_t B) {
  uint64_t Z = A + 0x9e3779b97f4a7c15ULL * (B + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return Z ^ (Z >> 31);
}

//===----------------------------------------------------------------------===//
// K-relation layer: the delta-rewrite identity on generated cases
//===----------------------------------------------------------------------===//

/// A random batch over \p A: fresh coordinates (biased toward reuse, so
/// updates of stored entries happen), plus — in ring semirings — exact
/// negations of stored entries (deletions).
template <Semiring S>
KRelation<S> genDelta(const FuzzCase &C, const FuzzTensor &T,
                      const KRelation<S> &A, Rng &R) {
  KRelation<S> D(A.shape());
  // A zero extent leaves no legal coordinates: the only batch is empty.
  for (Attr At : T.Shp)
    if (C.dimOf(At) <= 0)
      return D;
  size_t N = R.nextBelow(5);
  for (size_t I = 0; I < N; ++I) {
    if (semiringHasNegation<S>() && A.supportSize() > 0 && R.nextBool(0.35)) {
      auto It = A.entries().begin();
      std::advance(It, R.nextBelow(A.supportSize()));
      D.insert(It->first, -It->second);
      continue;
    }
    Tuple Tu(T.Shp.size());
    for (size_t Ax = 0; Ax < T.Shp.size(); ++Ax) {
      Idx Dim = C.dimOf(T.Shp[Ax]);
      if (A.supportSize() > 0 && R.nextBool(0.5)) {
        auto It = A.entries().begin();
        std::advance(It, R.nextBelow(A.supportSize()));
        Tu[Ax] = It->first[Ax];
      } else {
        Tu[Ax] = static_cast<Idx>(R.nextBelow(static_cast<uint64_t>(Dim)));
      }
    }
    D.insert(Tu, fuzzValue<S>(genFuzzValue(R, C.SemiringName)));
  }
  D.pruneZeros();
  return D;
}

/// A stable hash of the serialized case (FNV-1a): the batch seed, equal
/// across processes.
uint64_t batchSeedOf(const FuzzCase &C) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (char Ch : serializeCase(C)) {
    H ^= static_cast<unsigned char>(Ch);
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// A relation-valued realization, optionally held bit-for-bit to
/// \p Anchor and reported under \p Report.
template <Semiring S>
FuzzRealization<S> relation(std::string Tag, KRelation<S> Rel,
                            const std::string &Anchor = "",
                            const std::string &Report = "",
                            std::string Note = "") {
  FuzzRealization<S> R;
  R.Tag = std::move(Tag);
  R.Rel = std::move(Rel);
  if (!Anchor.empty())
    R.Anchors.push_back({Anchor, Report, FuzzCheckBits});
  R.Note = std::move(Note);
  return R;
}

//===----------------------------------------------------------------------===//
// Serve-stack layer: random append/delete scenarios through the driver
//===----------------------------------------------------------------------===//

int nonZeroInt(Rng &R) {
  int V = static_cast<int>(R.nextInRange(-3, 3));
  return V == 0 ? 1 : V;
}

/// The scenario's scalar views (plus the grouped view "gv_rows", Σ_j
/// M·v grouped by row).
struct ScalarView {
  const char *Name;
  std::vector<std::string> Factors;
};
const ScalarView ScalarViews[] = {{"vw_tot", {"M"}},
                                  {"vw_spmv", {"M", "v", "u"}},
                                  {"vw_sq", {"M", "M"}},
                                  {"vw_vv", {"v", "v"}},
                                  {"vw_du", {"d", "u"}}};

/// One seeded scenario on one executor: random append/delete batches
/// (integer-valued f64 data, so every comparison is bit-exact) through
/// TensorCatalog merge-appends, retained PlanCache delta plans and
/// MaintenanceDriver views. After every batch each view must equal its
/// recomputation and `evalT` over the live payloads, and no payload may
/// store a zero weight (deletion compaction); a warm round of batches must
/// run without a planner enumeration (plan retention).
struct Scenario {
  Scenario(uint64_t Seed, ExecBackend EB, bool UseNative,
           const std::string &LegPrefix, FuzzReport &Rep)
      : R(mix(Seed, 0xde17a)), Plans(64), Leg(LegPrefix), Rep(Rep) {
    const std::vector<Attr> &U = fuzzAttrUniverse();
    AI = U[0];
    AJ = U[1];
    NR = 2 + static_cast<Idx>(R.nextBelow(5));
    NC = 2 + static_cast<Idx>(R.nextBelow(5));

    std::vector<CooEntry<double>> Coo;
    for (Idx I = 0; I < NR; ++I)
      for (Idx J = 0; J < NC; ++J)
        if (R.nextBool(0.45))
          Coo.push_back({I, J, static_cast<double>(nonZeroInt(R))});
    Cat.putCsr("M", CsrMatrix<double>::fromCoo(NR, NC, std::move(Coo)), AI,
               AJ);
    SparseVector<double> V(NC);
    for (Idx J = 0; J < NC; ++J)
      if (R.nextBool(0.5))
        V.push(J, static_cast<double>(nonZeroInt(R)));
    Cat.putSparse("v", std::move(V), AJ);
    SparseVector<double> Uv(NR);
    for (Idx I = 0; I < NR; ++I)
      if (R.nextBool(0.5))
        Uv.push(I, static_cast<double>(nonZeroInt(R)));
    Cat.putSparse("u", std::move(Uv), AI);
    DenseVector<double> Dv(NR);
    for (Idx I = 0; I < NR; ++I)
      Dv.Val[static_cast<size_t>(I)] =
          static_cast<double>(R.nextInRange(-2, 2));
    Cat.putDense("d", std::move(Dv), AI);

    IvmOptions IO;
    IO.Backend = EB;
    IO.Prep.UseNative = UseNative;
    Drv = std::make_unique<MaintenanceDriver>(Cat, Plans, IO);

    std::string Err;
    for (const ScalarView &V : ScalarViews)
      if (Drv->registerView(V.Name, V.Factors, &Err))
        Views.push_back(&V);
      else
        fuzzReportDiv(Rep, "", Leg + "/register/" + V.Name, Err);
    if (!Drv->registerGroupedView("gv_rows", {"M", "v"}, {AI}, &Err))
      fuzzReportDiv(Rep, "", Leg + "/register/gv_rows", Err);
  }

  /// One append/delete batch on "M" or "v", routed exactly the way the
  /// service write path routes it. Returns whether the canonicalized
  /// batch was non-empty.
  bool applyBatch(const std::string &Target) {
    CatalogSnapshotRef Pre = Cat.snapshot();
    bool NonEmpty = false;
    if (Target == "M") {
      const CsrMatrix<double> &M = Pre->find("M")->Csr;
      std::vector<CooEntry<double>> Delta;
      size_t N = 1 + R.nextBelow(3);
      for (size_t I = 0; I < N; ++I) {
        if (M.nnz() > 0 && R.nextBool(0.4)) {
          // Deletion: negate one stored entry exactly.
          size_t K = R.nextBelow(M.nnz());
          auto RowIt = std::upper_bound(M.Pos.begin(), M.Pos.end(), K);
          Idx Row = static_cast<Idx>(RowIt - M.Pos.begin()) - 1;
          Delta.push_back({Row, M.Crd[K], -M.Val[K]});
        } else {
          Delta.push_back({static_cast<Idx>(R.nextBelow(NR)),
                           static_cast<Idx>(R.nextBelow(NC)),
                           static_cast<double>(nonZeroInt(R))});
        }
      }
      if (R.nextBool(0.15)) {
        // A pair that cancels within the batch itself.
        Idx Rr = static_cast<Idx>(R.nextBelow(NR));
        Idx Cc = static_cast<Idx>(R.nextBelow(NC));
        Delta.push_back({Rr, Cc, 2.0});
        Delta.push_back({Rr, Cc, -2.0});
      }
      for (const CooEntry<double> &E : canonicalizeCoo(Delta))
        NonEmpty = NonEmpty || E.Val != 0.0;
      Cat.appendCsr("M", Delta);
      Drv->onAppendCsr("M", Delta, Pre, Cat.snapshot());
    } else {
      const SparseVector<double> &V = Pre->find("v")->Sparse;
      std::vector<std::pair<Idx, double>> Delta;
      size_t N = 1 + R.nextBelow(3);
      for (size_t I = 0; I < N; ++I) {
        if (V.nnz() > 0 && R.nextBool(0.4)) {
          size_t K = R.nextBelow(V.nnz());
          Delta.emplace_back(V.Crd[K], -V.Val[K]);
        } else {
          Delta.emplace_back(static_cast<Idx>(R.nextBelow(NC)),
                             static_cast<double>(nonZeroInt(R)));
        }
      }
      std::map<Idx, double> Sum;
      for (const auto &[I, X] : Delta)
        Sum[I] += X;
      NonEmpty = std::any_of(Sum.begin(), Sum.end(),
                             [](const auto &E) { return E.second != 0.0; });
      Cat.appendSparse("v", Delta);
      Drv->onAppendSparse("v", Delta, Pre, Cat.snapshot());
    }
    return NonEmpty;
  }

  /// The independent oracle: evalT over the live catalog payloads.
  KRelation<F64Semiring> oracle(const std::vector<std::string> &Factors,
                                const Shape &GroupBy, bool *Ok) {
    CatalogSnapshotRef Snap = Cat.snapshot();
    ValueContext<F64Semiring> Ctx;
    for (const std::string &F : Factors) {
      if (Ctx.count(F))
        continue;
      CatalogTensorRef T = Snap->find(F);
      switch (T->K) {
      case CatalogTensor::Kind::Csr:
        Ctx.emplace(F, T->Csr.toKRelation<F64Semiring>(T->Shp[0], T->Shp[1]));
        break;
      case CatalogTensor::Kind::Sparse:
        Ctx.emplace(F, T->Sparse.toKRelation<F64Semiring>(T->Shp[0]));
        break;
      case CatalogTensor::Kind::Dense: {
        KRelation<F64Semiring> Rel({T->Shp[0]});
        for (size_t I = 0; I < T->Dense.Val.size(); ++I)
          if (T->Dense.Val[I] != 0.0)
            Rel.insert({static_cast<Idx>(I)}, T->Dense.Val[I]);
        Ctx.emplace(F, std::move(Rel));
        break;
      }
      }
    }
    TypeContext Ty = typesOf(Ctx);
    std::string Err;
    ExprPtr E;
    for (const std::string &F : Factors)
      E = E ? mulExpand(std::move(E), Expr::var(F), Ty, &Err) : Expr::var(F);
    std::optional<Shape> Shp = E ? inferShape(E, Ty, &Err) : std::nullopt;
    if (!Shp) {
      *Ok = false;
      return KRelation<F64Semiring>();
    }
    for (auto It = Shp->rbegin(); It != Shp->rend(); ++It)
      if (!shapeContains(GroupBy, *It))
        E = Expr::sum(*It, std::move(E));
    *Ok = true;
    return evalT<F64Semiring>(E, Ctx);
  }

  void checkViews(const std::string &When) {
    for (const ScalarView *V : Views) {
      std::string Name = V->Name;
      auto Rd = Drv->read(Name);
      auto Rc = Drv->recompute(Name);
      if (!Rd || !Rc || !Rd->Ok || !Rc->Ok) {
        fuzzReportDiv(Rep, "", Leg + "/view/" + Name,
                      When + ": read/recompute failed: " +
                          (Rd ? Rd->Error : "missing") + " / " +
                          (Rc ? Rc->Error : "missing"));
        continue;
      }
      if (std::memcmp(&Rd->Value, &Rc->Value, sizeof(double)) != 0)
        fuzzReportDiv(Rep, "", Leg + "/view/" + Name,
                      When + ": maintained=" + std::to_string(Rd->Value) +
                          " recomputed=" + std::to_string(Rc->Value));
      if (Rd->Epoch != Cat.epoch())
        fuzzReportDiv(Rep, "", Leg + "/view-epoch/" + Name,
                      When + ": reading at epoch " + std::to_string(Rd->Epoch) +
                          ", catalog at " + std::to_string(Cat.epoch()));
      bool Ok = false;
      KRelation<F64Semiring> Want = oracle(V->Factors, {}, &Ok);
      if (!Ok) {
        fuzzReportDiv(Rep, "", Leg + "/oracle/" + Name,
                      When + ": oracle untypable");
        continue;
      }
      double WantV = Want.at({});
      if (std::memcmp(&Rd->Value, &WantV, sizeof(double)) != 0)
        fuzzReportDiv(Rep, "", Leg + "/oracle/" + Name,
                      When + ": maintained=" + std::to_string(Rd->Value) +
                          " evalT=" + std::to_string(WantV));
    }

    auto G1 = Drv->readGrouped("gv_rows");
    auto G2 = Drv->recomputeGrouped("gv_rows");
    if (!G1 || !G2) {
      fuzzReportDiv(Rep, "", Leg + "/grouped/gv_rows", When + ": read failed");
    } else {
      if (!G1->equals(*G2))
        fuzzReportDiv(Rep, "", Leg + "/grouped/gv_rows",
                      When + ": maintained=" + G1->toString() +
                          " recomputed=" + G2->toString());
      bool Ok = false;
      KRelation<F64Semiring> Want = oracle({"M", "v"}, {AI}, &Ok);
      if (Ok && !G1->equals(Want))
        fuzzReportDiv(Rep, "", Leg + "/grouped-oracle/gv_rows",
                      When + ": maintained=" + G1->toString() +
                          " evalT=" + Want.toString());
    }

    // Deletion compaction: no payload may carry an explicit zero weight.
    CatalogSnapshotRef Snap = Cat.snapshot();
    for (const char *N : {"M", "v", "u"}) {
      CatalogTensorRef T = Snap->find(N);
      const std::vector<double> &Vals =
          T->K == CatalogTensor::Kind::Csr ? T->Csr.Val : T->Sparse.Val;
      for (double X : Vals)
        if (X == 0.0)
          fuzzReportDiv(Rep, "", Leg + "/zombie-zero/" + std::string(N),
                        When + ": payload stores an explicit zero weight");
    }
  }

  void run() {
    checkViews("after registration");
    size_t NB = 5 + R.nextBelow(4);
    std::map<std::string, int> NonEmptyBatches;
    for (size_t B = 0; B < NB; ++B) {
      std::string Target = B == 0 ? "M" : B == 1 ? "v" : pickTarget();
      if (applyBatch(Target))
        ++NonEmptyBatches[Target];
      checkViews("after batch " + std::to_string(B) + " on " + Target);
    }

    // Retention: after a priming round (the main batches may all have
    // canceled to empty for a tensor, leaving its delta plans unbuilt), a
    // second round of batches on the same tensors must run without a
    // single planner enumeration.
    for (const char *Target : {"M", "v"})
      for (int Try = 0; Try < 8; ++Try) {
        bool NE = applyBatch(Target);
        if (NE)
          ++NonEmptyBatches[Target];
        checkViews(std::string("priming batch on ") + Target);
        if (NE)
          break; // The tensor's delta plans exist now.
      }
    uint64_t Planned = Plans.stats().PlannerRuns;
    for (size_t B = 0; B < 3; ++B) {
      std::string Target = B % 2 == 0 ? "M" : "v";
      if (applyBatch(Target))
        ++NonEmptyBatches[Target];
      checkViews("warm batch " + std::to_string(B) + " on " + Target);
    }
    if (Plans.stats().PlannerRuns != Planned)
      fuzzReportDiv(Rep, "", Leg + "/planner-rerun",
                    "warm batches re-ran the planner: " +
                        std::to_string(Planned) + " -> " +
                        std::to_string(Plans.stats().PlannerRuns));
    if (NonEmptyBatches["M"] >= 2 && Drv->stats().DeltaPlanHits == 0)
      fuzzReportDiv(Rep, "", Leg + "/no-plan-hits",
                    "repeat batches on M never hit a retained delta plan");
  }

  std::string pickTarget() { return R.nextBool(0.5) ? "M" : "v"; }

  Rng R;
  TensorCatalog Cat;
  PlanCache Plans;
  std::unique_ptr<MaintenanceDriver> Drv;
  std::string Leg;
  FuzzReport &Rep;
  Attr AI, AJ;
  Idx NR = 0, NC = 0;
  std::vector<const ScalarView *> Views; ///< The registered scalar views.
};

/// The delta-rewrite identity and the grouped-view engine on a case: each
/// incremental result is a realization anchored bit-for-bit on its
/// recomputation.
struct DeltaLeg {
  template <Semiring S>
  static void build(const FuzzTypedCase<S> &Ctx, FuzzRealizations<S> &Out) {
    const FuzzCase &C = Ctx.C;
    const ValueContext<S> &Inputs = Ctx.Inputs;
    uint64_t BatchSeed = batchSeedOf(C);
    KRelation<S> Base = evalT<S>(C.E, Inputs);
    for (size_t TI = 0; TI < C.Tensors.size(); ++TI) {
      const FuzzTensor &T = C.Tensors[TI];
      Rng R(mix(BatchSeed, TI));
      KRelation<S> D = genDelta<S>(C, T, Inputs.at(T.Name), R);
      std::string Note = "delta=" + D.toString();

      // Identity: T[e](Ctx[t := A+Δ]) == T[e](Ctx) + δ_t[e](Ctx, Δ).
      std::string Tag = "delta/" + C.SemiringName + "/t=" + T.Name;
      ValueContext<S> Patched = Inputs;
      Patched.at(T.Name) = Inputs.at(T.Name).add(D);
      Out.push_back(relation<S>(Tag + "/recompute", evalT<S>(C.E, Patched)));
      Out.push_back(relation<S>(Tag + "/incremental",
                                Base.add(evalDeltaT<S>(C.E, Inputs, T.Name, D)),
                                Tag + "/recompute", Tag, Note));

      // The maintenance engine itself: apply the batch, compare against a
      // recomputation from the maintained base.
      std::string GTag = "delta/grouped/" + C.SemiringName + "/t=" + T.Name;
      GroupedView<S> GV(C.E, Inputs);
      GV.applyDelta(T.Name, D);
      Out.push_back(relation<S>(GTag + "/recomputed", GV.recompute()));
      Out.push_back(relation<S>(GTag + "/maintained", GV.value(),
                                GTag + "/recomputed", GTag, Note));
    }
  }
};

} // namespace

FuzzCaseBuild etch::deltaCaseBuild() { return fuzzCaseBuild<DeltaLeg>(); }

void etch::deltaSeedBuild(uint64_t Seed, FuzzLegSet Legs,
                          FuzzRealizations<F64Semiring> &Out,
                          FuzzReport &Rep) {
  const struct {
    FuzzLeg Leg;
    ExecBackend EB;
    std::string Name;
  } Executors[] = {{FuzzLeg::Tree, ExecBackend::Tree, "tree"},
                   {FuzzLeg::Bytecode, ExecBackend::Bytecode, "bytecode"},
                   {FuzzLeg::Native, ExecBackend::Native, "native"}};
  for (const auto &E : Executors) {
    if (!Legs.has(E.Leg))
      continue;
    const std::string &Name = E.Name;
    Scenario Sc(Seed, E.EB, E.Leg == FuzzLeg::Native, "delta-driver/" + Name,
                Rep);
    Sc.run();

    // The final readings, anchored on the tree scenario's.
    bool Anchored = E.Leg != FuzzLeg::Tree && Legs.has(FuzzLeg::Tree);
    auto Reading = [&](const std::string &View) {
      FuzzRealization<F64Semiring> R;
      R.Tag = "delta-driver/" + Name + "/" + View;
      if (Anchored)
        R.Anchors.push_back({"delta-driver/tree/" + View,
                             "delta-driver/tree-vs-" + Name + "/" + View,
                             FuzzCheckBits});
      return R;
    };
    for (const ScalarView &V : ScalarViews) {
      FuzzRealization<F64Semiring> R = Reading(V.Name);
      auto Rd = Sc.Drv->read(V.Name);
      if (Rd && Rd->Ok)
        R.Total = Rd->Value;
      Out.push_back(std::move(R));
    }
    FuzzRealization<F64Semiring> G = Reading("gv_rows");
    G.Rel = Sc.Drv->readGrouped("gv_rows");
    Out.push_back(std::move(G));
  }
}
