//===- harness/probes.cpp - Per-layer probes for traced runs --------------===//

#include "harness/probes.h"

#include "harness/reference.h"
#include "harness/schedule.h"
#include "harness/stats.h"
#include "harness/trace.h"

#include "baselines/etch_kernels.h"
#include "compiler/bytecode.h"
#include "compiler/c_emit.h"
#include "compiler/frontend.h"
#include "compiler/jit.h"
#include "planner/plan.h"
#include "planner/realize.h"
#include "serve/prepare.h"
#include "support/timer.h"

#include <algorithm>
#include <atomic>

using namespace perfbench;
using namespace etch;

namespace {

/// Wall-time budget of each timing loop; loops run at least MinReps.
constexpr double LoopBudgetS = 0.4;
constexpr int MinReps = 15, MaxReps = 300;
constexpr int BindReps = 5, EnumerateReps = 5;
/// Timed batches of the write-path probe, and of the service write probe
/// (one full append:delete cycle).
constexpr int CatalogWrites = 3, ServeWrites = AppendsPerDelete + 1;

int repsFor(double OneS) {
  return std::clamp(static_cast<int>(LoopBudgetS / std::max(OneS, 1e-9)),
                    MinReps, MaxReps);
}

/// Median self time of the spans named \p Name, in microseconds.
double spanMedianUs(const std::map<std::string, std::vector<double>> &Self,
                    const std::string &Name) {
  auto It = Self.find(Name);
  return It == Self.end() ? 0.0 : median(It->second).value_or(0.0);
}

/// The planning form of Σ Π Factors, built exactly as the serve layer
/// builds it (serve/prepare.cpp).
std::optional<PlanQuery> planQueryOf(const std::vector<std::string> &Factors,
                                     const CatalogSnapshot &Snap,
                                     std::string *Err) {
  TypeContext Ctx;
  std::map<std::string, TensorStats> Stats;
  std::map<uint32_t, int64_t> Dims;
  for (const std::string &Name : Factors) {
    CatalogTensorRef T = Snap.find(Name);
    if (!T) {
      *Err = "unknown tensor '" + Name + "'";
      return std::nullopt;
    }
    Ctx[Name] = T->Shp;
    Stats[Name] = T->Stats;
    for (const LevelStat &LS : T->Stats.Levels)
      Dims[LS.A.id()] = LS.Extent;
  }
  ExprPtr Prod;
  for (const std::string &Name : Factors) {
    ExprPtr V = Expr::var(Name);
    Prod = Prod ? mulExpand(std::move(Prod), std::move(V), Ctx, Err)
                : std::move(V);
    if (!Prod)
      return std::nullopt;
  }
  ExprPtr E = sumAll(std::move(Prod), Ctx, Err);
  if (!E)
    return std::nullopt;
  return extractQuery(E, Ctx, Stats, Dims, Err);
}

/// Binds one realized access the way the serve layer does: transposed
/// copies, a compressed outer level as DCSR, rehashed sparse vectors.
void bindAccessData(VmMemory &M, const PlanAccess &Acc,
                    const CatalogTensor &T) {
  switch (T.K) {
  case CatalogTensor::Kind::Csr: {
    CsrMatrix<double> C = Acc.Transposed ? transpose(T.Csr) : T.Csr;
    if (!Acc.Levels.empty() && Acc.Levels[0].K == LevelSpec::Compressed) {
      DcsrMatrix<double> D;
      D.NumRows = C.NumRows;
      D.NumCols = C.NumCols;
      D.Pos.push_back(0);
      for (Idx R = 0; R < C.NumRows; ++R) {
        const size_t RU = static_cast<size_t>(R);
        if (C.Pos[RU] == C.Pos[RU + 1])
          continue;
        D.RowCrd.push_back(R);
        D.Pos.push_back(C.Pos[RU + 1]);
      }
      D.Crd = C.Crd;
      D.Val = C.Val;
      bindDcsr(M, Acc.bindName(), D);
    } else {
      bindCsr(M, Acc.bindName(), C);
    }
    return;
  }
  case CatalogTensor::Kind::Sparse:
    if (Acc.Rehashed) {
      HashedVector<double> H(T.Sparse.Size, T.Sparse.nnz());
      for (size_t I = 0; I < T.Sparse.Crd.size(); ++I)
        H.accumulate(T.Sparse.Crd[I], T.Sparse.Val[I]);
      H.freeze();
      bindHashedVector(M, Acc.bindName(), H);
    } else {
      bindSparseVector(M, Acc.bindName(), T.Sparse);
    }
    return;
  case CatalogTensor::Kind::Dense:
    bindDenseVector(M, Acc.bindName(), T.Dense);
    return;
  }
}

/// Distinct content for every probe compile, so jit.compile_us always
/// measures a real cc run, never a kernel-cache hit.
std::string freshJitTag() {
  static std::atomic<uint64_t> N{0};
  return "perfbench-probe-" + std::to_string(N.fetch_add(1));
}

struct Checker {
  RunReport &Out;
  void check(const std::string &What, bool Ok, double Got, double Want) {
    ++Out.Attempted;
    if (!Ok)
      Out.fail(What + " failed");
    else if (!closeEnough(Got, Want))
      Out.fail(What + " answered " + std::to_string(Got) + ", oracle " +
               std::to_string(Want));
  }
};

/// The hand-written kernel for serve shape \p Shape on the same data.
double handwritten(size_t Shape, const Dataset &D,
                   const DenseVector<double> &XDense, DenseVector<double> &Y) {
  switch (Shape) {
  case 0:
  case 2: {
    kernels::spmv(D.get("A").Csr, Shape == 0 ? XDense : D.get("d").Dense, Y);
    double S = 0.0;
    for (double V : Y.Val)
      S += V;
    return S;
  }
  case 1:
    return kernels::tripleDot(D.get("y").Sparse, D.get("z").Sparse,
                              D.get("w").Sparse);
  default: {
    const SparseVector<double> &X = D.get("x").Sparse;
    const std::vector<double> &Dv = D.get("d").Dense.Val;
    double S = 0.0;
    for (size_t K = 0; K < X.Crd.size(); ++K)
      S += X.Val[K] * Dv[static_cast<size_t>(X.Crd[K])];
    return S;
  }
  }
}

/// serve, kernel and prepare probes for one shape: the service's query
/// next to executePlan on an identically prepared plan and the
/// hand-written kernel, interleaved so they share the host's drift.
void probeServeShape(const ProbeInputs &In, size_t Shape, double Want,
                     Checker &C) {
  const std::string Tag = serveShapeTags()[Shape];
  const std::vector<std::string> &F = serveShapeFactors()[Shape];
  CatalogSnapshotRef Snap = In.Svc.snapshot();
  PrepareOptions PO;
  PO.JitCacheDir = In.JitDir;
  std::string Err;
  CachedPlanRef P = prepareContraction("probe/" + Tag, F,
                                       snapshotResolver(Snap), PO, nullptr,
                                       &Err);
  if (!P) {
    C.check("prepare Σ " + shapeLabel(F) + ": " + Err, false, 0, Want);
    return;
  }
  const std::string QName = "serve.query/" + Tag;
  const std::string EName = "kernel.exec/" + Tag;
  const std::string HName = "kernel.handwritten/" + Tag;
  DenseVector<double> XDense(In.Data.get("x").Sparse.Size);
  XDense.Val = denseOf(In.Data.get("x").Sparse);
  DenseVector<double> Y(In.Data.get("A").Csr.NumRows);
  ServeQuery Q{F};

  Timer One;
  executePlan(*P);
  int Reps = repsFor(3 * One.seconds());
  for (int R = 0; R < Reps; ++R) {
    ServeResult SR;
    {
      Tracer::Scope S(tracer(), QName.c_str());
      SR = In.Svc.query(Q);
    }
    ExecOutcome EO;
    {
      Tracer::Scope S(tracer(), EName.c_str());
      EO = executePlan(*P);
    }
    double HV;
    {
      Tracer::Scope S(tracer(), HName.c_str());
      HV = handwritten(Shape, In.Data, XDense, Y);
    }
    if (R == 0) {
      C.check("probe query Σ " + shapeLabel(F), SR.Ok, SR.Value, Want);
      C.check("probe executePlan Σ " + shapeLabel(F), EO.Ok, EO.Value, Want);
      C.check("hand-written Σ " + shapeLabel(F), true, HV, Want);
    }
  }
  const std::string BName = "prepare.bind/" + Tag;
  TensorResolver Resolve = snapshotResolver(Snap);
  for (int R = 0; R < BindReps; ++R) {
    Tracer::Scope S(tracer(), BName.c_str());
    if (!rebindPlan(*P, Resolve, /*Force=*/true, &Err))
      C.check("rebind Σ " + shapeLabel(F) + ": " + Err, false, 0, Want);
  }
}

struct PlanTiming {
  double ExecUs = 0.0;
  size_t CBytes = 0;
};

/// planner and compiler probes for one shape: enumerate, then realize,
/// lower, compile, emit, JIT and time every enumerated plan.
std::vector<PlanTiming> probePlans(const ProbeInputs &In, size_t Shape,
                                   double Want, Checker &C) {
  const std::string Tag = serveShapeTags()[Shape];
  const std::vector<std::string> &F = serveShapeFactors()[Shape];
  CatalogSnapshotRef Snap = In.Svc.snapshot();
  std::string Err;
  std::optional<PlanQuery> PQ = planQueryOf(F, *Snap, &Err);
  if (!PQ) {
    C.check("plan query Σ " + shapeLabel(F) + ": " + Err, false, 0, Want);
    return {};
  }
  PlanOptions PlanOpts; // The serve layer's defaults: hashing allowed.
  std::vector<Plan> Plans;
  const std::string EnumName = "planner.enumerate/" + Tag;
  for (int R = 0; R < EnumerateReps; ++R) {
    Tracer::Scope S(tracer(), EnumName.c_str());
    Plans = enumeratePlans(*PQ, PlanOpts);
  }

  std::vector<PlanTiming> Out;
  for (size_t K = 0; K < Plans.size(); ++K) {
    const std::string Label =
        "plan " + std::to_string(K) + " of Σ " + shapeLabel(F);
    PRef Prog;
    RealizedPlan RP;
    {
      PERFBENCH_SPAN("compiler.lower");
      RP = realizePlan(*PQ, Plans[K], "pb" + std::to_string(K));
      LowerCtx LCtx;
      LCtx.OptLevel = 2;
      installPlan(LCtx, RP);
      Prog = compileFullContraction(LCtx, RP.E, "out");
    }
    {
      PERFBENCH_SPAN("compiler.bytecode");
      BytecodeProgram Bc = compileBytecode(Prog);
      if (!Bc.ok())
        C.check(Label + " bytecode: " + Bc.CompileError, false, 0, Want);
    }
    PlanTiming T;
    {
      PERFBENCH_SPAN("compiler.emit");
      if (std::optional<CKernelManifest> M = deriveKernelManifest(Prog))
        T.CBytes = emitCKernel(Prog, *M).size();
    }
    JitOptions JO;
    JO.CacheDir = In.JitDir;
    JO.ExtraKey = freshJitTag();
    NativeKernelRef Kernel;
    {
      PERFBENCH_SPAN("jit.compile");
      Kernel = jitCompile(Prog, JO, &Err);
    }
    if (!Kernel) {
      C.check(Label + " jit: " + Err, false, 0, Want);
      continue;
    }
    VmMemory Mem;
    for (const PlanAccess &Acc : RP.Accesses)
      bindAccessData(Mem, Acc, *Snap->find(Acc.Tensor));
    NativeCall Call(Kernel);
    if (!Call.bind(Mem, &Err)) {
      C.check(Label + " bind: " + Err, false, 0, Want);
      continue;
    }
    Timer One;
    Call.invoke();
    int Reps = repsFor(One.seconds());
    std::vector<double> Us;
    for (int R = 0; R < Reps; ++R) {
      Timer Tm;
      Call.invoke();
      Us.push_back(Tm.seconds() * 1e6);
    }
    std::optional<ImpValue> V = Call.scalar("out");
    C.check(Label, V.has_value(), V ? std::get<double>(*V) : 0.0, Want);
    T.ExecUs = *median(Us);
    Out.push_back(T);
  }
  return Out;
}

struct WritePathStats {
  CatalogStats Cat;
  MaintainStats Before, After; ///< Around the timed batches.
};

/// catalog and ivm probe: the write path below the service, on a scratch
/// catalog, plan cache and maintenance driver holding the workload's data
/// and views. Each append batch is installed, the successor's statistics
/// rebuilt, and the views refreshed, each in its own span.
WritePathStats probeWritePath(const ProbeInputs &In, Checker &C) {
  const TensorData &A = In.Data.get("A");
  TensorCatalog Cat;
  In.Data.load(Cat);
  PlanCache Plans;
  IvmOptions IO;
  IO.Prep.JitCacheDir = In.JitDir;
  MaintenanceDriver Drv(Cat, Plans, IO);
  std::string Err;
  bool Views = Drv.registerView("spmv", {"A", "x"}, &Err) &&
               (!In.GroupedView ||
                Drv.registerGroupedView("rows", {"A", "x"}, Shape{attrI()},
                                        &Err));
  C.check("write-path view registration " + Err, Views, 0, 0);

  WriteBatches B(In.Seed, A.Csr, 1, WriteBatchNnz);
  MatrixModel M(A.Csr);
  const std::vector<double> X = denseOf(In.Data.get("x").Sparse);
  WritePathStats Out;
  // Batch 0 builds the retained delta plans; the rest are timed.
  for (int W = 0; W <= CatalogWrites; ++W) {
    const bool Timed = W > 0;
    if (W == 1)
      Out.Before = Drv.stats();
    std::vector<CooEntry<double>> Batch =
        B.append(0, static_cast<uint64_t>(W) + 1000);
    CatalogSnapshotRef Pre = Cat.snapshot();
    {
      Tracer::Scope S(tracer(), Timed ? "catalog.append" : "catalog.warm");
      Cat.appendCsr("A", Batch);
    }
    CatalogSnapshotRef Post = Cat.snapshot();
    if (Timed) {
      PERFBENCH_SPAN("catalog.stats");
      TensorStats TS = statsOfCsr("A", Post->find("A")->Csr, A.Attrs[0],
                                  A.Attrs[1]);
      (void)TS;
    }
    Plans.invalidateTensor("A");
    {
      Tracer::Scope S(tracer(), Timed ? "ivm.refresh" : "ivm.warm");
      Drv.onAppendCsr("A", Batch, Pre, Post);
    }
    M.append(Batch);
    auto V = Drv.read("spmv");
    C.check("write-path view read", V && V->Ok, V ? V->Value : 0.0, M.dot(X));
  }
  Out.After = Drv.stats();
  Out.Cat = Cat.stats();
  return Out;
}

/// ivm and serve write-path probe: a fresh service over the workload's
/// data with live views; each write is followed by the first query of
/// every shape reading A.
void probeWrites(const ProbeInputs &In, Checker &C) {
  ContractionService Svc(In.Opts);
  In.Data.load(Svc);
  std::string Err;
  bool Views = Svc.registerView("spmv", ServeQuery{{"A", "x"}}, &Err) &&
               (!In.GroupedView ||
                Svc.maintenance().registerGroupedView("rows", {"A", "x"},
                                                      Shape{attrI()}, &Err));
  C.check("probe view registration " + Err, Views, 0, 0);

  const CsrMatrix<double> &A0 = In.Data.get("A").Csr;
  WriteBatches B(In.Seed, A0, 1, WriteBatchNnz);
  MatrixModel M(A0);
  const std::vector<double> X = denseOf(In.Data.get("x").Sparse);
  const std::vector<double> &D = In.Data.get("d").Dense.Val;
  auto Write = [&](int W, bool Timed) {
    bool Delete = W % (AppendsPerDelete + 1) == AppendsPerDelete;
    uint64_t Ep;
    {
      Tracer::Scope Sp(tracer(), Timed ? "serve.write" : "serve.write_warm");
      if (Delete)
        Ep = Svc.deleteCsr("A", B.remove(0, static_cast<uint64_t>(W)));
      else
        Ep = Svc.appendCsr("A", B.append(0, static_cast<uint64_t>(W)));
    }
    if (Delete)
      M.remove(B.remove(0, static_cast<uint64_t>(W)));
    else
      M.append(B.append(0, static_cast<uint64_t>(W)));
    ++C.Out.Attempted;
    if (!Ep)
      C.Out.fail("probe write failed");
    for (size_t S : {size_t(0), size_t(2)}) {
      ServeResult R;
      {
        Tracer::Scope Sp(tracer(), Timed ? "serve.post_write_query"
                                         : "serve.post_write_warm");
        R = Svc.query(ServeQuery{serveShapeFactors()[S]});
      }
      C.check("post-write probe Σ " + shapeLabel(serveShapeFactors()[S]),
              R.Ok, R.Value, M.dot(S == 0 ? X : D));
    }
    auto V = Svc.readView("spmv");
    C.check("probe view read", V && V->Ok, V ? V->Value : 0.0, M.dot(X));
  };
  // Warm-up: one append and one delete build every retained delta plan.
  Write(0, false);
  Write(3, false);
  for (int W = 0; W < ServeWrites; ++W)
    Write(4 + W, true);
}

} // namespace

void perfbench::runLayerProbes(const ProbeInputs &In, RunReport &Out) {
  Checker C{Out};
  tracer().setEnabled(true);
  std::vector<double> Refs = serveReferences(In.Data);

  std::vector<double> Regret(4), Plans(4), CBytes(4, 0.0);
  for (size_t S = 0; S < 4; ++S) {
    probeServeShape(In, S, Refs[S], C);
    std::vector<PlanTiming> T = probePlans(In, S, Refs[S], C);
    Plans[S] = double(T.size());
    if (T.empty())
      continue;
    double Best = T.front().ExecUs;
    for (const PlanTiming &P : T)
      Best = std::min(Best, P.ExecUs);
    Regret[S] = T.front().ExecUs / Best;
    CBytes[S] = double(T.front().CBytes);
  }
  WritePathStats WP = probeWritePath(In, C);
  probeWrites(In, C);
  tracer().setEnabled(false);

  const auto Self = tracer().selfTimesUs();
  auto Geo = [&](const std::string &Prefix) {
    std::vector<double> V;
    for (const std::string &Tag : serveShapeTags())
      V.push_back(spanMedianUs(Self, Prefix + "/" + Tag));
    return geomean(V).value_or(0.0);
  };
  for (size_t S = 0; S < 4; ++S) {
    const std::string &Tag = serveShapeTags()[S];
    double Query = spanMedianUs(Self, "serve.query/" + Tag);
    double Exec = spanMedianUs(Self, "kernel.exec/" + Tag);
    double Hand = spanMedianUs(Self, "kernel.handwritten/" + Tag);
    Out.add("serve.overhead_us." + Tag, Query - Exec, "us");
    Out.add("kernel.exec_us." + Tag, Exec, "us");
    Out.add("kernel.vs_handwritten." + Tag, Hand > 0 ? Exec / Hand : 0.0,
            "ratio");
    Out.add("planner.regret." + Tag, Regret[S], "ratio");
  }
  Out.add("planner.enumerate_us", Geo("planner.enumerate"), "us");
  double NPlans = 0;
  for (double P : Plans)
    NPlans += P;
  Out.add("planner.plans", NPlans, "count");
  Out.add("compiler.lower_us", spanMedianUs(Self, "compiler.lower"), "us");
  Out.add("compiler.bytecode_us", spanMedianUs(Self, "compiler.bytecode"),
          "us");
  Out.add("compiler.emit_us", spanMedianUs(Self, "compiler.emit"), "us");
  double Bytes = 0;
  for (double B : CBytes)
    Bytes += B;
  Out.add("compiler.c_bytes", Bytes, "bytes");
  Out.add("jit.compile_us", spanMedianUs(Self, "jit.compile"), "us");
  Out.add("prepare.bind_us", Geo("prepare.bind"), "us");

  Out.add("catalog.append_us", spanMedianUs(Self, "catalog.append"), "us");
  Out.add("catalog.stats_us", spanMedianUs(Self, "catalog.stats"), "us");
  // Predecessor entries one append copies per delta entry it merges.
  Out.add("catalog.merged_per_delta",
          WP.Cat.DeltaNnz ? double(WP.Cat.MergedNnz) / double(WP.Cat.DeltaNnz)
                          : 0.0,
          "ratio");

  Out.add("serve.write_us", spanMedianUs(Self, "serve.write"), "us");
  Out.add("serve.post_write_query_us",
          spanMedianUs(Self, "serve.post_write_query"), "us");
  Out.add("ivm.refresh_us", spanMedianUs(Self, "ivm.refresh"), "us");
  uint64_t Hits = WP.After.DeltaPlanHits - WP.Before.DeltaPlanHits;
  uint64_t Builds = WP.After.DeltaPlanBuilds - WP.Before.DeltaPlanBuilds;
  Out.add("ivm.delta_plan_hit_ratio",
          Hits + Builds ? double(Hits) / double(Hits + Builds) : 1.0, "ratio");
}
