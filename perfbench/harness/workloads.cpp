//===- harness/workloads.cpp - The benchmark's workloads ------------------===//

#include "harness/workloads.h"

#include "harness/probes.h"
#include "harness/reference.h"
#include "harness/schedule.h"
#include "harness/stats.h"
#include "harness/trace.h"

#include "compiler/jit.h"
#include "support/timer.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace etch;

namespace fs = std::filesystem;

namespace {

/// Closed-loop clients per workload. ServeOptions::Threads is 1 (no pool
/// workers), so a run keeps at most clients + 1 threads busy, within the
/// 4 cores the benchmark is sized for (ad-hoc clients mostly wait on cc).
/// serve_rw runs one client: with two, one client's post-write cc runs
/// overlapped the other's reads, and its figures spread ~20% across runs.
constexpr uint32_t ReadOnlyClients = 2; // serve_hot, serve_large
constexpr uint32_t RwClients = 1;
constexpr uint32_t AdhocClients = 3;
constexpr unsigned ServeThreads = 1;
/// Complete set-ups per run, each in its own process; setup_s is their
/// median.
constexpr int SetupReps = 3;
/// Warm rounds over every shape after the first (compiling) query.
constexpr int WarmRounds = 3;
/// serve_rw: every K-th operation of a client is a write batch.
constexpr uint32_t WriteEvery = 64;
/// Alternating untraced/traced blocks of a traced run's traffic.
constexpr int TraceBlocks = 6;

enum class Kind { Hot, Large, Rw, Adhoc };

Kind kindOf(const std::string &W) {
  if (W == "serve_hot")
    return Kind::Hot;
  if (W == "serve_large")
    return Kind::Large;
  if (W == "serve_rw")
    return Kind::Rw;
  return Kind::Adhoc;
}

/// What one operation returned.
struct Sample {
  OpKind K = OpKind::Query;
  uint32_t Shape = 0;
  uint64_t Ordinal = 0;
  bool Ok = false;
  bool Hit = false; ///< Plan-cache hit (queries).
  double Us = 0.0;
  double Value = 0.0;
  uint64_t Epoch = 0;
  std::string Error;
};

/// An answer whose oracle is not a constant (serve_rw's reads of the
/// written matrix, its writes, ad-hoc answers), checked after the run.
struct Answer {
  OpKind K = OpKind::Query;
  uint32_t Shape = 0;
  uint32_t Slot = 0;
  uint64_t Ordinal = 0;
  uint64_t Epoch = 0;
  double Value = 0.0;
};

/// Per-shape constant answers; nullopt marks answers checked after the run.
using Oracle = std::vector<std::optional<double>>;

/// Latencies kept per client and latency class: 64 KiB each, and more
/// than a 12 s run of any workload completes on the seed code.
constexpr size_t SamplesPerClass = size_t(1) << 14;

/// One client's log. Its latency samples are allocated and touched in
/// full before the timed phase, so the benchmark's own bookkeeping adds
/// the same resident memory to peak_rss_mib on every run, however many
/// operations complete.
struct Log {
  Log() = default;
  Log(size_t Classes, uint64_t Seed) {
    for (size_t C = 0; C < Classes; ++C)
      Lat.emplace_back(SamplesPerClass, mixSeed(Seed, 0x1a7, C));
  }

  /// Latencies of successful queries by class: the serve shape of a
  /// plan-cache hit, or the one class of ad-hoc first answers.
  std::vector<Reservoir> Lat;
  uint64_t Ops = 0, TracedOps = 0; ///< Operations completed.
  std::vector<Answer> Deferred;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Failures; ///< The first few, for diagnostics.

  void fail(std::string Why) {
    if (Failed++ < 20)
      Failures.push_back(std::move(Why));
  }

  /// Counts \p S, checks it against \p O when its oracle is constant
  /// (else defers it), and, when it succeeded, adds its latency to class
  /// \p Class unless that is negative.
  void note(const Sample &S, uint32_t Slot, const Oracle &O, bool Traced,
            int Class = -1) {
    ++Ops;
    TracedOps += Traced;
    ++Attempted;
    if (!S.Ok)
      fail(describe(S) + " failed: " + S.Error);
    else if (S.K == OpKind::Query && S.Shape < O.size() && O[S.Shape]) {
      if (!closeEnough(S.Value, *O[S.Shape]))
        fail(describe(S) + " answered " + std::to_string(S.Value) +
             ", oracle " + std::to_string(*O[S.Shape]));
    } else {
      Deferred.push_back({S.K, S.Shape, Slot, S.Ordinal, S.Epoch, S.Value});
    }
    if (S.Ok && Class >= 0)
      Lat[static_cast<size_t>(Class)].add(S.Us);
  }

  static std::string describe(const Sample &S) {
    const char *K[] = {"query", "view read", "append", "delete"};
    return std::string(K[static_cast<int>(S.K)]) + " #" +
           std::to_string(S.Shape) + " at epoch " + std::to_string(S.Epoch);
  }
};

/// One complete set-up: the data, a loaded and warmed service, and (on
/// serve_rw) the write generator and views.
struct Env {
  Dataset Data;
  std::unique_ptr<ContractionService> Svc;
  std::unique_ptr<WriteBatches> Batches;
  Log Warm;                         ///< Set-up operations, all checked.
  uint64_t BaseEpoch = 0;
  double LoadS = 0.0, WarmS = 0.0;
  std::vector<double> ColdUs; ///< First query of each serve shape.
};

Sample runQuery(ContractionService &Svc, const ShapeFactors &F,
                uint32_t Shape) {
  Sample S;
  S.K = OpKind::Query;
  S.Shape = Shape;
  ServeQuery Q{F};
  Timer T;
  ServeResult R;
  {
    PERFBENCH_SPAN("traffic.query");
    R = Svc.query(Q);
  }
  S.Us = T.seconds() * 1e6;
  S.Ok = R.Ok;
  S.Hit = R.PlanCacheHit;
  S.Value = R.Value;
  S.Epoch = R.Epoch;
  S.Error = R.Error;
  return S;
}

Sample runWrite(ContractionService &Svc, const WriteBatches &B, OpKind K,
                uint32_t Slot, uint64_t Ordinal) {
  Sample S;
  S.K = K;
  S.Ordinal = Ordinal;
  if (K == OpKind::Append) {
    std::vector<CooEntry<double>> Batch = B.append(Slot, Ordinal);
    Timer T;
    PERFBENCH_SPAN("traffic.append");
    S.Epoch = Svc.appendCsr("A", Batch);
    S.Us = T.seconds() * 1e6;
  } else {
    std::vector<std::pair<Idx, Idx>> Coords = B.remove(Slot, Ordinal);
    Timer T;
    PERFBENCH_SPAN("traffic.delete");
    S.Epoch = Svc.deleteCsr("A", Coords);
    S.Us = T.seconds() * 1e6;
  }
  S.Ok = S.Epoch != 0;
  return S;
}

Sample runViewRead(ContractionService &Svc) {
  Sample S;
  S.K = OpKind::ViewRead;
  Timer T;
  std::optional<ViewReading> V;
  {
    PERFBENCH_SPAN("traffic.view_read");
    V = Svc.readView("spmv");
  }
  S.Us = T.seconds() * 1e6;
  S.Ok = V && V->Ok;
  if (V) {
    S.Value = V->Value;
    S.Epoch = V->Epoch;
    S.Error = V->Error;
  }
  return S;
}

/// Constant answers of the serve shapes; on serve_rw the shapes reading
/// the written matrix (Σ A·x, Σ A·d) are checked per epoch instead.
Oracle serveOracle(const Dataset &D, Kind K) {
  Oracle O;
  for (double V : serveReferences(D))
    O.push_back(V);
  if (K == Kind::Rw)
    O[0] = O[2] = std::nullopt;
  return O;
}

std::unique_ptr<Env> setUp(Kind K, uint64_t Seed, const std::string &JitDir) {
  auto E = std::make_unique<Env>();
  Timer Load;
  {
    PERFBENCH_SPAN("setup.load");
    E->Data = K == Kind::Adhoc ? makeAdhocData(Seed)
                               : makeServeData(Seed, K == Kind::Large
                                                         ? largeSizes()
                                                         : hotSizes());
    ServeOptions SO;
    SO.Threads = ServeThreads;
    SO.JitCacheDir = JitDir;
    E->Svc = std::make_unique<ContractionService>(SO);
    E->Data.load(*E->Svc);
    E->BaseEpoch = E->Svc->catalog().epoch();
  }
  E->LoadS = Load.seconds();

  Timer Warm;
  PERFBENCH_SPAN("setup.warm");
  const uint32_t Slot = RwClients; // Set-up writes get their own slot.
  // The first query per shape plans and compiles: a first answer from
  // an empty process.
  const Oracle O = serveOracle(E->Data, K);
  for (uint32_t S = 0; S < serveShapeFactors().size(); ++S) {
    Sample First = runQuery(*E->Svc, serveShapeFactors()[S], S);
    E->ColdUs.push_back(First.Us);
    E->Warm.note(First, Slot, O, false);
  }
  if (K == Kind::Rw) {
    std::string Err;
    if (!E->Svc->registerView("spmv", ServeQuery{{"A", "x"}}, &Err) ||
        !E->Svc->maintenance().registerGroupedView("rows", {"A", "x"},
                                                   Shape{attrI()}, &Err))
      E->Warm.fail("view registration failed: " + Err);
    E->Batches = std::make_unique<WriteBatches>(Seed, E->Data.get("A").Csr,
                                                RwClients + 1, WriteBatchNnz);
  }
  // On serve_rw one append and one delete build every view's retained
  // delta plans.
  if (K == Kind::Rw) {
    E->Warm.note(runWrite(*E->Svc, *E->Batches, OpKind::Append, Slot, 0), Slot,
                 O, false);
    E->Warm.note(runWrite(*E->Svc, *E->Batches, OpKind::Delete, Slot, 0), Slot,
                 O, false);
    E->Warm.note(runViewRead(*E->Svc), Slot, O, false);
  }
  for (int R = 0; R < WarmRounds; ++R)
    for (uint32_t S = 0; S < serveShapeFactors().size(); ++S)
      E->Warm.note(runQuery(*E->Svc, serveShapeFactors()[S], S), Slot, O,
                   false);
  E->WarmS = Warm.seconds();
  return E;
}

/// Toggles span recording in alternating blocks (untraced first) until the
/// deadline, when \p Trace; otherwise just waits out the phase.
void paceBlocks(bool Trace, double Seconds) {
  if (!Trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
    return;
  }
  const double Block = Seconds / TraceBlocks;
  Timer T;
  for (int B = 0; B < TraceBlocks; ++B) {
    tracer().setEnabled(B % 2 == 1);
    double Until = Block * (B + 1);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::max(0.0, Until - T.seconds())));
  }
  tracer().setEnabled(false);
}

struct Traffic {
  std::vector<Log> Logs; ///< One per client.
  double WallS = 0.0;
  bool Exhausted = false; ///< The ad-hoc stream ran out before the deadline.
};

/// Runs \p Client(index, log) on \p Clients threads for \p Seconds; each
/// log keeps latencies in \p Classes classes.
template <typename Fn>
Traffic drive(uint32_t Clients, size_t Classes, uint64_t Seed, double Seconds,
              bool Trace, Fn Client) {
  Traffic Tr;
  for (uint32_t C = 0; C < Clients; ++C)
    Tr.Logs.emplace_back(Classes, mixSeed(Seed, 0x1097, C));
  std::atomic<bool> Stop{false};
  Timer Wall;
  {
    std::vector<std::thread> Ts;
    for (uint32_t C = 0; C < Clients; ++C)
      Ts.emplace_back([&, C] {
        while (!Stop.load(std::memory_order_relaxed))
          if (!Client(C, Tr.Logs[C]))
            break;
      });
    paceBlocks(Trace, Seconds);
    Stop.store(true);
    for (std::thread &T : Ts)
      T.join();
  }
  Tr.WallS = Wall.seconds();
  return Tr;
}

Traffic driveServe(Env &E, Kind K, uint64_t Seed, double Seconds,
                   bool Trace) {
  ScheduleConfig C;
  if (K == Kind::Rw) {
    C.ViewReads = 1;
    C.WriteEvery = WriteEvery;
  }
  const uint32_t Clients = K == Kind::Rw ? RwClients : ReadOnlyClients;
  std::vector<OpSchedule> Scheds;
  for (uint32_t Cl = 0; Cl < Clients; ++Cl)
    Scheds.emplace_back(Seed, Cl, C);
  const Oracle O = serveOracle(E.Data, K);
  return drive(Clients, serveShapeFactors().size(), Seed, Seconds, Trace,
               [&](uint32_t Cl, Log &L) {
    Op Next = Scheds[Cl].next();
    bool Traced = tracer().enabled();
    switch (Next.Kind) {
    case OpKind::Query: {
      Sample S = runQuery(*E.Svc, serveShapeFactors()[Next.Shape], Next.Shape);
      // Post-write re-prepares (plan-cache misses) stay out of the
      // latency classes, so they never form a second mode there.
      L.note(S, Cl, O, Traced, S.Hit ? static_cast<int>(Next.Shape) : -1);
      break;
    }
    case OpKind::ViewRead:
      L.note(runViewRead(*E.Svc), Cl, O, Traced);
      break;
    case OpKind::Append:
    case OpKind::Delete:
      L.note(runWrite(*E.Svc, *E.Batches, Next.Kind, Cl, Next.Ordinal), Cl, O,
             Traced);
      break;
    }
    return true;
  });
}

Traffic driveAdhoc(Env &E, const std::vector<ShapeFactors> &Stream,
                   uint64_t Seed, double Seconds, bool Trace) {
  std::atomic<size_t> Next{0};
  const Oracle None; // Every ad-hoc answer is checked after the run.
  Traffic Tr = drive(AdhocClients, 1, Seed, Seconds, Trace,
                     [&](uint32_t Cl, Log &L) {
    size_t I = Next.fetch_add(1);
    if (I >= Stream.size())
      return false;
    bool Traced = tracer().enabled();
    L.note(runQuery(*E.Svc, Stream[I], static_cast<uint32_t>(I)), Cl, None,
           Traced, 0);
    return true;
  });
  // Clients only draw while the phase runs: a draw past the end means
  // they ran out of never-seen shapes before the deadline.
  Tr.Exhausted = Next.load() > Stream.size();
  return Tr;
}

/// serve_rw: replays the writes in epoch order on the plain model, checks
/// every deferred reading against the state of its epoch, then the grouped
/// view against the final state, which it returns.
MatrixModel verifyRw(const Env &E, const std::vector<const Log *> &Logs,
                     RunReport &Out) {
  std::vector<Answer> Writes, Reads;
  for (const Log *L : Logs)
    for (const Answer &A : L->Deferred)
      (A.K == OpKind::Append || A.K == OpKind::Delete ? Writes : Reads)
          .push_back(A);
  std::sort(Writes.begin(), Writes.end(),
            [](const Answer &A, const Answer &B) { return A.Epoch < B.Epoch; });

  const std::vector<double> X = denseOf(E.Data.get("x").Sparse);
  const std::vector<double> &D = E.Data.get("d").Dense.Val;
  MatrixModel M(E.Data.get("A").Csr);
  // Epoch -> {Σ A·x, Σ A·d} of the matrix that epoch installed.
  std::map<uint64_t, std::pair<double, double>> ByEpoch;
  ByEpoch[E.BaseEpoch] = {M.dot(X), M.dot(D)};
  uint64_t Expect = E.BaseEpoch;
  for (const Answer &W : Writes) {
    if (W.Epoch != ++Expect)
      Out.fail("write epochs are not consecutive at " +
               std::to_string(W.Epoch));
    if (W.K == OpKind::Append)
      M.append(E.Batches->append(W.Slot, W.Ordinal));
    else
      M.remove(E.Batches->remove(W.Slot, W.Ordinal));
    ByEpoch[W.Epoch] = {M.dot(X), M.dot(D)};
  }
  for (const Answer &R : Reads) {
    auto It = ByEpoch.find(R.Epoch);
    if (It == ByEpoch.end()) {
      Out.fail("a reading at epoch " + std::to_string(R.Epoch) +
               ", which no write installed");
      continue;
    }
    bool Ad = R.K == OpKind::Query && R.Shape == 2;
    double Want = Ad ? It->second.second : It->second.first;
    if (!closeEnough(R.Value, Want))
      Out.fail("reading of Σ A·" + std::string(Ad ? "d" : "x") +
               " at epoch " + std::to_string(R.Epoch) + " answered " +
               std::to_string(R.Value) + ", oracle " + std::to_string(Want));
  }

  ++Out.Attempted;
  auto Got = E.Svc->maintenance().readGrouped("rows");
  std::map<Idx, double> Want = M.rowDots(X);
  bool Same = Got && Got->entries().size() == Want.size();
  if (Same)
    for (const auto &[T, V] : Got->entries()) {
      auto It = Want.find(T[0]);
      if (It == Want.end() || !closeEnough(V, It->second)) {
        Same = false;
        break;
      }
    }
  if (!Same)
    Out.fail("grouped view 'rows' diverged from the oracle");
  return M;
}

void verifyAdhoc(const Env &E, const std::vector<ShapeFactors> &Stream,
                 const Traffic &Tr, RunReport &Out) {
  for (const Log &L : Tr.Logs)
    for (const Answer &A : L.Deferred) {
      double Want = denseReference(E.Data, Stream[A.Shape]);
      if (!closeEnough(A.Value, Want))
        Out.fail("Σ " + shapeLabel(Stream[A.Shape]) + " answered " +
                 std::to_string(A.Value) + ", oracle " + std::to_string(Want));
    }
}

void addPercentiles(const std::map<std::string, std::vector<double>> &ByShape,
                    const std::map<std::string, uint64_t> &Seen,
                    RunReport &Out) {
  for (const auto &[Shape, Samples] : ByShape) {
    Out.Details.push_back(
        {"queries." + Shape, double(Seen.at(Shape)), "count"});
    Out.Details.push_back(
        {"samples." + Shape, double(Samples.size()), "count"});
    if (auto P = percentile(Samples, 0.5))
      Out.Details.push_back({"p50_us." + Shape, *P, "us"});
    if (auto P = percentile(Samples, 0.9))
      Out.Details.push_back({"p90_us." + Shape, *P, "us"});
  }
  for (auto [Name, Q] : {std::pair<const char *, double>{"query_p50_us", 0.5},
                         {"query_p90_us", 0.9}}) {
    std::string Why;
    std::optional<double> V = combinedPercentile(ByShape, Q, &Why);
    if (!V) {
      Out.GateFailures.push_back(std::string(Name) + ": " + Why);
      continue;
    }
    Out.add(Name, *V, "us");
  }
}

void addTrafficLayerMetrics(const Traffic &Tr, const ServiceStats &S0,
                            const ServiceStats &S1, const PlanCacheStats &P0,
                            const PlanCacheStats &P1, const JitCacheStats &J0,
                            const JitCacheStats &J1, RunReport &Out) {
  uint64_t Queries = S1.Queries - S0.Queries;
  Out.add("serve.coalesced_ratio",
          Queries ? double(S1.Coalesced - S0.Coalesced) / double(Queries) : 0.0,
          "ratio");
  uint64_t Lookups = (P1.Hits - P0.Hits) + (P1.Misses - P0.Misses);
  Out.add("plancache.hit_ratio",
          Lookups ? double(P1.Hits - P0.Hits) / double(Lookups) : 1.0, "ratio");
  Out.add("plancache.planner_runs", double(P1.PlannerRuns - P0.PlannerRuns),
          "count");
  uint64_t Hits = (J1.MemHits - J0.MemHits) + (J1.DiskHits - J0.DiskHits);
  uint64_t Compiles = J1.Compiles - J0.Compiles;
  Out.add("jit.cc_runs", double(Compiles), "count");
  // No JIT call in the phase means no call missed the kernel cache.
  Out.add("jit.cache_hit_ratio",
          Hits + Compiles ? double(Hits) / double(Hits + Compiles) : 1.0,
          "ratio");
  uint64_t Untraced = 0, Traced = 0;
  for (const Log &L : Tr.Logs) {
    Traced += L.TracedOps;
    Untraced += L.Ops - L.TracedOps;
  }
  // Equal total time in each block kind: the throughput ratio is the
  // count ratio.
  Out.add("trace.overhead_pct",
          Traced ? (double(Untraced) / double(Traced) - 1.0) * 100.0 : 0.0,
          "%");
}

/// Peak resident set of this process, in MiB.
double peakRssMib() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // Linux reports KiB.
}

/// Runs \p Fn in a child process and returns the numbers it produced, or
/// nullopt when the child did not finish. The child starts from this
/// process's state at the call.
std::optional<std::vector<double>>
inChild(const std::function<std::vector<double>()> &Fn) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return std::nullopt;
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fd[0]);
    close(Fd[1]);
    return std::nullopt;
  }
  if (Pid == 0) {
    close(Fd[0]);
    std::vector<double> V = Fn();
    const char *P = reinterpret_cast<const char *>(V.data());
    size_t Left = V.size() * sizeof(double);
    while (Left > 0) {
      ssize_t W = write(Fd[1], P, Left);
      if (W <= 0)
        _exit(1);
      P += W;
      Left -= static_cast<size_t>(W);
    }
    _exit(0); // No exit handlers: they belong to the parent.
  }
  close(Fd[1]);
  std::string Bytes;
  char Buf[4096];
  for (ssize_t R; (R = read(Fd[0], Buf, sizeof(Buf))) != 0;) {
    if (R < 0 && errno == EINTR)
      continue;
    if (R < 0)
      break;
    Bytes.append(Buf, static_cast<size_t>(R));
  }
  close(Fd[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0 ||
      Bytes.size() % sizeof(double) != 0)
    return std::nullopt;
  std::vector<double> V(Bytes.size() / sizeof(double));
  std::memcpy(V.data(), Bytes.data(), Bytes.size());
  return V;
}

/// What one set-up measured.
struct SetupTimes {
  double SetupS = 0.0, LoadS = 0.0, WarmS = 0.0;
  std::vector<double> ColdUs;
};

/// One set-up in a child process, checked there: its answers, and on
/// serve_rw its writes replayed on the plain model. The child starts with
/// no kernel compiled and no toolchain probed, as a fresh process does.
std::optional<SetupTimes> setUpInChild(Kind K, uint64_t Seed,
                                       const std::string &JitDir,
                                       RunReport &Out) {
  std::optional<std::vector<double>> V = inChild([&] {
    Timer T;
    std::unique_ptr<Env> E = setUp(K, Seed, JitDir);
    const double SetupS = T.seconds();
    RunReport R;
    R.Attempted = E->Warm.Attempted;
    R.Failed = E->Warm.Failed;
    if (K == Kind::Rw)
      verifyRw(*E, {&E->Warm}, R);
    std::vector<double> Msg = {SetupS, E->LoadS, E->WarmS,
                               double(R.Attempted), double(R.Failed)};
    Msg.insert(Msg.end(), E->ColdUs.begin(), E->ColdUs.end());
    return Msg;
  });
  if (!V || V->size() != 5 + serveShapeFactors().size()) {
    Out.fail("a set-up process did not finish");
    return std::nullopt;
  }
  const std::vector<double> &M = *V;
  Out.Attempted += static_cast<uint64_t>(M[3]);
  if (const auto Failed = static_cast<uint64_t>(M[4])) {
    Out.fail("a set-up process got " + std::to_string(Failed) +
             " answers wrong");
    Out.Failed += Failed - 1;
  }
  return SetupTimes{M[0], M[1], M[2], {M.begin() + 5, M.end()}};
}

} // namespace

const std::vector<std::string> &perfbench::workloadNames() {
  static const std::vector<std::string> Names = {"serve_hot", "serve_large",
                                                 "serve_rw", "adhoc_cold"};
  return Names;
}

RunReport perfbench::runWorkload(const RunOptions &O) {
  RunReport Out;
  const Kind K = kindOf(O.Workload);
  const fs::path Jit = fs::path(O.WorkDir) / "jit";
  auto SetupDir = [&](int Rep) {
    return (Jit / ("setup" + std::to_string(Rep))).string();
  };

  // Every set-up starts as a fresh process does, with no kernel in the
  // JIT's in-process map: all but the last run in child processes forked
  // before this process compiles anything, and the last one here.
  std::vector<SetupTimes> Setups;
  for (int Rep = 0; Rep + 1 < SetupReps; ++Rep)
    if (std::optional<SetupTimes> S = setUpInChild(K, O.Seed, SetupDir(Rep),
                                                   Out))
      Setups.push_back(std::move(*S));
  Timer SetupT;
  std::unique_ptr<Env> E = setUp(K, O.Seed, SetupDir(SetupReps - 1));
  Setups.push_back({SetupT.seconds(), E->LoadS, E->WarmS, E->ColdUs});

  const PlanCacheStats P0 = E->Svc->planStats();
  const ServiceStats S0 = E->Svc->stats();
  const JitCacheStats J0 = jitCacheStats();
  const MaintainStats M0 = E->Svc->viewStats();

  std::vector<ShapeFactors> Stream;
  Traffic Tr;
  if (K == Kind::Adhoc) {
    std::vector<std::string> Names;
    for (const TensorData &T : E->Data.Tensors)
      Names.push_back(T.Name);
    // The serve shapes warmed the set-up, so they are never cold.
    Stream = adhocShapeStream(O.Seed,
                              adhocShapePool(Names, 3, serveShapeFactors()));
    Tr = driveAdhoc(*E, Stream, O.Seed, O.Seconds, O.Trace);
  } else {
    Tr = driveServe(*E, K, O.Seed, O.Seconds, O.Trace);
  }

  const PlanCacheStats P1 = E->Svc->planStats();
  const ServiceStats S1 = E->Svc->stats();
  const JitCacheStats J1 = jitCacheStats();
  const MaintainStats M1 = E->Svc->viewStats();

  // Correctness: set-up answers and timed answers alike.
  std::vector<const Log *> Logs = {&E->Warm};
  uint64_t Ops = 0;
  for (const Log &L : Tr.Logs) {
    Logs.push_back(&L);
    Ops += L.Ops;
  }
  for (const Log *L : Logs) {
    Out.Attempted += L->Attempted;
    Out.Failed += L->Failed - L->Failures.size();
    for (const std::string &F : L->Failures)
      Out.fail(F);
  }
  // The layer probes see the data as the traffic left it.
  Dataset Final = E->Data;
  if (K == Kind::Adhoc) {
    verifyAdhoc(*E, Stream, Tr, Out);
  } else if (K == Kind::Rw) {
    MatrixModel M = verifyRw(*E, Logs, Out);
    for (TensorData &T : Final.Tensors)
      if (T.Name == "A")
        T.Csr = M.toCsr(T.Csr.NumCols);
  }

  // Validity gates: the traffic must exercise exactly the layers its
  // workload claims.
  if (K == Kind::Hot || K == Kind::Large) {
    if (P1.PlannerRuns != P0.PlannerRuns)
      Out.GateFailures.push_back("planner ran after warm-up");
    if (J1.Compiles != J0.Compiles)
      Out.GateFailures.push_back("cc ran after warm-up");
  } else if (K == Kind::Rw) {
    if (M1.DeltaPlanBuilds != M0.DeltaPlanBuilds)
      Out.GateFailures.push_back("delta plans were rebuilt after warm-up");
  } else {
    if (J1.Compiles - J0.Compiles != Ops)
      Out.GateFailures.push_back(
          "cc ran " + std::to_string(J1.Compiles - J0.Compiles) +
          " times for " + std::to_string(Ops) + " never-seen shapes");
    if (Tr.Exhausted)
      Out.GateFailures.push_back(
          "the " + std::to_string(Stream.size()) +
          " never-seen shapes ran out before the deadline");
  }

  // End-to-end metrics (every workload reports every one).
  std::map<std::string, std::vector<double>> ByShape;
  std::map<std::string, uint64_t> Seen;
  for (const Log &L : Tr.Logs)
    for (size_t C = 0; C < L.Lat.size(); ++C) {
      // One class per serve shape, or the one class of first answers
      // to never-seen shapes.
      const std::string Tag = K == Kind::Adhoc ? "cold" : serveShapeTags()[C];
      std::vector<double> V = L.Lat[C].samples();
      ByShape[Tag].insert(ByShape[Tag].end(), V.begin(), V.end());
      Seen[Tag] += L.Lat[C].seen();
    }
  std::vector<double> SetupS, LoadS, WarmS;
  for (const SetupTimes &S : Setups) {
    SetupS.push_back(S.SetupS);
    LoadS.push_back(S.LoadS);
    WarmS.push_back(S.WarmS);
  }
  Out.add("setup_s", *median(SetupS), "s");
  Out.add("qps", double(Ops) / Tr.WallS, "1/s");
  addPercentiles(ByShape, Seen, Out);
  Out.add("peak_rss_mib", peakRssMib(), "MiB");

  if (O.Trace) {
    Out.add("setup.load_s", *median(LoadS), "s");
    Out.add("setup.warm_s", *median(WarmS), "s");
    // Per shape, the median first answer over the set-ups.
    std::vector<double> Cold;
    for (size_t Sh = 0; Sh < serveShapeFactors().size(); ++Sh) {
      std::vector<double> V;
      for (const SetupTimes &S : Setups)
        V.push_back(S.ColdUs[Sh]);
      Cold.push_back(*median(V));
    }
    Out.add("serve.cold_query_us", geomean(Cold).value_or(0.0), "us");
    addTrafficLayerMetrics(Tr, S0, S1, P0, P1, J0, J1, Out);
    ProbeInputs In{Final, *E->Svc, ServeOptions{},
                   (Jit / "probes").string(), O.Seed};
    In.Opts.Threads = ServeThreads;
    In.Opts.JitCacheDir = In.JitDir;
    In.GroupedView = K == Kind::Rw;
    runLayerProbes(In, Out);
  }

  E.reset();
  std::error_code Ec;
  fs::remove_all(Jit, Ec);
  return Out;
}
