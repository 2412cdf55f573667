//===- tests/bytecode_vm_test.cpp - Bytecode VM vs tree VM ---------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// The register-allocated bytecode backend (compiler/bytecode.h) promises
// the tree-walking VM's observable semantics exactly: identical step
// counts, identical error text, bit-identical outputs. These tests pin
// that contract — on hand-built programs exercising every error path, on
// the compiled Fig. 2 kernel at O0/O1/O2, on the lazy operators guarding
// out-of-bounds accesses, and on randomized fuzz cases through the full
// differential matrix. The hand-built programs also run as step-counted
// native kernels (compiler/jit.h) when a C toolchain is found: both
// backends elide the definedness checks compiler/defined.h proves
// unnecessary, and must still report the tree VM's errors, in its order,
// after its step count.
//
//===----------------------------------------------------------------------===//

#include "compiler/bytecode.h"
#include "compiler/frontend.h"
#include "compiler/jit.h"
#include "compiler/ops.h"
#include "formats/random.h"
#include "fuzz/exec.h"
#include "fuzz/gen.h"
#include "serve/catalog.h"
#include "serve/prepare.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <unistd.h>

using namespace etch;

namespace {

ERef eVarF(std::string N) { return EExpr::var(std::move(N), ImpType::F64); }
ERef eAccF(std::string A, ERef I) {
  return EExpr::access(std::move(A), ImpType::F64, std::move(I));
}
ERef eAccI(std::string A, ERef I) {
  return EExpr::access(std::move(A), ImpType::I64, std::move(I));
}
ERef eAddF(ERef A, ERef B) {
  return EExpr::call(Ops::addF(), {std::move(A), std::move(B)});
}

/// The executors' outcomes on one program, each against its own copy of
/// the initial memory. Native is empty when no C toolchain is found.
struct Runs {
  VmRunResult Tree, Bc;
  std::optional<VmRunResult> Native;
  VmMemory TreeMem, BcMem, NativeMem;
};

/// The native leg's kernel cache: private to this process, removed when
/// the suite ends.
const std::string &nativeCacheDir() {
  static const std::string Dir =
      (std::filesystem::path(::testing::TempDir()) /
       ("etch-bytecode-vm-test-" + std::to_string(getpid())))
          .string();
  return Dir;
}

struct RemoveNativeCache : ::testing::Environment {
  void TearDown() override {
    std::error_code Ec;
    std::filesystem::remove_all(nativeCacheDir(), Ec);
  }
};
[[maybe_unused]] ::testing::Environment *const RemoveNativeCacheEnv =
    ::testing::AddGlobalTestEnvironment(new RemoveNativeCache);

/// True when the native leg can run; otherwise names the skip once.
bool nativeLegAvailable() {
  const JitToolchain &Tc = jitToolchain();
  static std::once_flag Noted;
  if (!Tc.Available)
    std::call_once(Noted, [&] {
      std::fprintf(stderr,
                   "bytecode_vm_test: native leg skipped, no C toolchain "
                   "(%s)\n",
                   Tc.Diag.c_str());
    });
  return Tc.Available;
}

Runs runAll(const PRef &Prog, const VmMemory &Init,
            int64_t MaxSteps = int64_t(1) << 28) {
  Runs R;
  R.TreeMem = Init;
  R.BcMem = Init;
  R.NativeMem = Init;
  R.Tree = vmRun(Prog, R.TreeMem, MaxSteps);
  R.Bc = bytecodeCompileAndRun(Prog, R.BcMem, MaxSteps);
  if (nativeLegAvailable()) {
    JitOptions JO;
    JO.CountSteps = true; // As nativeRunWithFallback compiles it.
    JO.CacheDir = nativeCacheDir();
    // A kernel that fails to build would silently fall back to bytecode.
    std::string Err;
    EXPECT_TRUE(jitCompile(Prog, JO, &Err)) << "native compile: " << Err;
    R.Native = nativeRunWithFallback(Prog, R.NativeMem, MaxSteps, JO);
  }
  return R;
}

/// Bit-pattern scalar equality (NaNs must agree too).
bool bitsEq(const ImpValue &A, const ImpValue &B) {
  if (impTypeOf(A) != impTypeOf(B))
    return false;
  if (const double *X = std::get_if<double>(&A)) {
    uint64_t XB, YB;
    std::memcpy(&XB, X, sizeof(XB));
    std::memcpy(&YB, &std::get<double>(B), sizeof(YB));
    return XB == YB;
  }
  return A == B;
}

/// Asserts full observable agreement on a SUCCESSFUL run: steps, no
/// error, and bit-identical final memory for every name the tree VM
/// holds that the program could have touched (the bytecode VM and native
/// kernels write back everything they defined).
void expectSuccessParity(const Runs &R,
                         const std::vector<std::string> &Scalars,
                         const std::vector<std::string> &Arrays) {
  ASSERT_FALSE(R.Tree.Error.has_value()) << *R.Tree.Error;
  auto Check = [&](const char *Who, const VmRunResult &Got,
                   const VmMemory &Mem) {
    ASSERT_FALSE(Got.Error.has_value()) << Who << ": " << *Got.Error;
    EXPECT_EQ(R.Tree.Steps, Got.Steps) << Who;
    for (const std::string &S : Scalars) {
      auto A = R.TreeMem.getScalar(S), B = Mem.getScalar(S);
      ASSERT_EQ(A.has_value(), B.has_value()) << Who << " scalar " << S;
      if (A) {
        EXPECT_TRUE(bitsEq(*A, *B)) << Who << " scalar " << S;
      }
    }
    for (const std::string &Name : Arrays) {
      const auto *A = R.TreeMem.getArray(Name);
      const auto *B = Mem.getArray(Name);
      ASSERT_EQ(A != nullptr, B != nullptr) << Who << " array " << Name;
      if (!A)
        continue;
      ASSERT_EQ(A->size(), B->size()) << Who << " array " << Name;
      for (size_t I = 0; I < A->size(); ++I)
        EXPECT_TRUE(bitsEq((*A)[I], (*B)[I]))
            << Who << " array " << Name << "[" << I << "]";
    }
  };
  Check("bytecode", R.Bc, R.BcMem);
  if (R.Native)
    Check("native", *R.Native, R.NativeMem);
}

/// Error runs compare only the result (the documented contract: after an
/// error the bytecode VM and native kernels leave memory untouched, the
/// tree VM does not).
void expectErrorParity(const Runs &R, const std::string &WantErr) {
  ASSERT_TRUE(R.Tree.Error.has_value());
  EXPECT_EQ(*R.Tree.Error, WantErr);
  auto Check = [&](const char *Who, const VmRunResult &Got) {
    ASSERT_TRUE(Got.Error.has_value()) << Who;
    EXPECT_EQ(*Got.Error, *R.Tree.Error) << Who;
    EXPECT_EQ(R.Tree.Steps, Got.Steps) << Who;
  };
  Check("bytecode", R.Bc);
  if (R.Native)
    Check("native", *R.Native);
}

/// sum = 0; i = 0; while (i < n) { sum += a[i]; i += 1 }; out = sum
PRef sumLoopProgram() {
  return PStmt::seq({
      PStmt::declVar("sum", ImpType::F64, eConstF(0.0)),
      PStmt::declVar("i", ImpType::I64, eConstI(0)),
      PStmt::whileLoop(
          eLtI(eVarI("i"), eVarI("n")),
          PStmt::seq2(PStmt::storeVar(
                          "sum", eAddF(eVarF("sum"), eAccF("a", eVarI("i")))),
                      PStmt::storeVar("i", eAddI(eVarI("i"), eConstI(1))))),
      PStmt::storeVar("out", eVarF("sum")),
  });
}

//===----------------------------------------------------------------------===//
// Hand-built programs: success parity
//===----------------------------------------------------------------------===//

TEST(BytecodeVm, SumLoopMatchesTreeVm) {
  VmMemory Init;
  Init.setScalar("n", int64_t{4});
  Init.setArrayF64("a", {1.5, 2.0, 3.25, 4.0});
  Runs R = runAll(sumLoopProgram(), Init);
  expectSuccessParity(R, {"sum", "i", "out", "n"}, {"a"});
  EXPECT_EQ(std::get<double>(*R.BcMem.getScalar("out")), 10.75);
  EXPECT_EQ(R.Bc.Steps, 22);
}

TEST(BytecodeVm, ZeroTripLoopAndWriteback) {
  VmMemory Init;
  Init.setScalar("n", int64_t{0});
  Init.setArrayF64("a", {});
  Runs R = runAll(sumLoopProgram(), Init);
  expectSuccessParity(R, {"sum", "i", "out", "n"}, {"a"});
  EXPECT_EQ(std::get<double>(*R.BcMem.getScalar("out")), 0.0);
}

TEST(BytecodeVm, DeclArrZeroInitAndStores) {
  // b[k] = a[k] * 2 over a freshly declared output array.
  PRef Prog = PStmt::seq({
      PStmt::declArr("b", ImpType::I64, eConstI(5)),
      PStmt::declVar("k", ImpType::I64, eConstI(0)),
      PStmt::whileLoop(
          eLtI(eVarI("k"), eConstI(3)),
          PStmt::seq2(PStmt::storeArr(
                          "b", eVarI("k"),
                          EExpr::call(Ops::mulI(), {eAccI("a", eVarI("k")),
                                                    eConstI(2)})),
                      PStmt::storeVar("k", eAddI(eVarI("k"), eConstI(1))))),
  });
  VmMemory Init;
  Init.setArrayI64("a", {7, -3, 11});
  Runs R = runAll(Prog, Init);
  expectSuccessParity(R, {"k"}, {"a", "b"});
  const auto *B = R.BcMem.getArray("b");
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(B->size(), 5u); // Positions 3,4 keep the zero initialiser.
  EXPECT_EQ(std::get<int64_t>((*B)[1]), -6);
  EXPECT_EQ(std::get<int64_t>((*B)[4]), 0);
}

TEST(BytecodeVm, BranchArmStoresStayOnTheirPath) {
  // Only the taken arm's store may appear in the final memory.
  auto Prog = [](ERef Cond) {
    return PStmt::branch(std::move(Cond),
                         PStmt::storeVar("t", eConstI(1)),
                         PStmt::storeVar("e", eConstI(2)));
  };
  VmMemory Init;
  Runs R = runAll(Prog(eBool(true)), Init);
  expectSuccessParity(R, {"t", "e"}, {});
  EXPECT_TRUE(R.BcMem.getScalar("t").has_value());
  EXPECT_FALSE(R.BcMem.getScalar("e").has_value());
  Runs R2 = runAll(Prog(eBool(false)), Init);
  expectSuccessParity(R2, {"t", "e"}, {});
  EXPECT_FALSE(R2.BcMem.getScalar("t").has_value());
}

TEST(BytecodeVm, LazyOpsGuardOutOfBounds) {
  // The short-circuit operators and select must protect the unevaluated
  // argument, exactly as the tree VM (and C) do: a[9] here is out of
  // bounds but never reached.
  PRef Prog = PStmt::seq({
      PStmt::declVar("g", ImpType::Bool,
                     eAnd(eBool(false),
                          eLtI(eAccI("a", eConstI(9)), eConstI(5)))),
      PStmt::declVar("h", ImpType::Bool,
                     eOr(eBool(true),
                         eLtI(eAccI("a", eConstI(9)), eConstI(5)))),
      PStmt::declVar("s", ImpType::I64,
                     eSelect(eBool(false), eAccI("a", eConstI(9)),
                             eConstI(42))),
  });
  VmMemory Init;
  Init.setArrayI64("a", {1, 2});
  Runs R = runAll(Prog, Init);
  expectSuccessParity(R, {"g", "h", "s"}, {"a"});
  EXPECT_EQ(std::get<bool>(*R.BcMem.getScalar("g")), false);
  EXPECT_EQ(std::get<bool>(*R.BcMem.getScalar("h")), true);
  EXPECT_EQ(std::get<int64_t>(*R.BcMem.getScalar("s")), 42);
}

//===----------------------------------------------------------------------===//
// Error parity
//===----------------------------------------------------------------------===//

TEST(BytecodeVm, OutOfBoundsAccessParity) {
  PRef Prog = PStmt::storeVar("out", eAccI("a", eConstI(10)));
  VmMemory Init;
  Init.setArrayI64("a", {1, 2, 3});
  expectErrorParity(runAll(Prog, Init),
                    "out-of-bounds access a[10], size 3");
  // Negative indices report through the same path.
  PRef Neg = PStmt::storeVar("out", eAccI("a", eConstI(-1)));
  expectErrorParity(runAll(Neg, Init),
                    "out-of-bounds access a[-1], size 3");
}

TEST(BytecodeVm, OutOfBoundsStoreParity) {
  PRef Prog = PStmt::storeArr("a", eConstI(7), eConstI(0));
  VmMemory Init;
  Init.setArrayI64("a", {1, 2, 3});
  expectErrorParity(runAll(Prog, Init), "out-of-bounds store a[7], size 3");
}

TEST(BytecodeVm, UndefinedNameParity) {
  VmMemory Empty;
  expectErrorParity(runAll(PStmt::storeVar("out", eVarI("nope")), Empty),
                    "read of undefined variable 'nope'");
  expectErrorParity(
      runAll(PStmt::storeVar("out", eAccI("gone", eConstI(0))), Empty),
      "access of undefined array 'gone'");
  expectErrorParity(
      runAll(PStmt::storeArr("gone", eConstI(0), eConstI(1)), Empty),
      "store to undefined array 'gone'");
}

TEST(BytecodeVm, UndefinedArrayReportedBeforeBadIndex) {
  // The tree VM reports the unbound array before evaluating the index
  // expression, even when the index itself would fail.
  VmMemory Empty;
  expectErrorParity(
      runAll(PStmt::storeVar("out", eAccI("gone", eVarI("alsogone"))),
              Empty),
      "access of undefined array 'gone'");
}

TEST(BytecodeVm, NegativeArraySizeParity) {
  VmMemory Empty;
  expectErrorParity(
      runAll(PStmt::declArr("b", ImpType::F64, eConstI(-4)), Empty),
      "negative array size for 'b'");
}

TEST(BytecodeVm, StepBudgetParity) {
  PRef Spin = PStmt::seq2(
      PStmt::declVar("x", ImpType::I64, eConstI(0)),
      PStmt::whileLoop(eBool(true),
                       PStmt::storeVar("x", eAddI(eVarI("x"), eConstI(1)))));
  VmMemory Empty;
  Runs R = runAll(Spin, Empty, /*MaxSteps=*/100);
  expectErrorParity(R, "step budget exhausted (possible non-termination)");
  // The budget-crossing charge itself is counted: Steps = MaxSteps + 1.
  EXPECT_EQ(R.Bc.Steps, 101);
}

//===----------------------------------------------------------------------===//
// Golden disassembly
//===----------------------------------------------------------------------===//

TEST(BytecodeVm, GoldenDisassembly) {
  BytecodeProgram BC = compileBytecode(sumLoopProgram());
  ASSERT_TRUE(BC.ok()) << BC.CompileError;
  EXPECT_EQ(BC.disassemble(),
            "   0: steps 2\n"
            "   1: mov.f sum, #0.0\n"
            "   2: setdef sum\n"
            "   3: steps 1\n"
            "   4: mov.i i, #0\n"
            "   5: setdef i\n"
            "   6: steps 1\n"
            "   7: steps 1\n"
            "   8: chkdef n\n"
            "   9: lt.i t0, i, n\n"
            "  10: jf t0, @17\n"
            "  11: steps 2\n"
            "  12: ld.f t0, a[i]\n"
            "  13: add.f sum, sum, t0\n"
            "  14: steps 1\n"
            "  15: add.i i, i, #1\n"
            "  16: jmp @7\n"
            "  17: steps 1\n"
            "  18: mov.f out, sum\n"
            "  19: setdef out\n"
            "  20: halt\n");
}

//===----------------------------------------------------------------------===//
// One definedness policy: kernel guards sit exactly where bytecode checks
//===----------------------------------------------------------------------===//

size_t countOf(const std::string &Text, const std::string &Pat) {
  size_t N = 0;
  for (size_t At = Text.find(Pat); At != std::string::npos;
       At = Text.find(Pat, At + 1))
    ++N;
  return N;
}

/// Expects \p Prog's kernel to guard `d_x` once per bytecode `chkdef` and
/// `ad_A` once per `chkarr`; returns the kernel source.
std::string expectGuardsMatchChecks(const PRef &Prog,
                                    const std::string &Label) {
  BytecodeProgram BC = compileBytecode(Prog);
  EXPECT_TRUE(BC.ok()) << Label << ": " << BC.CompileError;
  std::optional<CKernelManifest> M = deriveKernelManifest(Prog);
  if (!M) {
    ADD_FAILURE() << Label << ": no kernel manifest";
    return {};
  }
  std::string C = emitCKernel(Prog, *M);
  std::string Dis = BC.disassemble();
  EXPECT_EQ(countOf(C, "if (!d_"), countOf(Dis, "chkdef")) << Label;
  EXPECT_EQ(countOf(C, "if (!ad_"), countOf(Dis, "chkarr")) << Label;
  return C;
}

TEST(BytecodeVm, KernelGuardsSitWhereBytecodeChecks) {
  // The golden program reads one external scalar, n.
  std::string Golden = expectGuardsMatchChecks(sumLoopProgram(), "golden");
  EXPECT_EQ(countOf(Golden, "if (!d_"), 1u);

  // The four bench_serve shapes, on its data, prepared as served (O2).
  Attr I = Attr::named("bvm_si"), J = Attr::named("bvm_sj");
  Rng R(131);
  TensorCatalog Cat;
  Cat.putCsr("A", randomCsr(R, 2000, 2000, 40000), I, J);
  Cat.putSparse("x", randomSparseVector(R, 2000, 400), J);
  Cat.putSparse("y", randomSparseVector(R, 2000, 600), I);
  Cat.putSparse("z", randomSparseVector(R, 2000, 600), I);
  Cat.putSparse("w", randomSparseVector(R, 2000, 600), I);
  DenseVector<double> D(2000);
  for (double &V : D.Val)
    V = randomValue(R);
  Cat.putDense("d", std::move(D), J);
  PrepareOptions PO;
  PO.UseNative = false;
  TensorResolver Resolve = snapshotResolver(Cat.snapshot());
  for (const std::vector<std::string> &Shape :
       {std::vector<std::string>{"A", "x"}, {"y", "z", "w"}, {"A", "d"},
        {"x", "d"}}) {
    std::string Label = "sum of";
    for (const std::string &F : Shape)
      Label += " " + F;
    std::string Err;
    CachedPlanRef P =
        prepareContraction("k", Shape, Resolve, PO, nullptr, &Err);
    ASSERT_TRUE(P) << Label << ": " << Err;
    std::string C = expectGuardsMatchChecks(P->Prog, Label);
    if (Shape == std::vector<std::string>{"A", "x"}) {
      // No definedness guard survives, and every access keeps its bounds
      // check.
      EXPECT_EQ(countOf(C, "if (!d_"), 0u);
      EXPECT_EQ(countOf(C, "if (!ad_"), 0u);
      EXPECT_EQ(countOf(C, " >= n_"), 24u);
    }
  }
}

TEST(BytecodeVm, CompileErrorOnIllTypedProgram) {
  // One name used at two types is outside the statically-typed fragment.
  PRef Bad = PStmt::seq2(PStmt::storeVar("x", eConstI(1)),
                         PStmt::storeVar("x", eConstF(1.0)));
  BytecodeProgram BC = compileBytecode(Bad);
  EXPECT_FALSE(BC.ok());
  VmMemory Empty;
  VmRunResult R = bytecodeRun(BC, Empty);
  ASSERT_TRUE(R.Error.has_value());
  EXPECT_NE(R.Error->find("bytecode compile error"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Compiled programs: the Fig. 2 kernel at O0/O1/O2
//===----------------------------------------------------------------------===//

TEST(BytecodeVm, Fig2CompiledParityAtAllOptLevels) {
  Attr AO = Attr::named("bvm_o");
  SparseVector<double> X(10), Y(10), Z(10);
  for (auto [I, V] : {std::pair<Idx, double>{1, 2.0}, {4, 3.0}, {7, 5.0}})
    X.push(I, V);
  for (auto [I, V] :
       {std::pair<Idx, double>{0, 1.0}, {4, 2.0}, {7, 2.0}, {9, 9.0}})
    Y.push(I, V);
  for (auto [I, V] : {std::pair<Idx, double>{4, 10.0}, {7, 3.0}, {8, 1.0}})
    Z.push(I, V);

  for (int Opt : {0, 1, 2}) {
    LowerCtx Ctx;
    Ctx.OptLevel = Opt;
    Ctx.setDim(AO, 10);
    Ctx.bind(sparseVecBinding("x", AO));
    Ctx.bind(sparseVecBinding("y", AO));
    Ctx.bind(sparseVecBinding("z", AO));
    PRef Prog = compileFullContraction(
        Ctx, Expr::var("x") * Expr::var("y") * Expr::var("z"), "out");
    VmMemory Init;
    bindSparseVector(Init, "x", X);
    bindSparseVector(Init, "y", Y);
    bindSparseVector(Init, "z", Z);
    Runs R = runAll(Prog, Init);
    expectSuccessParity(R, {"out"}, {});
    EXPECT_EQ(std::get<double>(*R.BcMem.getScalar("out")), 90.0)
        << "O" << Opt;
  }
}

//===----------------------------------------------------------------------===//
// Randomized differential (the full fuzz matrix, tree ≡ bytecode legs)
//===----------------------------------------------------------------------===//

TEST(BytecodeVm, RandomizedDifferentialAcrossOptLevels) {
  // Each case runs the compiled program at O0/O1/O2 on both executors and
  // cross-checks them directly (steps, error text, bit-identical output)
  // on top of the oracle comparison. A seed window distinct from the
  // 200-seed smoke test buys extra coverage.
  for (uint64_t Seed = 50'000; Seed < 50'060; ++Seed) {
    FuzzCase C = genCase(Seed);
    FuzzReport Rep = runFuzzCase(C); // streams, tree, bytecode
    EXPECT_TRUE(Rep.ok()) << "seed " << Seed << ": " << Rep.toString();
  }
}

} // namespace
