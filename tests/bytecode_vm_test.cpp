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
// differential matrix.
//
//===----------------------------------------------------------------------===//

#include "compiler/bytecode.h"
#include "compiler/frontend.h"
#include "compiler/ops.h"
#include "fuzz/exec.h"
#include "fuzz/gen.h"

#include <gtest/gtest.h>

#include <cstring>

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

/// The two executors' outcomes on one program, each against its own copy
/// of the initial memory.
struct BothRuns {
  VmRunResult Tree, Bc;
  VmMemory TreeMem, BcMem;
};

BothRuns runBoth(const PRef &Prog, const VmMemory &Init,
                 int64_t MaxSteps = int64_t(1) << 28) {
  BothRuns R;
  R.TreeMem = Init;
  R.BcMem = Init;
  R.Tree = vmRun(Prog, R.TreeMem, MaxSteps);
  R.Bc = bytecodeCompileAndRun(Prog, R.BcMem, MaxSteps);
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
/// holds that the program could have touched (the bytecode VM writes
/// back everything it defined).
void expectSuccessParity(const BothRuns &R,
                         const std::vector<std::string> &Scalars,
                         const std::vector<std::string> &Arrays) {
  ASSERT_FALSE(R.Tree.Error.has_value()) << *R.Tree.Error;
  ASSERT_FALSE(R.Bc.Error.has_value()) << *R.Bc.Error;
  EXPECT_EQ(R.Tree.Steps, R.Bc.Steps);
  for (const std::string &S : Scalars) {
    auto A = R.TreeMem.getScalar(S), B = R.BcMem.getScalar(S);
    ASSERT_EQ(A.has_value(), B.has_value()) << "scalar " << S;
    if (A) {
      EXPECT_TRUE(bitsEq(*A, *B)) << "scalar " << S;
    }
  }
  for (const std::string &Name : Arrays) {
    const auto *A = R.TreeMem.getArray(Name);
    const auto *B = R.BcMem.getArray(Name);
    ASSERT_EQ(A != nullptr, B != nullptr) << "array " << Name;
    if (!A)
      continue;
    ASSERT_EQ(A->size(), B->size()) << "array " << Name;
    for (size_t I = 0; I < A->size(); ++I)
      EXPECT_TRUE(bitsEq((*A)[I], (*B)[I]))
          << "array " << Name << "[" << I << "]";
  }
}

/// Error runs compare only the result (the documented contract: after an
/// error the bytecode VM leaves memory untouched, the tree VM does not).
void expectErrorParity(const BothRuns &R, const std::string &WantErr) {
  ASSERT_TRUE(R.Tree.Error.has_value());
  ASSERT_TRUE(R.Bc.Error.has_value());
  EXPECT_EQ(*R.Tree.Error, WantErr);
  EXPECT_EQ(*R.Bc.Error, *R.Tree.Error);
  EXPECT_EQ(R.Tree.Steps, R.Bc.Steps);
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
  BothRuns R = runBoth(sumLoopProgram(), Init);
  expectSuccessParity(R, {"sum", "i", "out", "n"}, {"a"});
  EXPECT_EQ(std::get<double>(*R.BcMem.getScalar("out")), 10.75);
  EXPECT_EQ(R.Bc.Steps, 22);
}

TEST(BytecodeVm, ZeroTripLoopAndWriteback) {
  VmMemory Init;
  Init.setScalar("n", int64_t{0});
  Init.setArrayF64("a", {});
  BothRuns R = runBoth(sumLoopProgram(), Init);
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
  BothRuns R = runBoth(Prog, Init);
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
  BothRuns R = runBoth(Prog(eBool(true)), Init);
  expectSuccessParity(R, {"t", "e"}, {});
  EXPECT_TRUE(R.BcMem.getScalar("t").has_value());
  EXPECT_FALSE(R.BcMem.getScalar("e").has_value());
  BothRuns R2 = runBoth(Prog(eBool(false)), Init);
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
  BothRuns R = runBoth(Prog, Init);
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
  expectErrorParity(runBoth(Prog, Init),
                    "out-of-bounds access a[10], size 3");
  // Negative indices report through the same path.
  PRef Neg = PStmt::storeVar("out", eAccI("a", eConstI(-1)));
  expectErrorParity(runBoth(Neg, Init),
                    "out-of-bounds access a[-1], size 3");
}

TEST(BytecodeVm, OutOfBoundsStoreParity) {
  PRef Prog = PStmt::storeArr("a", eConstI(7), eConstI(0));
  VmMemory Init;
  Init.setArrayI64("a", {1, 2, 3});
  expectErrorParity(runBoth(Prog, Init), "out-of-bounds store a[7], size 3");
}

TEST(BytecodeVm, UndefinedNameParity) {
  VmMemory Empty;
  expectErrorParity(runBoth(PStmt::storeVar("out", eVarI("nope")), Empty),
                    "read of undefined variable 'nope'");
  expectErrorParity(
      runBoth(PStmt::storeVar("out", eAccI("gone", eConstI(0))), Empty),
      "access of undefined array 'gone'");
  expectErrorParity(
      runBoth(PStmt::storeArr("gone", eConstI(0), eConstI(1)), Empty),
      "store to undefined array 'gone'");
}

TEST(BytecodeVm, UndefinedArrayReportedBeforeBadIndex) {
  // The tree VM reports the unbound array before evaluating the index
  // expression, even when the index itself would fail.
  VmMemory Empty;
  expectErrorParity(
      runBoth(PStmt::storeVar("out", eAccI("gone", eVarI("alsogone"))),
              Empty),
      "access of undefined array 'gone'");
}

TEST(BytecodeVm, NegativeArraySizeParity) {
  VmMemory Empty;
  expectErrorParity(
      runBoth(PStmt::declArr("b", ImpType::F64, eConstI(-4)), Empty),
      "negative array size for 'b'");
}

TEST(BytecodeVm, StepBudgetParity) {
  PRef Spin = PStmt::seq2(
      PStmt::declVar("x", ImpType::I64, eConstI(0)),
      PStmt::whileLoop(eBool(true),
                       PStmt::storeVar("x", eAddI(eVarI("x"), eConstI(1)))));
  VmMemory Empty;
  BothRuns R = runBoth(Spin, Empty, /*MaxSteps=*/100);
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
    BothRuns R = runBoth(Prog, Init);
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
