//===- compiler/bytecode.cpp - Register-allocated bytecode for P ----------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//

#include "compiler/bytecode.h"

#include "compiler/defined.h"
#include "compiler/ops.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <unordered_map>
#include <unordered_set>

using namespace etch;

namespace {

//===----------------------------------------------------------------------===//
// Compilation
//===----------------------------------------------------------------------===//

int fileOf(ImpType T) { return static_cast<int>(T); }

/// Compiles one P tree to a BytecodeProgram. Two passes: an interning /
/// typing pre-pass over every name (so slot counts are fixed before code
/// emission), then a single emission pass that drives the
/// definitely-defined analysis (compiler/defined.h) in execution order and
/// emits a runtime defined-ness check exactly where it cannot prove one
/// unnecessary.
class BcCompiler {
public:
  BytecodeProgram run(const PStmt &Root) {
    internStmt(Root);
    if (!P.ok())
      return std::move(P);
    emitStmt(Root);
    put({BcOp::Halt, 0, 0, 0});
    return std::move(P);
  }

private:
  BytecodeProgram P;

  //===--------------------------------------------------------------------===//
  // Pre-pass: intern names, check static types
  //===--------------------------------------------------------------------===//

  std::unordered_map<std::string, int32_t> ScalarId, ArrayId;
  std::unordered_set<const EExpr *> SeenExpr;
  std::unordered_set<const PStmt *> SeenStmt;

  void fail(std::string Msg) {
    if (P.CompileError.empty())
      P.CompileError = std::move(Msg);
  }

  int32_t allocReg(ImpType T, std::string DebugName) {
    switch (T) {
    case ImpType::I64:
      P.InitI.push_back(0);
      RegNames[0].push_back(std::move(DebugName));
      return static_cast<int32_t>(P.InitI.size() - 1);
    case ImpType::F64:
      P.InitF.push_back(0.0);
      RegNames[1].push_back(std::move(DebugName));
      return static_cast<int32_t>(P.InitF.size() - 1);
    case ImpType::Bool:
      P.InitB.push_back(0);
      RegNames[2].push_back(std::move(DebugName));
      return static_cast<int32_t>(P.InitB.size() - 1);
    }
    ETCH_UNREACHABLE("unknown ImpType");
  }

  int32_t internScalar(const std::string &Name, ImpType T) {
    auto It = ScalarId.find(Name);
    if (It != ScalarId.end()) {
      const BcScalar &S = P.Scalars[static_cast<size_t>(It->second)];
      if (S.Ty != T)
        fail("scalar '" + Name + "' used at both " + impTypeName(S.Ty) +
             " and " + impTypeName(T));
      return It->second;
    }
    BcScalar S;
    S.Name = Name;
    S.Ty = T;
    S.Reg = allocReg(T, Name);
    S.WrittenBack = false;
    P.Scalars.push_back(std::move(S));
    int32_t Id = static_cast<int32_t>(P.Scalars.size() - 1);
    ScalarId.emplace(Name, Id);
    return Id;
  }

  int32_t internArray(const std::string &Name, ImpType Elem) {
    auto It = ArrayId.find(Name);
    if (It != ArrayId.end()) {
      const BcArray &A = P.Arrays[static_cast<size_t>(It->second)];
      if (A.Elem != Elem)
        fail("array '" + Name + "' used at both element type " +
             impTypeName(A.Elem) + " and " + impTypeName(Elem));
      return It->second;
    }
    BcArray A;
    A.Name = Name;
    A.Elem = Elem;
    switch (Elem) {
    case ImpType::I64:
      A.Slot = static_cast<int32_t>(P.NumArrI++);
      break;
    case ImpType::F64:
      A.Slot = static_cast<int32_t>(P.NumArrF++);
      break;
    case ImpType::Bool:
      A.Slot = static_cast<int32_t>(P.NumArrB++);
      break;
    }
    A.WrittenBack = false;
    P.Arrays.push_back(std::move(A));
    int32_t Id = static_cast<int32_t>(P.Arrays.size() - 1);
    ArrayId.emplace(Name, Id);
    return Id;
  }

  void internExpr(const EExpr &E) {
    if (!SeenExpr.insert(&E).second)
      return; // Shared subtree: already interned (rewrites preserve sharing).
    switch (E.kind()) {
    case EKind::Const:
      return;
    case EKind::Var:
      internScalar(E.name(), E.type());
      return;
    case EKind::Access:
      internArray(E.name(), E.type());
      internExpr(*E.args()[0]);
      return;
    case EKind::Call:
      if (E.op()->Lazy == OpDef::Laziness::Select &&
          (E.args()[1]->type() != E.type() ||
           E.args()[2]->type() != E.type()))
        fail("select arms disagree with the result type");
      for (const auto &A : E.args())
        internExpr(*A);
      return;
    }
    ETCH_UNREACHABLE("unknown EKind");
  }

  void internStmt(const PStmt &S) {
    // Statements may be shared too, but interning is idempotent; the seen
    // set only bounds the walk on heavily shared trees.
    if (!SeenStmt.insert(&S).second)
      return;
    switch (S.kind()) {
    case PKind::Seq:
      for (const auto &C : S.children())
        internStmt(*C);
      return;
    case PKind::While:
      internExpr(*S.cond());
      internStmt(*S.children()[0]);
      return;
    case PKind::Branch:
      internExpr(*S.cond());
      internStmt(*S.children()[0]);
      internStmt(*S.children()[1]);
      return;
    case PKind::Noop:
    case PKind::Comment:
      return;
    case PKind::StoreVar: {
      internExpr(*S.valueExpr());
      int32_t Id = internScalar(S.name(), S.valueExpr()->type());
      P.Scalars[static_cast<size_t>(Id)].WrittenBack = true;
      return;
    }
    case PKind::StoreArr: {
      internExpr(*S.indexExpr());
      internExpr(*S.valueExpr());
      int32_t Id = internArray(S.name(), S.valueExpr()->type());
      P.Arrays[static_cast<size_t>(Id)].WrittenBack = true;
      return;
    }
    case PKind::DeclVar: {
      internExpr(*S.valueExpr());
      if (S.valueExpr()->type() != S.type())
        fail("initialiser type of '" + S.name() +
             "' disagrees with its declaration");
      int32_t Id = internScalar(S.name(), S.type());
      P.Scalars[static_cast<size_t>(Id)].WrittenBack = true;
      return;
    }
    case PKind::DeclArr: {
      internExpr(*S.valueExpr());
      int32_t Id = internArray(S.name(), S.type());
      P.Arrays[static_cast<size_t>(Id)].WrittenBack = true;
      return;
    }
    }
    ETCH_UNREACHABLE("unknown PKind");
  }

  //===--------------------------------------------------------------------===//
  // Emission
  //===--------------------------------------------------------------------===//

  /// Step charges accumulate here and flush as one AddSteps immediately
  /// before the next emitted instruction (or label). Charges only merge
  /// across statements that execute nothing in between (Seq headers,
  /// Noop, Comment), so the budget-crossing point — and therefore the
  /// step count and memory state at any error — matches the tree VM
  /// exactly.
  int32_t Pending = 0;

  /// Names definitely defined at the current emission point.
  DefinedSet Defs;

  /// Per-type free lists for expression temporaries.
  std::vector<int32_t> FreeTemps[3];
  int TempCount[3] = {0, 0, 0};

  /// Debug names per register file (named slots, '#'-prefixed constants,
  /// 't'-prefixed temporaries) — used by the disassembler.
  std::vector<std::string> RegNames[3];

  /// Interned constants: (file, value bits) -> register.
  std::unordered_map<uint64_t, int32_t> ConstReg[3];

  void flush() {
    if (Pending > 0) {
      P.Code.push_back({BcOp::AddSteps, Pending, 0, 0});
      Pending = 0;
    }
  }

  void put(BcInstr I) {
    flush();
    P.Code.push_back(I);
  }

  /// Flushes pending charges, then returns the next instruction index —
  /// the only valid way to bind a jump target.
  int32_t label() {
    flush();
    return static_cast<int32_t>(P.Code.size());
  }

  void charge() { ++Pending; }

  int32_t internConst(const ImpValue &V) {
    ImpType T = impTypeOf(V);
    uint64_t Bits = 0;
    if (const auto *I = std::get_if<int64_t>(&V))
      Bits = static_cast<uint64_t>(*I);
    else if (const auto *D = std::get_if<double>(&V))
      Bits = std::bit_cast<uint64_t>(*D);
    else
      Bits = std::get<bool>(V) ? 1 : 0;
    auto &Map = ConstReg[fileOf(T)];
    auto It = Map.find(Bits);
    if (It != Map.end())
      return It->second;
    int32_t R = allocReg(T, "#" + EExpr::constant(V)->toString());
    switch (T) {
    case ImpType::I64:
      P.InitI[static_cast<size_t>(R)] = std::get<int64_t>(V);
      break;
    case ImpType::F64:
      P.InitF[static_cast<size_t>(R)] = std::get<double>(V);
      break;
    case ImpType::Bool:
      P.InitB[static_cast<size_t>(R)] = std::get<bool>(V) ? 1 : 0;
      break;
    }
    Map.emplace(Bits, R);
    return R;
  }

  int32_t allocTemp(ImpType T) {
    int F = fileOf(T);
    if (!FreeTemps[F].empty()) {
      int32_t R = FreeTemps[F].back();
      FreeTemps[F].pop_back();
      return R;
    }
    return allocReg(T, "t" + std::to_string(TempCount[F]++));
  }

  /// An expression result: a register plus whether it is a temporary the
  /// consumer must release.
  struct Val {
    int32_t Reg;
    bool Temp;
  };

  void release(ImpType T, const Val &V) {
    if (V.Temp)
      FreeTemps[fileOf(T)].push_back(V.Reg);
  }

  /// The dedicated opcode for a built-in eager op, or nullopt for ops that
  /// go through the generic call table. The opcode semantics must match
  /// OpDef::Spec bit for bit (see compiler/ops.cpp).
  static std::optional<BcOp> nativeOp(const OpDef *Op) {
    static const std::unordered_map<const OpDef *, BcOp> Native = {
        {Ops::addI(), BcOp::AddI},       {Ops::subI(), BcOp::SubI},
        {Ops::mulI(), BcOp::MulI},       {Ops::divI(), BcOp::DivI},
        {Ops::modI(), BcOp::ModI},       {Ops::minI(), BcOp::MinI},
        {Ops::maxI(), BcOp::MaxI},       {Ops::ltI(), BcOp::LtI},
        {Ops::leI(), BcOp::LeI},         {Ops::eqI(), BcOp::EqI},
        {Ops::neI(), BcOp::NeI},         {Ops::addF(), BcOp::AddF},
        {Ops::subF(), BcOp::SubF},       {Ops::mulF(), BcOp::MulF},
        {Ops::divF(), BcOp::DivF},       {Ops::minF(), BcOp::MinF},
        {Ops::ltF(), BcOp::LtF},         {Ops::notB(), BcOp::NotB},
        {Ops::boolToI(), BcOp::BoolToI}, {Ops::i64ToF(), BcOp::I64ToF}};
    auto It = Native.find(Op);
    if (It == Native.end())
      return std::nullopt;
    return It->second;
  }

  static BcOp movOp(ImpType T) {
    switch (T) {
    case ImpType::I64:
      return BcOp::MovI;
    case ImpType::F64:
      return BcOp::MovF;
    case ImpType::Bool:
      return BcOp::MovB;
    }
    ETCH_UNREACHABLE("unknown ImpType");
  }

  /// Emits code leaving the value of \p E in the returned register.
  /// \p Hint, when nonnegative, is a register of E's type the caller wants
  /// the result in; it is only ever written by the final instruction of
  /// each path (so an expression may freely *read* the hinted register —
  /// `x = x + 1` compiles to one instruction).
  Val emitExpr(const EExpr &E, int32_t Hint = -1) {
    switch (E.kind()) {
    case EKind::Const:
      return {internConst(E.constant()), false};
    case EKind::Var: {
      int32_t Id = ScalarId.at(E.name());
      if (!Defs.scalar(E.name()))
        put({BcOp::CheckDef, Id, 0, 0});
      return {P.Scalars[static_cast<size_t>(Id)].Reg, false};
    }
    case EKind::Access: {
      int32_t Id = ArrayId.at(E.name());
      const BcArray &A = P.Arrays[static_cast<size_t>(Id)];
      // Unless the index can fail first, the load's bounds check catches
      // an unbound array and boundsError picks the message off the
      // defined bit.
      if (Defs.needsArrayCheck(E))
        put({BcOp::CheckArr, Id, /*store=*/0, 0});
      Val I = emitExpr(*E.args()[0]);
      release(ImpType::I64, I);
      int32_t Dst = Hint >= 0 ? Hint : allocTemp(E.type());
      BcOp Op = E.type() == ImpType::I64   ? BcOp::LoadI
                : E.type() == ImpType::F64 ? BcOp::LoadF
                                           : BcOp::LoadB;
      put({Op, Dst, A.Slot, I.Reg});
      return {Dst, Hint < 0};
    }
    case EKind::Call:
      return emitCall(E, Hint);
    }
    ETCH_UNREACHABLE("unknown EKind");
  }

  Val emitCall(const EExpr &E, int32_t Hint) {
    const OpDef *Op = E.op();
    switch (Op->Lazy) {
    case OpDef::Laziness::AndAlso: {
      // eval a; if (!a) false; else eval b   — C's short circuit.
      int32_t Res = Hint >= 0 ? Hint : allocTemp(ImpType::Bool);
      Val A = emitExpr(*E.args()[0]);
      put({BcOp::JumpIfFalse, A.Reg, 0, 0});
      int32_t PatchFalse = static_cast<int32_t>(P.Code.size() - 1);
      release(ImpType::Bool, A);
      Val B = emitExpr(*E.args()[1], Res);
      if (B.Reg != Res)
        put({BcOp::MovB, Res, B.Reg, 0});
      release(ImpType::Bool, B);
      put({BcOp::Jump, 0, 0, 0});
      int32_t PatchEnd = static_cast<int32_t>(P.Code.size() - 1);
      P.Code[static_cast<size_t>(PatchFalse)].B = label();
      put({BcOp::MovB, Res, internConst(false), 0});
      P.Code[static_cast<size_t>(PatchEnd)].A = label();
      return {Res, Hint < 0};
    }
    case OpDef::Laziness::OrElse: {
      int32_t Res = Hint >= 0 ? Hint : allocTemp(ImpType::Bool);
      Val A = emitExpr(*E.args()[0]);
      put({BcOp::JumpIfTrue, A.Reg, 0, 0});
      int32_t PatchTrue = static_cast<int32_t>(P.Code.size() - 1);
      release(ImpType::Bool, A);
      Val B = emitExpr(*E.args()[1], Res);
      if (B.Reg != Res)
        put({BcOp::MovB, Res, B.Reg, 0});
      release(ImpType::Bool, B);
      put({BcOp::Jump, 0, 0, 0});
      int32_t PatchEnd = static_cast<int32_t>(P.Code.size() - 1);
      P.Code[static_cast<size_t>(PatchTrue)].B = label();
      put({BcOp::MovB, Res, internConst(true), 0});
      P.Code[static_cast<size_t>(PatchEnd)].A = label();
      return {Res, Hint < 0};
    }
    case OpDef::Laziness::Select: {
      int32_t Res = Hint >= 0 ? Hint : allocTemp(E.type());
      Val C = emitExpr(*E.args()[0]);
      put({BcOp::JumpIfFalse, C.Reg, 0, 0});
      int32_t PatchElse = static_cast<int32_t>(P.Code.size() - 1);
      release(ImpType::Bool, C);
      Val A = emitExpr(*E.args()[1], Res);
      if (A.Reg != Res)
        put({movOp(E.type()), Res, A.Reg, 0});
      release(E.type(), A);
      put({BcOp::Jump, 0, 0, 0});
      int32_t PatchEnd = static_cast<int32_t>(P.Code.size() - 1);
      P.Code[static_cast<size_t>(PatchElse)].B = label();
      Val B = emitExpr(*E.args()[2], Res);
      if (B.Reg != Res)
        put({movOp(E.type()), Res, B.Reg, 0});
      release(E.type(), B);
      P.Code[static_cast<size_t>(PatchEnd)].A = label();
      return {Res, Hint < 0};
    }
    case OpDef::Laziness::Eager: {
      if (auto Native = nativeOp(Op); Native && E.args().size() == 2) {
        Val A = emitExpr(*E.args()[0]);
        Val B = emitExpr(*E.args()[1]);
        release(Op->ArgTypes[0], A);
        release(Op->ArgTypes[1], B);
        int32_t Dst = Hint >= 0 ? Hint : allocTemp(E.type());
        put({*Native, Dst, A.Reg, B.Reg});
        return {Dst, Hint < 0};
      }
      if (auto Native = nativeOp(Op); Native && E.args().size() == 1) {
        Val A = emitExpr(*E.args()[0]);
        release(Op->ArgTypes[0], A);
        int32_t Dst = Hint >= 0 ? Hint : allocTemp(E.type());
        put({*Native, Dst, A.Reg, 0});
        return {Dst, Hint < 0};
      }
      // Generic path: user-defined ops run through OpDef::Spec with
      // boxed arguments, via the call table.
      BcCall Call;
      Call.Op = Op;
      std::vector<Val> Args;
      Args.reserve(E.args().size());
      for (size_t I = 0; I < E.args().size(); ++I) {
        Val A = emitExpr(*E.args()[I]);
        Args.push_back(A);
        Call.Args.emplace_back(Op->ArgTypes[I], A.Reg);
      }
      for (size_t I = 0; I < Args.size(); ++I)
        release(Op->ArgTypes[I], Args[I]);
      int32_t Dst = Hint >= 0 ? Hint : allocTemp(E.type());
      Call.Dst = Dst;
      P.Calls.push_back(std::move(Call));
      put({BcOp::CallOp, static_cast<int32_t>(P.Calls.size() - 1), 0, 0});
      return {Dst, Hint < 0};
    }
    }
    ETCH_UNREACHABLE("unknown laziness");
  }

  /// Emits a scalar definition (StoreVar and DeclVar share semantics).
  void emitScalarDef(const PStmt &S) {
    int32_t Id = ScalarId.at(S.name());
    const BcScalar &Sc = P.Scalars[static_cast<size_t>(Id)];
    Val V = emitExpr(*S.valueExpr(), Sc.Reg);
    if (V.Reg != Sc.Reg)
      put({movOp(Sc.Ty), Sc.Reg, V.Reg, 0});
    release(Sc.Ty, V);
    if (!Defs.scalar(S.name())) {
      // First possible definition on this path: the defined bit feeds
      // both later guarded reads and the final write-back set.
      put({BcOp::SetDef, Id, 0, 0});
      Defs.define(S);
    }
  }

  void emitStmt(const PStmt &S) {
    charge(); // Every statement execution costs one step (vm.cpp).
    switch (S.kind()) {
    case PKind::Seq:
      for (const auto &C : S.children())
        emitStmt(*C);
      return;
    case PKind::While: {
      int32_t Loop = label(); // Entry charge stays outside the loop.
      charge();               // One step per iteration check.
      Val C = emitExpr(*S.cond());
      put({BcOp::JumpIfFalse, C.Reg, 0, 0});
      int32_t PatchEnd = static_cast<int32_t>(P.Code.size() - 1);
      release(ImpType::Bool, C);
      Defs.loopBody([&] { emitStmt(*S.children()[0]); });
      put({BcOp::Jump, Loop, 0, 0});
      P.Code[static_cast<size_t>(PatchEnd)].B = label();
      return;
    }
    case PKind::Branch: {
      Val C = emitExpr(*S.cond());
      put({BcOp::JumpIfFalse, C.Reg, 0, 0});
      int32_t PatchElse = static_cast<int32_t>(P.Code.size() - 1);
      release(ImpType::Bool, C);
      int32_t PatchEnd = 0;
      Defs.branch(
          [&] {
            emitStmt(*S.children()[0]);
            put({BcOp::Jump, 0, 0, 0});
            PatchEnd = static_cast<int32_t>(P.Code.size() - 1);
          },
          [&] {
            P.Code[static_cast<size_t>(PatchElse)].B = label();
            emitStmt(*S.children()[1]);
          });
      P.Code[static_cast<size_t>(PatchEnd)].A = label();
      return;
    }
    case PKind::Noop:
    case PKind::Comment:
      return; // Charge only.
    case PKind::StoreVar:
    case PKind::DeclVar:
      emitScalarDef(S);
      return;
    case PKind::StoreArr: {
      // Tree-VM order: index, value, then the array lookup — so the
      // store's bounds check (whose error path distinguishes unbound
      // from out-of-bounds) needs no preceding CheckArr.
      int32_t Id = ArrayId.at(S.name());
      const BcArray &A = P.Arrays[static_cast<size_t>(Id)];
      Val I = emitExpr(*S.indexExpr());
      Val V = emitExpr(*S.valueExpr());
      release(ImpType::I64, I);
      release(A.Elem, V);
      BcOp Op = A.Elem == ImpType::I64   ? BcOp::StoreI
                : A.Elem == ImpType::F64 ? BcOp::StoreF
                                         : BcOp::StoreB;
      put({Op, A.Slot, I.Reg, V.Reg});
      return;
    }
    case PKind::DeclArr: {
      int32_t Id = ArrayId.at(S.name());
      const BcArray &A = P.Arrays[static_cast<size_t>(Id)];
      Val N = emitExpr(*S.valueExpr());
      release(ImpType::I64, N);
      BcOp Op = A.Elem == ImpType::I64   ? BcOp::AllocI
                : A.Elem == ImpType::F64 ? BcOp::AllocF
                                         : BcOp::AllocB;
      put({Op, A.Slot, N.Reg, Id});
      Defs.define(S);
      return;
    }
    }
    ETCH_UNREACHABLE("unknown PKind");
  }

public:
  // Exposed for the disassembler (the compiler owns the debug names).
  const std::vector<std::string> *regNames() const { return RegNames; }
};

} // namespace

BytecodeProgram etch::compileBytecode(const PRef &Program) {
  ETCH_ASSERT(Program, "null program");
  BcCompiler C;
  BytecodeProgram P = C.run(*Program);
  // Stash debug names into the disassembly-support side tables.
  P.RegNamesI = C.regNames()[0];
  P.RegNamesF = C.regNames()[1];
  P.RegNamesB = C.regNames()[2];
  return P;
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

const char *etch::bcOpName(BcOp Op) {
  switch (Op) {
  case BcOp::AddSteps:
    return "steps";
  case BcOp::Jump:
    return "jmp";
  case BcOp::JumpIfTrue:
    return "jt";
  case BcOp::JumpIfFalse:
    return "jf";
  case BcOp::Halt:
    return "halt";
  case BcOp::MovI:
    return "mov.i";
  case BcOp::MovF:
    return "mov.f";
  case BcOp::MovB:
    return "mov.b";
  case BcOp::CheckDef:
    return "chkdef";
  case BcOp::SetDef:
    return "setdef";
  case BcOp::CheckArr:
    return "chkarr";
  case BcOp::AddI:
    return "add.i";
  case BcOp::SubI:
    return "sub.i";
  case BcOp::MulI:
    return "mul.i";
  case BcOp::DivI:
    return "div.i";
  case BcOp::ModI:
    return "mod.i";
  case BcOp::MinI:
    return "min.i";
  case BcOp::MaxI:
    return "max.i";
  case BcOp::LtI:
    return "lt.i";
  case BcOp::LeI:
    return "le.i";
  case BcOp::EqI:
    return "eq.i";
  case BcOp::NeI:
    return "ne.i";
  case BcOp::AddF:
    return "add.f";
  case BcOp::SubF:
    return "sub.f";
  case BcOp::MulF:
    return "mul.f";
  case BcOp::DivF:
    return "div.f";
  case BcOp::MinF:
    return "min.f";
  case BcOp::LtF:
    return "lt.f";
  case BcOp::NotB:
    return "not.b";
  case BcOp::BoolToI:
    return "b2i";
  case BcOp::I64ToF:
    return "i2f";
  case BcOp::CallOp:
    return "call";
  case BcOp::LoadI:
    return "ld.i";
  case BcOp::LoadF:
    return "ld.f";
  case BcOp::LoadB:
    return "ld.b";
  case BcOp::StoreI:
    return "st.i";
  case BcOp::StoreF:
    return "st.f";
  case BcOp::StoreB:
    return "st.b";
  case BcOp::AllocI:
    return "alloc.i";
  case BcOp::AllocF:
    return "alloc.f";
  case BcOp::AllocB:
    return "alloc.b";
  }
  ETCH_UNREACHABLE("unknown BcOp");
}

namespace {

/// Operand-type classes used only for rendering.
enum class FileTag { I, F, B };

const std::string &regName(const BytecodeProgram &P, FileTag F, int32_t R) {
  switch (F) {
  case FileTag::I:
    return P.RegNamesI[static_cast<size_t>(R)];
  case FileTag::F:
    return P.RegNamesF[static_cast<size_t>(R)];
  case FileTag::B:
    return P.RegNamesB[static_cast<size_t>(R)];
  }
  ETCH_UNREACHABLE("unknown file");
}

std::string arrName(const BytecodeProgram &P, ImpType Elem, int32_t Slot) {
  for (const BcArray &A : P.Arrays)
    if (A.Elem == Elem && A.Slot == Slot)
      return A.Name;
  return "<arr?>";
}

FileTag tagOf(ImpType T) {
  switch (T) {
  case ImpType::I64:
    return FileTag::I;
  case ImpType::F64:
    return FileTag::F;
  case ImpType::Bool:
    return FileTag::B;
  }
  ETCH_UNREACHABLE("unknown ImpType");
}

} // namespace

std::string BytecodeProgram::disassemble() const {
  std::string Out;
  char Buf[64];
  auto Line = [&](size_t Pc, const std::string &Body) {
    std::snprintf(Buf, sizeof(Buf), "%4zu: ", Pc);
    Out += Buf;
    Out += Body;
    Out += '\n';
  };
  auto R = [&](FileTag F, int32_t Reg) { return regName(*this, F, Reg); };
  for (size_t Pc = 0; Pc < Code.size(); ++Pc) {
    const BcInstr &I = Code[Pc];
    std::string M = bcOpName(I.Op);
    switch (I.Op) {
    case BcOp::AddSteps:
      Line(Pc, M + " " + std::to_string(I.A));
      break;
    case BcOp::Jump:
      Line(Pc, M + " @" + std::to_string(I.A));
      break;
    case BcOp::JumpIfTrue:
    case BcOp::JumpIfFalse:
      Line(Pc, M + " " + R(FileTag::B, I.A) + ", @" + std::to_string(I.B));
      break;
    case BcOp::Halt:
      Line(Pc, M);
      break;
    case BcOp::MovI:
      Line(Pc, M + " " + R(FileTag::I, I.A) + ", " + R(FileTag::I, I.B));
      break;
    case BcOp::MovF:
      Line(Pc, M + " " + R(FileTag::F, I.A) + ", " + R(FileTag::F, I.B));
      break;
    case BcOp::MovB:
      Line(Pc, M + " " + R(FileTag::B, I.A) + ", " + R(FileTag::B, I.B));
      break;
    case BcOp::CheckDef:
    case BcOp::SetDef:
      Line(Pc, M + " " + Scalars[static_cast<size_t>(I.A)].Name);
      break;
    case BcOp::CheckArr:
      Line(Pc, M + " " + Arrays[static_cast<size_t>(I.A)].Name +
                   (I.B ? ", store" : ", access"));
      break;
    case BcOp::AddI:
    case BcOp::SubI:
    case BcOp::MulI:
    case BcOp::DivI:
    case BcOp::ModI:
    case BcOp::MinI:
    case BcOp::MaxI:
      Line(Pc, M + " " + R(FileTag::I, I.A) + ", " + R(FileTag::I, I.B) +
                   ", " + R(FileTag::I, I.C));
      break;
    case BcOp::LtI:
    case BcOp::LeI:
    case BcOp::EqI:
    case BcOp::NeI:
      Line(Pc, M + " " + R(FileTag::B, I.A) + ", " + R(FileTag::I, I.B) +
                   ", " + R(FileTag::I, I.C));
      break;
    case BcOp::AddF:
    case BcOp::SubF:
    case BcOp::MulF:
    case BcOp::DivF:
    case BcOp::MinF:
      Line(Pc, M + " " + R(FileTag::F, I.A) + ", " + R(FileTag::F, I.B) +
                   ", " + R(FileTag::F, I.C));
      break;
    case BcOp::LtF:
      Line(Pc, M + " " + R(FileTag::B, I.A) + ", " + R(FileTag::F, I.B) +
                   ", " + R(FileTag::F, I.C));
      break;
    case BcOp::NotB:
      Line(Pc, M + " " + R(FileTag::B, I.A) + ", " + R(FileTag::B, I.B));
      break;
    case BcOp::BoolToI:
      Line(Pc, M + " " + R(FileTag::I, I.A) + ", " + R(FileTag::B, I.B));
      break;
    case BcOp::I64ToF:
      Line(Pc, M + " " + R(FileTag::F, I.A) + ", " + R(FileTag::I, I.B));
      break;
    case BcOp::CallOp: {
      const BcCall &C = Calls[static_cast<size_t>(I.A)];
      std::string Body = M + " " + R(tagOf(C.Op->Result), C.Dst) + ", " +
                         C.Op->Name + "(";
      for (size_t K = 0; K < C.Args.size(); ++K) {
        if (K)
          Body += ", ";
        Body += R(tagOf(C.Args[K].first), C.Args[K].second);
      }
      Body += ")";
      Line(Pc, Body);
      break;
    }
    case BcOp::LoadI:
      Line(Pc, M + " " + R(FileTag::I, I.A) + ", " +
                   arrName(*this, ImpType::I64, I.B) + "[" +
                   R(FileTag::I, I.C) + "]");
      break;
    case BcOp::LoadF:
      Line(Pc, M + " " + R(FileTag::F, I.A) + ", " +
                   arrName(*this, ImpType::F64, I.B) + "[" +
                   R(FileTag::I, I.C) + "]");
      break;
    case BcOp::LoadB:
      Line(Pc, M + " " + R(FileTag::B, I.A) + ", " +
                   arrName(*this, ImpType::Bool, I.B) + "[" +
                   R(FileTag::I, I.C) + "]");
      break;
    case BcOp::StoreI:
      Line(Pc, M + " " + arrName(*this, ImpType::I64, I.A) + "[" +
                   R(FileTag::I, I.B) + "], " + R(FileTag::I, I.C));
      break;
    case BcOp::StoreF:
      Line(Pc, M + " " + arrName(*this, ImpType::F64, I.A) + "[" +
                   R(FileTag::I, I.B) + "], " + R(FileTag::F, I.C));
      break;
    case BcOp::StoreB:
      Line(Pc, M + " " + arrName(*this, ImpType::Bool, I.A) + "[" +
                   R(FileTag::I, I.B) + "], " + R(FileTag::B, I.C));
      break;
    case BcOp::AllocI:
    case BcOp::AllocF:
    case BcOp::AllocB:
      Line(Pc, M + " " + Arrays[static_cast<size_t>(I.C)].Name + ", " +
                   R(FileTag::I, I.B));
      break;
    }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Execution
//===----------------------------------------------------------------------===//

namespace {

/// Cold-path message for a failed array bounds check: an unbound slot is
/// empty, so the check also catches accesses of undefined arrays — the
/// defined bit picks the tree VM's message.
std::string boundsError(const BytecodeProgram &BC,
                        const std::vector<uint8_t> &ADef, ImpType Elem,
                        int32_t Slot, int64_t Index, size_t Size,
                        bool IsStore) {
  for (size_t Id = 0; Id < BC.Arrays.size(); ++Id) {
    const BcArray &A = BC.Arrays[Id];
    if (A.Elem != Elem || A.Slot != Slot)
      continue;
    if (!ADef[Id])
      return std::string(IsStore ? "store to" : "access of") +
             " undefined array '" + A.Name + "'";
    return std::string(IsStore ? "out-of-bounds store "
                               : "out-of-bounds access ") +
           A.Name + "[" + std::to_string(Index) + "], size " +
           std::to_string(Size);
  }
  ETCH_UNREACHABLE("bounds error on an unknown array slot");
}

} // namespace

VmRunResult etch::bytecodeRun(const BytecodeProgram &BC, VmMemory &Memory,
                              int64_t MaxSteps) {
  VmRunResult R;
  if (!BC.ok()) {
    R.Error = "bytecode compile error: " + BC.CompileError;
    return R;
  }

  // Frame setup: typed register files seeded with the constant image,
  // typed array files, and the defined bits.
  std::vector<int64_t> RI = BC.InitI;
  std::vector<double> RF = BC.InitF;
  std::vector<uint8_t> RB = BC.InitB;
  std::vector<std::vector<int64_t>> AI(BC.NumArrI);
  std::vector<std::vector<double>> AF(BC.NumArrF);
  std::vector<std::vector<uint8_t>> AB(BC.NumArrB);
  std::vector<uint8_t> SDef(BC.Scalars.size(), 0);
  std::vector<uint8_t> ADef(BC.Arrays.size(), 0);

  // Load inputs. A name bound in memory at a type other than the
  // program's static type has no defined meaning in the tree VM either
  // (its interpreter would throw on the first typed use); report it
  // instead of crashing.
  for (size_t Id = 0; Id < BC.Scalars.size(); ++Id) {
    const BcScalar &S = BC.Scalars[Id];
    auto V = Memory.getScalar(S.Name);
    if (!V)
      continue;
    if (impTypeOf(*V) != S.Ty) {
      R.Error = "scalar '" + S.Name + "' is bound as " +
                impTypeName(impTypeOf(*V)) + " but used as " +
                impTypeName(S.Ty);
      return R;
    }
    switch (S.Ty) {
    case ImpType::I64:
      RI[static_cast<size_t>(S.Reg)] = std::get<int64_t>(*V);
      break;
    case ImpType::F64:
      RF[static_cast<size_t>(S.Reg)] = std::get<double>(*V);
      break;
    case ImpType::Bool:
      RB[static_cast<size_t>(S.Reg)] = std::get<bool>(*V) ? 1 : 0;
      break;
    }
    SDef[Id] = 1;
  }
  for (size_t Id = 0; Id < BC.Arrays.size(); ++Id) {
    const BcArray &A = BC.Arrays[Id];
    const std::vector<ImpValue> *Src = Memory.getArray(A.Name);
    if (!Src)
      continue;
    for (const ImpValue &V : *Src)
      if (impTypeOf(V) != A.Elem) {
        R.Error = "array '" + A.Name + "' holds a " +
                  impTypeName(impTypeOf(V)) + " element but is used as " +
                  impTypeName(A.Elem);
        return R;
      }
    switch (A.Elem) {
    case ImpType::I64: {
      auto &D = AI[static_cast<size_t>(A.Slot)];
      D.reserve(Src->size());
      for (const ImpValue &V : *Src)
        D.push_back(std::get<int64_t>(V));
      break;
    }
    case ImpType::F64: {
      auto &D = AF[static_cast<size_t>(A.Slot)];
      D.reserve(Src->size());
      for (const ImpValue &V : *Src)
        D.push_back(std::get<double>(V));
      break;
    }
    case ImpType::Bool: {
      auto &D = AB[static_cast<size_t>(A.Slot)];
      D.reserve(Src->size());
      for (const ImpValue &V : *Src)
        D.push_back(std::get<bool>(V) ? 1 : 0);
      break;
    }
    }
    ADef[Id] = 1;
  }

  // The dispatch loop. With GCC/Clang each handler jumps directly to the
  // next handler through a label table (threaded dispatch); elsewhere a
  // switch in a loop decodes the same opcodes.
  const BcInstr *Code = BC.Code.data();
  const BcInstr *In = Code;
  int64_t StepsLeft = MaxSteps;
  std::string Err;
  std::vector<ImpValue> CallArgs;

#if defined(__GNUC__) || defined(__clang__)
#define ETCH_BC_THREADED 1
#endif

#ifdef ETCH_BC_THREADED
  static const void *const Lbl[] = {
#define ETCH_BC_LBL(Name) &&lbl_##Name,
      ETCH_BC_OPS(ETCH_BC_LBL)
#undef ETCH_BC_LBL
  };
#define ETCH_BC_CASE(Name) lbl_##Name
#define ETCH_BC_NEXT()                                                        \
  goto *Lbl[static_cast<size_t>(In->Op)]
  ETCH_BC_NEXT();
#else
#define ETCH_BC_CASE(Name) case BcOp::Name
#define ETCH_BC_NEXT() continue
  for (;;)
    switch (In->Op) {
#endif

  ETCH_BC_CASE(AddSteps) : {
    StepsLeft -= In->A;
    if (StepsLeft < 0) {
      // The tree VM fails on the charge that crosses zero, leaving
      // StepsLeft at exactly -1 (Steps = MaxSteps + 1).
      StepsLeft = -1;
      Err = "step budget exhausted (possible non-termination)";
      goto done;
    }
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(Jump) : {
    In = Code + In->A;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(JumpIfTrue) : {
    In = RB[static_cast<size_t>(In->A)] ? Code + In->B : In + 1;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(JumpIfFalse) : {
    In = RB[static_cast<size_t>(In->A)] ? In + 1 : Code + In->B;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(Halt) : { goto done; }
  ETCH_BC_CASE(MovI) : {
    RI[static_cast<size_t>(In->A)] = RI[static_cast<size_t>(In->B)];
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(MovF) : {
    RF[static_cast<size_t>(In->A)] = RF[static_cast<size_t>(In->B)];
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(MovB) : {
    RB[static_cast<size_t>(In->A)] = RB[static_cast<size_t>(In->B)];
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(CheckDef) : {
    if (!SDef[static_cast<size_t>(In->A)]) {
      Err = "read of undefined variable '" +
            BC.Scalars[static_cast<size_t>(In->A)].Name + "'";
      goto done;
    }
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(SetDef) : {
    SDef[static_cast<size_t>(In->A)] = 1;
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(CheckArr) : {
    if (!ADef[static_cast<size_t>(In->A)]) {
      Err = std::string(In->B ? "store to" : "access of") +
            " undefined array '" +
            BC.Arrays[static_cast<size_t>(In->A)].Name + "'";
      goto done;
    }
    ++In;
    ETCH_BC_NEXT();
  }

#define ETCH_BC_BIN(Name, File, Lhs, Expr)                                    \
  ETCH_BC_CASE(Name) : {                                                      \
    const auto &Ba = Lhs[static_cast<size_t>(In->B)];                         \
    const auto &Ca = Lhs[static_cast<size_t>(In->C)];                         \
    File[static_cast<size_t>(In->A)] = (Expr);                                \
    ++In;                                                                     \
    ETCH_BC_NEXT();                                                           \
  }

  ETCH_BC_BIN(AddI, RI, RI, Ba + Ca)
  ETCH_BC_BIN(SubI, RI, RI, Ba - Ca)
  ETCH_BC_BIN(MulI, RI, RI, Ba *Ca)
  // Division and modulo by zero (and INT64_MIN / -1) are UB in the IR
  // semantics — OpDef::Spec computes them with C++ operators too.
  ETCH_BC_BIN(DivI, RI, RI, Ba / Ca)
  ETCH_BC_BIN(ModI, RI, RI, Ba % Ca)
  ETCH_BC_BIN(MinI, RI, RI, Ba < Ca ? Ba : Ca)
  ETCH_BC_BIN(MaxI, RI, RI, Ba > Ca ? Ba : Ca)
  ETCH_BC_BIN(LtI, RB, RI, Ba < Ca)
  ETCH_BC_BIN(LeI, RB, RI, Ba <= Ca)
  ETCH_BC_BIN(EqI, RB, RI, Ba == Ca)
  ETCH_BC_BIN(NeI, RB, RI, Ba != Ca)
  ETCH_BC_BIN(AddF, RF, RF, Ba + Ca)
  ETCH_BC_BIN(SubF, RF, RF, Ba - Ca)
  ETCH_BC_BIN(MulF, RF, RF, Ba *Ca)
  ETCH_BC_BIN(DivF, RF, RF, Ba / Ca)
  ETCH_BC_BIN(MinF, RF, RF, Ba < Ca ? Ba : Ca)
  ETCH_BC_BIN(LtF, RB, RF, Ba < Ca)
#undef ETCH_BC_BIN

  ETCH_BC_CASE(NotB) : {
    RB[static_cast<size_t>(In->A)] =
        RB[static_cast<size_t>(In->B)] ? 0 : 1;
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(BoolToI) : {
    RI[static_cast<size_t>(In->A)] = RB[static_cast<size_t>(In->B)] ? 1 : 0;
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(I64ToF) : {
    RF[static_cast<size_t>(In->A)] =
        static_cast<double>(RI[static_cast<size_t>(In->B)]);
    ++In;
    ETCH_BC_NEXT();
  }
  ETCH_BC_CASE(CallOp) : {
    const BcCall &C = BC.Calls[static_cast<size_t>(In->A)];
    CallArgs.clear();
    for (const auto &[T, Reg] : C.Args)
      switch (T) {
      case ImpType::I64:
        CallArgs.emplace_back(RI[static_cast<size_t>(Reg)]);
        break;
      case ImpType::F64:
        CallArgs.emplace_back(RF[static_cast<size_t>(Reg)]);
        break;
      case ImpType::Bool:
        CallArgs.emplace_back(RB[static_cast<size_t>(Reg)] != 0);
        break;
      }
    ImpValue V = C.Op->Spec(CallArgs);
    switch (C.Op->Result) {
    case ImpType::I64:
      RI[static_cast<size_t>(C.Dst)] = std::get<int64_t>(V);
      break;
    case ImpType::F64:
      RF[static_cast<size_t>(C.Dst)] = std::get<double>(V);
      break;
    case ImpType::Bool:
      RB[static_cast<size_t>(C.Dst)] = std::get<bool>(V) ? 1 : 0;
      break;
    }
    ++In;
    ETCH_BC_NEXT();
  }

#define ETCH_BC_LOAD(Name, File, Arrs, Ty)                                    \
  ETCH_BC_CASE(Name) : {                                                      \
    const auto &Arr = Arrs[static_cast<size_t>(In->B)];                       \
    int64_t Ix = RI[static_cast<size_t>(In->C)];                              \
    if (static_cast<uint64_t>(Ix) >= Arr.size()) {                            \
      Err = boundsError(BC, ADef, Ty, In->B, Ix, Arr.size(), false);          \
      goto done;                                                              \
    }                                                                         \
    File[static_cast<size_t>(In->A)] = Arr[static_cast<size_t>(Ix)];          \
    ++In;                                                                     \
    ETCH_BC_NEXT();                                                           \
  }
  ETCH_BC_LOAD(LoadI, RI, AI, ImpType::I64)
  ETCH_BC_LOAD(LoadF, RF, AF, ImpType::F64)
  ETCH_BC_LOAD(LoadB, RB, AB, ImpType::Bool)
#undef ETCH_BC_LOAD

#define ETCH_BC_STORE(Name, File, Arrs, Ty)                                   \
  ETCH_BC_CASE(Name) : {                                                      \
    auto &Arr = Arrs[static_cast<size_t>(In->A)];                             \
    int64_t Ix = RI[static_cast<size_t>(In->B)];                              \
    if (static_cast<uint64_t>(Ix) >= Arr.size()) {                            \
      Err = boundsError(BC, ADef, Ty, In->A, Ix, Arr.size(), true);           \
      goto done;                                                              \
    }                                                                         \
    Arr[static_cast<size_t>(Ix)] = File[static_cast<size_t>(In->C)];          \
    ++In;                                                                     \
    ETCH_BC_NEXT();                                                           \
  }
  ETCH_BC_STORE(StoreI, RI, AI, ImpType::I64)
  ETCH_BC_STORE(StoreF, RF, AF, ImpType::F64)
  ETCH_BC_STORE(StoreB, RB, AB, ImpType::Bool)
#undef ETCH_BC_STORE

#define ETCH_BC_ALLOC(OpName, Arrs, Zero)                                     \
  ETCH_BC_CASE(OpName) : {                                                    \
    int64_t N = RI[static_cast<size_t>(In->B)];                               \
    if (N < 0) {                                                              \
      Err = "negative array size for '" +                                     \
            BC.Arrays[static_cast<size_t>(In->C)].Name + "'";                 \
      goto done;                                                              \
    }                                                                         \
    Arrs[static_cast<size_t>(In->A)].assign(static_cast<size_t>(N), Zero);    \
    ADef[static_cast<size_t>(In->C)] = 1;                                     \
    ++In;                                                                     \
    ETCH_BC_NEXT();                                                           \
  }
  ETCH_BC_ALLOC(AllocI, AI, int64_t{0})
  ETCH_BC_ALLOC(AllocF, AF, 0.0)
  ETCH_BC_ALLOC(AllocB, AB, uint8_t{0})
#undef ETCH_BC_ALLOC

#ifndef ETCH_BC_THREADED
    } // switch
#endif
#undef ETCH_BC_CASE
#undef ETCH_BC_NEXT

done:
  R.Steps = MaxSteps - StepsLeft;
  if (!Err.empty()) {
    R.Error = std::move(Err);
    return R; // On error, memory is untouched (see the header).
  }

  // Success: mirror the tree VM's final memory for every name the program
  // defined. Read-only inputs are bit-identical already and stay as-is.
  for (size_t Id = 0; Id < BC.Scalars.size(); ++Id) {
    const BcScalar &S = BC.Scalars[Id];
    if (!S.WrittenBack || !SDef[Id])
      continue;
    switch (S.Ty) {
    case ImpType::I64:
      Memory.setScalar(S.Name, RI[static_cast<size_t>(S.Reg)]);
      break;
    case ImpType::F64:
      Memory.setScalar(S.Name, RF[static_cast<size_t>(S.Reg)]);
      break;
    case ImpType::Bool:
      Memory.setScalar(S.Name, RB[static_cast<size_t>(S.Reg)] != 0);
      break;
    }
  }
  for (size_t Id = 0; Id < BC.Arrays.size(); ++Id) {
    const BcArray &A = BC.Arrays[Id];
    if (!A.WrittenBack || !ADef[Id])
      continue;
    std::vector<ImpValue> Out;
    switch (A.Elem) {
    case ImpType::I64: {
      const auto &D = AI[static_cast<size_t>(A.Slot)];
      Out.reserve(D.size());
      for (int64_t V : D)
        Out.emplace_back(V);
      break;
    }
    case ImpType::F64: {
      const auto &D = AF[static_cast<size_t>(A.Slot)];
      Out.reserve(D.size());
      for (double V : D)
        Out.emplace_back(V);
      break;
    }
    case ImpType::Bool: {
      const auto &D = AB[static_cast<size_t>(A.Slot)];
      Out.reserve(D.size());
      for (uint8_t V : D)
        Out.emplace_back(V != 0);
      break;
    }
    }
    Memory.setArray(A.Name, std::move(Out));
  }
  return R;
}

VmRunResult etch::bytecodeCompileAndRun(const PRef &Program, VmMemory &Memory,
                                        int64_t MaxSteps) {
  return bytecodeRun(compileBytecode(Program), Memory, MaxSteps);
}
