//===- compiler/passes.cpp - Verifier and pass pipeline over P -----------===//

#include "compiler/passes.h"

#include "compiler/defined.h"
#include "compiler/ops.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_set>

using namespace etch;

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

namespace {

/// Walks a program in execution order, checking types and name discipline.
/// Names never declared in-program are externals (caller-provided inputs
/// and outputs) and may be used freely, but still must be type-consistent.
class Verifier {
public:
  explicit Verifier(const PRef &Program) {
    forEachStmtNode(Program, [&](const PStmt &S) {
      if (S.kind() == PKind::DeclVar)
        DeclaredScalars.insert(S.name());
      else if (S.kind() == PKind::DeclArr)
        DeclaredArrays.insert(S.name());
    });
  }

  std::optional<std::string> run(const PRef &Program) {
    checkStmt(*Program);
    if (Error.empty())
      return std::nullopt;
    return Error;
  }

private:
  void fail(const std::string &Msg) {
    if (Error.empty())
      Error = Msg;
  }

  void noteScalar(const std::string &Name, ImpType Ty) {
    if (ArrayTypes.count(Name)) {
      fail("name '" + Name + "' used both as scalar and as array");
      return;
    }
    auto [It, Inserted] = ScalarTypes.emplace(Name, Ty);
    if (!Inserted && It->second != Ty)
      fail("scalar '" + Name + "' used at both " +
           impTypeName(It->second) + " and " + impTypeName(Ty));
  }

  void noteArray(const std::string &Name, ImpType Elem) {
    if (ScalarTypes.count(Name)) {
      fail("name '" + Name + "' used both as scalar and as array");
      return;
    }
    auto [It, Inserted] = ArrayTypes.emplace(Name, Elem);
    if (!Inserted && It->second != Elem)
      fail("array '" + Name + "' used at both element types " +
           impTypeName(It->second) + " and " + impTypeName(Elem));
  }

  /// Names the program declares must be definitely defined at every use;
  /// externals are the caller's business.
  void checkDeclOrder(const std::string &Name, bool IsArray,
                      const char *Use) {
    if (IsArray ? DeclaredArrays.count(Name) && !Defs.array(Name)
                : DeclaredScalars.count(Name) && !Defs.scalar(Name))
      fail(std::string(Use) + " of '" + Name +
           "' before a dominating declaration");
  }

  void checkExpr(const EExpr &E) {
    if (!Error.empty())
      return;
    switch (E.kind()) {
    case EKind::Const:
      if (impTypeOf(E.constant()) != E.type())
        fail("constant carries a payload of the wrong type");
      return;
    case EKind::Var:
      noteScalar(E.name(), E.type());
      checkDeclOrder(E.name(), /*IsArray=*/false, "read");
      return;
    case EKind::Access:
      noteArray(E.name(), E.type());
      checkDeclOrder(E.name(), /*IsArray=*/true, "read");
      if (E.args().size() != 1 || E.args()[0]->type() != ImpType::I64) {
        fail("array access of '" + E.name() + "' without an i64 index");
        return;
      }
      checkExpr(*E.args()[0]);
      return;
    case EKind::Call: {
      const OpDef *Op = E.op();
      if (!Op) {
        fail("call with a null op");
        return;
      }
      if (E.type() != Op->Result) {
        fail("call to '" + Op->Name + "' typed " +
             impTypeName(E.type()) + ", op returns " +
             impTypeName(Op->Result));
        return;
      }
      if (E.args().size() != Op->ArgTypes.size()) {
        fail("call to '" + Op->Name + "' with wrong arity");
        return;
      }
      for (size_t I = 0; I < E.args().size(); ++I) {
        // Select's value arguments must match its result type; every other
        // argument matches the declared signature exactly.
        ImpType Want = (Op->Lazy == OpDef::Laziness::Select && I > 0)
                           ? Op->Result
                           : Op->ArgTypes[I];
        if (E.args()[I]->type() != Want) {
          fail("argument " + std::to_string(I) + " of '" + Op->Name +
               "' has type " + impTypeName(E.args()[I]->type()) +
               ", expected " + impTypeName(Want));
          return;
        }
        checkExpr(*E.args()[I]);
      }
      return;
    }
    }
    ETCH_UNREACHABLE("unknown EKind");
  }

  void checkStmt(const PStmt &P) {
    if (!Error.empty())
      return;
    switch (P.kind()) {
    case PKind::Seq:
      for (const PRef &C : P.children())
        checkStmt(*C);
      return;
    case PKind::While: {
      if (P.cond()->type() != ImpType::Bool) {
        fail("while condition is not boolean");
        return;
      }
      checkExpr(*P.cond());
      Defs.loopBody([&] { checkStmt(*P.children()[0]); });
      return;
    }
    case PKind::Branch: {
      if (P.cond()->type() != ImpType::Bool) {
        fail("branch condition is not boolean");
        return;
      }
      checkExpr(*P.cond());
      Defs.branch([&] { checkStmt(*P.children()[0]); },
                  [&] { checkStmt(*P.children()[1]); });
      return;
    }
    case PKind::Noop:
    case PKind::Comment:
      return;
    case PKind::StoreVar:
      checkExpr(*P.valueExpr());
      noteScalar(P.name(), P.valueExpr()->type());
      checkDeclOrder(P.name(), /*IsArray=*/false, "store");
      Defs.define(P);
      return;
    case PKind::StoreArr:
      if (P.indexExpr()->type() != ImpType::I64) {
        fail("array store to '" + P.name() + "' without an i64 index");
        return;
      }
      checkExpr(*P.indexExpr());
      checkExpr(*P.valueExpr());
      noteArray(P.name(), P.valueExpr()->type());
      checkDeclOrder(P.name(), /*IsArray=*/true, "store");
      return;
    case PKind::DeclVar:
      checkExpr(*P.valueExpr());
      if (P.valueExpr()->type() != P.type()) {
        fail("declaration of '" + P.name() + "' (" +
             impTypeName(P.type()) + ") with a " +
             impTypeName(P.valueExpr()->type()) + " initialiser");
        return;
      }
      noteScalar(P.name(), P.type());
      Defs.define(P);
      return;
    case PKind::DeclArr:
      if (P.valueExpr()->type() != ImpType::I64) {
        fail("declaration of array '" + P.name() + "' with a non-i64 size");
        return;
      }
      checkExpr(*P.valueExpr());
      noteArray(P.name(), P.type());
      Defs.define(P);
      return;
    }
    ETCH_UNREACHABLE("unknown PKind");
  }

  std::set<std::string> DeclaredScalars, DeclaredArrays;
  DefinedSet Defs;
  std::map<std::string, ImpType> ScalarTypes, ArrayTypes;
  std::string Error;
};

} // namespace

std::optional<std::string> etch::verifyProgram(const PRef &Program) {
  ETCH_ASSERT(Program, "null program");
  return Verifier(Program).run(Program);
}

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

namespace {

const ImpValue *constOf(const ERef &E) {
  return E->kind() == EKind::Const ? &E->constant() : nullptr;
}

bool isConstI(const ERef &E, int64_t V) {
  const ImpValue *C = constOf(E);
  if (!C)
    return false;
  const auto *I = std::get_if<int64_t>(C);
  return I && *I == V;
}

bool isConstF(const ERef &E, double V) {
  const ImpValue *C = constOf(E);
  if (!C)
    return false;
  const auto *D = std::get_if<double>(C);
  return D && *D == V;
}

ERef foldCall(const ERef &E) {
  if (E->kind() != EKind::Call)
    return nullptr;
  const OpDef *Op = E->op();
  const auto &Args = E->args();
  switch (Op->Lazy) {
  case OpDef::Laziness::AndAlso:
    if (const ImpValue *C = constOf(Args[0]))
      return std::get<bool>(*C) ? Args[1] : eBool(false);
    return nullptr;
  case OpDef::Laziness::OrElse:
    if (const ImpValue *C = constOf(Args[0]))
      return std::get<bool>(*C) ? eBool(true) : Args[1];
    return nullptr;
  case OpDef::Laziness::Select:
    if (const ImpValue *C = constOf(Args[0]))
      return Args[std::get<bool>(*C) ? 1 : 2];
    return nullptr;
  case OpDef::Laziness::Eager: {
    std::vector<ImpValue> Vals;
    Vals.reserve(Args.size());
    for (const ERef &A : Args) {
      const ImpValue *C = constOf(A);
      if (!C)
        return nullptr;
      Vals.push_back(*C);
    }
    if (Op->FoldSafe && !Op->FoldSafe(Vals))
      return nullptr;
    ImpValue R = Op->Spec(Vals);
    ETCH_ASSERT(impTypeOf(R) == Op->Result,
                "op spec produced a value of the wrong type");
    return EExpr::constant(R);
  }
  }
  ETCH_UNREACHABLE("unknown laziness");
}

} // namespace

PRef etch::foldConstantsPass(const PRef &P) {
  return rewriteProgram(P, nullptr, foldCall);
}

//===----------------------------------------------------------------------===//
// Algebraic simplification
//===----------------------------------------------------------------------===//

namespace {

/// One round of identity/annihilator rules at a single node; null = no rule
/// applied.
ERef simplifyOnce(const ERef &E) {
  if (E->kind() != EKind::Call)
    return nullptr;
  const OpDef *Op = E->op();
  const auto &A = E->args();

  // x + 0 / 0 + x (i64 and f64; +0.0 is an identity up to the sign of
  // zero, which compares equal).
  if (Op == Ops::addI()) {
    if (isConstI(A[0], 0))
      return A[1];
    if (isConstI(A[1], 0))
      return A[0];
  }
  if (Op == Ops::addF()) {
    if (isConstF(A[0], 0.0))
      return A[1];
    if (isConstF(A[1], 0.0))
      return A[0];
  }
  if (Op == Ops::subI() && isConstI(A[1], 0))
    return A[0];

  // x * 1, x * 0 (annihilation only at i64 — 0.0 * x is not an f64
  // identity in the presence of NaN/Inf).
  if (Op == Ops::mulI()) {
    if (isConstI(A[0], 1))
      return A[1];
    if (isConstI(A[1], 1))
      return A[0];
    if (isConstI(A[0], 0) || isConstI(A[1], 0))
      return eConstI(0);
  }
  if (Op == Ops::mulF()) {
    if (isConstF(A[0], 1.0))
      return A[1];
    if (isConstF(A[1], 1.0))
      return A[0];
  }

  // Lazy booleans with a constant second argument (constant first
  // arguments fold in foldConstantsPass). Dropping the pure left operand
  // only makes the program more defined.
  if (Op == Ops::andB()) {
    if (const ImpValue *C = constOf(A[1]))
      return std::get<bool>(*C) ? A[0] : eBool(false);
    if (exprEquals(A[0], A[1]))
      return A[0];
  }
  if (Op == Ops::orB()) {
    if (const ImpValue *C = constOf(A[1]))
      return std::get<bool>(*C) ? eBool(true) : A[0];
    if (exprEquals(A[0], A[1]))
      return A[0];
  }
  if (Op == Ops::notB()) {
    if (const ImpValue *C = constOf(A[0]))
      return eBool(!std::get<bool>(*C));
    if (A[0]->kind() == EKind::Call && A[0]->op() == Ops::notB())
      return A[0]->args()[0];
  }

  // select(c, x, x) = x.
  if (Op->Lazy == OpDef::Laziness::Select && exprEquals(A[1], A[2]))
    return A[1];

  // Reflexive comparisons and idempotent min/max.
  if (A.size() == 2 && exprEquals(A[0], A[1])) {
    if (Op == Ops::eqI() || Op == Ops::leI())
      return eBool(true);
    if (Op == Ops::neI() || Op == Ops::ltI())
      return eBool(false);
    if (Op == Ops::minI() || Op == Ops::maxI() || Op == Ops::minF())
      return A[0];
  }

  // max(x, x + c) = x + c and min(x, x + c) = x for small constant c >= 0:
  // the shape the dense-level skip takes after forward substitution (c is 0
  // or 1 there). The rewrite assumes x + c does not wrap; i64 overflow is
  // undefined in the IR (see the addI Spec in ops.cpp), but we still cap c
  // so near-extreme constants from hand-built or randomized programs keep
  // their unsimplified, VM-evaluated form.
  auto PlusConst = [](const ERef &X, const ERef &Sum) -> const ImpValue * {
    if (Sum->kind() != EKind::Call || Sum->op() != Ops::addI())
      return nullptr;
    if (!exprEquals(Sum->args()[0], X))
      return nullptr;
    return constOf(Sum->args()[1]);
  };
  if (Op == Ops::maxI() || Op == Ops::minI()) {
    for (int Flip = 0; Flip < 2; ++Flip) {
      const ERef &X = A[static_cast<size_t>(Flip)];
      const ERef &S = A[static_cast<size_t>(1 - Flip)];
      if (const ImpValue *C = PlusConst(X, S)) {
        int64_t CV = std::get<int64_t>(*C);
        if (CV >= 0 && CV <= 4096)
          return Op == Ops::maxI() ? S : X;
      }
    }
  }

  // min/max against the i64 extremes (the exhausted-side sentinel of
  // stream addition).
  if (Op == Ops::minI()) {
    if (isConstI(A[1], std::numeric_limits<int64_t>::max()))
      return A[0];
    if (isConstI(A[0], std::numeric_limits<int64_t>::max()))
      return A[1];
  }
  if (Op == Ops::maxI()) {
    if (isConstI(A[1], std::numeric_limits<int64_t>::max()) ||
        isConstI(A[0], std::numeric_limits<int64_t>::max()))
      return eI64Max();
  }
  return nullptr;
}

} // namespace

PRef etch::simplifyAlgebraPass(const PRef &P) {
  return rewriteProgram(P, nullptr, [](const ERef &E) -> ERef {
    ERef Cur = E;
    for (int Round = 0; Round < 4; ++Round) {
      ERef N = simplifyOnce(Cur);
      if (!N)
        break;
      Cur = std::move(N);
    }
    return Cur == E ? nullptr : Cur;
  });
}

//===----------------------------------------------------------------------===//
// Control-flow cleanup
//===----------------------------------------------------------------------===//

PRef etch::cleanControlFlowPass(const PRef &P) {
  return rewriteProgram(P, [](const PRef &S) -> PRef {
    switch (S->kind()) {
    case PKind::While:
      if (S->cond()->kind() == EKind::Const &&
          !std::get<bool>(S->cond()->constant()))
        return PStmt::noop();
      return nullptr;
    case PKind::Branch: {
      if (S->cond()->kind() == EKind::Const)
        return S->children()[std::get<bool>(S->cond()->constant()) ? 0 : 1];
      if (S->children()[0]->kind() == PKind::Noop &&
          S->children()[1]->kind() == PKind::Noop)
        return PStmt::noop(); // The condition is pure; nothing happens.
      return nullptr;
    }
    case PKind::StoreVar:
      // x = x.
      if (S->valueExpr()->kind() == EKind::Var &&
          S->valueExpr()->name() == S->name())
        return PStmt::noop();
      return nullptr;
    default:
      return nullptr;
    }
  });
}

//===----------------------------------------------------------------------===//
// Dead-store elimination
//===----------------------------------------------------------------------===//

PRef etch::eliminateDeadStoresPass(const PRef &P,
                                   const PipelineOptions &Opts) {
  PRef Cur = P;
  for (int Round = 0; Round < 16; ++Round) {
    std::set<std::string> DeclScalars, DeclArrays;
    forEachStmtNode(Cur, [&](const PStmt &S) {
      if (S.kind() == PKind::DeclVar)
        DeclScalars.insert(S.name());
      else if (S.kind() == PKind::DeclArr)
        DeclArrays.insert(S.name());
    });
    ReadSet Reads;
    forEachProgramExpr(Cur, [&](const ERef &E) { collectExprReads(E, Reads); });

    auto DeadScalar = [&](const std::string &N) {
      return DeclScalars.count(N) && !Reads.Scalars.count(N) &&
             !Opts.LiveOut.count(N);
    };
    auto DeadArray = [&](const std::string &N) {
      return DeclArrays.count(N) && !Reads.Arrays.count(N) &&
             !Opts.LiveOut.count(N);
    };

    PRef Next = rewriteProgram(Cur, [&](const PRef &S) -> PRef {
      switch (S->kind()) {
      case PKind::DeclVar:
      case PKind::StoreVar:
        return DeadScalar(S->name()) ? PStmt::noop() : nullptr;
      case PKind::DeclArr:
      case PKind::StoreArr:
        return DeadArray(S->name()) ? PStmt::noop() : nullptr;
      default:
        return nullptr;
      }
    });
    if (Next == Cur)
      break;
    Cur = std::move(Next);
  }
  return Cur;
}

//===----------------------------------------------------------------------===//
// Forward substitution of single-use temporaries
//===----------------------------------------------------------------------===//

namespace {

size_t countVarReads(const ERef &E, const std::string &Name) {
  size_t N = 0;
  forEachExprNode(E, [&](const EExpr &X) {
    if (X.kind() == EKind::Var && X.name() == Name)
      ++N;
  });
  return N;
}

size_t countStmtVarReads(const PRef &S, const std::string &Name) {
  size_t N = 0;
  if (S->cond())
    N += countVarReads(S->cond(), Name);
  if (S->indexExpr())
    N += countVarReads(S->indexExpr(), Name);
  if (S->valueExpr())
    N += countVarReads(S->valueExpr(), Name);
  return N;
}

PRef forwardSubstituteOnce(const PRef &P, const PipelineOptions &Opts,
                           bool &Changed) {
  // Global usage counts: a temporary is substitutable only when its single
  // read in the whole program sits in the store immediately following its
  // declaration.
  std::map<std::string, size_t> ReadCount, StoreCount, DeclCount;
  forEachProgramExpr(P, [&](const ERef &E) {
    forEachExprNode(E, [&](const EExpr &X) {
      if (X.kind() == EKind::Var)
        ++ReadCount[X.name()];
    });
  });
  forEachStmtNode(P, [&](const PStmt &S) {
    if (S.kind() == PKind::StoreVar)
      ++StoreCount[S.name()];
    else if (S.kind() == PKind::DeclVar)
      ++DeclCount[S.name()];
  });

  return rewriteProgram(P, [&](const PRef &S) -> PRef {
    if (S->kind() != PKind::Seq)
      return nullptr;
    std::vector<PRef> NewCh;
    NewCh.reserve(S->children().size());
    bool Local = false;
    const auto &Ch = S->children();
    for (size_t I = 0; I < Ch.size(); ++I) {
      const PRef &D = Ch[I];
      if (D->kind() == PKind::DeclVar && I + 1 < Ch.size()) {
        const std::string &T = D->name();
        const PRef &Next = Ch[I + 1];
        bool NextIsStore = Next->kind() == PKind::StoreVar ||
                           Next->kind() == PKind::StoreArr ||
                           Next->kind() == PKind::DeclVar;
        if (NextIsStore && Next->name() != T && !Opts.LiveOut.count(T) &&
            DeclCount[T] == 1 && StoreCount[T] == 0 && ReadCount[T] == 1 &&
            countStmtVarReads(Next, T) == 1 &&
            countVarReads(D->valueExpr(), T) == 0) {
          // The consuming statement evaluates its expressions entirely in
          // the declaration's state (they are adjacent and evaluation
          // precedes the single write), so inlining preserves the value.
          const ERef &Repl = D->valueExpr();
          auto Sub = [&](const ERef &E) { return substituteVar(E, T, Repl); };
          PRef NewNext;
          switch (Next->kind()) {
          case PKind::StoreVar:
            NewNext = PStmt::storeVar(Next->name(), Sub(Next->valueExpr()));
            break;
          case PKind::StoreArr:
            NewNext = PStmt::storeArr(Next->name(), Sub(Next->indexExpr()),
                                      Sub(Next->valueExpr()));
            break;
          case PKind::DeclVar:
            NewNext = PStmt::declVar(Next->name(), Next->type(),
                                     Sub(Next->valueExpr()));
            break;
          default:
            ETCH_UNREACHABLE("unexpected consumer kind");
          }
          NewCh.push_back(std::move(NewNext));
          ++I; // Skip the consumed store; the declaration is dropped.
          Local = Changed = true;
          continue;
        }
      }
      NewCh.push_back(D);
    }
    return Local ? PStmt::seq(std::move(NewCh)) : nullptr;
  });
}

} // namespace

PRef etch::forwardSubstitutePass(const PRef &P, const PipelineOptions &Opts) {
  PRef Cur = P;
  for (int Round = 0; Round < 8; ++Round) {
    bool Changed = false;
    Cur = forwardSubstituteOnce(Cur, Opts, Changed);
    if (!Changed)
      break;
  }
  return Cur;
}

//===----------------------------------------------------------------------===//
// Implied-condition elimination
//===----------------------------------------------------------------------===//

namespace {

struct Fact {
  ERef E;
  ReadSet Reads;
};

void invalidateFacts(std::vector<Fact> &Facts, const WriteSet &WS) {
  Facts.erase(std::remove_if(Facts.begin(), Facts.end(),
                             [&](const Fact &F) {
                               return !exprInvariantUnder(F.E, WS);
                             }),
              Facts.end());
}

void addConjunctFacts(std::vector<Fact> &Facts, const ERef &Cond) {
  std::vector<ERef> Conj;
  flattenConjuncts(Cond, Conj);
  for (const ERef &C : Conj) {
    Fact F{C, {}};
    collectExprReads(C, F.Reads);
    Facts.push_back(std::move(F));
  }
}

/// Removes conjuncts of \p Cond that structurally match a fact. A dropped
/// conjunct is implied true, so later conjuncts are evaluated exactly when
/// they were before (no guarded evaluation is exposed).
ERef dropImplied(const ERef &Cond, const std::vector<Fact> &Facts,
                 const WriteSet *MustAlsoSurvive) {
  std::vector<ERef> Conj;
  flattenConjuncts(Cond, Conj);
  std::vector<ERef> Kept;
  bool Dropped = false;
  for (const ERef &C : Conj) {
    bool Implied = false;
    for (const Fact &F : Facts) {
      if (!exprEquals(F.E, C))
        continue;
      // For loop conditions the fact must stay true across iterations.
      if (MustAlsoSurvive && !exprInvariantUnder(C, *MustAlsoSurvive))
        continue;
      Implied = true;
      break;
    }
    if (Implied)
      Dropped = true;
    else
      Kept.push_back(C);
  }
  if (!Dropped)
    return Cond;
  return buildConjunction(Kept);
}

PRef impliedCondRec(const PRef &P, std::vector<Fact> Facts) {
  switch (P->kind()) {
  case PKind::Seq: {
    std::vector<PRef> NewCh;
    NewCh.reserve(P->children().size());
    bool Changed = false;
    for (const PRef &C : P->children()) {
      PRef NC = impliedCondRec(C, Facts);
      Changed |= NC != C;
      WriteSet WS;
      collectStmtWrites(NC, WS);
      invalidateFacts(Facts, WS);
      NewCh.push_back(std::move(NC));
    }
    return Changed ? PStmt::seq(std::move(NewCh)) : P;
  }
  case PKind::While: {
    const PRef &Body = P->children()[0];
    WriteSet BodyW;
    collectStmtWrites(Body, BodyW);
    // A fact may simplify the loop condition only if the body cannot
    // invalidate it (the condition is re-evaluated every iteration).
    ERef NewCond = dropImplied(P->cond(), Facts, &BodyW);
    // Inside the body: surviving outer facts plus the (original) loop
    // condition, freshly established at each iteration's entry.
    std::vector<Fact> BodyFacts;
    for (const Fact &F : Facts)
      if (exprInvariantUnder(F.E, BodyW))
        BodyFacts.push_back(F);
    addConjunctFacts(BodyFacts, P->cond());
    PRef NewBody = impliedCondRec(Body, std::move(BodyFacts));
    if (NewCond == P->cond() && NewBody == Body)
      return P;
    return PStmt::whileLoop(std::move(NewCond), std::move(NewBody));
  }
  case PKind::Branch: {
    ERef NewCond = dropImplied(P->cond(), Facts, nullptr);
    std::vector<Fact> ThenFacts = Facts;
    addConjunctFacts(ThenFacts, P->cond());
    PRef NT = impliedCondRec(P->children()[0], std::move(ThenFacts));
    PRef NE = impliedCondRec(P->children()[1], std::move(Facts));
    if (NewCond == P->cond() && NT == P->children()[0] &&
        NE == P->children()[1])
      return P;
    return PStmt::branch(std::move(NewCond), std::move(NT), std::move(NE));
  }
  default:
    return P;
  }
}

} // namespace

PRef etch::eliminateImpliedConditionsPass(const PRef &P) {
  return impliedCondRec(P, {});
}

//===----------------------------------------------------------------------===//
// Loop-invariant hoisting
//===----------------------------------------------------------------------===//

namespace {

/// Built-in eager operations whose Spec is total (never traps) on any
/// well-typed arguments. Division and modulo trap on zero; lazy ops exist
/// to guard evaluation and are never hoisted.
bool isTotalOp(const OpDef *Op) {
  static const std::unordered_set<const OpDef *> Total = {
      Ops::addI(), Ops::subI(), Ops::mulI(), Ops::minI(), Ops::maxI(),
      Ops::ltI(),  Ops::leI(),  Ops::eqI(),  Ops::neI(),  Ops::addF(),
      Ops::subF(), Ops::mulF(), Ops::divF(), Ops::minF(), Ops::ltF(),
      Ops::notB(), Ops::boolToI(), Ops::i64ToF()};
  return Total.count(Op) != 0;
}

bool containsVarOrAccess(const ERef &E) {
  bool Found = false;
  forEachExprNode(E, [&](const EExpr &N) {
    if (N.kind() == EKind::Var || N.kind() == EKind::Access)
      Found = true;
  });
  return Found;
}

/// True when evaluating \p E at the loop entry described by \p Defs cannot
/// fail: the definedness analysis finds no array access and no read of a
/// possibly-undefined name, and every op is a total eager one.
bool isTotalExpr(const ERef &E, const DefinedSet &Defs) {
  bool Total = !Defs.canError(*E);
  forEachExprNode(E, [&](const EExpr &N) {
    if (N.kind() == EKind::Call && !isTotalOp(N.op()))
      Total = false;
  });
  return Total;
}

/// Collects maximal hoistable subtrees of \p E into \p Out (deduplicated
/// structurally). \p FromCond permits array accesses and any op, but only
/// on the unconditionally-evaluated spine of the loop condition: that
/// spine is evaluated at least once, immediately after the hoist point, so
/// the hoisted evaluation replaces the first in-loop one exactly. The
/// lazily-guarded positions of a condition (the second argument of
/// andB/orB, either arm of select) may never run — `A[j] == v` in
/// `while (i < n && A[j] == v)` must not be evaluated when `i >= n`
/// initially — so recursion into them drops FromCond and falls back to the
/// cannot-fail isTotalExpr rule.
void collectCandidates(const ERef &E, const WriteSet &BodyW, bool FromCond,
                       const DefinedSet &Defs, std::vector<ERef> &Out) {
  bool Hoistable = (E->kind() == EKind::Call || E->kind() == EKind::Access) &&
                   containsVarOrAccess(E) && exprInvariantUnder(E, BodyW) &&
                   (FromCond || isTotalExpr(E, Defs));
  if (Hoistable) {
    for (const ERef &Seen : Out)
      if (exprEquals(Seen, E))
        return;
    Out.push_back(E);
    return;
  }
  bool IsLazy = E->kind() == EKind::Call &&
                E->op()->Lazy != OpDef::Laziness::Eager;
  const auto &Args = E->args();
  for (size_t I = 0; I < Args.size(); ++I) {
    bool ArgFromCond = FromCond && !(IsLazy && I > 0);
    collectCandidates(Args[I], BodyW, ArgFromCond, Defs, Out);
  }
}

/// State threaded through one hoisting run: every name the program
/// mentions anywhere (declarations, stores, reads, array accesses —
/// including caller-bound externals, which a fresh declaration must never
/// shadow), plus a per-run counter so emitted names are deterministic
/// across compilations.
struct HoistNames {
  std::set<std::string> Used;
  int Counter = 0;

  std::string fresh() {
    std::string Name;
    do {
      Name = "liv" + std::to_string(Counter++);
    } while (Used.count(Name));
    Used.insert(Name);
    return Name;
  }
};

PRef hoistRec(const PRef &P, DefinedSet &Defs, HoistNames &Names) {
  switch (P->kind()) {
  case PKind::Seq: {
    std::vector<PRef> NewCh;
    NewCh.reserve(P->children().size());
    bool Changed = false;
    for (const PRef &C : P->children()) {
      PRef NC = hoistRec(C, Defs, Names);
      Changed |= NC != C;
      Defs.define(*C);
      NewCh.push_back(std::move(NC));
    }
    return Changed ? PStmt::seq(std::move(NewCh)) : P;
  }
  case PKind::Branch: {
    PRef NT, NE;
    Defs.branch([&] { NT = hoistRec(P->children()[0], Defs, Names); },
                [&] { NE = hoistRec(P->children()[1], Defs, Names); });
    if (NT == P->children()[0] && NE == P->children()[1])
      return P;
    return PStmt::branch(P->cond(), std::move(NT), std::move(NE));
  }
  case PKind::While: {
    PRef Body;
    Defs.loopBody([&] { Body = hoistRec(P->children()[0], Defs, Names); });
    WriteSet BodyW;
    collectStmtWrites(Body, BodyW);

    std::vector<ERef> Cands;
    collectCandidates(P->cond(), BodyW, /*FromCond=*/true, Defs, Cands);
    forEachProgramExpr(Body, [&](const ERef &E) {
      collectCandidates(E, BodyW, /*FromCond=*/false, Defs, Cands);
    });
    if (Cands.empty())
      return Body == P->children()[0] ? P
                                      : PStmt::whileLoop(P->cond(), Body);

    std::vector<PRef> Out;
    ERef Cond = P->cond();
    for (const ERef &Cand : Cands) {
      std::string Name = Names.fresh();
      Out.push_back(PStmt::declVar(Name, Cand->type(), Cand));
      ERef Temp = EExpr::var(Name, Cand->type());
      auto ReplaceNode = [&](const ERef &N) -> ERef {
        return exprEquals(N, Cand) ? Temp : nullptr;
      };
      // The body may reuse condition subexpressions (and vice versa), so
      // replace everywhere.
      Cond = rewriteExpr(Cond, ReplaceNode);
      Body = rewriteProgram(Body, nullptr, ReplaceNode);
    }
    Out.push_back(PStmt::whileLoop(std::move(Cond), std::move(Body)));
    return PStmt::seq(std::move(Out));
  }
  default:
    return P;
  }
}

} // namespace

PRef etch::hoistLoopInvariantsPass(const PRef &P) {
  WriteSet Writes;
  collectStmtWrites(P, Writes);
  ReadSet Reads;
  forEachProgramExpr(P, [&](const ERef &E) { collectExprReads(E, Reads); });
  HoistNames Names;
  for (const auto *Set :
       {&Writes.Scalars, &Writes.Arrays, &Reads.Scalars, &Reads.Arrays})
    Names.Used.insert(Set->begin(), Set->end());
  DefinedSet Defs;
  return hoistRec(P, Defs, Names);
}

//===----------------------------------------------------------------------===//
// Pass manager
//===----------------------------------------------------------------------===//

std::string PipelineResult::toString() const {
  std::string Out = "pass                      stmts          exprs\n";
  char Buf[128];
  for (const PassStats &S : Stats) {
    std::snprintf(Buf, sizeof(Buf), "%-22s %5zu -> %-5zu %5zu -> %-5zu\n",
                  S.Name.c_str(), S.StmtsBefore, S.StmtsAfter, S.ExprsBefore,
                  S.ExprsAfter);
    Out += Buf;
  }
  if (!Stats.empty()) {
    std::snprintf(Buf, sizeof(Buf), "%-22s %5zu -> %-5zu %5zu -> %-5zu\n",
                  "total", Stats.front().StmtsBefore, Stats.back().StmtsAfter,
                  Stats.front().ExprsBefore, Stats.back().ExprsAfter);
    Out += Buf;
  }
  return Out;
}

PassManager PassManager::standard(int OptLevel) {
  PassManager PM;
  if (OptLevel <= 0)
    return PM;
  auto Simple = [](PRef (*Fn)(const PRef &)) {
    return [Fn](const PRef &P, const PipelineOptions &) { return Fn(P); };
  };
  PM.addPass("fold-constants", Simple(foldConstantsPass));
  PM.addPass("simplify-algebra", Simple(simplifyAlgebraPass));
  PM.addPass("clean-cfg", Simple(cleanControlFlowPass));
  PM.addPass("forward-subst", forwardSubstitutePass);
  // Substitution exposes max(i, i + 1)-style patterns and fresh constant
  // operands; run the expression passes once more.
  PM.addPass("simplify-algebra#2", Simple(simplifyAlgebraPass));
  PM.addPass("fold-constants#2", Simple(foldConstantsPass));
  PM.addPass("dse", eliminateDeadStoresPass);
  PM.addPass("clean-cfg#2", Simple(cleanControlFlowPass));
  if (OptLevel >= 2) {
    PM.addPass("implied-cond", Simple(eliminateImpliedConditionsPass));
    PM.addPass("simplify-algebra#3", Simple(simplifyAlgebraPass));
    PM.addPass("clean-cfg#3", Simple(cleanControlFlowPass));
    PM.addPass("licm", Simple(hoistLoopInvariantsPass));
  }
  return PM;
}

PipelineResult PassManager::run(const PRef &Program,
                                const PipelineOptions &Opts) const {
  ETCH_ASSERT(Program, "null program");
  PipelineResult R;
  R.Program = Program;

  auto Check = [&](const std::string &Where) {
    if (!Opts.Verify)
      return;
    if (auto Err = verifyProgram(R.Program)) {
      std::string Msg = "IR verifier failed " + Where + ": " + *Err;
      etch::fatalError(__FILE__, __LINE__, Msg.c_str());
    }
  };

  Check("on pipeline input");
  for (const Pass &P : Passes) {
    PassStats S;
    S.Name = P.Name;
    S.StmtsBefore = countStmtNodes(R.Program);
    S.ExprsBefore = countExprNodes(R.Program);
    R.Program = P.Fn(R.Program, Opts);
    ETCH_ASSERT(R.Program, "pass returned a null program");
    S.StmtsAfter = countStmtNodes(R.Program);
    S.ExprsAfter = countExprNodes(R.Program);
    R.Stats.push_back(std::move(S));
    Check("after pass '" + P.Name + "'");
  }
  return R;
}

PipelineResult etch::optimizeProgram(const PRef &Program,
                                     const PipelineOptions &Opts) {
  return PassManager::standard(Opts.OptLevel).run(Program, Opts);
}
