//===- compiler/passes.h - Verifier and pass pipeline over P ----*- C++-*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pass-pipeline architecture over the target IR: a verifier, a
/// PassManager with named passes and per-pass IR statistics, and a suite of
/// optimization passes (constant folding through the OpDef::Spec
/// interpreters, algebraic simplification, control-flow cleanup, dead-store
/// elimination, forward substitution of single-use temporaries, implied-
/// condition elimination, and hoisting of loop-invariant subexpressions).
///
/// The paper's Etch compiler relies on exactly this kind of simplification
/// of the generated imperative code — the `next()` fast path of
/// streams/stream.h is "the specialisation of `skip(index, true)` the
/// generated code enjoys after constant folding". Compiled programs flow
/// through `optimizeProgram` (see frontend.cpp) before reaching the VM and
/// the C emitter; every pass must preserve VM semantics on succeeding
/// programs, and the test suite checks this differentially against the
/// denotational oracle at every opt level.
///
/// Passes may only make programs *more* defined: dropping the evaluation of
/// a pure expression (dead store, short-circuit fold) can remove a runtime
/// error (e.g. an out-of-bounds read) but never introduce one or change the
/// result of a program that succeeded unoptimized.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_COMPILER_PASSES_H
#define ETCH_COMPILER_PASSES_H

#include "compiler/rewrite.h"

#include <optional>

namespace etch {

//===----------------------------------------------------------------------===//
// Verifier
//===----------------------------------------------------------------------===//

/// Structural and type checks over a `P` program:
///   - every expression is well-typed against its OpDef (arity, argument
///     and result types; select's branches match its result type);
///   - loop and branch conditions have type Bool, array indices and sizes
///     have type I64;
///   - every name is used consistently (never both scalar and array, one
///     type per name across declarations, stores, and reads);
///   - a name declared by the program is not stored or read before a
///     dominating declaration: declarations inside one branch arm do not
///     license uses in the other arm or after the branch (unless both arms
///     declare), and declarations inside a loop body do not license uses
///     after the loop (it may run zero times) — the definitely-defined
///     analysis of compiler/defined.h. Names the program never declares
///     are treated as externals bound by the caller (input tensors,
///     caller-declared outputs) and are not checked.
///
/// Returns nullopt on success, a diagnostic otherwise. The PassManager runs
/// this between every pass when PipelineOptions::Verify is set.
std::optional<std::string> verifyProgram(const PRef &Program);

//===----------------------------------------------------------------------===//
// Pass manager
//===----------------------------------------------------------------------===//

/// Per-pass IR statistics: node counts before/after one pass execution.
struct PassStats {
  std::string Name;
  size_t StmtsBefore = 0;
  size_t StmtsAfter = 0;
  size_t ExprsBefore = 0;
  size_t ExprsAfter = 0;

  bool changed() const {
    return StmtsBefore != StmtsAfter || ExprsBefore != ExprsAfter;
  }
};

/// Options threaded through a pipeline run.
struct PipelineOptions {
  /// 0 = no optimization (verify only), 1 = the standard step-reducing
  /// suite, 2 = additionally implied-condition elimination and
  /// loop-invariant hoisting (expression-level wins for emitted C).
  int OptLevel = 1;

  /// Run the verifier before the first pass and after every pass; a
  /// verifier failure aborts (ETCH_ASSERT) naming the offending pass.
  bool Verify = true;

  /// Names the caller observes after execution (output scalars/arrays).
  /// Dead-store elimination removes stores only to names the program
  /// itself declares that are never read and not listed here; names never
  /// declared in-program are always preserved (they live in caller
  /// memory). Callers optimizing a program that declares its own outputs
  /// must list them.
  std::set<std::string> LiveOut;
};

/// The outcome of a pipeline run: the rewritten program plus one PassStats
/// row per executed pass.
struct PipelineResult {
  PRef Program;
  std::vector<PassStats> Stats;

  /// Renders the statistics as an aligned table (for quickstart/debugging).
  std::string toString() const;
};

/// An ordered list of named passes over `P`.
class PassManager {
public:
  using PassFn = std::function<PRef(const PRef &, const PipelineOptions &)>;

  void addPass(std::string Name, PassFn Fn) {
    Passes.push_back({std::move(Name), std::move(Fn)});
  }

  /// The standard pipeline at \p OptLevel (empty at level 0).
  static PassManager standard(int OptLevel);

  /// Runs every pass in order, collecting statistics and (optionally)
  /// verifying between passes.
  PipelineResult run(const PRef &Program, const PipelineOptions &Opts) const;

private:
  struct Pass {
    std::string Name;
    PassFn Fn;
  };
  std::vector<Pass> Passes;
};

/// Convenience: runs the standard pipeline at Opts.OptLevel.
PipelineResult optimizeProgram(const PRef &Program,
                               const PipelineOptions &Opts = {});

//===----------------------------------------------------------------------===//
// Individual passes (exported for unit tests)
//===----------------------------------------------------------------------===//

/// Evaluates calls whose arguments are all constants through OpDef::Spec
/// (respecting OpDef::FoldSafe, e.g. division by zero stays unfolded), and
/// short-circuits lazy ops with a constant first argument.
PRef foldConstantsPass(const PRef &P);

/// Identity/annihilator rewrites over the registered ops: x+0, x*1, x*0
/// (integer/bool only — 0.0*x is not an f64 identity under NaN/Inf),
/// true&&e, e&&false, not(not e), select with equal branches, reflexive
/// comparisons, min/max idempotence, and max(x, x+c).
PRef simplifyAlgebraPass(const PRef &P);

/// Statement-level cleanup: branches and loops on constant conditions,
/// branches with two empty arms, self-assignments, and no-op sequence
/// normalisation.
PRef cleanControlFlowPass(const PRef &P);

/// Removes declarations of, and stores to, names the program declares but
/// never reads (and that are not in \p Opts.LiveOut), iterating to a fixed
/// point so dead chains disappear.
PRef eliminateDeadStoresPass(const PRef &P, const PipelineOptions &Opts);

/// Inlines `t = e; x = f(t)` into `x = f(e)` when t is a single-use
/// temporary: declared once, never re-stored, read only by the immediately
/// following store, whose evaluation happens entirely in the declaration's
/// state, and not listed in \p Opts.LiveOut (a live-out temporary's
/// declaration must survive for the caller to read). This is what turns
/// the dense-level `skip(i, true)` latch into the paper's `i = i + 1` fast
/// path.
PRef forwardSubstitutePass(const PRef &P, const PipelineOptions &Opts = {});

/// Drops conjuncts of branch/loop conditions that are implied by dominating
/// conditions still valid at the evaluation point (tracking write sets to
/// invalidate facts). E.g. inside `while (a && b)`, an immediate
/// `if (a && b && c)` becomes `if (c)`; a masked stream's
/// `while (emit && p < e)` loses `emit` when the body never writes what
/// `emit` reads.
PRef eliminateImpliedConditionsPass(const PRef &P);

/// Hoists loop-invariant subexpressions out of `while` statements into
/// fresh temporaries: any invariant non-trivial subexpression on the
/// unconditionally-evaluated spine of the loop condition (that spine runs
/// at least once, so hoisting is safe — but subexpressions under a lazy
/// guard, like the right operand of `&&`, may never run and are held to
/// the stricter body rule), and total invariant subexpressions of the body
/// (no array accesses, no trapping or lazy ops, every variable definitely
/// defined at loop entry per compiler/defined.h, where an external is
/// undefined until stored — evaluation cannot fail, so executing it when
/// the body would not have run is safe).
PRef hoistLoopInvariantsPass(const PRef &P);

} // namespace etch

#endif // ETCH_COMPILER_PASSES_H
