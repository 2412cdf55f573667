//===- compiler/c_emit.h - Emitting P programs as C ------------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The final lowering of the Etch pipeline (Figure 1): `P` maps directly to
/// C, in two packagings.
///
/// `emitCStatements` renders a program body; `emitCProgram` wraps it in a
/// free-standing translation unit with the input arrays baked in as static
/// initialisers and the requested outputs printed to stdout — the form used
/// by the golden tests, which compile the result with the system C compiler
/// and compare against the VM and the denotational oracle.
///
/// `emitCKernel` instead renders the program as a *callable kernel*: an
/// `extern "C"` function taking pointers to the typed scalar/array memory
/// through a fixed context struct (EtchJitAbi below), with nothing baked
/// in, so the same compiled object serves any inputs. The kernel preserves
/// the tree VM's observable semantics: every array access and store is
/// bounds-checked and every read the definitely-defined analysis
/// (compiler/defined.h) cannot prove defined is guarded, with the exact
/// error text the tree VM produces, and (optionally) the same
/// per-statement step accounting. This is the unit the JIT backend
/// (compiler/jit.h) compiles with the system C compiler and dlopens.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_COMPILER_C_EMIT_H
#define ETCH_COMPILER_C_EMIT_H

#include "compiler/imp.h"
#include "compiler/vm.h"

#include <optional>
#include <string>
#include <vector>

namespace etch {

/// Renders \p Body as C statements at the given indent level.
std::string emitCStatements(const PRef &Body, int Indent = 1);

/// Specification of what a generated program prints when it finishes.
struct COutputSpec {
  std::vector<std::string> Scalars; ///< Printed as "name=value".
  /// (name, length) pairs printed as "name[i]=value" lines.
  std::vector<std::pair<std::string, int64_t>> Arrays;
};

/// Renders a complete C translation unit: includes, any custom-op preludes
/// found in \p Body, the arrays of \p Inputs baked as static data, main()
/// running \p Body, and printf lines for \p Outputs.
std::string emitCProgram(const PRef &Body, const VmMemory &Inputs,
                         const COutputSpec &Outputs);

//===----------------------------------------------------------------------===//
// Callable kernels (the JIT backend's unit of compilation)
//===----------------------------------------------------------------------===//

/// The kernel ABI version. Rendered into every kernel as the exported
/// `etch_jit_abi` symbol and folded into the content-address, so a cached
/// object from an older layout can never be dispatched against the current
/// context struct. Bump when EtchJitCtx (see c_emit.cpp / jit.cpp) changes.
inline constexpr int32_t EtchJitAbi = 1;

/// The exported entry point of every kernel.
inline constexpr const char *EtchJitEntrySymbol = "etch_kernel_main";

/// Host-side mirror of the `etch_jit_ctx` struct every kernel is compiled
/// against (emitCKernel renders the C twin textually; both are standard
/// layout with identical member types/order, so they match under the
/// platform ABI). Slot indices are manifest positions. Array element
/// buffers are typed per the manifest, with Bool stored as uint8_t.
struct EtchJitCtx {
  // Inputs (host-owned; arr_data buffers may be written by the kernel, so
  // the host passes private copies of written-back arrays).
  void *const *arr_data;
  const int64_t *arr_len;
  const uint8_t *arr_def;
  const int64_t *sc_i;
  const double *sc_f;
  const uint8_t *sc_b;
  const uint8_t *sc_def;
  int64_t steps_budget;
  // Outputs. err/steps_used are always valid after a call; the out_*
  // slots only on success (return 0). out_arr_owned marks kernel-calloc'd
  // buffers the host must free().
  int64_t steps_used;
  void **out_arr_data;
  int64_t *out_arr_len;
  uint8_t *out_arr_def;
  uint8_t *out_arr_owned;
  int64_t *out_sc_i;
  double *out_sc_f;
  uint8_t *out_sc_b;
  uint8_t *out_sc_def;
  char err[512];
};

/// Signature of the dlsym'd kernel entry point: 0 = success, nonzero =
/// error (text in ctx->err).
using EtchJitEntryFn = int32_t (*)(EtchJitCtx *);

/// One named scalar of a kernel's interface. `WrittenBack` marks scalars
/// the program defines (DeclVar/StoreVar); their final values are surfaced
/// through the context's output slots, mirroring bytecodeRun's write-back.
struct CKernelScalar {
  std::string Name;
  ImpType Ty;
  bool WrittenBack;
};

/// One named array of a kernel's interface. Input arrays are host-owned
/// buffers; arrays the program declares (DeclArr) are kernel-allocated and
/// handed back through the output slots with an ownership flag.
struct CKernelArray {
  std::string Name;
  ImpType Elem;
  bool WrittenBack; ///< Declared or stored-to by the program.
};

/// A kernel's complete interface, in a deterministic (name-sorted) order.
/// Index in these vectors == slot index in the context struct's arrays.
struct CKernelManifest {
  std::vector<CKernelScalar> Scalars;
  std::vector<CKernelArray> Arrays;

  int scalarIndex(const std::string &Name) const;
  int arrayIndex(const std::string &Name) const;
};

/// Derives the interface of \p Body: every scalar and array name with its
/// static type and write-back flag. Returns nullopt (with a diagnostic in
/// \p Err) when the program lies outside the statically-typed fragment —
/// one name used at two types — which the IR verifier rules out for
/// compiler output; callers degrade to the bytecode VM.
std::optional<CKernelManifest> deriveKernelManifest(const PRef &Body,
                                                    std::string *Err = nullptr);

/// Emission options for `emitCKernel`.
struct CKernelOptions {
  /// Charge steps exactly like the tree VM (one per statement execution and
  /// per while-iteration check) against the context's budget, reporting
  /// consumption and the VM's "step budget exhausted" error. Off by default:
  /// production kernels skip the counter so the C optimizer can vectorize.
  bool CountSteps = false;
  /// When >= 2 (and steps are not counted), every `while (i < n)` loop
  /// whose bound is loop-invariant — the shape of a dense tail — is
  /// emitted blocked: an outer loop re-evaluates the full condition (and
  /// its definedness guards) once per block of this many iterations, and
  /// a counted inner loop runs the body against a precomputed block end.
  /// The state sequence is identical for *any* body, because the inner
  /// bound is min(i + tile, n) and the outer loop rechecks `i < n`, so
  /// this is observable-behavior-preserving, not a heuristic. The planner
  /// (planner/indexing.h) passes its chosen tile through
  /// JitOptions::TileDenseTails.
  int64_t TileDenseTails = 0;
};

/// Renders \p Body as a self-contained kernel translation unit against
/// \p M (which must come from deriveKernelManifest on the same body).
/// Expression evaluation is linearized into temporaries so evaluation
/// order, short-circuiting, and error precedence match the tree VM's
/// interpreter exactly.
std::string emitCKernel(const PRef &Body, const CKernelManifest &M,
                        const CKernelOptions &Opts = {});

} // namespace etch

#endif // ETCH_COMPILER_C_EMIT_H
