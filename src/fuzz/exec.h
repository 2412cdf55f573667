//===- fuzz/exec.h - The differential executor matrix ----------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one fuzz case through the semantics the repo implements and
/// reports divergences against the denotational oracle (`evalT`). Each
/// semantics is a *leg*, one row of the registry in fuzz/legs.h, selected
/// by name (`etch-fuzz --legs`):
///
///   - `streams`: runtime streams per search policy, serial and parallel
///     drivers ("stream/<policy>/...");
///   - `tree`, `bytecode`, `native`: the compiled program at O0/O1/O2 on
///     the tree VM, the bytecode VM and step-counting JIT kernels
///     ("vm/O<k>", "bvm/O<k>", "nvm/O<k>"); with `tree` selected the other
///     two must match it in steps, error text and output bits
///     ("tree-vs-bvm/O<k>", "tree-vs-nvm/O<k>");
///   - `formats`: sparse vectors re-bound hashed / compressed / dense
///     ("hstream/...", "hvm/O<k>", "hashed-vs-compressed/O<k>", ...);
///   - `tiles`: JIT kernels with blocked dense tails ("tiles/...");
///   - `delta`: the delta-rewrite identity per tensor ("delta/...") and a
///     seed-driven serve-stack scenario per selected executor
///     ("delta-driver/...", ivm/deltafuzz.h).
///
/// A case that fails `fuzzValidate` is reported as invalid, never a
/// divergence — the executor refuses to run it rather than trip lowering
/// asserts, so hand-edited corpus files degrade gracefully.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FUZZ_EXEC_H
#define ETCH_FUZZ_EXEC_H

#include "fuzz/fuzzcase.h"
#include "support/threadpool.h"

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

namespace etch {

/// One semantics leg disagreeing with the oracle.
struct FuzzDivergence {
  std::string Leg;    ///< e.g. "stream/gallop/psum3", "vm/O2"
  std::string Detail; ///< expected vs got, capped human-readable dump
};

/// The outcome of running one case through the executor matrix.
struct FuzzReport {
  bool Invalid = false;        ///< case failed fuzzValidate (not a bug)
  std::string ValidationError; ///< why, when Invalid
  std::vector<FuzzDivergence> Divs;

  /// True when the case ran and every leg agreed.
  bool ok() const { return !Invalid && Divs.empty(); }
  /// True when at least one leg diverged (invalid cases are not failures).
  bool failing() const { return !Divs.empty(); }

  std::string toString() const;
};

/// The registry's legs (fuzz/legs.h has one row per value, in this order).
enum class FuzzLeg : uint8_t {
  Streams, Tree, Bytecode, Native, Formats, Tiles, Delta
};

/// A selection of legs.
class FuzzLegSet {
public:
  constexpr FuzzLegSet() = default;
  constexpr FuzzLegSet(std::initializer_list<FuzzLeg> Legs) {
    for (FuzzLeg L : Legs)
      add(L);
  }
  /// `streams,tree,bytecode`: what `etch-fuzz` runs without `--legs`.
  static constexpr FuzzLegSet defaults() {
    return {FuzzLeg::Streams, FuzzLeg::Tree, FuzzLeg::Bytecode};
  }
  constexpr void add(FuzzLeg L) { Bits |= bit(L); }
  constexpr bool has(FuzzLeg L) const { return Bits & bit(L); }
  constexpr bool empty() const { return Bits == 0; }

private:
  static constexpr uint32_t bit(FuzzLeg L) { return 1u << unsigned(L); }
  uint32_t Bits = 0;
};

/// Parses a comma-separated list of leg names ("streams,tree,native").
/// Returns nullopt with a diagnostic on an unknown or empty name.
std::optional<FuzzLegSet> parseFuzzLegs(const std::string &List,
                                        std::string *Err = nullptr);

/// The selected legs' names, comma-joined in registry order.
std::string fuzzLegNames(FuzzLegSet Legs);

/// True when a selected leg runs JIT kernels, i.e. needs a C toolchain.
bool fuzzLegsNeedToolchain(FuzzLegSet Legs);

/// Runs the case legs of \p Legs on \p C, using \p Pool for the parallel
/// stream legs.
FuzzReport runFuzzCase(const FuzzCase &C, ThreadPool &Pool,
                       FuzzLegSet Legs = FuzzLegSet::defaults());

/// Convenience overload using a lazily constructed shared pool.
FuzzReport runFuzzCase(const FuzzCase &C,
                       FuzzLegSet Legs = FuzzLegSet::defaults());

/// Runs the seed-driven legs of \p Legs: scenarios that generate their
/// own inputs from \p Seed instead of consuming a case, so there is
/// nothing to shrink. Legs without a scenario contribute nothing.
FuzzReport runFuzzSeed(uint64_t Seed, FuzzLegSet Legs);

/// The oracle's fully contracted total for \p C, both as exact text and as
/// a double (for the f64 tolerance). Used by the order sweep
/// (fuzz/reorder.h) to check cross-order agreement. Nullopt if the case is
/// invalid.
struct FuzzTotal {
  std::string Text;
  double Num = 0.0;
};
std::optional<FuzzTotal> fuzzOracleTotal(const FuzzCase &C);

} // namespace etch

#endif // ETCH_FUZZ_EXEC_H
