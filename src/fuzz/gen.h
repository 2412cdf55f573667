//===- fuzz/gen.h - Seeded generation of random fuzz cases -----*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The case generator: from a 64-bit seed, a well-typed contraction
/// expression (Var/Add/Mul/Sum/Expand/Rename, up to ~4 operator levels and
/// 4 stream levels) over randomly materialized input tensors, in one of two
/// modes:
///
///   - normal (~90%): small extents (0..8), every format, every operator;
///     entry counts span empty / sparse / dense / skewed supports and
///     values include explicit semiring zeros.
///   - huge (~10%): adversarial extents near `1 << 62` and the `Idx`
///     maximum with coordinates clustered at both ends — sparse-only
///     formats and no expansion, aimed at skip/search/partition arithmetic
///     (overflow, saturation) rather than value coverage.
///
/// Generation is typed by construction: every production tracks the level
/// signature and the expand-produced (dense) attribute set, so emitted
/// cases always pass `fuzzValidate` — asserted before returning.
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_FUZZ_GEN_H
#define ETCH_FUZZ_GEN_H

#include "fuzz/fuzzcase.h"

#include <cstdint>
#include <string>

namespace etch {

struct GenOptions {
  /// Probability of the adversarial huge-extent mode.
  double HugeProb = 0.10;
  /// Maximum operator depth of the generated expression tree.
  int MaxDepth = 4;
};

class Rng;

/// A raw entry value for \p Semiring (a FuzzCase::SemiringName): dyadic
/// rationals of bounded magnitude, so sums and products stay exact even
/// over f64, with occasional explicit semiring zeros (0, or +inf under
/// (min,+)) to exercise pruning paths. The case generator and the delta
/// leg's batches both draw from it, so changing it changes every seed.
double genFuzzValue(Rng &R, const std::string &Semiring);

/// Generates the case for \p Seed. Deterministic: equal seeds and options
/// yield structurally identical cases.
FuzzCase genCase(uint64_t Seed, const GenOptions &Opts = {});

} // namespace etch

#endif // ETCH_FUZZ_GEN_H
