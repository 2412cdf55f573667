//===- ivm/deltafuzz.h - Fuzzing the incremental-maintenance path -*-C++-*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `delta` fuzz leg (a row of fuzz/legs.h): incremental view
/// maintenance against full recomputation. Per case, the delta-rewrite
/// identity (ivm/delta.h) and `GroupedView::applyDelta` for a random
/// batch per tensor, exactly ("delta/..."); per seed, a random
/// append/delete scenario through the serving stack once per selected
/// executor, every view held bit-identical to its planner-free
/// recomputation and to `evalT` over the live payloads, and to the tree
/// executor's final readings ("delta-driver/...").
///
//===----------------------------------------------------------------------===//

#ifndef ETCH_IVM_DELTAFUZZ_H
#define ETCH_IVM_DELTAFUZZ_H

#include "fuzz/legs.h"

#include <cstdint>

namespace etch {

/// The `delta` registry row's case builder: the delta-identity
/// realizations of a case, per semiring.
FuzzCaseBuild deltaCaseBuild();

/// The `delta` row's seed builder: the serve-stack scenario for \p Seed
/// under each executor in \p Legs. Native kernels use the JIT's default
/// cache directory (`ETCH_JIT_CACHE`); a per-plan compile failure is
/// reported as a divergence, never silently degraded.
void deltaSeedBuild(uint64_t Seed, FuzzLegSet Legs,
                    FuzzRealizations<F64Semiring> &Out, FuzzReport &Rep);

} // namespace etch

#endif // ETCH_IVM_DELTAFUZZ_H
