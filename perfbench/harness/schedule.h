//===- harness/schedule.h - Seeded operation schedules ---------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every closed loop runs a fixed, seeded operation schedule, so the
/// traffic mix is a function of the seed and never of timing:
///
///   - reads come in blocks, each a seeded permutation of every query
///     shape (plus any view reads), so all shapes share the host's drift;
///   - every K-th operation is a write batch to the matrix, appends and
///     deletes in a fixed ratio by write count — there is no free-running
///     writer thread whose share of the work depends on scheduling;
///   - append batches only touch coordinates absent from the initial
///     matrix, and delete batches take disjoint slices of its entries, so
///     every delete finds its entries no matter how clients interleave.
///
/// The ad-hoc stream is a seeded shuffle of every product of one to three
/// catalog tensors (a multiset of factor names), less excluded shapes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_SCHEDULE_H
#define PERFBENCH_HARNESS_SCHEDULE_H

#include "formats/matrices.h"
#include "support/rng.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum class OpKind : uint8_t { Query, ViewRead, Append, Delete };

struct Op {
  OpKind Kind = OpKind::Query;
  uint32_t Shape = 0;   ///< Query: index into the workload's shapes.
  uint64_t Ordinal = 0; ///< Append / Delete: the client's n-th of that kind.
};

/// Entries per append or delete batch, and the fixed append:delete mix.
inline constexpr size_t WriteBatchNnz = 8;
inline constexpr uint32_t AppendsPerDelete = 3;

/// A read block holds every serve shape once, plus `ViewReads` view reads.
struct ScheduleConfig {
  uint32_t ViewReads = 0;  ///< View reads per read block.
  uint32_t WriteEvery = 0; ///< Every K-th op is a write; 0 = read-only.
};

/// One client's infinite operation stream.
class OpSchedule {
public:
  OpSchedule(uint64_t Seed, uint32_t Client, ScheduleConfig C);

  Op next();

private:
  void refill();

  ScheduleConfig Cfg;
  etch::Rng R;
  std::vector<Op> Block; ///< Pending reads, consumed from the back.
  uint64_t Issued = 0;
  uint64_t Writes = 0, Appends = 0, Deletes = 0;
};

/// Mixes a seed with stream coordinates into an independent Rng seed.
uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B = 0);

/// Write batches against one initial matrix. `Slot` distinguishes writers
/// (clients, plus extra slots for warm-up and probes); the n-th batch of a
/// slot is a pure function of (seed, slot, n).
class WriteBatches {
public:
  WriteBatches(uint64_t Seed, const etch::CsrMatrix<double> &Initial,
               uint32_t Slots, size_t BatchNnz);

  std::vector<etch::CooEntry<double>> append(uint32_t Slot, uint64_t N) const;
  std::vector<std::pair<etch::Idx, etch::Idx>> remove(uint32_t Slot,
                                                      uint64_t N) const;

  /// How many delete batches each slot can issue before slices run out.
  uint64_t deletesPerSlot() const;

private:
  bool inInitial(etch::Idx R, etch::Idx C) const;

  uint64_t Seed;
  const etch::CsrMatrix<double> &Initial;
  uint32_t Slots;
  size_t BatchNnz;
  std::vector<std::pair<etch::Idx, etch::Idx>> Order; ///< Shuffled entries.
};

using ShapeFactors = std::vector<std::string>;

/// Every sorted multiset of 1..MaxFactors names, in lexicographic order,
/// excluding \p Excluded (each given sorted).
std::vector<ShapeFactors>
adhocShapePool(const std::vector<std::string> &Names, size_t MaxFactors,
               const std::vector<ShapeFactors> &Excluded);

/// A seeded permutation of \p Pool.
std::vector<ShapeFactors> adhocShapeStream(uint64_t Seed,
                                           std::vector<ShapeFactors> Pool);

/// "A*x" style label of a factor list.
std::string shapeLabel(const ShapeFactors &F);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_SCHEDULE_H
