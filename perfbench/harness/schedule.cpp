//===- harness/schedule.cpp - Seeded operation schedules ------------------===//

#include "harness/schedule.h"

#include "harness/data.h"

#include "formats/random.h"
#include "support/assert.h"

#include <algorithm>
#include <functional>

using namespace perfbench;
using namespace etch;

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t A, uint64_t B) {
  Rng R(Seed ^ (A * 0x9e3779b97f4a7c15ULL) ^ (B * 0xc2b2ae3d27d4eb4fULL));
  R.next();
  return R.next();
}

OpSchedule::OpSchedule(uint64_t Seed, uint32_t Client, ScheduleConfig C)
    : Cfg(C), R(mixSeed(Seed, 0x5c4ed, Client)) {}

void OpSchedule::refill() {
  for (uint32_t S = 0; S < serveShapeFactors().size(); ++S)
    Block.push_back({OpKind::Query, S, 0});
  for (uint32_t V = 0; V < Cfg.ViewReads; ++V)
    Block.push_back({OpKind::ViewRead, 0, 0});
  R.shuffle(Block);
}

Op OpSchedule::next() {
  ++Issued;
  if (Cfg.WriteEvery && Issued % Cfg.WriteEvery == 0) {
    bool Delete = Writes++ % (AppendsPerDelete + 1) == AppendsPerDelete;
    if (Delete)
      return {OpKind::Delete, 0, Deletes++};
    return {OpKind::Append, 0, Appends++};
  }
  if (Block.empty())
    refill();
  Op O = Block.back();
  Block.pop_back();
  return O;
}

WriteBatches::WriteBatches(uint64_t Seed, const CsrMatrix<double> &Initial,
                           uint32_t Slots, size_t BatchNnz)
    : Seed(Seed), Initial(Initial), Slots(Slots), BatchNnz(BatchNnz) {
  for (Idx Row = 0; Row < Initial.NumRows; ++Row)
    for (size_t P = Initial.Pos[static_cast<size_t>(Row)];
         P < Initial.Pos[static_cast<size_t>(Row) + 1]; ++P)
      Order.emplace_back(Row, Initial.Crd[P]);
  Rng R(mixSeed(Seed, 0xde1e7e));
  R.shuffle(Order);
}

bool WriteBatches::inInitial(Idx Row, Idx Col) const {
  const size_t R = static_cast<size_t>(Row);
  auto B = Initial.Crd.begin() + static_cast<std::ptrdiff_t>(Initial.Pos[R]);
  auto E =
      Initial.Crd.begin() + static_cast<std::ptrdiff_t>(Initial.Pos[R + 1]);
  return std::binary_search(B, E, Col);
}

std::vector<CooEntry<double>> WriteBatches::append(uint32_t Slot,
                                                   uint64_t N) const {
  Rng R(mixSeed(Seed, 0xa99e7d + Slot, N));
  std::vector<CooEntry<double>> Out;
  while (Out.size() < BatchNnz) {
    Idx Row = static_cast<Idx>(R.nextBelow(uint64_t(Initial.NumRows)));
    Idx Col = static_cast<Idx>(R.nextBelow(uint64_t(Initial.NumCols)));
    if (!inInitial(Row, Col))
      Out.push_back({Row, Col, randomValue(R)});
  }
  return Out;
}

uint64_t WriteBatches::deletesPerSlot() const {
  return Order.size() / (BatchNnz * Slots);
}

std::vector<std::pair<Idx, Idx>> WriteBatches::remove(uint32_t Slot,
                                                      uint64_t N) const {
  ETCH_ASSERT(Slot < Slots && N < deletesPerSlot(),
              "delete batch beyond the matrix's entries");
  size_t Base = static_cast<size_t>(N * Slots + Slot) * BatchNnz;
  return {Order.begin() + static_cast<std::ptrdiff_t>(Base),
          Order.begin() + static_cast<std::ptrdiff_t>(Base + BatchNnz)};
}

std::vector<ShapeFactors>
perfbench::adhocShapePool(const std::vector<std::string> &Names,
                          size_t MaxFactors,
                          const std::vector<ShapeFactors> &Excluded) {
  std::vector<std::string> Sorted = Names;
  std::sort(Sorted.begin(), Sorted.end());
  std::vector<ShapeFactors> Pool;
  ShapeFactors Cur;
  // Non-decreasing index sequences enumerate each multiset exactly once.
  std::function<void(size_t)> Extend = [&](size_t From) {
    if (!Cur.empty() &&
        std::find(Excluded.begin(), Excluded.end(), Cur) == Excluded.end())
      Pool.push_back(Cur);
    if (Cur.size() == MaxFactors)
      return;
    for (size_t I = From; I < Sorted.size(); ++I) {
      Cur.push_back(Sorted[I]);
      Extend(I);
      Cur.pop_back();
    }
  };
  Extend(0);
  std::sort(Pool.begin(), Pool.end());
  return Pool;
}

std::vector<ShapeFactors>
perfbench::adhocShapeStream(uint64_t Seed, std::vector<ShapeFactors> Pool) {
  Rng R(mixSeed(Seed, 0xad40c));
  R.shuffle(Pool);
  return Pool;
}

std::string perfbench::shapeLabel(const ShapeFactors &F) {
  std::string S;
  for (const std::string &N : F)
    S += (S.empty() ? "" : "*") + N;
  return S;
}
