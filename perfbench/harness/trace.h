//===- harness/trace.h - In-memory span recorder ---------------*- C++ -*-===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its own calls into each layer:
/// name, start, end, and the enclosing span on the same thread. Spans are
/// kept in memory and written out once at the end of a traced run, and a
/// layer's self time is its span's duration minus the time its child spans
/// cover. Recording is off unless enabled, so untraced runs pay one
/// predictable branch per scope.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_TRACE_H
#define PERFBENCH_HARNESS_TRACE_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  int64_t StartNs = 0; ///< steady_clock, relative to the tracer's epoch.
  int64_t EndNs = 0;
  uint64_t Id = 0;     ///< 1-based; 0 is "no span".
  uint64_t Parent = 0;
  int64_t ChildNs = 0; ///< Time covered by direct children.

  double selfUs() const { return double(EndNs - StartNs - ChildNs) * 1e-3; }
};

class Tracer {
public:
  Tracer();
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// RAII span; a no-op when the tracer is disabled at construction.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T = nullptr;
    const char *Name = nullptr;
    uint64_t Id = 0, Parent = 0;
    int64_t StartNs = 0;
    int64_t ChildNs = 0;
    Scope *Outer = nullptr;
  };

  /// Every finished span, in completion order.
  std::vector<Span> spans() const;

  /// Self times in microseconds, grouped by span name.
  std::map<std::string, std::vector<double>> selfTimesUs() const;

  /// Writes the spans as a JSON array to \p Path; false on I/O failure.
  bool writeJson(const std::string &Path) const;

  int64_t nowNs() const;

private:
  void finish(Span S);

  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> NextId{1};
  int64_t EpochNs = 0;
  mutable std::mutex Mu; ///< Guards Done.
  std::vector<Span> Done;
};

/// The process-wide tracer.
Tracer &tracer();

} // namespace perfbench

/// Opens a span named \p NAME (a string literal) for the enclosing scope.
#define PERFBENCH_SPAN_CAT2(A, B) A##B
#define PERFBENCH_SPAN_CAT(A, B) PERFBENCH_SPAN_CAT2(A, B)
#define PERFBENCH_SPAN(NAME)                                                   \
  ::perfbench::Tracer::Scope PERFBENCH_SPAN_CAT(PbSpan_, __LINE__)(            \
      ::perfbench::tracer(), NAME)

#endif // PERFBENCH_HARNESS_TRACE_H
