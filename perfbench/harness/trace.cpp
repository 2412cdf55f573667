//===- harness/trace.cpp - In-memory span recorder ------------------------===//

#include "harness/trace.h"

#include <chrono>
#include <cstdio>

using namespace perfbench;

namespace {

int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The innermost open span on this thread (spans nest per thread).
thread_local Tracer::Scope *Innermost = nullptr;

std::string escape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out;
}

} // namespace

Tracer::Tracer() : EpochNs(steadyNs()) {}

int64_t Tracer::nowNs() const { return steadyNs() - EpochNs; }

Tracer &perfbench::tracer() {
  static Tracer T;
  return T;
}

Tracer::Scope::Scope(Tracer &Tr, const char *N) {
  if (!Tr.enabled())
    return;
  T = &Tr;
  Name = N;
  Id = Tr.NextId.fetch_add(1, std::memory_order_relaxed);
  Outer = Innermost;
  Parent = Outer ? Outer->Id : 0;
  Innermost = this;
  StartNs = Tr.nowNs();
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  int64_t End = T->nowNs();
  Innermost = Outer;
  if (Outer)
    Outer->ChildNs += End - StartNs;
  Span S;
  S.Name = Name;
  S.StartNs = StartNs;
  S.EndNs = End;
  S.Id = Id;
  S.Parent = Parent;
  S.ChildNs = ChildNs;
  T->finish(std::move(S));
}

void Tracer::finish(Span S) {
  std::lock_guard<std::mutex> L(Mu);
  Done.push_back(std::move(S));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Done;
}

std::map<std::string, std::vector<double>> Tracer::selfTimesUs() const {
  std::map<std::string, std::vector<double>> Out;
  for (const Span &S : spans())
    Out[S.Name].push_back(S.selfUs());
  return Out;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<Span> All = spans();
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < All.size(); ++I) {
    const Span &S = All[I];
    std::fprintf(F,
                 " {\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}%s\n",
                 (unsigned long long)S.Id, (unsigned long long)S.Parent,
                 escape(S.Name).c_str(), (long long)S.StartNs,
                 (long long)S.EndNs,
                 (long long)(S.EndNs - S.StartNs - S.ChildNs),
                 I + 1 < All.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}
