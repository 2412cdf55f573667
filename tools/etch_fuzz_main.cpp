//===- tools/etch_fuzz_main.cpp - Differential fuzzing driver -------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `etch-fuzz` command line tool:
///
///   etch-fuzz --seeds 1000                 # run seeds 0..999
///   etch-fuzz --start 5000 --seeds 200     # a different seed window
///   etch-fuzz --time-budget 120            # stop after ~2 minutes
///   etch-fuzz --corpus tests/corpus        # write shrunken repros there
///   etch-fuzz --replay tests/corpus        # re-run saved cases (file/dir)
///   etch-fuzz --orders 6                   # sweep legal attribute orders
///   etch-fuzz --legs tree,native           # select legs (fuzz/exec.h)
///   etch-fuzz --no-shrink --verbose
///
/// Exit status is nonzero iff any case diverged (after shrinking) or any
/// replayed case failed — suitable for CI.
///
//===----------------------------------------------------------------------===//

#include "compiler/jit.h"
#include "fuzz/corpus.h"
#include "fuzz/exec.h"
#include "fuzz/gen.h"
#include "fuzz/reorder.h"
#include "fuzz/shrink.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace etch;

namespace {

struct Options {
  uint64_t Seeds = 1000;
  uint64_t Start = 0;
  double TimeBudget = 0; // seconds; 0 = unlimited
  std::string CorpusDir;
  std::string ReplayPath;
  bool NoShrink = false;
  bool Verbose = false;
  double HugeProb = 0.10;
  size_t Orders = 1; // legal attribute orders per case; 1 = original only
  FuzzLegSet Legs = FuzzLegSet::defaults();
};

/// Exit status for "a selected leg cannot run here" (no system C compiler)
/// — the automake SKIP convention, distinct from pass (0) and divergence
/// (1) so CI can tell a skip from a green run.
constexpr int ExitSkip = 77;

[[noreturn]] void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds N] [--start S] [--time-budget SEC]\n"
      "          [--corpus DIR] [--replay FILE|DIR] [--no-shrink]\n"
      "          [--orders N] [--huge-prob P] [--verbose]\n"
      "          [--legs streams,tree,bytecode,native,formats,tiles,delta]\n"
      "          [--jit-cache-dir DIR]\n",
      Argv0);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> const char * {
      if (I + 1 >= Argc)
        usage(Argv[0]);
      return Argv[++I];
    };
    if (A == "--seeds")
      O.Seeds = std::strtoull(Next(), nullptr, 10);
    else if (A == "--start")
      O.Start = std::strtoull(Next(), nullptr, 10);
    else if (A == "--time-budget")
      O.TimeBudget = std::strtod(Next(), nullptr);
    else if (A == "--corpus")
      O.CorpusDir = Next();
    else if (A == "--replay")
      O.ReplayPath = Next();
    else if (A == "--no-shrink")
      O.NoShrink = true;
    else if (A == "--verbose")
      O.Verbose = true;
    else if (A == "--huge-prob")
      O.HugeProb = std::strtod(Next(), nullptr);
    else if (A == "--orders")
      O.Orders = std::strtoull(Next(), nullptr, 10);
    else if (A == "--legs") {
      std::string Err;
      auto Legs = parseFuzzLegs(Next(), &Err);
      if (!Legs) {
        std::fprintf(stderr, "etch-fuzz: --legs: %s\n", Err.c_str());
        usage(Argv[0]);
      }
      O.Legs = *Legs;
    } else if (A == "--jit-cache-dir")
      setenv("ETCH_JIT_CACHE", Next(), 1); // every JIT in the legs reads it
    else
      usage(Argv[0]);
  }
  return O;
}

/// The legs a report diverged on, comma-joined (for the repro comment).
std::string legList(const FuzzReport &Rep) {
  std::string Out;
  for (const FuzzDivergence &D : Rep.Divs) {
    if (!Out.empty())
      Out += ", ";
    Out += D.Leg;
  }
  return Out;
}

int replay(const Options &O) {
  namespace fs = std::filesystem;
  std::vector<std::string> Files;
  if (fs::is_directory(O.ReplayPath)) {
    for (const auto &Ent : fs::directory_iterator(O.ReplayPath))
      if (Ent.is_regular_file() && Ent.path().extension() == ".txt")
        Files.push_back(Ent.path().string());
    std::sort(Files.begin(), Files.end());
  } else {
    Files.push_back(O.ReplayPath);
  }
  if (Files.empty()) {
    std::fprintf(stderr, "etch-fuzz: no .txt cases under %s\n",
                 O.ReplayPath.c_str());
    return 2;
  }
  int Bad = 0;
  for (const std::string &F : Files) {
    std::string Err;
    auto C = readCaseFile(F, &Err);
    if (!C) {
      std::fprintf(stderr, "%s: parse error: %s\n", F.c_str(), Err.c_str());
      ++Bad;
      continue;
    }
    FuzzReport Rep = runFuzzCase(*C, O.Legs);
    if (Rep.ok()) {
      // A clean matrix run still has to agree under alternative attribute
      // orders, so harvested cases guard regressions regardless of which
      // permutation originally triggered them.
      if (O.Orders > 1) {
        FuzzOrderReport ORep = runFuzzCaseOrders(*C, O.Orders, O.Legs);
        if (ORep.failing()) {
          ++Bad;
          std::printf("%s: order sweep: %s\n", F.c_str(),
                      ORep.toString().c_str());
          continue;
        }
      }
      if (O.Verbose)
        std::printf("%s: ok (%s)\n", F.c_str(), C->summary().c_str());
      continue;
    }
    ++Bad;
    std::printf("%s: %s\n", F.c_str(), Rep.toString().c_str());
  }
  std::printf("replayed %zu case(s), %d failing\n", Files.size(), Bad);
  return Bad ? 1 : 0;
}

int fuzz(const Options &O) {
  using Clock = std::chrono::steady_clock;
  auto Began = Clock::now();
  auto Elapsed = [&]() {
    return std::chrono::duration<double>(Clock::now() - Began).count();
  };

  GenOptions GO;
  GO.HugeProb = O.HugeProb;

  // unsigned long long is what printf's %llu reads: no casts below.
  unsigned long long Ran = 0, Diverged = 0;
  for (unsigned long long Seed = O.Start; Seed < O.Start + O.Seeds; ++Seed) {
    if (O.TimeBudget > 0 && Elapsed() > O.TimeBudget) {
      std::printf("time budget reached after %llu seed(s)\n", Ran);
      break;
    }
    FuzzCase C = genCase(Seed, GO);
    FuzzReport Rep = runFuzzCase(C, O.Legs);
    ++Ran;
    // Seed-driven scenarios generate their own inputs; their failures are
    // reported directly (there is no FuzzCase to shrink).
    FuzzReport SRep = runFuzzSeed(Seed, O.Legs);
    if (SRep.failing()) {
      ++Diverged;
      std::printf("seed %llu: scenario: %s\n", Seed, SRep.toString().c_str());
    }
    if (O.Verbose && Ran % 100 == 0)
      std::printf("... %llu seeds, %llu divergence(s), %.1fs\n", Ran,
                  Diverged, Elapsed());
    if (Rep.Invalid) {
      // The generator asserts validity, so this is itself a bug.
      std::printf("seed %llu: generator produced an invalid case: %s\n",
                  Seed, Rep.ValidationError.c_str());
      ++Diverged;
      continue;
    }
    bool MatrixFail = Rep.failing();
    FuzzOrderReport ORep;
    if (!MatrixFail) {
      if (O.Orders > 1)
        ORep = runFuzzCaseOrders(C, O.Orders, O.Legs);
      if (!ORep.failing())
        continue;
    }
    ++Diverged;
    if (MatrixFail)
      std::printf("seed %llu: %s\n", Seed, Rep.toString().c_str());
    else
      std::printf("seed %llu: order sweep: %s\n", Seed,
                  ORep.toString().c_str());
    // A matrix divergence shrinks under the plain matrix; an order-only
    // divergence must keep failing the sweep, or shrinking loses the bug.
    auto StillFails = [&O, MatrixFail](const FuzzCase &Cand) {
      return MatrixFail ? runFuzzCase(Cand, O.Legs).failing()
                        : runFuzzCaseOrders(Cand, O.Orders, O.Legs).failing();
    };
    FuzzCase Min = C;
    if (!O.NoShrink) {
      Min = shrinkCase(C, StillFails);
      std::printf("seed %llu: shrunk %zu -> %zu\n", Seed, fuzzCaseSize(C),
                  fuzzCaseSize(Min));
    }
    std::string Comment = "seed " + std::to_string(Seed);
    if (MatrixFail)
      Comment += "; diverging legs: " + legList(runFuzzCase(Min, O.Legs));
    else
      Comment += "; diverges under an attribute-order sweep (--orders)";
    if (!O.CorpusDir.empty()) {
      std::filesystem::create_directories(O.CorpusDir);
      std::string Path =
          O.CorpusDir + "/fuzz-seed-" + std::to_string(Seed) + ".txt";
      if (writeCaseFile(Path, Min, Comment))
        std::printf("seed %llu: wrote %s\n", Seed, Path.c_str());
      else
        std::fprintf(stderr, "etch-fuzz: cannot write %s\n", Path.c_str());
    } else {
      std::printf("--- repro ---\n%s-------------\n",
                  serializeCase(Min, Comment).c_str());
    }
  }
  std::printf("ran %llu seed(s): %llu divergence(s), %.1fs\n", Ran,
              Diverged, Elapsed());
  return Diverged ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  std::string Legs = fuzzLegNames(O.Legs);
  if (fuzzLegsNeedToolchain(O.Legs)) {
    const JitToolchain &Tc = jitToolchain();
    if (!Tc.Available) {
      // A skip, loudly logged — NOT a pass: the JIT legs did not run.
      std::fprintf(stderr,
                   "etch-fuzz: SKIP --legs %s: no usable system C compiler "
                   "(%s)\n",
                   Legs.c_str(), Tc.Diag.c_str());
      return ExitSkip;
    }
    std::fprintf(stderr, "etch-fuzz: JIT legs via %s (%s)\n", Tc.Cmd.c_str(),
                 Tc.VersionLine.c_str());
  }
  std::fprintf(stderr, "etch-fuzz: legs %s\n", Legs.c_str());
  if (!O.ReplayPath.empty())
    return replay(O);
  return fuzz(O);
}
