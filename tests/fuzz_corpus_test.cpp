//===- tests/fuzz_corpus_test.cpp - Regression corpus replay --------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// Replays every shrunken repro in tests/corpus/ through the default legs,
// under every legal attribute order, and through every row of the leg
// registry (fuzz/legs.h). Each file is a minimized witness of a bug the
// differential fuzzer once found (its comment names the bug); a red replay
// here means a fixed bug has regressed. The corpus directory is baked in
// at compile time (ETCH_CORPUS_DIR) so the test runs from any build
// directory.
//
//===----------------------------------------------------------------------===//

#include "compiler/jit.h"
#include "fuzz/corpus.h"
#include "fuzz/exec.h"
#include "fuzz/legs.h"
#include "fuzz/reorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

using namespace etch;

namespace {

std::vector<std::string> corpusFiles() {
  namespace fs = std::filesystem;
  std::vector<std::string> Out;
  for (const auto &Ent : fs::directory_iterator(ETCH_CORPUS_DIR))
    if (Ent.is_regular_file() && Ent.path().extension() == ".txt")
      Out.push_back(Ent.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

TEST(FuzzCorpus, AllReprosReplayGreen) {
  auto Files = corpusFiles();
  // The corpus is seeded with the partitionDense overflow repros; an empty
  // or missing directory would make this test vacuous.
  ASSERT_GE(Files.size(), 3u)
      << "expected checked-in repros under " << ETCH_CORPUS_DIR;
  for (const std::string &F : Files) {
    std::string Err;
    auto C = readCaseFile(F, &Err);
    ASSERT_TRUE(C.has_value()) << F << ": " << Err;
    FuzzReport Rep = runFuzzCase(*C);
    EXPECT_FALSE(Rep.Invalid) << F << ": " << Rep.ValidationError;
    EXPECT_TRUE(Rep.ok()) << F << " regressed:\n" << Rep.toString();
  }
}

TEST(FuzzCorpus, AllReprosReplayGreenUnderEveryLegalOrder) {
  // A repro guards its bug regardless of which attribute permutation
  // originally triggered it: the whole matrix reruns under every legal
  // global order of each case (bounded; cases here are shrunken and tiny).
  for (const std::string &F : corpusFiles()) {
    std::string Err;
    auto C = readCaseFile(F, &Err);
    ASSERT_TRUE(C.has_value()) << F << ": " << Err;
    FuzzOrderReport Rep = runFuzzCaseOrders(*C, /*MaxOrders=*/8);
    EXPECT_FALSE(Rep.failing())
        << F << " regressed under an order sweep:\n"
        << Rep.toString();
  }
}

TEST(FuzzCorpus, AllReprosReplayGreenThroughEveryLeg) {
  // One loop over the registry: each row replays the corpus with the tree
  // VM beside it, so the executor rows' strict cross-checks (and the
  // formats leg's compiled re-bindings) have their anchor. Rows that need
  // a C toolchain are skipped, loudly, on a machine without one.
  std::vector<std::pair<std::string, FuzzCase>> Cases;
  for (const std::string &F : corpusFiles()) {
    std::string Err;
    auto C = readCaseFile(F, &Err);
    ASSERT_TRUE(C.has_value()) << F << ": " << Err;
    Cases.emplace_back(F, *C);
  }
  ASSERT_FALSE(Cases.empty());
  // JIT kernels go to a private cache under the gtest temp dir.
  namespace fs = std::filesystem;
  std::string Dir =
      (fs::path(::testing::TempDir()) / "etch-corpus-legs").string();
  const char *Prev = std::getenv("ETCH_JIT_CACHE");
  std::string Saved = Prev ? Prev : "";
  setenv("ETCH_JIT_CACHE", Dir.c_str(), 1);
  std::vector<std::string> Skipped;
  for (const FuzzLegRow &Row : fuzzLegRegistry()) {
    if (Row.NeedsToolchain && !jitToolchain().Available) {
      Skipped.push_back(Row.Name);
      continue;
    }
    for (const auto &[F, C] : Cases) {
      FuzzReport Rep = runFuzzCase(C, {Row.Leg, FuzzLeg::Tree});
      EXPECT_TRUE(Rep.ok()) << F << " regressed on leg " << Row.Name
                            << ":\n"
                            << Rep.toString();
    }
  }
  if (Prev)
    setenv("ETCH_JIT_CACHE", Saved.c_str(), 1);
  else
    unsetenv("ETCH_JIT_CACHE");
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
  if (!Skipped.empty()) {
    std::string Names;
    for (const std::string &N : Skipped)
      Names += " " + N;
    GTEST_SKIP() << "no C toolchain (" << jitToolchain().Diag
                 << "); not replayed through:" << Names;
  }
}

} // namespace
