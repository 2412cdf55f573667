//===- tests/fuzz_smoke_test.cpp - Deterministic fuzz pipeline ------------===//
//
// Part of the etch project.
//
//===----------------------------------------------------------------------===//
//
// Deterministic, fixed-seed exercise of the differential fuzzing pipeline
// (src/fuzz/): generation is reproducible, every generated case is
// well-typed, the corpus format round-trips, the shrinker contracts cases
// under a toy predicate, and — the headline — a 200-seed slice of the
// executor matrix agrees across all three semantics. Long randomized
// campaigns live in tools/etch-fuzz; this test is the tier-1 guarantee
// that the matrix itself stays green.
//
//===----------------------------------------------------------------------===//

#include "fuzz/corpus.h"
#include "fuzz/exec.h"
#include "fuzz/gen.h"
#include "fuzz/legs.h"
#include "fuzz/shrink.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <string>

using namespace etch;

namespace {

TEST(FuzzGen, DeterministicAcrossCalls) {
  // Equal seeds must yield byte-identical cases (the corpus serialization
  // is the canonical form), or replaying "seed N" from a report would be
  // meaningless.
  for (uint64_t Seed : {0u, 1u, 7u, 42u, 123u, 999u}) {
    FuzzCase A = genCase(Seed);
    FuzzCase B = genCase(Seed);
    EXPECT_EQ(serializeCase(A), serializeCase(B)) << "seed " << Seed;
  }
}

TEST(FuzzGen, SeedsAreWellTyped) {
  // The generator is typed by construction; fuzzValidate re-derives the
  // typing independently. 300 seeds cover both generation modes.
  for (uint64_t Seed = 0; Seed < 300; ++Seed) {
    FuzzCase C = genCase(Seed);
    std::string Err;
    EXPECT_TRUE(fuzzValidate(C, &Err).has_value())
        << "seed " << Seed << ": " << Err << "\n"
        << serializeCase(C);
  }
}

TEST(FuzzGen, ProducesVariedSemirings) {
  // The matrix only tests what the generator emits: make sure the seed
  // window the smoke run uses actually spans multiple algebras.
  std::set<std::string> Seen;
  for (uint64_t Seed = 0; Seed < 200; ++Seed)
    Seen.insert(genCase(Seed).SemiringName);
  EXPECT_GE(Seen.size(), 2u) << "generator collapsed to one semiring";
}

TEST(FuzzCorpus, SerializationRoundTrips) {
  for (uint64_t Seed = 0; Seed < 100; ++Seed) {
    FuzzCase C = genCase(Seed);
    std::string Text = serializeCase(C, "round-trip seed");
    std::string Err;
    auto Back = parseCase(Text, &Err);
    ASSERT_TRUE(Back.has_value()) << "seed " << Seed << ": " << Err;
    // Fixpoint: parse(serialize(C)) serializes identically (comments are
    // not part of the case, so serialize without one).
    EXPECT_EQ(serializeCase(*Back), serializeCase(C)) << "seed " << Seed;
  }
}

TEST(FuzzCorpus, RejectsMalformedInput) {
  std::string Err;
  EXPECT_FALSE(parseCase("", &Err).has_value());
  EXPECT_FALSE(parseCase("not-a-header\n", &Err).has_value());
  EXPECT_FALSE(parseCase("etch-fuzz-case v1\nsemiring f64\n", &Err)
                   .has_value()); // no expr
  EXPECT_FALSE(
      parseCase("etch-fuzz-case v1\nsemiring f64\nattr fza 4\n"
                "tensor t0 sv fza\nentry 1 2 1.0\nexpr (var t0)\n",
                &Err)
          .has_value()); // coord arity mismatch
}

TEST(FuzzShrink, ContractsUnderToyPredicate) {
  // A predicate independent of most of the case ("some tensor mentions
  // coordinate 3") lets the shrinker discard nearly everything else.
  FuzzCase C = genCase(11);
  auto HasCoord3 = [](const FuzzCase &Cand) {
    for (const FuzzTensor &T : Cand.Tensors)
      for (const FuzzEntry &E : T.Entries)
        for (Idx I : E.Coords)
          if (I == 3)
            return true;
    return false;
  };
  // Find a seed whose case satisfies the predicate.
  uint64_t Seed = 11;
  while (!HasCoord3(C))
    C = genCase(++Seed);
  FuzzCase Min = shrinkCase(C, HasCoord3);
  EXPECT_TRUE(HasCoord3(Min)) << "shrinking escaped the predicate";
  std::string Err;
  EXPECT_TRUE(fuzzValidate(Min, &Err).has_value()) << Err;
  EXPECT_LE(fuzzCaseSize(Min), fuzzCaseSize(C));
}

TEST(FuzzExec, FormatsMatrixAgrees) {
  // Deterministic slice of the formats leg: every sparse vector
  // re-materialized hashed must agree with the oracle on the stream legs,
  // and hashed vs compressed compiled legs must agree bit-for-bit.
  ThreadPool Pool(3);
  int WithSparseVec = 0;
  for (uint64_t Seed = 0; Seed < 150; ++Seed) {
    FuzzCase C = genCase(Seed);
    for (const FuzzTensor &T : C.Tensors)
      if (T.Fmt == FuzzFormat::SparseVec) {
        ++WithSparseVec;
        break;
      }
    FuzzReport Rep = runFuzzCase(
        C, Pool, {FuzzLeg::Formats, FuzzLeg::Tree, FuzzLeg::Bytecode});
    EXPECT_TRUE(Rep.ok()) << "seed " << Seed << ":\n"
                          << Rep.toString() << "\n"
                          << serializeCase(C);
  }
  // The slice must actually exercise the matrix, not vacuously skip it.
  EXPECT_GT(WithSparseVec, 20) << "generator stopped emitting sparse vectors";
}

TEST(FuzzExec, TwoHundredSeedMatrixAgrees) {
  // The deterministic slice of the full campaign: every leg of the
  // executor matrix (oracle x stream policies x parallel drivers x VM
  // opt levels) must agree on seeds 0..199.
  ThreadPool Pool(3);
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    FuzzCase C = genCase(Seed);
    FuzzReport Rep = runFuzzCase(C, Pool);
    EXPECT_TRUE(Rep.ok()) << "seed " << Seed << ":\n"
                          << Rep.toString() << "\n"
                          << serializeCase(C);
  }
}

//===----------------------------------------------------------------------===//
// The shared cross-check
//===----------------------------------------------------------------------===//

/// A successful realization producing \p Value in \p Steps steps.
FuzzRealization<F64Semiring> realized(std::string Tag, double Value,
                                      int64_t Steps = 7) {
  FuzzRealization<F64Semiring> R;
  R.Tag = std::move(Tag);
  R.Total = Value;
  R.Steps = Steps;
  return R;
}

/// The leg tags \p Rs reports against an oracle total of 1.5.
std::vector<std::string>
crossCheckTags(const FuzzRealizations<F64Semiring> &Rs) {
  FuzzOracle<F64Semiring> Oracle;
  Oracle.Total = 1.5;
  FuzzReport Rep;
  fuzzCrossCheck<F64Semiring>(Rs, &Oracle, "fake case", Rep);
  std::vector<std::string> Tags;
  for (const FuzzDivergence &D : Rep.Divs)
    Tags.push_back(D.Leg);
  return Tags;
}

double nextUp(double X) { return std::nextafter(X, 2 * X + 1); }

TEST(FuzzCrossCheck, EachPolicyReportsUnderItsTag) {
  const unsigned Strict = FuzzCheckSteps | FuzzCheckError | FuzzCheckBits;
  auto Fake = [&](double Value, int64_t Steps, std::string Error) {
    FuzzRealization<F64Semiring> R = realized("fake", Value, Steps);
    R.Error = std::move(Error);
    R.Anchors.push_back({"anchor", "anchor-vs-fake", Strict});
    return R;
  };
  FuzzRealization<F64Semiring> Anchor = realized("anchor", 1.5);
  using Tags = std::vector<std::string>;

  // An identical realization passes every policy.
  EXPECT_EQ(crossCheckTags({Anchor, Fake(1.5, 7, "")}), Tags{});
  // One output bit: within the oracle's f64 tolerance, but not bit-exact.
  EXPECT_EQ(crossCheckTags({Anchor, Fake(nextUp(1.5), 7, "")}),
            Tags{"anchor-vs-fake"});
  // One more step.
  EXPECT_EQ(crossCheckTags({Anchor, Fake(1.5, 8, "")}),
            Tags{"anchor-vs-fake"});
  // A different error text: the error alone diverges (no value to compare).
  FuzzRealization<F64Semiring> Failing = Fake(1.5, 7, "step budget exhausted");
  Failing.Total.reset();
  EXPECT_EQ(crossCheckTags({Anchor, Failing}), Tags{"anchor-vs-fake"});

  // Each policy bit checks only its own property.
  FuzzRealization<F64Semiring> OffByOneBit = Fake(nextUp(1.5), 8, "x");
  for (unsigned Check : {FuzzCheckBits, FuzzCheckSteps, FuzzCheckError}) {
    OffByOneBit.Anchors = {{"anchor", "anchor-vs-fake", Check}};
    EXPECT_EQ(crossCheckTags({Anchor, OffByOneBit}), Tags{"anchor-vs-fake"})
        << "check " << Check;
  }
  OffByOneBit.Anchors.clear();
  EXPECT_EQ(crossCheckTags({Anchor, OffByOneBit}), Tags{});

  // The oracle: a wrong value, and a run error, are reported under the
  // realization's own tag; OracleIfOk forgives only the error.
  FuzzRealization<F64Semiring> Wrong = realized("wrong", 2.5);
  Wrong.Checks = FuzzCheckOracle;
  EXPECT_EQ(crossCheckTags({Wrong}), Tags{"wrong"});
  FuzzRealization<F64Semiring> Erring = realized("erring", 0.0);
  Erring.Total.reset();
  Erring.Error = "out of bounds";
  Erring.Checks = FuzzCheckOracle;
  EXPECT_EQ(crossCheckTags({Erring}), Tags{"erring"});
  Erring.Checks = FuzzCheckOracleIfOk;
  EXPECT_EQ(crossCheckTags({Erring}), Tags{});
  FuzzRealization<F64Semiring> Close = realized("close", nextUp(1.5));
  Close.Checks = FuzzCheckOracle;
  EXPECT_EQ(crossCheckTags({Close}), Tags{});

  // A realization that failed to build is reported under its tag and
  // compared with nothing; a declined one is silent.
  FuzzRealization<F64Semiring> Broken = Fake(9.0, 1, "");
  Broken.Failed = "jit compile error: boom";
  EXPECT_EQ(crossCheckTags({Anchor, Broken}), Tags{"fake"});
  Broken.Failed.clear();
  Broken.Declined = true;
  EXPECT_EQ(crossCheckTags({Anchor, Broken}), Tags{});
}

TEST(FuzzCrossCheck, RelationsCompareExactly) {
  Attr A = fuzzAttrUniverse()[0];
  KRelation<F64Semiring> X({A}), Y({A});
  X.insert({1}, 0.5);
  Y.insert({1}, nextUp(0.5));
  FuzzRealization<F64Semiring> Anchor, Other;
  Anchor.Tag = "recompute";
  Anchor.Rel = X;
  Other.Tag = "incremental";
  Other.Rel = Y;
  Other.Anchors.push_back({"recompute", "delta/f64/t=t0", FuzzCheckBits});
  EXPECT_EQ(crossCheckTags({Anchor, Other}),
            std::vector<std::string>{"delta/f64/t=t0"});
  Other.Rel = X;
  EXPECT_TRUE(crossCheckTags({Anchor, Other}).empty());
}

TEST(FuzzLegs, NamesParseAndRoundTrip) {
  std::string Err;
  auto Legs = parseFuzzLegs("tree,native,delta", &Err);
  ASSERT_TRUE(Legs) << Err;
  EXPECT_TRUE(Legs->has(FuzzLeg::Native));
  EXPECT_FALSE(Legs->has(FuzzLeg::Streams));
  EXPECT_EQ(fuzzLegNames(*Legs), "tree,native,delta");
  EXPECT_TRUE(fuzzLegsNeedToolchain(*Legs));
  EXPECT_FALSE(fuzzLegsNeedToolchain(FuzzLegSet::defaults()));
  EXPECT_EQ(fuzzLegNames(FuzzLegSet::defaults()), "streams,tree,bytecode");
  EXPECT_FALSE(parseFuzzLegs("tree,bogus", &Err));
  EXPECT_NE(Err.find("bogus"), std::string::npos);
  EXPECT_FALSE(parseFuzzLegs("", &Err));
  // Registry rows are in FuzzLeg order, one per leg.
  const auto &Rows = fuzzLegRegistry();
  for (size_t I = 0; I < Rows.size(); ++I)
    EXPECT_EQ(static_cast<size_t>(Rows[I].Leg), I);
}

} // namespace
