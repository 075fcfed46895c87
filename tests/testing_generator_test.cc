// Validity tests for the shared structure-aware generators (src/testing/):
// everything the property suites and fuzz harnesses consume must be
// well-formed by construction — every generated FOTL sentence classifies as a
// closed universal safety sentence the checker accepts, every stream only
// touches the case's own vocabulary, and generation is bit-reproducible from
// its seed (the contract that makes TIC_REPLAY_SEED and the serialized
// reproducers trustworthy).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "checker/monitor.h"
#include "fotl/classify.h"
#include "fotl/printer.h"
#include "ptl/formula.h"
#include "testing/generators.h"
#include "testing/reproducer.h"

namespace tic {
namespace testing {
namespace {

// ---------------------------------------------------------------------------
// Entropy: the seed mode must be draw-for-draw identical to the historical
// raw std::mt19937 usage, or every ported suite silently changes its cases.
// ---------------------------------------------------------------------------

TEST(EntropyTest, SeedModeMatchesRawMt19937) {
  Entropy ent(42);
  std::mt19937 rng(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(ent.Raw(), rng());
  }
}

TEST(EntropyTest, BelowMatchesModuloDraw) {
  Entropy ent(7);
  std::mt19937 rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint32_t n = 1 + i % 17;
    ASSERT_EQ(ent.Below(n), rng() % n);
  }
}

TEST(EntropyTest, PickMatchesUniformIntDistribution) {
  Entropy ent(123);
  std::mt19937 rng(123);
  for (int i = 0; i < 1000; ++i) {
    int hi = i % 9;
    std::uniform_int_distribution<int> d(0, hi);
    ASSERT_EQ(ent.Pick(0, hi), d(rng));
  }
}

TEST(EntropyTest, ByteModeDrawsLittleEndianThenZero) {
  const uint8_t bytes[] = {0x01, 0x02, 0x03, 0x04, 0xff};
  Entropy ent(bytes, sizeof(bytes));
  EXPECT_EQ(ent.Raw(), 0x04030201u);
  EXPECT_FALSE(ent.exhausted());
  EXPECT_EQ(ent.Raw(), 0xffu);  // partial tail draw
  EXPECT_TRUE(ent.exhausted());
  EXPECT_EQ(ent.Raw(), 0u);  // exhausted: zeros forever
  EXPECT_EQ(ent.Pick(3, 9), 3);
}

// An exhausted byte stream drives every grammar to its leaf production, so
// generation terminates on arbitrary (including empty) fuzz inputs.
TEST(EntropyTest, ExhaustedByteModeYieldsLeafPtlFormula) {
  auto vocab = std::make_shared<ptl::PropVocabulary>();
  ptl::Factory fac(vocab);
  auto atoms = PtlAtoms(&fac, 3);
  Entropy ent(nullptr, 0);
  ptl::Formula f = GeneratePtlFormula(&fac, &ent, atoms, 64);
  EXPECT_EQ(f, atoms[0]);
}

TEST(GeneratorTest, PtlAtomsInternSingleLetters) {
  auto vocab = std::make_shared<ptl::PropVocabulary>();
  ptl::Factory fac(vocab);
  auto atoms = PtlAtoms(&fac, 4);
  ASSERT_EQ(atoms.size(), 4u);
  EXPECT_EQ(ToString(fac, atoms[0]), "a");
  EXPECT_EQ(ToString(fac, atoms[3]), "d");
}

// ---------------------------------------------------------------------------
// FOTL safety cases.
// ---------------------------------------------------------------------------

// Every generated sentence is a closed, future-only, universal formula
// (the paper's 8* tense(Sigma_0) class — the fragment the Section 4 checker
// is complete for) with exactly the advertised quantifier prefix.
TEST(GeneratorTest, SafetyCasesClassifyUniversal) {
  for (int seed = 0; seed < 500; ++seed) {
    Entropy ent(static_cast<uint32_t>(seed));
    FotlCase c = GenerateSafetyCase(&ent);
    fotl::Classification cls = fotl::Classify(c.sentence);
    ASSERT_TRUE(cls.closed) << "seed " << seed << ": "
                            << fotl::ToString(*c.factory, c.sentence);
    ASSERT_TRUE(cls.future_only) << "seed " << seed;
    ASSERT_TRUE(cls.universal) << "seed " << seed << ": "
                               << fotl::ToString(*c.factory, c.sentence);
    // Factory simplification may erase vacuous quantifiers (or the whole
    // matrix), so the realized prefix is bounded by — not equal to — the
    // requested variable count.
    ASSERT_LE(cls.external_universals.size(), c.num_vars) << "seed " << seed;
  }
}

// The grammar is safe by construction: the monitor (which enforces safety at
// Create time) must accept every generated sentence.
TEST(GeneratorTest, SafetyCasesAreAcceptedByTheMonitor) {
  for (int seed = 0; seed < 100; ++seed) {
    Entropy ent(static_cast<uint32_t>(seed));
    FotlCase c = GenerateSafetyCase(&ent);
    auto m = checker::Monitor::Create(c.factory, c.sentence);
    ASSERT_TRUE(m.ok()) << "seed " << seed << ": " << m.status().ToString()
                        << "\n" << fotl::ToString(*c.factory, c.sentence);
  }
}

// Streams only touch the case's own predicates, with matching (unary) arity
// and values from the declared universe plus the fresh element.
TEST(GeneratorTest, StreamsAreVocabularyConsistent) {
  SafetyCaseOptions options;
  for (int seed = 0; seed < 500; ++seed) {
    Entropy ent(static_cast<uint32_t>(seed));
    FotlCase c = GenerateSafetyCase(&ent, options);
    for (const Transaction& txn : c.stream) {
      for (const UpdateOp& op : txn) {
        EXPECT_NE(std::find(c.preds.begin(), c.preds.end(), op.predicate),
                  c.preds.end())
            << "seed " << seed;
        ASSERT_EQ(op.tuple.size(), 1u) << "seed " << seed;
        Value v = op.tuple[0];
        bool in_universe =
            std::find(options.universe.begin(), options.universe.end(), v) !=
                options.universe.end() ||
            v == options.fresh_element;
        EXPECT_TRUE(in_universe) << "seed " << seed << " value " << v;
      }
    }
  }
}

// Two generations from the same seed serialize identically — the property
// that makes "re-run with TIC_REPLAY_SEED=<n>" reproduce the exact case.
TEST(GeneratorTest, CasesAreBitReproducibleFromSeed) {
  for (int seed = 0; seed < 200; ++seed) {
    Entropy e1(static_cast<uint32_t>(seed));
    Entropy e2(static_cast<uint32_t>(seed));
    FotlCase a = GenerateSafetyCase(&e1);
    FotlCase b = GenerateSafetyCase(&e2);
    ASSERT_EQ(SerializeCase(a), SerializeCase(b)) << "seed " << seed;
  }
}

// The same holds for the PTL generator (distinct factories, so compare the
// rendered text rather than hash-consed pointers).
TEST(GeneratorTest, PtlFormulasAreBitReproducibleFromSeed) {
  for (int seed = 0; seed < 200; ++seed) {
    auto v1 = std::make_shared<ptl::PropVocabulary>();
    ptl::Factory f1(v1);
    auto v2 = std::make_shared<ptl::PropVocabulary>();
    ptl::Factory f2(v2);
    Entropy e1(static_cast<uint32_t>(seed));
    Entropy e2(static_cast<uint32_t>(seed));
    ptl::Formula a = GeneratePtlFormula(&f1, &e1, PtlAtoms(&f1, 3), 4);
    ptl::Formula b = GeneratePtlFormula(&f2, &e2, PtlAtoms(&f2, 3), 4);
    ASSERT_EQ(ToString(f1, a), ToString(f2, b)) << "seed " << seed;
  }
}

// Pinned cases: an FNV-1a digest of what seeds 0-63 generate, per
// generator. Each pair of draws is sequenced into named locals (C++ leaves
// argument evaluation order unspecified), so a digest holds under any
// conforming compiler; a changed digest means every historical seed and
// fuzz-corpus entry now names a different case.
uint64_t SeedDigest(const std::function<std::string(Entropy*)>& generate) {
  uint64_t h = 14695981039346656037ull;
  for (uint32_t seed = 0; seed < 64; ++seed) {
    Entropy ent(seed);
    for (unsigned char c : generate(&ent)) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(GeneratorTest, SeedsGeneratePinnedCases) {
  SafetyCaseOptions anchored;
  anchored.min_vars = 2;
  anchored.next_anchor = true;
  EXPECT_EQ(SeedDigest([](Entropy* e) {
              return SerializeCase(GenerateSafetyCase(e));
            }),
            0x25a89f3242deb6f8ull);
  EXPECT_EQ(SeedDigest([&](Entropy* e) {
              return SerializeCase(GenerateSafetyCase(e, anchored));
            }),
            0x1e83863a905db55dull);
  EXPECT_EQ(SeedDigest([](Entropy* e) {
              return SerializeCase(GenerateReleaseCase(e));
            }),
            0x88e369c59336a47full);
  EXPECT_EQ(SeedDigest([](Entropy* e) {
              return SerializeCase(GenerateQtcnCase(e).fotl);
            }),
            0x4522fe48dcd6b102ull);
  EXPECT_EQ(SeedDigest([](Entropy* e) {
              return SerializeCase(GenerateTriggerCase(e));
            }),
            0x739194faf3fe74efull);
  EXPECT_EQ(SeedDigest([](Entropy* e) {
              auto vocab = std::make_shared<ptl::PropVocabulary>();
              ptl::Factory fac(vocab);
              return ToString(fac, GeneratePtlFormula(&fac, e, PtlAtoms(&fac, 3), 4));
            }),
            0xd1d60ad9c16c0815ull);
}

// Byte-driven generation (the fuzz entry point) also yields well-formed
// cases, whatever the bytes.
TEST(GeneratorTest, ByteModeCasesClassifyUniversal) {
  std::mt19937 rng(99);
  for (int i = 0; i < 100; ++i) {
    std::vector<uint8_t> bytes(rng() % 200);
    for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng());
    Entropy ent(bytes.data(), bytes.size());
    FotlCase c = GenerateSafetyCase(&ent);
    fotl::Classification cls = fotl::Classify(c.sentence);
    EXPECT_TRUE(cls.closed && cls.future_only && cls.universal) << "case " << i;
  }
}

// Trigger cases: an open condition with exactly the one advertised parameter.
TEST(GeneratorTest, TriggerCasesHaveOneFreeVariable) {
  for (int seed = 0; seed < 200; ++seed) {
    Entropy ent(static_cast<uint32_t>(seed));
    FotlCase c = GenerateTriggerCase(&ent);
    ASSERT_EQ(c.sentence->free_vars().size(), 1u) << "seed " << seed;
    fotl::Classification cls = fotl::Classify(c.sentence);
    EXPECT_TRUE(cls.future_only) << "seed " << seed;
    EXPECT_FALSE(cls.closed) << "seed " << seed;
  }
}

// Reproducer round-trip: serialize -> parse -> serialize is a fixpoint, and
// the parsed case re-derives the quantifier count from the sentence.
TEST(ReproducerTest, SerializedCasesRoundTrip) {
  for (int seed = 0; seed < 200; ++seed) {
    Entropy ent(static_cast<uint32_t>(seed));
    FotlCase c = GenerateSafetyCase(&ent);
    std::string text = SerializeCase(c);
    auto parsed = ParseCase(text);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": "
                             << parsed.status().ToString() << "\n" << text;
    EXPECT_EQ(SerializeCase(*parsed), text) << "seed " << seed;
    // ParseCase re-derives the variable count from the sentence's realized
    // quantifier prefix (simplification may have dropped vacuous ones).
    EXPECT_EQ(parsed->num_vars,
              fotl::Classify(c.sentence).external_universals.size())
        << "seed " << seed;
    EXPECT_EQ(parsed->preds.size(), c.preds.size()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace testing
}  // namespace tic
