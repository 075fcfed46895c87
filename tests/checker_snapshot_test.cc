// Unit suite for the TICSNAP01 snapshot/restore subsystem and checkpointed
// history compaction (checker/checkpoint.h, Monitor::Compact).
//
// The exhaustive randomized restore-equivalence battery lives in
// checker_snapshot_diff_test.cc (label `snapshot-diff`); the fault-injection
// sweep over truncation/bit-flip corruption lives in
// checker_snapshot_crash_test.cc. This file pins the deterministic
// contracts: byte-deterministic serialization, container sniffing, verdict
// preservation across a round trip and across compaction, the
// snapshot-size-flat-in-t guarantee that compaction exists to provide, and
// the basic fail-closed rejections.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "common/snapshot/snapshot.h"
#include "fotl/parser.h"

namespace tic {
namespace checker {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() {
    auto v = std::make_shared<Vocabulary>();
    sub_ = *v->AddPredicate("Sub", 1);
    fill_ = *v->AddPredicate("Fill", 1);
    vocab_ = v;
    fac_ = std::make_shared<fotl::FormulaFactory>(vocab_);
    submit_once_ =
        *fotl::Parse(fac_.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
  }

  Transaction Txn(std::vector<Value> subs, std::vector<Value> fills = {}) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Insert(sub_, {v}));
    for (Value v : fills) t.push_back(UpdateOp::Insert(fill_, {v}));
    return t;
  }

  Transaction Retract(std::vector<Value> subs) {
    Transaction t;
    for (Value v : subs) t.push_back(UpdateOp::Delete(sub_, {v}));
    return t;
  }

  // A submit/retract churn stream that keeps the monitor alive: Sub(v) is
  // always retracted on the next instant (satisfying "Sub -> X G !Sub" needs
  // each element submitted at most once, which distinct v values ensure).
  std::vector<Transaction> AliveStream(size_t len) {
    std::vector<Transaction> s;
    for (size_t t = 0; t < len; ++t) {
      Value v = static_cast<Value>(100 + t);
      Transaction txn = Txn({v}, {static_cast<Value>(1 + (t % 3))});
      if (t > 0) {
        Value prev = static_cast<Value>(100 + t - 1);
        txn.push_back(UpdateOp::Delete(sub_, {prev}));
      }
      s.push_back(std::move(txn));
    }
    return s;
  }

  static void ExpectSameVerdict(const MonitorVerdict& a,
                                const MonitorVerdict& b,
                                const std::string& label) {
    EXPECT_EQ(a.time, b.time) << label;
    EXPECT_EQ(a.potentially_satisfied, b.potentially_satisfied) << label;
    EXPECT_EQ(a.permanently_violated, b.permanently_violated) << label;
  }

  VocabularyPtr vocab_;
  PredicateId sub_ = 0, fill_ = 0;
  std::shared_ptr<fotl::FormulaFactory> fac_;
  fotl::Formula submit_once_ = nullptr;
};

TEST_F(SnapshotTest, RoundTripFreshMonitor) {
  auto m = *Monitor::Create(fac_, submit_once_);
  auto blob = MonitorCheckpoint::Serialize(*m);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  ASSERT_TRUE(snapshot::LooksLikeSnapshot(*blob));

  auto r = MonitorCheckpoint::Restore(*blob);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  for (const Transaction& txn : AliveStream(6)) {
    auto va = m->ApplyTransaction(txn);
    auto vb = (*r)->ApplyTransaction(txn);
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "fresh round trip");
  }
}

TEST_F(SnapshotTest, RoundTripMidStreamPreservesVerdicts) {
  auto original = *Monitor::Create(fac_, submit_once_);
  std::vector<Transaction> stream = AliveStream(10);
  for (size_t t = 0; t < 5; ++t) {
    ASSERT_TRUE(original->ApplyTransaction(stream[t]).ok());
  }
  auto blob = MonitorCheckpoint::Serialize(*original);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto restored = MonitorCheckpoint::Restore(*blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  // The restored monitor reports the same last verdict...
  ExpectSameVerdict(original->last_verdict(), (*restored)->last_verdict(),
                    "last_verdict after restore");
  EXPECT_EQ(original->current_state(), (*restored)->current_state());
  EXPECT_EQ(original->time_base(), (*restored)->time_base());

  // ...and stays verdict-equivalent on the rest of the stream, including a
  // violation (Sub(200) twice) that must flip both monitors on the same
  // instant.
  for (size_t t = 5; t < stream.size(); ++t) {
    auto va = original->ApplyTransaction(stream[t]);
    auto vb = (*restored)->ApplyTransaction(stream[t]);
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "post-restore t=" + std::to_string(t));
  }
  for (int i = 0; i < 2; ++i) {
    auto va = original->ApplyTransaction(Txn({200}));
    auto vb = (*restored)->ApplyTransaction(Txn({200}));
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "violation step " + std::to_string(i));
  }
  EXPECT_TRUE(original->last_verdict().permanently_violated);
  EXPECT_TRUE((*restored)->last_verdict().permanently_violated);
}

TEST_F(SnapshotTest, SerializationIsByteDeterministic) {
  auto a = *Monitor::Create(fac_, submit_once_);
  auto b = *Monitor::Create(fac_, submit_once_);
  for (const Transaction& txn : AliveStream(7)) {
    ASSERT_TRUE(a->ApplyTransaction(txn).ok());
    ASSERT_TRUE(b->ApplyTransaction(txn).ok());
  }
  auto blob_a1 = *MonitorCheckpoint::Serialize(*a);
  auto blob_a2 = *MonitorCheckpoint::Serialize(*a);
  auto blob_b = *MonitorCheckpoint::Serialize(*b);
  EXPECT_EQ(blob_a1, blob_a2) << "serialize must be idempotent";
  EXPECT_EQ(blob_a1, blob_b)
      << "identically driven monitors must snapshot byte-identically";
}

TEST_F(SnapshotTest, DescribePrintsSectionTable) {
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  auto blob = *MonitorCheckpoint::Serialize(*m);
  auto desc = snapshot::Describe(blob);
  ASSERT_TRUE(desc.ok()) << desc.status().ToString();
  EXPECT_NE(desc->find("TICSNAP01"), std::string::npos);
  EXPECT_NE(desc->find("meta"), std::string::npos);
  EXPECT_NE(desc->find("history"), std::string::npos);
  EXPECT_NE(desc->find("instances"), std::string::npos);
}

TEST_F(SnapshotTest, RestoreFailsClosedOnBasicCorruption) {
  auto m = *Monitor::Create(fac_, submit_once_);
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  std::string blob = *MonitorCheckpoint::Serialize(*m);

  // Bad magic.
  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_FALSE(MonitorCheckpoint::Restore(bad).ok());
  EXPECT_FALSE(snapshot::LooksLikeSnapshot(bad));

  // Truncation at an arbitrary midpoint.
  EXPECT_FALSE(
      MonitorCheckpoint::Restore(std::string_view(blob).substr(0, blob.size() / 2))
          .ok());

  // Trailing garbage.
  EXPECT_FALSE(MonitorCheckpoint::Restore(blob + "x").ok());

  // A flipped payload bit lands on some section's CRC.
  std::string flipped = blob;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(MonitorCheckpoint::Restore(flipped).ok());

  // The pristine blob still restores (the mutations above copied it).
  EXPECT_TRUE(MonitorCheckpoint::Restore(blob).ok());
}

TEST_F(SnapshotTest, CompactPreservesVerdictsAndAbsoluteTime) {
  auto compacted = *Monitor::Create(fac_, submit_once_);
  auto reference = *Monitor::Create(fac_, submit_once_);
  std::vector<Transaction> stream = AliveStream(12);
  for (size_t t = 0; t < stream.size(); ++t) {
    auto va = compacted->ApplyTransaction(stream[t]);
    auto vb = reference->ApplyTransaction(stream[t]);
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "pre/while-compacting t=" + std::to_string(t));
    if (t == 4 || t == 8) {
      auto s = compacted->Compact();
      ASSERT_TRUE(s.ok()) << s.ToString();
      EXPECT_EQ(compacted->current_state(), reference->current_state());
      EXPECT_EQ(compacted->time_base(), t);
    }
  }
  // Verdict time keeps counting absolute instants after the fold.
  EXPECT_EQ(compacted->last_verdict().time, stream.size() - 1);

  // Fresh elements arriving after the fold are caught up from the
  // checkpoint patterns; a repeat submission still violates on time.
  for (int i = 0; i < 2; ++i) {
    auto va = compacted->ApplyTransaction(Txn({300}));
    auto vb = reference->ApplyTransaction(Txn({300}));
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "fresh-after-compact step " + std::to_string(i));
  }
  EXPECT_TRUE(compacted->last_verdict().permanently_violated);
}

TEST_F(SnapshotTest, CompactIsNoOpOnShortHistory) {
  auto m = *Monitor::Create(fac_, submit_once_);
  EXPECT_TRUE(m->Compact().ok());  // empty history
  ASSERT_TRUE(m->ApplyTransaction(Txn({7})).ok());
  EXPECT_TRUE(m->Compact().ok());  // single state
  EXPECT_TRUE(m->current_state().Holds(sub_, {7}));
  EXPECT_EQ(m->time_base(), 0u);
}

TEST_F(SnapshotTest, CompactedSnapshotSizeIsFlatInHistoryLength) {
  // The tentpole guarantee: after Compact() the snapshot captures O(state),
  // not O(t). Drive two monitors through a periodic stream of different
  // lengths to the SAME database state, compact, and compare blob sizes —
  // equal bytes. Without compaction the blob must keep growing with t. The
  // constraint reads Fill: a predicate it never mentions gets no letter, so
  // toggling one would leave the word a single run.
  fotl::Formula phi =
      *fotl::Parse(fac_.get(), "forall x . G (Fill(x) -> X (Fill(x) | !Sub(x)))");
  auto run = [&](size_t len, bool compact) -> size_t {
    auto m = *Monitor::Create(fac_, phi);
    for (size_t t = 0; t < len; ++t) {
      // Period-2 churn: Fill(1) toggles, Sub stays empty => the final state
      // for even len is identical regardless of len.
      Transaction txn;
      if (t % 2 == 0) {
        txn.push_back(UpdateOp::Insert(fill_, {1}));
      } else {
        txn.push_back(UpdateOp::Delete(fill_, {1}));
      }
      EXPECT_TRUE(m->ApplyTransaction(txn).ok());
    }
    if (compact) EXPECT_TRUE(m->Compact().ok());
    return MonitorCheckpoint::Serialize(*m)->size();
  };

  size_t compact_short = run(20, true);
  size_t compact_long = run(60, true);
  size_t raw_short = run(20, false);
  size_t raw_long = run(60, false);
  EXPECT_EQ(compact_short, compact_long)
      << "compacted snapshot must not grow with history length";
  EXPECT_GT(raw_long, raw_short)
      << "uncompacted snapshot grows with history (sanity: compaction is "
         "doing something)";
  EXPECT_LT(compact_long, raw_long);
}

TEST_F(SnapshotTest, UncompactedHistorySectionIsOneState) {
  // A monitor stores the current database state alone, compacted or not: two
  // uncompacted monitors driven through 10 and 100 non-empty transactions
  // that end in equal states write identical history sections.
  auto history_section = [&](size_t len) -> std::string {
    auto m = *Monitor::Create(fac_, submit_once_);
    for (size_t t = 0; t < len; ++t) {
      Transaction txn;
      if (t % 2 == 0) {
        txn.push_back(UpdateOp::Insert(fill_, {1}));
        txn.push_back(UpdateOp::Delete(fill_, {2}));
      } else {
        txn.push_back(UpdateOp::Insert(fill_, {2}));
        txn.push_back(UpdateOp::Delete(fill_, {1}));
      }
      EXPECT_TRUE(m->ApplyTransaction(txn).ok());
    }
    EXPECT_EQ(m->time_base(), 0u);
    std::string blob = *MonitorCheckpoint::Serialize(*m);
    auto reader = *snapshot::SnapshotReader::Parse(blob);
    const auto* sec = reader.Find(snapshot::kSecHistory);
    EXPECT_NE(sec, nullptr);
    return sec != nullptr ? std::string(sec->payload) : std::string();
  };
  const std::string after_10 = history_section(10);
  const std::string after_100 = history_section(100);
  EXPECT_FALSE(after_10.empty());
  EXPECT_TRUE(after_10 == after_100)
      << after_10.size() << " vs " << after_100.size() << " bytes";
}

TEST_F(SnapshotTest, CompactThenSnapshotThenRestoreContinues) {
  auto m = *Monitor::Create(fac_, submit_once_);
  auto reference = *Monitor::Create(fac_, submit_once_);
  std::vector<Transaction> stream = AliveStream(9);
  for (const Transaction& txn : stream) {
    ASSERT_TRUE(m->ApplyTransaction(txn).ok());
    ASSERT_TRUE(reference->ApplyTransaction(txn).ok());
  }
  ASSERT_TRUE(m->Compact().ok());
  auto blob = MonitorCheckpoint::Serialize(*m);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto restored = MonitorCheckpoint::Restore(*blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->time_base(), stream.size() - 1);

  for (const Transaction& txn : AliveStream(5)) {
    auto va = (*restored)->ApplyTransaction(txn);
    auto vb = reference->ApplyTransaction(txn);
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "compact+restore continuation");
  }
}

TEST_F(SnapshotTest, PastRouteRoundTripAndCompact) {
  // Proposition 2.1 shape: closed forall-prefix over G(past matrix). The
  // past operator puts it outside the universal (future-only) class, so the
  // monitor runs it on the past evaluator.
  fotl::VarId x = fac_->InternVar("x");
  fotl::Formula matrix =
      fac_->Implies(*fac_->Atom(fill_, {fotl::Term::Var(x)}),
                    fac_->Once(*fac_->Atom(sub_, {fotl::Term::Var(x)})));
  fotl::Formula phi = fac_->Forall(x, fac_->Always(matrix));
  auto original = *Monitor::Create(fac_, phi);
  auto reference = *Monitor::Create(fac_, phi);
  ASSERT_TRUE(original->ApplyTransaction(Txn({1})).ok());
  ASSERT_TRUE(reference->ApplyTransaction(Txn({1})).ok());
  ASSERT_TRUE(original->ApplyTransaction(Txn({2}, {1})).ok());
  ASSERT_TRUE(reference->ApplyTransaction(Txn({2}, {1})).ok());
  EXPECT_EQ(original->last_verdict().backend, MonitorBackend::kPastStateless);

  ASSERT_TRUE(original->Compact().ok());
  EXPECT_EQ(original->current_state(), reference->current_state());
  EXPECT_EQ(original->time_base(), 1u);

  auto blob = MonitorCheckpoint::Serialize(*original);
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  auto restored = MonitorCheckpoint::Restore(*blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->time_base(), 1u);

  // Fill(5) with no prior Sub(5) violates on both.
  auto va = (*restored)->ApplyTransaction(Txn({}, {5}));
  auto vb = reference->ApplyTransaction(Txn({}, {5}));
  ASSERT_TRUE(va.ok() && vb.ok());
  ExpectSameVerdict(*va, *vb, "past route violation");
  EXPECT_TRUE(va->permanently_violated);
  EXPECT_EQ(va->backend, MonitorBackend::kPastStateless);
}

TEST_F(SnapshotTest, RestoreWithoutCacheImport) {
  auto m = *Monitor::Create(fac_, submit_once_);
  for (const Transaction& txn : AliveStream(6)) {
    ASSERT_TRUE(m->ApplyTransaction(txn).ok());
  }
  auto blob = *MonitorCheckpoint::Serialize(*m);
  RestoreOptions ro;
  ro.import_verdict_cache = false;
  auto restored = MonitorCheckpoint::Restore(blob, ro);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  for (const Transaction& txn : AliveStream(4)) {
    auto va = m->ApplyTransaction(txn);
    auto vb = (*restored)->ApplyTransaction(txn);
    ASSERT_TRUE(va.ok() && vb.ok());
    ExpectSameVerdict(*va, *vb, "cold-cache restore");
  }
}

// Letters exist only for predicates the constraint mentions: the session
// constraint reads Open and Closed, so a transaction that also inserts Sub
// and Fill for 100 elements mints 200 letters (Open(e) from the letter,
// Closed(e) from grounding), not 400. Every word entry and the current
// letter carry only those.
TEST(SnapshotLetterTest, LettersOnlyForMentionedPredicates) {
  auto v = std::make_shared<Vocabulary>();
  PredicateId sub = *v->AddPredicate("Sub", 1);
  PredicateId fill = *v->AddPredicate("Fill", 1);
  PredicateId open = *v->AddPredicate("Open", 1);
  ASSERT_TRUE(v->AddPredicate("Closed", 1).ok());
  auto fac = std::make_shared<fotl::FormulaFactory>(
      std::static_pointer_cast<const Vocabulary>(v));
  fotl::Formula session = *fotl::Parse(
      fac.get(), "forall x . G (Open(x) -> X (Open(x) | Closed(x)))");
  auto m = *Monitor::Create(fac, session);
  Transaction txn;
  for (Value e = 1; e <= 100; ++e) {
    txn.push_back(UpdateOp::Insert(sub, {e}));
    txn.push_back(UpdateOp::Insert(fill, {e}));
    txn.push_back(UpdateOp::Insert(open, {e}));
  }
  auto verdict = m->ApplyTransaction(txn);
  ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
  ASSERT_TRUE(verdict->potentially_satisfied);
  // Sub and Fill tuples stay in the database all the same.
  EXPECT_TRUE(m->current_state().Holds(sub, {7}));
  EXPECT_TRUE(m->current_state().Holds(fill, {7}));

  // (letters, word bytes) of the monitor's snapshot.
  auto measure = [&]() -> std::pair<uint64_t, size_t> {
    auto blob = MonitorCheckpoint::Serialize(*m);
    EXPECT_TRUE(blob.ok()) << blob.status().ToString();
    auto reader = *snapshot::SnapshotReader::Parse(*blob);
    snapshot::ByteReader mr(*reader.Require(snapshot::kSecMeta));
    return {snapshot::ReadMetaPrefix(&mr)->num_letters,
            reader.Require(snapshot::kSecWord)->size()};
  };
  auto [letters, word_bytes] = measure();
  EXPECT_EQ(letters, 200u);

  // An update touching only Sub leaves the letter unchanged, so the word
  // extends its run instead of appending an entry.
  Transaction unread;
  for (Value e = 1; e <= 100; ++e) {
    unread.push_back(UpdateOp::Delete(sub, {e}));
  }
  ASSERT_TRUE(m->ApplyTransaction(unread).ok());
  EXPECT_EQ(measure(), std::make_pair(letters, word_bytes));
}

}  // namespace
}  // namespace checker
}  // namespace tic
