// Fault-injection sweep over the TICSNAP01 deserializer: Restore must fail
// CLOSED — a Status, never a crash, never a silently wrong monitor — for a
// snapshot that was truncated at every section boundary, truncated
// mid-section, bit-flipped at regular strides, or had its sections reordered
// or duplicated. Complements fuzz/fuzz_snapshot.cc (which explores the same
// surface with coverage guidance); this test pins the systematic boundary
// cases deterministically in every ctest run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "common/snapshot/snapshot.h"
#include "fotl/parser.h"
#include "testing/generators.h"

namespace tic {
namespace checker {
namespace {

namespace tt = ::tic::testing;

// Builds a representative snapshot with every universal-route section
// populated: non-trivial history with alias runs, letters, instances, word,
// relevant set, compaction checkpoint, verdict cache.
std::string UniversalBlob() {
  auto v = std::make_shared<Vocabulary>();
  PredicateId sub = *v->AddPredicate("Sub", 1);
  PredicateId fill = *v->AddPredicate("Fill", 1);
  auto fac = std::make_shared<fotl::FormulaFactory>(
      std::static_pointer_cast<const Vocabulary>(v));
  fotl::Formula phi =
      *fotl::Parse(fac.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
  auto m = *Monitor::Create(fac, phi);
  for (int t = 0; t < 6; ++t) {
    Transaction txn;
    txn.push_back(UpdateOp::Insert(sub, {100 + t}));
    txn.push_back(UpdateOp::Insert(fill, {1 + (t % 2)}));
    if (t > 0) txn.push_back(UpdateOp::Delete(sub, {100 + t - 1}));
    EXPECT_TRUE(m->ApplyTransaction(txn).ok());
    if (t == 2) {
      EXPECT_TRUE(m->ApplyTransaction(Transaction{}).ok());  // alias run
    }
  }
  EXPECT_TRUE(m->Compact().ok());
  Transaction txn;
  txn.push_back(UpdateOp::Insert(sub, {500}));
  EXPECT_TRUE(m->ApplyTransaction(txn).ok());
  return *MonitorCheckpoint::Serialize(*m);
}

// A past-route snapshot (kSecPast populated instead of the universal set).
std::string PastBlob() {
  tt::CaseBuilder builder(2);
  fotl::FormulaFactory& fac = *builder.factory();
  tt::Entropy ent(0x5eedu);
  fotl::Formula matrix =
      fac.Implies(builder.Lit(&ent, 1), builder.LitConj(&ent, 1));
  fotl::Formula phi = builder.Quantify(fac.Always(matrix), 1);
  CheckOptions opts;
  opts.router_force_past = true;
  auto m = *Monitor::Create(builder.factory(), phi, {}, opts);
  for (int t = 0; t < 5; ++t) {
    EXPECT_TRUE(
        m->ApplyTransaction(tt::ChurnTxn(&ent, builder.preds(), {1, 2, 3}))
            .ok());
  }
  return *MonitorCheckpoint::Serialize(*m);
}

// Walks the container and returns the offset just past each section (i.e.
// every boundary between sections, plus the end). Manual walk: header is
// magic(9) + version(4) + flags(4) + nsections(4); each section is
// id(4) + len(8) + payload(len) + crc(4).
std::vector<size_t> SectionBoundaries(const std::string& blob) {
  std::vector<size_t> out;
  size_t off = 9 + 4 + 4;
  uint32_t nsections = 0;
  std::memcpy(&nsections, blob.data() + off, 4);
  off += 4;
  out.push_back(off);  // end of header
  for (uint32_t i = 0; i < nsections && off + 12 <= blob.size(); ++i) {
    uint64_t len = 0;
    std::memcpy(&len, blob.data() + off + 4, 8);
    off += 12 + static_cast<size_t>(len) + 4;
    out.push_back(off);
  }
  return out;
}

void ExpectFailsClosed(const std::string& mutant, const std::string& what) {
  auto r = MonitorCheckpoint::Restore(mutant);
  EXPECT_FALSE(r.ok()) << what << ": restore accepted a corrupt snapshot";
}

class SnapshotCrashTest : public ::testing::TestWithParam<bool> {
 protected:
  std::string Blob() const { return GetParam() ? PastBlob() : UniversalBlob(); }
  static std::string Route() { return GetParam() ? "past" : "universal"; }
};

TEST_P(SnapshotCrashTest, TruncationAtEverySectionBoundary) {
  std::string blob = Blob();
  ASSERT_TRUE(MonitorCheckpoint::Restore(blob).ok());
  for (size_t b : SectionBoundaries(blob)) {
    if (b >= blob.size()) continue;
    ExpectFailsClosed(blob.substr(0, b),
                      Route() + " truncated at boundary " + std::to_string(b));
  }
}

TEST_P(SnapshotCrashTest, TruncationMidSection) {
  std::string blob = Blob();
  // Every prefix length in the header, then a stride-7 sweep through the
  // body, then every suffix-trim near the end: all must be rejected.
  for (size_t len = 0; len < std::min<size_t>(blob.size(), 24); ++len) {
    ExpectFailsClosed(blob.substr(0, len),
                      Route() + " header prefix " + std::to_string(len));
  }
  for (size_t len = 24; len + 1 < blob.size(); len += 7) {
    ExpectFailsClosed(blob.substr(0, len),
                      Route() + " prefix " + std::to_string(len));
  }
  for (size_t cut = 1; cut <= std::min<size_t>(blob.size() - 1, 8); ++cut) {
    ExpectFailsClosed(blob.substr(0, blob.size() - cut),
                      Route() + " tail cut " + std::to_string(cut));
  }
}

TEST_P(SnapshotCrashTest, BitFlipSweep) {
  std::string blob = Blob();
  // Flip one bit at stride-5 byte offsets across the whole container. Every
  // mutant must either fail (the overwhelmingly common case: a CRC or
  // validation catches it) or — never — crash. A flip may cancel out only if
  // it hits a byte whose change keeps CRC AND semantics identical, which a
  // single-bit flip cannot; so we also assert failure.
  for (size_t i = 0; i < blob.size(); i += 5) {
    for (int bit : {0, 3, 7}) {
      std::string mutant = blob;
      mutant[i] = static_cast<char>(mutant[i] ^ (1u << bit));
      auto r = MonitorCheckpoint::Restore(mutant);
      EXPECT_FALSE(r.ok()) << Route() << " bit flip at byte " << i << " bit "
                           << bit << " was accepted";
    }
  }
}

TEST_P(SnapshotCrashTest, SectionReorderAndDuplicate) {
  std::string blob = Blob();
  std::vector<size_t> bounds = SectionBoundaries(blob);
  ASSERT_GE(bounds.size(), 3u);  // header end + at least two sections
  size_t header_end = bounds[0];
  // Extract raw section byte ranges.
  std::vector<std::string> sections;
  for (size_t i = 1; i < bounds.size(); ++i) {
    size_t from = bounds[i - 1];
    size_t to = std::min(bounds[i], blob.size());
    sections.push_back(blob.substr(from, to - from));
  }

  // Swap adjacent sections: parse-level reordering is tolerated only if the
  // decoder is order-independent — but the payload semantics (e.g. META must
  // gate everything) still must not crash, and a duplicate id must fail.
  {
    std::string mutant = blob.substr(0, header_end);
    for (size_t i = 0; i + 1 < sections.size(); i += 2) {
      mutant += sections[i + 1];
      mutant += sections[i];
    }
    if (sections.size() % 2 == 1) mutant += sections.back();
    auto r = MonitorCheckpoint::Restore(mutant);
    (void)r;  // reordering may legitimately parse; must not crash
  }

  // Duplicate first section (replacing the last, to keep nsections honest):
  // duplicate ids are a hard parse error.
  if (sections.size() >= 2) {
    std::string mutant = blob.substr(0, header_end);
    for (size_t i = 0; i + 1 < sections.size(); ++i) mutant += sections[i];
    mutant += sections[0];
    ExpectFailsClosed(mutant, Route() + " duplicate section id");
  }
}

TEST_P(SnapshotCrashTest, CrossRouteSectionInjection) {
  // A universal snapshot must reject kSecPast and vice versa. Graft the
  // first non-meta section of the other route's blob onto this one (fixing
  // nothing else — CRC of the grafted section is internally valid, so the
  // rejection must come from the route whitelist or a count cross-check).
  std::string self = Blob();
  std::string other = GetParam() ? UniversalBlob() : PastBlob();
  std::vector<size_t> self_bounds = SectionBoundaries(self);
  std::vector<size_t> other_bounds = SectionBoundaries(other);
  ASSERT_GE(self_bounds.size(), 2u);
  ASSERT_GE(other_bounds.size(), 3u);
  // Sections of `other` beyond META (other_bounds[1] ends META).
  std::string graft =
      other.substr(other_bounds[1], other_bounds[2] - other_bounds[1]);
  std::string mutant = self + graft;
  // nsections in the header is now wrong too — but fix it to make the graft
  // reachable: bump the count by one.
  uint32_t nsections = 0;
  std::memcpy(&nsections, mutant.data() + 17, 4);
  nsections += 1;
  std::memcpy(mutant.data() + 17, &nsections, 4);
  ExpectFailsClosed(mutant, Route() + " cross-route section graft");
}

TEST_P(SnapshotCrashTest, GarbageAndEmptyInputs) {
  ExpectFailsClosed("", "empty input");
  ExpectFailsClosed("TICSNAP01", "bare magic");
  ExpectFailsClosed(std::string(1024, '\0'), "zero page");
  ExpectFailsClosed(std::string(1024, '\xff'), "ones page");
  std::string almost = "TICSNAP01";
  almost += std::string(64, '\x01');
  ExpectFailsClosed(almost, "magic + noise");
  EXPECT_FALSE(snapshot::LooksLikeSnapshot("TICSNAP9"));
}

// Rebuilds `blob` with its meta prefix passed through `edit`, every section
// (and its CRC) otherwise intact, so a rejection can only come from the
// semantic check of the edited field.
std::string WithMeta(const std::string& blob,
                     void (*edit)(snapshot::MetaPrefix*)) {
  auto reader = *snapshot::SnapshotReader::Parse(blob);
  snapshot::SnapshotWriter w(reader.flags());
  for (const auto& sec : reader.sections()) {
    snapshot::ByteWriter* out = w.AddSection(sec.id);
    snapshot::ByteReader in(sec.payload);
    if (sec.id == snapshot::kSecMeta) {
      snapshot::MetaPrefix meta = *snapshot::ReadMetaPrefix(&in);
      edit(&meta);
      snapshot::WriteMetaPrefix(out, meta);
    }
    out->PutBytes(sec.payload.data() + (sec.payload.size() - in.remaining()),
                  in.remaining());
  }
  return w.Finish();
}

TEST(SnapshotVersionTest, RetiredModeAndOldStateVersionFailClosed) {
  const std::string blob = UniversalBlob();
  // The rewrite alone round-trips: a rejection below is the edited field's.
  ASSERT_EQ(WithMeta(blob, [](snapshot::MetaPrefix*) {}), blob);

  // Mode byte 2 named the retired history-less mode.
  auto retired_mode = MonitorCheckpoint::Restore(
      WithMeta(blob, [](snapshot::MetaPrefix* m) { m->mode = 2; }));
  ASSERT_FALSE(retired_mode.ok()) << "restore accepted mode byte 2";
  EXPECT_NE(retired_mode.status().ToString().find("mode"), std::string::npos)
      << retired_mode.status().ToString();

  // Version 1 stored progression residuals at "now", not checkpoint bases.
  auto old_version = MonitorCheckpoint::Restore(
      WithMeta(blob, [](snapshot::MetaPrefix* m) { m->state_version = 1; }));
  ASSERT_FALSE(old_version.ok()) << "restore accepted state version 1";
  EXPECT_NE(old_version.status().ToString().find("version 1"),
            std::string::npos)
      << old_version.status().ToString();
}

INSTANTIATE_TEST_SUITE_P(Routes, SnapshotCrashTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("PastRoute")
                                             : std::string("UniversalRoute");
                         });

}  // namespace
}  // namespace checker
}  // namespace tic
