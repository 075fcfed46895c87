// Restore-equivalence battery (label `snapshot-diff`): the proof that
// MonitorCheckpoint::Serialize/Restore produce a monitor that is
// *verdict-equivalent* to one that was never interrupted, across every
// backend the checker can route to.
//
// Protocol per case: drive a reference monitor and a subject monitor in
// lockstep over the first half of a generated stream (verdicts compared at
// every step), snapshot the subject at the midpoint, restore it into a brand
// new monitor (fresh caches, fresh factory — nothing shared with the
// original), then continue BOTH on the second half and compare
// (time, potentially_satisfied, permanently_violated) at every step. Residual
// sizes and formula identities are intentionally NOT compared: compaction and
// restore may rebuild AndAll trees in a different shape with identical
// semantics.
//
// Families (>= 1050 cases total):
//   A: 350  automaton backend, cohort stepping on (default options)
//   B: 250  automaton backend, cohort stepping off
//   C: 200  progression backend
//   D: 150  QTCN / point-algebra route (router on, default)
//   E: 100  past-stateless route (router_force_past)
// plus a metamorphic compaction oracle: compact-at-every-k verdicts equal
// the never-compacted reference, and snapshot/restore of the compacted twin
// stays equivalent (90 automaton cases, cohorts on and off, plus 60
// progression cases).
//
// Every failure message carries the case seed and a serialized reproducer;
// re-run one case with TIC_REPLAY_SEED=<seed>.

#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "common/snapshot/snapshot.h"
#include "testing/generators.h"
#include "testing/reproducer.h"

namespace tic {
namespace checker {
namespace {

namespace tt = ::tic::testing;

struct DiffOutcome {
  bool ok = true;
  std::string detail;
};

// Runs the snapshot-at-midpoint protocol for one case under `options`.
// When `compact_every` is nonzero the subject additionally calls Compact()
// after every `compact_every`-th transaction (metamorphic compaction oracle),
// including once right before the snapshot.
DiffOutcome RunRestoreEquivalence(const tt::FotlCase& kase,
                                  const CheckOptions& options,
                                  size_t compact_every = 0) {
  DiffOutcome out;
  auto fail = [&out](std::string msg) {
    out.ok = false;
    out.detail = std::move(msg);
    return out;
  };

  auto ref_r = Monitor::Create(kase.factory, kase.sentence, {}, options);
  auto subj_r = Monitor::Create(kase.factory, kase.sentence, {}, options);
  if (!ref_r.ok() || !subj_r.ok()) {
    // Generator produced a sentence this backend rejects (e.g. progression
    // refuses nothing the automaton accepts, but keep the guard uniform).
    return fail("Create failed: " + ref_r.status().ToString());
  }
  auto& reference = *ref_r;
  auto& subject = *subj_r;

  const size_t cut = kase.stream.size() / 2;
  auto compare = [&](const MonitorVerdict& a, const MonitorVerdict& b,
                     size_t t, const char* phase) -> bool {
    if (a.time != b.time || a.potentially_satisfied != b.potentially_satisfied ||
        a.permanently_violated != b.permanently_violated) {
      fail(std::string(phase) + " diverged at t=" + std::to_string(t) +
           ": reference(time=" + std::to_string(a.time) +
           ", pot_sat=" + std::to_string(a.potentially_satisfied) +
           ", perm_viol=" + std::to_string(a.permanently_violated) +
           ") vs subject(time=" + std::to_string(b.time) +
           ", pot_sat=" + std::to_string(b.potentially_satisfied) +
           ", perm_viol=" + std::to_string(b.permanently_violated) + ")");
      return false;
    }
    return true;
  };

  for (size_t t = 0; t < cut; ++t) {
    auto va = reference->ApplyTransaction(kase.stream[t]);
    auto vb = subject->ApplyTransaction(kase.stream[t]);
    if (!va.ok()) return fail("reference update failed: " + va.status().ToString());
    if (!vb.ok()) return fail("subject update failed: " + vb.status().ToString());
    if (!compare(*va, *vb, t, "pre-snapshot")) return out;
    if (compact_every != 0 && (t + 1) % compact_every == 0) {
      Status s = subject->Compact();
      if (!s.ok()) return fail("Compact failed: " + s.ToString());
    }
  }

  auto blob = MonitorCheckpoint::Serialize(*subject);
  if (!blob.ok()) return fail("Serialize failed: " + blob.status().ToString());
  auto restored_r = MonitorCheckpoint::Restore(*blob);
  if (!restored_r.ok()) {
    return fail("Restore failed: " + restored_r.status().ToString());
  }
  auto& restored = *restored_r;

  // Round-trip determinism: re-serializing the restored monitor before it
  // takes any update must reproduce the blob bit for bit.
  auto blob2 = MonitorCheckpoint::Serialize(*restored);
  if (!blob2.ok()) return fail("re-Serialize failed: " + blob2.status().ToString());
  if (*blob != *blob2) {
    auto d1 = snapshot::Describe(*blob);
    auto d2 = snapshot::Describe(*blob2);
    return fail("snapshot not a fixpoint: Serialize(Restore(b)) != b (" +
                std::to_string(blob->size()) + " vs " +
                std::to_string(blob2->size()) + " bytes)\n--- original:\n" +
                (d1.ok() ? *d1 : d1.status().ToString()) + "--- restored:\n" +
                (d2.ok() ? *d2 : d2.status().ToString()));
  }

  for (size_t t = cut; t < kase.stream.size(); ++t) {
    auto va = reference->ApplyTransaction(kase.stream[t]);
    auto vb = restored->ApplyTransaction(kase.stream[t]);
    if (!va.ok()) return fail("reference update failed: " + va.status().ToString());
    if (!vb.ok()) return fail("restored update failed: " + vb.status().ToString());
    if (!compare(*va, *vb, t, "post-restore")) return out;
    if (compact_every != 0 && (t + 1) % compact_every == 0) {
      Status s = restored->Compact();
      if (!s.ok()) return fail("post-restore Compact failed: " + s.ToString());
    }
  }
  return out;
}

void ExpectEquivalent(const tt::FotlCase& kase, const CheckOptions& options,
                      uint64_t seed, const char* family,
                      size_t compact_every = 0) {
  DiffOutcome out = RunRestoreEquivalence(kase, options, compact_every);
  ASSERT_TRUE(out.ok) << "family " << family << " seed " << seed << ": "
                      << out.detail << "\nreproducer (TIC_REPLAY_SEED=" << seed
                      << "):\n"
                      << tt::SerializeCase(kase);
}

// ---------------------------------------------------------------------------
// Family A: automaton backend, cohorts on (the default production config).
// ---------------------------------------------------------------------------
TEST(SnapshotDiff, FamilyA_AutomatonCohorts) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  for (uint64_t c = 0; c < 350; ++c) {
    uint64_t seed = 0x51a9e0b7u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, tt::SafetyCaseOptions{});
    CheckOptions options;  // defaults: automaton, cohorts on, router on
    ExpectEquivalent(kase, options, seed, "A/automaton+cohorts");
  }
}

// ---------------------------------------------------------------------------
// Family B: automaton backend, cohort stepping disabled (joint graph only).
// ---------------------------------------------------------------------------
TEST(SnapshotDiff, FamilyB_AutomatonNoCohorts) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  for (uint64_t c = 0; c < 250; ++c) {
    uint64_t seed = 0x7d3b9c25u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, tt::SafetyCaseOptions{});
    CheckOptions options;
    options.cohort_stepping = false;
    ExpectEquivalent(kase, options, seed, "B/automaton-no-cohorts");
  }
}

// ---------------------------------------------------------------------------
// Family C: progression backend.
// ---------------------------------------------------------------------------
TEST(SnapshotDiff, FamilyC_Progression) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  for (uint64_t c = 0; c < 200; ++c) {
    uint64_t seed = 0x2f8c1d49u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, tt::SafetyCaseOptions{});
    CheckOptions options;
    options.backend = MonitorBackend::kProgression;
    ExpectEquivalent(kase, options, seed, "C/progression");
  }
}

// ---------------------------------------------------------------------------
// Family D: QTCN constraints — the router sends these through the
// point-algebra backend; the snapshot must survive its lazy rebuild.
// ---------------------------------------------------------------------------
TEST(SnapshotDiff, FamilyD_PointAlgebra) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  for (uint64_t c = 0; c < 150; ++c) {
    uint64_t seed = 0x9e12f5d3u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::QtcnCase qase = tt::GenerateQtcnCase(&ent);
    CheckOptions options;  // router on by default => point-algebra route
    ExpectEquivalent(qase.fotl, options, seed, "D/point-algebra");
  }
}

// ---------------------------------------------------------------------------
// Family E: past-stateless route (forced). Pure-FO matrix under a
// forall-prefixed G, streamed over a small churning universe.
// ---------------------------------------------------------------------------
TEST(SnapshotDiff, FamilyE_PastRoute) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  size_t ran = 0;
  for (uint64_t c = 0; c < 140 && ran < 100; ++c) {
    uint64_t seed = 0xc4b71a6fu + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::CaseBuilder builder(2 + ent.Below(2));
    size_t num_vars = 1 + ent.Below(2);
    fotl::FormulaFactory& fac = *builder.factory();

    // Pure first-order matrix (no tense operators): And/Or/Implies/Not over
    // literals, depth 2-3 — exactly the fragment the past evaluator handles
    // statelessly.
    std::function<fotl::Formula(size_t)> gen = [&](size_t depth) {
      if (depth == 0) return builder.Lit(&ent, num_vars);
      switch (ent.Below(4)) {
        case 0:
          return fac.And(gen(depth - 1), gen(depth - 1));
        case 1:
          return fac.Or(gen(depth - 1), gen(depth - 1));
        case 2:
          return fac.Implies(builder.LitConj(&ent, num_vars), gen(depth - 1));
        default:
          return fac.Not(gen(depth - 1));
      }
    };
    fotl::Formula matrix = gen(2 + ent.Below(2));
    fotl::Formula phi = builder.Quantify(fac.Always(matrix), num_vars);
    if (phi->kind() == fotl::NodeKind::kTrue ||
        phi->kind() == fotl::NodeKind::kFalse) {
      continue;  // constant-folded: nothing to monitor
    }

    std::vector<Transaction> stream;
    size_t len = 6 + ent.Below(8);
    for (size_t t = 0; t < len; ++t) {
      std::vector<Value> universe = {1, 2, 3};
      if (t >= len / 2) universe.push_back(4);
      stream.push_back(tt::ChurnTxn(&ent, builder.preds(), universe));
    }
    tt::FotlCase kase = builder.Finish(phi, num_vars, std::move(stream));

    CheckOptions options;
    options.router_force_past = true;
    ExpectEquivalent(kase, options, seed, "E/past-route");
    ++ran;
  }
  if (!replay) {
    EXPECT_GE(ran, 100u) << "past-route family under-generated";
  }
}

// ---------------------------------------------------------------------------
// Metamorphic compaction oracle: folding the history prefix into the
// checkpoint at every k-th transaction (k in {1, 2, 3}) must not change any
// verdict, and a snapshot taken of the compacted twin must restore into an
// equivalent monitor. Run over the cohort and the no-cohort automaton config
// and over the progression backend, whose k = 1 slice is history-less
// monitoring.
// ---------------------------------------------------------------------------
TEST(SnapshotDiff, MetamorphicCompactEveryK) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  for (uint64_t c = 0; c < 90; ++c) {
    uint64_t seed = 0x6ad0c983u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, tt::SafetyCaseOptions{});
    size_t k = 1 + (c % 3);
    CheckOptions options;
    options.cohort_stepping = (c % 2 == 0);
    ExpectEquivalent(kase, options, seed, "M/compact-every-k", k);
  }
  for (uint64_t c = 0; c < 60; ++c) {
    uint64_t seed = 0x3b91e6d5u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::FotlCase kase = tt::GenerateSafetyCase(&ent, tt::SafetyCaseOptions{});
    size_t k = 1 + (c % 3);
    CheckOptions options;
    options.backend = MonitorBackend::kProgression;
    ExpectEquivalent(kase, options, seed, "M/compact-every-k-progression", k);
  }
}

// Compaction metamorphic on the past route: the past evaluator folds its
// history too (auxiliary cells already summarize the prefix).
TEST(SnapshotDiff, MetamorphicCompactPastRoute) {
  std::optional<uint64_t> replay = tt::ReplaySeedFromEnv();
  size_t ran = 0;
  for (uint64_t c = 0; c < 50 && ran < 30; ++c) {
    uint64_t seed = 0x1be4d7a5u + c;
    if (replay && *replay != seed) continue;
    tt::Entropy ent(seed);
    tt::CaseBuilder builder(2);
    fotl::FormulaFactory& fac = *builder.factory();
    fotl::Formula matrix =
        fac.Implies(builder.LitConj(&ent, 1), builder.Lit(&ent, 1));
    fotl::Formula phi = builder.Quantify(fac.Always(matrix), 1);
    if (phi->kind() == fotl::NodeKind::kTrue ||
        phi->kind() == fotl::NodeKind::kFalse) {
      continue;
    }
    std::vector<Transaction> stream;
    for (size_t t = 0; t < 8; ++t) {
      stream.push_back(tt::ChurnTxn(&ent, builder.preds(), {1, 2, 3}));
    }
    tt::FotlCase kase = builder.Finish(phi, 1, std::move(stream));
    CheckOptions options;
    options.router_force_past = true;
    ExpectEquivalent(kase, options, seed, "M/compact-past", /*compact_every=*/2);
    ++ran;
  }
}

}  // namespace
}  // namespace checker
}  // namespace tic
