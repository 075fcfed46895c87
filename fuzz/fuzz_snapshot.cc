// Fuzz target: the TICSNAP01 deserializer (MonitorCheckpoint::Restore).
// Structure-aware: the fuzzer's entropy first builds a REAL snapshot — a
// generated safety case drives a monitor to a random cut point (optionally
// compacting), which is then serialized — and then picks an attack:
//
//   0: clean restore — must succeed, be a byte-level fixpoint under
//      re-serialization, and stay verdict-equivalent on the rest of the
//      stream (the fuzz-time restore-equivalence oracle);
//   1: truncation at a random length — must fail closed;
//   2: 1-4 random bit flips — must fail closed (every byte is covered by a
//      section CRC, the header by validation);
//   3: raw entropy bytes as the blob — any Status is fine, crashing is not.
//
// Under -DTIC_FUZZ=ON this links libFuzzer and explores the surface with
// coverage guidance under ASan/UBSan; in the default build the replay driver
// runs the committed corpus plus a bounded random session (fuzz-smoke label).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "checker/checkpoint.h"
#include "checker/monitor.h"
#include "testing/generators.h"
#include "testing/reproducer.h"
#include "testing/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  using namespace tic;
  if (size > 512) size = 512;
  testing::Entropy ent(data, size);

  testing::SafetyCaseOptions options;
  options.max_preds = 3;
  options.max_vars = 2;
  options.max_depth = 3;
  options.min_stream = 3;
  options.max_stream = 6;
  options.universe = {1, 2};
  options.fresh_element = 3;
  testing::FotlCase c = testing::GenerateSafetyCase(&ent, options);

  checker::CheckOptions copts;
  checker::MonitorMode mode = checker::MonitorMode::kEager;
  switch (ent.Below(3)) {
    case 0: break;  // automaton (defaults)
    case 1: mode = checker::MonitorMode::kLazy; break;
    default: copts.backend = checker::MonitorBackend::kProgression; break;
  }

  auto subject_r =
      checker::Monitor::Create(c.factory, c.sentence, {}, copts, mode);
  if (!subject_r.ok()) {
    std::fprintf(stderr, "generated case rejected by the checker: %s\n%s",
                 subject_r.status().ToString().c_str(),
                 testing::SerializeCase(c).c_str());
    std::abort();
  }
  auto& subject = *subject_r;

  const size_t cut = ent.Below(c.stream.size() + 1);
  for (size_t t = 0; t < cut; ++t) {
    auto v = subject->ApplyTransaction(c.stream[t]);
    if (!v.ok()) {
      std::fprintf(stderr, "update rejected: %s\n%s",
                   v.status().ToString().c_str(),
                   testing::SerializeCase(c).c_str());
      std::abort();
    }
  }
  if (ent.Below(3) == 0) {
    // Compaction before the snapshot: the checkpoint sections join the blob.
    Status s = subject->Compact();
    if (!s.ok()) {
      std::fprintf(stderr, "Compact rejected: %s\n%s", s.ToString().c_str(),
                   testing::SerializeCase(c).c_str());
      std::abort();
    }
  }

  auto blob_r = checker::MonitorCheckpoint::Serialize(*subject);
  if (!blob_r.ok()) {
    std::fprintf(stderr, "Serialize rejected a live monitor: %s\n%s",
                 blob_r.status().ToString().c_str(),
                 testing::SerializeCase(c).c_str());
    std::abort();
  }
  const std::string& blob = *blob_r;

  switch (ent.Below(4)) {
    case 0: {
      // Clean restore: must succeed, re-serialize bit-identically, and stay
      // verdict-equivalent with the uninterrupted subject on the tail.
      auto restored_r = checker::MonitorCheckpoint::Restore(blob);
      if (!restored_r.ok()) {
        std::fprintf(stderr, "pristine snapshot failed to restore: %s\n%s",
                     restored_r.status().ToString().c_str(),
                     testing::SerializeCase(c).c_str());
        std::abort();
      }
      auto& restored = *restored_r;
      auto blob2_r = checker::MonitorCheckpoint::Serialize(*restored);
      if (!blob2_r.ok() || *blob2_r != blob) {
        std::fprintf(stderr, "snapshot is not a re-serialization fixpoint\n%s",
                     testing::SerializeCase(c).c_str());
        std::abort();
      }
      for (size_t t = cut; t < c.stream.size(); ++t) {
        auto va = subject->ApplyTransaction(c.stream[t]);
        auto vb = restored->ApplyTransaction(c.stream[t]);
        if (!va.ok() || !vb.ok()) {
          std::fprintf(stderr, "tail update rejected\n%s",
                       testing::SerializeCase(c).c_str());
          std::abort();
        }
        if (va->time != vb->time ||
            va->potentially_satisfied != vb->potentially_satisfied ||
            va->permanently_violated != vb->permanently_violated) {
          std::fprintf(stderr,
                       "restored monitor diverged at t=%zu "
                       "(ref sat=%d viol=%d, restored sat=%d viol=%d)\n%s",
                       t, va->potentially_satisfied, va->permanently_violated,
                       vb->potentially_satisfied, vb->permanently_violated,
                       testing::SerializeCase(c).c_str());
          std::abort();
        }
      }
      break;
    }
    case 1: {
      // Truncation: a strict prefix must never restore.
      if (blob.size() < 2) break;
      size_t len = ent.Below(blob.size() - 1);
      auto r = checker::MonitorCheckpoint::Restore(
          std::string_view(blob).substr(0, len));
      if (r.ok()) {
        std::fprintf(stderr, "truncated snapshot (%zu of %zu bytes) restored\n",
                     len, blob.size());
        std::abort();
      }
      break;
    }
    case 2: {
      // Bit flips: every byte is either validated header or CRC-covered
      // payload, so any flip must be rejected.
      std::string mutant = blob;
      size_t flips = 1 + ent.Below(4);
      for (size_t i = 0; i < flips; ++i) {
        size_t at = ent.Below(mutant.size());
        mutant[at] = static_cast<char>(mutant[at] ^ (1u << ent.Below(8)));
      }
      if (mutant == blob) break;
      auto r = checker::MonitorCheckpoint::Restore(mutant);
      if (r.ok()) {
        std::fprintf(stderr, "bit-flipped snapshot restored cleanly\n");
        std::abort();
      }
      break;
    }
    default: {
      // Raw entropy as a blob: exercise the parser on arbitrary bytes —
      // rejection expected, crash/UB never.
      std::string garbage(reinterpret_cast<const char*>(data), size);
      auto r = checker::MonitorCheckpoint::Restore(garbage);
      (void)r;
      // And magic-prefixed garbage, which gets past the sniff check.
      std::string prefixed = "TICSNAP01" + garbage;
      auto r2 = checker::MonitorCheckpoint::Restore(prefixed);
      (void)r2;
      break;
    }
  }
  return 0;
}
