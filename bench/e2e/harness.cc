#include "bench/e2e/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numeric>

#include "bench/e2e/stats.h"
#include "bench/e2e/workloads.h"
#include "checker/checkpoint.h"
#include "checker/extension.h"
#include "checker/monitor.h"
#include "checker/trigger.h"
#include "common/status.h"
#include "common/telemetry/telemetry.h"

namespace tic {
namespace e2e {

bool Tally::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    if (failed <= 8) std::fprintf(stderr, "bench_e2e: FAILED %s\n", what.c_str());
  }
  return ok;
}

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer: per-unit sub-seeds
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Values no stream ever generates: the planted violations' fresh elements.
constexpr Value kPlantA = 900001;
constexpr Value kPlantB = 900002;

// The commit whose expected verdict --self-test inverts.
constexpr uint64_t kSelfTestCommit = 5;

// Time blocks per measured phase (Samples::blocks).
constexpr int kBlocks = 5;

// Drift of the median commit latency between the halves of a steady
// workload's measured stream at which it is not stationary.
constexpr double kMaxDrift = 0.10;

/// Timings a phase collects, untraced or traced.
struct Samples {
  std::vector<double> update_us;      // one commit, all monitors
  std::vector<double> setup_s;        // Create + preload
  std::vector<double> compact_ms;     // one Monitor::Compact call
  std::vector<double> serialize_ms;   // one MonitorCheckpoint::Serialize
  std::vector<double> restore_ms;     // one MonitorCheckpoint::Restore
  std::vector<double> checkpoint_ms;  // Compact+Serialize+Restore, all monitors
  std::vector<double> snapshot_kb;    // snapshot bytes of one checkpoint / 1024
  std::vector<double> batch_ms;       // one batch CheckPotentialSatisfaction
  double wall_s = 0;                  // measured time, set-up and checks excluded
  double check_s = 0;                 // checks inside the measured loop
  /// The measured stream cut into consecutive time blocks; per-block rates
  /// and latencies are reported as medians over blocks, so that a short
  /// stall of the host moves one block, not the result.
  struct Block {
    size_t first = 0, end = 0;  // update_us index range
    double wall_s = 0;
  };
  std::vector<Block> blocks;
};

/// Layer times measured from outside the library during a traced phase.
struct LayerClock {
  double monitor_ns[kNumConstraints] = {};
  double trigger_ns = 0;
  double ckpt_ns = 0;     // Compact, Serialize and Restore calls
  double db_ns = 0;       // tic::ApplyTransaction on the shadow history
  double shadow_ns = 0;   // all shadow upkeep, db_ns included (not measured work)
  double db_tuples = 0;   // summed over transactions
  uint64_t instances = 0, cohort_slots = 0, pointalg_instances = 0;
};

/// The monitors one workload watches, plus its optional trigger manager.
class Fleet {
 public:
  /// Fresh monitors (CheckOptions{} defaults) for `constraints`, plus the
  /// duplicate-submission trigger when `with_trigger`.
  static Result<std::unique_ptr<Fleet>> Create(
      const Schema* schema, const std::vector<ConstraintId>& constraints,
      bool with_trigger);

  /// Applies `txn` everywhere and checks that every verdict is
  /// `expect_satisfied` at the right instant and that no trigger fires.
  /// `clock` is null in untraced phases.
  Status Commit(const Transaction& txn, bool expect_satisfied, Tally* tally,
                LayerClock* clock);

  /// Compacts every monitor. A full checkpoint also serializes each one,
  /// continues on the restored monitor, and checks Serialize(Restore(b)) == b.
  Status Checkpoint(bool full, Samples* samples, Tally* tally, LayerClock* clock);

  struct Member {
    ConstraintId id;
    std::unique_ptr<checker::Monitor> monitor;
  };
  std::vector<Member>& members() { return members_; }
  checker::Monitor* monitor(ConstraintId id);
  checker::TriggerManager* trigger() { return trigger_.get(); }
  /// Instant the next transaction creates (verdict times are absolute).
  size_t time() const { return time_; }
  /// One commit to a single monitor, outside the measured stream: used by the
  /// planted violations. Checks the verdict and its instant.
  bool CommitOne(ConstraintId id, const Transaction& txn, bool expect_satisfied,
                 size_t expect_time, Tally* tally);

 private:
  explicit Fleet(History shadow) : shadow_(std::move(shadow)) {}

  std::vector<Member> members_;
  std::unique_ptr<checker::TriggerManager> trigger_;
  History shadow_;  // the same stream through the db layer alone (traced)
  size_t time_ = 0;
};

Result<std::unique_ptr<Fleet>> Fleet::Create(
    const Schema* schema, const std::vector<ConstraintId>& constraints,
    bool with_trigger) {
  TIC_ASSIGN_OR_RETURN(History shadow, History::Create(schema->vocab));
  std::unique_ptr<Fleet> fleet(new Fleet(std::move(shadow)));
  for (ConstraintId id : constraints) {
    TIC_ASSIGN_OR_RETURN(std::unique_ptr<checker::Monitor> m,
                         checker::Monitor::Create(schema->factory, schema->formula[id]));
    fleet->members_.push_back(Member{id, std::move(m)});
  }
  if (with_trigger) {
    TIC_ASSIGN_OR_RETURN(fleet->trigger_,
                         checker::TriggerManager::Create(schema->factory));
    TIC_RETURN_NOT_OK(fleet->trigger_->AddTrigger("dup_submission", schema->dup_trigger));
  }
  return fleet;
}

checker::Monitor* Fleet::monitor(ConstraintId id) {
  for (Member& m : members_) {
    if (m.id == id) return m.monitor.get();
  }
  return nullptr;
}

Status Fleet::Commit(const Transaction& txn, bool expect_satisfied, Tally* tally,
                     LayerClock* clock) {
  std::string wrong;
  if (clock != nullptr) clock->instances = clock->cohort_slots = clock->pointalg_instances = 0;
  for (Member& m : members_) {
    Clock::time_point t0 = clock != nullptr ? Clock::now() : Clock::time_point{};
    Result<checker::MonitorVerdict> v = m.monitor->ApplyTransaction(txn);
    if (clock != nullptr) clock->monitor_ns[m.id] += Since(t0) * 1e9;
    if (!v.ok()) {
      tally->Check(false, std::string(ConstraintName(m.id)) + ": " + v.status().ToString());
      return v.status();
    }
    if (v->potentially_satisfied != expect_satisfied || v->time != time_) {
      wrong += std::string(" ") + ConstraintName(m.id) + "@" + std::to_string(v->time);
    }
    if (clock != nullptr) {
      clock->instances += v->num_instances;
      clock->cohort_slots += v->num_cohort_instances;
      clock->pointalg_instances += v->num_pointalg_instances;
    }
  }
  if (trigger_ != nullptr) {
    Clock::time_point t0 = clock != nullptr ? Clock::now() : Clock::time_point{};
    auto fired = trigger_->OnTransaction(txn);
    if (clock != nullptr) clock->trigger_ns += Since(t0) * 1e9;
    if (!fired.ok()) {
      tally->Check(false, "trigger: " + fired.status().ToString());
      return fired.status();
    }
    if (!fired->empty()) wrong += " dup_submission fired";
  }
  if (clock != nullptr) {
    // The db layer alone: one history fed the same stream, folded every 64
    // states so it holds no more than a monitor does between compactions.
    Clock::time_point t0 = Clock::now();
    TIC_RETURN_NOT_OK(tic::ApplyTransaction(&shadow_, txn));
    clock->db_ns += Since(t0) * 1e9;
    clock->db_tuples += static_cast<double>(
        shadow_.state(shadow_.length() - 1).TotalTuples());
    if (shadow_.length() >= 64) {
      TIC_RETURN_NOT_OK(shadow_.DropPrefix(shadow_.length() - 1));
    }
    clock->shadow_ns += Since(t0) * 1e9;
  }
  tally->Check(wrong.empty(), "verdict at t=" + std::to_string(time_) + ", expected " +
                                  (expect_satisfied ? "satisfied" : "violated") +
                                  ":" + wrong);
  ++time_;
  return Status::OK();
}

Status Fleet::Checkpoint(bool full, Samples* samples, Tally* tally,
                         LayerClock* clock) {
  double total_ms = 0;
  size_t bytes = 0;
  for (Member& m : members_) {
    Clock::time_point t0 = Clock::now();
    TIC_RETURN_NOT_OK(m.monitor->Compact());
    double compact_ms = Since(t0) * 1e3;
    samples->compact_ms.push_back(compact_ms);
    total_ms += compact_ms;
    if (!full) continue;
    t0 = Clock::now();
    TIC_ASSIGN_OR_RETURN(std::string blob, checker::MonitorCheckpoint::Serialize(*m.monitor));
    double serialize_ms = Since(t0) * 1e3;
    t0 = Clock::now();
    TIC_ASSIGN_OR_RETURN(std::unique_ptr<checker::Monitor> restored,
                         checker::MonitorCheckpoint::Restore(blob));
    double restore_ms = Since(t0) * 1e3;
    samples->serialize_ms.push_back(serialize_ms);
    samples->restore_ms.push_back(restore_ms);
    total_ms += serialize_ms + restore_ms;
    bytes += blob.size();
    t0 = Clock::now();
    auto again = checker::MonitorCheckpoint::Serialize(*restored);
    tally->Check(again.ok() && *again == blob,
                 std::string(ConstraintName(m.id)) + ": Serialize(Restore(b)) != b");
    samples->check_s += Since(t0);
    m.monitor = std::move(restored);
  }
  if (clock != nullptr) clock->ckpt_ns += total_ms * 1e6;
  if (full) {
    samples->checkpoint_ms.push_back(total_ms);
    samples->snapshot_kb.push_back(static_cast<double>(bytes) / 1024.0);
  }
  return Status::OK();
}

bool Fleet::CommitOne(ConstraintId id, const Transaction& txn, bool expect_satisfied,
                      size_t expect_time, Tally* tally) {
  std::string what = std::string("planted ") + ConstraintName(id) + " at t=" +
                     std::to_string(expect_time);
  auto v = monitor(id)->ApplyTransaction(txn);
  if (!v.ok()) return tally->Check(false, what + ": " + v.status().ToString());
  return tally->Check(v->potentially_satisfied == expect_satisfied &&
                          v->permanently_violated == !expect_satisfied &&
                          v->time == expect_time,
                      what + ": verdict or instant wrong");
}

struct Plan {
  size_t unit_txns = 0;      // 0: one unit, stopped by time (steady state)
  size_t compact_every = 0;  // Compact() period, in transactions
  size_t checkpoint_every = 0;  // Compact+Serialize+Restore period
  size_t setup_repeats = 1;  // set-ups per run of a steady workload
};

/// One workload: a set-up that builds a fresh fleet, a seeded stream of
/// transactions, and the checks that close a unit of work.
class Workload {
 public:
  virtual ~Workload() = default;
  // `clock` is non-null in traced phases, so that the shadow history
  // starts from the same preloaded state.
  virtual Result<std::unique_ptr<Fleet>> Setup(size_t unit, Tally* tally,
                                                LayerClock* clock) = 0;
  virtual Transaction Next(size_t i) = 0;
  /// Clears the stream's pending instantaneous events.
  virtual Transaction Quiet() = 0;
  /// Untimed checks at the end of each unit.
  virtual Status EndUnit(Fleet* /*fleet*/, Tally* /*tally*/, Samples* /*samples*/) {
    return Status::OK();
  }
  /// Workload-specific findings drawn from an untraced phase's samples.
  virtual void AddNotes(const Samples& /*samples*/, std::vector<std::string>* /*notes*/) {}
  Plan plan;
};

Transaction One(UpdateOp op) { return Transaction{std::move(op)}; }

// One planted violating transaction per watched constraint, each applied to
// its own monitor only, after setting-up transactions that must still be
// satisfied. Every violation must be flagged exactly at its transaction.
void PlantViolations(const Schema& s, Fleet* fleet, Tally* tally) {
  const size_t t = fleet->time();
  if (fleet->monitor(kSubmitOnce) != nullptr) {
    fleet->CommitOne(kSubmitOnce, One(UpdateOp::Insert(s.sub, {kPlantA})), true, t, tally);
    fleet->CommitOne(kSubmitOnce, One(UpdateOp::Delete(s.sub, {kPlantA})), true, t + 1, tally);
    fleet->CommitOne(kSubmitOnce, One(UpdateOp::Insert(s.sub, {kPlantA})), false, t + 2, tally);
  }
  if (fleet->monitor(kFifo) != nullptr) {
    // b overtakes a: filled while a is still pending.
    fleet->CommitOne(kFifo, One(UpdateOp::Insert(s.sub, {kPlantA})), true, t, tally);
    fleet->CommitOne(kFifo,
                     {UpdateOp::Delete(s.sub, {kPlantA}), UpdateOp::Insert(s.sub, {kPlantB})},
                     true, t + 1, tally);
    fleet->CommitOne(kFifo,
                     {UpdateOp::Delete(s.sub, {kPlantB}), UpdateOp::Insert(s.fill, {kPlantB})},
                     false, t + 2, tally);
  }
  if (fleet->monitor(kSession) != nullptr) {
    fleet->CommitOne(kSession, One(UpdateOp::Insert(s.open, {kPlantA})), true, t, tally);
    fleet->CommitOne(kSession, One(UpdateOp::Delete(s.open, {kPlantA})), false, t + 1, tally);
  }
  if (fleet->monitor(kQtcn) != nullptr) {
    fleet->CommitOne(kQtcn, One(UpdateOp::Insert(s.ev[1], {kPlantA})), false, t, tally);
  }
  if (fleet->monitor(kFillAfterSub) != nullptr) {
    fleet->CommitOne(kFillAfterSub, One(UpdateOp::Insert(s.fill, {kPlantA})), false, t, tally);
  }
  if (fleet->trigger() != nullptr) {
    const Transaction steps[3] = {One(UpdateOp::Insert(s.sub, {kPlantA})),
                                  One(UpdateOp::Delete(s.sub, {kPlantA})),
                                  One(UpdateOp::Insert(s.sub, {kPlantA}))};
    for (int i = 0; i < 3; ++i) {
      auto fired = fleet->trigger()->OnTransaction(steps[i]);
      bool want = i == 2;
      bool ok = fired.ok() && fired->size() == (want ? 1u : 0u);
      if (ok && want) {
        const checker::TriggerFiring& f = fired->front();
        ok = f.time == t + 2 && f.substitution.size() == 1 &&
             f.substitution.begin()->second == kPlantA;
      }
      tally->Check(ok, "planted dup_submission at t=" + std::to_string(t + i));
    }
  }
}

class OrdersFresh : public Workload {
 public:
  OrdersFresh(const Schema* s, uint64_t seed, Scale scale)
      : s_(s), stream_(s, Mix(seed)) {
    plan.unit_txns = scale == Scale::kFull ? 32 : 16;
    plan.checkpoint_every = plan.unit_txns;  // the episode is archived
  }

  Result<std::unique_ptr<Fleet>> Setup(size_t, Tally*, LayerClock*) override {
    stream_.Reset(plan.unit_txns);
    return Fleet::Create(s_, {kSubmitOnce, kFifo, kFillAfterSub}, true);
  }

  Transaction Next(size_t) override { return stream_.Next(); }
  Transaction Quiet() override { return stream_.Quiet(); }

  // The Theorem 4.2 reference: batch potential satisfaction of the whole
  // episode must agree with each monitor's incremental verdict. It runs the
  // literal procedure (ground, rewrite the prefix, tableau), which on these
  // multi-instance groundings is also far cheaper than compiling automata.
  Status EndUnit(Fleet* fleet, Tally* tally, Samples* samples) override {
    checker::CheckOptions batch;
    batch.want_witness = false;
    batch.backend = checker::MonitorBackend::kProgression;
    const History& h = fleet->trigger()->history();
    for (ConstraintId id : {kSubmitOnce, kFifo}) {
      Clock::time_point t0 = Clock::now();
      auto r = checker::CheckPotentialSatisfaction(*s_->factory, s_->formula[id], h, {},
                                                   batch);
      samples->batch_ms.push_back(Since(t0) * 1e3);
      TIC_RETURN_NOT_OK(r.status());
      tally->Check(r->potentially_satisfied ==
                       fleet->monitor(id)->last_verdict().potentially_satisfied,
                   std::string("batch oracle disagrees on ") + ConstraintName(id));
    }
    return Status::OK();
  }

 private:
  const Schema* s_;
  OrderStream stream_;
};

enum class Shape { kSteady, kIdle, kChurn };

class PopulationWorkload : public Workload {
 public:
  PopulationWorkload(const Schema* s, uint64_t seed, Shape shape, Scale scale)
      : s_(s), seed_(seed), shape_(shape) {
    bool full = scale == Scale::kFull;
    switch (shape) {
      case Shape::kSteady:
        entities_ = full ? 1024 : 64;
        warmup_ = full ? 512 : 32;
        plan.compact_every = 32;
        plan.checkpoint_every = full ? 512 : 64;
        plan.setup_repeats = full ? 5 : 1;
        break;
      case Shape::kIdle:
        entities_ = full ? 1024 : 128;
        flip_txns_ = full ? 128 : 8;
        warmup_ = full ? 256 : 64;
        plan.compact_every = full ? 8192 : 128;
        plan.checkpoint_every = full ? 16384 : 256;
        plan.setup_repeats = full ? 5 : 1;
        break;
      case Shape::kChurn:
        entities_ = full ? 256 : 32;
        plan.unit_txns = full ? 4096 : 512;
        plan.checkpoint_every = full ? 512 : 128;
        break;
    }
  }

  Result<std::unique_ptr<Fleet>> Setup(size_t unit, Tally* tally,
                                        LayerClock* clock) override {
    pop_ = std::make_unique<Population>(s_, Mix(seed_ ^ Mix(unit)));
    TIC_ASSIGN_OR_RETURN(std::unique_ptr<Fleet> fleet,
                         Fleet::Create(s_, {kSubmitOnce, kSession, kQtcn, kFillAfterSub},
                                       false));
    for (const Transaction& txn : pop_->Preload(entities_)) {
      TIC_RETURN_NOT_OK(fleet->Commit(txn, true, tally, clock));
    }
    // The session cohort's gather gets slower as flips accumulate, then
    // levels off: an idle stream's median commit rises by about a quarter
    // over its first few thousand flips, while an idle stream without flips
    // stays flat. idle_fleet flips too rarely
    // to get there in a warm-up of its own stream, so its set-up first packs
    // that flip history into a few transactions; population_steady's own
    // warm-up flips enough. Both compact on the measured schedule, so that
    // set-up holds no more history than the measured stream does.
    auto compact = [&]() -> Status {
      for (Fleet::Member& m : fleet->members()) TIC_RETURN_NOT_OK(m.monitor->Compact());
      return Status::OK();
    };
    for (size_t i = 0; i < flip_txns_ + warmup_; ++i) {
      Transaction txn = i < flip_txns_ ? pop_->SessionFlips(64) : Next(i - flip_txns_);
      TIC_RETURN_NOT_OK(fleet->Commit(txn, true, tally, clock));
      if (plan.compact_every != 0 && (i + 1) % plan.compact_every == 0) {
        TIC_RETURN_NOT_OK(compact());
      }
    }
    TIC_RETURN_NOT_OK(compact());
    return fleet;
  }

  Transaction Next(size_t i) override {
    switch (shape_) {
      case Shape::kSteady:
        return pop_->Mixed(3);
      case Shape::kIdle:
        return i % 64 == 63 ? pop_->SessionFlips(1) : Transaction{};
      case Shape::kChurn: {
        // 64 burst transactions (a fresh entity every 8th), then 64 quiet.
        size_t phase = i % 128;
        if (phase < 64) return phase % 8 == 7 ? pop_->Arrive() : pop_->Mixed(3);
        return phase == 64 ? pop_->Quiet() : Transaction{};
      }
    }
    return {};
  }

  Transaction Quiet() override { return pop_->Quiet(); }

  // Fresh-element catch-up after compaction: the median commit latency of
  // arrivals (a fresh entity) and of the other burst transactions, by
  // quarter of the checkpoint period. Flat arrivals mean catch-up does not
  // grow with the history since the last compaction.
  void AddNotes(const Samples& s, std::vector<std::string>* notes) override {
    if (shape_ != Shape::kChurn) return;
    const size_t quarter = plan.checkpoint_every / 4;
    std::vector<double> arrivals[4], others[4];
    for (size_t k = 0; k < s.update_us.size(); ++k) {
      size_t i = k % plan.unit_txns;  // units run whole, so k counts from a unit start
      if (i % 128 >= 64) continue;    // quiet phase
      size_t q = (i % plan.checkpoint_every) / quarter;
      (i % 8 == 7 ? arrivals : others)[q].push_back(s.update_us[k]);
    }
    std::string line = "catch-up by quarter since checkpoint, p50 us arrival/other:";
    for (int q = 0; q < 4; ++q) {
      char part[48];
      std::snprintf(part, sizeof(part), " %.1f/%.1f", Median(arrivals[q]), Median(others[q]));
      line += part;
    }
    notes->push_back(line);
  }

 private:
  const Schema* s_;
  uint64_t seed_;
  Shape shape_;
  size_t entities_ = 0;
  size_t flip_txns_ = 0;  // set-up transactions of SessionFlips(64)
  size_t warmup_ = 0;
  std::unique_ptr<Population> pop_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name, const Schema* s,
                                       uint64_t seed, Scale scale) {
  if (name == "orders_fresh") return std::make_unique<OrdersFresh>(s, seed, scale);
  if (name == "population_steady") {
    return std::make_unique<PopulationWorkload>(s, seed, Shape::kSteady, scale);
  }
  if (name == "idle_fleet") {
    return std::make_unique<PopulationWorkload>(s, seed, Shape::kIdle, scale);
  }
  if (name == "checkpoint_churn") {
    return std::make_unique<PopulationWorkload>(s, seed, Shape::kChurn, scale);
  }
  return nullptr;
}

struct Phase {
  Samples samples;
  LayerClock clock;
  uint64_t commits = 0;
  std::unique_ptr<Fleet> last;  // the fleet of the final unit
};

// Runs set-up, the measured stream and the unit checks for `seconds`: a
// steady workload streams for that long after its set-ups; a workload of
// bounded units runs whole units until that much time has passed.
Status RunPhase(Workload* w, double seconds, bool traced, bool self_test,
                size_t setup_repeats, Tally* tally, Phase* ph) {
  const Plan& p = w->plan;
  const bool steady = p.unit_txns == 0;
  Samples* s = &ph->samples;
  LayerClock* clock = traced ? &ph->clock : nullptr;
  Clock::time_point phase_start = Clock::now();
  const double block_s = seconds / kBlocks;
  double block_wall = 0;  // measured time of the open block
  auto close_block = [&] {
    size_t first = s->blocks.empty() ? 0 : s->blocks.back().end;
    if (s->update_us.size() > first) {
      s->blocks.push_back({first, s->update_us.size(), block_wall});
    }
    block_wall = 0;
  };
  for (size_t unit = 0;; ++unit) {
    std::unique_ptr<Fleet> fleet;
    for (size_t r = 0; r < (steady ? setup_repeats : 1); ++r) {
      fleet.reset();
      LayerClock setup_clock;  // discarded: set-up is not a measured layer
      Clock::time_point t0 = Clock::now();
      TIC_ASSIGN_OR_RETURN(fleet, w->Setup(unit, tally, traced ? &setup_clock : nullptr));
      s->setup_s.push_back(Since(t0));
    }
    telemetry::SetEnabled(traced);
    const double check_before = s->check_s;
    Clock::time_point start = Clock::now();
    double measured = 0;  // of this unit, checks excluded
    for (size_t i = 0; steady || i < p.unit_txns; ++i) {
      if (steady) {
        measured = Since(start) - (s->check_s - check_before);
        if (measured >= (s->blocks.size() + 1) * block_s) {
          block_wall += measured - s->wall_s;
          s->wall_s = measured;
          close_block();
        }
        if (measured >= seconds) break;
      }
      Transaction txn = w->Next(i);
      bool expect = !(self_test && ph->commits == kSelfTestCommit);
      Clock::time_point t0 = Clock::now();
      TIC_RETURN_NOT_OK(fleet->Commit(txn, expect, tally, clock));
      s->update_us.push_back(Since(t0) * 1e6);
      ++ph->commits;
      if (p.checkpoint_every != 0 && (i + 1) % p.checkpoint_every == 0) {
        TIC_RETURN_NOT_OK(fleet->Checkpoint(true, s, tally, clock));
      } else if (p.compact_every != 0 && (i + 1) % p.compact_every == 0) {
        TIC_RETURN_NOT_OK(fleet->Checkpoint(false, s, tally, clock));
      }
    }
    if (steady) {
      block_wall += measured - s->wall_s;
      s->wall_s = measured;
      close_block();
    } else {
      measured = Since(start) - (s->check_s - check_before);
      s->wall_s += measured;
      block_wall += measured;
    }
    telemetry::SetEnabled(false);
    TIC_RETURN_NOT_OK(w->EndUnit(fleet.get(), tally, s));
    ph->last = std::move(fleet);
    if (steady) return Status::OK();
    if (Since(phase_start) >= (s->blocks.size() + 1) * block_s) close_block();
    if (Since(phase_start) >= seconds) {
      close_block();
      return Status::OK();
    }
  }
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Self time of each span name, summed over every path it occurs on: a span's
// total minus the totals of its direct children ("span/<path>/<name>").
std::map<std::string, double> SpanSelfNs(const telemetry::MetricsSnapshot& snap) {
  std::map<std::string, double> total;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("span/", 0) == 0) total[name.substr(5)] = static_cast<double>(h.sum);
  }
  std::map<std::string, double> self;
  for (const auto& [path, sum] : total) {
    double children = 0;
    std::string prefix = path + "/";
    for (auto it = total.upper_bound(prefix);
         it != total.end() && it->first.rfind(prefix, 0) == 0; ++it) {
      if (it->first.find('/', prefix.size()) == std::string::npos) children += it->second;
    }
    size_t slash = path.rfind('/');
    self[slash == std::string::npos ? path : path.substr(slash + 1)] += sum - children;
  }
  return self;
}

uint64_t CounterValue(const telemetry::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

const char* BackendName(checker::MonitorBackend b) {
  switch (b) {
    case checker::MonitorBackend::kProgression: return "progression";
    case checker::MonitorBackend::kAutomaton: return "automaton";
    case checker::MonitorBackend::kPastStateless: return "past";
  }
  return "?";
}

// Layers a workload does not exercise read 0, so layer times are reported as
// shares of the measured time (which also makes them less sensitive to the
// host's speed); only layers every workload exercises are absolute.
void AddLayerMetrics(const Phase& ph, double untraced_ups, RunResult* out) {
  auto add = [&](const std::string& name, double v) { out->metrics.emplace_back(name, v); };
  const LayerClock& c = ph.clock;
  const Samples& s = ph.samples;
  const double n = static_cast<double>(std::max<uint64_t>(ph.commits, 1));
  const double wall_ns = s.wall_s * 1e9 - c.shadow_ns;
  auto share = [&](double ns) { return Ratio(ns, wall_ns); };

  add("db.apply_us", c.db_ns / n / 1e3);
  add("db.tuples", c.db_tuples / n);
  for (int id = 0; id < kNumConstraints; ++id) {
    add(std::string("mon.") + ConstraintName(static_cast<ConstraintId>(id)) + ".update_frac",
        share(c.monitor_ns[id]));
  }

  telemetry::MetricsSnapshot snap = telemetry::CollectMetrics();
  std::map<std::string, double> self = SpanSelfNs(snap);
  auto span = [&](const char* metric, std::initializer_list<const char*> names) {
    double ns = 0;
    for (const char* name : names) ns += self[name];
    add(metric, share(ns));
  };
  span("span.update_self", {"monitor.update"});
  span("span.cohort_step", {"monitor.cohort_step"});
  span("span.cohort_rebuild", {"monitor.cohort_rebuild"});
  span("span.fresh_instances", {"monitor.fresh_instances"});
  span("span.automaton_compile", {"monitor.automaton_compile"});
  span("span.automaton_step", {"monitor.automaton_step"});
  span("span.sat_check", {"monitor.sat_check"});
  span("span.tableau_nnf", {"tableau.nnf"});
  span("span.tableau_closure", {"tableau.closure"});
  span("span.tableau_engine", {"tableau.engine_bitset", "tableau.engine_legacy"});
  span("span.tableau_cache_lookup", {"tableau.cache_lookup"});
  span("span.provenance", {"monitor.provenance"});

  add("trigger.on_txn_frac", share(c.trigger_ns));
  // The batch oracle runs outside the measured time; its share compares its
  // cost with that of the incremental work it checks.
  add("batch.check_frac",
      share(std::accumulate(s.batch_ms.begin(), s.batch_ms.end(), 0.0) * 1e6));
  add("ckpt.compact_ms", Median(s.compact_ms));
  add("ckpt.serialize_ms", Median(s.serialize_ms));
  add("ckpt.restore_ms", Median(s.restore_ms));
  add("ckpt.bytes", Median(s.snapshot_kb) * 1024.0);

  auto counter = [&](const char* name) {
    return static_cast<double>(CounterValue(snap, name));
  };
  add("cnt.fresh_elements", counter("monitor/fresh_elements") / n);
  add("cnt.instances", static_cast<double>(c.instances));
  add("cnt.cohort_slots", static_cast<double>(c.cohort_slots));
  add("cnt.pointalg_instances", static_cast<double>(c.pointalg_instances));
  add("cnt.tableau_calls", counter("tableau/calls") / n);
  add("cnt.tableau_expansions", counter("tableau/expansions") / n);
  add("cnt.automaton_compiles", counter("automaton/compiles") / n);
  add("cnt.cohort_rebuilds", counter("monitor/cohort_rebuilds") / n);
  add("ratio.verdict_cache_hit",
      Ratio(counter("verdict_cache/hits"),
            counter("verdict_cache/hits") + counter("verdict_cache/misses")));
  add("ratio.automaton_memo_hit",
      Ratio(counter("automaton/transition_memo_hits"),
            counter("automaton/transition_memo_hits") +
                counter("automaton/transition_memo_misses")));

  double traced_ups = Ratio(n, wall_ns * 1e-9);
  add("trace_overhead_frac", untraced_ups > 0 ? 1.0 - traced_ups / untraced_ups : 0);
  double covered = c.trigger_ns + c.ckpt_ns;
  for (double ns : c.monitor_ns) covered += ns;
  add("coverage_frac", Ratio(covered, wall_ns));
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"orders_fresh", "population_steady",
                                                  "idle_fleet", "checkpoint_churn"};
  return kNames;
}

RunResult RunWorkload(const RunOptions& o) {
  RunResult out;
  Schema schema;
  std::unique_ptr<Workload> w = MakeWorkload(o.workload, &schema, o.seed, o.scale);
  if (w == nullptr) return out;
  const bool steady = w->plan.unit_txns == 0;
  const bool full = o.scale == Scale::kFull;
  auto fail = [&](const Status& st) {
    out.tally.Check(false, st.ToString());
    return out;
  };

  Phase main;
  // A traced run splits its time: the first half untraced (the reference
  // throughput), the second half traced with the same seed.
  const double seconds = o.trace ? o.seconds / 2 : o.seconds;
  Status st = RunPhase(w.get(), seconds, false, o.self_test,
                       o.trace ? 1 : w->plan.setup_repeats, &out.tally, &main);
  if (!st.ok()) return fail(st);
  const Samples& s = main.samples;
  const double ups = static_cast<double>(main.commits) / s.wall_s;
  std::vector<double> block_ups, block_p50, block_p99;
  for (const Samples::Block& b : s.blocks) {
    std::vector<double> slice(s.update_us.begin() + b.first, s.update_us.begin() + b.end);
    block_ups.push_back(static_cast<double>(slice.size()) / b.wall_s);
    block_p50.push_back(Quantile(slice, 0.50));
    block_p99.push_back(Quantile(slice, 0.99));
  }
  w->AddNotes(s, &out.notes);

  Phase traced;
  Phase* last = &main;
  if (o.trace) {
    w = MakeWorkload(o.workload, &schema, o.seed, o.scale);
    telemetry::ResetMetrics();
    st = RunPhase(w.get(), seconds, true, false, 1, &out.tally, &traced);
    if (!st.ok()) return fail(st);
    last = &traced;
  }

  if (steady && full && !o.trace && s.update_us.size() >= 10) {
    // Stationarity guard: set-up reached equilibrium when the measured
    // stream's median latency does not drift between its halves. Each half
    // is cut into five chunks and the chunks' medians compared by their
    // median, so that a short stall of the host, which moves one chunk, does
    // not count. The drift is reported, and baseline.py does not commit runs
    // at kMaxDrift or more; it does not fail the run, because a slowdown of
    // the host lasting a whole half (seen at +45% for 20 s on a shared 4-core
    // host) would then read as a wrong result.
    const size_t chunk = s.update_us.size() / 10;
    std::vector<double> halves[2];
    for (size_t c = 0; c < 10; ++c) {
      auto first = s.update_us.begin() + static_cast<std::ptrdiff_t>(c * chunk);
      halves[c / 5].push_back(Median(std::vector<double>(first, first + chunk)));
    }
    const double a = Median(halves[0]), b = Median(halves[1]);
    const double drift = std::abs(b - a) / a;
    char line[128];
    std::snprintf(line, sizeof(line), "stationarity: update_p50_us %.3f -> %.3f (%.1f%%)", a,
                  b, 100 * drift);
    out.notes.push_back(line);
    if (drift >= kMaxDrift) std::fprintf(stderr, "bench_e2e: not stationary: %s\n", line);
  }

  // A quiet commit ends the stream's events, so that each planted violation
  // is the only one, and refreshes every verdict (restored ones included).
  Fleet* fleet = last->last.get();
  st = fleet->Commit(w->Quiet(), true, &out.tally, nullptr);
  if (!st.ok()) return fail(st);
  for (const Fleet::Member& m : fleet->members()) {
    const checker::MonitorVerdict& v = m.monitor->last_verdict();
    char line[192];
    std::snprintf(line, sizeof(line),
                  "engine %s: backend=%s instances=%zu cohort_slots=%zu pointalg=%zu",
                  ConstraintName(m.id), BackendName(v.backend), v.num_instances,
                  v.num_cohort_instances, v.num_pointalg_instances);
    out.notes.push_back(line);
  }
  PlantViolations(schema, fleet, &out.tally);
  char line[128];
  std::snprintf(line, sizeof(line), "commits=%llu measured_s=%.3f setups=%zu blocks=%zu",
                static_cast<unsigned long long>(main.commits), s.wall_s, s.setup_s.size(),
                s.blocks.size());
  out.notes.push_back(line);

  if (o.trace) {
    AddLayerMetrics(traced, ups, &out);
  } else {
    out.metrics = {{"setup_s", Median(s.setup_s)},
                   {"updates_per_s", Median(block_ups)},
                   {"update_p50_us", Median(block_p50)},
                   {"update_p99_us", Median(block_p99)},
                   {"peak_rss_mb", PeakRssMb()},
                   {"compact_p50_ms", Median(s.compact_ms)},
                   {"checkpoint_p50_ms", Median(s.checkpoint_ms)},
                   {"snapshot_kb", Median(s.snapshot_kb)}};
  }
  out.ok = true;
  return out;
}

}  // namespace e2e
}  // namespace tic
