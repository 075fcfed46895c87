#ifndef TIC_BENCH_E2E_WORKLOADS_H_
#define TIC_BENCH_E2E_WORKLOADS_H_

// The benchmark's traffic: the Section 2 vocabulary, the five watched
// constraints, and seeded transaction streams for the four workloads. The
// generators live here, not in src/, so that refactors of the library cannot
// change the traffic the benchmark replays.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "db/update.h"
#include "fotl/factory.h"

namespace tic {
namespace e2e {

enum ConstraintId { kSubmitOnce, kFifo, kSession, kQtcn, kFillAfterSub, kNumConstraints };

const char* ConstraintName(ConstraintId id);

/// Vocabulary Sub/Fill (orders), Open/Closed (sessions), E0..E3 (a 4-event
/// point-algebra chain), the five constraints, and the duplicate-submission
/// trigger condition.
struct Schema {
  Schema();

  VocabularyPtr vocab;
  PredicateId sub = 0, fill = 0, open = 0, closed = 0;
  PredicateId ev[4] = {0, 0, 0, 0};
  std::shared_ptr<fotl::FormulaFactory> factory;
  fotl::Formula formula[kNumConstraints] = {};
  fotl::Formula dup_trigger = nullptr;  // F (Sub(x) & X F Sub(x))
};

/// Seeded source of randomness; the same seed always yields the same stream.
class Rng {
 public:
  explicit Rng(uint64_t seed) : gen_(seed) {}
  uint64_t Below(uint64_t n) { return gen_() % n; }
  double Unit() { return static_cast<double>(gen_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 gen_;
};

/// Zipf(s) over ranks 0..n-1 by inverse CDF. Rank r is entity r + 1, so the
/// oldest entities are the hottest.
class Zipf {
 public:
  Zipf(size_t n, double s);
  Value Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Generator-side model of the entity population shared by the population,
/// idle and churn streams: which sessions are open, which chain events hold,
/// and which instantaneous events (Sub, Fill) must be cleared by the next
/// transaction. Every generated transaction keeps all four population
/// constraints (submit_once, session, qtcn, fill_after_sub) satisfied.
class Population {
 public:
  Population(const Schema* schema, uint64_t seed);

  /// Preload of `n` entities ids 1..n straight to the stationary state of the
  /// stream: every entity submitted once with all four chain events, then each
  /// session open or closed and each chain event held or not by a fair coin
  /// (the uniform state is stationary for the symmetric toggles below).
  std::vector<Transaction> Preload(size_t n);

  /// One transaction of `ops` Zipf(1.1)-chosen operations: a session flip
  /// (1/2), a fill event (1/4), or a chain-event toggle (1/4).
  Transaction Mixed(size_t ops);
  /// Session flips on the distinct entities among `draws` Zipf draws.
  Transaction SessionFlips(size_t draws);
  /// Clears pending instantaneous events; empty when there are none.
  Transaction Quiet();
  /// A fresh entity joins: submitted, all chain events, session closed.
  Transaction Arrive();

 private:
  void ClearEvents(Transaction* txn);
  void FlipSession(Value e, Transaction* txn);
  void Grow();

  const Schema* s_;
  Rng rng_;
  std::unique_ptr<Zipf> zipf_;
  std::vector<uint8_t> open_;      // index e - 1
  std::vector<uint8_t> chain_;     // bitmask of chain events held
  std::vector<Value> subs_, fills_;  // events to clear next transaction
};

/// Order stream of `orders_fresh`. An episode of n transactions holds exactly
/// n/2 new orders, 3n/8 fills of the oldest pending order (FIFO) and the rest
/// idle, in a seeded random order; Sub and Fill are instantaneous events.
/// Fixing the counts keeps the work of an episode the same on every seed.
class OrderStream {
 public:
  explicit OrderStream(const Schema* schema, uint64_t seed)
      : s_(schema), rng_(seed) {}

  /// Starts an episode of `txns` transactions: no pending orders, ids
  /// restart at 1.
  void Reset(size_t txns);
  Transaction Next();
  /// Clears pending instantaneous events; empty when there are none.
  Transaction Quiet();

 private:
  const Schema* s_;
  Rng rng_;
  Value next_id_ = 1;
  std::vector<Value> pending_;  // FIFO queue of unfilled orders
  size_t head_ = 0;
  size_t subs_left_ = 0, fills_left_ = 0, idle_left_ = 0;
  Value last_sub_ = 0, last_fill_ = 0;  // events to clear next transaction
};

}  // namespace e2e
}  // namespace tic

#endif  // TIC_BENCH_E2E_WORKLOADS_H_
