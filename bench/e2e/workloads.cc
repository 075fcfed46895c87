#include "bench/e2e/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "fotl/parser.h"

namespace tic {
namespace e2e {

namespace {

fotl::Formula MustParse(fotl::FormulaFactory* f, const std::string& text) {
  auto r = fotl::Parse(f, text.c_str());
  if (!r.ok()) {
    std::fprintf(stderr, "bench_e2e: cannot parse %s: %s\n", text.c_str(),
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return *r;
}

}  // namespace

const char* ConstraintName(ConstraintId id) {
  static const char* const kNames[kNumConstraints] = {
      "submit_once", "fifo", "session", "qtcn", "fill_after_sub"};
  return kNames[id];
}

Schema::Schema() {
  auto v = std::make_shared<Vocabulary>();
  sub = *v->AddPredicate("Sub", 1);
  fill = *v->AddPredicate("Fill", 1);
  open = *v->AddPredicate("Open", 1);
  closed = *v->AddPredicate("Closed", 1);
  static const char* const kEv[4] = {"E0", "E1", "E2", "E3"};
  for (int i = 0; i < 4; ++i) ev[i] = *v->AddPredicate(kEv[i], 1);
  vocab = v;
  factory = std::make_shared<fotl::FormulaFactory>(vocab);
  fotl::FormulaFactory* f = factory.get();
  formula[kSubmitOnce] = MustParse(f, "forall x . G (Sub(x) -> X G !Sub(x))");
  formula[kFifo] = MustParse(
      f,
      "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) until "
      "(Sub(y) & ((!Fill(x)) until (Fill(y) & !Fill(x))))))");
  formula[kSession] =
      MustParse(f, "forall x . G (Open(x) -> X (Open(x) | Closed(x)))");
  // first(Ei) at or before first(Ei+1), spelled through until.
  std::string chain = "forall x . ";
  for (int i = 0; i < 3; ++i) {
    const std::string a = std::string(kEv[i]) + "(x)";
    const std::string b = std::string(kEv[i + 1]) + "(x)";
    if (i > 0) chain += " & ";
    chain += "!((!" + a + ") until (" + b + " & !" + a + "))";
  }
  formula[kQtcn] = MustParse(f, chain);
  formula[kFillAfterSub] = MustParse(f, "G (forall x . Fill(x) -> O Sub(x))");
  dup_trigger = MustParse(f, "F (Sub(x) & X F Sub(x))");
}

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

Value Zipf::Sample(Rng* rng) const {
  double u = rng->Unit();
  size_t r = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                 cdf_.begin());
  return static_cast<Value>(std::min(r, cdf_.size() - 1)) + 1;
}

Population::Population(const Schema* schema, uint64_t seed)
    : s_(schema), rng_(seed) {}

void Population::Grow() { zipf_ = std::make_unique<Zipf>(open_.size(), 1.1); }

std::vector<Transaction> Population::Preload(size_t n) {
  Transaction born, settle;
  for (size_t i = 0; i < n; ++i) {
    Value e = static_cast<Value>(i) + 1;
    bool open = rng_.Below(2) == 1;
    born.push_back(UpdateOp::Insert(s_->sub, {e}));
    born.push_back(UpdateOp::Insert(open ? s_->open : s_->closed, {e}));
    for (PredicateId p : s_->ev) born.push_back(UpdateOp::Insert(p, {e}));
    settle.push_back(UpdateOp::Delete(s_->sub, {e}));
    uint8_t mask = 0;
    for (int j = 0; j < 4; ++j) {
      if (rng_.Below(2) == 1) {
        mask |= static_cast<uint8_t>(1u << j);
      } else {
        settle.push_back(UpdateOp::Delete(s_->ev[j], {e}));
      }
    }
    open_.push_back(open ? 1 : 0);
    chain_.push_back(mask);
  }
  Grow();
  return {std::move(born), std::move(settle)};
}

void Population::FlipSession(Value e, Transaction* txn) {
  uint8_t& open = open_[e - 1];
  // Closing inserts Closed in the same state that drops Open, as the session
  // constraint demands; Closed persists until the session reopens.
  txn->push_back(UpdateOp::Delete(open ? s_->open : s_->closed, {e}));
  txn->push_back(UpdateOp::Insert(open ? s_->closed : s_->open, {e}));
  open ^= 1;
}

void Population::ClearEvents(Transaction* txn) {
  for (Value e : subs_) txn->push_back(UpdateOp::Delete(s_->sub, {e}));
  for (Value e : fills_) txn->push_back(UpdateOp::Delete(s_->fill, {e}));
  subs_.clear();
  fills_.clear();
}

Transaction Population::Quiet() {
  Transaction txn;
  ClearEvents(&txn);
  return txn;
}

Transaction Population::SessionFlips(size_t draws) {
  Transaction txn;
  ClearEvents(&txn);
  std::vector<Value> seen;
  for (size_t i = 0; i < draws; ++i) {
    Value e = zipf_->Sample(&rng_);
    if (std::find(seen.begin(), seen.end(), e) != seen.end()) continue;
    seen.push_back(e);
    FlipSession(e, &txn);
  }
  return txn;
}

Transaction Population::Mixed(size_t ops) {
  Transaction txn;
  ClearEvents(&txn);
  for (size_t i = 0; i < ops; ++i) {
    Value e = zipf_->Sample(&rng_);
    uint64_t kind = rng_.Below(4);
    if (kind < 2) {
      FlipSession(e, &txn);
    } else if (kind == 2) {
      txn.push_back(UpdateOp::Insert(s_->fill, {e}));
      if (std::find(fills_.begin(), fills_.end(), e) == fills_.end()) {
        fills_.push_back(e);
      }
    } else {
      // Every chain event has occurred once, so toggling keeps the chain.
      int j = static_cast<int>(rng_.Below(4));
      uint8_t& mask = chain_[e - 1];
      bool held = (mask >> j) & 1u;
      txn.push_back(held ? UpdateOp::Delete(s_->ev[j], {e})
                         : UpdateOp::Insert(s_->ev[j], {e}));
      mask ^= static_cast<uint8_t>(1u << j);
    }
  }
  return txn;
}

Transaction Population::Arrive() {
  Transaction txn;
  ClearEvents(&txn);
  Value e = static_cast<Value>(open_.size()) + 1;
  txn.push_back(UpdateOp::Insert(s_->sub, {e}));
  txn.push_back(UpdateOp::Insert(s_->closed, {e}));
  for (PredicateId p : s_->ev) txn.push_back(UpdateOp::Insert(p, {e}));
  subs_.push_back(e);
  open_.push_back(0);
  chain_.push_back(0xF);
  Grow();
  return txn;
}

void OrderStream::Reset(size_t txns) {
  next_id_ = 1;
  pending_.clear();
  head_ = 0;
  subs_left_ = txns / 2;
  fills_left_ = txns * 3 / 8;
  idle_left_ = txns - subs_left_ - fills_left_;
  last_sub_ = last_fill_ = 0;
}

Transaction OrderStream::Quiet() {
  Transaction txn;
  if (last_sub_ != 0) txn.push_back(UpdateOp::Delete(s_->sub, {last_sub_}));
  if (last_fill_ != 0) txn.push_back(UpdateOp::Delete(s_->fill, {last_fill_}));
  last_sub_ = last_fill_ = 0;
  return txn;
}

Transaction OrderStream::Next() {
  Transaction txn = Quiet();
  size_t left = subs_left_ + fills_left_ + idle_left_;
  if (left == 0) return txn;
  size_t r = rng_.Below(left);
  bool fill = r >= subs_left_ && r < subs_left_ + fills_left_;
  if (fill && head_ == pending_.size()) {
    // Nothing to fill yet: submit now instead. Orders outnumber fills, so a
    // submission is always left when nothing is pending.
    fill = false;
    r = 0;
  }
  if (fill) {
    --fills_left_;
    last_fill_ = pending_[head_++];
    txn.push_back(UpdateOp::Insert(s_->fill, {last_fill_}));
  } else if (r < subs_left_) {
    --subs_left_;
    last_sub_ = next_id_++;
    pending_.push_back(last_sub_);
    txn.push_back(UpdateOp::Insert(s_->sub, {last_sub_}));
  } else {
    --idle_left_;
  }
  return txn;
}

}  // namespace e2e
}  // namespace tic
