// Experiment A6: snapshot/restore and checkpointed compaction. Measures (a)
// TICSNAP01 serialize/restore latency and snapshot size as functions of
// history length t and instance count N, (b) Compact() cost, and (c) the
// tentpole guarantee that compaction makes snapshot size and fresh-element
// catch-up O(state) instead of O(t): the post-compaction snapshot is
// byte-identical in size across history lengths (asserted, not just
// reported), and a fresh element arriving after the fold is caught up from
// the checkpoint patterns instead of replaying the whole stored word.

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "checker/checkpoint.h"
#include "checker/monitor.h"

namespace tic {
namespace {

bench::OrdersFixture& Fixture() {
  static bench::OrdersFixture* f = new bench::OrdersFixture();
  return *f;
}

// A monitor over submit-once with N relevant elements (Fill(1..N) at t=0,
// never any Sub) and a period-2 Fill(1) toggle for the remaining t-1 updates:
// the relevant set stays {1..N} while the RLE word grows with t (alternating
// letters defeat run-length folding — the worst case compaction exists for).
Result<std::unique_ptr<checker::Monitor>> WarmMonitor(size_t t, size_t n) {
  auto& fx = Fixture();
  TIC_ASSIGN_OR_RETURN(std::unique_ptr<checker::Monitor> m,
                       checker::Monitor::Create(fx.factory, fx.submit_once));
  Transaction seed;
  for (Value v = 1; v <= static_cast<Value>(n); ++v) {
    seed.push_back(UpdateOp::Insert(fx.fill, {v}));
  }
  TIC_RETURN_NOT_OK(m->ApplyTransaction(seed).status());
  for (size_t i = 1; i < t; ++i) {
    Transaction txn;
    if (i % 2 == 1) {
      txn.push_back(UpdateOp::Delete(fx.fill, {1}));
    } else {
      txn.push_back(UpdateOp::Insert(fx.fill, {1}));
    }
    TIC_RETURN_NOT_OK(m->ApplyTransaction(txn).status());
  }
  return m;
}

void BM_Snapshot_SerializeVsHistory(benchmark::State& state) {
  size_t t = static_cast<size_t>(state.range(0));
  auto m = WarmMonitor(t, 8);
  if (!m.ok()) {
    state.SkipWithError(m.status().ToString().c_str());
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    auto blob = checker::MonitorCheckpoint::Serialize(**m);
    if (!blob.ok()) {
      state.SkipWithError(blob.status().ToString().c_str());
      return;
    }
    bytes = blob->size();
    benchmark::DoNotOptimize(blob->data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["history_length"] = static_cast<double>(t);
}
BENCHMARK(BM_Snapshot_SerializeVsHistory)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_Snapshot_SerializeVsInstances(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto m = WarmMonitor(32, n);
  if (!m.ok()) {
    state.SkipWithError(m.status().ToString().c_str());
    return;
  }
  size_t bytes = 0;
  for (auto _ : state) {
    auto blob = checker::MonitorCheckpoint::Serialize(**m);
    if (!blob.ok()) {
      state.SkipWithError(blob.status().ToString().c_str());
      return;
    }
    bytes = blob->size();
    benchmark::DoNotOptimize(blob->data());
  }
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["instances"] =
      static_cast<double>((*m)->last_verdict().num_instances);
}
BENCHMARK(BM_Snapshot_SerializeVsInstances)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_Snapshot_RestoreVsHistory(benchmark::State& state) {
  size_t t = static_cast<size_t>(state.range(0));
  auto m = WarmMonitor(t, 8);
  if (!m.ok()) {
    state.SkipWithError(m.status().ToString().c_str());
    return;
  }
  auto blob = checker::MonitorCheckpoint::Serialize(**m);
  if (!blob.ok()) {
    state.SkipWithError(blob.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    auto r = checker::MonitorCheckpoint::Restore(*blob);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r->get());
  }
  state.counters["bytes"] = static_cast<double>(blob->size());
  state.counters["history_length"] = static_cast<double>(t);
}
BENCHMARK(BM_Snapshot_RestoreVsHistory)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

// Manual timing for the same reason as the catch-up bench below: the O(t)
// per-iteration monitor rebuild happens off the clock.
void BM_Snapshot_Compact(benchmark::State& state) {
  size_t t = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto m = WarmMonitor(t, 8);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    auto start = std::chrono::steady_clock::now();
    Status s = (*m)->Compact();
    auto end = std::chrono::steady_clock::now();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["history_length"] = static_cast<double>(t);
}
BENCHMARK(BM_Snapshot_Compact)
    ->Arg(16)->Arg(64)->Arg(256)->Arg(1024)->UseManualTime();

// The headline size guarantee, asserted: drive the same periodic stream to
// even lengths t and 2t (identical final database state), compact both, and
// require byte-EQUAL snapshots — the compacted image must not retain any
// per-instant state. The raw (uncompacted) sizes are reported alongside to
// show what was folded away.
void BM_Snapshot_SizeFlatAfterCompact(benchmark::State& state) {
  size_t t = static_cast<size_t>(state.range(0));
  auto snap_size = [&](size_t len, bool compact) -> Result<size_t> {
    TIC_ASSIGN_OR_RETURN(std::unique_ptr<checker::Monitor> m,
                         WarmMonitor(len, 8));
    if (compact) TIC_RETURN_NOT_OK(m->Compact());
    TIC_ASSIGN_OR_RETURN(std::string blob,
                         checker::MonitorCheckpoint::Serialize(*m));
    return blob.size();
  };
  auto raw_t = snap_size(t, false);
  auto compact_t = snap_size(t, true);
  auto compact_2t = snap_size(2 * t, true);
  if (!raw_t.ok() || !compact_t.ok() || !compact_2t.ok()) {
    state.SkipWithError("snapshot size probe failed");
    return;
  }
  if (*compact_t != *compact_2t) {
    state.SkipWithError(
        "compacted snapshot size is NOT flat in history length");
    return;
  }
  for (auto _ : state) {
    auto again = snap_size(t, true);
    if (!again.ok() || *again != *compact_t) {
      state.SkipWithError("compacted snapshot size not reproducible");
      return;
    }
    benchmark::DoNotOptimize(*again);
  }
  state.counters["bytes_raw"] = static_cast<double>(*raw_t);
  state.counters["bytes_compacted"] = static_cast<double>(*compact_t);
  state.counters["history_length"] = static_cast<double>(t);
}
BENCHMARK(BM_Snapshot_SizeFlatAfterCompact)->Arg(16)->Arg(64)->Arg(256);

// The O(state)-vs-O(t) catch-up demonstration: a fresh element joining the
// relevant set after t updates. Without compaction the new instance replays
// the entire stored word (O(t) progression steps); after Compact() it is
// renamed from a pre-enumerated z-pattern and caught up from the checkpoint.
// compact:off timings grow linearly with t; compact:on stay near-flat (the
// residue is heap/cache state from the longer warm-up, not replay work).
// Manual timing: each iteration rebuilds a t-length monitor, and that O(t)
// setup must not leak into the measurement the way PauseTiming bookkeeping
// does — only the arrival transaction itself is on the clock.
void BM_Snapshot_FreshElementCatchUp(benchmark::State& state) {
  auto& fx = Fixture();
  size_t t = static_cast<size_t>(state.range(1));
  bool compact = state.range(0) != 0;
  Value fresh = 1000;
  for (auto _ : state) {
    auto m = WarmMonitor(t, 8);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    if (compact) {
      Status s = (*m)->Compact();
      if (!s.ok()) {
        state.SkipWithError(s.ToString().c_str());
        return;
      }
    }
    // One settling update on both arms: the first update after Compact()
    // rebuilds every placement, a one-time cost we don't want folded into
    // the per-arrival measurement.
    auto settle = (*m)->ApplyTransaction({});
    if (!settle.ok()) {
      state.SkipWithError(settle.status().ToString().c_str());
      return;
    }
    Transaction arrive;
    arrive.push_back(UpdateOp::Insert(fx.fill, {fresh}));
    auto start = std::chrono::steady_clock::now();
    auto v = (*m)->ApplyTransaction(arrive);
    auto end = std::chrono::steady_clock::now();
    if (!v.ok()) {
      state.SkipWithError(v.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(v->num_instances);
    state.SetIterationTime(
        std::chrono::duration<double>(end - start).count());
  }
  state.counters["history_length"] = static_cast<double>(t);
}
BENCHMARK(BM_Snapshot_FreshElementCatchUp)
    ->ArgNames({"compact", "t"})
    ->Args({0, 64})
    ->Args({0, 256})
    ->Args({0, 1024})
    ->Args({1, 64})
    ->Args({1, 256})
    ->Args({1, 1024})
    ->UseManualTime();

}  // namespace
}  // namespace tic

TIC_BENCH_MAIN()
