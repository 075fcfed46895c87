// Tests for the telemetry layer: concurrent counter/histogram increments from
// the thread pool (raced under the TSan preset), span nesting and
// aggregation, Chrome-trace schema validity, the runtime on/off switch, and
// an end-to-end monitor run whose per-phase wall-time split must be visible.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checker/monitor.h"
#include "common/telemetry/json.h"
#include "common/telemetry/telemetry.h"
#include "common/thread_pool.h"
#include "fotl/parser.h"

namespace tic {
namespace telemetry {
namespace {

// Every test starts from a clean slate and leaves telemetry off: the registry
// is process-global, so tests would otherwise see each other's metrics.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTraceSink(nullptr);
    SetEnabled(true);
    ResetMetrics();
  }
  void TearDown() override {
    SetTraceSink(nullptr);
    SetEnabled(false);
    ResetMetrics();
  }
};

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

const HistogramData* FindHistogram(const MetricsSnapshot& snap,
                                   const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

TEST_F(TelemetryTest, CounterConcurrentIncrements) {
  // 4 workers + the caller all hammer one counter; the folded value must be
  // exact. Run under the tsan preset, this is the shard-race check.
  constexpr size_t kTasks = 64;
  constexpr size_t kPerTask = 1000;
  ThreadPool pool(4);
  Counter& c = Registry::Instance().GetCounter("test/concurrent_counter");
  pool.ParallelFor(kTasks, [&](size_t) {
    for (size_t j = 0; j < kPerTask; ++j) c.Add(1);
  });
  EXPECT_EQ(c.Value(), kTasks * kPerTask);
}

TEST_F(TelemetryTest, HistogramConcurrentRecords) {
  constexpr size_t kTasks = 32;
  constexpr size_t kPerTask = 500;
  ThreadPool pool(4);
  Histogram& h = Registry::Instance().GetHistogram("test/concurrent_histogram");
  pool.ParallelFor(kTasks, [&](size_t i) {
    for (size_t j = 0; j < kPerTask; ++j) h.Record(i * kPerTask + j);
  });
  HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, kTasks * kPerTask);
  uint64_t n = kTasks * kPerTask;
  EXPECT_EQ(d.sum, n * (n - 1) / 2);  // sum of 0..n-1
  EXPECT_EQ(d.max, n - 1);
  EXPECT_GE(d.ApproxPercentile(0.95), d.ApproxPercentile(0.50));
  EXPECT_LE(d.ApproxPercentile(0.99), d.max);
}

TEST_F(TelemetryTest, HistogramBucketsAreBitWidths) {
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  EXPECT_EQ(Histogram::BucketOf(~uint64_t{0}), 63u);
}

TEST_F(TelemetryTest, GaugeTracksValueAndMax) {
  Gauge& g = Registry::Instance().GetGauge("test/gauge");
  g.Add(5);
  g.Add(3);
  g.Add(-6);
  EXPECT_EQ(g.Value(), 2);
  EXPECT_EQ(g.Max(), 8);
  g.Set(1);
  EXPECT_EQ(g.Value(), 1);
  EXPECT_EQ(g.Max(), 8);
}

#ifdef TIC_TELEMETRY_ENABLED

TEST_F(TelemetryTest, SpanNestingAggregatesByPath) {
  {
    TIC_SPAN("outer");
    {
      TIC_SPAN("inner");
    }
    {
      TIC_SPAN("inner");
    }
  }
  {
    TIC_SPAN("outer");
  }
  // Same leaf name at the top level is a different path.
  { TIC_SPAN("inner"); }

  MetricsSnapshot snap = CollectMetrics();
  const HistogramData* outer = FindHistogram(snap, "span/outer");
  const HistogramData* nested = FindHistogram(snap, "span/outer/inner");
  const HistogramData* top_inner = FindHistogram(snap, "span/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(nested, nullptr);
  ASSERT_NE(top_inner, nullptr);
  EXPECT_EQ(outer->count, 2u);
  EXPECT_EQ(nested->count, 2u);
  EXPECT_EQ(top_inner->count, 1u);
  // Children cannot outlast their parent.
  EXPECT_GE(outer->sum, nested->sum);

  std::string table = snap.SummaryTable();
  EXPECT_NE(table.find("outer"), std::string::npos);
  EXPECT_NE(table.find("inner"), std::string::npos);
}

TEST_F(TelemetryTest, MacrosAreNoOpsWhenDisabled) {
  SetEnabled(false);
  TIC_COUNTER_ADD("test/disabled_counter", 7);
  TIC_HISTOGRAM_RECORD("test/disabled_histogram", 7);
  { TIC_SPAN("disabled_span"); }
  SetEnabled(true);
  MetricsSnapshot snap = CollectMetrics();
  EXPECT_EQ(CounterValue(snap, "test/disabled_counter"), 0u);
  EXPECT_EQ(FindHistogram(snap, "span/disabled_span"), nullptr);
}

TEST_F(TelemetryTest, SpansFromPoolWorkersAggregateAcrossThreads) {
  constexpr size_t kTasks = 16;
  ThreadPool pool(3);
  pool.ParallelFor(kTasks, [&](size_t) { TIC_SPAN("worker_phase"); });
  // On pool workers the span is a thread root (span/worker_phase); iterations
  // drained by the calling thread nest under its ParallelFor span
  // (span/thread_pool.parallel_for/worker_phase). Every iteration must land
  // in exactly one of the two.
  MetricsSnapshot snap = CollectMetrics();
  uint64_t total = 0;
  for (const auto& kv : snap.histograms) {
    if (kv.first == "span/worker_phase" ||
        kv.first == "span/thread_pool.parallel_for/worker_phase") {
      total += kv.second.count;
    }
  }
  EXPECT_EQ(total, kTasks);
}

TEST_F(TelemetryTest, TraceCaptureRoundTripsThroughValidator) {
  auto sink = std::make_shared<TraceSink>();
  SetTraceSink(sink);
  {
    TIC_SPAN("traced \"phase\"\n");  // name needing JSON escaping
    TIC_SPAN("child");
  }
  SetTraceSink(nullptr);
  ASSERT_EQ(sink->size(), 2u);

  std::string text = sink->SerializeChromeTrace();
  std::string error;
  size_t num_events = 0;
  EXPECT_TRUE(ValidateChromeTrace(text, &error, &num_events)) << error;
  EXPECT_EQ(num_events, 2u);

  // The events must carry the span names (inner exits first).
  std::string parse_error;
  auto doc = ParseJson(text, &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error;
  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_EQ(events->array[0].Find("name")->string, "child");
  EXPECT_EQ(events->array[1].Find("name")->string, "traced \"phase\"\n");
}

TEST_F(TelemetryTest, TraceSinkCapsAndCountsDrops) {
  auto sink = std::make_shared<TraceSink>(2);
  SetTraceSink(sink);
  for (int i = 0; i < 5; ++i) {
    TIC_SPAN("capped");
  }
  SetTraceSink(nullptr);
  EXPECT_EQ(sink->size(), 2u);
  EXPECT_EQ(sink->dropped(), 3u);
  std::string error;
  EXPECT_TRUE(ValidateChromeTrace(sink->SerializeChromeTrace(), &error)) << error;
}

// End-to-end: a >= 50-update monitor run must produce a per-phase wall-time
// summary with the grounding-free (monitor) phases split out — progression,
// conjunction, sat check, cache lookups — and a Perfetto-loadable trace via
// CheckOptions::trace_sink.
TEST_F(TelemetryTest, MonitorRunProducesPhaseSplitAndTrace) {
  auto v = std::make_shared<Vocabulary>();
  PredicateId sub = *v->AddPredicate("Sub", 1);
  PredicateId fill = *v->AddPredicate("Fill", 1);
  VocabularyPtr vocab = v;
  auto fac = std::make_shared<fotl::FormulaFactory>(vocab);
  fotl::Formula submit_once =
      *fotl::Parse(fac.get(), "forall x . G (Sub(x) -> X G !Sub(x))");

  auto sink = std::make_shared<TraceSink>();
  checker::CheckOptions options;
  options.trace_sink = sink;
  // This test asserts the progression backend's per-update phase split
  // (progress + sat_check every update); the automaton backend collapses
  // steady-state updates to memo lookups and is covered below.
  options.backend = checker::MonitorBackend::kProgression;
  auto m = checker::Monitor::Create(fac, submit_once, {}, options);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  for (int t = 0; t < 60; ++t) {
    Transaction txn;
    txn.push_back(UpdateOp::Insert(sub, {static_cast<Value>(t % 5 + 1)}));
    if (t > 0) txn.push_back(UpdateOp::Insert(fill, {static_cast<Value>((t - 1) % 5 + 1)}));
    txn.push_back(UpdateOp::Delete(sub, {static_cast<Value>(t % 5 + 1)}));
    auto v = (*m)->ApplyTransaction(txn);
    ASSERT_TRUE(v.ok()) << v.status().ToString();
  }
  SetTraceSink(nullptr);

  MetricsSnapshot snap = CollectMetrics();
  const HistogramData* update = FindHistogram(snap, "span/monitor.update");
  const HistogramData* progress =
      FindHistogram(snap, "span/monitor.update/monitor.progress");
  const HistogramData* sat =
      FindHistogram(snap, "span/monitor.update/monitor.sat_check");
  ASSERT_NE(update, nullptr);
  ASSERT_NE(progress, nullptr);
  ASSERT_NE(sat, nullptr);
  EXPECT_EQ(update->count, 60u);
  EXPECT_EQ(progress->count, 60u);
  EXPECT_EQ(sat->count, 60u);
  // The phase split is consistent: children are contained in the update time.
  EXPECT_LE(progress->sum + sat->sum, update->sum);
  EXPECT_GT(CounterValue(snap, "monitor/updates"), 0u);
  EXPECT_GT(CounterValue(snap, "tableau/calls"), 0u);
  EXPECT_GT(CounterValue(snap, "verdict_cache/hits") +
                CounterValue(snap, "verdict_cache/misses"),
            0u);

  // The summary table shows the grounding/tableau/cache split by name.
  std::string table = snap.SummaryTable();
  EXPECT_NE(table.find("monitor.update"), std::string::npos);
  EXPECT_NE(table.find("monitor.sat_check"), std::string::npos);
  EXPECT_NE(table.find("verdict_cache"), std::string::npos);

  // The trace is schema-valid and non-trivial.
  std::string error;
  size_t num_events = 0;
  ASSERT_TRUE(ValidateChromeTrace(sink->SerializeChromeTrace(), &error, &num_events))
      << error;
  EXPECT_GE(num_events, 60u);

  // The flat JSON export parses and carries the span metrics.
  std::string json = snap.ToJson();
  std::string parse_error;
  auto doc = ParseJson(json, &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error;
  EXPECT_NE(doc->Find("span/monitor.update/count"), nullptr);
}

TEST_F(TelemetryTest, AutomatonBackendEmitsStepSpansAndMemoCounters) {
  auto v = std::make_shared<Vocabulary>();
  PredicateId sub = *v->AddPredicate("Sub", 1);
  PredicateId fill = *v->AddPredicate("Fill", 1);
  VocabularyPtr vocab = v;
  auto fac = std::make_shared<fotl::FormulaFactory>(vocab);
  // This constraint's instances share atoms outside the release fragment
  // (X), so the automaton backend steps them on progression: monitor.progress
  // spans and CheckSat through the verdict cache (cohort lockstep stepping
  // emits monitor.cohort_step instead).
  fotl::Formula joint = *fotl::Parse(
      fac.get(), "forall x y . G ((Sub(x) & Fill(y)) -> X G !Sub(x))");

  auto sink = std::make_shared<TraceSink>();
  checker::CheckOptions options;
  options.trace_sink = sink;
  auto m = checker::Monitor::Create(fac, joint, {}, options);
  ASSERT_TRUE(m.ok()) << m.status().ToString();

  for (int t = 0; t < 60; ++t) {
    Transaction txn;
    txn.push_back(UpdateOp::Insert(sub, {static_cast<Value>(t % 5 + 1)}));
    if (t > 0) txn.push_back(UpdateOp::Insert(fill, {static_cast<Value>((t - 1) % 5 + 1)}));
    txn.push_back(UpdateOp::Delete(sub, {static_cast<Value>(t % 5 + 1)}));
    auto verdict = (*m)->ApplyTransaction(txn);
    ASSERT_TRUE(verdict.ok()) << verdict.status().ToString();
    ASSERT_EQ(verdict->backend, checker::MonitorBackend::kAutomaton);
  }
  SetTraceSink(nullptr);

  MetricsSnapshot snap = CollectMetrics();
  const HistogramData* update = FindHistogram(snap, "span/monitor.update");
  const HistogramData* progress =
      FindHistogram(snap, "span/monitor.update/monitor.progress");
  ASSERT_NE(update, nullptr);
  ASSERT_NE(progress, nullptr);
  EXPECT_EQ(update->count, 60u);
  // Every update from the third on steps the progression set once. Before
  // it no pair shares atoms: the first update leaves no element relevant,
  // the second only element 1, whose lone pair is a cohort slot.
  EXPECT_EQ(progress->count, 58u);
  uint64_t hits = CounterValue(snap, "verdict_cache/hits");
  uint64_t misses = CounterValue(snap, "verdict_cache/misses");
  EXPECT_GT(hits + misses, 0u);
  // The 5-element round-robin revisits database states, so the verdict cache
  // must hit.
  EXPECT_GT(hits, misses);

  std::string error;
  size_t num_events = 0;
  ASSERT_TRUE(ValidateChromeTrace(sink->SerializeChromeTrace(), &error, &num_events))
      << error;
  EXPECT_GE(num_events, 60u);
}

// Pinned percentile regression: 1000 uniform samples 0..999. The old
// bucket-upper-bound estimator returned the bucket ceiling (p50 = 511,
// p95 = p99 = 1023 — off by up to 2x); with within-bucket interpolation the
// estimates must land within one interpolation step of the exact ranks.
TEST_F(TelemetryTest, PercentilesInterpolateWithinLogBuckets) {
  Histogram h;
  for (uint64_t v = 0; v < 1000; ++v) h.Record(v);
  HistogramData d = h.Snapshot();
  EXPECT_EQ(d.count, 1000u);
  EXPECT_EQ(d.max, 999u);
  EXPECT_NEAR(static_cast<double>(d.ApproxPercentile(0.50)), 499.0, 8.0);
  EXPECT_NEAR(static_cast<double>(d.ApproxPercentile(0.95)), 949.0, 8.0);
  EXPECT_NEAR(static_cast<double>(d.ApproxPercentile(0.99)), 989.0, 8.0);
  EXPECT_LE(d.ApproxPercentile(1.0), d.max);
}

// Satellite coverage for the Chrome-trace exporter under concurrency: pool
// workers emit NESTED spans in parallel through one shared sink. Within each
// tid the span intervals must form a proper stack — every pair of spans
// either disjoint or fully nested, never partially overlapping — and the
// serialized trace must still validate. Run under the tsan preset.
TEST_F(TelemetryTest, ConcurrentNestedSpansKeepPerTidNesting) {
  auto sink = std::make_shared<TraceSink>();
  SetTraceSink(sink);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([] {
        for (int i = 0; i < 12; ++i) {
          TIC_SPAN("outer");
          {
            TIC_SPAN("mid");
            { TIC_SPAN("leaf"); }
            { TIC_SPAN("leaf"); }
          }
          { TIC_SPAN("mid"); }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  SetTraceSink(nullptr);
  ASSERT_EQ(sink->size(), 4u * 12u * 5u);

  std::string text = sink->SerializeChromeTrace();
  std::string error;
  size_t num_events = 0;
  ASSERT_TRUE(ValidateChromeTrace(text, &error, &num_events)) << error;
  ASSERT_EQ(num_events, sink->size());

  std::string parse_error;
  auto doc = ParseJson(text, &parse_error);
  ASSERT_TRUE(doc.has_value()) << parse_error;
  struct Span {
    std::string name;
    double ts, dur;
  };
  std::map<int, std::vector<Span>> by_tid;
  for (const JsonValue& e : doc->Find("traceEvents")->array) {
    by_tid[static_cast<int>(e.Find("tid")->number)].push_back(
        Span{e.Find("name")->string, e.Find("ts")->number,
             e.Find("dur")->number});
  }
  ASSERT_GE(by_tid.size(), 2u) << "spans did not come from multiple threads";
  // Serialization order is completion order, so within a tid a child precedes
  // its enclosing parent, and ts must be non-decreasing along same-name
  // sibling spans. The structural check below subsumes both: no partial
  // interval overlap within a tid (µs rounding gets a small tolerance).
  constexpr double kTolUs = 0.0015;
  for (const auto& [tid, spans] : by_tid) {
    for (size_t i = 0; i < spans.size(); ++i) {
      for (size_t j = i + 1; j < spans.size(); ++j) {
        const Span& a = spans[i];
        const Span& b = spans[j];
        const double a_end = a.ts + a.dur, b_end = b.ts + b.dur;
        const bool disjoint =
            a_end <= b.ts + kTolUs || b_end <= a.ts + kTolUs;
        const bool a_in_b =
            a.ts >= b.ts - kTolUs && a_end <= b_end + kTolUs;
        const bool b_in_a =
            b.ts >= a.ts - kTolUs && b_end <= a_end + kTolUs;
        ASSERT_TRUE(disjoint || a_in_b || b_in_a)
            << "tid " << tid << ": interleaved spans " << a.name << " ["
            << a.ts << ", " << a_end << ") and " << b.name << " [" << b.ts
            << ", " << b_end << ")";
      }
    }
  }
}

#else  // !TIC_TELEMETRY_ENABLED

TEST_F(TelemetryTest, CompiledOutMacrosRecordNothing) {
  TIC_COUNTER_ADD("test/off_counter", 7);
  TIC_HISTOGRAM_RECORD("test/off_histogram", 7);
  { TIC_SPAN("off_span"); }
  MetricsSnapshot snap = CollectMetrics();
  EXPECT_EQ(CounterValue(snap, "test/off_counter"), 0u);
  EXPECT_EQ(FindHistogram(snap, "span/off_span"), nullptr);
}

#endif  // TIC_TELEMETRY_ENABLED

TEST_F(TelemetryTest, JsonParserAcceptsAndRejects) {
  std::string error;
  EXPECT_TRUE(ParseJson("{\"a\": [1, 2.5, -3e2, true, false, null]}", &error)
                  .has_value())
      << error;
  EXPECT_TRUE(ParseJson("\"\\u0041\\n\"", &error).has_value()) << error;
  EXPECT_FALSE(ParseJson("{\"a\": 01}", &error).has_value());
  EXPECT_FALSE(ParseJson("[1,]", &error).has_value());
  EXPECT_FALSE(ParseJson("{} garbage", &error).has_value());
  EXPECT_FALSE(ParseJson("\"unterminated", &error).has_value());
  std::string deep(100, '[');
  EXPECT_FALSE(ParseJson(deep, &error).has_value());
}

TEST_F(TelemetryTest, ValidateChromeTraceRejectsWrongShapes) {
  std::string error;
  EXPECT_FALSE(ValidateChromeTrace("[]", &error));
  EXPECT_FALSE(ValidateChromeTrace("{}", &error));
  EXPECT_FALSE(ValidateChromeTrace("{\"traceEvents\": 3}", &error));
  EXPECT_FALSE(ValidateChromeTrace(
      "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\"}]}", &error));
  size_t n = 0;
  EXPECT_TRUE(ValidateChromeTrace(
      "{\"traceEvents\": [{\"ph\": \"X\", \"name\": \"a\", \"ts\": 0, "
      "\"dur\": 1, \"pid\": 1, \"tid\": 0}, {\"ph\": \"M\", \"name\": "
      "\"meta\"}]}",
      &error, &n))
      << error;
  EXPECT_EQ(n, 1u);
}

TEST_F(TelemetryTest, BuildInfoIsPopulated) {
  const BuildInfo& info = GetBuildInfo();
  EXPECT_FALSE(info.git_sha.empty());
  EXPECT_FALSE(info.build_type.empty());
  std::string error;
  auto doc = ParseJson(BuildInfoJson(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_NE(doc->Find("git_sha"), nullptr);
  EXPECT_NE(doc->Find("build_type"), nullptr);
  EXPECT_NE(doc->Find("telemetry"), nullptr);
#ifdef TIC_TELEMETRY_ENABLED
  EXPECT_TRUE(doc->Find("telemetry")->boolean);
#else
  EXPECT_FALSE(doc->Find("telemetry")->boolean);
#endif
}

TEST_F(TelemetryTest, RegistryResetZeroesButKeepsNames) {
  Registry::Instance().GetCounter("test/reset_me").Add(5);
  ResetMetrics();
  MetricsSnapshot snap = CollectMetrics();
  EXPECT_EQ(CounterValue(snap, "test/reset_me"), 0u);
  bool found = false;
  for (const auto& [n, v] : snap.counters) found = found || n == "test/reset_me";
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace telemetry
}  // namespace tic
