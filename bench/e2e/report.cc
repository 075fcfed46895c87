#include "bench/e2e/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

#include "bench/e2e/stats.h"
#include "common/telemetry/json.h"

namespace tic {
namespace e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"setup_s", "s", true, 0.25},
      {"updates_per_s", "txn/s", false, 0.25},
      {"update_p50_us", "us", true, 0.25},
      {"update_p99_us", "us", true, 0.25},
      {"peak_rss_mb", "MB", true, 0.10},
      {"compact_p50_ms", "ms", true, 0.25},
      {"checkpoint_p50_ms", "ms", true, 0.25},
      {"snapshot_kb", "KB", true, 0.02},
  };
  return kMetrics;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"db.apply_us", "us", true, 0},
      {"db.tuples", "count", true, 0},
      {"mon.submit_once.update_frac", "ratio", true, 0},
      {"mon.fifo.update_frac", "ratio", true, 0},
      {"mon.session.update_frac", "ratio", true, 0},
      {"mon.qtcn.update_frac", "ratio", true, 0},
      {"mon.fill_after_sub.update_frac", "ratio", true, 0},
      {"span.update_self", "ratio", true, 0},
      {"span.cohort_step", "ratio", true, 0},
      {"span.cohort_rebuild", "ratio", true, 0},
      {"span.fresh_instances", "ratio", true, 0},
      {"span.automaton_compile", "ratio", true, 0},
      {"span.automaton_step", "ratio", true, 0},
      {"span.sat_check", "ratio", true, 0},
      {"span.tableau_nnf", "ratio", true, 0},
      {"span.tableau_closure", "ratio", true, 0},
      {"span.tableau_engine", "ratio", true, 0},
      {"span.tableau_cache_lookup", "ratio", true, 0},
      {"span.provenance", "ratio", true, 0},
      {"trigger.on_txn_frac", "ratio", true, 0},
      {"batch.check_frac", "ratio", true, 0},
      {"ckpt.compact_ms", "ms", true, 0},
      {"ckpt.serialize_ms", "ms", true, 0},
      {"ckpt.restore_ms", "ms", true, 0},
      {"ckpt.bytes", "B", true, 0},
      {"cnt.fresh_elements", "1/txn", true, 0},
      {"cnt.instances", "count", true, 0},
      {"cnt.cohort_slots", "count", false, 0},
      {"cnt.pointalg_instances", "count", false, 0},
      {"cnt.tableau_calls", "1/txn", true, 0},
      {"cnt.tableau_expansions", "1/txn", true, 0},
      {"cnt.automaton_compiles", "1/txn", true, 0},
      {"cnt.cohort_rebuilds", "1/txn", true, 0},
      {"ratio.verdict_cache_hit", "ratio", false, 0},
      {"ratio.automaton_memo_hit", "ratio", false, 0},
      {"trace_overhead_frac", "ratio", true, 0},
      {"coverage_frac", "ratio", false, 0},
  };
  return kMetrics;
}

namespace {

const MetricDef* FindMetric(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricDef& m : *table) {
      if (name == m.name) return &m;
    }
  }
  return nullptr;
}

std::string Number(double v) { return telemetry::JsonNumber(v); }

}  // namespace

void PrintRun(const RunOptions& o, const RunResult& r) {
  std::printf("bench_e2e workload=%s seed=%llu seconds=%g trace=%d scale=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.scale == Scale::kFull ? "full" : "smoke");
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::string metrics;
  for (const auto& [name, value] : r.metrics) {
    const MetricDef* def = FindMetric(name);
    const char* unit = def != nullptr ? def->unit : "";
    std::printf("metric %-30s %14.6g %s\n", name.c_str(), value, unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Number(value) + ", \"unit\": \"" + unit +
               "\"}";
  }
  bool correct = r.ok && r.tally.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(r.tally.attempted, 1)),
              static_cast<unsigned long long>(r.tally.failed), metrics.c_str());
  std::fflush(stdout);
}

namespace {

// workload -> metric -> one value per run, in the order the files were given.
using RunSet = std::map<std::string, std::map<std::string, std::vector<double>>>;

bool LoadRun(const std::string& path, RunSet* set) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_e2e --diff: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line, workload, last;
  while (std::getline(in, line)) {
    if (line.rfind("bench_e2e workload=", 0) == 0) {
      workload = line.substr(19, line.find(' ', 19) - 19);
    }
    if (!line.empty()) last = line;
  }
  std::string error;
  auto json = telemetry::ParseJson(last, &error);
  const telemetry::JsonValue* metrics = json ? json->Find("metrics") : nullptr;
  if (workload.empty() || metrics == nullptr) {
    std::fprintf(stderr, "bench_e2e --diff: %s holds no run output %s\n", path.c_str(),
                 error.c_str());
    return false;
  }
  for (const auto& [name, m] : metrics->object) {
    const telemetry::JsonValue* v = m.Find("value");
    if (v != nullptr) (*set)[workload][name].push_back(v->number);
  }
  return true;
}

}  // namespace

int Diff(const std::vector<std::string>& a_files, const std::vector<std::string>& b_files) {
  RunSet a, b;
  for (const std::string& f : a_files) {
    if (!LoadRun(f, &a)) return 2;
  }
  for (const std::string& f : b_files) {
    if (!LoadRun(f, &b)) return 2;
  }
  int worse = 0, unresolved = 0;
  std::printf("%-18s %-29s %12s %25s %12s %25s %8s %6s  %s\n", "workload", "metric",
              "A median", "A [q1, q3]", "B median", "B [q1, q3]", "delta", "bound",
              "verdict");
  for (const auto& [workload, a_metrics] : a) {
    auto bw = b.find(workload);
    if (bw == b.end()) continue;
    for (const auto* table : {&EndToEndMetrics(), &LayerMetrics()}) {
      for (const MetricDef& def : *table) {
        auto ai = a_metrics.find(def.name);
        auto bi = bw->second.find(def.name);
        if (ai == a_metrics.end() || bi == bw->second.end()) continue;
        const std::vector<double>& av = ai->second;
        const std::vector<double>& bv = bi->second;
        auto qa = Quartiles(av);
        auto qb = Quartiles(bv);
        double ma = qa[1], mb = qb[1];
        // Signed change, positive when B is worse than A.
        double worse_by = ma != 0 ? (def.lower_is_better ? mb - ma : ma - mb) / std::abs(ma)
                                  : 0;
        double spread_a = ma != 0 ? (qa[2] - qa[0]) / std::abs(ma) : 0;
        double spread_b = mb != 0 ? (qb[2] - qb[0]) / std::abs(mb) : 0;
        auto better = [&](double x, double y) {
          return def.lower_is_better ? x < y : x > y;
        };
        // Every run of B better than every run of A.
        bool all_better = better(def.lower_is_better ? *std::max_element(bv.begin(), bv.end())
                                                     : *std::min_element(bv.begin(), bv.end()),
                                 def.lower_is_better ? *std::min_element(av.begin(), av.end())
                                                     : *std::max_element(av.begin(), av.end()));
        size_t pairs = std::min(av.size(), bv.size()), wins = 0;
        for (size_t i = 0; i < pairs; ++i) wins += better(bv[i], av[i]) ? 1 : 0;
        const char* verdict;
        if (def.bound == 0) {
          verdict = "(no bound)";
        } else if (std::max(spread_a, spread_b) > def.bound && !all_better) {
          verdict = "unresolved";
          ++unresolved;
        } else if (worse_by > def.bound) {
          verdict = "worse";
          ++worse;
        } else if (-worse_by > spread_a && pairs > 0 && wins * 10 >= pairs * 9) {
          verdict = "better";
        } else {
          verdict = "within";
        }
        char qa_s[64], qb_s[64], bound_s[16];
        std::snprintf(qa_s, sizeof(qa_s), "[%.6g, %.6g]", qa[0], qa[2]);
        std::snprintf(qb_s, sizeof(qb_s), "[%.6g, %.6g]", qb[0], qb[2]);
        std::snprintf(bound_s, sizeof(bound_s), def.bound > 0 ? "%.0f%%" : "-",
                      100 * def.bound);
        std::printf("%-18s %-29s %12.6g %25s %12.6g %25s %+7.1f%% %6s  %s\n",
                    workload.c_str(), def.name, ma, qa_s, mb, qb_s, 100 * worse_by, bound_s,
                    verdict);
      }
    }
  }
  std::printf("delta is positive when B is worse; %d worse, %d unresolved\n", worse,
              unresolved);
  return worse > 0 ? 1 : 0;
}

}  // namespace e2e
}  // namespace tic
