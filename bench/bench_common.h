#ifndef TIC_BENCH_BENCH_COMMON_H_
#define TIC_BENCH_BENCH_COMMON_H_

// Shared setup for the experiment benches (EXPERIMENTS.md): the Section 2
// order-processing vocabulary and the paper's two running constraints, plus
// the common flag parsing (--threads, --engine, --json, --trace, --telemetry)
// and the shared main (TIC_BENCH_MAIN) every bench binary links.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "checker/extension.h"
#include "common/telemetry/telemetry.h"
#include "db/update.h"
#include "fotl/factory.h"
#include "fotl/parser.h"
#include "ptl/tableau.h"

namespace tic {
namespace bench {

// Extracts --threads=a,b,c from argv, compacting the remaining arguments in
// place. Call before benchmark::Initialize, which rejects unknown flags.
// Returns `fallback` when the flag is absent or malformed (a zero count).
inline std::vector<size_t> ParseThreads(int* argc, char** argv,
                                        std::vector<size_t> fallback) {
  std::vector<char*> keep;
  std::vector<size_t> out;
  bool valid = true;
  for (int i = 0; i < *argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--threads=", 0) == 0) {
      for (size_t pos = 10; pos < a.size();) {
        size_t end = a.find(',', pos);
        if (end == std::string::npos) end = a.size();
        size_t t = static_cast<size_t>(
            std::strtoul(a.substr(pos, end - pos).c_str(), nullptr, 10));
        if (t == 0) valid = false;
        out.push_back(t);
        pos = end + 1;
      }
    } else {
      keep.push_back(argv[i]);
    }
  }
  *argc = static_cast<int>(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) argv[i] = keep[i];
  return (out.empty() || !valid) ? fallback : out;
}

// Extracts --engine=legacy,bitset from argv, compacting the remaining
// arguments in place (same contract as ParseThreads). Returns `fallback` when
// the flag is absent or names an unknown engine.
inline std::vector<ptl::TableauEngine> ParseEngines(
    int* argc, char** argv, std::vector<ptl::TableauEngine> fallback) {
  std::vector<char*> keep;
  std::vector<ptl::TableauEngine> out;
  bool valid = true;
  for (int i = 0; i < *argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--engine=", 0) == 0) {
      for (size_t pos = 9; pos < a.size();) {
        size_t end = a.find(',', pos);
        if (end == std::string::npos) end = a.size();
        std::string name = a.substr(pos, end - pos);
        if (name == "legacy") {
          out.push_back(ptl::TableauEngine::kLegacy);
        } else if (name == "bitset") {
          out.push_back(ptl::TableauEngine::kBitset);
        } else {
          valid = false;
        }
        pos = end + 1;
      }
    } else {
      keep.push_back(argv[i]);
    }
  }
  *argc = static_cast<int>(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) argv[i] = keep[i];
  return (out.empty() || !valid) ? fallback : out;
}

inline const char* EngineName(ptl::TableauEngine engine) {
  return engine == ptl::TableauEngine::kLegacy ? "legacy" : "bitset";
}

// Extracts --backend=progression,automaton from argv, compacting the
// remaining arguments in place (same contract as ParseThreads). Returns
// `fallback` when the flag is absent or names an unknown backend.
inline std::vector<checker::MonitorBackend> ParseBackends(
    int* argc, char** argv, std::vector<checker::MonitorBackend> fallback) {
  std::vector<char*> keep;
  std::vector<checker::MonitorBackend> out;
  bool valid = true;
  for (int i = 0; i < *argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--backend=", 0) == 0) {
      for (size_t pos = 10; pos < a.size();) {
        size_t end = a.find(',', pos);
        if (end == std::string::npos) end = a.size();
        std::string name = a.substr(pos, end - pos);
        if (name == "progression") {
          out.push_back(checker::MonitorBackend::kProgression);
        } else if (name == "automaton") {
          out.push_back(checker::MonitorBackend::kAutomaton);
        } else {
          valid = false;
        }
        pos = end + 1;
      }
    } else {
      keep.push_back(argv[i]);
    }
  }
  *argc = static_cast<int>(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) argv[i] = keep[i];
  return (out.empty() || !valid) ? fallback : out;
}

inline const char* BackendName(checker::MonitorBackend backend) {
  return backend == checker::MonitorBackend::kProgression ? "progression"
                                                          : "automaton";
}

// Extracts --cohort=on,off from argv, compacting the remaining arguments in
// place (same contract as ParseThreads). Returns `fallback` when the flag is
// absent or names an unknown value.
inline std::vector<bool> ParseCohort(int* argc, char** argv,
                                     std::vector<bool> fallback) {
  std::vector<char*> keep;
  std::vector<bool> out;
  bool valid = true;
  for (int i = 0; i < *argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--cohort=", 0) == 0) {
      for (size_t pos = 9; pos < a.size();) {
        size_t end = a.find(',', pos);
        if (end == std::string::npos) end = a.size();
        std::string name = a.substr(pos, end - pos);
        if (name == "on") {
          out.push_back(true);
        } else if (name == "off") {
          out.push_back(false);
        } else {
          valid = false;
        }
        pos = end + 1;
      }
    } else {
      keep.push_back(argv[i]);
    }
  }
  *argc = static_cast<int>(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) argv[i] = keep[i];
  return (out.empty() || !valid) ? fallback : out;
}

// Extracts --router=on,off from argv, compacting the remaining arguments in
// place (same contract as ParseThreads). Returns `fallback` when the flag is
// absent or names an unknown value.
inline std::vector<bool> ParseRouter(int* argc, char** argv,
                                     std::vector<bool> fallback) {
  std::vector<char*> keep;
  std::vector<bool> out;
  bool valid = true;
  for (int i = 0; i < *argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--router=", 0) == 0) {
      for (size_t pos = 9; pos < a.size();) {
        size_t end = a.find(',', pos);
        if (end == std::string::npos) end = a.size();
        std::string name = a.substr(pos, end - pos);
        if (name == "on") {
          out.push_back(true);
        } else if (name == "off") {
          out.push_back(false);
        } else {
          valid = false;
        }
        pos = end + 1;
      }
    } else {
      keep.push_back(argv[i]);
    }
  }
  *argc = static_cast<int>(keep.size());
  for (size_t i = 0; i < keep.size(); ++i) argv[i] = keep[i];
  return (out.empty() || !valid) ? fallback : out;
}

// Reporter for --json=<path>: the normal console table, plus a record file
// written to `path` on exit —
// `{"meta": {git_sha, build_type, telemetry, ..., recorder}, "records":
// [{"name": ...,
// "params": ..., "ns_per_op": ..., "counters": {...}}, ...], "telemetry":
// {flat metrics}}`. The meta header makes BENCH_*.json trajectories
// attributable to a commit and build configuration; the telemetry section is
// the registry snapshot at exit (empty when telemetry was never enabled).
// Records stay deliberately flatter than --benchmark_out=json — downstream
// tooling wants one row per configuration, keyed by the slash-separated
// param string.
class JsonRecordReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRecordReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.benchmark_name();
      size_t slash = name.find('/');
      std::string base = name.substr(0, slash);
      std::string params =
          slash == std::string::npos ? "" : name.substr(slash + 1);
      double ns_per_op =
          run.iterations == 0
              ? 0.0
              : run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9;
      std::string rec = "  {\"name\": \"" + Escape(base) + "\", \"params\": \"" +
                        Escape(params) + "\", \"ns_per_op\": " +
                        Number(ns_per_op) + ", \"counters\": {";
      bool first = true;
      for (const auto& kv : run.counters) {
        if (!first) rec += ", ";
        first = false;
        rec += "\"" + Escape(kv.first) + "\": " + Number(kv.second.value);
      }
      rec += "}}";
      records_.push_back(std::move(rec));
    }
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --json path %s\n", path_.c_str());
      return;
    }
    std::string meta = telemetry::BuildInfoJson();
    // Splice the runtime recorder switch into the meta header so recorder
    // on/off BENCH rows are attributable without out-of-band notes.
    size_t close = meta.rfind('}');
    if (close != std::string::npos) {
      meta.insert(close, std::string(", \"recorder\": ") +
                             (telemetry::RecorderActive() ? "true" : "false"));
    }
    std::fputs("{\n\"meta\": ", f);
    std::fputs(meta.c_str(), f);
    std::fputs(",\n\"records\": [\n", f);
    for (size_t i = 0; i < records_.size(); ++i) {
      std::fputs(records_[i].c_str(), f);
      std::fputs(i + 1 < records_.size() ? ",\n" : "\n", f);
    }
    std::fputs("],\n\"telemetry\": ", f);
    std::fputs(telemetry::CollectMetrics().ToJson().c_str(), f);
    std::fputs("\n}\n", f);
    std::fclose(f);
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  static std::string Number(double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string path_;
  std::vector<std::string> records_;
};

// Shared driver: extracts --json=<path>, --trace=<path>, and --telemetry,
// hands the rest to the benchmark library, and runs. --telemetry flips the
// runtime telemetry switch and prints the metrics summary table on exit;
// --trace additionally installs a Chrome trace sink and writes the captured
// events to the given path (loadable in chrome://tracing or Perfetto).
// Benches with dynamic registration call this after registering; static
// benches use TIC_BENCH_MAIN.
inline int RunBenchmarks(int* argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  std::string recorder_dump_path;
  bool telemetry_on = false;
  {
    std::vector<char*> keep;
    for (int i = 0; i < *argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--json=", 0) == 0) {
        json_path = a.substr(7);
      } else if (a.rfind("--trace=", 0) == 0) {
        trace_path = a.substr(8);
      } else if (a == "--telemetry") {
        telemetry_on = true;
      } else if (a.rfind("--recorder=", 0) == 0) {
        // Flight-recorder runtime switch (recorder on/off overhead benches).
        telemetry::SetRecorderEnabled(a.substr(11) != "off");
      } else if (a.rfind("--recorder-ring=", 0) == 0) {
        // Events per thread ring; smaller rings stay cache-resident and
        // lower the steady-state recording overhead at the cost of history.
        telemetry::SetRecorderRingCapacity(
            static_cast<size_t>(std::strtoull(a.c_str() + 16, nullptr, 10)));
      } else if (a.rfind("--recorder-dump=", 0) == 0) {
        recorder_dump_path = a.substr(16);
      } else {
        keep.push_back(argv[i]);
      }
    }
    *argc = static_cast<int>(keep.size());
    for (size_t i = 0; i < keep.size(); ++i) argv[i] = keep[i];
  }

  std::shared_ptr<telemetry::TraceSink> sink;
  if (!trace_path.empty()) {
    sink = std::make_shared<telemetry::TraceSink>();
    telemetry::SetTraceSink(sink);
  }
  if (telemetry_on || sink != nullptr) telemetry::SetEnabled(true);

  benchmark::Initialize(argc, argv);
  if (benchmark::ReportUnrecognizedArguments(*argc, argv)) return 1;
  size_t ran = 0;
  if (json_path.empty()) {
    ran = benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonRecordReporter reporter(std::move(json_path));
    ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  if (ran == 0) {
    // A filter that matches nothing (a renamed axis) must not pass silently.
    std::fprintf(stderr, "no benchmark matched the filter\n");
    return 1;
  }

  if (sink != nullptr) {
    telemetry::SetTraceSink(nullptr);
    if (!sink->WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "cannot write --trace path %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu trace events to %s\n", sink->size(),
                 trace_path.c_str());
  }
  if (telemetry_on || sink != nullptr) {
    std::fprintf(stderr, "%s", telemetry::CollectMetrics().SummaryTable().c_str());
  }
  if (!recorder_dump_path.empty()) {
    if (!telemetry::DumpRecorder(recorder_dump_path)) {
      std::fprintf(stderr, "cannot write --recorder-dump path %s\n",
                   recorder_dump_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu recorder events (%llu dropped) to %s\n",
                 telemetry::SnapshotRecorder().size(),
                 static_cast<unsigned long long>(telemetry::RecorderDropped()),
                 recorder_dump_path.c_str());
  }
  return 0;
}

#define TIC_BENCH_MAIN()                           \
  int main(int argc, char** argv) {                \
    return ::tic::bench::RunBenchmarks(&argc, argv); \
  }

struct OrdersFixture {
  VocabularyPtr vocab;
  PredicateId sub = 0;
  PredicateId fill = 0;
  std::shared_ptr<fotl::FormulaFactory> factory;
  fotl::Formula submit_once = nullptr;  // forall x (k = 1)
  fotl::Formula fifo = nullptr;         // forall x, y (k = 2)

  OrdersFixture() {
    auto v = std::make_shared<Vocabulary>();
    sub = *v->AddPredicate("Sub", 1);
    fill = *v->AddPredicate("Fill", 1);
    vocab = v;
    factory = std::make_shared<fotl::FormulaFactory>(vocab);
    submit_once =
        *fotl::Parse(factory.get(), "forall x . G (Sub(x) -> X G !Sub(x))");
    fifo = *fotl::Parse(factory.get(),
                        "forall x y . G !(x != y & Sub(x) & ((!Fill(x)) until "
                        "(Sub(y) & ((!Fill(x)) until (Fill(y) & !Fill(x))))))");
  }

  // A history of `length` states over `num_orders` distinct orders, FIFO-
  // consistent: order i is submitted at instant i (mod num_orders when
  // `recycle`) and filled one instant later. Controls |R_D| and t
  // independently. With recycle = false, orders are submitted once only
  // (submit-once stays satisfied); with recycle = true, submissions repeat
  // forever (FIFO stays satisfied, submit-once does not).
  History MakeHistory(size_t length, size_t num_orders, bool recycle = true) const {
    History h = *History::Create(vocab);
    for (size_t t = 0; t < length; ++t) {
      DatabaseState* s = h.AppendEmptyState();
      if (recycle || t < num_orders) {
        Value now = static_cast<Value>(t % num_orders) + 1;
        (void)s->Insert(sub, {now});
      }
      if (t > 0 && (recycle || t <= num_orders)) {
        Value prev = static_cast<Value>((t - 1) % num_orders) + 1;
        (void)s->Insert(fill, {prev});
      }
    }
    return h;
  }

  // A single-state history naming orders 1..n (controls |R_D| with t = 1).
  History MakeWideHistory(size_t n) const {
    History h = *History::Create(vocab);
    DatabaseState* s = h.AppendEmptyState();
    for (size_t i = 1; i <= n; ++i) s->Insert(sub, {static_cast<Value>(i)});
    return h;
  }
};

}  // namespace bench
}  // namespace tic

#endif  // TIC_BENCH_BENCH_COMMON_H_
