// tic_inspect: offline viewer for the observability artifacts the monitor
// emits — flight-recorder dumps (recorder.h, "TICREC01"), monitor snapshots
// (checkpoint.h, "TICSNAP01"), Chrome traces
// (bench --trace), and bench --json record files. Renders a merged timeline,
// top-N hottest letters/cohorts/spans, a per-backend fragment-routing
// breakdown (pointalg, past, release cohorts; telemetry::RouteBackendName),
// a verdict-flip audit log, and a Prometheus-style text exposition whose
// tic_route_* series carry the same backend names.
//
//   tic_inspect <file>... [--timeline=N] [--top=N] [--audit] [--prom]
//
// File kinds are sniffed from content (magic / key names), so dumps, traces,
// and record files can be mixed freely in one invocation. Timestamps are
// shown relative to each source's first event (recorder ticks and trace
// microseconds have different epochs; relative time is what merges honestly).
// Empty inputs are fine: the tool reports "no events" and exits 0.

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/snapshot/snapshot.h"
#include "common/telemetry/recorder.h"

namespace {

using tic::telemetry::EventType;
using tic::telemetry::EventTypeName;
using tic::telemetry::RecordedEvent;
using tic::telemetry::RouteBackendName;

// ---------------------------------------------------------------------------
// Tiny tolerant JSON scanning (just enough for the two shapes we produce:
// bench --json record files and Chrome traces). Not a general parser.

struct JsonCursor {
  const char* p;
  const char* end;
  bool AtEnd() const { return p >= end; }
  void SkipWs() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r' ||
                       *p == ',' || *p == ':')) {
      ++p;
    }
  }
};

bool ParseJsonString(JsonCursor* c, std::string* out) {
  c->SkipWs();
  if (c->AtEnd() || *c->p != '"') return false;
  ++c->p;
  out->clear();
  while (!c->AtEnd() && *c->p != '"') {
    if (*c->p == '\\' && c->p + 1 < c->end) ++c->p;
    out->push_back(*c->p++);
  }
  if (c->AtEnd()) return false;
  ++c->p;  // closing quote
  return true;
}

bool ParseJsonNumber(JsonCursor* c, double* out) {
  c->SkipWs();
  char* after = nullptr;
  double v = std::strtod(c->p, &after);
  if (after == c->p) return false;
  c->p = after;
  *out = v;
  return true;
}

// Advances past one JSON value of any kind (object/array/string/number/word).
void SkipJsonValue(JsonCursor* c) {
  c->SkipWs();
  if (c->AtEnd()) return;
  char ch = *c->p;
  if (ch == '{' || ch == '[') {
    char close = ch == '{' ? '}' : ']';
    int depth = 0;
    bool in_str = false;
    while (!c->AtEnd()) {
      char d = *c->p++;
      if (in_str) {
        if (d == '\\' && !c->AtEnd()) ++c->p;
        else if (d == '"') in_str = false;
        continue;
      }
      if (d == '"') in_str = true;
      else if (d == ch) ++depth;
      else if (d == close && --depth == 0) return;
    }
    return;
  }
  if (ch == '"') {
    std::string tmp;
    ParseJsonString(c, &tmp);
    return;
  }
  while (!c->AtEnd() && *c->p != ',' && *c->p != '}' && *c->p != ']') ++c->p;
}

// ---------------------------------------------------------------------------
// Unified timeline item (any source).

struct TimelineItem {
  double rel_us = 0;  // relative to the source's first event
  std::string source;
  std::string text;
};

struct VerdictFlip {
  double rel_us = 0;
  uint64_t time = 0;
  bool satisfied = false;
  uint64_t instances = 0;
  std::string source;
};

// Per-backend aggregation of the router's recorder events: route_decision
// (constraint admission) and fragment_step (per-update fast-path work).
struct RouteStats {
  uint64_t decisions = 0;  // route_decision events
  uint64_t instances = 0;  // sum of instances routed
  uint64_t units = 0;      // sum of units/tables compiled
  uint64_t steps = 0;      // fragment_step events (per-update)
  uint64_t items = 0;      // sum of items touched per step
  uint64_t ticks = 0;      // sum of TSC tick deltas per step
};

struct Inspection {
  std::vector<TimelineItem> timeline;
  std::vector<VerdictFlip> audit;
  std::map<std::string, RouteStats> routing;  // backend name -> stats
  std::map<std::string, uint64_t> event_counts;       // recorder, by type
  std::map<uint64_t, uint64_t> letter_flips;          // letter id -> flips
  std::map<uint64_t, uint64_t> cohort_activity;       // cohort -> owned flips
  std::map<uint64_t, uint64_t> instance_activity;     // slot key -> flips
  std::map<std::string, std::pair<uint64_t, double>> span_totals;  // n, us
  std::vector<std::string> bench_lines;               // rendered record rows
  std::map<std::string, double> prom;                 // exposition values
  size_t watchdog_fires = 0;
  size_t sources = 0;
  size_t events = 0;
};

std::string DescribeEvent(const RecordedEvent& e) {
  char buf[192];
  switch (e.type) {
    case EventType::kTxnApplied:
      std::snprintf(buf, sizeof(buf), "txn_applied t=%" PRIu64 " ops=%" PRIu64
                    " instances=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kLetterFlip:
      if (e.c == ~uint64_t{0}) {
        std::snprintf(buf, sizeof(buf),
                      "letter_flip letter=%" PRIu64 " value=%" PRIu64
                      " owner=none", e.a, e.b);
      } else {
        std::snprintf(buf, sizeof(buf),
                      "letter_flip letter=%" PRIu64 " value=%" PRIu64
                      " cohort=%" PRIu64 " slot=%" PRIu64,
                      e.a, e.b, e.c >> 32, e.c & 0xFFFFFFFFu);
      }
      break;
    case EventType::kCohortRebuild:
      std::snprintf(buf, sizeof(buf), "cohort_rebuild cohorts=%" PRIu64
                    " slots=%" PRIu64 " progression=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kCohortMinimize:
      std::snprintf(buf, sizeof(buf), "cohort_minimize collapsed=%" PRIu64
                    " sets=%" PRIu64 " cohort=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kEpochReset:
      std::snprintf(buf, sizeof(buf), "epoch_reset t=%" PRIu64
                    " instances=%" PRIu64 " word_runs=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kAutomatonCompile:
      std::snprintf(buf, sizeof(buf), "automaton_compile closure=%" PRIu64
                    " letters=%" PRIu64 " state_sets=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kVerdictChange:
      std::snprintf(buf, sizeof(buf), "verdict_change t=%" PRIu64
                    " satisfied=%" PRIu64 " instances=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kMemoSpill:
      std::snprintf(buf, sizeof(buf), "memo_spill state=%" PRIu64
                    " memo=%" PRIu64 " sig=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kWatchdogFire:
      std::snprintf(buf, sizeof(buf), "watchdog_fire elapsed_ns=%" PRIu64
                    " deadline_ms=%" PRIu64 " op=%" PRIu64, e.a, e.b, e.c);
      break;
    case EventType::kRouteDecision:
      std::snprintf(buf, sizeof(buf), "route_decision backend=%s instances=%"
                    PRIu64 " units=%" PRIu64, RouteBackendName(e.a), e.b, e.c);
      break;
    case EventType::kFragmentStep:
      std::snprintf(buf, sizeof(buf), "fragment_step backend=%s items=%" PRIu64
                    " ticks=%" PRIu64, RouteBackendName(e.a), e.b, e.c);
      break;
    default:
      std::snprintf(buf, sizeof(buf), "%s a=%" PRIu64 " b=%" PRIu64
                    " c=%" PRIu64, EventTypeName(e.type), e.a, e.b, e.c);
      break;
  }
  return buf;
}

void IngestRecorderDump(const std::string& name,
                        const std::vector<RecordedEvent>& events,
                        Inspection* out) {
  ++out->sources;
  out->events += events.size();
  uint64_t base = events.empty() ? 0 : events.front().ts_ns;
  for (const RecordedEvent& e : events) {
    double rel_us = static_cast<double>(e.ts_ns - base) / 1e3;
    std::string key = EventTypeName(e.type);
    ++out->event_counts[key];
    ++out->prom["tic_recorder_events_total{type=\"" + key + "\"}"];
    switch (e.type) {
      case EventType::kLetterFlip:
        ++out->letter_flips[e.a];
        if (e.c != ~uint64_t{0}) {
          ++out->cohort_activity[e.c >> 32];
          ++out->instance_activity[e.c];
        }
        break;
      case EventType::kVerdictChange:
        out->audit.push_back(VerdictFlip{rel_us, e.a, e.b != 0, e.c, name});
        break;
      case EventType::kWatchdogFire:
        ++out->watchdog_fires;
        out->audit.push_back(VerdictFlip{rel_us, e.a, false, 0, name + " WATCHDOG"});
        break;
      case EventType::kRouteDecision: {
        RouteStats& rs = out->routing[RouteBackendName(e.a)];
        ++rs.decisions;
        rs.instances += e.b;
        rs.units += e.c;
        ++out->prom[std::string("tic_route_decisions_total{backend=\"") +
                    RouteBackendName(e.a) + "\"}"];
        out->prom[std::string("tic_route_instances_total{backend=\"") +
                  RouteBackendName(e.a) + "\"}"] += static_cast<double>(e.b);
        break;
      }
      case EventType::kFragmentStep: {
        RouteStats& rs = out->routing[RouteBackendName(e.a)];
        ++rs.steps;
        rs.items += e.b;
        rs.ticks += e.c;
        ++out->prom[std::string("tic_fragment_steps_total{backend=\"") +
                    RouteBackendName(e.a) + "\"}"];
        out->prom[std::string("tic_fragment_ticks_total{backend=\"") +
                  RouteBackendName(e.a) + "\"}"] += static_cast<double>(e.c);
        break;
      }
      default:
        break;
    }
    char prefix[96];
    std::snprintf(prefix, sizeof(prefix), "%+12.3fus tid=%u seq=%" PRIu64 "  ",
                  rel_us, e.tid, e.seq);
    out->timeline.push_back(TimelineItem{rel_us, name, prefix + DescribeEvent(e)});
  }
}

void IngestChromeTrace(const std::string& name, const std::string& text,
                       Inspection* out) {
  ++out->sources;
  size_t at = text.find("\"traceEvents\"");
  if (at == std::string::npos) return;
  JsonCursor c{text.data() + at + 13, text.data() + text.size()};
  c.SkipWs();
  if (c.AtEnd() || *c.p != '[') return;
  ++c.p;
  double base_ts = -1;
  while (true) {
    c.SkipWs();
    if (c.AtEnd() || *c.p == ']') break;
    if (*c.p != '{') { SkipJsonValue(&c); continue; }
    ++c.p;
    std::string ev_name, ph;
    double ts = 0, dur = 0, tid = 0;
    while (true) {
      c.SkipWs();
      if (c.AtEnd() || *c.p == '}') { if (!c.AtEnd()) ++c.p; break; }
      std::string key;
      if (!ParseJsonString(&c, &key)) return;
      if (key == "name") ParseJsonString(&c, &ev_name);
      else if (key == "ph") ParseJsonString(&c, &ph);
      else if (key == "ts") ParseJsonNumber(&c, &ts);
      else if (key == "dur") ParseJsonNumber(&c, &dur);
      else if (key == "tid") ParseJsonNumber(&c, &tid);
      else SkipJsonValue(&c);
    }
    if (ph != "X") continue;
    ++out->events;
    if (base_ts < 0) base_ts = ts;
    auto& tot = out->span_totals[ev_name];
    ++tot.first;
    tot.second += dur;
    out->prom["tic_span_us_total{name=\"" + ev_name + "\"}"] += dur;
    char buf[192];
    std::snprintf(buf, sizeof(buf), "%+12.3fus tid=%-3d span %s dur=%.3fus",
                  ts - base_ts, static_cast<int>(tid), ev_name.c_str(), dur);
    out->timeline.push_back(TimelineItem{ts - base_ts, name, buf});
  }
}

void IngestBenchJson(const std::string& name, const std::string& text,
                     Inspection* out) {
  ++out->sources;
  size_t at = text.find("\"meta\"");
  if (at != std::string::npos) {
    JsonCursor c{text.data() + at + 6, text.data() + text.size()};
    c.SkipWs();
    if (!c.AtEnd() && *c.p == '{') {
      ++c.p;
      std::string meta_line = "  meta[" + name + "]:";
      while (true) {
        c.SkipWs();
        if (c.AtEnd() || *c.p == '}') break;
        std::string key;
        if (!ParseJsonString(&c, &key)) break;
        c.SkipWs();
        if (!c.AtEnd() && *c.p == '"') {
          std::string v;
          ParseJsonString(&c, &v);
          meta_line += " " + key + "=" + v;
        } else {
          double v = 0;
          if (!ParseJsonNumber(&c, &v)) { SkipJsonValue(&c); continue; }
          char buf[48];
          std::snprintf(buf, sizeof(buf), " %s=%g", key.c_str(), v);
          meta_line += buf;
        }
      }
      out->bench_lines.push_back(meta_line);
    }
  }
  at = text.find("\"records\"");
  if (at == std::string::npos) return;
  JsonCursor c{text.data() + at + 9, text.data() + text.size()};
  c.SkipWs();
  if (c.AtEnd() || *c.p != '[') return;
  ++c.p;
  while (true) {
    c.SkipWs();
    if (c.AtEnd() || *c.p == ']') break;
    if (*c.p != '{') { SkipJsonValue(&c); continue; }
    ++c.p;
    std::string rec_name, params;
    double ns_per_op = 0;
    while (true) {
      c.SkipWs();
      if (c.AtEnd() || *c.p == '}') { if (!c.AtEnd()) ++c.p; break; }
      std::string key;
      if (!ParseJsonString(&c, &key)) return;
      if (key == "name") ParseJsonString(&c, &rec_name);
      else if (key == "params") ParseJsonString(&c, &params);
      else if (key == "ns_per_op") ParseJsonNumber(&c, &ns_per_op);
      else SkipJsonValue(&c);
    }
    ++out->events;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "  %-44s %-40s %14.1f ns/op",
                  rec_name.c_str(), params.c_str(), ns_per_op);
    out->bench_lines.push_back(buf);
    out->prom["tic_bench_ns_per_op{name=\"" + rec_name + "\",params=\"" +
              params + "\"}"] = ns_per_op;
  }
}

template <typename Map>
std::vector<std::pair<typename Map::key_type, uint64_t>> TopN(const Map& m,
                                                              size_t n) {
  std::vector<std::pair<typename Map::key_type, uint64_t>> v(m.begin(), m.end());
  std::stable_sort(v.begin(), v.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (v.size() > n) v.resize(n);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  size_t timeline_n = 40;
  size_t top_n = 10;
  bool want_prom = false;
  bool want_audit = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--timeline=", 0) == 0) {
      timeline_n = std::strtoul(a.c_str() + 11, nullptr, 10);
    } else if (a.rfind("--top=", 0) == 0) {
      top_n = std::strtoul(a.c_str() + 6, nullptr, 10);
    } else if (a == "--prom") {
      want_prom = true;
    } else if (a == "--audit") {
      want_audit = true;
    } else if (a == "--help" || a == "-h") {
      std::printf("usage: tic_inspect <file>... [--timeline=N] [--top=N] "
                  "[--audit] [--prom]\n"
                  "files: recorder dumps (TICREC01), monitor snapshots "
                  "(TICSNAP01), Chrome traces (--trace), bench --json "
                  "records\n");
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr, "usage: tic_inspect <file>... [--timeline=N] "
                 "[--top=N] [--audit] [--prom]\n");
    return 2;
  }

  Inspection insp;
  size_t snapshot_files = 0;
  for (const std::string& path : files) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    if (tic::snapshot::LooksLikeSnapshot(text)) {
      // Monitor snapshot: self-describing, print its section table and move
      // on — snapshot dumps don't feed the event-based report below.
      auto desc = tic::snapshot::Describe(text);
      if (!desc.ok()) {
        std::fprintf(stderr, "%s: bad snapshot: %s\n", path.c_str(),
                     desc.status().ToString().c_str());
        return 1;
      }
      std::printf("%s: TICSNAP01 monitor snapshot\n%s", path.c_str(),
                  desc->c_str());
      ++snapshot_files;
      continue;
    }
    if (text.size() >= 8 && std::memcmp(text.data(), "TICREC01", 8) == 0) {
      std::vector<RecordedEvent> events;
      std::string error;
      if (!tic::telemetry::ParseRecorderDump(text.data(), text.size(), &events,
                                             &error)) {
        std::fprintf(stderr, "%s: bad recorder dump: %s\n", path.c_str(),
                     error.c_str());
        return 1;
      }
      IngestRecorderDump(path, events, &insp);
    } else if (text.find("\"traceEvents\"") != std::string::npos) {
      IngestChromeTrace(path, text, &insp);
    } else if (text.find("\"records\"") != std::string::npos) {
      IngestBenchJson(path, text, &insp);
    } else {
      std::fprintf(stderr, "%s: unrecognized file kind (expected TICREC01 "
                   "dump, TICSNAP01 snapshot, Chrome trace, or bench --json "
                   "records)\n",
                   path.c_str());
      return 1;
    }
  }

  if (want_prom) {
    // Prometheus text exposition only: machine-readable, nothing else.
    std::printf("# HELP tic_recorder_events_total flight-recorder events by type\n");
    std::printf("# TYPE tic_recorder_events_total counter\n");
    for (const auto& [k, v] : insp.prom) std::printf("%s %.17g\n", k.c_str(), v);
    std::printf("tic_recorder_watchdog_fires_total %zu\n", insp.watchdog_fires);
    return 0;
  }

  // Snapshot-only invocations already printed their section tables; the
  // event-based report below would just say "no events" about them.
  if (insp.sources == 0 && snapshot_files > 0) return 0;

  std::printf("tic_inspect: %zu source(s), %zu event(s)\n", insp.sources,
              insp.events);
  if (insp.events == 0) {
    std::printf("no events recorded (empty dump is fine: nothing ran, or the "
                "recorder was off)\n");
    return 0;
  }

  if (!insp.bench_lines.empty()) {
    std::printf("\n== bench records ==\n");
    for (const std::string& l : insp.bench_lines) std::printf("%s\n", l.c_str());
  }

  if (!insp.event_counts.empty()) {
    std::printf("\n== recorder event counts ==\n");
    for (const auto& [k, v] : insp.event_counts) {
      std::printf("  %-20s %10" PRIu64 "\n", k.c_str(), v);
    }
  }

  if (!insp.routing.empty()) {
    // Which constraints the tractable-fragment router sent where, and what
    // the tableau-free backends did per update. Ticks are raw TSC deltas —
    // comparable within one dump, not across machines.
    std::printf("\n== fragment routing ==\n");
    std::printf("  %-10s %10s %10s %8s %10s %10s %12s\n", "backend",
                "decisions", "instances", "units", "steps", "items",
                "avg ticks");
    for (const auto& [backend, rs] : insp.routing) {
      double avg_ticks =
          rs.steps ? static_cast<double>(rs.ticks) / rs.steps : 0.0;
      std::printf("  %-10s %10" PRIu64 " %10" PRIu64 " %8" PRIu64
                  " %10" PRIu64 " %10" PRIu64 " %12.1f\n",
                  backend.c_str(), rs.decisions, rs.instances, rs.units,
                  rs.steps, rs.items, avg_ticks);
    }
  }

  if (!insp.span_totals.empty()) {
    std::printf("\n== hottest spans (by total time) ==\n");
    std::vector<std::pair<std::string, std::pair<uint64_t, double>>> spans(
        insp.span_totals.begin(), insp.span_totals.end());
    std::stable_sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
      return a.second.second > b.second.second;
    });
    if (spans.size() > top_n) spans.resize(top_n);
    for (const auto& [k, nv] : spans) {
      std::printf("  %-36s n=%-8" PRIu64 " total=%.3fus\n", k.c_str(), nv.first,
                  nv.second);
    }
  }

  if (!insp.letter_flips.empty()) {
    std::printf("\n== hottest letters (by flips) ==\n");
    for (const auto& [k, v] : TopN(insp.letter_flips, top_n)) {
      std::printf("  letter %-10" PRIu64 " %10" PRIu64 " flips\n", k, v);
    }
  }
  if (!insp.cohort_activity.empty()) {
    std::printf("\n== hottest cohorts (by owned letter flips) ==\n");
    for (const auto& [k, v] : TopN(insp.cohort_activity, top_n)) {
      std::printf("  cohort %-10" PRIu64 " %10" PRIu64 " flips\n", k, v);
    }
  }
  if (!insp.instance_activity.empty()) {
    std::printf("\n== hottest cohort slots ==\n");
    for (const auto& [k, v] : TopN(insp.instance_activity, top_n)) {
      std::printf("  cohort %" PRIu64 " slot %-8" PRIu64 " %10" PRIu64 " flips\n",
                  k >> 32, k & 0xFFFFFFFFu, v);
    }
  }

  if (want_audit || !insp.audit.empty()) {
    std::printf("\n== verdict audit log ==\n");
    if (insp.audit.empty()) std::printf("  (no verdict changes recorded)\n");
    for (const VerdictFlip& f : insp.audit) {
      std::printf("  %+12.3fus  t=%-8" PRIu64 " satisfied=%d instances=%-8" PRIu64
                  " [%s]\n", f.rel_us, f.time, f.satisfied ? 1 : 0, f.instances,
                  f.source.c_str());
    }
  }
  if (insp.watchdog_fires > 0) {
    std::printf("\n!! %zu watchdog fire(s) recorded — at least one update "
                "overran its deadline\n", insp.watchdog_fires);
  }

  if (timeline_n > 0 && !insp.timeline.empty()) {
    std::printf("\n== timeline (last %zu of %zu; per-source relative time) ==\n",
                std::min(timeline_n, insp.timeline.size()), insp.timeline.size());
    std::stable_sort(insp.timeline.begin(), insp.timeline.end(),
                     [](const TimelineItem& a, const TimelineItem& b) {
                       return a.rel_us < b.rel_us;
                     });
    size_t start = insp.timeline.size() > timeline_n
                       ? insp.timeline.size() - timeline_n
                       : 0;
    for (size_t i = start; i < insp.timeline.size(); ++i) {
      std::printf("  %s\n", insp.timeline[i].text.c_str());
    }
  }
  return 0;
}
