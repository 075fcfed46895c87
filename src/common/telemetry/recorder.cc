#include "common/telemetry/recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

namespace tic {
namespace telemetry {

namespace recorder_internal {

namespace {

std::atomic<size_t> g_capacity{4096};
std::atomic<uint64_t> g_dropped_reset{0};  // head total subtracted by Reset

// Calibration base pair, captured once at first ring creation so every tick
// value the recorder ever stores is >= base_ticks. Plain atomics: the signal
// handler reads them without locks.
std::atomic<uint64_t> g_base_ticks{0};
std::atomic<uint64_t> g_base_ns{0};
std::atomic<bool> g_calibrated{false};

void EnsureCalibration() {
  bool expected = false;
  if (g_calibrated.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    g_base_ticks.store(NowTicks(), std::memory_order_relaxed);
    g_base_ns.store(CoarseNowNs(), std::memory_order_relaxed);
  }
}

// ns per tick, measured against the elapsed (ticks, ns) span since the base
// pair. Returns 1.0 until enough ticks have elapsed to divide by.
double RateNow() {
  if (!g_calibrated.load(std::memory_order_acquire)) return 1.0;
  const uint64_t ticks = NowTicks();
  const uint64_t ns = CoarseNowNs();
  const uint64_t base_ticks = g_base_ticks.load(std::memory_order_relaxed);
  const uint64_t base_ns = g_base_ns.load(std::memory_order_relaxed);
  if (ticks <= base_ticks + 1024) return 1.0;
  return static_cast<double>(ns - base_ns) /
         static_cast<double>(ticks - base_ticks);
}

size_t RoundUpPow2(size_t n) {
  size_t p = 64;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

uint64_t CoarseNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

ThreadRing::ThreadRing(uint32_t tid_arg, size_t capacity)
    : tid(tid_arg), mask(capacity - 1), slots(capacity) {}

ThreadRing* CreateThreadRing() {
  EnsureCalibration();
  static std::atomic<uint32_t> next_tid{0};
  const uint32_t tid = next_tid.fetch_add(1, std::memory_order_relaxed);
  ThreadRing* ring = new ThreadRing(
      tid, RoundUpPow2(g_capacity.load(std::memory_order_relaxed)));
  // Publish on the intrusive list; rings are never removed, so a reader that
  // loaded the head at any point walks a stable suffix.
  ThreadRing* head = g_rings.load(std::memory_order_acquire);
  do {
    ring->next = head;
  } while (!g_rings.compare_exchange_weak(head, ring,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire));
  return ring;
}

}  // namespace recorder_internal

using recorder_internal::CoarseNowNs;
using recorder_internal::g_rings;
using recorder_internal::NowTicks;
using recorder_internal::RateNow;
using recorder_internal::Slot;
using recorder_internal::ThreadRing;

const char* EventTypeName(EventType t) {
  switch (t) {
    case EventType::kNone: return "none";
    case EventType::kTxnApplied: return "txn_applied";
    case EventType::kLetterFlip: return "letter_flip";
    case EventType::kCohortRebuild: return "cohort_rebuild";
    case EventType::kCohortMinimize: return "cohort_minimize";
    case EventType::kEpochReset: return "epoch_reset";
    case EventType::kAutomatonCompile: return "automaton_compile";
    case EventType::kVerdictChange: return "verdict_change";
    case EventType::kMemoSpill: return "memo_spill";
    case EventType::kWatchdogFire: return "watchdog_fire";
    case EventType::kRouteDecision: return "route_decision";
    case EventType::kFragmentStep: return "fragment_step";
    case EventType::kMaxEventType: break;
  }
  return "?";
}

const char* RouteBackendName(uint64_t code) {
  switch (code) {
    case 0: return "automaton";
    case 1: return "pointalg";
    case 2: return "past";
    case 3: return "release";
    default: return "unknown";
  }
}

void SetRecorderEnabled(bool on) {
  recorder_internal::g_recorder_enabled.store(on, std::memory_order_relaxed);
}

void SetRecorderRingCapacity(size_t events) {
  recorder_internal::g_capacity.store(events, std::memory_order_relaxed);
}

size_t RecorderRingCapacity() {
  return recorder_internal::RoundUpPow2(
      recorder_internal::g_capacity.load(std::memory_order_relaxed));
}

namespace {

// Seqlock read of one slot; false when the slot is empty or torn.
bool ReadSlot(const Slot& s, uint64_t* seq, uint64_t* ticks, uint32_t* type,
              uint64_t* a, uint64_t* b, uint64_t* c) {
  const uint64_t s1 = s.seq.load(std::memory_order_acquire);
  if (s1 == 0) return false;
  *ticks = s.ticks.load(std::memory_order_relaxed);
  *type = s.type.load(std::memory_order_relaxed);
  *a = s.a.load(std::memory_order_relaxed);
  *b = s.b.load(std::memory_order_relaxed);
  *c = s.c.load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.seq.load(std::memory_order_relaxed) != s1) return false;
  *seq = s1;
  if (*type == 0 || *type >= static_cast<uint32_t>(EventType::kMaxEventType)) {
    return false;
  }
  return true;
}

uint64_t TicksToNs(uint64_t ticks, uint64_t base_ticks, uint64_t base_ns,
                   double rate) {
  if (ticks <= base_ticks) return base_ns;
  return base_ns + static_cast<uint64_t>(
                       static_cast<double>(ticks - base_ticks) * rate);
}

}  // namespace

std::vector<RecordedEvent> SnapshotRecorder() {
  std::vector<RecordedEvent> out;
  const uint64_t base_ticks =
      recorder_internal::g_base_ticks.load(std::memory_order_relaxed);
  const uint64_t base_ns =
      recorder_internal::g_base_ns.load(std::memory_order_relaxed);
  const double rate = RateNow();
  for (ThreadRing* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const size_t cap = r->mask + 1;
    for (size_t i = 0; i < cap; ++i) {
      RecordedEvent e;
      uint64_t ticks = 0;
      uint32_t type = 0;
      if (!ReadSlot(r->slots[i], &e.seq, &ticks, &type, &e.a, &e.b, &e.c)) {
        continue;
      }
      e.tid = r->tid;
      e.type = static_cast<EventType>(type);
      e.ts_ns = TicksToNs(ticks, base_ticks, base_ns, rate);
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const RecordedEvent& x, const RecordedEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return out;
}

uint64_t RecorderDropped() {
  uint64_t dropped = 0;
  for (ThreadRing* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const uint64_t head = r->head.load(std::memory_order_relaxed);
    const uint64_t cap = r->mask + 1;
    if (head > cap) dropped += head - cap;
  }
  return dropped;
}

size_t RecorderThreadCount() {
  size_t n = 0;
  for (ThreadRing* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    ++n;
  }
  return n;
}

void ResetRecorder() {
  for (ThreadRing* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    for (Slot& s : r->slots) s.seq.store(0, std::memory_order_release);
  }
}

std::string RecorderJson() {
  std::vector<RecordedEvent> events = SnapshotRecorder();
  std::string out = "{";
  char buf[256];
  snprintf(buf, sizeof(buf),
           "\"calibration\": {\"base_ticks\": %llu, \"base_ns\": %llu, "
           "\"ns_per_tick\": %.17g},\n \"events\": [",
           static_cast<unsigned long long>(
               recorder_internal::g_base_ticks.load(std::memory_order_relaxed)),
           static_cast<unsigned long long>(
               recorder_internal::g_base_ns.load(std::memory_order_relaxed)),
           recorder_internal::RateNow());
  out += buf;
  for (size_t i = 0; i < events.size(); ++i) {
    const RecordedEvent& e = events[i];
    snprintf(buf, sizeof(buf),
             "%s\n  {\"ts_ns\": %llu, \"tid\": %u, \"seq\": %llu, "
             "\"type\": \"%s\", \"a\": %llu, \"b\": %llu, \"c\": %llu}",
             i == 0 ? "" : ",", static_cast<unsigned long long>(e.ts_ns),
             e.tid, static_cast<unsigned long long>(e.seq),
             EventTypeName(e.type), static_cast<unsigned long long>(e.a),
             static_cast<unsigned long long>(e.b),
             static_cast<unsigned long long>(e.c));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

namespace {

constexpr char kMagic[8] = {'T', 'I', 'C', 'R', 'E', 'C', '0', '1'};
constexpr size_t kHeaderBytes = 8 + 3 * 8;
constexpr size_t kRecordBytes = 48;

void PutU64(char* p, uint64_t v) { memcpy(p, &v, 8); }
void PutU32(char* p, uint32_t v) { memcpy(p, &v, 4); }
uint64_t GetU64(const char* p) {
  uint64_t v;
  memcpy(&v, p, 8);
  return v;
}
uint32_t GetU32(const char* p) {
  uint32_t v;
  memcpy(&v, p, 4);
  return v;
}

void PackRecord(char* p, uint64_t seq, uint64_t ticks, uint32_t tid,
                uint32_t type, uint64_t a, uint64_t b, uint64_t c) {
  PutU64(p, seq);
  PutU64(p + 8, ticks);
  PutU32(p + 16, tid);
  PutU32(p + 20, type);
  PutU64(p + 24, a);
  PutU64(p + 32, b);
  PutU64(p + 40, c);
}

void PackHeader(char* p, uint64_t base_ticks, uint64_t base_ns, double rate) {
  memcpy(p, kMagic, 8);
  PutU64(p + 8, base_ticks);
  PutU64(p + 16, base_ns);
  uint64_t rate_bits;
  memcpy(&rate_bits, &rate, 8);
  PutU64(p + 24, rate_bits);
}

// Retries short writes; async-signal-safe.
bool WriteAll(int fd, const char* data, size_t size) {
  size_t off = 0;
  while (off < size) {
    ssize_t n = write(fd, data + off, size - off);
    if (n < 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool DumpRecorder(const std::string& path) {
  std::vector<RecordedEvent> events = SnapshotRecorder();
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  char header[kHeaderBytes];
  // Snapshot events already carry ns: identity calibration.
  PackHeader(header, 0, 0, 1.0);
  bool ok = fwrite(header, 1, sizeof(header), f) == sizeof(header);
  char rec[kRecordBytes];
  for (const RecordedEvent& e : events) {
    if (!ok) break;
    PackRecord(rec, e.seq, e.ts_ns, e.tid, static_cast<uint32_t>(e.type), e.a,
               e.b, e.c);
    ok = fwrite(rec, 1, sizeof(rec), f) == sizeof(rec);
  }
  ok = (fclose(f) == 0) && ok;
  return ok;
}

int DumpRecorderToFd(int fd) {
  char buf[kHeaderBytes + 85 * kRecordBytes];  // ~4 KiB stack batches
  PackHeader(buf,
             recorder_internal::g_base_ticks.load(std::memory_order_relaxed),
             recorder_internal::g_base_ns.load(std::memory_order_relaxed),
             RateNow());
  size_t fill = kHeaderBytes;
  int events = 0;
  for (ThreadRing* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next) {
    const size_t cap = r->mask + 1;
    for (size_t i = 0; i < cap; ++i) {
      uint64_t seq, ticks, a, b, c;
      uint32_t type;
      if (!ReadSlot(r->slots[i], &seq, &ticks, &type, &a, &b, &c)) continue;
      if (fill + kRecordBytes > sizeof(buf)) {
        if (!WriteAll(fd, buf, fill)) return -1;
        fill = 0;
      }
      PackRecord(buf + fill, seq, ticks, r->tid, type, a, b, c);
      fill += kRecordBytes;
      ++events;
    }
  }
  if (fill > 0 && !WriteAll(fd, buf, fill)) return -1;
  return events;
}

bool ParseRecorderDump(const char* data, size_t size,
                       std::vector<RecordedEvent>* out, std::string* error) {
  out->clear();
  if (size < kHeaderBytes || memcmp(data, kMagic, 8) != 0) {
    if (error != nullptr) *error = "not a TICREC01 recorder dump";
    return false;
  }
  const uint64_t base_ticks = GetU64(data + 8);
  const uint64_t base_ns = GetU64(data + 16);
  const uint64_t rate_bits = GetU64(data + 24);
  double rate;
  memcpy(&rate, &rate_bits, 8);
  if (!(rate > 0.0) || rate > 1e6) rate = 1.0;  // reject NaN/garbage
  size_t off = kHeaderBytes;
  while (off + kRecordBytes <= size) {
    const char* p = data + off;
    RecordedEvent e;
    e.seq = GetU64(p);
    e.ts_ns = TicksToNs(GetU64(p + 8), base_ticks, base_ns, rate);
    e.tid = GetU32(p + 16);
    e.type = static_cast<EventType>(GetU32(p + 20));
    e.a = GetU64(p + 24);
    e.b = GetU64(p + 32);
    e.c = GetU64(p + 40);
    if (e.type != EventType::kNone && e.type < EventType::kMaxEventType) {
      out->push_back(e);
    }
    off += kRecordBytes;
  }
  if (off != size) {
    if (error != nullptr) *error = "truncated trailing record";
    return false;
  }
  std::sort(out->begin(), out->end(),
            [](const RecordedEvent& x, const RecordedEvent& y) {
              if (x.ts_ns != y.ts_ns) return x.ts_ns < y.ts_ns;
              if (x.tid != y.tid) return x.tid < y.tid;
              return x.seq < y.seq;
            });
  return true;
}

bool LoadRecorderDump(const std::string& path, std::vector<RecordedEvent>* out,
                      std::string* error) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  fclose(f);
  return ParseRecorderDump(data.data(), data.size(), out, error);
}

// ---------------------------------------------------------------------------
// Signal dump hook
// ---------------------------------------------------------------------------

namespace {

char g_dump_path[4096] = {0};

void DumpToPathFromSignal() {
  if (g_dump_path[0] == '\0') return;
  int fd = open(g_dump_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  DumpRecorderToFd(fd);
  close(fd);
}

void OnDumpSignal(int) { DumpToPathFromSignal(); }

void OnCrashSignal(int sig) {
  DumpToPathFromSignal();
  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

void InstallRecorderDumpHook(const std::string& path, bool on_crash) {
  size_t n = path.size();
  if (n >= sizeof(g_dump_path)) n = sizeof(g_dump_path) - 1;
  memcpy(g_dump_path, path.data(), n);
  g_dump_path[n] = '\0';
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnDumpSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &sa, nullptr);
  if (on_crash) {
    struct sigaction crash;
    memset(&crash, 0, sizeof(crash));
    crash.sa_handler = OnCrashSignal;
    sigemptyset(&crash.sa_mask);
    crash.sa_flags = SA_RESTART;
    sigaction(SIGSEGV, &crash, nullptr);
    sigaction(SIGABRT, &crash, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Stall watchdog
// ---------------------------------------------------------------------------

struct StallWatchdog::Impl {
  Options options;
  std::atomic<uint64_t> op_start_ns{0};  // 0 = no operation open
  std::atomic<uint64_t> op_seq{0};
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::thread thread;
};

StallWatchdog::StallWatchdog(Options options) : impl_(new Impl) {
  impl_->options = std::move(options);
  if (impl_->options.deadline_ms == 0) impl_->options.deadline_ms = 1;
  impl_->thread = std::thread([this] {
    Impl* im = impl_;
    const uint64_t deadline_ns = im->options.deadline_ms * 1000000ull;
    // Sample at half the deadline so an overrun is caught within 1.5x.
    const auto period =
        std::chrono::nanoseconds(deadline_ns / 2 + 1);
    uint64_t dumped_seq = 0;
    std::unique_lock<std::mutex> lock(im->mu);
    while (!im->stop) {
      im->cv.wait_for(lock, period);
      if (im->stop) break;
      const uint64_t start = im->op_start_ns.load(std::memory_order_acquire);
      if (start == 0) continue;
      const uint64_t now = CoarseNowNs();
      if (now - start < deadline_ns) continue;
      const uint64_t seq = im->op_seq.load(std::memory_order_relaxed);
      if (seq == dumped_seq) continue;  // already reported this operation
      dumped_seq = seq;
      fires_.fetch_add(1, std::memory_order_relaxed);
      RecordEvent(EventType::kWatchdogFire, now - start,
                  im->options.deadline_ms, seq);
      if (!im->options.dump_path.empty()) {
        DumpRecorder(im->options.dump_path);
        fprintf(stderr,
                "tic: watchdog: update open for %.1f ms (deadline %llu ms); "
                "recorder dumped to %s\n",
                static_cast<double>(now - start) / 1e6,
                static_cast<unsigned long long>(im->options.deadline_ms),
                im->options.dump_path.c_str());
      } else {
        fprintf(stderr,
                "tic: watchdog: update open for %.1f ms (deadline %llu ms)\n",
                static_cast<double>(now - start) / 1e6,
                static_cast<unsigned long long>(im->options.deadline_ms));
      }
    }
  });
}

StallWatchdog::~StallWatchdog() {
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stop = true;
  }
  impl_->cv.notify_all();
  impl_->thread.join();
  delete impl_;
}

void StallWatchdog::Arm() {
  impl_->op_seq.fetch_add(1, std::memory_order_relaxed);
  impl_->op_start_ns.store(CoarseNowNs(), std::memory_order_release);
}

void StallWatchdog::Disarm() {
  impl_->op_start_ns.store(0, std::memory_order_release);
}

}  // namespace telemetry
}  // namespace tic
