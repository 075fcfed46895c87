#ifndef TIC_COMMON_TELEMETRY_RECORDER_H_
#define TIC_COMMON_TELEMETRY_RECORDER_H_

/// Flight recorder: an always-on, lock-free, per-thread ring buffer of
/// compact structured events describing what the monitor did and when —
/// transactions applied, letter flips, cohort rebuilds/minimizations, epoch
/// resets, automaton compiles, verdict changes, transition-memo spills.
///
/// Design constraints (and how they are met):
///  - The hot path is a warmed automaton/cohort step of a few hundred ns, so
///    recording one event must cost ~10 ns and may not allocate: each thread
///    owns one fixed-capacity ring (pre-sized at creation, slots are plain
///    atomics), timestamps are raw TSC ticks (calibrated against the steady
///    clock only when a snapshot is taken), and sequence numbers are
///    per-thread (no cross-thread contended counter).
///  - Dumps must work from anywhere, including a signal handler: rings live
///    on a lock-free intrusive list that is only ever pushed (never freed),
///    so a reader — even an async-signal context — can walk it without locks
///    or allocation. Slot writes follow a seqlock protocol (seq invalidated,
///    payload stored, seq published with release semantics); readers discard
///    torn entries instead of blocking writers. All fields are atomics, so
///    concurrent snapshot-under-load is TSan-clean by construction.
///  - Bounded memory: capacity * 48 bytes per thread (default 4096 events,
///    ~192 KiB); older events are overwritten, `RecorderDropped()` counts
///    the overwritten ones.
///
/// The recorder is independent of the metrics registry's `Enabled()` gate —
/// `SetRecorderEnabled(false)` turns just the recorder off (used by the
/// recorder-on/off overhead benches). Under `-DTIC_TELEMETRY=OFF` the
/// `TIC_RECORD` macro (telemetry.h) compiles to a sizeof no-op and no
/// recorder symbol is referenced from hot paths; this header and the library
/// code still exist so tools link unconditionally.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define TIC_RECORDER_HAS_TSC 1
#endif

namespace tic {
namespace telemetry {

enum class EventType : uint32_t {
  kNone = 0,
  kTxnApplied,        // a = time t, b = op count, c = instance count
  kLetterFlip,        // a = PropId, b = new value, c = cohort<<32|slot (~0 none);
                      // a letter watched by several slots (an atom-sharing
                      // release cohort) logs only its first watcher
  kCohortRebuild,     // a = cohort count, b = cohort slots, c = instances on
                      // progression
  kCohortMinimize,    // a = collapsed sets, b = sets after, c = cohort index
  kEpochReset,        // Compact(): a = checkpoint time, b = instance count,
                      // c = stored word runs (0: the fold clears the word)
  kAutomatonCompile,  // a = closure size, b = letter count, c = state sets
  kVerdictChange,     // a = time t, b = potentially-satisfied 0/1, c = instances
  kMemoSpill,         // a = new state id, b = memo size, c = letter signature
                      // id (no monitor path emits it)
  kWatchdogFire,      // a = open-update elapsed ns, b = deadline ms, c = op seq
  kRouteDecision,     // a = backend (1 pointalg, 2 past, 3 release,
                      // 0 automaton), b = instances routed (release: slots
                      // placed), c = units/tables compiled (release: cohorts
                      // in use)
  kFragmentStep,      // a = backend (1 pointalg, 2 past), b = items touched,
                      // c = TSC tick delta of the fragment step
  kMaxEventType,      // sentinel, not a real event
};

/// Stable lower_snake name ("txn_applied", ...); "?" for out-of-range values.
const char* EventTypeName(EventType t);

/// Name of a kRouteDecision / kFragmentStep backend code ("automaton",
/// "pointalg", "past", "release"); "unknown" for any other value.
const char* RouteBackendName(uint64_t code);

/// One decoded event, as returned by snapshots and dump loaders. `seq` is
/// per-thread (1-based); (tid, seq) is unique, global order is by `ts_ns`.
struct RecordedEvent {
  uint64_t ts_ns = 0;
  uint64_t seq = 0;
  uint32_t tid = 0;
  EventType type = EventType::kNone;
  uint64_t a = 0, b = 0, c = 0;
};

namespace recorder_internal {

/// Seqlocked single-writer slot. The owner thread stores payload fields
/// relaxed and publishes `seq` last (release); snapshot readers re-check
/// `seq` after reading the payload and discard the entry on mismatch.
struct Slot {
  std::atomic<uint64_t> seq{0};  // 0 = empty/in-progress
  std::atomic<uint64_t> ticks{0};
  std::atomic<uint64_t> a{0};
  std::atomic<uint64_t> b{0};
  std::atomic<uint64_t> c{0};
  std::atomic<uint32_t> type{0};
};

struct ThreadRing {
  ThreadRing(uint32_t tid_arg, size_t capacity);
  const uint32_t tid;
  const uint64_t mask;  // capacity - 1, capacity is a power of two
  std::atomic<uint64_t> head{0};  // events ever written by the owner thread
  // Timestamp cache, owner thread only (readers never touch it): rdtsc
  // costs ~15 ns under a virtualized TSC — more than the whole slot write —
  // so RecordEvent resamples it once per kTicksResampleEvery events and
  // reuses the cached value in between. Per-thread order stays exact via
  // `seq`; only the cross-thread merge granularity coarsens.
  uint64_t cached_ticks = 0;
  std::vector<Slot> slots;
  ThreadRing* next = nullptr;  // intrusive list link, set once before publish
};

inline constexpr uint64_t kTicksResampleEvery = 64;  // power of two

inline std::atomic<bool> g_recorder_enabled{true};
inline std::atomic<ThreadRing*> g_rings{nullptr};

/// Creates (and registers) the calling thread's ring. Allocates; called at
/// most once per thread, outside any measured window when the caller warms
/// up via `EnsureThreadRing()`.
ThreadRing* CreateThreadRing();

/// The calling thread's cached ring pointer (null until first use).
inline ThreadRing*& TlsRing() {
  thread_local ThreadRing* ring = nullptr;
  return ring;
}

/// Steady-clock ns used for calibration pairs (not the hot path).
uint64_t CoarseNowNs();

inline uint64_t NowTicks() {
#ifdef TIC_RECORDER_HAS_TSC
  return __rdtsc();
#else
  return CoarseNowNs();  // ticks == ns; calibration degenerates to rate 1
#endif
}

}  // namespace recorder_internal

/// Runtime gate, default ON ("always-on"). Independent of telemetry
/// `Enabled()` so the recorder can be toggled in isolation.
inline bool RecorderActive() {
  return recorder_internal::g_recorder_enabled.load(std::memory_order_relaxed);
}
void SetRecorderEnabled(bool on);

/// Ring capacity (events per thread) for rings created after the call;
/// rounded up to a power of two, min 64. Existing rings keep their size.
void SetRecorderRingCapacity(size_t events);
size_t RecorderRingCapacity();

/// Pre-creates the calling thread's ring so the first `TIC_RECORD` on this
/// thread does not allocate. Monitor::Create calls this, which keeps the
/// `ctest -L alloc` zero-allocation gate green with the recorder enabled.
inline void EnsureThreadRing() {
  recorder_internal::ThreadRing*& ring = recorder_internal::TlsRing();
  if (ring == nullptr) ring = recorder_internal::CreateThreadRing();
}

/// The hot write. ~2-3 ns amortized: six relaxed atomic stores, one release
/// store, and one rdtsc per kTicksResampleEvery events (the rdtsc alone
/// costs more than all the stores on virtualized TSCs). Callers go through
/// `TIC_RECORD` (telemetry.h), which adds the `RecorderActive()` check and
/// compiles out under `-DTIC_TELEMETRY=OFF`.
inline void RecordEvent(EventType type, uint64_t a, uint64_t b, uint64_t c) {
  using recorder_internal::Slot;
  using recorder_internal::ThreadRing;
  ThreadRing*& ring = recorder_internal::TlsRing();
  if (ring == nullptr) ring = recorder_internal::CreateThreadRing();
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  if ((head & (recorder_internal::kTicksResampleEvery - 1)) == 0) {
    ring->cached_ticks = recorder_internal::NowTicks();
  }
  Slot& s = ring->slots[head & ring->mask];
  s.seq.store(0, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.ticks.store(ring->cached_ticks, std::memory_order_relaxed);
  s.type.store(static_cast<uint32_t>(type), std::memory_order_relaxed);
  s.a.store(a, std::memory_order_relaxed);
  s.b.store(b, std::memory_order_relaxed);
  s.c.store(c, std::memory_order_relaxed);
  s.seq.store(head + 1, std::memory_order_release);
  ring->head.store(head + 1, std::memory_order_relaxed);
}

/// Consistent decoded view of every ring, sorted by (ts_ns, tid, seq).
/// Torn slots (overwritten mid-read) are skipped. Safe to call from any
/// thread while writers keep recording.
std::vector<RecordedEvent> SnapshotRecorder();

/// Events overwritten (ring wrapped) across all rings, and live ring count.
uint64_t RecorderDropped();
size_t RecorderThreadCount();

/// Clears every ring (drops all recorded events; rings stay registered).
/// Only for test isolation — racy against concurrent writers by design.
void ResetRecorder();

/// JSON export: {"calibration": {...}, "events": [{...}, ...]}.
std::string RecorderJson();

/// On-demand binary dump (format below) of a consistent snapshot.
/// Returns false when the file cannot be written.
bool DumpRecorder(const std::string& path);

/// Async-signal-safe dump of all rings to an open fd using only write(2).
/// Torn/empty slots are skipped; events are NOT sorted (the loader sorts).
/// Returns the number of events written, -1 on write error.
int DumpRecorderToFd(int fd);

/// Binary dump format ("TICREC01"): 8-byte magic, 3 x u64 calibration
/// (base_ticks, base_ns, ns_per_tick as IEEE double bit pattern), then
/// 48-byte records: u64 seq, u64 ticks, u32 tid, u32 type, u64 a, b, c —
/// until EOF. Loaders convert ticks to ns via the calibration and sort.
bool ParseRecorderDump(const char* data, size_t size,
                       std::vector<RecordedEvent>* out, std::string* error);
bool LoadRecorderDump(const std::string& path, std::vector<RecordedEvent>* out,
                      std::string* error);

/// Installs a SIGUSR1 handler that dumps every ring to `path` (truncating)
/// via DumpRecorderToFd; when `on_crash` is set, SIGSEGV/SIGABRT also dump
/// before re-raising with the default disposition. The path is copied into
/// a fixed static buffer so the handler never allocates. Idempotent; the
/// last path wins.
void InstallRecorderDumpHook(const std::string& path, bool on_crash = false);

/// Stall watchdog: a sampling thread that watches one operation slot. The
/// owner arms the slot when an update starts (`Arm`) and disarms it on
/// completion; if a sample finds the same operation still open past the
/// deadline it records a kWatchdogFire event, dumps the recorder to
/// `dump_path` (when set), and notes the stall on stderr — once per
/// operation. Opt-in via `CheckOptions::watchdog_ms`.
class StallWatchdog {
 public:
  struct Options {
    uint64_t deadline_ms = 100;
    std::string dump_path;  // empty: no dump, stderr note only
  };

  explicit StallWatchdog(Options options);
  ~StallWatchdog();  // joins the sampling thread

  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  void Arm();
  void Disarm();
  uint64_t fires() const { return fires_.load(std::memory_order_relaxed); }

  /// RAII arm/disarm; tolerates a null watchdog.
  class Scope {
   public:
    explicit Scope(StallWatchdog* w) : w_(w) {
      if (w_ != nullptr) w_->Arm();
    }
    ~Scope() {
      if (w_ != nullptr) w_->Disarm();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    StallWatchdog* w_;
  };

 private:
  struct Impl;
  Impl* impl_;
  std::atomic<uint64_t> fires_{0};
};

}  // namespace telemetry
}  // namespace tic

#endif  // TIC_COMMON_TELEMETRY_RECORDER_H_
