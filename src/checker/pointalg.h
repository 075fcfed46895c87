#ifndef TIC_CHECKER_POINTALG_H_
#define TIC_CHECKER_POINTALG_H_

/// The point-algebra backend: the monitor-side evaluator for grounded
/// instances whose residual matches the ptl::PaShape fragment
/// (ptl/fragment.h). Each unit keeps watched-literal counters against the
/// monitor's shared current letter; a transaction feeds only the flipped
/// letters (`OnFlip`), marks the owning units dirty, and `StepDirty`
/// advances exactly those units — O(letters-flipped) per update and
/// allocation-free once warmed (flat containers, epoch-stamped dirty list).
/// Verdicts are exact for the fragment: a unit set with no falsified active
/// clause is satisfiable by repeating the current letter forever, so eager
/// potential satisfaction reduces to clause falsification (see
/// ptl/fragment.h).

#include <cstdint>
#include <memory>
#include <vector>

#include "common/flat/flat_map.h"
#include "common/flat/small_vec.h"
#include "ptl/fragment.h"
#include "ptl/word.h"

namespace tic {

/// Monitor backend for PA-fragment instances. The monitor owns the call
/// order per transaction:
///   - OnFlip for every changed letter of the shared current state,
///   - BeginInstance + StepInstanceOn replay for instances grounded this
///     transaction (the final StepInstanceOn letter must equal the current
///     state so counters align with future OnFlip deltas),
///   - StepDirty to advance every unit a flip touched.
class PointBackend {
 public:
  /// Memoized fragment matcher keyed by hash-consed formula identity.
  /// Returns the compiled shape, or nullptr when f is outside the fragment.
  const ptl::PaShape* ShapeOf(ptl::Formula f);

  /// Registers monitor instance slot `idx` with a shape returned by ShapeOf
  /// (the pointer must stay valid; shapes from this backend's cache are).
  void BeginInstance(uint32_t idx, const ptl::PaShape* shape);

  /// True when slot `idx` is registered with this backend.
  bool Routed(uint32_t idx) const {
    return idx < instances_.size() && instances_[idx].shape != nullptr;
  }

  /// Full-scan step of one instance against an arbitrary letter: used to
  /// replay history at grounding time (one call per RLE run is exact — the
  /// unit transition is idempotent for a fixed letter) and for the
  /// instance's first current-state evaluation.
  void StepInstanceOn(uint32_t idx, const ptl::PropState& letter);

  /// Steady path: apply one current-letter flip to the watched counters.
  void OnFlip(ptl::PropId p, bool now_true);

  /// Steps every dirty unit; returns the number of units stepped.
  uint32_t StepDirty();

  /// Drops all instances, units, and watchers (placement rebuild); the
  /// shape cache survives.
  void Reset();

  /// True when instance `idx` was registered, or a flip reached one of its
  /// units, since the last NoteFold(). When false, every letter since the
  /// fold repeats the last one before it on the instance's watched letters;
  /// the fragment is X-free, hence stutter-invariant, so its formula at the
  /// fold is still its formula now.
  bool MovedSinceFold(uint32_t idx) const {
    return instances_[idx].moved_epoch == fold_epoch_;
  }
  /// Starts a new fold period (Monitor::Compact).
  void NoteFold() { ++fold_epoch_; }

  bool all_alive() const { return num_dead_ == 0; }
  size_t num_instances() const { return num_routed_; }
  size_t num_units() const { return units_.size(); }
  size_t num_dead() const { return num_dead_; }
  bool InstanceAlive(uint32_t idx) const {
    return !Routed(idx) || !instances_[idx].dead;
  }
  /// Index into the instance shape's units of the first falsified unit,
  /// or -1 while the instance is alive.
  int32_t CulpritUnit(uint32_t idx) const {
    return Routed(idx) && instances_[idx].dead
               ? static_cast<int32_t>(instances_[idx].culprit)
               : -1;
  }
  const ptl::PaShape* InstanceShape(uint32_t idx) const {
    return idx < instances_.size() ? instances_[idx].shape : nullptr;
  }

  uint64_t flips_routed() const { return flips_routed_; }
  uint64_t units_stepped() const { return units_stepped_; }

 private:
  struct UnitRt {
    uint32_t inst = 0;        // owning instance slot
    uint32_t shape_unit = 0;  // index into shape->units
    ptl::PaUnit::Kind kind = ptl::PaUnit::Kind::kInvariant;
    bool live = false;
    uint32_t ant_true = 0, rel_true = 0, cls_true = 0;
    uint32_t ant_size = 0, rel_size = 0, cls_size = 0;
    uint64_t dirty_epoch = 0;
  };
  struct InstanceRt {
    const ptl::PaShape* shape = nullptr;
    uint32_t unit_begin = 0, unit_end = 0;  // into units_
    bool started = false;  // first StepInstanceOn done (kOnce gate)
    bool dead = false;
    uint32_t culprit = 0;
    uint64_t moved_epoch = 0;  // fold_epoch_ when last registered or flipped
  };

  void StepUnit(uint32_t u, bool first);
  void MarkDirty(uint32_t u);

  // Watchers packed as (unit << 3) | (part << 1) | negated, part in
  // {0 = ant, 1 = rel, 2 = cls}; indexed by PropId.
  std::vector<flat::SmallVec<uint32_t, 4>> watchers_;
  std::vector<UnitRt> units_;
  std::vector<InstanceRt> instances_;
  std::vector<uint32_t> dirty_;
  uint64_t epoch_ = 1;
  uint64_t fold_epoch_ = 1;
  size_t num_routed_ = 0;
  size_t num_dead_ = 0;
  uint64_t flips_routed_ = 0;
  uint64_t units_stepped_ = 0;

  flat::FlatMap<ptl::Formula, const ptl::PaShape*> shape_cache_;
  std::vector<std::unique_ptr<ptl::PaShape>> shape_pool_;
  ptl::PaShape scratch_shape_;
};

}  // namespace tic

#endif  // TIC_CHECKER_POINTALG_H_
