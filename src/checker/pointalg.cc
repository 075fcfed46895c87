#include "checker/pointalg.h"

#include <cassert>

namespace tic {

const ptl::PaShape* PointBackend::ShapeOf(ptl::Formula f) {
  if (const ptl::PaShape* const* hit = shape_cache_.Get(f)) return *hit;
  const ptl::PaShape* shape = nullptr;
  if (ptl::MatchPointAlgebra(f, &scratch_shape_)) {
    shape_pool_.push_back(
        std::make_unique<ptl::PaShape>(std::move(scratch_shape_)));
    scratch_shape_ = ptl::PaShape();
    shape = shape_pool_.back().get();
  }
  shape_cache_.Emplace(f, shape);
  return shape;
}

void PointBackend::BeginInstance(uint32_t idx, const ptl::PaShape* shape) {
  assert(shape != nullptr);
  if (idx >= instances_.size()) instances_.resize(idx + 1);
  InstanceRt& inst = instances_[idx];
  assert(inst.shape == nullptr);
  inst.shape = shape;
  inst.unit_begin = static_cast<uint32_t>(units_.size());
  for (uint32_t si = 0; si < shape->units.size(); ++si) {
    const ptl::PaUnit& pu = shape->units[si];
    if (pu.trivially_true) continue;
    const uint32_t u = static_cast<uint32_t>(units_.size());
    UnitRt rt;
    rt.inst = idx;
    rt.shape_unit = si;
    rt.kind = pu.kind;
    rt.live = pu.kind == ptl::PaUnit::Kind::kRelease;
    rt.ant_size = pu.ant_size();
    rt.rel_size = pu.rel_size();
    rt.cls_size = pu.cls_size();
    units_.push_back(rt);
    // Register watchers: part 0 = ant, 1 = rel, 2 = cls.
    for (uint32_t part = 0; part < 3; ++part) {
      const uint32_t begin = part == 0   ? pu.ant_begin
                             : part == 1 ? pu.rel_begin
                                         : pu.cls_begin;
      const uint32_t end = part == 0   ? pu.ant_end
                           : part == 1 ? pu.rel_end
                                       : pu.cls_end;
      for (uint32_t li = begin; li < end; ++li) {
        const ptl::PaLit& lit = shape->lits[li];
        if (lit.prop >= watchers_.size()) watchers_.resize(lit.prop + 1);
        watchers_[lit.prop].push_back((u << 3) | (part << 1) |
                                      (lit.negated ? 1u : 0u));
      }
    }
  }
  inst.unit_end = static_cast<uint32_t>(units_.size());
  dirty_.reserve(units_.size());
  ++num_routed_;
}

void PointBackend::StepInstanceOn(uint32_t idx, const ptl::PropState& letter) {
  InstanceRt& inst = instances_[idx];
  const ptl::PaShape& shape = *inst.shape;
  const bool first = !inst.started;
  for (uint32_t u = inst.unit_begin; u < inst.unit_end; ++u) {
    UnitRt& rt = units_[u];
    const ptl::PaUnit& pu = shape.units[rt.shape_unit];
    uint32_t counts[3] = {0, 0, 0};
    const uint32_t begins[3] = {pu.ant_begin, pu.rel_begin, pu.cls_begin};
    const uint32_t ends[3] = {pu.ant_end, pu.rel_end, pu.cls_end};
    for (uint32_t part = 0; part < 3; ++part) {
      for (uint32_t li = begins[part]; li < ends[part]; ++li) {
        const ptl::PaLit& lit = shape.lits[li];
        if (letter.Get(lit.prop) != lit.negated) ++counts[part];
      }
    }
    rt.ant_true = counts[0];
    rt.rel_true = counts[1];
    rt.cls_true = counts[2];
    StepUnit(u, first);
  }
  inst.started = true;
}

void PointBackend::OnFlip(ptl::PropId p, bool now_true) {
  if (p >= watchers_.size()) return;
  for (uint32_t w : watchers_[p]) {
    const uint32_t u = w >> 3;
    const uint32_t part = (w >> 1) & 3;
    const bool lit_true = now_true != ((w & 1) != 0);
    UnitRt& rt = units_[u];
    uint32_t& count = part == 0   ? rt.ant_true
                      : part == 1 ? rt.rel_true
                                  : rt.cls_true;
    if (lit_true) {
      ++count;
    } else {
      --count;
    }
    MarkDirty(u);
    ++flips_routed_;
  }
}

void PointBackend::MarkDirty(uint32_t u) {
  if (units_[u].dirty_epoch == epoch_) return;
  units_[u].dirty_epoch = epoch_;
  dirty_.push_back(u);
}

uint32_t PointBackend::StepDirty() {
  const uint32_t stepped = static_cast<uint32_t>(dirty_.size());
  for (uint32_t u : dirty_) StepUnit(u, /*first=*/false);
  dirty_.clear();
  ++epoch_;
  units_stepped_ += stepped;
  return stepped;
}

void PointBackend::StepUnit(uint32_t u, bool first) {
  UnitRt& rt = units_[u];
  InstanceRt& inst = instances_[rt.inst];
  if (inst.dead) return;  // verdicts are sticky
  bool violated = false;
  switch (rt.kind) {
    case ptl::PaUnit::Kind::kOnce:
      violated = first && rt.cls_true == 0;
      break;
    case ptl::PaUnit::Kind::kInvariant:
      violated = rt.cls_true == 0;
      break;
    case ptl::PaUnit::Kind::kRelease:
      if (!rt.live) break;
      if (rt.cls_true == 0) {
        violated = true;
      } else if (rt.rel_true == rt.rel_size) {
        rt.live = false;  // weak release discharged (c held here too)
      }
      break;
    case ptl::PaUnit::Kind::kTrigger:
      if (rt.ant_true == rt.ant_size) rt.live = true;
      violated = rt.live && rt.cls_true == 0;
      break;
    case ptl::PaUnit::Kind::kTriggerRelease:
      if (rt.ant_true == rt.ant_size) rt.live = true;  // arm / re-arm
      if (!rt.live) break;
      if (rt.cls_true == 0) {
        violated = true;
      } else if (rt.rel_true == rt.rel_size) {
        rt.live = false;
      }
      break;
  }
  if (violated) {
    inst.dead = true;
    inst.culprit = rt.shape_unit;
    ++num_dead_;
  }
}

void PointBackend::Reset() {
  watchers_.clear();
  units_.clear();
  instances_.clear();
  dirty_.clear();
  num_routed_ = 0;
  num_dead_ = 0;
  // epoch_ keeps counting so stale dirty stamps can never collide.
}

}  // namespace tic
