#include "past/past_monitor.h"

#include <algorithm>
#include <cassert>

#include "fotl/classify.h"

namespace tic {
namespace past {

using fotl::NodeKind;

PastMonitor::PastMonitor(std::shared_ptr<fotl::FormulaFactory> factory,
                         std::vector<Value> constant_interp, Program program)
    : ffac_(std::move(factory)),
      program_(std::move(program)),
      state_(ffac_->vocabulary()),
      constant_interp_(std::move(constant_interp)) {}

Result<std::unique_ptr<PastMonitor>> PastMonitor::Create(
    std::shared_ptr<fotl::FormulaFactory> factory, fotl::Formula constraint,
    std::vector<Value> constant_interp) {
  TIC_ASSIGN_OR_RETURN(Program program,
                       Lower(*factory->vocabulary(), constraint));
  TIC_RETURN_NOT_OK(
      CheckConstantInterpretation(*factory->vocabulary(), constant_interp));
  std::unique_ptr<PastMonitor> m(new PastMonitor(
      std::move(factory), std::move(constant_interp), std::move(program)));

  // Initial domain: constants plus the fresh-element stand-ins (negative
  // codes), with dense ids in domain order.
  std::vector<Value> initial = m->constant_interp_;
  std::sort(initial.begin(), initial.end());
  initial.erase(std::unique(initial.begin(), initial.end()), initial.end());
  m->standin_base_ = initial.size();
  for (size_t i = 0; i < m->program_.num_z; ++i) {
    initial.push_back(-static_cast<Value>(i) - 1);
  }
  m->domain_.reserve(initial.size());
  for (Value v : initial) {
    m->elem_id_.Emplace(v, static_cast<uint32_t>(m->domain_.size()));
    m->domain_.push_back(v);
  }
  m->prev_domain_size_ = m->domain_.size();
  m->tables_.resize(m->program_.tables.size());
  m->env_.resize(m->program_.env_size, 0);
  m->touched_flag_.assign(m->domain_.size(), 0);

  // Delta-frontend escapes: inner quantifiers make any letter flip visible
  // to every valuation, and so do atoms over constant terms.
  for (const Instr& in : m->program_.instrs) {
    if (in.kind == NodeKind::kExists || in.kind == NodeKind::kForall) {
      m->has_quant_ = true;
    }
    if (in.kind == NodeKind::kAtom) {
      for (const fotl::Term& term : in.node->terms()) {
        if (term.is_constant()) {
          m->const_atom_vals_.push_back(m->constant_interp_[term.id]);
        }
      }
    }
  }
  std::sort(m->const_atom_vals_.begin(), m->const_atom_vals_.end());
  m->const_atom_vals_.erase(
      std::unique(m->const_atom_vals_.begin(), m->const_atom_vals_.end()),
      m->const_atom_vals_.end());
  return m;
}

bool PastMonitor::PrevValue(const flat::FlatMap<uint64_t, bool>& map,
                            const uint32_t* ids, size_t arity) const {
  if (const bool* hit = map.Get(PackIds(ids, arity))) return *hit;
  // The valuation mentions elements that only became relevant this instant:
  // before now they were indistinguishable from the fresh-element stand-ins,
  // so canonicalize each such element to a distinct unused stand-in and
  // retry. Arity is tiny (<= kMaxTableArity), so linear scans suffice.
  uint32_t canon[kMaxTableArity];
  size_t next_z = 0;
  for (size_t i = 0; i < arity; ++i) {
    if (ids[i] < prev_domain_size_) {
      canon[i] = ids[i];
      continue;
    }
    // Same fresh element -> same stand-in.
    size_t j = 0;
    for (; j < i; ++j) {
      if (ids[j] == ids[i]) break;
    }
    if (j < i) {
      canon[i] = canon[j];
      continue;
    }
    // Next stand-in not already present in the original valuation.
    for (;; ++next_z) {
      if (next_z >= program_.num_z) return false;  // out of stand-ins
      const uint32_t zid = static_cast<uint32_t>(standin_base_ + next_z);
      bool used = false;
      for (size_t k = 0; k < arity; ++k) {
        if (ids[k] == zid) {
          used = true;
          break;
        }
      }
      if (!used) {
        canon[i] = zid;
        ++next_z;
        break;
      }
    }
  }
  const bool* hit = map.Get(PackIds(canon, arity));
  return hit != nullptr && *hit;
}

void PastMonitor::Touch(uint32_t id) {
  if (touched_flag_[id] != 0) return;
  touched_flag_[id] = 1;
  touched_.push_back(id);
}

void PastMonitor::RecomputeCell(size_t ti, const uint32_t* ids, bool* full) {
  const TableSpec& spec = program_.tables[ti];
  Table& tb = tables_[ti];
  const size_t arity = spec.vars.size();
  for (size_t i = 0; i < arity; ++i) env_[spec.vars[i]] = domain_[ids[i]];
  bool value = false;
  switch (spec.node->kind()) {
    case NodeKind::kPrev:
      // src still holds the previous instant (its update phase runs last).
      value = first_instant_ ? false : PrevValue(tb.src, ids, arity);
      break;
    case NodeKind::kSince:
      if (EvalRange(spec.c1_begin, spec.c1_end)) {
        value = true;
      } else {
        // This cell's val entry is overwritten only below, so the in-place
        // read still sees the previous instant.
        value = EvalRange(spec.c0_begin, spec.c0_end) && !first_instant_ &&
                PrevValue(tb.val, ids, arity);
      }
      break;
    case NodeKind::kOnce:
      value = EvalRange(spec.c0_begin, spec.c0_end) ||
              (!first_instant_ && PrevValue(tb.val, ids, arity));
      break;
    case NodeKind::kHistorically:
      value = EvalRange(spec.c0_begin, spec.c0_end) &&
              (first_instant_ || PrevValue(tb.val, ids, arity));
      break;
    default:
      assert(false && "non-past node in auxiliary tables");  // Lower rejects
      break;
  }
  auto [entry, inserted] = tb.val.Emplace(PackIds(ids, arity), value);
  if (!inserted) {
    if (entry->second == value) return;  // settled: nothing propagates
    entry->second = value;
  }
  tb.changed.push_back(entry->first);
  if (arity == 0) {
    // No elements to propagate through: parents of a closed subformula can
    // sit over any valuation, so escalate to a full sweep.
    *full = true;
  } else {
    for (size_t i = 0; i < arity; ++i) Touch(ids[i]);
  }
}

bool PastMonitor::EvalQuantifier(uint32_t q) {
  const Instr& in = program_.instrs[q];
  const bool is_exists = in.kind == NodeKind::kExists;
  const fotl::VarId var = in.node->var();
  const Value saved = env_[var];  // the variable may shadow an outer binding
  bool result = !is_exists;
  for (Value d : domain_) {
    env_[var] = d;
    const bool a = EvalRange(in.sub_begin, q - 1);
    if (is_exists == a) {
      result = a;
      break;
    }
  }
  env_[var] = saved;
  return result;
}

bool PastMonitor::EvalRange(uint32_t begin, uint32_t end) {
  const size_t base = vals_.size();
  uint32_t i = begin;
  while (i <= end) {
    // Outermost quantifier / table node whose subtree fits in [begin, end];
    // both lists are ascending (innermost first), so scan from the back. A
    // table subtree is evaluated inline only during its own recompute (where
    // the node index exceeds `end`); everywhere else its instructions must
    // be jumped over and the table's value column read instead — executing
    // them inline would push stray operands.
    uint32_t q = UINT32_MAX;
    const auto& qa = program_.quant_at[i];
    for (size_t k = qa.size(); k-- > 0;) {
      if (qa[k] <= end) {
        q = qa[k];
        break;
      }
    }
    uint32_t tn = UINT32_MAX;
    const auto& ta = program_.table_at[i];
    for (size_t k = ta.size(); k-- > 0;) {
      if (ta[k] <= end) {
        tn = ta[k];
        break;
      }
    }
    if (tn != UINT32_MAX && (q == UINT32_MAX || tn > q)) {
      const Instr& node = program_.instrs[tn];
      const TableSpec& spec = program_.tables[node.table];
      uint64_t key = 0;
      for (size_t k = 0; k < spec.vars.size(); ++k) {
        const uint32_t* id = elem_id_.Get(env_[spec.vars[k]]);
        assert(id != nullptr);
        key |= static_cast<uint64_t>(*id) << (16 * k);
      }
      const bool* v = tables_[node.table].val.Get(key);
      assert(v != nullptr);  // val covers domain^arity, children first
      vals_.push_back(v != nullptr && *v ? 1 : 0);
      i = tn + 1;
      continue;
    }
    if (q != UINT32_MAX) {
      vals_.push_back(EvalQuantifier(q) ? 1 : 0);
      i = q + 1;
      continue;
    }
    const Instr& in = program_.instrs[i];
    switch (in.kind) {
      case NodeKind::kTrue:
        vals_.push_back(1);
        break;
      case NodeKind::kFalse:
        vals_.push_back(0);
        break;
      case NodeKind::kEquals: {
        const auto& terms = in.node->terms();
        const Value a = terms[0].is_constant()
                            ? constant_interp_[terms[0].id]
                            : env_[terms[0].id];
        const Value b = terms[1].is_constant()
                            ? constant_interp_[terms[1].id]
                            : env_[terms[1].id];
        vals_.push_back(a == b ? 1 : 0);
        break;
      }
      case NodeKind::kAtom: {
        bool has_z = false;
        args_scratch_.clear();
        for (const fotl::Term& t : in.node->terms()) {
          const Value v =
              t.is_constant() ? constant_interp_[t.id] : env_[t.id];
          has_z = has_z || v < 0;  // stand-ins are in no relation
          args_scratch_.push_back(v);
        }
        vals_.push_back(
            !has_z && state_.Holds(in.node->predicate(), args_scratch_)
                ? 1
                : 0);
        break;
      }
      case NodeKind::kNot:
        vals_.back() = vals_.back() == 0 ? 1 : 0;
        break;
      case NodeKind::kAnd: {
        const uint8_t b = vals_.back();
        vals_.pop_back();
        vals_.back() = (vals_.back() != 0 && b != 0) ? 1 : 0;
        break;
      }
      case NodeKind::kOr: {
        const uint8_t b = vals_.back();
        vals_.pop_back();
        vals_.back() = (vals_.back() != 0 || b != 0) ? 1 : 0;
        break;
      }
      case NodeKind::kImplies: {
        const uint8_t b = vals_.back();
        vals_.pop_back();
        vals_.back() = (vals_.back() == 0 || b != 0) ? 1 : 0;
        break;
      }
      default: {
        // Past-temporal node: read the table's value column.
        assert(in.table >= 0);
        const TableSpec& spec = program_.tables[in.table];
        uint64_t key = 0;
        for (size_t k = 0; k < spec.vars.size(); ++k) {
          const uint32_t* id = elem_id_.Get(env_[spec.vars[k]]);
          assert(id != nullptr);
          key |= static_cast<uint64_t>(*id) << (16 * k);
        }
        const bool* v = tables_[in.table].val.Get(key);
        assert(v != nullptr);  // val covers domain^arity, children first
        vals_.push_back(v != nullptr && *v ? 1 : 0);
        break;
      }
    }
    ++i;
  }
  const bool r = vals_.back() != 0;
  vals_.resize(base);
  return r;
}

Result<PastVerdict> PastMonitor::ApplyTransaction(const Transaction& txn) {
  TIC_RETURN_NOT_OK(tic::ApplyTransaction(&state_, txn));
  PastVerdict verdict;
  verdict.time = num_states_++;  // absolute instant of the new state
  verdict.first_violation = last_verdict_.first_violation;

  // Extend the domain with elements that just became relevant. Every element
  // active now but not before must occur in one of this transaction's
  // surviving inserts (prior active elements are already in the domain), so
  // an O(delta) op scan replaces the O(database) active-domain rescan.
  fresh_scratch_.clear();
  for (const UpdateOp& op : txn) {
    if (op.kind != UpdateOp::Kind::kInsert) continue;
    if (!state_.Holds(op.predicate, op.tuple)) continue;
    for (Value v : op.tuple) {
      if (elem_id_.Contains(v)) continue;
      bool pending = false;
      for (Value f : fresh_scratch_) {
        if (f == v) {
          pending = true;
          break;
        }
      }
      if (!pending) fresh_scratch_.push_back(v);
    }
  }
  std::sort(fresh_scratch_.begin(), fresh_scratch_.end());
  for (Value v : fresh_scratch_) {
    elem_id_.Emplace(v, static_cast<uint32_t>(domain_.size()));
    domain_.push_back(v);
  }
  if (domain_.size() > kMaxDenseElements) {
    return Status::Internal(
        "past evaluator dense-id capacity exceeded (65536 elements)");
  }
  touched_flag_.resize(domain_.size(), 0);

  // Reset the dirty-element set (walking last update's list) and seed it from
  // this transaction: an op can only change letters over its tuple's
  // elements. Flips of constant-term atom letters are visible to every
  // valuation, so they force a full sweep.
  for (uint32_t id : touched_) touched_flag_[id] = 0;
  touched_.clear();
  bool full = first_instant_;
  for (const UpdateOp& op : txn) {
    for (Value v : op.tuple) {
      if (const uint32_t* id = elem_id_.Get(v)) Touch(*id);
      if (!const_atom_vals_.empty() &&
          std::binary_search(const_atom_vals_.begin(), const_atom_vals_.end(),
                             v)) {
        full = true;
      }
    }
  }

  // Cells whose value changed at the previous instant re-evaluate this
  // instant even when untouched: their own prev input changed.
  bool any_pending = false;
  for (Table& tb : tables_) {
    tb.pending.swap(tb.changed);
    tb.changed.clear();
    any_pending = any_pending || !tb.pending.empty();
  }

  // O(delta) fast path, delta == 0: nothing touched, nothing settling.
  // Every cell's inputs and prev are unchanged, so every cell — and with
  // them every substitution's verdict — carries over.
  if (!full && touched_.empty() && !any_pending) {
    verdict.satisfied = last_verdict_.satisfied;
    last_verdict_ = verdict;
    return verdict;
  }
  if (has_quant_) full = true;  // an inner quantifier reads the whole domain

  const size_t dsz = domain_.size();
  // Recompute dirty cells in place at the new instant, children first. A
  // change propagates by touching the cell's elements, which dirties the
  // parents downstream (and the final check); a changed zero-arity cell
  // escalates to a full sweep of the remaining tables instead.
  const size_t fresh_begin = prev_domain_size_;  // ids >= are fresh now
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    const size_t arity = program_.tables[ti].vars.size();
    Table& tb = tables_[ti];
    uint32_t ids[kMaxTableArity] = {0, 0, 0, 0};
    // Every cell with coordinate `e` at some position.
    auto sweep_coord = [&](uint32_t e) {
      for (size_t p = 0; p < arity; ++p) {
        for (size_t i = 0; i < arity; ++i) ids[i] = 0;
        ids[p] = e;
        bool done = false;
        while (!done) {
          RecomputeCell(ti, ids, &full);
          done = true;
          for (size_t d = 0; d < arity; ++d) {
            if (d == p) continue;
            if (++ids[d] < dsz) {
              done = false;
              break;
            }
            ids[d] = 0;
          }
        }
      }
    };
    // The dirty list may grow while we recompute — those additions only
    // concern LATER tables and the final check: a cell of this table depends
    // on elements and child tables only, never on sibling cells.
    const size_t snapshot = touched_.size();
    // Cells with a fresh coordinate FIRST: their prev reads canonicalize to
    // stand-in cells of this same table, which must still hold the previous
    // instant — so they run before any in-place overwrite. (Re-running a
    // cell later is harmless: once its entry exists the prev read direct-hits
    // its own key and the update is idempotent.)
    for (Value v : fresh_scratch_) sweep_coord(*elem_id_.Get(v));
    if (full) {
      for (size_t i = 0; i < arity; ++i) ids[i] = 0;
      while (true) {
        RecomputeCell(ti, ids, &full);
        size_t d = 0;
        while (d < arity && ++ids[d] == dsz) {
          ids[d] = 0;
          ++d;
        }
        if (d == arity) break;
      }
      continue;
    }
    // Remaining tuples with a dirty coordinate, then cells still settling
    // from the previous instant.
    for (size_t xi = 0; xi < snapshot; ++xi) {
      if (touched_[xi] >= fresh_begin) continue;  // already swept above
      sweep_coord(touched_[xi]);
    }
    for (uint64_t key : tb.pending) {
      for (size_t i = 0; i < arity; ++i) {
        ids[i] = static_cast<uint32_t>((key >> (16 * i)) & 0xFFFF);
      }
      RecomputeCell(ti, ids, &full);
    }
  }

  // Check A(theta) at the new instant. On the delta path only substitutions
  // with a dirty coordinate are rechecked — an untouched substitution reads
  // only its own elements' letters and cells, all unchanged, so it still
  // holds. (That argument needs the previous verdict to be "all held"; after
  // a violation, and on full sweeps, sweep everything.)
  bool ok = true;
  const size_t m = program_.external.size();
  const uint32_t last =
      program_.instrs.empty() ? 0
                              : static_cast<uint32_t>(program_.instrs.size() - 1);
  if (full || !last_verdict_.satisfied || m == 0) {
    ext_ids_.assign(m, 0);
    while (ok) {
      for (size_t i = 0; i < m; ++i) {
        env_[program_.external[i]] = domain_[ext_ids_[i]];
      }
      if (!EvalRange(0, last)) ok = false;
      size_t d = 0;
      while (d < m && ++ext_ids_[d] == dsz) {
        ext_ids_[d] = 0;
        ++d;
      }
      if (d == m) break;
    }
  } else {
    for (size_t p = 0; p < m && ok; ++p) {
      for (size_t xi = 0; xi < touched_.size() && ok; ++xi) {
        ext_ids_.assign(m, 0);
        ext_ids_[p] = touched_[xi];
        bool done = false;
        while (!done && ok) {
          for (size_t i = 0; i < m; ++i) {
            env_[program_.external[i]] = domain_[ext_ids_[i]];
          }
          if (!EvalRange(0, last)) ok = false;
          done = true;
          for (size_t d = 0; d < m; ++d) {
            if (d == p) continue;
            if (++ext_ids_[d] < dsz) {
              done = false;
              break;
            }
            ext_ids_[d] = 0;
          }
        }
      }
    }
  }
  verdict.satisfied = ok;
  if (!ok && !verdict.first_violation.has_value()) {
    verdict.first_violation = verdict.time;
  }

  // Update the Prev tables' source columns LAST — their value phase above
  // read the previous instant's src, and the expressions here read other
  // tables at the new instant. src depends on inputs only (no prev of its
  // own), so dirty = touched tuples (using the full post-propagation list);
  // a change means the cell's VALUE changes next instant — record it as
  // pending, but don't touch elements now (the propagation happens next
  // instant when the value actually moves).
  for (size_t ti = 0; ti < tables_.size(); ++ti) {
    const TableSpec& spec = program_.tables[ti];
    if (spec.node->kind() != NodeKind::kPrev) continue;
    Table& tb = tables_[ti];
    const size_t arity = spec.vars.size();
    uint32_t ids[kMaxTableArity] = {0, 0, 0, 0};
    auto update_src = [&](const uint32_t* cell) {
      for (size_t i = 0; i < arity; ++i) env_[spec.vars[i]] = domain_[cell[i]];
      const bool value = EvalRange(spec.c0_begin, spec.c0_end);
      auto [entry, inserted] = tb.src.Emplace(PackIds(cell, arity), value);
      if (!inserted) {
        if (entry->second == value) return;
        entry->second = value;
      }
      tb.changed.push_back(entry->first);
    };
    if (full) {
      while (true) {
        update_src(ids);
        size_t d = 0;
        while (d < arity && ++ids[d] == dsz) {
          ids[d] = 0;
          ++d;
        }
        if (d == arity) break;
      }
      continue;
    }
    for (size_t p = 0; p < arity; ++p) {
      for (size_t xi = 0; xi < touched_.size(); ++xi) {
        for (size_t i = 0; i < arity; ++i) ids[i] = 0;
        ids[p] = touched_[xi];
        bool done = false;
        while (!done) {
          update_src(ids);
          done = true;
          for (size_t d = 0; d < arity; ++d) {
            if (d == p) continue;
            if (++ids[d] < dsz) {
              done = false;
              break;
            }
            ids[d] = 0;
          }
        }
      }
    }
  }

  // Now the new elements are officially relevant.
  prev_domain_size_ = domain_.size();
  first_instant_ = false;
  last_verdict_ = verdict;
  return verdict;
}

size_t PastMonitor::AuxiliaryStateSize() const {
  size_t n = 0;
  for (const Table& tb : tables_) n += tb.val.size();
  return n;
}

PastMonitor::StateImage PastMonitor::ExportImage() const {
  StateImage img;
  img.domain = domain_;
  img.standin_base = standin_base_;
  img.prev_domain_size = prev_domain_size_;
  img.tables.resize(tables_.size());
  for (size_t i = 0; i < tables_.size(); ++i) {
    const Table& tb = tables_[i];
    StateImage::TableImage& ti = img.tables[i];
    ti.val.reserve(tb.val.size());
    tb.val.ForEach([&](const std::pair<uint64_t, bool>& e) {
      ti.val.push_back(e);
    });
    ti.src.reserve(tb.src.size());
    tb.src.ForEach([&](const std::pair<uint64_t, bool>& e) {
      ti.src.push_back(e);
    });
    // Flat-table iteration order is probe order, not deterministic across
    // runs: sort so two snapshots of equal state are byte-identical.
    std::sort(ti.val.begin(), ti.val.end());
    std::sort(ti.src.begin(), ti.src.end());
    ti.changed = tb.changed;
    ti.pending = tb.pending;
  }
  img.num_states = num_states_;
  img.last_verdict = last_verdict_;
  img.time_base = time_base_;
  return img;
}

Status PastMonitor::RestoreImage(StateImage image, DatabaseState state) {
  if (image.tables.size() != tables_.size()) {
    return Status::InvalidArgument(
        "past image table count does not match the compiled program");
  }
  if (image.standin_base + program_.num_z > image.domain.size()) {
    return Status::InvalidArgument("past image domain misses its stand-ins");
  }
  if (image.prev_domain_size > image.domain.size()) {
    return Status::InvalidArgument("past image prev_domain_size out of range");
  }
  if (image.time_base > 0 && image.time_base >= image.num_states) {
    return Status::InvalidArgument("past image time base past the last state");
  }
  state_ = std::move(state);
  domain_ = std::move(image.domain);
  elem_id_.Clear();
  for (size_t i = 0; i < domain_.size(); ++i) {
    auto [e, inserted] =
        elem_id_.Emplace(domain_[i], static_cast<uint32_t>(i));
    (void)e;
    if (!inserted) {
      return Status::InvalidArgument("past image domain has duplicates");
    }
  }
  standin_base_ = image.standin_base;
  prev_domain_size_ = image.prev_domain_size;
  for (size_t i = 0; i < tables_.size(); ++i) {
    Table& tb = tables_[i];
    StateImage::TableImage& ti = image.tables[i];
    tb.val.Clear();
    tb.src.Clear();
    for (const auto& [k, v] : ti.val) tb.val.Emplace(k, v);
    for (const auto& [k, v] : ti.src) tb.src.Emplace(k, v);
    tb.changed = std::move(ti.changed);
    tb.pending = std::move(ti.pending);
  }
  touched_flag_.assign(domain_.size(), 0);
  touched_.clear();
  num_states_ = image.num_states;
  first_instant_ = num_states_ == 0;
  last_verdict_ = image.last_verdict;
  time_base_ = image.time_base;
  return Status::OK();
}

}  // namespace past
}  // namespace tic
