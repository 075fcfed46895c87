#include "checker/checkpoint.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/snapshot/snapshot.h"
#include "common/telemetry/telemetry.h"
#include "fotl/parser.h"
#include "fotl/printer.h"

namespace tic {
namespace checker {
namespace {

namespace snap = tic::snapshot;

// option_flags bit layout inside the kSecMeta prefix (unchanged since
// kStateVersion 1).
constexpr uint32_t kFlagRequireSafety = 1u << 0;
constexpr uint32_t kFlagRouter = 1u << 1;
constexpr uint32_t kFlagRouterForcePast = 1u << 2;
constexpr uint32_t kFlagCohortStepping = 1u << 3;
constexpr uint32_t kFlagProvenance = 1u << 4;
constexpr uint32_t kFlagWantWitness = 1u << 5;
constexpr uint32_t kFlagDead = 1u << 6;
constexpr uint32_t kFlagCompacted = 1u << 7;
constexpr uint32_t kFlagCurLetterValid = 1u << 8;
constexpr uint32_t kFlagAnyVerdict = 1u << 9;
constexpr uint32_t kFlagLastSat = 1u << 10;
constexpr uint32_t kKnownOptionFlags =
    kFlagRequireSafety | kFlagRouter | kFlagRouterForcePast |
    kFlagCohortStepping | kFlagProvenance | kFlagWantWitness | kFlagDead |
    kFlagCompacted | kFlagCurLetterValid | kFlagAnyVerdict | kFlagLastSat;

// ---------------------------------------------------------------------------
// Encoding helpers
// ---------------------------------------------------------------------------

void EncodeVocabulary(snap::ByteWriter* w, const Vocabulary& vocab,
                      const std::vector<Value>& constant_interp) {
  w->PutU32(static_cast<uint32_t>(vocab.num_predicates()));
  for (PredicateId p = 0; p < vocab.num_predicates(); ++p) {
    const PredicateInfo& info = vocab.predicate(p);
    w->PutString(info.name);
    w->PutU32(info.arity);
    w->PutU8(static_cast<uint8_t>(info.builtin));
  }
  w->PutU32(static_cast<uint32_t>(vocab.num_constants()));
  for (ConstantId c = 0; c < vocab.num_constants(); ++c) {
    w->PutString(vocab.constant_name(c));
  }
  w->PutU32(static_cast<uint32_t>(constant_interp.size()));
  for (Value v : constant_interp) w->PutI64(v);
}

void EncodeHistory(snap::ByteWriter* w, const History& h) {
  const Vocabulary& vocab = *h.vocabulary();
  w->PutU64(h.length());
  for (size_t t = 0; t < h.length(); ++t) {
    // Alias runs (empty transactions share the previous state object) are
    // preserved: restoring re-aliases instead of deep-copying, so a snapshot
    // of a long steady-state history stays small.
    if (t > 0 && &h.state(t) == &h.state(t - 1)) {
      w->PutU8(1);
      continue;
    }
    w->PutU8(0);
    const DatabaseState& s = h.state(t);
    for (PredicateId p = 0; p < vocab.num_predicates(); ++p) {
      if (vocab.predicate(p).builtin != Builtin::kNone) continue;
      const Relation& rel = s.relation(p);
      // Hash-set iteration order is not deterministic across runs; sort so
      // two snapshots of equal state are byte-identical.
      std::vector<Tuple> tuples(rel.begin(), rel.end());
      std::sort(tuples.begin(), tuples.end());
      w->PutU64(tuples.size());
      for (const Tuple& tuple : tuples) {
        for (Value v : tuple) w->PutI64(v);
      }
    }
  }
}

Result<History> DecodeHistory(snap::ByteReader* r, VocabularyPtr vocab,
                              std::vector<Value> constant_interp) {
  TIC_ASSIGN_OR_RETURN(
      History h, History::Create(std::move(vocab), std::move(constant_interp)));
  const Vocabulary& v = *h.vocabulary();
  TIC_ASSIGN_OR_RETURN(uint64_t nstates, r->ReadU64());
  for (uint64_t t = 0; t < nstates; ++t) {
    TIC_ASSIGN_OR_RETURN(uint8_t tag, r->ReadU8());
    if (tag == 1) {
      TIC_RETURN_NOT_OK(h.AppendAliasOfLast());
      continue;
    }
    if (tag != 0) {
      return Status::ParseError("snapshot: unknown history state tag");
    }
    DatabaseState* s = h.AppendEmptyState();
    for (PredicateId p = 0; p < v.num_predicates(); ++p) {
      if (v.predicate(p).builtin != Builtin::kNone) continue;
      const uint32_t arity = v.predicate(p).arity;
      TIC_ASSIGN_OR_RETURN(uint64_t ntuples, r->ReadU64());
      for (uint64_t i = 0; i < ntuples; ++i) {
        Tuple tuple(arity);
        for (uint32_t a = 0; a < arity; ++a) {
          TIC_ASSIGN_OR_RETURN(tuple[a], r->ReadI64());
        }
        TIC_RETURN_NOT_OK(s->Insert(p, std::move(tuple)));
      }
    }
  }
  return h;
}

// Shared hash-consed node pool over all serialized residuals: nodes in
// post-order (children strictly before parents), roots referenced by index
// from the instance/pattern records. Linear in DISTINCT nodes — symmetric
// instances sharing a residual cost one entry plus one index.
class FormulaPoolWriter {
 public:
  uint32_t Add(ptl::Formula f) {
    auto hit = index_.find(f);
    if (hit != index_.end()) return hit->second;
    // Iterative post-order: a deep residual must not overflow the stack.
    struct Frame {
      ptl::Formula f;
      bool expanded;
    };
    std::vector<Frame> stack{{f, false}};
    while (!stack.empty()) {
      Frame fr = stack.back();
      stack.pop_back();
      if (index_.count(fr.f) > 0) continue;
      ptl::Formula c0 = nullptr;
      ptl::Formula c1 = nullptr;
      if (fr.f->kind() != ptl::Kind::kTrue &&
          fr.f->kind() != ptl::Kind::kFalse &&
          fr.f->kind() != ptl::Kind::kAtom) {
        c0 = fr.f->child(0);
        c1 = ptl::IsBinary(fr.f->kind()) ? fr.f->child(1) : nullptr;
      }
      if (!fr.expanded) {
        stack.push_back({fr.f, true});
        if (c1 != nullptr && index_.count(c1) == 0) stack.push_back({c1, false});
        if (c0 != nullptr && index_.count(c0) == 0) stack.push_back({c0, false});
        continue;
      }
      nodes_.push_back(fr.f);
      index_.emplace(fr.f, static_cast<uint32_t>(nodes_.size() - 1));
    }
    return index_.at(f);
  }

  void Encode(snap::ByteWriter* w) const {
    w->PutU64(nodes_.size());
    for (ptl::Formula f : nodes_) {
      w->PutU8(static_cast<uint8_t>(f->kind()));
      switch (f->kind()) {
        case ptl::Kind::kTrue:
        case ptl::Kind::kFalse:
          break;
        case ptl::Kind::kAtom:
          w->PutU32(f->atom());
          break;
        case ptl::Kind::kNot:
        case ptl::Kind::kNext:
        case ptl::Kind::kEventually:
        case ptl::Kind::kAlways:
          w->PutU32(index_.at(f->child(0)));
          break;
        default:  // binary
          w->PutU32(index_.at(f->child(0)));
          w->PutU32(index_.at(f->child(1)));
          break;
      }
    }
  }

 private:
  std::vector<ptl::Formula> nodes_;
  std::unordered_map<ptl::Formula, uint32_t> index_;
};

Result<std::vector<ptl::Formula>> DecodeFormulaPool(
    snap::ByteReader* r, ptl::Factory* pf, size_t num_props) {
  TIC_ASSIGN_OR_RETURN(uint64_t nnodes, r->ReadU64());
  std::vector<ptl::Formula> pool;
  for (uint64_t i = 0; i < nnodes; ++i) {
    TIC_ASSIGN_OR_RETURN(uint8_t kind_byte, r->ReadU8());
    if (kind_byte > static_cast<uint8_t>(ptl::Kind::kAlways)) {
      return Status::ParseError("snapshot: unknown formula node kind");
    }
    ptl::Kind k = static_cast<ptl::Kind>(kind_byte);
    auto child = [&]() -> Result<ptl::Formula> {
      TIC_ASSIGN_OR_RETURN(uint32_t idx, r->ReadU32());
      if (idx >= pool.size()) {
        return Status::ParseError("snapshot: formula child index out of range");
      }
      return pool[idx];
    };
    ptl::Formula f = nullptr;
    switch (k) {
      case ptl::Kind::kTrue:
        f = pf->True();
        break;
      case ptl::Kind::kFalse:
        f = pf->False();
        break;
      case ptl::Kind::kAtom: {
        TIC_ASSIGN_OR_RETURN(uint32_t p, r->ReadU32());
        if (p >= num_props) {
          return Status::ParseError("snapshot: formula atom names unknown letter");
        }
        f = pf->Atom(static_cast<ptl::PropId>(p));
        break;
      }
      case ptl::Kind::kNot: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        f = pf->Not(a);
        break;
      }
      case ptl::Kind::kNext: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        f = pf->Next(a);
        break;
      }
      case ptl::Kind::kEventually: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        f = pf->Eventually(a);
        break;
      }
      case ptl::Kind::kAlways: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        f = pf->Always(a);
        break;
      }
      case ptl::Kind::kAnd: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        TIC_ASSIGN_OR_RETURN(ptl::Formula b, child());
        f = pf->And(a, b);
        break;
      }
      case ptl::Kind::kOr: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        TIC_ASSIGN_OR_RETURN(ptl::Formula b, child());
        f = pf->Or(a, b);
        break;
      }
      case ptl::Kind::kImplies: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        TIC_ASSIGN_OR_RETURN(ptl::Formula b, child());
        f = pf->Implies(a, b);
        break;
      }
      case ptl::Kind::kUntil: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        TIC_ASSIGN_OR_RETURN(ptl::Formula b, child());
        f = pf->Until(a, b);
        break;
      }
      case ptl::Kind::kRelease: {
        TIC_ASSIGN_OR_RETURN(ptl::Formula a, child());
        TIC_ASSIGN_OR_RETURN(ptl::Formula b, child());
        f = pf->Release(a, b);
        break;
      }
    }
    pool.push_back(f);
  }
  return pool;
}

void EncodeAssignment(snap::ByteWriter* w,
                      const std::vector<GroundElem>& assignment) {
  w->PutU32(static_cast<uint32_t>(assignment.size()));
  for (const GroundElem& e : assignment) w->PutI64(e.code);
}

Result<std::vector<GroundElem>> DecodeAssignment(snap::ByteReader* r,
                                                 size_t expected_size) {
  TIC_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  if (n != expected_size) {
    return Status::ParseError(
        "snapshot: assignment arity does not match the constraint");
  }
  std::vector<GroundElem> out(n);
  for (uint32_t i = 0; i < n; ++i) {
    TIC_ASSIGN_OR_RETURN(out[i].code, r->ReadI64());
  }
  return out;
}

void EncodeValues(snap::ByteWriter* w, const std::vector<Value>& vs) {
  w->PutU64(vs.size());
  for (Value v : vs) w->PutI64(v);
}

Result<std::vector<Value>> DecodeValues(snap::ByteReader* r) {
  TIC_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
  std::vector<Value> out;
  for (uint64_t i = 0; i < n; ++i) {
    TIC_ASSIGN_OR_RETURN(Value v, r->ReadI64());
    out.push_back(v);
  }
  return out;
}

void EncodeIndexLists(snap::ByteWriter* w,
                      const std::vector<std::vector<uint32_t>>& lists) {
  w->PutU32(static_cast<uint32_t>(lists.size()));
  for (const auto& l : lists) {
    w->PutU32(static_cast<uint32_t>(l.size()));
    for (uint32_t v : l) w->PutU32(v);
  }
}

Result<std::vector<std::vector<uint32_t>>> DecodeIndexLists(
    snap::ByteReader* r) {
  TIC_ASSIGN_OR_RETURN(uint32_t n, r->ReadU32());
  std::vector<std::vector<uint32_t>> out;
  for (uint32_t i = 0; i < n; ++i) {
    TIC_ASSIGN_OR_RETURN(uint32_t m, r->ReadU32());
    std::vector<uint32_t> l;
    for (uint32_t j = 0; j < m; ++j) {
      TIC_ASSIGN_OR_RETURN(uint32_t v, r->ReadU32());
      l.push_back(v);
    }
    out.push_back(std::move(l));
  }
  return out;
}

void EncodePastImage(snap::ByteWriter* w,
                     const past::PastMonitor::StateImage& img) {
  EncodeValues(w, img.domain);
  w->PutU64(img.standin_base);
  w->PutU64(img.prev_domain_size);
  w->PutU32(static_cast<uint32_t>(img.tables.size()));
  for (const auto& t : img.tables) {
    auto put_cells = [&](const std::vector<std::pair<uint64_t, bool>>& cells) {
      w->PutU64(cells.size());
      for (const auto& [key, val] : cells) {
        w->PutU64(key);
        w->PutU8(val ? 1 : 0);
      }
    };
    auto put_keys = [&](const std::vector<uint64_t>& keys) {
      w->PutU64(keys.size());
      for (uint64_t k : keys) w->PutU64(k);
    };
    put_cells(t.val);
    put_cells(t.src);
    put_keys(t.changed);
    put_keys(t.pending);
  }
  w->PutU8(img.first_instant ? 1 : 0);
  w->PutU64(img.last_verdict.time);
  w->PutU8(img.last_verdict.satisfied ? 1 : 0);
  w->PutU8(img.last_verdict.first_violation.has_value() ? 1 : 0);
  w->PutU64(img.last_verdict.first_violation.value_or(0));
  w->PutU64(img.time_base);
}

Result<past::PastMonitor::StateImage> DecodePastImage(snap::ByteReader* r) {
  past::PastMonitor::StateImage img;
  TIC_ASSIGN_OR_RETURN(img.domain, DecodeValues(r));
  TIC_ASSIGN_OR_RETURN(img.standin_base, r->ReadU64());
  TIC_ASSIGN_OR_RETURN(img.prev_domain_size, r->ReadU64());
  TIC_ASSIGN_OR_RETURN(uint32_t ntables, r->ReadU32());
  for (uint32_t i = 0; i < ntables; ++i) {
    past::PastMonitor::StateImage::TableImage t;
    auto get_cells =
        [&](std::vector<std::pair<uint64_t, bool>>* cells) -> Status {
      TIC_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
      for (uint64_t j = 0; j < n; ++j) {
        TIC_ASSIGN_OR_RETURN(uint64_t key, r->ReadU64());
        TIC_ASSIGN_OR_RETURN(uint8_t val, r->ReadU8());
        if (val > 1) return Status::ParseError("snapshot: non-boolean cell");
        cells->emplace_back(key, val != 0);
      }
      return Status::OK();
    };
    auto get_keys = [&](std::vector<uint64_t>* keys) -> Status {
      TIC_ASSIGN_OR_RETURN(uint64_t n, r->ReadU64());
      for (uint64_t j = 0; j < n; ++j) {
        TIC_ASSIGN_OR_RETURN(uint64_t k, r->ReadU64());
        keys->push_back(k);
      }
      return Status::OK();
    };
    TIC_RETURN_NOT_OK(get_cells(&t.val));
    TIC_RETURN_NOT_OK(get_cells(&t.src));
    TIC_RETURN_NOT_OK(get_keys(&t.changed));
    TIC_RETURN_NOT_OK(get_keys(&t.pending));
    img.tables.push_back(std::move(t));
  }
  TIC_ASSIGN_OR_RETURN(uint8_t first, r->ReadU8());
  img.first_instant = first != 0;
  TIC_ASSIGN_OR_RETURN(img.last_verdict.time, r->ReadU64());
  TIC_ASSIGN_OR_RETURN(uint8_t sat, r->ReadU8());
  img.last_verdict.satisfied = sat != 0;
  TIC_ASSIGN_OR_RETURN(uint8_t has_fv, r->ReadU8());
  TIC_ASSIGN_OR_RETURN(uint64_t fv, r->ReadU64());
  if (has_fv != 0) img.last_verdict.first_violation = fv;
  TIC_ASSIGN_OR_RETURN(img.time_base, r->ReadU64());
  return img;
}

}  // namespace

// ---------------------------------------------------------------------------
// Serialize
// ---------------------------------------------------------------------------

Result<std::string> MonitorCheckpoint::Serialize(const Monitor& m) {
  TIC_SPAN("checkpoint.serialize");
  snap::SnapshotWriter w;

  const bool past_route = m.past_ != nullptr;
  const History& history = m.history();

  uint32_t flags = 0;
  if (m.options_.require_safety) flags |= kFlagRequireSafety;
  if (m.options_.router) flags |= kFlagRouter;
  if (m.options_.router_force_past) flags |= kFlagRouterForcePast;
  if (m.options_.cohort_stepping) flags |= kFlagCohortStepping;
  if (m.options_.provenance) flags |= kFlagProvenance;
  if (m.options_.want_witness) flags |= kFlagWantWitness;
  if (m.dead_) flags |= kFlagDead;
  if (m.compacted_) flags |= kFlagCompacted;
  if (m.cur_letter_valid_) flags |= kFlagCurLetterValid;
  if (m.any_verdict_) flags |= kFlagAnyVerdict;
  if (m.last_sat_) flags |= kFlagLastSat;

  snap::MetaPrefix meta;
  meta.state_version = kStateVersion;
  meta.backend = static_cast<uint8_t>(m.backend_);
  meta.mode = static_cast<uint8_t>(m.mode_);
  meta.option_flags = flags;
  meta.time_base = m.time_base();
  meta.history_length = history.length();
  meta.num_instances = m.instances_.size();
  meta.num_letters = m.letter_log_.size();
  snap::ByteWriter* mw = w.AddSection(snap::kSecMeta);
  snap::WriteMetaPrefix(mw, meta);
  mw->PutU32(m.options_.cohort_minimize_interval);

  EncodeVocabulary(w.AddSection(snap::kSecVocabulary), *m.ffac_->vocabulary(),
                   history.constant_interpretation());
  w.AddSection(snap::kSecConstraint)
      ->PutString(fotl::ToString(*m.ffac_, m.phi_));
  EncodeHistory(w.AddSection(snap::kSecHistory), history);

  // Last verdict, semantic fields only (meaningful when kFlagAnyVerdict).
  {
    snap::ByteWriter* vw = w.AddSection(snap::kSecVerdict);
    vw->PutU64(m.last_verdict_.time);
    vw->PutU8(m.last_verdict_.potentially_satisfied ? 1 : 0);
    vw->PutU8(m.last_verdict_.permanently_violated ? 1 : 0);
    vw->PutU64(m.last_verdict_.num_instances);
    vw->PutU64(m.last_verdict_.residual_size);
  }

  if (past_route) {
    EncodePastImage(w.AddSection(snap::kSecPast), m.past_->ExportImage());
    return w.Finish();
  }

  // Letters in mint order: restore re-mints through Monitor::Letter and
  // verifies each id, so PropIds inside formulas and the word stay valid.
  {
    snap::ByteWriter* lw = w.AddSection(snap::kSecLetters);
    lw->PutU64(m.letter_log_.size());
    for (const auto& entry : m.letter_log_) {
      lw->PutU32(entry.key.pred);
      lw->PutU32(static_cast<uint32_t>(entry.key.codes.size()));
      for (Value c : entry.key.codes) lw->PutI64(c);
      lw->PutU32(entry.id);
    }
  }

  // One shared node pool over instance bases and compaction patterns. The
  // progression backend's running residuals are not stored: the restored
  // monitor derives them from basis plus word on its next update.
  FormulaPoolWriter pool;
  std::vector<uint32_t> instance_roots;
  instance_roots.reserve(m.instances_.size());
  for (const auto& inst : m.instances_) {
    instance_roots.push_back(pool.Add(inst.residual));
  }
  std::vector<uint32_t> pattern_roots;
  pattern_roots.reserve(m.compact_patterns_.size());
  for (const auto& p : m.compact_patterns_) {
    pattern_roots.push_back(pool.Add(p.residual));
  }
  pool.Encode(w.AddSection(snap::kSecFormulas));

  {
    snap::ByteWriter* iw = w.AddSection(snap::kSecInstances);
    iw->PutU64(m.instances_.size());
    for (size_t i = 0; i < m.instances_.size(); ++i) {
      EncodeAssignment(iw, m.instances_[i].assignment);
      iw->PutU32(instance_roots[i]);
    }
  }

  {
    snap::ByteWriter* ww = w.AddSection(snap::kSecWord);
    ww->PutU64(m.word_.size());
    for (const auto& e : m.word_) {
      ww->PutU64(e.repeat);
      const auto& trues = e.w.trues();
      ww->PutU32(static_cast<uint32_t>(trues.size()));
      for (ptl::PropId p : trues) ww->PutU32(p);
    }
    // The current-state letter rides along verbatim. It is NOT recomputable
    // from the history at restore time: recomputation would mint letters the
    // live monitor never created (e.g. a dead monitor stops minting), and a
    // dead monitor's cur_letter_ may legitimately lag the last history state.
    if (m.cur_letter_valid_) {
      const auto& trues = m.cur_letter_.trues();
      ww->PutU32(static_cast<uint32_t>(trues.size()));
      for (ptl::PropId p : trues) ww->PutU32(p);
    }
  }

  EncodeValues(w.AddSection(snap::kSecRelevant), m.known_relevant_);

  if (m.compacted_) {
    snap::ByteWriter* cw = w.AddSection(snap::kSecCompact);
    EncodeValues(cw, m.compact_relevant_);
    cw->PutU64(m.compact_patterns_.size());
    for (size_t i = 0; i < m.compact_patterns_.size(); ++i) {
      EncodeAssignment(cw, m.compact_patterns_[i].assignment);
      cw->PutU32(pattern_roots[i]);
    }
  }

  if (m.options_.tableau.verdict_cache != nullptr) {
    std::vector<ptl::VerdictCache::ExportedVerdict> entries =
        m.options_.tableau.verdict_cache->Export();
    snap::ByteWriter* cw = w.AddSection(snap::kSecCache);
    cw->PutU64(entries.size());
    for (const auto& e : entries) {
      cw->PutU64(e.fp.lo);
      cw->PutU64(e.fp.hi);
      cw->PutU8(e.satisfiable ? 1 : 0);
      cw->PutU8(e.has_witness ? 1 : 0);
      EncodeIndexLists(cw, e.prefix);
      EncodeIndexLists(cw, e.loop);
    }
  }

  return w.Finish();
}

// ---------------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Monitor>> MonitorCheckpoint::Restore(
    std::string_view blob, const RestoreOptions& ro) {
  TIC_SPAN("checkpoint.restore");
  TIC_ASSIGN_OR_RETURN(snap::SnapshotReader reader,
                       snap::SnapshotReader::Parse(blob));

  // --- META ---
  TIC_ASSIGN_OR_RETURN(std::string_view meta_bytes,
                       reader.Require(snap::kSecMeta));
  snap::ByteReader mr(meta_bytes);
  TIC_ASSIGN_OR_RETURN(snap::MetaPrefix meta, snap::ReadMetaPrefix(&mr));
  if (meta.state_version != kStateVersion) {
    return Status::ParseError("snapshot: unsupported checkpoint state version " +
                              std::to_string(meta.state_version));
  }
  if (meta.backend > static_cast<uint8_t>(MonitorBackend::kPastStateless)) {
    return Status::ParseError("snapshot: unknown backend byte");
  }
  if (meta.mode > static_cast<uint8_t>(MonitorMode::kLazy)) {
    return Status::ParseError("snapshot: unknown mode byte");
  }
  if ((meta.option_flags & ~kKnownOptionFlags) != 0) {
    return Status::ParseError("snapshot: unknown option flag bits");
  }
  TIC_ASSIGN_OR_RETURN(uint32_t cohort_minimize_interval, mr.ReadU32());
  TIC_RETURN_NOT_OK(mr.ExpectEnd());
  const auto backend = static_cast<MonitorBackend>(meta.backend);
  const auto mode = static_cast<MonitorMode>(meta.mode);
  const uint32_t flags = meta.option_flags;
  const bool past_route = backend == MonitorBackend::kPastStateless;

  // Per-route section whitelist: a universal snapshot carrying past cells (or
  // vice versa) is corruption, not an extension point.
  for (const auto& sec : reader.sections()) {
    bool ok;
    switch (sec.id) {
      case snap::kSecMeta:
      case snap::kSecVocabulary:
      case snap::kSecConstraint:
      case snap::kSecHistory:
      case snap::kSecVerdict:
        ok = true;
        break;
      case snap::kSecPast:
        ok = past_route;
        break;
      case snap::kSecCompact:
        ok = !past_route && (flags & kFlagCompacted) != 0;
        break;
      default:
        ok = !past_route;
        break;
    }
    if (!ok) {
      return Status::ParseError(std::string("snapshot: section '") +
                                snap::SectionName(sec.id) +
                                "' not valid for this route");
    }
  }

  // --- VOCABULARY ---
  TIC_ASSIGN_OR_RETURN(std::string_view vocab_bytes,
                       reader.Require(snap::kSecVocabulary));
  snap::ByteReader vr(vocab_bytes);
  auto vocab = std::make_shared<Vocabulary>();
  TIC_ASSIGN_OR_RETURN(uint32_t npred, vr.ReadU32());
  for (uint32_t i = 0; i < npred; ++i) {
    TIC_ASSIGN_OR_RETURN(std::string_view name, vr.ReadString());
    TIC_ASSIGN_OR_RETURN(uint32_t arity, vr.ReadU32());
    TIC_ASSIGN_OR_RETURN(uint8_t builtin_byte, vr.ReadU8());
    if (builtin_byte > static_cast<uint8_t>(Builtin::kZero)) {
      return Status::ParseError("snapshot: unknown builtin kind");
    }
    PredicateId got;
    if (builtin_byte == static_cast<uint8_t>(Builtin::kNone)) {
      TIC_ASSIGN_OR_RETURN(got, vocab->AddPredicate(name, arity));
    } else {
      TIC_ASSIGN_OR_RETURN(
          got, vocab->AddBuiltin(name, static_cast<Builtin>(builtin_byte)));
    }
    if (got != i || vocab->predicate(got).arity != arity) {
      return Status::ParseError("snapshot: vocabulary does not rebuild "
                                "identically (predicate id or arity)");
    }
  }
  TIC_ASSIGN_OR_RETURN(uint32_t nconst, vr.ReadU32());
  for (uint32_t i = 0; i < nconst; ++i) {
    TIC_ASSIGN_OR_RETURN(std::string_view name, vr.ReadString());
    TIC_ASSIGN_OR_RETURN(ConstantId got, vocab->AddConstant(name));
    if (got != i) {
      return Status::ParseError("snapshot: constant ids do not rebuild "
                                "identically");
    }
  }
  TIC_ASSIGN_OR_RETURN(uint32_t ninterp, vr.ReadU32());
  if (ninterp != nconst) {
    return Status::ParseError(
        "snapshot: constant interpretation does not cover the constants");
  }
  std::vector<Value> constant_interp(ninterp);
  for (uint32_t i = 0; i < ninterp; ++i) {
    TIC_ASSIGN_OR_RETURN(constant_interp[i], vr.ReadI64());
  }
  TIC_RETURN_NOT_OK(vr.ExpectEnd());

  // --- CONSTRAINT ---
  TIC_ASSIGN_OR_RETURN(std::string_view con_bytes,
                       reader.Require(snap::kSecConstraint));
  snap::ByteReader cr(con_bytes);
  TIC_ASSIGN_OR_RETURN(std::string_view constraint_text, cr.ReadString());
  TIC_RETURN_NOT_OK(cr.ExpectEnd());
  auto factory = std::make_shared<fotl::FormulaFactory>(vocab);
  TIC_ASSIGN_OR_RETURN(fotl::Formula phi,
                       fotl::Parse(factory.get(), constraint_text));

  // --- Rebuild the monitor shell ---
  CheckOptions options;
  options.require_safety = (flags & kFlagRequireSafety) != 0;
  options.router = (flags & kFlagRouter) != 0;
  options.router_force_past = (flags & kFlagRouterForcePast) != 0;
  options.cohort_stepping = (flags & kFlagCohortStepping) != 0;
  options.provenance = (flags & kFlagProvenance) != 0;
  options.want_witness = (flags & kFlagWantWitness) != 0;
  options.cohort_minimize_interval = cohort_minimize_interval;
  // The meta backend byte records the EFFECTIVE backend; requesting it as the
  // option reproduces the same resolution (kPastStateless is never an option
  // value — the route is re-derived from the constraint and checked below).
  options.backend = backend == MonitorBackend::kProgression
                        ? MonitorBackend::kProgression
                        : MonitorBackend::kAutomaton;
  // Runtime wiring comes from the restoring process, never from the blob.
  options.tableau.verdict_cache = ro.verdict_cache;
  options.automaton_cache = ro.automaton_cache;
  options.thread_pool = ro.thread_pool;
  options.threads = ro.threads;

  TIC_ASSIGN_OR_RETURN(std::unique_ptr<Monitor> m,
                       Monitor::Create(factory, phi, constant_interp, options,
                                       mode));
  if (m->backend_ != backend) {
    return Status::ParseError(
        "snapshot: recorded backend does not match the routed constraint");
  }

  // --- HISTORY ---
  TIC_ASSIGN_OR_RETURN(std::string_view hist_bytes,
                       reader.Require(snap::kSecHistory));
  snap::ByteReader hr(hist_bytes);
  TIC_ASSIGN_OR_RETURN(History restored_history,
                       DecodeHistory(&hr, vocab, constant_interp));
  TIC_RETURN_NOT_OK(hr.ExpectEnd());
  if (restored_history.length() != meta.history_length) {
    return Status::ParseError(
        "snapshot: history length disagrees with the meta section");
  }

  // --- VERDICT (semantic fields; backend/stats fields restart at zero) ---
  TIC_ASSIGN_OR_RETURN(std::string_view verdict_bytes,
                       reader.Require(snap::kSecVerdict));
  snap::ByteReader vdr(verdict_bytes);
  MonitorVerdict verdict;
  TIC_ASSIGN_OR_RETURN(verdict.time, vdr.ReadU64());
  TIC_ASSIGN_OR_RETURN(uint8_t pot_sat, vdr.ReadU8());
  verdict.potentially_satisfied = pot_sat != 0;
  TIC_ASSIGN_OR_RETURN(uint8_t perm_viol, vdr.ReadU8());
  verdict.permanently_violated = perm_viol != 0;
  TIC_ASSIGN_OR_RETURN(verdict.num_instances, vdr.ReadU64());
  TIC_ASSIGN_OR_RETURN(verdict.residual_size, vdr.ReadU64());
  TIC_RETURN_NOT_OK(vdr.ExpectEnd());
  verdict.backend = backend;

  m->dead_ = (flags & kFlagDead) != 0;
  m->any_verdict_ = (flags & kFlagAnyVerdict) != 0;
  m->last_sat_ = (flags & kFlagLastSat) != 0;
  if (m->any_verdict_) m->last_verdict_ = verdict;

  if (past_route) {
    TIC_ASSIGN_OR_RETURN(std::string_view past_bytes,
                         reader.Require(snap::kSecPast));
    snap::ByteReader pr(past_bytes);
    TIC_ASSIGN_OR_RETURN(past::PastMonitor::StateImage image,
                         DecodePastImage(&pr));
    TIC_RETURN_NOT_OK(pr.ExpectEnd());
    if (image.time_base != meta.time_base) {
      return Status::ParseError(
          "snapshot: past time base disagrees with the meta section");
    }
    TIC_RETURN_NOT_OK(
        m->past_->RestoreImage(std::move(image), std::move(restored_history)));
    return m;
  }

  // --- Universal route ---
  m->history_ = std::move(restored_history);
  m->time_base_ = meta.time_base;

  // LETTERS: replay through Monitor::Letter and verify every minted id. The
  // fresh monitor already minted the deterministic creation prefix (safety
  // skeleton + initial instances over constants); a snapshot from the same
  // constraint re-mints identically, anything else is corruption.
  TIC_ASSIGN_OR_RETURN(std::string_view letters_bytes,
                       reader.Require(snap::kSecLetters));
  snap::ByteReader lr(letters_bytes);
  TIC_ASSIGN_OR_RETURN(uint64_t nletters, lr.ReadU64());
  if (nletters != meta.num_letters) {
    return Status::ParseError(
        "snapshot: letter count disagrees with the meta section");
  }
  std::vector<Value> codes;
  for (uint64_t i = 0; i < nletters; ++i) {
    TIC_ASSIGN_OR_RETURN(uint32_t pred, lr.ReadU32());
    if (pred >= vocab->num_predicates()) {
      return Status::ParseError("snapshot: letter names unknown predicate");
    }
    if (vocab->predicate(pred).builtin != Builtin::kNone) {
      return Status::ParseError("snapshot: letter over builtin predicate");
    }
    TIC_ASSIGN_OR_RETURN(uint32_t ncodes, lr.ReadU32());
    if (ncodes != vocab->predicate(pred).arity) {
      return Status::ParseError("snapshot: letter arity mismatch");
    }
    codes.resize(ncodes);
    for (uint32_t j = 0; j < ncodes; ++j) {
      TIC_ASSIGN_OR_RETURN(codes[j], lr.ReadI64());
    }
    TIC_ASSIGN_OR_RETURN(uint32_t recorded_id, lr.ReadU32());
    ptl::PropId got = m->Letter(static_cast<PredicateId>(pred), codes);
    if (got != recorded_id) {
      return Status::ParseError(
          "snapshot: letter id does not re-mint identically");
    }
  }
  TIC_RETURN_NOT_OK(lr.ExpectEnd());

  // FORMULAS: rebuild the node pool through the hash-consing factory.
  TIC_ASSIGN_OR_RETURN(std::string_view formulas_bytes,
                       reader.Require(snap::kSecFormulas));
  snap::ByteReader fr(formulas_bytes);
  TIC_ASSIGN_OR_RETURN(
      std::vector<ptl::Formula> pool,
      DecodeFormulaPool(&fr, m->prop_factory_.get(), m->prop_vocab_->size()));
  TIC_RETURN_NOT_OK(fr.ExpectEnd());

  // INSTANCES: replace the creation-time enumeration wholesale. Each carries
  // its basis, the formula at the last checkpoint, in every backend.
  TIC_ASSIGN_OR_RETURN(std::string_view inst_bytes,
                       reader.Require(snap::kSecInstances));
  snap::ByteReader ir(inst_bytes);
  TIC_ASSIGN_OR_RETURN(uint64_t ninstances, ir.ReadU64());
  if (ninstances != meta.num_instances) {
    return Status::ParseError(
        "snapshot: instance count disagrees with the meta section");
  }
  m->instances_.clear();
  flat::FlatSet<std::vector<GroundElem>, flat::Remixed<Monitor::AssignmentHash>,
                Monitor::AssignmentEq>
      seen;
  const size_t k = m->external_.size();
  for (uint64_t i = 0; i < ninstances; ++i) {
    TIC_ASSIGN_OR_RETURN(std::vector<GroundElem> assignment,
                         DecodeAssignment(&ir, k));
    TIC_ASSIGN_OR_RETURN(uint32_t fidx, ir.ReadU32());
    if (fidx >= pool.size()) {
      return Status::ParseError("snapshot: instance residual index out of range");
    }
    if (!seen.Insert(assignment)) {
      return Status::ParseError("snapshot: duplicate grounding instance");
    }
    m->instances_.push_back(
        Monitor::Instance{std::move(assignment), pool[fidx]});
  }
  TIC_RETURN_NOT_OK(ir.ExpectEnd());

  // WORD
  TIC_ASSIGN_OR_RETURN(std::string_view word_bytes,
                       reader.Require(snap::kSecWord));
  snap::ByteReader wr(word_bytes);
  TIC_ASSIGN_OR_RETURN(uint64_t nentries, wr.ReadU64());
  m->word_.clear();
  const size_t num_props = m->prop_vocab_->size();
  for (uint64_t i = 0; i < nentries; ++i) {
    Monitor::WordEntry e;
    TIC_ASSIGN_OR_RETURN(e.repeat, wr.ReadU64());
    if (e.repeat == 0) {
      return Status::ParseError("snapshot: zero-repeat word run");
    }
    TIC_ASSIGN_OR_RETURN(uint32_t ntrue, wr.ReadU32());
    for (uint32_t j = 0; j < ntrue; ++j) {
      TIC_ASSIGN_OR_RETURN(uint32_t p, wr.ReadU32());
      if (p >= num_props) {
        return Status::ParseError("snapshot: word letter out of range");
      }
      e.w.Set(static_cast<ptl::PropId>(p), true);
    }
    m->word_.push_back(std::move(e));
  }
  if ((flags & kFlagCurLetterValid) != 0) {
    TIC_ASSIGN_OR_RETURN(uint32_t ntrue, wr.ReadU32());
    for (uint32_t j = 0; j < ntrue; ++j) {
      TIC_ASSIGN_OR_RETURN(uint32_t p, wr.ReadU32());
      if (p >= num_props) {
        return Status::ParseError("snapshot: current letter out of range");
      }
      m->cur_letter_.Set(static_cast<ptl::PropId>(p), true);
    }
    m->cur_letter_valid_ = true;
  }
  TIC_RETURN_NOT_OK(wr.ExpectEnd());

  // RELEVANT
  TIC_ASSIGN_OR_RETURN(std::string_view rel_bytes,
                       reader.Require(snap::kSecRelevant));
  snap::ByteReader rr(rel_bytes);
  TIC_ASSIGN_OR_RETURN(m->known_relevant_, DecodeValues(&rr));
  TIC_RETURN_NOT_OK(rr.ExpectEnd());
  std::sort(m->known_relevant_.begin(), m->known_relevant_.end());

  // COMPACT
  if ((flags & kFlagCompacted) != 0) {
    TIC_ASSIGN_OR_RETURN(std::string_view compact_bytes,
                         reader.Require(snap::kSecCompact));
    snap::ByteReader cpr(compact_bytes);
    TIC_ASSIGN_OR_RETURN(m->compact_relevant_, DecodeValues(&cpr));
    std::sort(m->compact_relevant_.begin(), m->compact_relevant_.end());
    TIC_ASSIGN_OR_RETURN(uint64_t npatterns, cpr.ReadU64());
    for (uint64_t i = 0; i < npatterns; ++i) {
      TIC_ASSIGN_OR_RETURN(std::vector<GroundElem> assignment,
                           DecodeAssignment(&cpr, k));
      TIC_ASSIGN_OR_RETURN(uint32_t fidx, cpr.ReadU32());
      if (fidx >= pool.size()) {
        return Status::ParseError(
            "snapshot: pattern residual index out of range");
      }
      auto [entry, inserted] = m->compact_pattern_index_.Emplace(
          assignment, m->compact_patterns_.size());
      (void)entry;
      if (!inserted) {
        return Status::ParseError("snapshot: duplicate compaction pattern");
      }
      m->compact_patterns_.push_back(
          Monitor::CompactPattern{std::move(assignment), pool[fidx]});
    }
    TIC_RETURN_NOT_OK(cpr.ExpectEnd());
    m->compacted_ = true;
  }

  // CACHE: warm-start the verdict cache. Never load-bearing, so a snapshot
  // without the section (or the caller opting out) restores fine.
  if (ro.import_verdict_cache &&
      m->options_.tableau.verdict_cache != nullptr) {
    if (const auto* sec = reader.Find(snap::kSecCache)) {
      snap::ByteReader ccr(sec->payload);
      TIC_ASSIGN_OR_RETURN(uint64_t ncached, ccr.ReadU64());
      std::vector<ptl::VerdictCache::ExportedVerdict> entries;
      for (uint64_t i = 0; i < ncached; ++i) {
        ptl::VerdictCache::ExportedVerdict e;
        TIC_ASSIGN_OR_RETURN(e.fp.lo, ccr.ReadU64());
        TIC_ASSIGN_OR_RETURN(e.fp.hi, ccr.ReadU64());
        TIC_ASSIGN_OR_RETURN(uint8_t sat, ccr.ReadU8());
        e.satisfiable = sat != 0;
        TIC_ASSIGN_OR_RETURN(uint8_t hw, ccr.ReadU8());
        e.has_witness = hw != 0;
        TIC_ASSIGN_OR_RETURN(e.prefix, DecodeIndexLists(&ccr));
        TIC_ASSIGN_OR_RETURN(e.loop, DecodeIndexLists(&ccr));
        entries.push_back(std::move(e));
      }
      TIC_RETURN_NOT_OK(ccr.ExpectEnd());
      m->options_.tableau.verdict_cache->Import(entries);
    }
  }

  return m;
}

}  // namespace checker
}  // namespace tic
