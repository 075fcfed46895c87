#include "testing/oracles.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "checker/extension.h"
#include "checker/monitor.h"
#include "checker/trigger.h"
#include "fotl/classify.h"
#include "fotl/printer.h"
#include "past/past_monitor.h"
#include "ptl/transition_system.h"
#include "ptl/word.h"
#include "testing/reproducer.h"

namespace tic {
namespace testing {

namespace {

std::function<bool(const FotlCase&)>& FaultHook() {
  static std::function<bool(const FotlCase&)> hook;
  return hook;
}

OracleResult Fail(std::string what, const FotlCase& c) {
  OracleResult r;
  r.pass = false;
  r.detail = std::move(what) + "\nreproducer:\n" + SerializeCase(c);
  return r;
}

}  // namespace

void SetBackendFaultHookForTest(std::function<bool(const FotlCase&)> hook) {
  FaultHook() = std::move(hook);
}

Result<OracleResult> TableauEnginesAgree(ptl::Factory* fac, ptl::Formula f,
                                         bool* satisfiable) {
  ptl::TableauOptions legacy;
  legacy.engine = ptl::TableauEngine::kLegacy;
  ptl::TableauOptions bitset;
  bitset.engine = ptl::TableauEngine::kBitset;

  TIC_ASSIGN_OR_RETURN(auto rl, ptl::CheckSat(fac, f, legacy));
  TIC_ASSIGN_OR_RETURN(auto rb, ptl::CheckSat(fac, f, bitset));

  OracleResult out;
  if (rl.satisfiable != rb.satisfiable) {
    out.pass = false;
    out.detail = "engines disagree (legacy=" + std::to_string(rl.satisfiable) +
                 " bitset=" + std::to_string(rb.satisfiable) + ") on " +
                 ptl::ToString(*fac, f);
    return out;
  }
  // The engines may pick different (state-order-dependent) witnesses; each
  // must independently satisfy the formula under the word evaluator.
  for (const auto* r : {&rl, &rb}) {
    if (!r->satisfiable) continue;
    TIC_ASSIGN_OR_RETURN(bool holds, ptl::Evaluate(*r->witness, f, 0));
    if (!holds) {
      out.pass = false;
      out.detail = std::string(r == &rl ? "legacy" : "bitset") +
                   " witness fails " + ptl::ToString(*fac, f);
      return out;
    }
  }
  if (satisfiable != nullptr) *satisfiable = rb.satisfiable;
  return out;
}

Result<OracleResult> BackendVerdictsAgree(const FotlCase& c) {
  checker::CheckOptions prog_opts;
  prog_opts.backend = checker::MonitorBackend::kProgression;
  checker::CheckOptions auto_opts;
  auto_opts.backend = checker::MonitorBackend::kAutomaton;
  TIC_ASSIGN_OR_RETURN(auto mp,
                       checker::Monitor::Create(c.factory, c.sentence, {}, prog_opts));
  TIC_ASSIGN_OR_RETURN(auto ma,
                       checker::Monitor::Create(c.factory, c.sentence, {}, auto_opts));
  for (size_t t = 0; t < c.stream.size(); ++t) {
    TIC_ASSIGN_OR_RETURN(auto vp, mp->ApplyTransaction(c.stream[t]));
    TIC_ASSIGN_OR_RETURN(auto va, ma->ApplyTransaction(c.stream[t]));
    if (vp.potentially_satisfied != va.potentially_satisfied ||
        vp.permanently_violated != va.permanently_violated) {
      return Fail("backend divergence at t=" + std::to_string(t) +
                      ": progression (sat=" + std::to_string(vp.potentially_satisfied) +
                      ", dead=" + std::to_string(vp.permanently_violated) +
                      ") vs automaton (sat=" + std::to_string(va.potentially_satisfied) +
                      ", dead=" + std::to_string(va.permanently_violated) + ")",
                  c);
    }
    if (va.backend != checker::MonitorBackend::kAutomaton ||
        vp.backend != checker::MonitorBackend::kProgression) {
      return Fail("verdict reports wrong backend at t=" + std::to_string(t), c);
    }
  }
  if (FaultHook() && FaultHook()(c)) {
    return Fail("planted divergence (test-only fault hook)", c);
  }
  return OracleResult{};
}

Result<OracleResult> CohortConfigsAgree(const FotlCase& c) {
  // Three independent constructions of the same per-update verdict sequence:
  // the literal progression procedure, and the automaton backend (cohort
  // slots, point-algebra units and progression, as placed) with
  // cohort minimization forced at every discovery and disabled.
  struct Config {
    const char* name;
    checker::CheckOptions opts;
  };
  std::vector<Config> configs(3);
  configs[0].name = "progression";
  configs[0].opts.backend = checker::MonitorBackend::kProgression;
  configs[1].name = "cohort+minimize";
  configs[1].opts.cohort_minimize_interval = 1;
  configs[2].name = "cohort";
  configs[2].opts.cohort_minimize_interval = 0;

  std::vector<std::unique_ptr<checker::Monitor>> monitors;
  for (const Config& cfg : configs) {
    TIC_ASSIGN_OR_RETURN(
        auto m, checker::Monitor::Create(c.factory, c.sentence, {}, cfg.opts));
    monitors.push_back(std::move(m));
  }
  for (size_t t = 0; t < c.stream.size(); ++t) {
    TIC_ASSIGN_OR_RETURN(auto ref, monitors[0]->ApplyTransaction(c.stream[t]));
    for (size_t i = 1; i < monitors.size(); ++i) {
      TIC_ASSIGN_OR_RETURN(auto v, monitors[i]->ApplyTransaction(c.stream[t]));
      if (v.potentially_satisfied != ref.potentially_satisfied ||
          v.permanently_violated != ref.permanently_violated) {
        return Fail(
            std::string("cohort config divergence at t=") + std::to_string(t) +
                ": progression (sat=" + std::to_string(ref.potentially_satisfied) +
                ", dead=" + std::to_string(ref.permanently_violated) + ") vs " +
                configs[i].name + " (sat=" + std::to_string(v.potentially_satisfied) +
                ", dead=" + std::to_string(v.permanently_violated) + ")",
            c);
      }
    }
  }
  return OracleResult{};
}

Result<OracleResult> RouterConfigsAgree(const FotlCase& c,
                                        const RouterDiffOptions& options) {
  // Independent constructions of the same per-update verdict sequence: the
  // literal progression procedure and the automaton backend with its
  // fragment placements; optionally the lazy (weak) verdict, which must
  // coincide on the release fragment; and, for a closed always-past
  // sentence the past evaluator accepts, that evaluator run directly. A
  // universal always-past sentence is where Theorem 4.2's potential
  // satisfaction and the classical G-past verdict provably coincide.
  struct Config {
    const char* name;
    checker::CheckOptions opts;
    checker::MonitorMode mode = checker::MonitorMode::kEager;
  };
  std::vector<Config> configs(2);
  configs[0].name = "progression";
  configs[0].opts.backend = checker::MonitorBackend::kProgression;
  configs[1].name = "automaton";
  if (options.lazy_equals_eager) {
    configs.push_back(Config{"lazy", {}, checker::MonitorMode::kLazy});
  }

  std::vector<std::unique_ptr<checker::Monitor>> monitors;
  for (const Config& cfg : configs) {
    TIC_ASSIGN_OR_RETURN(auto m, checker::Monitor::Create(c.factory, c.sentence,
                                                          {}, cfg.opts, cfg.mode));
    monitors.push_back(std::move(m));
  }
  std::unique_ptr<past::PastMonitor> past;
  fotl::Classification cls = fotl::Classify(c.sentence);
  if (cls.closed && cls.is_always_past) {
    Result<std::unique_ptr<past::PastMonitor>> p =
        past::PastMonitor::Create(c.factory, c.sentence);
    if (p.ok()) past = std::move(*p);
  }
  auto diverged = [&](size_t t, const checker::MonitorVerdict& ref,
                      const char* name, bool sat, bool dead) {
    return Fail(std::string("router config divergence at t=") +
                    std::to_string(t) + ": progression (sat=" +
                    std::to_string(ref.potentially_satisfied) + ", dead=" +
                    std::to_string(ref.permanently_violated) + ") vs " + name +
                    " (sat=" + std::to_string(sat) +
                    ", dead=" + std::to_string(dead) + ")",
                c);
  };
  size_t max_routed = 0;
  for (size_t t = 0; t < c.stream.size(); ++t) {
    const bool compact_now =
        options.compact_every > 0 && (t + 1) % options.compact_every == 0;
    TIC_ASSIGN_OR_RETURN(auto ref, monitors[0]->ApplyTransaction(c.stream[t]));
    for (size_t i = 1; i < monitors.size(); ++i) {
      TIC_ASSIGN_OR_RETURN(auto v, monitors[i]->ApplyTransaction(c.stream[t]));
      if (v.potentially_satisfied != ref.potentially_satisfied ||
          v.permanently_violated != ref.permanently_violated) {
        return diverged(t, ref, configs[i].name, v.potentially_satisfied,
                        v.permanently_violated);
      }
      if (i == 1) max_routed = std::max(max_routed, v.num_pointalg_instances);
      if (compact_now) TIC_RETURN_NOT_OK(monitors[i]->Compact());
    }
    if (past != nullptr) {
      TIC_ASSIGN_OR_RETURN(past::PastVerdict pv,
                           past->ApplyTransaction(c.stream[t]));
      const bool dead = pv.first_violation.has_value();
      if (dead == ref.potentially_satisfied ||
          dead != ref.permanently_violated) {
        return diverged(t, ref, "past", !dead, dead);
      }
      if (compact_now) TIC_RETURN_NOT_OK(past->Compact());
    }
  }
  if (max_routed < options.min_routed) {
    return Fail("automaton monitor routed only " + std::to_string(max_routed) +
                    " point-algebra instances (suite expects >= " +
                    std::to_string(options.min_routed) + ")",
                c);
  }
  return OracleResult{};
}

Result<OracleResult> MinimizedAutomatonAgrees(ptl::Factory* fac, ptl::Formula f,
                                              Entropy* ent, size_t steps) {
  OracleResult out;
  // Two private compilations of the same formula: `ref` is never minimized,
  // `min` is minimized at random points mid-stream. Budget blowups (random
  // non-safe formulas with huge covers) are not the minimizer's fault — count
  // the case as vacuously passed.
  auto ref = ptl::TransitionSystem::Compile(fac, f);
  auto min = ptl::TransitionSystem::Compile(fac, f);
  if (!ref.ok() || !min.ok()) return out;
  ptl::TransitionSystem& a = **ref;
  ptl::TransitionSystem& b = **min;

  uint32_t sa = a.initial();
  uint32_t sb = b.initial();
  const std::vector<ptl::PropId>& letters = a.default_letters();
  for (size_t t = 0; t < steps; ++t) {
    ptl::PropState w;
    for (ptl::PropId p : letters) {
      if (ent->Below(2) == 1) w.Set(p, true);
    }
    TIC_ASSIGN_OR_RETURN(ptl::TransitionStep stepa, a.Step(sa, w));
    TIC_ASSIGN_OR_RETURN(ptl::TransitionStep stepb, b.Step(sb, w));
    if (stepa.any_survivor != stepb.any_survivor || stepa.live != stepb.live) {
      out.pass = false;
      out.detail = "minimized/unminimized divergence at step " +
                   std::to_string(t) + " (survivor " +
                   std::to_string(stepa.any_survivor) + "/" +
                   std::to_string(stepb.any_survivor) + ", live " +
                   std::to_string(stepa.live) + "/" + std::to_string(stepb.live) +
                   ") on " + ptl::ToString(*fac, f);
      return out;
    }
    sa = stepa.next;
    sb = stepb.next;
    if (ent->Below(4) == 0) {
      b.MinimizeNow();
      sb = b.Representative(sb);
    }
  }

  // Idempotence: with no new states interned in between, a second run must
  // compute the same partition, collapse the same sets, and leave every
  // representative where the first run put it.
  ptl::MinimizeStats first = b.MinimizeNow();
  uint64_t nsets = b.num_state_sets();
  std::vector<uint32_t> reps(nsets);
  for (uint64_t i = 0; i < nsets; ++i) {
    reps[i] = b.Representative(static_cast<uint32_t>(i));
  }
  ptl::MinimizeStats second = b.MinimizeNow();
  if (second.tableau_classes != first.tableau_classes ||
      second.state_sets != first.state_sets ||
      second.collapsed_sets != first.collapsed_sets) {
    out.pass = false;
    out.detail = "minimization not idempotent (classes " +
                 std::to_string(first.tableau_classes) + " -> " +
                 std::to_string(second.tableau_classes) + ", collapsed " +
                 std::to_string(first.collapsed_sets) + " -> " +
                 std::to_string(second.collapsed_sets) + ") on " +
                 ptl::ToString(*fac, f);
    return out;
  }
  for (uint64_t i = 0; i < nsets; ++i) {
    if (b.Representative(static_cast<uint32_t>(i)) != reps[i]) {
      out.pass = false;
      out.detail = "representative of set " + std::to_string(i) +
                   " moved across an idempotent re-run on " +
                   ptl::ToString(*fac, f);
      return out;
    }
  }
  return out;
}

Result<OracleResult> MonitorMatchesBatch(const FotlCase& c) {
  TIC_ASSIGN_OR_RETURN(auto monitor, checker::Monitor::Create(c.factory, c.sentence));
  TIC_ASSIGN_OR_RETURN(History reference, History::Create(c.vocab));
  for (size_t t = 0; t < c.stream.size(); ++t) {
    TIC_ASSIGN_OR_RETURN(auto verdict, monitor->ApplyTransaction(c.stream[t]));
    TIC_RETURN_NOT_OK(ApplyTransaction(&reference, c.stream[t]));
    TIC_ASSIGN_OR_RETURN(
        auto batch,
        checker::CheckPotentialSatisfaction(*c.factory, c.sentence, reference));
    if (verdict.potentially_satisfied != batch.potentially_satisfied) {
      return Fail("monitor/batch divergence at t=" + std::to_string(t) +
                      ": monitor=" + std::to_string(verdict.potentially_satisfied) +
                      " batch=" + std::to_string(batch.potentially_satisfied),
                  c);
    }
  }
  return OracleResult{};
}

Result<OracleResult> PrefixClosureHolds(const FotlCase& c) {
  TIC_ASSIGN_OR_RETURN(History h, History::Create(c.vocab));
  bool seen_no = false;
  bool seen_permanent = false;
  for (size_t t = 0; t < c.stream.size(); ++t) {
    TIC_RETURN_NOT_OK(ApplyTransaction(&h, c.stream[t]));
    TIC_ASSIGN_OR_RETURN(
        auto res, checker::CheckPotentialSatisfaction(*c.factory, c.sentence, h));
    if (seen_no && res.potentially_satisfied) {
      return Fail("prefix closure violated: prefix of length " + std::to_string(t + 1) +
                      " is in Pref(C) but a shorter prefix was not",
                  c);
    }
    if (res.permanently_violated && res.potentially_satisfied) {
      return Fail("permanently_violated together with potentially_satisfied at t=" +
                      std::to_string(t),
                  c);
    }
    if (seen_permanent && !res.permanently_violated) {
      return Fail("permanent violation forgotten at t=" + std::to_string(t), c);
    }
    seen_no = seen_no || !res.potentially_satisfied;
    seen_permanent = seen_permanent || res.permanently_violated;
  }
  return OracleResult{};
}

Result<OracleResult> RenamingInvariant(const FotlCase& c,
                                       const std::function<Value(Value)>& perm) {
  FotlCase renamed = c;
  renamed.stream.clear();
  for (const Transaction& txn : c.stream) {
    Transaction mapped;
    for (const UpdateOp& op : txn) {
      Tuple t = op.tuple;
      for (Value& v : t) v = perm(v);
      mapped.push_back(op.kind == UpdateOp::Kind::kInsert
                           ? UpdateOp::Insert(op.predicate, std::move(t))
                           : UpdateOp::Delete(op.predicate, std::move(t)));
    }
    renamed.stream.push_back(std::move(mapped));
  }

  TIC_ASSIGN_OR_RETURN(auto mo, checker::Monitor::Create(c.factory, c.sentence));
  TIC_ASSIGN_OR_RETURN(auto mr, checker::Monitor::Create(c.factory, c.sentence));
  for (size_t t = 0; t < c.stream.size(); ++t) {
    TIC_ASSIGN_OR_RETURN(auto vo, mo->ApplyTransaction(c.stream[t]));
    TIC_ASSIGN_OR_RETURN(auto vr, mr->ApplyTransaction(renamed.stream[t]));
    if (vo.potentially_satisfied != vr.potentially_satisfied ||
        vo.permanently_violated != vr.permanently_violated) {
      return Fail("renaming changed the verdict at t=" + std::to_string(t) +
                      ": original (sat=" + std::to_string(vo.potentially_satisfied) +
                      ") vs renamed (sat=" + std::to_string(vr.potentially_satisfied) +
                      ")",
                  c);
    }
  }
  return OracleResult{};
}

Result<OracleResult> TriggerDualityHolds(const FotlCase& c) {
  // Side 1: the production TriggerManager (default options: automaton
  // backend, simplified grounding).
  TIC_ASSIGN_OR_RETURN(auto mgr, checker::TriggerManager::Create(c.factory));
  TIC_RETURN_NOT_OK(mgr->AddTrigger("c", c.sentence));

  // Side 2: the duality taken literally, on the other backend: theta fires
  // iff !C(theta) is not potentially satisfied, substitutions over R_D.
  fotl::Formula negated = c.factory->Not(c.sentence);
  const std::vector<fotl::VarId>& params = c.sentence->free_vars();
  checker::CheckOptions dual_opts;
  dual_opts.backend = checker::MonitorBackend::kProgression;
  dual_opts.want_witness = false;

  TIC_ASSIGN_OR_RETURN(History h, History::Create(c.vocab));
  for (size_t t = 0; t < c.stream.size(); ++t) {
    TIC_ASSIGN_OR_RETURN(auto firings, mgr->OnTransaction(c.stream[t]));
    TIC_RETURN_NOT_OK(ApplyTransaction(&h, c.stream[t]));

    std::set<std::vector<Value>> fired;
    for (const checker::TriggerFiring& f : firings) {
      std::vector<Value> key;
      for (fotl::VarId v : params) key.push_back(f.substitution.at(v));
      fired.insert(std::move(key));
    }

    std::set<std::vector<Value>> expected;
    std::vector<Value> relevant = h.RelevantSet();
    // Degenerate domain: the manager enumerates over {0} when no element is
    // relevant yet, so the dual side must too or it misses firings at t=0.
    if (relevant.empty()) relevant.push_back(0);
    // Enumerate all |R_D|^k substitutions (k is 0 or 1 for generated cases,
    // but the loop is general).
    std::vector<size_t> idx(params.size(), 0);
    bool done = false;
    while (!done) {
      fotl::Valuation theta;
      std::vector<Value> key;
      for (size_t i = 0; i < params.size(); ++i) {
        theta[params[i]] = relevant[idx[i]];
        key.push_back(relevant[idx[i]]);
      }
      TIC_ASSIGN_OR_RETURN(auto res, checker::CheckPotentialSatisfaction(
                                         *c.factory, negated, h, theta, dual_opts));
      if (!res.potentially_satisfied) expected.insert(std::move(key));
      size_t d = 0;
      while (d < idx.size() && ++idx[d] == relevant.size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == idx.size() || params.empty()) done = true;
    }

    if (fired != expected) {
      return Fail("trigger duality violated at t=" + std::to_string(t) +
                      ": manager fired " + std::to_string(fired.size()) +
                      " substitutions, dual check expects " +
                      std::to_string(expected.size()),
                  c);
    }
  }
  return OracleResult{};
}

}  // namespace testing
}  // namespace tic
