#include "plan/runner.h"

#include <algorithm>
#include <functional>

#include "obs/trace.h"
#include "util/str.h"

namespace ocdx {
namespace plan {

namespace {

// ---------------------------------------------------------------------------
// Relational execution (the indexed engine).
// ---------------------------------------------------------------------------

/// Executes a bound relational plan. In boolean mode stops at the first
/// full match; otherwise projects every match into `out`.
class RelationalRunner {
 public:
  RelationalRunner(const BoundQuery& bound, Relation* out)
      : plan_(*bound.query->relational),
        bound_(bound),
        out_(out),
        frame_(plan_.num_slots),
        key_scratch_(plan_.atoms.size()),
        out_scratch_(plan_.out_slots.size()) {}

  const Relation* Rel(const PlanAtomStep& ap) const {
    return bound_.rels[ap.rel_slot];
  }

  /// Returns true iff at least one match was found.
  bool Run(const std::map<std::string, Value>* binding) {
    if (binding != nullptr) {
      for (const auto& [slot, name] : plan_.preset_vars) {
        auto it = binding->find(name);
        if (it != binding->end()) frame_[slot] = it->second;
      }
    }
    if (!StageOk(0)) return false;
    return Descend(0);
  }

 private:
  bool EqOk(const PlanEq& eq) const {
    Value l = eq.lhs.is_const ? eq.lhs.constant : frame_[eq.lhs.slot];
    Value r = eq.rhs.is_const ? eq.rhs.constant : frame_[eq.rhs.slot];
    return l == r;
  }

  /// Equality and guard checks that become decidable after step-1 atoms.
  bool StageOk(size_t stage) {
    for (const PlanEq& eq : plan_.eqs_after[stage]) {
      if (!EqOk(eq)) return false;
    }
    for (const PlanGuard& g : plan_.guards_after[stage]) {
      if (!bound_.guard_active[g.guard_id]) continue;  // Cannot match.
      if (GuardMatches(g, 0)) return false;  // Anti-join: a match kills it.
    }
    return true;
  }

  bool Descend(size_t step) {
    if (step == plan_.atoms.size()) {
      if (out_ == nullptr) return true;  // Boolean mode: witness found.
      for (size_t i = 0; i < plan_.out_slots.size(); ++i) {
        out_scratch_[i] = frame_[plan_.out_slots[i]];
      }
      out_->Add(out_scratch_);  // Copies into the relation's arena.
      return false;  // Keep enumerating.
    }
    const PlanAtomStep& ap = plan_.atoms[step];
    const Relation* rel = Rel(ap);
    if (ap.mask != 0) {
      std::vector<Value>& key = key_scratch_[step];
      key.clear();
      for (const PlanTerm& k : ap.key) {
        key.push_back(k.is_const ? k.constant : frame_[k.slot]);
      }
      const std::vector<uint32_t>* ids = rel->Probe(ap.mask, key);
      if (ids == nullptr) return false;
      // Plans never insert into the relations they scan (answers go to
      // out_), which is what makes iterating the live bucket safe; the
      // guard turns any future violation into a debug assertion.
      BucketIterationGuard guard(rel);
      for (uint32_t id : *ids) {
        if (TryTuple(ap, rel->tuples()[id], step)) return true;
      }
    } else {
      for (TupleRef t : rel->tuples()) {
        if (TryTuple(ap, t, step)) return true;
      }
    }
    return false;
  }

  bool TryTuple(const PlanAtomStep& ap, TupleRef t, size_t step) {
    for (const auto& [pos, slot] : ap.binds) frame_[slot] = t[pos];
    bool ok = true;
    for (const auto& [pos, slot] : ap.checks) {
      if (frame_[slot] != t[pos]) {
        ok = false;
        break;
      }
    }
    bool stop = false;
    if (ok && StageOk(step + 1)) stop = Descend(step + 1);
    for (const auto& [pos, slot] : ap.binds) frame_[slot] = Value();
    return stop;
  }

  /// True iff the guard's sub-CQ has a match under the current frame.
  bool GuardMatches(const PlanGuard& g, size_t step) {
    if (step == 0) {
      for (const PlanEq& eq : g.eqs_after[0]) {
        if (!EqOk(eq)) return false;
      }
    }
    if (step == g.atoms.size()) return true;
    const PlanAtomStep& ap = g.atoms[step];
    const Relation* rel = Rel(ap);
    // Guards share the frame; their bindings are undone on exit, so the
    // scratch keys can be local.
    std::vector<Value> key;
    auto try_tuple = [&](TupleRef t) {
      for (const auto& [pos, slot] : ap.binds) frame_[slot] = t[pos];
      bool ok = true;
      for (const auto& [pos, slot] : ap.checks) {
        if (frame_[slot] != t[pos]) {
          ok = false;
          break;
        }
      }
      if (ok) {
        for (const PlanEq& eq : g.eqs_after[step + 1]) {
          if (!EqOk(eq)) {
            ok = false;
            break;
          }
        }
      }
      bool found = ok && GuardMatches(g, step + 1);
      for (const auto& [pos, slot] : ap.binds) frame_[slot] = Value();
      return found;
    };
    if (ap.mask != 0) {
      key.reserve(ap.key.size());
      for (const PlanTerm& k : ap.key) {
        key.push_back(k.is_const ? k.constant : frame_[k.slot]);
      }
      const std::vector<uint32_t>* ids = rel->Probe(ap.mask, key);
      if (ids == nullptr) return false;
      BucketIterationGuard guard(rel);
      for (uint32_t id : *ids) {
        if (try_tuple(rel->tuples()[id])) return true;
      }
    } else {
      for (TupleRef t : rel->tuples()) {
        if (try_tuple(t)) return true;
      }
    }
    return false;
  }

  const RelationalPlan& plan_;
  const BoundQuery& bound_;
  Relation* out_;
  std::vector<Value> frame_;
  std::vector<std::vector<Value>> key_scratch_;
  Tuple out_scratch_;
};

// ---------------------------------------------------------------------------
// Naive execution: the original string-keyed backtracking scan, preserved
// verbatim as the reference baseline.
// ---------------------------------------------------------------------------

using NaiveEnv = std::map<std::string, Value>;

bool NaiveTermValue(const Term& t, const NaiveEnv& env, Value* out) {
  if (t.IsConst()) {
    *out = t.constant;
    return true;
  }
  auto it = env.find(t.name);
  if (it == env.end()) return false;
  *out = it->second;
  return true;
}

// Checks the equalities decidable under the current (partial) binding.
bool NaiveEqualitiesOk(const std::vector<ShapeEq>& equalities,
                       const NaiveEnv& env) {
  for (const ShapeEq& eq : equalities) {
    Value l, r;
    if (!NaiveTermValue(eq.lhs, env, &l)) continue;
    if (!NaiveTermValue(eq.rhs, env, &r)) continue;
    if (l != r) return false;
  }
  return true;
}

// Does the guard's sub-CQ have a match extending `env`? Nested scans.
bool NaiveGuardMatches(const ShapeGuard& guard, const BoundQuery& bound,
                       NaiveEnv* env, size_t idx) {
  if (!NaiveEqualitiesOk(guard.equalities, *env)) return false;
  if (idx == guard.atoms.size()) return true;
  const ShapeAtom& atom = guard.atoms[idx];
  const Relation* rel = bound.rels[atom.rel_slot];
  if (rel == nullptr) return false;
  for (TupleRef tuple : rel->tuples()) {
    std::vector<std::string> added;
    bool ok = true;
    for (size_t p = 0; p < atom.terms->size() && ok; ++p) {
      const Term& term = (*atom.terms)[p];
      if (term.IsConst()) {
        ok = term.constant == tuple[p];
      } else {
        auto it = env->find(term.name);
        if (it != env->end()) {
          ok = it->second == tuple[p];
        } else {
          (*env)[term.name] = tuple[p];
          added.push_back(term.name);
        }
      }
    }
    if (ok && NaiveGuardMatches(guard, bound, env, idx + 1)) {
      for (const std::string& v : added) env->erase(v);
      return true;
    }
    for (const std::string& v : added) env->erase(v);
  }
  return false;
}

}  // namespace

BoundQuery BindQuery(const CompiledQuery& q, const Instance& inst) {
  BoundQuery b;
  b.query = &q;
  b.rels.reserve(q.relations.size());
  for (const std::string& name : q.relations) {
    b.rels.push_back(inst.Find(name));
  }

  auto check_atom = [&b](const PlanAtomStep& ap, bool is_guard,
                         bool* guard_dead) {
    const Relation* rel = b.rels[ap.rel_slot];
    if (rel == nullptr || rel->empty()) {
      if (is_guard) {
        *guard_dead = true;  // The guard's sub-CQ can never match.
      } else {
        b.trivially_empty = true;
      }
    }
    if (rel != nullptr && rel->arity() != ap.arity) b.arity_ok = false;
  };

  switch (q.kind) {
    case PlanKind::kRelational: {
      const RelationalPlan& plan = *q.relational;
      for (const PlanAtomStep& ap : plan.atoms) {
        check_atom(ap, /*is_guard=*/false, nullptr);
      }
      b.guard_active.assign(plan.num_guards, true);
      for (const auto& stage : plan.guards_after) {
        for (const PlanGuard& g : stage) {
          bool dead = false;
          for (const PlanAtomStep& ap : g.atoms) {
            check_atom(ap, /*is_guard=*/true, &dead);
          }
          if (dead) b.guard_active[g.guard_id] = false;
        }
      }
      break;
    }
    case PlanKind::kShape: {
      const QueryShape& shape = *q.shape;
      auto check_shape_atom = [&b](const ShapeAtom& a) {
        const Relation* rel = b.rels[a.rel_slot];
        if (rel != nullptr && rel->arity() != a.terms->size()) {
          b.arity_ok = false;
        }
      };
      for (const ShapeAtom& a : shape.atoms) check_shape_atom(a);
      for (const ShapeGuard& g : shape.guards) {
        for (const ShapeAtom& a : g.atoms) check_shape_atom(a);
      }
      break;
    }
    case PlanKind::kGeneric:
      // A pure skeleton reports arity mismatches as the generic
      // evaluator's InvalidArgument during execution, as it always has.
      // A range-restricted one must not run on them: its drivers would
      // probe with the wrong key width, and the assignments it skips
      // could hide the atom evaluation that raises the error.
      for (const auto& [rel_slot, arity] : q.generic->atom_arities) {
        const Relation* rel = b.rels[rel_slot];
        if (rel != nullptr && rel->arity() != arity) b.arity_ok = false;
      }
      break;
  }
  return b;
}

BoundQuery BindQuery(const CompiledQuery& q, const Instance& inst,
                     const EngineContext* ctx) {
  if (ctx == nullptr || ctx->stats == nullptr) return BindQuery(q, inst);
  uint64_t start_ns = obs::NowNs();
  BoundQuery b = BindQuery(q, inst);
  ctx->stats->plan_bind_ns += obs::NowNs() - start_ns;
  return b;
}

bool RunRelational(const BoundQuery& b,
                   const std::map<std::string, Value>* binding,
                   Relation* out) {
  RelationalRunner runner(b, out);
  return runner.Run(binding);
}

void RunShape(const BoundQuery& b, const std::vector<std::string>& order,
              Relation* out) {
  const QueryShape& shape = *b.query->shape;
  // Greedy atom ordering: prefer atoms over smaller relations first.
  // Instance-dependent, so it happens per bind — ordering was never the
  // naive engine's compiled artifact, the recognized shape is.
  std::vector<ShapeAtom> atoms = shape.atoms;
  std::sort(atoms.begin(), atoms.end(),
            [&](const ShapeAtom& x, const ShapeAtom& y) {
              const Relation* rx = b.rels[x.rel_slot];
              const Relation* ry = b.rels[y.rel_slot];
              size_t sx = rx == nullptr ? 0 : rx->size();
              size_t sy = ry == nullptr ? 0 : ry->size();
              return sx < sy;
            });

  NaiveEnv env;
  std::function<void(size_t)> join = [&](size_t idx) {
    if (idx == atoms.size()) {
      if (!NaiveEqualitiesOk(shape.equalities, env)) return;
      for (const ShapeGuard& guard : shape.guards) {
        NaiveEnv genv = env;
        if (NaiveGuardMatches(guard, b, &genv, 0)) return;
      }
      Tuple t;
      t.reserve(order.size());
      for (const std::string& v : order) t.push_back(env.at(v));
      out->Add(std::move(t));
      return;
    }
    const ShapeAtom& atom = atoms[idx];
    const Relation* rel = b.rels[atom.rel_slot];
    if (rel == nullptr) return;
    for (TupleRef tuple : rel->tuples()) {
      std::vector<std::string> added;
      bool ok = true;
      for (size_t p = 0; p < atom.terms->size() && ok; ++p) {
        const Term& term = (*atom.terms)[p];
        if (term.IsConst()) {
          ok = term.constant == tuple[p];
        } else {
          auto it = env.find(term.name);
          if (it != env.end()) {
            ok = it->second == tuple[p];
          } else {
            env[term.name] = tuple[p];
            added.push_back(term.name);
          }
        }
      }
      if (ok && NaiveEqualitiesOk(shape.equalities, env)) join(idx + 1);
      for (const std::string& v : added) env.erase(v);
    }
  };
  join(0);
}

// ---------------------------------------------------------------------------
// Generic execution.
// ---------------------------------------------------------------------------

GenericRunner::GenericRunner(const BoundQuery& b, FunctionOracle* oracle)
    : plan_(*b.query->generic),
      rels_(b.rels),
      oracle_(oracle),
      frame_(plan_.num_slots),
      atom_scratch_(plan_.num_nodes),
      saved_scratch_(plan_.num_nodes),
      idx_scratch_(plan_.num_nodes) {}

Result<Value> GenericRunner::EvalTerm(const GenericTerm& t) {
  switch (t.kind) {
    case Term::Kind::kVar: {
      Value v = frame_[t.slot];
      if (!v.IsValid()) {
        return Status::InvalidArgument(
            StrCat("unbound variable '", t.src->name,
                   "' during evaluation"));
      }
      return v;
    }
    case Term::Kind::kConst:
      return t.constant;
    case Term::Kind::kFunc: {
      if (oracle_ == nullptr) {
        return Status::FailedPrecondition(
            StrCat("function term '", t.src->name,
                   "' evaluated without a function oracle"));
      }
      Tuple args;
      args.reserve(t.args.size());
      for (const GenericTerm& a : t.args) {
        OCDX_ASSIGN_OR_RETURN(Value v, EvalTerm(a));
        args.push_back(v);
      }
      return oracle_->Apply(t.src->name, args);
    }
  }
  return Status::Internal("unknown term kind");
}

void GenericRunner::Restore(const GenericNode& n) {
  const std::vector<Value>& saved = saved_scratch_[n.id];
  for (size_t i = 0; i < n.bound_slots.size(); ++i) {
    frame_[n.bound_slots[i]] = saved[i];
  }
}

Result<bool> GenericRunner::Decides(const GenericNode& n,
                                    const std::vector<Value>& domain) {
  ++steps_;
  OCDX_ASSIGN_OR_RETURN(bool v, Eval(n.children[0], domain));
  return v == (n.kind == Formula::Kind::kExists);
}

Result<bool> GenericRunner::Odometer(const GenericNode& n,
                                     const std::vector<int>& slots,
                                     const std::vector<Value>& domain) {
  const size_t k = slots.size();
  // No slots: the completed driver match is the one assignment (its
  // tuple already ticked the gauge).
  if (k == 0) return Decides(n, domain);
  if (domain.empty()) return false;
  std::vector<size_t>& idx = idx_scratch_[n.id];
  idx.assign(k, 0);
  while (true) {
    if (gauge_ != nullptr) OCDX_RETURN_IF_ERROR(gauge_->Tick());
    for (size_t i = 0; i < k; ++i) frame_[slots[i]] = domain[idx[i]];
    OCDX_ASSIGN_OR_RETURN(bool decided, Decides(n, domain));
    if (decided) return true;
    size_t p = k;
    while (p > 0) {
      --p;
      if (++idx[p] < domain.size()) break;
      idx[p] = 0;
      if (p == 0) return false;  // Wrapped: every point visited.
    }
  }
}

Result<bool> GenericRunner::Drive(const GenericNode& n, size_t step,
                                  const std::vector<Value>& domain) {
  if (step == n.driver.size()) return Odometer(n, n.odometer_slots, domain);
  const PlanAtomStep& ap = n.driver[step];
  const Relation* rel = rels_[ap.rel_slot];
  if (rel == nullptr) return false;
  auto try_tuple = [&](TupleRef t) -> Result<bool> {
    if (gauge_ != nullptr) OCDX_RETURN_IF_ERROR(gauge_->Tick());
    for (const auto& [pos, slot] : ap.binds) frame_[slot] = t[pos];
    for (const auto& [pos, slot] : ap.checks) {
      if (frame_[slot] != t[pos]) return false;
    }
    return Drive(n, step + 1, domain);
  };
  if (ap.mask != 0) {
    // The key is consumed by Probe before any nested evaluation runs, so
    // one scratch vector serves every node and step.
    key_scratch_.clear();
    for (const PlanTerm& k : ap.key) {
      key_scratch_.push_back(k.is_const ? k.constant : frame_[k.slot]);
    }
    const std::vector<uint32_t>* ids = rel->Probe(ap.mask, key_scratch_);
    if (ids == nullptr) return false;
    BucketIterationGuard guard(rel);
    for (uint32_t id : *ids) {
      OCDX_ASSIGN_OR_RETURN(bool decided, try_tuple(rel->tuples()[id]));
      if (decided) return true;
    }
  } else {
    for (TupleRef t : rel->tuples()) {
      OCDX_ASSIGN_OR_RETURN(bool decided, try_tuple(t));
      if (decided) return true;
    }
  }
  return false;
}

Result<bool> GenericRunner::Eval(const GenericNode& n,
                                 const std::vector<Value>& domain) {
  switch (n.kind) {
    case Formula::Kind::kTrue:
      return true;
    case Formula::Kind::kFalse:
      return false;
    case Formula::Kind::kAtom: {
      Tuple& scratch = atom_scratch_[n.id];
      scratch.resize(n.terms.size());
      for (size_t i = 0; i < n.terms.size(); ++i) {
        OCDX_ASSIGN_OR_RETURN(Value v, EvalTerm(n.terms[i]));
        scratch[i] = v;
      }
      const Relation* rel = rels_[n.rel_slot];
      if (rel == nullptr) return false;
      if (rel->arity() != scratch.size()) {
        return Status::InvalidArgument(
            StrCat("atom ", n.src->rel(), "/", scratch.size(),
                   " does not match relation arity ", rel->arity()));
      }
      return rel->Contains(scratch);
    }
    case Formula::Kind::kEquals: {
      OCDX_ASSIGN_OR_RETURN(Value a, EvalTerm(n.terms[0]));
      OCDX_ASSIGN_OR_RETURN(Value b, EvalTerm(n.terms[1]));
      return a == b;
    }
    case Formula::Kind::kNot: {
      OCDX_ASSIGN_OR_RETURN(bool v, Eval(n.children[0], domain));
      return !v;
    }
    case Formula::Kind::kAnd: {
      for (const GenericNode& c : n.children) {
        OCDX_ASSIGN_OR_RETURN(bool v, Eval(c, domain));
        if (!v) return false;
      }
      return true;
    }
    case Formula::Kind::kOr: {
      for (const GenericNode& c : n.children) {
        OCDX_ASSIGN_OR_RETURN(bool v, Eval(c, domain));
        if (v) return true;
      }
      return false;
    }
    case Formula::Kind::kImplies: {
      OCDX_ASSIGN_OR_RETURN(bool a, Eval(n.children[0], domain));
      if (!a) return true;
      return Eval(n.children[1], domain);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall: {
      // Shadowing: remember the outer bindings of the bound slots.
      std::vector<Value>& saved = saved_scratch_[n.id];
      saved.resize(n.bound_slots.size());
      for (size_t i = 0; i < n.bound_slots.size(); ++i) {
        saved[i] = frame_[n.bound_slots[i]];
      }
      // exists: true iff some assignment is a witness; forall: false iff
      // some assignment is a counterexample.
      Result<bool> decided = n.driver.empty()
                                 ? Odometer(n, n.bound_slots, domain)
                                 : Drive(n, 0, domain);
      Restore(n);
      if (!decided.ok()) return decided.status();
      return decided.value() == (n.kind == Formula::Kind::kExists);
    }
  }
  return Status::Internal("unknown formula kind");
}

Result<bool> GenericRunner::Run(const std::vector<Value>& domain) {
  Result<bool> v = Eval(plan_.root, domain);
  if (stats_ != nullptr) stats_->generic_steps += steps_;
  steps_ = 0;
  return v;
}

}  // namespace plan
}  // namespace ocdx
