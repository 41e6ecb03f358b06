#include "text/dx_driver.h"

#include <algorithm>
#include <deque>
#include <span>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "certain/certain.h"
#include "chase/canonical.h"
#include "compose/compose.h"
#include "logic/budget.h"
#include "logic/classify.h"
#include "plan/compile.h"
#include "semantics/membership.h"
#include "semantics/repa.h"
#include "semantics/solutions.h"
#include "skolem/compose.h"
#include "skolem/skolem.h"
#include "util/str.h"

namespace ocdx {

bool DxChasePairOk(const DxMappingDecl& m, const DxInstanceDecl& i) {
  return !m.mapping.IsSkolemized() && !i.annotated && i.over == m.from;
}

namespace {

const char* YesNo(bool b) { return b ? "yes" : "no"; }

// ---------------------------------------------------------------------------
// Governed (budget/deadline/cancellation) error rendering
// ---------------------------------------------------------------------------

// Budget trips are *results*, not failures of the driver: they render as
// positioned `error ...` lines inside the command output — so a batch run
// keeps its byte-identity guarantee and the remaining inputs still run —
// while the first one is also reported out-of-band through the `governed`
// out-parameter for exit-code and summary purposes. Hard errors (parse
// bugs, internal invariants) still abort the command as before.
bool Governed(const Status& status) {
  return IsBudgetStatusCode(status.code());
}

void NoteGoverned(const Status& status, Status* governed) {
  if (governed != nullptr && governed->ok()) *governed = status;
}

// The positioned error block for a failed (mapping, instance) pair. The
// position is the mapping declaration's — the budget was exceeded while
// executing *its* rules — which both engines and every parallelism level
// agree on.
std::string MappingErrorLine(const DxMappingDecl& m, const Status& status) {
  return StrCat("  error (mapping ", m.name, ", line ", m.line, ", col ",
                m.col, "): ", status.ToString(), "\n");
}

// Error texts shared verbatim by the run paths and PlanDxJobs (the batch
// planner must fail with byte-identical messages to the sequential run).
constexpr char kNoChasePair[] =
    "no applicable (plain mapping, plain instance over its source "
    "schema) pair for chase";
constexpr char kNoCertainTriple[] =
    "no applicable (mapping, instance, query) triple for certain";
constexpr char kNoMembershipInput[] =
    "no applicable membership input: need a (mapping, plain source, "
    "ground target) triple or an (annotated instance, ground instance) "
    "pair";
constexpr char kUnknownCommand[] =
    "' (expected chase, certain, classify, membership, compose or all)";

// ---------------------------------------------------------------------------
// Canonical null naming
// ---------------------------------------------------------------------------

// Chase-minted nulls get canonical names `@1, @2, ...` ordered by their
// justification (STD index, witness tuple, existential variable) — a key
// that both engine modes agree on — so golden output never depends on the
// order in which nulls happened to be minted. Hand-declared nulls (from
// `.dx` instance literals) keep their `_name` form.
using NullNames = std::unordered_map<Value, std::string, ValueHash>;

NullNames CanonicalNullNames(const AnnotatedInstance& inst,
                             const Universe& u) {
  std::vector<Value> nulls;
  for (const auto& [name, rel] : inst.relations()) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      for (Value v : t.values) {
        if (v.IsNull()) nulls.push_back(v);
      }
    }
  }
  std::sort(nulls.begin(), nulls.end());
  nulls.erase(std::unique(nulls.begin(), nulls.end()), nulls.end());
  NullNames names;
  names.reserve(nulls.size());
  // Structured key, not a concatenated string: constants may contain any
  // separator character, and a key collision would make the sort fall
  // through to minting order — the engine-dependence this renaming
  // exists to remove. Witness positions compare by their printed text:
  // constants view their interned name; nulls (source nulls inside a
  // witness) are described once into `null_texts`, whose elements never
  // move.
  struct JustKey {
    int32_t std_index;
    std::vector<std::string_view> witness;
    std::string_view var;
    Value null;
  };
  std::deque<std::string> null_texts;
  std::vector<JustKey> justified;
  for (Value v : nulls) {
    const NullInfo& info = u.null_info(v);
    if (info.std_index < 0) {
      names.emplace(v, u.Describe(v));
      continue;
    }
    std::span<const Value> wvals = u.WitnessOf(info.witness);
    JustKey key{info.std_index, {}, info.var, v};
    key.witness.reserve(wvals.size());
    for (Value w : wvals) {
      key.witness.push_back(w.IsConst()
                                ? std::string_view(u.ConstName(w.id()))
                                : null_texts.emplace_back(u.Describe(w)));
    }
    justified.push_back(std::move(key));
  }
  std::sort(justified.begin(), justified.end(),
            [](const JustKey& a, const JustKey& b) {
              return std::tie(a.std_index, a.witness, a.var, a.null) <
                     std::tie(b.std_index, b.witness, b.var, b.null);
            });
  for (size_t i = 0; i < justified.size(); ++i) {
    names.emplace(justified[i].null, "@" + std::to_string(i + 1));
  }
  return names;
}

// The renderers below append into a caller-owned string: no temporary
// per value, tuple or line.

void RenderValue(Value v, const Universe& u, const NullNames& null_names,
                 std::string* out) {
  if (v.IsConst()) {
    out->push_back('\'');
    out->append(u.ConstName(v.id()));
    out->push_back('\'');
    return;
  }
  auto it = null_names.find(v);
  if (it != null_names.end()) {
    out->append(it->second);
  } else {
    out->append(u.Describe(v));
  }
}

// `(v1, v2)^(op,cl)`, or `(_)^(op,cl)` for an empty marker.
void RenderAnnotatedTuple(const AnnotatedTupleRef& t, const Universe& u,
                          const NullNames& names, std::string* out) {
  if (t.IsEmptyMarker()) {
    out->append("(_)");
  } else {
    out->push_back('(');
    for (size_t i = 0; i < t.values.size(); ++i) {
      if (i > 0) out->append(", ");
      RenderValue(t.values[i], u, names, out);
    }
    out->push_back(')');
  }
  out->append("^(");
  for (size_t i = 0; i < t.ann.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append(AnnToString(t.ann[i]));
  }
  out->push_back(')');
}

// Canonical row order for printing: rows are rendered back to back into
// one buffer, then appended sorted by their text and joined by ", ".
class SortedRows {
 public:
  /// Starts a new row; render it by appending to the returned buffer.
  std::string* NextRow() {
    starts_.push_back(buf_.size());
    return &buf_;
  }

  /// Appends `{ }` for no rows, else `{ r1, r2, ... }` in text order, and
  /// clears the rows for reuse.
  void AppendBraced(std::string* out) {
    if (starts_.empty()) {
      out->append("{ }");
      return;
    }
    views_.clear();
    for (size_t i = 0; i < starts_.size(); ++i) {
      size_t end = i + 1 < starts_.size() ? starts_[i + 1] : buf_.size();
      views_.emplace_back(buf_.data() + starts_[i], end - starts_[i]);
    }
    std::sort(views_.begin(), views_.end());
    out->append("{ ");
    for (size_t i = 0; i < views_.size(); ++i) {
      if (i > 0) out->append(", ");
      out->append(views_[i]);
    }
    out->append(" }");
    buf_.clear();
    starts_.clear();
  }

 private:
  std::string buf_;
  std::vector<size_t> starts_;
  std::vector<std::string_view> views_;
};

void RenderAnnotatedInstance(const AnnotatedInstance& inst, const Universe& u,
                             const NullNames& names, std::string_view indent,
                             std::string* out) {
  SortedRows rows;
  for (const auto& [name, rel] : inst.relations()) {
    for (const AnnotatedTupleRef& t : rel.tuples()) {
      RenderAnnotatedTuple(t, u, names, rows.NextRow());
    }
    out->append(indent);
    out->append(name);
    out->append(" = ");
    rows.AppendBraced(out);
    out->push_back('\n');
  }
}

void RenderRelation(const Relation& rel, const Universe& u,
                    std::string* out) {
  const NullNames no_names;
  SortedRows rows;
  for (TupleRef t : rel.tuples()) {
    std::string* row = rows.NextRow();
    row->push_back('(');
    for (size_t i = 0; i < t.size(); ++i) {
      if (i > 0) row->append(", ");
      RenderValue(t[i], u, no_names, row);
    }
    row->push_back(')');
  }
  rows.AppendBraced(out);
}

// ---------------------------------------------------------------------------
// Input enumeration
// ---------------------------------------------------------------------------

// Prechased lookup-or-chase: if the caller supplied a snapshot store
// holding this (mapping, instance) pair, copy the stored solution — the
// copy re-interns rows into its own arenas, mirroring the ownership of a
// fresh chase, so one immutable store serves concurrent jobs — otherwise
// chase live. Governed pairs are never stored (see PrechasedStore::Find),
// so the fallback reproduces their budget diagnostics byte-identically.
Result<CanonicalSolution> ChaseOrReuse(const DxMappingDecl& m,
                                       const DxInstanceDecl& inst,
                                       Universe* u,
                                       const DxDriverOptions& options) {
  if (options.prechased != nullptr) {
    const CanonicalSolution* hit = options.prechased->Find(m.name, inst.name);
    if (hit != nullptr) return CanonicalSolution(*hit);
  }
  return Chase(m.mapping, inst.plain, u, options.engine);
}

bool QueryOverTarget(const DxQuery& q, const Mapping& m) {
  for (const std::string& rel : RelationsIn(q.formula)) {
    if (!m.target().Contains(rel)) return false;
  }
  return true;
}

struct ComposeInputs {
  const DxMappingDecl* sigma = nullptr;
  const DxMappingDecl* delta = nullptr;
  const DxInstanceDecl* source = nullptr;
  const DxInstanceDecl* target = nullptr;
};

// Structural selection only; semantic requirements (groundness etc.) are
// reported by the composition engines themselves.
Result<ComposeInputs> SelectComposeInputs(const DxScenario& sc,
                                          const DxDriverOptions& options) {
  ComposeInputs in;
  auto named_mapping = [&](const std::string& name,
                           const char* what) -> Result<const DxMappingDecl*> {
    const DxMappingDecl* m = sc.FindMapping(name);
    if (m == nullptr) {
      return Status::NotFound(StrCat(what, " mapping '", name, "' not found"));
    }
    return m;
  };
  if (!options.sigma.empty()) {
    OCDX_ASSIGN_OR_RETURN(in.sigma, named_mapping(options.sigma, "sigma"));
  }
  if (!options.delta.empty()) {
    OCDX_ASSIGN_OR_RETURN(in.delta, named_mapping(options.delta, "delta"));
  }
  if (in.sigma == nullptr || in.delta == nullptr) {
    const DxMappingDecl* sigma = nullptr;
    const DxMappingDecl* delta = nullptr;
    for (const DxMappingDecl& s : sc.mappings) {
      if (in.sigma != nullptr && &s != in.sigma) continue;
      for (const DxMappingDecl& d : sc.mappings) {
        if (&s == &d) continue;
        if (in.delta != nullptr && &d != in.delta) continue;
        if (s.to != d.from) continue;
        sigma = &s;
        delta = &d;
        break;
      }
      if (sigma != nullptr) break;
    }
    if (sigma == nullptr) {
      return Status::NotFound(
          "no composable mapping pair (need sigma: s -> t and delta: t -> w)");
    }
    in.sigma = sigma;
    in.delta = delta;
  }
  if (in.sigma->to != in.delta->from) {
    return Status::InvalidArgument(
        StrCat("mappings '", in.sigma->name, "' and '", in.delta->name,
               "' do not compose (target schema '", in.sigma->to,
               "' vs source schema '", in.delta->from, "')"));
  }
  auto pick_instance =
      [&](const std::string& name, const std::string& over,
          const char* what) -> Result<const DxInstanceDecl*> {
    if (!name.empty()) {
      const DxInstanceDecl* i = sc.FindInstance(name);
      if (i == nullptr) {
        return Status::NotFound(
            StrCat(what, " instance '", name, "' not found"));
      }
      return i;
    }
    for (const DxInstanceDecl& i : sc.instances) {
      if (!i.annotated && i.over == over) return &i;
    }
    return Status::NotFound(
        StrCat("no plain instance over schema '", over, "' for the ", what,
               " of the composition"));
  };
  OCDX_ASSIGN_OR_RETURN(
      in.source, pick_instance(options.source, in.sigma->from, "source"));
  OCDX_ASSIGN_OR_RETURN(
      in.target, pick_instance(options.target, in.delta->to, "target"));
  return in;
}

bool HasComposePair(const DxScenario& sc) {
  return SelectComposeInputs(sc, DxDriverOptions{}).ok();
}

// ---------------------------------------------------------------------------
// classify
// ---------------------------------------------------------------------------

const char* DeqaCell(size_t num_open) {
  if (num_open == 0) return "coNP-complete (Thm 3.1)";
  if (num_open == 1) return "coNEXPTIME-complete (Thm 3.2)";
  return "undecidable (Thm 3.3)";
}

const char* ComposeCell(size_t num_open) {
  if (num_open == 0) return "NP-complete (Table 1)";
  if (num_open == 1) return "NEXPTIME-complete (Table 1)";
  return "undecidable (Table 1)";
}

std::string ClassifyText(const DxScenario& sc) {
  std::string out = StrCat("schemas=", sc.schemas.size(), ", mappings=",
                           sc.mappings.size(), ", instances=",
                           sc.instances.size(), ", queries=",
                           sc.queries.size(), "\n");
  for (const DxMappingDecl& decl : sc.mappings) {
    const Mapping& m = decl.mapping;
    const char* ann = m.IsAllOpen()    ? "all-open"
                      : m.IsAllClosed() ? "all-closed"
                                        : "mixed";
    out += StrCat("mapping ", decl.name, " (", decl.from, " -> ", decl.to,
                  "): stds=", m.stds().size(), ", #op=", m.MaxOpenPerAtom(),
                  ", #cl=", m.MaxClosedPerAtom(), ", annotation=", ann, "\n");
    out += StrCat("  bodies: CQ=", YesNo(m.HasCQBodies()), ", monotone=",
                  YesNo(m.HasMonotoneBodies()), ", skolemized=",
                  YesNo(m.IsSkolemized()), "\n");
    out += StrCat("  DEQA for FO queries (Thm 3): ",
                  DeqaCell(m.MaxOpenPerAtom()), "\n");
    out += StrCat("  composition membership as sigma (Thm 4): ",
                  ComposeCell(m.MaxOpenPerAtom()), "\n");
  }
  for (const DxQuery& q : sc.queries) {
    out += StrCat("query ", q.name, "(", Join(q.vars, ", "), "): class=",
                  QueryClassToString(Classify(q.formula)),
                  ", quantifier rank=", QuantifierRank(q.formula),
                  q.vars.empty() ? ", boolean" : "", "\n");
  }
  return out;
}

// ---------------------------------------------------------------------------
// chase
// ---------------------------------------------------------------------------

Status CheckMappingSelection(const DxScenario& sc,
                             const DxDriverOptions& options) {
  if (!options.mapping.empty() &&
      sc.FindMapping(options.mapping) == nullptr) {
    return Status::NotFound(
        StrCat("mapping '", options.mapping, "' not found"));
  }
  return Status::OK();
}

Result<std::string> ChaseText(const DxScenario& sc, Universe* u,
                              const DxDriverOptions& options,
                              Status* governed) {
  OCDX_RETURN_IF_ERROR(CheckMappingSelection(sc, options));
  std::string out;
  for (const DxMappingDecl& m : sc.mappings) {
    if (!options.mapping.empty() && m.name != options.mapping) continue;
    for (const DxInstanceDecl& inst : sc.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CanonicalSolution> chased = ChaseOrReuse(m, inst, u, options);
      if (!chased.ok()) {
        if (!Governed(chased.status())) return chased.status();
        NoteGoverned(chased.status(), governed);
        out += StrCat("chase ", m.name, " / ", inst.name, ":\n",
                      MappingErrorLine(m, chased.status()));
        continue;
      }
      CanonicalSolution csol = std::move(chased).value();
      NullNames names = CanonicalNullNames(csol.annotated, *u);
      size_t markers = 0;
      for (const auto& [rel_name, rel] : csol.annotated.relations()) {
        markers += rel.size() - rel.NumProperTuples();
      }
      size_t fresh = 0;
      for (const ChaseTrigger& t : csol.triggers) {
        fresh += t.fresh_nulls.size();
      }
      out += StrCat("chase ", m.name, " / ", inst.name, ":\n");
      RenderAnnotatedInstance(csol.annotated, *u, names, "  ", &out);
      out += StrCat("  triggers=", csol.triggers.size(), ", fresh nulls=",
                    fresh, ", empty markers=", markers, "\n");
    }
  }
  if (out.empty()) return Status::NotFound(kNoChasePair);
  return out;
}

// ---------------------------------------------------------------------------
// certain
// ---------------------------------------------------------------------------

Result<std::string> CertainText(const DxScenario& sc, Universe* u,
                                const DxDriverOptions& options,
                                Status* governed) {
  OCDX_RETURN_IF_ERROR(CheckMappingSelection(sc, options));
  std::string out;
  for (const DxMappingDecl& m : sc.mappings) {
    if (!options.mapping.empty() && m.name != options.mapping) continue;
    for (const DxInstanceDecl& inst : sc.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      std::vector<const DxQuery*> applicable;
      for (const DxQuery& q : sc.queries) {
        if (QueryOverTarget(q, m.mapping)) applicable.push_back(&q);
      }
      if (applicable.empty()) continue;
      // Create chases the instance, so it can trip the chase budget. A
      // prechased hit skips the chase (FromCanonical) — same engine state,
      // since the stored solution came from an identical chase.
      Result<CertainAnswerEngine> created = [&]() -> Result<CertainAnswerEngine> {
        if (options.prechased != nullptr) {
          const CanonicalSolution* hit =
              options.prechased->Find(m.name, inst.name);
          if (hit != nullptr) {
            return CertainAnswerEngine::FromCanonical(
                m.mapping, CanonicalSolution(*hit), u, options.engine);
          }
        }
        return CertainAnswerEngine::Create(m.mapping, inst.plain, u,
                                           options.engine);
      }();
      if (!created.ok()) {
        if (!Governed(created.status())) return created.status();
        NoteGoverned(created.status(), governed);
        out += StrCat("certain ", m.name, " / ", inst.name, ":\n",
                      MappingErrorLine(m, created.status()));
        continue;
      }
      CertainAnswerEngine engine = std::move(created).value();
      out += StrCat("certain ", m.name, " / ", inst.name, ":\n");
      for (const DxQuery* q : applicable) {
        // Guard-depth diagnostic (static shape analysis, so the note is
        // byte-identical under every engine mode): negated sub-CQ guards
        // deeper than one level fall back to the generic evaluator; say
        // so instead of degrading silently.
        if (plan::GuardDepthExceeded(q->formula)) {
          out += StrCat("  note: ", q->name, " (line ", q->line, ", col ",
                        q->col,
                        "): negated guard nested deeper than one level; "
                        "evaluated without a CQ plan\n");
        }
        std::string head = StrCat("  ", q->name, "(", Join(q->vars, ", "),
                                  ")");
        // Per-query governed failures render in the query's own slot; the
        // remaining queries of the pair still run.
        auto query_error = [&](const Status& status) -> Status {
          if (!Governed(status)) return status;
          NoteGoverned(status, governed);
          out += StrCat(head, " = error (line ", q->line, ", col ", q->col,
                        "): ", status.ToString(), "\n");
          return Status::OK();
        };
        if (q->vars.empty()) {
          Result<CertainVerdict> verdict = engine.IsCertainBoolean(q->formula);
          if (!verdict.ok()) {
            OCDX_RETURN_IF_ERROR(query_error(verdict.status()));
            continue;
          }
          out += StrCat(head, " = ", YesNo(verdict.value().certain), "  [",
                        verdict.value().method, "; exhaustive=",
                        YesNo(verdict.value().exhaustive), "]\n");
        } else {
          CertainVerdict verdict;
          Result<Relation> answers =
              engine.CertainAnswers(q->formula, q->vars, &verdict);
          if (!answers.ok()) {
            OCDX_RETURN_IF_ERROR(query_error(answers.status()));
            continue;
          }
          out += head;
          out += " = ";
          RenderRelation(answers.value(), *u, &out);
          out += StrCat("  [", verdict.method, "; exhaustive=",
                        YesNo(verdict.exhaustive), "]\n");
        }
      }
    }
  }
  if (out.empty()) return Status::NotFound(kNoCertainTriple);
  return out;
}

// ---------------------------------------------------------------------------
// membership
// ---------------------------------------------------------------------------

// Solution-space triples: every (mapping, plain source over its source
// schema, plain *ground* candidate over its target schema). Skolemized
// mappings are decided through the SkSTD semantics (Lemma 4), plain ones
// through Theorem 2 (all-open PTIME path or chase + RepA search).
bool MembershipTripleOk(const DxMappingDecl& m, const DxInstanceDecl& s,
                        const DxInstanceDecl& t) {
  return !s.annotated && s.over == m.from && !t.annotated &&
         t.over == m.to && t.plain.IsGround() && &s != &t;
}

// RepA pairs: an annotated instance A and a plain ground instance G over
// the same schema.
bool RepAPairOk(const DxInstanceDecl& a, const DxInstanceDecl& g) {
  return a.annotated && !g.annotated && g.over == a.over &&
         g.plain.IsGround();
}

bool HasMembershipInputs(const DxScenario& sc) {
  for (const DxMappingDecl& m : sc.mappings) {
    for (const DxInstanceDecl& s : sc.instances) {
      for (const DxInstanceDecl& t : sc.instances) {
        if (MembershipTripleOk(m, s, t)) return true;
      }
    }
  }
  for (const DxInstanceDecl& a : sc.instances) {
    for (const DxInstanceDecl& g : sc.instances) {
      if (RepAPairOk(a, g)) return true;
    }
  }
  return false;
}

Result<std::string> MembershipText(const DxScenario& sc, Universe* u,
                                   const DxDriverOptions& options,
                                   Status* governed) {
  OCDX_RETURN_IF_ERROR(CheckMappingSelection(sc, options));
  std::string out;
  for (const DxMappingDecl& m : sc.mappings) {
    if (!options.mapping.empty() && m.name != options.mapping) continue;
    for (const DxInstanceDecl& s : sc.instances) {
      bool any = false;
      for (const DxInstanceDecl& t : sc.instances) {
        if (MembershipTripleOk(m, s, t)) {
          any = true;
          break;
        }
      }
      if (!any) continue;
      out += StrCat("membership ", m.name, " / ", s.name, ":\n");
      // Chase once per (mapping, source); every candidate below reuses
      // CSolA(S) through InSolutionSpaceGiven. The all-open and Skolem
      // paths do not chase here at all.
      const bool skolem = m.mapping.IsSkolemized();
      const bool all_open = m.mapping.IsAllOpen();
      std::optional<CanonicalSolution> csol;
      // All-open requirement formulas built once per (mapping, source):
      // the plan cache keys on formula identity, so the per-candidate
      // Theorem 2 checks below reuse one compiled plan per STD.
      std::vector<FormulaPtr> reqs;
      if (!skolem && all_open) reqs = StdRequirements(m.mapping);
      if (!skolem && !all_open) {
        Result<CanonicalSolution> chased = ChaseOrReuse(m, s, u, options);
        if (!chased.ok()) {
          if (!Governed(chased.status())) return chased.status();
          NoteGoverned(chased.status(), governed);
          out += MappingErrorLine(m, chased.status());
          continue;
        }
        csol = std::move(chased).value();
      }
      for (const DxInstanceDecl& t : sc.instances) {
        if (!MembershipTripleOk(m, s, t)) continue;
        // Per-candidate governed failures render in the candidate's slot;
        // the remaining candidates still run.
        auto candidate_error = [&](const Status& status) -> Status {
          if (!Governed(status)) return status;
          NoteGoverned(status, governed);
          out += StrCat("  ", t.name, ": error: ", status.ToString(), "\n");
          return Status::OK();
        };
        if (skolem) {
          Result<SkolemMembership> v = InSkolemSemantics(
              m.mapping, s.plain, t.plain, u, {}, options.engine);
          if (!v.ok()) {
            OCDX_RETURN_IF_ERROR(candidate_error(v.status()));
            continue;
          }
          out += StrCat("  ", t.name, ": member=", YesNo(v.value().member),
                        ", exhaustive=", YesNo(v.value().exhaustive), "  [",
                        v.value().method, "]\n");
          continue;
        }
        // The witnessing valuation is engine-dependent (search order)
        // and is deliberately not printed.
        bool member;
        if (all_open) {
          // Theorem 2: with the all-open annotation, T in [[S]] iff
          // (S,T) |= Sigma — the same check InSolutionSpace would make,
          // with the hoisted requirement formulas.
          Result<bool> sat = SatisfiesStds(m.mapping, reqs, s.plain, t.plain,
                                           *u, options.engine);
          if (!sat.ok()) {
            OCDX_RETURN_IF_ERROR(candidate_error(sat.status()));
            continue;
          }
          member = sat.value();
        } else {
          Result<MembershipResult> v = InSolutionSpaceGiven(
              csol->annotated, t.plain, {}, options.engine);
          if (!v.ok()) {
            OCDX_RETURN_IF_ERROR(candidate_error(v.status()));
            continue;
          }
          member = v.value().member;
        }
        out += StrCat("  ", t.name, ": member=", YesNo(member), "  [",
                      all_open
                          ? "direct STD check (all-open, PTIME, Thm 2)"
                          : "chase + RepA search (NP, Thm 2)",
                      "]\n");
      }
    }
  }
  for (const DxInstanceDecl& a : sc.instances) {
    bool any = false;
    for (const DxInstanceDecl& g : sc.instances) {
      if (RepAPairOk(a, g)) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    out += StrCat("repa ", a.name, ":\n");
    for (const DxInstanceDecl& g : sc.instances) {
      if (!RepAPairOk(a, g)) continue;
      Result<bool> member =
          InRepA(a.annotated_instance, g.plain, nullptr, {}, options.engine);
      if (!member.ok()) {
        if (!Governed(member.status())) return member.status();
        NoteGoverned(member.status(), governed);
        out += StrCat("  ", g.name, ": error: ", member.status().ToString(),
                      "\n");
        continue;
      }
      out += StrCat("  ", g.name, ": member=", YesNo(member.value()), "\n");
    }
  }
  if (out.empty()) return Status::NotFound(kNoMembershipInput);
  return out;
}

// ---------------------------------------------------------------------------
// compose
// ---------------------------------------------------------------------------

Result<std::string> ComposeText(const DxScenario& sc, Universe* u,
                                const DxDriverOptions& options,
                                Status* governed) {
  OCDX_ASSIGN_OR_RETURN(ComposeInputs in, SelectComposeInputs(sc, options));
  std::string out =
      StrCat("compose ", in.sigma->name, " o ", in.delta->name, " on (",
             in.source->name, ", ", in.target->name, "):\n");

  bool skolemized =
      in.sigma->mapping.IsSkolemized() || in.delta->mapping.IsSkolemized();
  if (skolemized) {
    Result<SkolemMembership> verdict = InSkolemComposition(
        in.sigma->mapping, in.delta->mapping, in.source->plain,
        in.target->plain, u, {}, options.engine);
    if (!verdict.ok()) {
      NoteGoverned(verdict.status(), governed);
      out += StrCat("  membership: error: ", verdict.status().message(),
                    "\n");
    } else {
      out += StrCat("  membership: member=", YesNo(verdict.value().member),
                    ", exhaustive=", YesNo(verdict.value().exhaustive), "  [",
                    verdict.value().method, "]\n");
    }
  } else {
    Result<ComposeVerdict> verdict =
        InComposition(in.sigma->mapping, in.delta->mapping, in.source->plain,
                      in.target->plain, u, {}, options.engine);
    if (!verdict.ok()) {
      NoteGoverned(verdict.status(), governed);
      out += StrCat("  membership: error: ", verdict.status().message(),
                    "\n");
    } else {
      out += StrCat("  membership: member=", YesNo(verdict.value().member),
                    ", exhaustive=", YesNo(verdict.value().exhaustive), "  [",
                    verdict.value().method, "]\n");
    }
  }

  // Lemma 5 syntactic composition: Skolemize plain inputs (Lemma 4), run
  // the rewriting, and show the resulting gamma : sigma-source -> omega.
  auto syntactic = [&]() -> Result<std::string> {
    OCDX_ASSIGN_OR_RETURN(Mapping sk_sigma,
                          EnsureSkolemized(in.sigma->mapping));
    OCDX_ASSIGN_OR_RETURN(Mapping sk_delta,
                          EnsureSkolemized(in.delta->mapping));
    OCDX_ASSIGN_OR_RETURN(ComposeSkolemResult gamma,
                          ComposeSkolem(sk_sigma, sk_delta, u));
    std::string text = StrCat("  syntactic composition (Lemma 5): ",
                              gamma.gamma.stds().size(), " SkSTDs, "
                              "flattened to CQ=",
                              YesNo(gamma.flattened_to_cq), "\n");
    for (const AnnotatedStd& std_ : gamma.gamma.stds()) {
      text += StrCat("    ", std_.ToString(*u), ";\n");
    }
    return text;
  };
  Result<std::string> gamma_text = syntactic();
  if (gamma_text.ok()) {
    out += gamma_text.value();
  } else {
    out += StrCat("  syntactic composition (Lemma 5): not available: ",
                  gamma_text.status().message(), "\n");
  }
  return out;
}

// ---------------------------------------------------------------------------

bool HasChasePair(const DxScenario& sc) {
  for (const DxMappingDecl& m : sc.mappings) {
    for (const DxInstanceDecl& i : sc.instances) {
      if (DxChasePairOk(m, i)) return true;
    }
  }
  return false;
}

bool HasCertainTriple(const DxScenario& sc) {
  for (const DxMappingDecl& m : sc.mappings) {
    for (const DxInstanceDecl& i : sc.instances) {
      if (!DxChasePairOk(m, i)) continue;
      for (const DxQuery& q : sc.queries) {
        if (QueryOverTarget(q, m.mapping)) return true;
      }
    }
  }
  return false;
}

Result<std::string> RunAll(const DxScenario& sc, Universe* u,
                           const DxDriverOptions& options, Status* governed) {
  std::string out;
  if (!sc.name.empty()) out += StrCat("scenario '", sc.name, "'\n");
  for (const std::string& cmd : ApplicableDxCommands(sc)) {
    out += StrCat("== ", cmd, " ==\n");
    OCDX_ASSIGN_OR_RETURN(std::string text,
                          RunDxCommand(sc, cmd, u, options, governed));
    out += text;
  }
  return out;
}

}  // namespace

std::vector<std::string> ApplicableDxCommands(const DxScenario& scenario) {
  std::vector<std::string> out = {"classify"};
  if (HasChasePair(scenario)) out.push_back("chase");
  if (HasCertainTriple(scenario)) out.push_back("certain");
  if (HasMembershipInputs(scenario)) out.push_back("membership");
  if (HasComposePair(scenario)) out.push_back("compose");
  return out;
}

Result<std::string> RunDxCommand(const DxScenario& scenario,
                                 const std::string& command,
                                 Universe* universe,
                                 const DxDriverOptions& options,
                                 Status* governed) {
  if (command == "classify") return ClassifyText(scenario);
  // One plan table per command run (unless the caller attached or lent
  // one): every evaluation below shares it, so the enumeration-heavy commands
  // compile each (query, schema, mode) once. Caching never changes
  // output bytes — the golden corpus pins that under both engines.
  // (classify returned above: it evaluates nothing; the unknown-command
  // error path pays one idle cache allocation, which is fine.)
  DxDriverOptions run = options;
  run.engine.EnsureCache();
  // Scenario-declared budget settings tighten (never relax) whatever the
  // caller imposed, and the wall-clock deadline starts here — once per
  // command, including once for a whole `all` run (the recursive
  // sub-command calls see an already armed deadline and keep it).
  for (const auto& [key, value] : scenario.budget_settings) {
    Budget b;
    SetBudgetField(&b, key, value);
    run.engine.budget.Tighten(b);
  }
  run.engine.budget.ArmDeadline();
  if (command == "chase") {
    return ChaseText(scenario, universe, run, governed);
  }
  if (command == "certain") {
    return CertainText(scenario, universe, run, governed);
  }
  if (command == "membership") {
    return MembershipText(scenario, universe, run, governed);
  }
  if (command == "compose") {
    return ComposeText(scenario, universe, run, governed);
  }
  if (command == "all") return RunAll(scenario, universe, run, governed);
  return Status::InvalidArgument(
      StrCat("unknown command '", command, kUnknownCommand));
}

Result<std::vector<DxJobSpec>> PlanDxJobs(const DxScenario& scenario,
                                          const std::string& command,
                                          const DxDriverOptions& options) {
  std::vector<DxJobSpec> out;
  if (command == "all") {
    std::string header =
        scenario.name.empty() ? ""
                              : StrCat("scenario '", scenario.name, "'\n");
    for (const std::string& cmd : ApplicableDxCommands(scenario)) {
      OCDX_ASSIGN_OR_RETURN(std::vector<DxJobSpec> sub,
                            PlanDxJobs(scenario, cmd, options));
      for (size_t i = 0; i < sub.size(); ++i) {
        if (i == 0) {
          sub[i].prefix =
              StrCat(header, "== ", cmd, " ==\n", sub[i].prefix);
          header.clear();
        }
        out.push_back(std::move(sub[i]));
      }
    }
    return out;
  }

  if (command == "chase" || command == "certain") {
    OCDX_RETURN_IF_ERROR(CheckMappingSelection(scenario, options));
    // Per-mapping slices; mapping names select unambiguously because the
    // parser rejects duplicate mapping declarations.
    for (const DxMappingDecl& m : scenario.mappings) {
      if (!options.mapping.empty() && m.name != options.mapping) continue;
      bool applicable = false;
      for (const DxInstanceDecl& i : scenario.instances) {
        if (!DxChasePairOk(m, i)) continue;
        if (command == "chase") {
          applicable = true;
        } else {
          for (const DxQuery& q : scenario.queries) {
            if (QueryOverTarget(q, m.mapping)) {
              applicable = true;
              break;
            }
          }
        }
        if (applicable) break;
      }
      if (!applicable) continue;
      DxJobSpec spec;
      spec.command = command;
      spec.options = options;
      spec.options.mapping = m.name;
      out.push_back(std::move(spec));
    }
    if (out.empty()) {
      return Status::NotFound(command == "chase" ? kNoChasePair
                                                 : kNoCertainTriple);
    }
    return out;
  }

  // classify / membership / compose: one job running the command
  // verbatim. Validate applicability up front so planning fails exactly
  // where running would.
  if (command == "membership" && !HasMembershipInputs(scenario)) {
    return Status::NotFound(kNoMembershipInput);
  }
  if (command != "classify" && command != "membership" &&
      command != "compose") {
    return Status::InvalidArgument(
        StrCat("unknown command '", command, kUnknownCommand));
  }
  DxJobSpec spec;
  spec.command = command;
  spec.options = options;
  out.push_back(std::move(spec));
  return out;
}

}  // namespace ocdx
