#include "snap/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chase/canonical.h"
#include "logic/budget.h"
#include "snap/format.h"
#include "text/dx_parser.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {
namespace snap {

namespace {

// A serialized Value is valid iff it is a well-formed tagged handle
// (no stray bits in 32..62, not the invalid sentinel) whose id is within
// the snapshot's own stored totals. Every value-carrying payload is run
// through this before any id is used as an index.
bool ValidValueRaw(uint64_t raw, uint64_t num_consts, uint64_t num_nulls) {
  Value v = Value::FromRaw(raw);
  if (!v.IsValid()) return false;
  constexpr uint64_t kReservedBits = 0x7fffffff00000000ULL;
  if ((raw & kReservedBits) != 0) return false;
  return v.IsConst() ? v.id() < num_consts : v.id() < num_nulls;
}

bool ValidWitnessRef(uint64_t offset, uint32_t len, uint64_t witness_size) {
  return len <= witness_size && offset <= witness_size - len;
}

// ---------------------------------------------------------------------------
// Section encoders
// ---------------------------------------------------------------------------

void EncodeMeta(const SnapshotBundle& b, Sink* out) {
  out->Str(b.source_path);
  out->Str(b.dx_text);
}

void EncodeUniverse(const Universe& u, Sink* out) {
  out->U64(u.num_consts());
  for (uint32_t c = 0; c < u.num_consts(); ++c) out->Str(u.ConstName(c));

  std::vector<Value> witness;
  u.AppendWitnessValues(&witness);
  out->U64(witness.size());
  for (Value v : witness) out->U64(v.raw());

  // Null registry, columnar: a fixed-width record per null followed by
  // one blob of concatenated var/label bytes. The loader gets two bounds
  // checks for the whole registry instead of five per null — the
  // registry is the second-largest payload and decoded on every warm
  // start.
  out->U64(u.num_nulls());
  std::string blob;
  for (uint32_t n = 0; n < u.num_nulls(); ++n) {
    const NullInfo& info = u.null_info(Value::MakeNull(n));
    out->I32(info.std_index);
    out->U64(info.witness.offset);
    out->U32(info.witness.len);
    out->U32(static_cast<uint32_t>(info.var.size()));
    out->U32(static_cast<uint32_t>(info.label.size()));
    blob += info.var;
    blob += info.label;
  }
  out->Str(blob);
}

void EncodeAnnotatedRelation(const AnnotatedRelation& rel, Sink* out) {
  out->U64(rel.arity());
  // Rebuild the (pool, per-row spec, flat extent) triple LoadRows takes,
  // from the public row view — first-appearance pool order, rows in id
  // order (which, by the dedup-before-intern invariant, is also the
  // arena's extent order).
  std::vector<AnnVec> pool;
  std::vector<AnnotatedRelation::RowSpec> specs;
  std::vector<Value> flat;
  specs.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    AnnotatedTupleRef t = rel.row(i);
    AnnVec ann(t.ann.begin(), t.ann.end());
    uint32_t ann_index = 0;
    while (ann_index < pool.size() && !(AnnRef(pool[ann_index]) == AnnRef(ann))) {
      ++ann_index;
    }
    if (ann_index == pool.size()) pool.push_back(std::move(ann));
    specs.push_back({static_cast<uint32_t>(t.values.size()), ann_index});
    flat.insert(flat.end(), t.values.begin(), t.values.end());
  }
  out->U64(pool.size());
  for (const AnnVec& ann : pool) {
    for (Ann a : ann) out->U8(static_cast<uint8_t>(a));
  }
  out->U64(specs.size());
  for (const AnnotatedRelation::RowSpec& s : specs) {
    out->U32(s.len);
    out->U32(s.ann);
  }
  out->U64(flat.size());
  for (Value v : flat) out->U64(v.raw());
}

// Scenario instances as binary relation payloads, in declaration order.
// The loader parses the embedded text with instance rows ELIDED (the
// structure — names, schemas, vocabulary — still comes from the text)
// and reconstitutes the rows from here with the same bulk LoadRows path
// the chased section uses, so a fact-heavy scenario warm-starts without
// re-tokenizing a single fact.
void EncodeInstances(const DxScenario& scenario, Sink* out) {
  out->U64(scenario.instances.size());
  for (const DxInstanceDecl& inst : scenario.instances) {
    out->Str(inst.name);
    out->Str(inst.over);
    out->U8(inst.annotated ? 1 : 0);
    out->U64(inst.annotated_instance.relations().size());
    for (const auto& [name, rel] : inst.annotated_instance.relations()) {
      out->Str(name);
      EncodeAnnotatedRelation(rel, out);
    }
  }
}

void EncodeChased(const PrechasedStore& store, Sink* out) {
  out->U64(store.size());
  for (const auto& [key, csol] : store.entries()) {
    out->Str(key.first);
    out->Str(key.second);
    out->U64(csol.annotated.relations().size());
    for (const auto& [name, rel] : csol.annotated.relations()) {
      out->Str(name);
      EncodeAnnotatedRelation(rel, out);
    }
    out->U64(csol.triggers.size());
    for (const ChaseTrigger& t : csol.triggers) {
      out->I32(t.std_index);
      out->U64(t.witness.offset);
      out->U32(t.witness.len);
      out->U64(t.fresh_nulls.offset);
      out->U32(t.fresh_nulls.len);
    }
  }
}

// ---------------------------------------------------------------------------
// Section decoders
// ---------------------------------------------------------------------------

// Replays the stored universe into a FRESH Universe: the constant table
// interns in stored order (so every stored Value's id resolves to the
// same name it had at write time), then the null registry and the
// justification arena load verbatim. The embedded scenario text is
// parsed *afterwards*, into this same universe, with instance rows
// elided — its rule/query constants resolve to the pre-interned ids, and
// ParseSnapshot verifies the parse introduced nothing new.
Status DecodeUniverse(Source* src, Universe* u) {
  OCDX_ASSIGN_OR_RETURN(uint64_t num_consts, src->U64());
  for (uint64_t c = 0; c < num_consts; ++c) {
    OCDX_ASSIGN_OR_RETURN(std::string name, src->Str());
    if (u->Const(name).id() != c) {
      return src->Corrupt(StrCat("constant ", c, " '", name,
                                 "' duplicates an earlier table entry"));
    }
  }

  OCDX_ASSIGN_OR_RETURN(uint64_t witness_size,
                        src->Count(sizeof(uint64_t), "witness count"));
  // Bulk read: one bounds check for the whole array, then a straight
  // copy into the Value vector LoadWitnessValues takes (Value is a
  // trivially-copyable u64 wrapper, so the stored raw bits ARE the
  // in-memory layout) — the justification arena is the largest single
  // payload in a snapshot and a per-element read would dominate
  // warm-start time.
  static_assert(sizeof(Value) == sizeof(uint64_t) &&
                std::is_trivially_copyable_v<Value>);
  std::vector<Value> witness(static_cast<size_t>(witness_size));
  OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> witness_bytes,
                        src->Bytes(witness_size * sizeof(uint64_t)));
  // memcpy's pointers must be non-null even for zero bytes, and an
  // empty vector's data() may be null.
  if (!witness.empty()) {
    std::memcpy(witness.data(), witness_bytes.data(), witness_bytes.size());
  }

  // Columnar registry (see EncodeUniverse): fixed records, then the
  // var/label string blob. Two bounds checks cover every null.
  constexpr uint64_t kNullRecord =
      sizeof(int32_t) + sizeof(uint64_t) + 3 * sizeof(uint32_t);
  OCDX_ASSIGN_OR_RETURN(uint64_t num_nulls,
                        src->Count(kNullRecord, "null count"));
  // Witness values may reference any stored null (fresh-null spans live
  // in the same arena), so they validate against the stored total.
  for (uint64_t i = 0; i < witness_size; ++i) {
    if (!ValidValueRaw(witness[static_cast<size_t>(i)].raw(), num_consts,
                       num_nulls)) {
      return src->Corrupt(StrCat("witness value ", i, " is not a valid "
                                 "constant or null handle"));
    }
  }
  OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> records,
                        src->Bytes(num_nulls * kNullRecord));
  OCDX_ASSIGN_OR_RETURN(uint64_t blob_len, src->U64());
  OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> blob,
                        src->Bytes(blob_len));
  const char* blob_chars = reinterpret_cast<const char*>(blob.data());
  uint64_t blob_pos = 0;
  u->ReserveNulls(static_cast<size_t>(num_nulls));
  for (uint64_t n = 0; n < num_nulls; ++n) {
    const uint8_t* rec = records.data() + n * kNullRecord;
    NullInfo info;
    uint64_t w_off;
    uint32_t w_len, var_len, label_len;
    std::memcpy(&info.std_index, rec, sizeof(int32_t));
    std::memcpy(&w_off, rec + 4, sizeof w_off);
    std::memcpy(&w_len, rec + 12, sizeof w_len);
    std::memcpy(&var_len, rec + 16, sizeof var_len);
    std::memcpy(&label_len, rec + 20, sizeof label_len);
    if (var_len > blob_len - blob_pos ||
        label_len > blob_len - blob_pos - var_len) {
      return src->Corrupt(
          StrCat("null ", n, " names run past the string blob"));
    }
    info.var.assign(blob_chars + blob_pos, var_len);
    info.label.assign(blob_chars + blob_pos + var_len, label_len);
    blob_pos += var_len + static_cast<uint64_t>(label_len);
    if (!ValidWitnessRef(w_off, w_len, witness_size)) {
      return src->Corrupt(
          StrCat("null ", n, " justification is out of arena bounds"));
    }
    info.witness = WitnessRef{w_off, w_len};
    u->MintNull(std::move(info));
  }
  if (blob_pos != blob_len) {
    return src->Corrupt(StrCat("null string blob has ", blob_len - blob_pos,
                               " unclaimed bytes"));
  }

  if (!u->LoadWitnessValues(witness)) {
    return src->Corrupt("justification arena is not empty");
  }
  return src->ExpectEnd();
}

Status DecodeAnnotatedRelation(Source* src, const RelationDecl& decl,
                               uint64_t num_consts, uint64_t num_nulls,
                               AnnotatedRelation* rel) {
  OCDX_ASSIGN_OR_RETURN(uint64_t arity, src->U64());
  if (arity != decl.arity()) {
    return src->Corrupt(StrCat("relation '", decl.name, "' stores arity ",
                               arity, " but the schema declares ",
                               decl.arity()));
  }
  // A pooled annotation vector stores `arity` bytes. A zero-ary relation
  // has one possible vector (the empty one), and the encoder pools it at
  // most once.
  uint64_t pool_size = 0;
  if (arity > 0) {
    OCDX_ASSIGN_OR_RETURN(pool_size, src->Count(arity, "annotation pool of"));
  } else {
    OCDX_ASSIGN_OR_RETURN(pool_size, src->U64());
    if (pool_size > 1) {
      return src->Corrupt(StrCat("annotation pool of ", pool_size,
                                 " exceeds the section payload"));
    }
  }
  std::vector<AnnVec> pool(static_cast<size_t>(pool_size));
  for (AnnVec& ann : pool) {
    ann.resize(static_cast<size_t>(arity));
    for (size_t p = 0; p < arity; ++p) {
      OCDX_ASSIGN_OR_RETURN(uint8_t a, src->U8());
      if (a > 1) {
        return src->Corrupt(StrCat("relation '", decl.name,
                                   "' has annotation byte ", a));
      }
      ann[p] = static_cast<Ann>(a);
    }
  }
  OCDX_ASSIGN_OR_RETURN(uint64_t num_rows,
                        src->Count(2 * sizeof(uint32_t), "row count"));
  std::vector<AnnotatedRelation::RowSpec> specs(
      static_cast<size_t>(num_rows));
  OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> spec_bytes,
                        src->Bytes(num_rows * 2 * sizeof(uint32_t)));
  for (uint64_t i = 0; i < num_rows; ++i) {
    const uint8_t* at = spec_bytes.data() + i * 2 * sizeof(uint32_t);
    std::memcpy(&specs[static_cast<size_t>(i)].len, at, sizeof(uint32_t));
    std::memcpy(&specs[static_cast<size_t>(i)].ann, at + sizeof(uint32_t),
                sizeof(uint32_t));
  }
  OCDX_ASSIGN_OR_RETURN(uint64_t flat_size,
                        src->Count(sizeof(uint64_t), "value count"));
  std::vector<Value> flat(static_cast<size_t>(flat_size));
  OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> flat_bytes,
                        src->Bytes(flat_size * sizeof(uint64_t)));
  for (uint64_t i = 0; i < flat_size; ++i) {
    uint64_t raw;
    std::memcpy(&raw, flat_bytes.data() + i * sizeof(uint64_t), sizeof raw);
    if (!ValidValueRaw(raw, num_consts, num_nulls)) {
      return src->Corrupt(StrCat("relation '", decl.name, "' value ", i,
                                 " is not a valid constant or null handle"));
    }
    flat[static_cast<size_t>(i)] = Value::FromRaw(raw);
  }
  // LoadRows enforces the structural contract (row widths 0 or arity,
  // pool indexes in range, widths summing to the extent) and defers the
  // dedup table — a loaded relation pays no per-row hashing until the
  // first mutation.
  if (!rel->LoadRows(flat, specs, std::move(pool))) {
    return src->Corrupt(
        StrCat("relation '", decl.name, "' row structure is inconsistent"));
  }
  return Status::OK();
}

// Fills the elided-parse instances (declared, schema relations present,
// zero rows) from the binary section. All structure — instance names,
// schema bindings, relation vocabulary — comes from the parsed text; the
// section must agree with it exactly, so a corrupt payload can never
// invent an instance or a relation the scenario does not declare.
Status DecodeInstances(Source* src, DxScenario* scenario,
                       uint64_t num_consts, uint64_t num_nulls) {
  OCDX_ASSIGN_OR_RETURN(uint64_t num_instances, src->U64());
  if (num_instances != scenario->instances.size()) {
    return src->Corrupt(StrCat("stores ", num_instances,
                               " instances but the embedded scenario "
                               "declares ",
                               scenario->instances.size()));
  }
  for (DxInstanceDecl& inst : scenario->instances) {
    OCDX_ASSIGN_OR_RETURN(std::string name, src->Str());
    if (name != inst.name) {
      return src->Corrupt(StrCat("instance '", name,
                                 "' does not match declared instance '",
                                 inst.name, "'"));
    }
    OCDX_ASSIGN_OR_RETURN(std::string over, src->Str());
    if (over != inst.over) {
      return src->Corrupt(StrCat("instance '", inst.name,
                                 "' stores schema '", over,
                                 "' but is declared over '", inst.over,
                                 "'"));
    }
    OCDX_ASSIGN_OR_RETURN(uint8_t annotated, src->U8());
    if (annotated > 1) {
      return src->Corrupt(StrCat("instance '", inst.name,
                                 "' has annotated flag ", annotated));
    }
    OCDX_ASSIGN_OR_RETURN(uint64_t num_relations, src->U64());
    if (num_relations != inst.annotated_instance.relations().size()) {
      return src->Corrupt(
          StrCat("instance '", inst.name, "' stores ", num_relations,
                 " relations but its schema declares ",
                 inst.annotated_instance.relations().size()));
    }
    const DxSchemaDecl* schema = scenario->FindSchema(inst.over);
    if (schema == nullptr) {
      return src->Corrupt(StrCat("instance '", inst.name,
                                 "' is over an undeclared schema"));
    }
    // The elided parse pre-declares exactly the schema's relations, and
    // the writer iterates the same name-ordered map — so the stored
    // relation names must replay the declared ones in order.
    std::vector<std::string> rel_names;
    rel_names.reserve(inst.annotated_instance.relations().size());
    for (const auto& [rel_name, rel] : inst.annotated_instance.relations()) {
      rel_names.push_back(rel_name);
    }
    for (const std::string& rel_name : rel_names) {
      OCDX_ASSIGN_OR_RETURN(std::string stored_name, src->Str());
      if (stored_name != rel_name) {
        return src->Corrupt(StrCat("instance '", inst.name,
                                   "' stores relation '", stored_name,
                                   "' where the schema declares '", rel_name,
                                   "'"));
      }
      const RelationDecl* decl = schema->schema.Find(rel_name);
      if (decl == nullptr) {
        return src->Corrupt(StrCat("relation '", rel_name,
                                   "' is not in schema '", inst.over, "'"));
      }
      AnnotatedRelation& rel =
          inst.annotated_instance.GetOrCreate(rel_name, decl->arity());
      OCDX_RETURN_IF_ERROR(
          DecodeAnnotatedRelation(src, *decl, num_consts, num_nulls, &rel));
    }
    inst.annotated = annotated != 0;
    inst.plain = inst.annotated_instance.RelPart();
  }
  return src->ExpectEnd();
}

Status DecodeChased(Source* src, const DxScenario& scenario,
                    uint64_t num_consts, uint64_t num_nulls,
                    uint64_t witness_size, PrechasedStore* store) {
  OCDX_ASSIGN_OR_RETURN(uint64_t num_pairs, src->U64());
  for (uint64_t p = 0; p < num_pairs; ++p) {
    OCDX_ASSIGN_OR_RETURN(std::string mapping_name, src->Str());
    OCDX_ASSIGN_OR_RETURN(std::string instance_name, src->Str());
    const DxMappingDecl* m = scenario.FindMapping(mapping_name);
    const DxInstanceDecl* inst = scenario.FindInstance(instance_name);
    if (m == nullptr || inst == nullptr || !DxChasePairOk(*m, *inst)) {
      return src->Corrupt(StrCat("pair (", mapping_name, ", ", instance_name,
                                 ") is not a chaseable pair of the embedded "
                                 "scenario"));
    }
    if (store->Find(mapping_name, instance_name) != nullptr) {
      return src->Corrupt(StrCat("duplicate pair (", mapping_name, ", ",
                                 instance_name, ")"));
    }

    CanonicalSolution csol;
    OCDX_ASSIGN_OR_RETURN(uint64_t num_relations, src->U64());
    for (uint64_t r = 0; r < num_relations; ++r) {
      OCDX_ASSIGN_OR_RETURN(std::string rel_name, src->Str());
      const RelationDecl* decl = m->mapping.target().Find(rel_name);
      if (decl == nullptr) {
        return src->Corrupt(StrCat("relation '", rel_name,
                                   "' is not in the target schema of "
                                   "mapping '",
                                   mapping_name, "'"));
      }
      if (csol.annotated.Find(rel_name) != nullptr) {
        return src->Corrupt(StrCat("duplicate relation '", rel_name, "'"));
      }
      AnnotatedRelation& rel =
          csol.annotated.GetOrCreate(rel_name, decl->arity());
      OCDX_RETURN_IF_ERROR(
          DecodeAnnotatedRelation(src, *decl, num_consts, num_nulls, &rel));
    }

    const auto& stds = m->mapping.stds();
    // One fixed-width record per trigger: i32 std + (u64,u32) witness +
    // (u64,u32) fresh-null span. Read as one block — chase-heavy
    // snapshots store one record per firing, and this loop is on the
    // warm-start critical path.
    constexpr uint64_t kTriggerRecord =
        sizeof(int32_t) + 2 * (sizeof(uint64_t) + sizeof(uint32_t));
    OCDX_ASSIGN_OR_RETURN(uint64_t num_triggers,
                          src->Count(kTriggerRecord, "trigger count"));
    OCDX_ASSIGN_OR_RETURN(std::span<const uint8_t> trigger_bytes,
                          src->Bytes(num_triggers * kTriggerRecord));
    // Per-STD data is hoisted out of the trigger loop: BodyVars /
    // ExistentialVars recompute free-variable sets per call, and the
    // var_order is shared per STD, exactly as the chase builds it.
    std::vector<std::shared_ptr<const std::vector<std::string>>> var_orders(
        stds.size());
    std::vector<uint32_t> exist_widths(stds.size());
    for (size_t s = 0; s < stds.size(); ++s) {
      var_orders[s] = std::make_shared<const std::vector<std::string>>(
          stds[s].BodyVars());
      exist_widths[s] =
          static_cast<uint32_t>(stds[s].ExistentialVars().size());
    }
    csol.triggers.reserve(static_cast<size_t>(num_triggers));
    for (uint64_t t = 0; t < num_triggers; ++t) {
      const uint8_t* rec = trigger_bytes.data() + t * kTriggerRecord;
      ChaseTrigger trigger;
      uint64_t w_off;
      uint32_t w_len;
      uint64_t f_off;
      uint32_t f_len;
      std::memcpy(&trigger.std_index, rec, sizeof(int32_t));
      std::memcpy(&w_off, rec + 4, sizeof w_off);
      std::memcpy(&w_len, rec + 12, sizeof w_len);
      std::memcpy(&f_off, rec + 16, sizeof f_off);
      std::memcpy(&f_len, rec + 24, sizeof f_len);
      if (trigger.std_index < 0 ||
          static_cast<size_t>(trigger.std_index) >= stds.size()) {
        return src->Corrupt(StrCat("trigger ", t, " references std ",
                                   trigger.std_index, " of mapping '",
                                   mapping_name, "'"));
      }
      if (!ValidWitnessRef(w_off, w_len, witness_size) ||
          !ValidWitnessRef(f_off, f_len, witness_size)) {
        return src->Corrupt(
            StrCat("trigger ", t, " references the justification arena out "
                   "of bounds"));
      }
      if (w_len != var_orders[trigger.std_index]->size() ||
          f_len != exist_widths[trigger.std_index]) {
        return src->Corrupt(StrCat("trigger ", t,
                                   " width disagrees with std ",
                                   trigger.std_index, " of mapping '",
                                   mapping_name, "'"));
      }
      trigger.var_order = var_orders[trigger.std_index];
      trigger.witness = WitnessRef{w_off, w_len};
      trigger.fresh_nulls = WitnessRef{f_off, f_len};
      csol.triggers.push_back(std::move(trigger));
    }

    store->Put(std::move(mapping_name), std::move(instance_name),
               std::move(csol));
  }
  return src->ExpectEnd();
}

}  // namespace

Result<SnapshotBundle> BuildSnapshotBundle(std::string source_path,
                                           std::string dx_text,
                                           const EngineContext& engine) {
  SnapshotBundle b;
  b.source_path = std::move(source_path);
  b.dx_text = std::move(dx_text);
  b.universe = std::make_unique<Universe>();
  OCDX_ASSIGN_OR_RETURN(b.scenario,
                        ParseDxScenario(b.dx_text, b.universe.get()));

  // The same budget fold RunDxCommand applies: scenario caps tighten the
  // caller's, and the deadline (if any) covers the whole build. With the
  // deterministic count caps this makes build-time governance equal
  // run-time governance: a pair the cold driver would trip on trips here
  // too, is left out of the store, and the warm driver re-chases it into
  // the identical diagnostic.
  EngineContext ctx = engine;
  ctx.EnsureCache();
  for (const auto& [key, value] : b.scenario.budget_settings) {
    Budget tight;
    SetBudgetField(&tight, key, value);
    ctx.budget.Tighten(tight);
  }
  ctx.budget.ArmDeadline();

  for (const DxMappingDecl& m : b.scenario.mappings) {
    for (const DxInstanceDecl& inst : b.scenario.instances) {
      if (!DxChasePairOk(m, inst)) continue;
      Result<CanonicalSolution> chased =
          Chase(m.mapping, inst.plain, b.universe.get(), ctx);
      if (!chased.ok()) {
        if (IsBudgetStatusCode(chased.status().code())) continue;
        return chased.status();
      }
      b.prechased.Put(m.name, inst.name, std::move(chased).value());
    }
  }
  return b;
}

Result<std::string> SerializeSnapshot(const SnapshotBundle& bundle) {
  std::string out;
  AppendHeader(&out, 4);

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-write"));
  Sink meta;
  EncodeMeta(bundle, &meta);
  AppendSection(&out, SectionId::kMeta, meta);

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-write"));
  Sink universe;
  EncodeUniverse(*bundle.universe, &universe);
  AppendSection(&out, SectionId::kUniverse, universe);

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-write"));
  Sink instances;
  EncodeInstances(bundle.scenario, &instances);
  AppendSection(&out, SectionId::kInstances, instances);

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-write"));
  Sink chased;
  EncodeChased(bundle.prechased, &chased);
  AppendSection(&out, SectionId::kChased, chased);

  return out;
}

Result<SnapshotBundle> ParseSnapshot(std::span<const uint8_t> bytes) {
  OCDX_ASSIGN_OR_RETURN(std::vector<SectionView> sections,
                        ParseContainer(bytes));
  // v1 writes exactly meta, universe, instances, chased, in that order;
  // anything else is a corrupt or foreign file.
  const SectionId expect[] = {SectionId::kMeta, SectionId::kUniverse,
                              SectionId::kInstances, SectionId::kChased};
  if (sections.size() != 4) {
    return Status::DataLoss(StrCat("snapshot: expected 4 sections, found ",
                                   sections.size()));
  }
  for (size_t s = 0; s < 4; ++s) {
    if (sections[s].id != static_cast<uint32_t>(expect[s])) {
      return Status::DataLoss(
          StrCat("snapshot: expected section '",
                 SectionIdName(static_cast<uint32_t>(expect[s])),
                 "' at position ", s, ", found '",
                 SectionIdName(sections[s].id), "'"));
    }
  }

  SnapshotBundle b;

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-read"));
  Source meta(sections[0].payload, "meta");
  OCDX_ASSIGN_OR_RETURN(b.source_path, meta.Str());
  OCDX_ASSIGN_OR_RETURN(b.dx_text, meta.Str());
  OCDX_RETURN_IF_ERROR(meta.ExpectEnd());

  // Universe first: the stored constant table interns into the fresh
  // universe in stored order, so every Value in the remaining sections
  // resolves to the name it had at write time.
  OCDX_RETURN_IF_ERROR(fault::Probe("snap-read"));
  b.universe = std::make_unique<Universe>();
  Source universe(sections[1].payload, "universe");
  OCDX_RETURN_IF_ERROR(DecodeUniverse(&universe, b.universe.get()));
  const uint64_t num_consts = b.universe->num_consts();
  const uint64_t num_nulls = b.universe->num_nulls();

  // The embedded text is still the authority on scenario *structure*
  // (schemas, mappings, queries, instance declarations), but its
  // instance rows are elided at the lexer — the rows come back from the
  // binary instances section instead, through the same bulk load path
  // the chased section uses. Rule and query constants resolve against
  // the pre-interned table; a parse that mints anything new names
  // vocabulary the writer never stored, i.e. the sections disagree.
  Result<DxScenario> scenario =
      ParseDxScenario(b.dx_text, b.universe.get(),
                      DxParseOptions{.elide_instance_rows = true});
  if (!scenario.ok()) {
    return Status::DataLoss(
        StrCat("snapshot: embedded scenario does not parse: ",
               scenario.status().ToString()));
  }
  b.scenario = std::move(scenario).value();
  if (b.universe->num_consts() != num_consts ||
      b.universe->num_nulls() != num_nulls) {
    return Status::DataLoss(
        "snapshot: embedded scenario uses vocabulary missing from the "
        "stored constant table");
  }

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-read"));
  Source instances(sections[2].payload, "instances");
  OCDX_RETURN_IF_ERROR(
      DecodeInstances(&instances, &b.scenario, num_consts, num_nulls));

  OCDX_RETURN_IF_ERROR(fault::Probe("snap-read"));
  Source chased(sections[3].payload, "chased");
  OCDX_RETURN_IF_ERROR(DecodeChased(&chased, b.scenario,
                                    b.universe->num_consts(),
                                    b.universe->num_nulls(),
                                    b.universe->witness_size(),
                                    &b.prechased));
  return b;
}

Status WriteSnapshotFile(const SnapshotBundle& bundle,
                         const std::string& path) {
  OCDX_ASSIGN_OR_RETURN(std::string bytes, SerializeSnapshot(bundle));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out || !out.write(bytes.data(), static_cast<std::streamsize>(
                                           bytes.size()))) {
    return Status::NotFound(StrCat("cannot write '", path, "'"));
  }
  return Status::OK();
}

Result<SnapshotBundle> LoadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(StrCat("cannot read '", path, "'"));
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string bytes = buf.str();
  return ParseSnapshot(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()));
}

std::string DescribeSnapshot(const SnapshotBundle& bundle) {
  std::string out = StrCat("snapshot of '", bundle.source_path, "'\n");
  if (!bundle.scenario.name.empty()) {
    out += StrCat("scenario '", bundle.scenario.name, "'\n");
  }
  out += StrCat("text: ", bundle.dx_text.size(), " bytes\n");
  out += StrCat("universe: ", bundle.universe->num_consts(), " constants, ",
                bundle.universe->num_nulls(), " nulls, ",
                bundle.universe->witness_size(), " witness values\n");
  out += StrCat("prechased pairs: ", bundle.prechased.size(), "\n");
  for (const auto& [key, csol] : bundle.prechased.entries()) {
    size_t proper = 0;
    size_t markers = 0;
    for (const auto& [name, rel] : csol.annotated.relations()) {
      proper += rel.NumProperTuples();
      markers += rel.size() - rel.NumProperTuples();
    }
    out += StrCat("  ", key.first, " / ", key.second, ": ",
                  csol.annotated.relations().size(), " relations, ", proper,
                  " tuples, ", markers, " markers, ", csol.triggers.size(),
                  " triggers\n");
  }
  return out;
}

Result<std::string> RunSnapshotCommand(const SnapshotBundle& bundle,
                                       const std::string& command,
                                       const DxDriverOptions& options,
                                       Status* governed) {
  // The warm chase fallback and the member-enumeration loops mint
  // scratch values; the overlay keeps them out of the bundle, so the
  // bundle stays reusable and byte-stable across requests.
  DxDriverOptions run = options;
  run.prechased = &bundle.prechased;
  return RunDxCommandOnOverlay(bundle.scenario, command, *bundle.universe,
                               run, governed);
}

}  // namespace snap
}  // namespace ocdx
