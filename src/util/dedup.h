// Open-addressed (hash, id) table: the one flat id table in ocdx.
//
// Two owners use it, each storing its payloads once, densely, by id:
//   - Relation / AnnotatedRelation (base/relation.h): the dedup set behind
//     Add, over rows in the relation's arena;
//   - StringInterner (util/interner.h): the string -> id map, over the
//     interner's string vector.
// The table is a power-of-two array of (hash, id) slots probed linearly;
// there is no per-entry heap node. Collisions on the 64-bit hash are
// resolved by the caller-supplied equality (which compares the actual
// payloads), so the table itself never needs to see them.

#ifndef OCDX_UTIL_DEDUP_H_
#define OCDX_UTIL_DEDUP_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ocdx {

/// A set of uint32 ids keyed by precomputed 64-bit hashes. Ids must be
/// dense (they index the owner's payload vector); `eq(id)` decides whether
/// a stored id's payload equals the probe.
class DedupIndex {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  /// The id of a stored payload with this hash for which `eq` holds, or
  /// kNone.
  template <typename Eq>
  uint32_t Find(size_t hash, Eq&& eq) const {
    if (slots_.empty()) return kNone;
    size_t mask = slots_.size() - 1;
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kNone) return kNone;
      if (s.hash == hash && eq(s.id)) return s.id;
    }
  }

  /// Records `id` under `hash`. The caller has already established (via
  /// Find) that no equal payload is present; duplicates of the *hash* are
  /// fine.
  void Insert(size_t hash, uint32_t id) {
    if ((used_ + 1) * 4 > slots_.size() * 3) Grow();
    InsertNoGrow(hash, id);
    ++used_;
  }

  size_t size() const { return used_; }

  /// Empties the table but keeps its capacity (scratch-reuse pattern).
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    used_ = 0;
  }

 private:
  struct Slot {
    size_t hash = 0;
    uint32_t id = kNone;
  };

  void InsertNoGrow(size_t hash, uint32_t id) {
    size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i].id != kNone) i = (i + 1) & mask;
    slots_[i] = Slot{hash, id};
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : old.size() * 2, Slot{});
    for (const Slot& s : old) {
      if (s.id != kNone) InsertNoGrow(s.hash, s.id);
    }
  }

  std::vector<Slot> slots_;
  size_t used_ = 0;
};

}  // namespace ocdx

#endif  // OCDX_UTIL_DEDUP_H_
