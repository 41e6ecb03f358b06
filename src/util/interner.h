// StringInterner: bidirectional string <-> dense-id map.
//
// Constants, relation names, variable names and Skolem function symbols are
// all interned so that the hot paths (tuple hashing, homomorphism search,
// valuation enumeration) compare 32-bit ids instead of strings.
//
// Storage: each string is stored once, in `strings_` (index = id). The
// string -> id direction is a DedupIndex (util/dedup.h), the flat
// (hash, id) table the relations use for their dedup sets: a probe hashes
// the view, walks the slots and compares candidates against
// `strings_[id]`, so there is no second copy of the string and no heap
// node per entry.

#ifndef OCDX_UTIL_INTERNER_H_
#define OCDX_UTIL_INTERNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "util/dedup.h"

namespace ocdx {

/// Interns strings into dense uint32 ids, starting from 0.
///
/// Ids are stable for the lifetime of the interner, never reused, and
/// handed out in first-sight order (the n-th distinct string gets id n).
///
/// Concurrency contract: unsynchronized, like every per-Universe
/// structure — an interner belongs to the one job that owns its Universe
/// (README.md "Concurrency model"); jobs running in parallel each own a
/// disjoint interner, so no locking is needed or wanted on this path.
class StringInterner {
 public:
  StringInterner() = default;

  /// Returns the id for `s`, interning it on first sight. Lookup is
  /// allocation-free; only a first sight copies the bytes of `s` (which
  /// may point into a temporary buffer).
  uint32_t Intern(std::string_view s) {
    size_t h = Hash(s);
    uint32_t id = Lookup(h, s);
    if (id != DedupIndex::kNone) return id;
    id = static_cast<uint32_t>(strings_.size());
    strings_.emplace_back(s);
    ids_.Insert(h, id);
    return id;
  }

  /// Returns the id for `s` if already interned, or UINT32_MAX otherwise.
  /// Allocation-free.
  uint32_t Find(std::string_view s) const { return Lookup(Hash(s), s); }

  bool Contains(std::string_view s) const { return Find(s) != UINT32_MAX; }

  /// The string for a previously interned id.
  const std::string& Get(uint32_t id) const { return strings_.at(id); }

  size_t size() const { return strings_.size(); }

 private:
  static_assert(DedupIndex::kNone == UINT32_MAX,
                "Find reports a miss as UINT32_MAX");

  static size_t Hash(std::string_view s) {
    return std::hash<std::string_view>{}(s);
  }

  uint32_t Lookup(size_t hash, std::string_view s) const {
    return ids_.Find(hash, [&](uint32_t id) { return strings_[id] == s; });
  }

  std::vector<std::string> strings_;
  DedupIndex ids_;
};

}  // namespace ocdx

#endif  // OCDX_UTIL_INTERNER_H_
