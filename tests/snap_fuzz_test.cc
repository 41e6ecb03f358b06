// Snapshot corruption fuzzing: a valid snapshot is mutated — random
// single-bit flips, random truncations, exhaustive header-byte flips —
// and every mutant must either load successfully or fail with a
// positioned error. Never a crash, never an out-of-bounds read (CI runs
// this binary under AddressSanitizer), and every failure is kDataLoss or
// another established status code — never an unclassified kInternal.
//
// The mutation schedule is a fixed-seed mt19937, so a failure
// reproduces; the seed is printed on the first mutant that misbehaves.
//
// The fault-injection fixtures drive the OCDX_FAULT "snap-write" /
// "snap-read" probe sites (util/fault.h): a fault at any of the four
// section probes must surface as a clean governed error from
// SerializeSnapshot / ParseSnapshot, through the same propagation path a
// real I/O failure would take.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_cap.h"

#include "snap/format.h"
#include "snap/snapshot.h"
#include "util/fault.h"
#include "util/str.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::span<const uint8_t> AsBytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// A scenario with several mappings, annotations and queries, so the
// snapshot exercises every section encoder; built once per fixture.
std::string BaselineSnapshot() {
  const fs::path file = fs::path(OCDX_CORPUS_DIR) / "membership.dx";
  const std::string src = ReadFileOrDie(file);
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(file.string(), src);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  if (!bundle.ok()) return "";
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : "";
}

// The load contract under corruption: OK, or a non-OK status with a
// non-empty message. Anything else (and any crash, which ASan or the
// process harness catches) fails the test.
void ExpectCleanOutcome(const std::string& mutant, const char* what,
                        size_t detail) {
  Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(mutant));
  if (loaded.ok()) return;  // benign mutation (e.g. flipped a text byte
                            // AND its checksum never matched — impossible
                            // here, but OK loads are within contract)
  EXPECT_FALSE(loaded.status().message().empty())
      << what << " " << detail << ": error without a message";
}

// The binary runs under the allocation cap of alloc_cap.h: a request past
// it fails the same way on every host, whatever its overcommit policy.
TEST(SnapFuzz, AllocationCapRefusesAnUnboundedReserve) {
  std::vector<uint64_t> v;
  EXPECT_THROW(v.reserve(testing_alloc::kAllocCapBytes / sizeof(uint64_t) + 1),
               std::bad_alloc);
  EXPECT_NO_THROW(v.reserve(1024));
  EXPECT_EQ(v.capacity(), 1024u);
}

TEST(SnapFuzz, RandomBitFlipsNeverCrash) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  std::mt19937 rng(0xC0FFEEu);
  std::uniform_int_distribution<size_t> pick_byte(0, base.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  for (int i = 0; i < 400; ++i) {
    std::string mutant = base;
    const size_t at = pick_byte(rng);
    mutant[at] = static_cast<char>(
        static_cast<uint8_t>(mutant[at]) ^ (1u << pick_bit(rng)));
    SCOPED_TRACE("flip #" + std::to_string(i) + " at byte " +
                 std::to_string(at));
    ExpectCleanOutcome(mutant, "bit flip", at);
  }
}

TEST(SnapFuzz, MultiByteCorruptionNeverCrashes) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  std::mt19937 rng(0xBADC0DEu);
  std::uniform_int_distribution<size_t> pick_byte(0, base.size() - 1);
  std::uniform_int_distribution<int> pick_val(0, 255);
  for (int i = 0; i < 200; ++i) {
    std::string mutant = base;
    // Overwrite a random 1..16-byte window: corrupts length fields and
    // count fields wholesale, the loader's hardest inputs.
    std::uniform_int_distribution<size_t> pick_len(1, 16);
    size_t at = pick_byte(rng);
    size_t len = std::min(pick_len(rng), mutant.size() - at);
    for (size_t j = 0; j < len; ++j) {
      mutant[at + j] = static_cast<char>(pick_val(rng));
    }
    SCOPED_TRACE("stomp #" + std::to_string(i) + " at byte " +
                 std::to_string(at));
    ExpectCleanOutcome(mutant, "stomp", at);
  }
}

TEST(SnapFuzz, TruncationsNeverCrash) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  // Every truncation length across a stride plus the first 64 exact
  // lengths (header and section-header boundaries all live there).
  std::vector<size_t> lengths;
  for (size_t n = 0; n < std::min<size_t>(64, base.size()); ++n) {
    lengths.push_back(n);
  }
  for (size_t n = 64; n < base.size(); n += 37) lengths.push_back(n);
  for (size_t n : lengths) {
    std::string mutant = base.substr(0, n);
    SCOPED_TRACE("truncate to " + std::to_string(n));
    Result<snap::SnapshotBundle> loaded =
        snap::ParseSnapshot(AsBytes(mutant));
    EXPECT_FALSE(loaded.ok()) << "a strict prefix of " << base.size()
                              << " bytes loaded as a full snapshot";
    EXPECT_FALSE(loaded.status().message().empty());
  }
}

TEST(SnapFuzz, HeaderBytesExhaustive) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  // Magic + version + endian + section count + reserved + first section
  // header: all 48 leading bytes, all 8 bits.
  const size_t header_span = std::min<size_t>(48, base.size());
  for (size_t at = 0; at < header_span; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutant = base;
      mutant[at] =
          static_cast<char>(static_cast<uint8_t>(mutant[at]) ^ (1u << bit));
      SCOPED_TRACE("header byte " + std::to_string(at) + " bit " +
                   std::to_string(bit));
      ExpectCleanOutcome(mutant, "header flip", at);
    }
  }
}

// A zero-ary relation has one possible annotation vector (the empty
// one), so its annotation pool holds at most one entry. A stored pool
// size of 2^40 is corrupt and must be rejected as kDataLoss before it
// sizes an allocation.
TEST(SnapFuzz, ZeroAryAnnotationPoolIsBounded) {
  const std::string src =
      "schema s {\n  R();\n}\n"
      "instance I over s {\n  R();\n}\n";
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle("zero_ary.dx", src);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  std::string mutant = bytes.value();
  ASSERT_TRUE(snap::ParseSnapshot(AsBytes(mutant)).ok());

  Result<std::vector<snap::SectionView>> sections =
      snap::ParseContainer(AsBytes(mutant));
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections.value().size(), 4u);
  const snap::SectionView& instances = sections.value()[2];
  ASSERT_EQ(instances.id, static_cast<uint32_t>(snap::SectionId::kInstances));
  const size_t payload_at = static_cast<size_t>(
      instances.payload.data() -
      reinterpret_cast<const uint8_t*>(mutant.data()));
  const size_t payload_len = instances.payload.size();

  auto u64 = [](uint64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof v);
  };
  // R's name, then its relation header: arity 0, pool size 1.
  const std::string header = u64(1) + "R" + u64(0) + u64(1);
  const size_t at = mutant.find(header, payload_at);
  ASSERT_NE(at, std::string::npos);
  ASSERT_LE(at + header.size(), payload_at + payload_len);
  mutant.replace(at + header.size() - sizeof(uint64_t), sizeof(uint64_t),
                 u64(uint64_t{1} << 40));
  // Re-seal the section checksum, so the decoder sees the pool size.
  const uint64_t sum = snap::Checksum64(
      AsBytes(mutant).subspan(payload_at, payload_len));
  mutant.replace(payload_at - sizeof(uint64_t), sizeof(uint64_t), u64(sum));

  Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(mutant));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("annotation pool"),
            std::string::npos)
      << loaded.status().ToString();
}

// Every count a section decoder sizes an allocation or a read with is
// bounded by Source::Count: set to 2^64 - 1, or to one more record than
// the rest of the payload holds, each must fail as a positioned
// kDataLoss naming the count, before anything is allocated.
TEST(SnapFuzz, OversizedCountsAreRejected) {
  const std::string src =
      "schema s {\n  S(a);\n}\n"
      "schema t {\n  T(a, b);\n}\n"
      "mapping m from s to t {\n  T(x^cl, z^cl) :- S(x);\n}\n"
      "instance I over s {\n  S('x');\n}\n";
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle("counts.dx", src);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  const std::string base = bytes.value();
  ASSERT_TRUE(snap::ParseSnapshot(AsBytes(base)).ok());
  Result<std::vector<snap::SectionView>> sections =
      snap::ParseContainer(AsBytes(base));
  ASSERT_TRUE(sections.ok());
  ASSERT_EQ(sections.value().size(), 4u);

  // Walks a payload in the encoder's layout (snap/snapshot.cc), noting
  // the payload offset of each count.
  struct Walker {
    std::span<const uint8_t> p;
    size_t at = 0;
    uint64_t U64() {
      uint64_t v = 0;
      std::memcpy(&v, p.data() + at, sizeof v);
      at += sizeof v;
      return v;
    }
    void Str() { at += static_cast<size_t>(U64()); }
  };
  struct CountField {
    size_t section;        // Index into the container's sections.
    size_t offset;         // Payload offset of the u64 count.
    uint64_t record_bytes;
    std::string what;
  };
  std::vector<CountField> fields;
  auto relation = [&fields](Walker& w, size_t section) {
    const uint64_t arity = w.U64();
    fields.push_back({section, w.at, arity, "annotation pool of"});
    w.at += static_cast<size_t>(w.U64() * arity);
    fields.push_back({section, w.at, 2 * sizeof(uint32_t), "row count"});
    w.at += static_cast<size_t>(w.U64() * 2 * sizeof(uint32_t));
    fields.push_back({section, w.at, sizeof(uint64_t), "value count"});
    w.at += static_cast<size_t>(w.U64() * sizeof(uint64_t));
  };
  {
    Walker w{sections.value()[1].payload};  // universe
    for (uint64_t c = w.U64(); c > 0; --c) w.Str();
    fields.push_back({1, w.at, sizeof(uint64_t), "witness count"});
    w.at += static_cast<size_t>(w.U64() * sizeof(uint64_t));
    fields.push_back({1, w.at, 24, "null count"});
  }
  {
    Walker w{sections.value()[2].payload};  // instances: I over s, S
    ASSERT_EQ(w.U64(), 1u);
    w.Str();
    w.Str();
    w.at += 1;
    ASSERT_EQ(w.U64(), 1u);
    w.Str();
    relation(w, 2);
  }
  {
    Walker w{sections.value()[3].payload};  // chased: (m, I), T
    ASSERT_EQ(w.U64(), 1u);
    w.Str();
    w.Str();
    ASSERT_EQ(w.U64(), 1u);
    w.Str();
    relation(w, 3);
    fields.push_back({3, w.at, 28, "trigger count"});
  }
  ASSERT_EQ(fields.size(), 9u);

  auto u64 = [](uint64_t v) {
    return std::string(reinterpret_cast<const char*>(&v), sizeof v);
  };
  for (const CountField& f : fields) {
    const snap::SectionView& view = sections.value()[f.section];
    const size_t payload_at = static_cast<size_t>(
        view.payload.data() - reinterpret_cast<const uint8_t*>(base.data()));
    const size_t after = f.offset + sizeof(uint64_t);
    const uint64_t one_too_many =
        (view.payload.size() - after) / f.record_bytes + 1;
    for (uint64_t count : {UINT64_MAX, one_too_many}) {
      SCOPED_TRACE(StrCat(snap::SectionIdName(view.id), " ", f.what, " = ",
                          count));
      std::string mutant = base;
      mutant.replace(payload_at + f.offset, sizeof(uint64_t), u64(count));
      // Re-seal the section checksum, so the decoder sees the count.
      const uint64_t sum = snap::Checksum64(
          AsBytes(mutant).subspan(payload_at, view.payload.size()));
      mutant.replace(payload_at - sizeof(uint64_t), sizeof(uint64_t),
                     u64(sum));
      Result<snap::SnapshotBundle> loaded =
          snap::ParseSnapshot(AsBytes(mutant));
      ASSERT_FALSE(loaded.ok());
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
      EXPECT_EQ(loaded.status().message(),
                StrCat("snapshot: section '", snap::SectionIdName(view.id),
                       "' corrupt at byte ", after, ": ", f.what, " ", count,
                       " exceeds the section payload"));
    }
  }
}

class SnapFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::Clear(); }
};

TEST_F(SnapFaultTest, WriteProbesFailCleanly) {
  const fs::path file = fs::path(OCDX_CORPUS_DIR) / "membership.dx";
  const std::string src = ReadFileOrDie(file);
  Result<snap::SnapshotBundle> bundle =
      snap::BuildSnapshotBundle(file.string(), src);
  ASSERT_TRUE(bundle.ok());
  // One probe per section: hits 1..4 each abort serialization cleanly.
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    fault::InstallForTest("snap-write", nth);
    Result<std::string> bytes = snap::SerializeSnapshot(bundle.value());
    EXPECT_FALSE(bytes.ok()) << "snap-write fault at hit " << nth;
    EXPECT_EQ(bytes.status().code(), StatusCode::kResourceExhausted);
    fault::Clear();
  }
  // Past the last probe the fault never fires.
  fault::InstallForTest("snap-write", 5);
  Result<std::string> clean = snap::SerializeSnapshot(bundle.value());
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

TEST_F(SnapFaultTest, ReadProbesFailCleanly) {
  const std::string base = BaselineSnapshot();
  ASSERT_FALSE(base.empty());
  for (uint64_t nth = 1; nth <= 4; ++nth) {
    fault::InstallForTest("snap-read", nth);
    Result<snap::SnapshotBundle> loaded = snap::ParseSnapshot(AsBytes(base));
    EXPECT_FALSE(loaded.ok()) << "snap-read fault at hit " << nth;
    EXPECT_EQ(loaded.status().code(), StatusCode::kResourceExhausted);
    fault::Clear();
  }
  fault::InstallForTest("snap-read", 5);
  Result<snap::SnapshotBundle> clean = snap::ParseSnapshot(AsBytes(base));
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

}  // namespace
}  // namespace ocdx
