// `.dx` text mutation fuzzing: every corpus file, and a mid-instance
// slice of bulk_import.dx, is mutated — single-bit flips, truncations,
// span deletions and span duplications — and every mutant must either
// parse or fail with a positioned error ("line L, col C"). Never a crash
// and never an out-of-bounds or use-after-free read: CI runs this binary
// under AddressSanitizer, because `.dx` tokens are views into the source
// text (text/dx_lexer.h) and a view that outlived its parse would be a
// lifetime bug.
//
// Each mutant is parsed from its own heap buffer, which is freed before
// the result is inspected; an OK result is then printed in full
// (PrintDxScenario) and the printed text parsed again, so any name,
// description or logic token still pointing into the freed text is read
// — and caught — under ASan.
//
// Failures are ParseError, or the mapping-validation codes the parser
// reports as "in mapping 'M' (line L, col C): ..." (InvalidArgument /
// NotFound, e.g. a rule body naming an undeclared relation).
//
// The mutation schedule is a fixed-seed mt19937 per test, so a failure
// reproduces; the file and mutation are named in the failure message.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc_cap.h"

#include "text/dx_parser.h"
#include "text/dx_printer.h"

namespace ocdx {
namespace {

namespace fs = std::filesystem;

// Mutants per (input, mutation kind).
constexpr int kMutantsPerKind = 100;

std::string ReadFileOrDie(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Input {
  std::string name;
  std::string text;
};

// bulk_import.dx keeps its header (scenario, schemas, mappings and the
// instance opening), ~200 facts from the middle of its instance block,
// and its tail (the closing brace and the queries): a small file whose
// mutations still land mostly inside facts.
std::string BulkSlice(const std::string& full) {
  std::vector<std::string> lines;
  std::istringstream in(full);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  size_t open = 0;
  while (open < lines.size() && lines[open].rfind("instance ", 0) != 0) {
    ++open;
  }
  size_t close = open;
  while (close < lines.size() && lines[close] != "}") ++close;
  EXPECT_LT(close, lines.size()) << "bulk_import.dx: no instance block";
  size_t mid = (open + close) / 2;
  std::string out;
  auto keep = [&](size_t from, size_t to) {
    for (size_t i = from; i < to && i < lines.size(); ++i) {
      out += lines[i];
      out += '\n';
    }
  };
  keep(0, open + 1);
  keep(mid, std::min(mid + 200, close));
  keep(close, lines.size());
  return out;
}

std::vector<Input> Inputs() {
  std::vector<Input> out;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(OCDX_CORPUS_DIR)) {
    if (entry.path().extension() == ".dx") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    std::string text = ReadFileOrDie(f);
    if (f.filename() == "bulk_import.dx") {
      out.push_back({"bulk_import.dx[slice]", BulkSlice(text)});
    } else {
      out.push_back({f.filename().string(), std::move(text)});
    }
  }
  return out;
}

// True iff `msg` contains "line L, col C" with L and C decimal numbers.
bool HasPosition(const std::string& msg) {
  auto digits_at = [&](size_t i) {
    size_t j = i;
    while (j < msg.size() && msg[j] >= '0' && msg[j] <= '9') ++j;
    return j - i;
  };
  for (size_t at = msg.find("line "); at != std::string::npos;
       at = msg.find("line ", at + 1)) {
    size_t i = at + 5;
    size_t n = digits_at(i);
    if (n == 0 || msg.compare(i + n, 6, ", col ") != 0) continue;
    if (digits_at(i + n + 6) > 0) return true;
  }
  return false;
}

// The parse contract under mutation (see the file comment).
void ExpectCleanOutcome(const std::string& mutant, const std::string& what) {
  Universe u;
  Result<DxScenario> parsed = [&] {
    auto buffer = std::make_unique<std::string>(mutant);
    return ParseDxScenario(*buffer, &u);
  }();
  if (parsed.ok()) {
    const std::string printed = PrintDxScenario(parsed.value(), u);
    Universe reparse_universe;
    Result<DxScenario> reparsed = ParseDxScenario(printed, &reparse_universe);
    EXPECT_TRUE(reparsed.ok()) << what << ": printed form does not parse: "
                               << reparsed.status().ToString();
    return;
  }
  const Status& status = parsed.status();
  EXPECT_TRUE(status.code() == StatusCode::kParseError ||
              status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kNotFound)
      << what << ": " << status.ToString();
  EXPECT_TRUE(HasPosition(status.message()))
      << what << ": unpositioned error: " << status.ToString();
}

class DxFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    inputs_ = Inputs();
    ASSERT_GE(inputs_.size(), 10u) << "corpus not found";
    // Every unmutated input parses: the mutants start from valid text.
    for (const Input& in : inputs_) {
      Universe u;
      Result<DxScenario> parsed = ParseDxScenario(in.text, &u);
      ASSERT_TRUE(parsed.ok()) << in.name << ": "
                               << parsed.status().ToString();
    }
  }

  // Applies `mutate(text, rng)` kMutantsPerKind times to every input.
  template <typename Mutate>
  void Sweep(uint32_t seed, const char* kind, Mutate mutate) {
    std::mt19937 rng(seed);
    for (const Input& in : inputs_) {
      for (int i = 0; i < kMutantsPerKind; ++i) {
        std::string mutant = in.text;
        std::string detail = mutate(&mutant, rng);
        ExpectCleanOutcome(mutant, in.name + ": " + kind + " " + detail);
      }
    }
  }

  std::vector<Input> inputs_;
};

size_t Pick(std::mt19937& rng, size_t n) {
  return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
}

// The binary runs under the allocation cap of alloc_cap.h: a request past
// it fails the same way on every host, whatever its overcommit policy.
TEST_F(DxFuzz, AllocationCapRefusesAnUnboundedReserve) {
  std::vector<uint64_t> v;
  EXPECT_THROW(v.reserve(testing_alloc::kAllocCapBytes / sizeof(uint64_t) + 1),
               std::bad_alloc);
  EXPECT_NO_THROW(v.reserve(1024));
  EXPECT_EQ(v.capacity(), 1024u);
}

TEST_F(DxFuzz, BitFlipsNeverCrash) {
  Sweep(0xD1F0u, "flip", [](std::string* s, std::mt19937& rng) {
    size_t at = Pick(rng, s->size());
    int bit = static_cast<int>(Pick(rng, 8));
    (*s)[at] =
        static_cast<char>(static_cast<uint8_t>((*s)[at]) ^ (1u << bit));
    return "byte " + std::to_string(at) + " bit " + std::to_string(bit);
  });
}

TEST_F(DxFuzz, TruncationsNeverCrash) {
  Sweep(0x7A11u, "truncate", [](std::string* s, std::mt19937& rng) {
    size_t keep = Pick(rng, s->size());
    s->resize(keep);
    return "to " + std::to_string(keep) + " bytes";
  });
}

TEST_F(DxFuzz, DeletionsNeverCrash) {
  Sweep(0xDE1Eu, "delete", [](std::string* s, std::mt19937& rng) {
    size_t at = Pick(rng, s->size());
    size_t len = std::min(1 + Pick(rng, 16), s->size() - at);
    s->erase(at, len);
    return std::to_string(len) + " bytes at " + std::to_string(at);
  });
}

TEST_F(DxFuzz, SpanDuplicationsNeverCrash) {
  Sweep(0xD0B1u, "duplicate", [](std::string* s, std::mt19937& rng) {
    size_t at = Pick(rng, s->size());
    size_t len = std::min(1 + Pick(rng, 64), s->size() - at);
    size_t to = Pick(rng, s->size() + 1);
    s->insert(to, s->substr(at, len));
    return std::to_string(len) + " bytes from " + std::to_string(at) +
           " to " + std::to_string(to);
  });
}

}  // namespace
}  // namespace ocdx
