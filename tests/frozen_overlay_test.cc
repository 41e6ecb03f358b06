// Tests for the Universe sharing rule (base/value.h): a Universe is
// read-only exactly while it has live copy-on-write overlays
// (NewOverlay).
//
// The load-bearing property is *id equivalence*: a value minted through
// an overlay must be bit-identical to the value a fresh Universe mints
// after replaying the base's mints and then the overlay's — that is what
// lets batch jobs, shard fan-out and snapshot serving run on overlays of
// one parse without moving a single byte of canonical output. The
// randomized differential test drives an overlay and a fresh replay
// through the same interleaved mint/probe/enumerate schedule and
// compares every observable.
//
// CI runs this suite under ThreadSanitizer (the tsan preset's test
// filter names it), so the N-readers-one-base test is race-checked, not
// just argued; the ASan leg covers the differential test's arena
// bookkeeping.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/value.h"

namespace ocdx {
namespace {

// Populates `u` with a representative base payload: interned constants,
// justified nulls and shared witness tuples (the shapes the chase
// produces). Deterministic.
void PopulateBase(Universe* u, size_t consts, size_t nulls) {
  std::vector<Value> pool;
  for (size_t i = 0; i < consts; ++i) {
    pool.push_back(u->Const("base_c" + std::to_string(i)));
  }
  for (size_t i = 0; i < nulls; ++i) {
    // Every third null shares its witness with the previous one, like
    // the nulls of one chase trigger.
    NullInfo info;
    info.std_index = static_cast<int32_t>(i % 5);
    info.var = "x" + std::to_string(i % 3);
    if (!pool.empty()) {
      std::vector<Value> witness = {pool[i % pool.size()],
                                    pool[(i * 7 + 1) % pool.size()]};
      info.witness = u->InternWitness(witness);
    }
    u->MintNull(std::move(info));
  }
}

// Every observable of `a` and `b` must agree: totals, constant names,
// null justifications, witness payloads, and the printable forms.
void ExpectUniversesAgree(const Universe& a, const Universe& b) {
  ASSERT_EQ(a.num_consts(), b.num_consts());
  ASSERT_EQ(a.num_nulls(), b.num_nulls());
  ASSERT_EQ(a.witness_size(), b.witness_size());
  for (uint32_t id = 0; id < a.num_consts(); ++id) {
    EXPECT_EQ(a.ConstName(id), b.ConstName(id)) << "const id " << id;
  }
  for (uint32_t id = 0; id < a.num_nulls(); ++id) {
    Value n = Value::MakeNull(id);
    const NullInfo& na = a.null_info(n);
    const NullInfo& nb = b.null_info(n);
    EXPECT_EQ(na.std_index, nb.std_index) << "null id " << id;
    EXPECT_EQ(na.var, nb.var) << "null id " << id;
    EXPECT_EQ(na.witness, nb.witness) << "null id " << id;
    ASSERT_TRUE(std::equal(a.WitnessOf(na.witness).begin(),
                           a.WitnessOf(na.witness).end(),
                           b.WitnessOf(nb.witness).begin(),
                           b.WitnessOf(nb.witness).end()))
        << "witness payload of null id " << id;
    EXPECT_EQ(a.Describe(n), b.Describe(n)) << "null id " << id;
  }
  std::vector<Value> wa, wb;
  a.AppendWitnessValues(&wa);
  b.AppendWitnessValues(&wb);
  EXPECT_EQ(wa, wb) << "serialized justification arenas diverge";
}

// The differential pin: an overlay over a populated base, and a fresh
// universe that replays the base's mints, driven through one interleaved
// random schedule of mints (old constants, new constants, justified
// nulls, witnesses) and probes, must return bit-identical Values and
// witness offsets at every step and agree on every enumerable
// observable afterwards.
TEST(FrozenOverlay, RandomizedDifferentialAgainstFresh) {
  Universe base;
  PopulateBase(&base, 40, 25);
  Universe fresh;
  PopulateBase(&fresh, 40, 25);  // Replays the base's mints.
  ExpectUniversesAgree(base, fresh);

  std::unique_ptr<Universe> overlay = base.NewOverlay();
  ASSERT_TRUE(overlay->is_overlay());
  ASSERT_FALSE(fresh.is_overlay());
  ASSERT_TRUE(base.read_only());

  std::mt19937 rng(0xD0C5u);  // Fixed seed: the schedule is part of the test.
  std::uniform_int_distribution<int> op(0, 5);
  std::vector<Value> minted;  // Values both universes agreed on so far.
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    switch (op(rng)) {
      case 0: {  // Re-intern a base constant: must resolve, not re-mint.
        std::string name = "base_c" + std::to_string(rng() % 40);
        Value vf = fresh.Const(name);
        Value vo = overlay->Const(name);
        ASSERT_EQ(vf.raw(), vo.raw());
        break;
      }
      case 1: {  // Intern a new constant: ids must continue identically.
        std::string name = "fresh_c" + std::to_string(rng() % 60);
        Value vf = fresh.Const(name);
        Value vo = overlay->Const(name);
        ASSERT_EQ(vf.raw(), vo.raw());
        minted.push_back(vo);
        break;
      }
      case 2: {  // Mint a justified null over already-agreed values.
        NullInfo inf, ino;
        inf.std_index = ino.std_index = static_cast<int32_t>(rng() % 7);
        inf.var = ino.var = "v" + std::to_string(rng() % 4);
        if (!minted.empty()) {
          std::vector<Value> witness = {minted[rng() % minted.size()]};
          WitnessRef rf = fresh.InternWitness(witness);
          WitnessRef ro = overlay->InternWitness(witness);
          ASSERT_EQ(rf, ro);
          inf.witness = rf;
          ino.witness = ro;
        }
        Value vf = fresh.MintNull(std::move(inf));
        Value vo = overlay->MintNull(std::move(ino));
        ASSERT_EQ(vf.raw(), vo.raw());
        minted.push_back(vo);
        break;
      }
      case 3: {  // Probe: present and absent names agree.
        std::string name = (rng() % 2 == 0)
                               ? "base_c" + std::to_string(rng() % 80)
                               : "fresh_c" + std::to_string(rng() % 80);
        ASSERT_EQ(fresh.FindConst(name).raw(), overlay->FindConst(name).raw());
        break;
      }
      case 4: {  // Describe an agreed value (exercises name fallthrough).
        if (!minted.empty()) {
          Value v = minted[rng() % minted.size()];
          ASSERT_EQ(fresh.Describe(v), overlay->Describe(v));
        }
        break;
      }
      default: {  // Resolve a random base null's witness through both.
        Value n = Value::MakeNull(static_cast<uint32_t>(rng() % 25));
        const NullInfo& nf = fresh.null_info(n);
        const NullInfo& no = overlay->null_info(n);
        ASSERT_EQ(nf.witness, no.witness);
        auto sf = fresh.WitnessOf(nf.witness);
        auto so = overlay->WitnessOf(no.witness);
        ASSERT_TRUE(std::equal(sf.begin(), sf.end(), so.begin(), so.end()));
        break;
      }
    }
  }
  ExpectUniversesAgree(fresh, *overlay);
  EXPECT_GT(overlay->num_consts(), 40u);
  EXPECT_GT(overlay->num_nulls(), 25u);
  // The base never moved.
  EXPECT_EQ(base.num_consts(), 40u);
  EXPECT_EQ(base.num_nulls(), 25u);
}

// Overlays nest: a batch job runs on an overlay of its file's parse,
// and the job's shard fan-out overlays *that* overlay. Reads must fall
// through both levels, ids must keep continuing the combined space, and
// each level is read-only exactly while the level above it lives.
TEST(FrozenOverlay, NestedOverlaysFallThroughBothLevels) {
  Universe base;
  PopulateBase(&base, 5, 3);

  std::unique_ptr<Universe> mid = base.NewOverlay();
  Value mid_const = mid->Const("mid_c");
  Value mid_null = mid->FreshNull("mid_n");
  EXPECT_TRUE(base.read_only());
  EXPECT_FALSE(mid->read_only());

  std::unique_ptr<Universe> top = mid->NewOverlay();
  EXPECT_TRUE(mid->read_only());
  // Base and mid values resolve by name/id through the top overlay.
  EXPECT_EQ(top->FindConst("base_c0"), base.FindConst("base_c0"));
  EXPECT_EQ(top->FindConst("mid_c"), mid_const);
  EXPECT_EQ(top->Describe(mid_null), mid->Describe(mid_null));
  // New mints continue the combined id spaces.
  Value top_const = top->Const("top_c");
  EXPECT_EQ(top_const.id(), mid->num_consts());
  Value top_null = top->FreshNull();
  EXPECT_EQ(top_null.id(), mid->num_nulls());
  EXPECT_EQ(top->num_consts(), mid->num_consts() + 1);

  top.reset();
  EXPECT_FALSE(mid->read_only());
  EXPECT_TRUE(base.read_only());
  mid.reset();
  EXPECT_FALSE(base.read_only());
}

// The TSan pin: one base, N reader threads, each minting through its own
// private overlay while reading shared base state — the exact shape of
// the shard fan-out. The overlays are minted on the owner thread before
// the readers start. Any missing happens-before edge or hidden mutation
// in the read path is a reported race under the tsan preset.
TEST(FrozenOverlay, ManyThreadsReadOneFrozenBaseThroughOverlays) {
  Universe base;
  PopulateBase(&base, 30, 20);

  constexpr int kThreads = 8;
  std::vector<std::unique_ptr<Universe>> overlays;
  for (int i = 0; i < kThreads; ++i) overlays.push_back(base.NewOverlay());
  std::vector<std::string> describes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&base, &describes, overlay = overlays[i].get(), i] {
      std::string acc;
      for (int round = 0; round < 200; ++round) {
        // Shared reads: through the overlay, and of the base directly.
        Value c = overlay->FindConst("base_c" + std::to_string(round % 30));
        acc += overlay->Describe(c);
        acc += base.Describe(c);
        Value n = Value::MakeNull(static_cast<uint32_t>(round % 20));
        acc += overlay->Describe(n);
        const NullInfo& info = overlay->null_info(n);
        acc += std::to_string(overlay->WitnessOf(info.witness).size());
        // Private mints into the overlay (never touch the base).
        overlay->Const("t" + std::to_string(i) + "_" + std::to_string(round));
        overlay->FreshNull();
      }
      describes[i] = std::move(acc);
      // Private growth only: the base's totals never moved.
      EXPECT_EQ(overlay->num_consts(), base.num_consts() + 200);
      EXPECT_EQ(overlay->num_nulls(), base.num_nulls() + 200);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(describes[i], describes[0]) << "reader " << i << " diverged";
  }
  EXPECT_EQ(base.num_consts(), 30u);
  EXPECT_EQ(base.num_nulls(), 20u);
}

// The one sharing rule: a universe is read-only exactly while it has
// live overlays. Foreign threads may read it then; once the last overlay
// is gone it is mutable again, still owned by its first thread.
TEST(FrozenOverlay, BaseIsReadOnlyExactlyWhileOverlaysLive) {
  Universe u;
  PopulateBase(&u, 5, 2);
  EXPECT_FALSE(u.read_only());
  {
    std::unique_ptr<Universe> a = u.NewOverlay();
    EXPECT_TRUE(u.read_only());
    std::unique_ptr<Universe> b = u.NewOverlay();
    std::thread reader([&u, &a] {
      EXPECT_TRUE(u.FindConst("base_c1").IsValid());
      a->Const("from_reader");
    });
    reader.join();
    EXPECT_EQ(a->num_consts(), u.num_consts() + 1);
    b.reset();
    EXPECT_TRUE(u.read_only()) << "one overlay is still live";
  }
  EXPECT_FALSE(u.read_only());
  // The owner can mint again once the last overlay is gone.
  Value v = u.Const("after_overlays");
  EXPECT_EQ(v.id(), u.num_consts() - 1);
}

#ifndef NDEBUG

using FrozenOverlayDeathTest = testing::Test;

// Writing to a base while an overlay reads it asserts; the same write
// succeeds once the overlay is destroyed.
TEST(FrozenOverlayDeathTest, WriteToBaseWithLiveOverlayAsserts) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  Universe base;
  PopulateBase(&base, 3, 1);
  std::unique_ptr<Universe> overlay = base.NewOverlay();
  EXPECT_DEATH(base.Const("while_shared"), "live overlays");
  EXPECT_DEATH(base.FreshNull(), "live overlays");
  overlay.reset();
  EXPECT_TRUE(base.Const("after_release").IsValid());
  EXPECT_EQ(base.num_consts(), 4u);
}

#endif  // NDEBUG

}  // namespace
}  // namespace ocdx
