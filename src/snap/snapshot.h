// Persistent binary snapshots of chased `.dx` scenarios.
//
// A snapshot captures, in one relocatable binary file, everything a warm
// start needs: the scenario text, the Universe it was parsed into
// (constant table, justification arena, null registry) and the canonical
// solutions of every chaseable (mapping, instance) pair — so `ocdx
// snapshot run` and `ocdxd --preload` answer driver commands without
// re-parsing or re-chasing, with output byte-identical to a cold run.
//
// Relocatability: rows, witnesses and null justifications are stored as
// *logical arena offsets* (base/arena.h ArenaRef, base/value.h
// WitnessRef), which Relation::LoadRows and Universe::LoadWitnessValues
// reconstitute verbatim — loading is bounds validation plus bulk copies,
// with no pointer fixup and no per-row hashing (relations defer their
// dedup tables until first mutation).
//
// Trust model: snapshot bytes are DATA, never trusted. The container
// verifies magic/version/endianness and a per-section checksum
// (snap/format.h); the decoders bound-check every read, validate every
// Value bit pattern and every offset against the stored totals, and
// reconcile the re-parsed scenario against the stored universe. Any
// mismatch is a positioned kDataLoss error — a corrupted snapshot must
// never crash the loader (pinned by tests/snap_fuzz_test.cc under ASan).

#ifndef OCDX_SNAP_SNAPSHOT_H_
#define OCDX_SNAP_SNAPSHOT_H_

#include <memory>
#include <span>
#include <string>

#include "base/value.h"
#include "logic/engine_context.h"
#include "text/dx_driver.h"
#include "text/dx_scenario.h"
#include "util/status.h"

namespace ocdx {
namespace snap {

/// Everything a snapshot holds, live: the parsed scenario over its own
/// Universe plus the pre-chased canonical solutions. Movable; the
/// scenario's Values stay valid because the Universe lives behind a
/// stable pointer.
///
/// A bundle is a parsed base: every run mints through its own
/// copy-on-write overlay of the universe (RunSnapshotCommand), which
/// keeps the universe read-only for the run and unchanged after it —
/// the architecture ocdxd --preload serving is built on.
struct SnapshotBundle {
  std::string source_path;  ///< `.dx` path recorded at write time.
  std::string dx_text;      ///< Embedded scenario text.
  std::unique_ptr<Universe> universe;
  DxScenario scenario;  ///< Parsed from dx_text over *universe.
  /// One canonical solution per DxChasePairOk pair whose chase completed
  /// within budget at build time; governed pairs are absent, so the warm
  /// driver re-chases them and reproduces their diagnostics exactly.
  PrechasedStore prechased;
};

/// Parses `dx_text` and chases every applicable (mapping, instance) pair
/// under the scenario's budget block folded into `engine` — the same fold
/// RunDxCommand applies, so a stored solution is exactly what a cold run
/// would compute. Budget-governed chases are skipped; hard errors
/// (including parse errors) propagate.
Result<SnapshotBundle> BuildSnapshotBundle(
    std::string source_path, std::string dx_text,
    const EngineContext& engine = EngineContext());

/// Serializes the bundle to snapshot bytes (format v1, snap/format.h).
/// Probes fault site "snap-write" once per section.
Result<std::string> SerializeSnapshot(const SnapshotBundle& bundle);

/// Reconstitutes a bundle from snapshot bytes: container + checksum
/// validation, re-parse of the embedded text, reconciliation against the
/// stored universe, bulk row loads. Every failure is a positioned error
/// (kDataLoss for corruption). Probes fault site "snap-read" once per
/// section.
Result<SnapshotBundle> ParseSnapshot(std::span<const uint8_t> bytes);

/// Convenience file wrappers. WriteSnapshotFile reports write failures as
/// kNotFound ("cannot write '<path>'"); LoadSnapshotFile as kNotFound
/// ("cannot read '<path>'").
Status WriteSnapshotFile(const SnapshotBundle& bundle,
                         const std::string& path);
Result<SnapshotBundle> LoadSnapshotFile(const std::string& path);

/// Human-readable summary for `ocdx snapshot read`: scenario name,
/// universe totals, stored pairs with row/trigger counts. Deterministic.
std::string DescribeSnapshot(const SnapshotBundle& bundle);

/// Runs one driver command warm: runs on a copy-on-write overlay of the
/// bundle's universe (RunDxCommandOnOverlay; the bundle stays unchanged
/// and reusable), points the driver at the prechased store and otherwise
/// behaves exactly like RunDxCommand over a fresh parse — byte-identical
/// output, both engines, any shard width. Lend the run a
/// plan::SharedPlanTable owned alongside the bundle
/// (options.engine.shared_plans) to make repeated runs compile each query
/// once per bundle lifetime instead of once per run — the ocdxd --preload
/// serving path. Without one, each run gets its own table.
Result<std::string> RunSnapshotCommand(const SnapshotBundle& bundle,
                                       const std::string& command,
                                       const DxDriverOptions& options = {},
                                       Status* governed = nullptr);

}  // namespace snap
}  // namespace ocdx

#endif  // OCDX_SNAP_SNAPSHOT_H_
