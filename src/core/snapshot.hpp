// Versioned, checksummed engine snapshots — persistence for the SA model.
//
// A snapshot captures the FULL dynamic state of an Engine mid-run so that a
// fresh process can resume bit-identically: run N steps, snapshot, restore,
// run M more ≡ run N + M straight — configurations, time, round stamps,
// listener streams, activation counts, scheduler phase, rng streams, and the
// signal field's routing status all carry across the boundary. That is the
// headline differential invariant tests/test_snapshot.cpp enforces across
// every algorithm × scheduler × thread count × field mode.
//
// Wire format (all integers little-endian; see util/binary_io.hpp):
//
//   offset  size  field
//   0       8     magic "SSAUSNAP"
//   8       4     format version (kSnapshotVersion; v1 is still readable)
//   12      4     endianness sentinel 0x01020304
//   16      8     payload length in bytes
//   24      len   payload (sections below)
//   24+len  4     CRC-32 over bytes [0, 24 + len)
//
// Payload sections, in order:
//   1. engine options     two retired u8s, thread_count u32,
//                         sparse_activation_threshold u64, signal_field u8,
//                         then (v3+) reorder u8. The retired bytes held the
//                         removed fast_path and compile switches: writers
//                         emit both as 1 (what every default engine wrote)
//                         and readers ignore them
//   2. automaton identity state_count u64, deterministic u8 (restore
//                         validates the caller's automaton against these)
//   3. graph              n u32, m u64, m edge pairs (u32 < u32, sorted) —
//                         walked from the CSR slots via neighbors(), so the
//                         serialized graph is normalized with all slack
//                         elided — then a 64-bit FNV-1a digest of the pair
//                         stream (restore() re-derives it from the caller's
//                         graph to reject a stale/mismatched topology),
//                         then (v3+) has_perm u8 and, when set, the n-entry
//                         user->internal relabelling (u32 each) of a
//                         cache-reordered graph. The edge pairs and digest
//                         are ALWAYS in layout (internal) ids — the ids the
//                         engine-state arrays below are indexed by; the
//                         permutation is what maps the user-id world
//                         (configuration section, public API) onto them
//   4. scheduler          name string, then the Scheduler::save_state blob
//                         length-framed (u64) so unknown schedulers can be
//                         skipped by inspectors
//   5. configuration      n u64 state ids
//   6. engine state       Engine::save_state: seed, time, rounds, round
//                         boundary, pending bitmap + count, activation
//                         counts (u64 each), rng + sched-rng states,
//                         signal-field presence/staleness/adaptive counters
//
// Version history:
//   v1  stored a per-node rng block (count u64, then 4 u64 words per stream)
//       between the sched-rng state and the signal-field flags. Readers
//       still accept v1: the block is validated for shape and skipped —
//       per-node streams are now DERIVED from (seed, node, activation
//       count), so a restored v1 randomized run continues deterministically
//       on the derived streams (v1 deterministic runs restore bit-exactly).
//   v2  drops the per-node rng block (engines no longer store one generator
//       per node). Everything else is unchanged.
//   v3  adds the reorder option byte (section 1) and the node relabelling of
//       a cache-reordered graph (section 3) so a reordered engine's
//       internal-order state arrays restore against the exact layout they
//       were written in. v1/v2 files read back with reorder = kOff and an
//       identity layout — which is exactly what their writers ran.
//       Writers always emit v3.
//
// Every reader is bounds-checked; truncation, bad magic, version skew,
// endianness mismatch, CRC mismatch, and structural inconsistencies all
// throw util::SnapshotError — corrupt input is never UB.
//
// Crash consistency: write_checkpoint writes to `path + ".tmp"`, fsync-free
// but atomically renamed over `path`, after rotating the previous checkpoint
// to `path + ".prev"`; read_checkpoint falls back to `.prev` when the
// primary is torn or missing, so a crash mid-write never loses more than one
// checkpoint interval.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph.hpp"

namespace ssau::core::snapshot {

inline constexpr std::uint32_t kSnapshotVersion = 3;
/// Oldest wire version readers still accept (see the version history above).
inline constexpr std::uint32_t kMinSnapshotVersion = 1;

/// Cheap header/metadata decode (validates magic, version, endianness, CRC,
/// and section framing; skips bulk arrays) — what `replay` and tooling print
/// before committing to a full restore.
struct Info {
  EngineOptions options;
  std::uint64_t state_count = 0;
  bool deterministic = true;
  NodeId num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::string scheduler;
  std::uint64_t seed = 0;
  Time time = 0;
  std::uint64_t rounds = 0;
};

/// Section 1, the engine options — one codec for both persistent formats:
/// the command-log header (core/command_log.hpp) carries the same bytes.
/// `has_reorder_byte` is false for snapshot v1/v2 and command-log v1, which
/// predate EngineOptions::reorder; those read back as ReorderMode::kOff,
/// what their writers ran. Malformed modes throw util::SnapshotError
/// prefixed with `context`.
void write_options(util::BinaryWriter& w, const EngineOptions& o);
[[nodiscard]] EngineOptions read_options(util::BinaryReader& r,
                                         bool has_reorder_byte,
                                         const std::string& context);

/// Serializes the engine's full state. Never touches Graph::edges() — the
/// CSR slots are walked directly (the lazy edges() cache is not safe under
/// concurrent readers; a debug tripwire enforces this).
[[nodiscard]] std::vector<std::uint8_t> save(const Engine& engine);

/// Full validation + metadata decode. Throws util::SnapshotError on any
/// malformed input.
[[nodiscard]] Info inspect(std::span<const std::uint8_t> bytes);

/// Rebuilds the serialized topology as a fresh normalized graph (the
/// restore substrate: construct this, then pass it to restore()).
[[nodiscard]] graph::Graph restore_graph(std::span<const std::uint8_t> bytes);

/// Reconstructs a running engine from a snapshot. The caller supplies the
/// live collaborators — graph (typically from restore_graph), automaton,
/// and scheduler — because the snapshot stores identity, not code: the
/// automaton is validated against the serialized state count/determinism,
/// the graph against the serialized edge digest, and the scheduler against
/// the serialized name before its save_state blob is loaded into it.
/// `options_override` substitutes execution-path knobs (thread count, field
/// mode) — legitimate because every path is bit-identical; omit it to
/// restore with the snapshotted options. One knob is never honored here:
/// EngineOptions::reorder is forced to kOff for the reconstructed engine,
/// because the node layout comes from the wire (the serialized graph — and
/// its relabelling, if any — IS the layout the state arrays are indexed by);
/// re-reordering at restore would shear them apart. Throws
/// util::SnapshotError on any mismatch or malformed input, including a
/// caller graph whose relabelling differs from the serialized one.
[[nodiscard]] std::unique_ptr<Engine> restore(
    std::span<const std::uint8_t> bytes, graph::Graph& g, const Automaton& alg,
    sched::Scheduler& sched,
    std::optional<EngineOptions> options_override = std::nullopt);

/// Atomic file write: serialize to `path + ".tmp"`, then rename over
/// `path`. Throws util::SnapshotError when the file cannot be written.
void write_file(std::span<const std::uint8_t> bytes, const std::string& path);

/// Reads and fully validates a snapshot file (header, framing, CRC).
/// Throws util::SnapshotError when missing, unreadable, or malformed.
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

/// Crash-consistent checkpoint write: rotates an existing `path` to
/// `path + ".prev"`, then write_file(save(engine), path). A crash at any
/// byte leaves either the previous checkpoint at `path`, or the new one at
/// `path` with the previous at `.prev` — never zero valid checkpoints once
/// one has been completed.
void write_checkpoint(const Engine& engine, const std::string& path);

/// Reads the newest valid checkpoint: `path` if it validates, else
/// `path + ".prev"`. Throws util::SnapshotError when neither does.
[[nodiscard]] std::vector<std::uint8_t> read_checkpoint(
    const std::string& path);

}  // namespace ssau::core::snapshot
