// Snapshot/persistence/replay subsystem tests.
//
// The headline invariant: run N steps, snapshot, restore into a fresh
// process-equivalent engine, run M more ≡ run N + M straight — checked over
// configurations, time, round stamps, listener streams, and activation
// counts, across AU + MIS + LE × all 8 schedulers × thread counts
// {1,2,4,8} × signal field on/off, including snapshots straddling topology
// churn. Corrupt input (every truncation boundary, every flipped byte,
// version skew, endianness) must always raise util::SnapshotError — never
// UB. Torn checkpoint writes fall back to the previous checkpoint, and a
// recorded command log replays a trajectory bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "core/command_log.hpp"
#include "core/engine.hpp"
#include "core/faults.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

using namespace ssau;
using core::snapshot::restore;
using core::snapshot::restore_graph;
using core::snapshot::save;
using util::SnapshotError;

namespace {

// --- shared helpers ----------------------------------------------------------

/// One observed transition, as a listener sees it.
struct StreamEvent {
  core::NodeId v;
  core::StateId from;
  core::StateId to;
  core::Time t;
  std::vector<core::StateId> sig;

  bool operator==(const StreamEvent&) const = default;
};

core::Engine::TransitionListener capture_into(std::vector<StreamEvent>& out) {
  return [&out](core::NodeId v, core::StateId from, core::StateId to,
                const core::Signal& sig, core::Time t) {
    out.push_back({v, from, to, t,
                   std::vector<core::StateId>(sig.states().begin(),
                                              sig.states().end())});
  };
}

/// Asserts full observable equality of two engines (the restore contract).
void expect_engines_equal(const core::Engine& a, const core::Engine& b) {
  EXPECT_EQ(a.config(), b.config());
  EXPECT_EQ(a.time(), b.time());
  EXPECT_EQ(a.rounds_completed(), b.rounds_completed());
  EXPECT_EQ(a.round_index_now(), b.round_index_now());
  for (core::NodeId v = 0; v < a.graph().num_nodes(); ++v) {
    EXPECT_EQ(a.activation_count(v), b.activation_count(v)) << "node " << v;
  }
  EXPECT_EQ(core::engine_state_hash(a), core::engine_state_hash(b));
}

/// Flips one byte, recomputes the trailing CRC so only the semantic field
/// is corrupt — for targeted header tests (version, endianness).
void refresh_crc(std::vector<std::uint8_t>& bytes) {
  const auto body =
      std::span<const std::uint8_t>(bytes).first(bytes.size() - 4);
  const std::uint32_t crc = util::crc32(body);
  for (int i = 0; i < 4; ++i) {
    bytes[bytes.size() - 4 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

/// A small deterministic engine + snapshot used by the corruption suites.
struct TinyRun {
  graph::Graph g = graph::ring_of_cliques(3, 4);
  unison::AlgAu alg{2};
  std::unique_ptr<sched::Scheduler> sched =
      sched::make_scheduler("permutation", g);
  std::unique_ptr<core::Engine> engine;
  std::vector<std::uint8_t> bytes;

  TinyRun() {
    util::Rng rng(5);
    engine = std::make_unique<core::Engine>(
        g, alg, *sched, core::random_configuration(alg, g.num_nodes(), rng),
        99);
    for (int i = 0; i < 100; ++i) engine->step();
    bytes = save(*engine);
  }
};

/// TinyRun's engine over a BFS-reordered layout: the fixture run behind
/// golden_engine_v3_reordered.snap.
struct ReorderedRun {
  graph::Graph g = graph::ring_of_cliques(3, 4);
  unison::AlgAu alg{2};
  std::unique_ptr<sched::Scheduler> sched =
      sched::make_scheduler("permutation", g);
  std::unique_ptr<core::Engine> engine;

  ReorderedRun() {
    util::Rng rng(5);
    engine = std::make_unique<core::Engine>(
        g, alg, *sched, core::random_configuration(alg, g.num_nodes(), rng),
        99, core::EngineOptions{.reorder = core::ReorderMode::kBfs});
    for (int i = 0; i < 100; ++i) engine->step();
  }
};

std::string golden_path(const char* name) {
  return std::string(SSAU_TEST_DATA_DIR) + "/" + name;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

// --- binary_io ---------------------------------------------------------------

TEST(BinaryIo, RoundTrip) {
  util::BinaryWriter w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.25);
  w.str("snapshot");
  const std::uint8_t raw[3] = {1, 2, 3};
  w.bytes(raw);
  const std::size_t off = w.tell();
  w.u64(0);
  w.patch_u64(off, 42);

  util::BinaryReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFU);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "snapshot");
  const auto got = r.bytes(3);
  EXPECT_EQ(got[0], 1);
  EXPECT_EQ(got[2], 3);
  EXPECT_EQ(r.u64(), 42u);
  EXPECT_TRUE(r.done());
}

TEST(BinaryIo, LittleEndianOnTheWire) {
  util::BinaryWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.buffer().size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[3], 0x01);
}

TEST(BinaryIo, TruncationThrows) {
  util::BinaryWriter w;
  w.u32(7);
  util::BinaryReader r(w.buffer());
  EXPECT_THROW(r.u64(), SnapshotError);
  EXPECT_EQ(r.u32(), 7u);  // failed read consumed nothing
  EXPECT_THROW(r.u8(), SnapshotError);
}

TEST(BinaryIo, CorruptStringLengthRejectedBeforeAllocation) {
  util::BinaryWriter w;
  w.u64(std::uint64_t{1} << 60);  // absurd length, 0 payload bytes
  util::BinaryReader r(w.buffer());
  EXPECT_THROW(r.str(), SnapshotError);
}

TEST(BinaryIo, Crc32KnownVector) {
  const std::string check = "123456789";
  EXPECT_EQ(util::crc32(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size())),
            0xCBF43926U);
}

// --- the headline restore differential --------------------------------------

class SnapshotDifferential : public ::testing::Test {};

TEST(SnapshotDifferential, Matrix) {
  util::Rng graph_rng(17);
  graph::Graph g = graph::random_connected(48, 0.15, graph_rng);
  const int diam = static_cast<int>(graph::diameter(g));

  const unison::AlgAu au(diam);
  const mis::AlgMis mis({.diameter_bound = diam});
  const le::AlgLe le({.diameter_bound = diam});
  const std::vector<std::pair<std::string, const core::Automaton*>> algs = {
      {"alg-au", &au}, {"alg-mis", &mis}, {"alg-le", &le}};

  std::vector<std::string> schedulers = sched::async_scheduler_names();
  schedulers.push_back("synchronous");
  ASSERT_EQ(schedulers.size(), 8u);

  constexpr core::Time kStepsBefore = 205;  // mid permutation/wave cycle
  constexpr core::Time kStepsAfter = 200;

  for (const auto& [alg_name, alg] : algs) {
    for (const std::string& sched_name : schedulers) {
      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        for (const auto field : {core::SignalFieldMode::kOn,
                                 core::SignalFieldMode::kOff}) {
          SCOPED_TRACE(alg_name + " × " + sched_name + " × t" +
                       std::to_string(threads) + " × field " +
                       (field == core::SignalFieldMode::kOn ? "on" : "off"));
          core::EngineOptions opts;
          opts.thread_count = threads;
          opts.signal_field = field;
          // Let 48-node activation sets reach the sparse sharded kernel.
          opts.sparse_activation_threshold = 8;

          util::Rng rng(1234);
          const auto initial =
              core::random_configuration(*alg, g.num_nodes(), rng);
          auto sched = sched::make_scheduler(sched_name, g);
          core::Engine original(g, *alg, *sched, initial, 777, opts);
          for (core::Time t = 0; t < kStepsBefore; ++t) original.step();

          const auto bytes = save(original);
          graph::Graph restored_graph = restore_graph(bytes);
          auto restored_sched =
              sched::make_scheduler(sched_name, restored_graph);
          auto restored =
              restore(bytes, restored_graph, *alg, *restored_sched);

          expect_engines_equal(original, *restored);

          // The restored engine's future must be bit-identical to the
          // original's — including the listener stream.
          std::vector<StreamEvent> original_stream;
          std::vector<StreamEvent> restored_stream;
          original.set_transition_listener(capture_into(original_stream));
          restored->set_transition_listener(capture_into(restored_stream));
          for (core::Time t = 0; t < kStepsAfter; ++t) {
            original.step();
            restored->step();
          }
          EXPECT_EQ(original_stream, restored_stream);
          expect_engines_equal(original, *restored);
        }
      }
    }
  }
}

TEST(SnapshotDifferential, ChurnStraddle) {
  // Snapshot BETWEEN apply_topology_delta calls: churn before the snapshot
  // (so the serialized graph is the churned one, slack elided) and churn
  // again after the restore (so the restored engine's own churn path runs).
  for (const std::string& sched_name :
       {std::string("uniform-single"), std::string("wave"),
        std::string("permutation")}) {
    SCOPED_TRACE(sched_name);
    util::Rng graph_rng(29);
    graph::Graph g = graph::random_connected(40, 0.12, graph_rng);
    const unison::AlgAu alg(static_cast<int>(graph::diameter(g)) + 4);

    util::Rng rng(3);
    auto sched = sched::make_scheduler(sched_name, g);
    core::Engine original(g, alg, *sched,
                          core::random_configuration(alg, g.num_nodes(), rng),
                          555);
    for (int t = 0; t < 100; ++t) original.step();

    // Deterministic churn rule, computable identically on both graphs.
    const auto make_delta = [](const graph::Graph& graph) {
      graph::TopologyDelta d;
      const auto edges = graph.edges();
      d.remove.push_back(edges[0]);
      d.remove.push_back(edges[edges.size() / 2]);
      for (graph::NodeId u = 0; u < graph.num_nodes() && d.add.size() < 2; ++u) {
        for (graph::NodeId v = u + 2; v < graph.num_nodes() && d.add.size() < 2;
             ++v) {
          if (!graph.has_edge(u, v)) d.add.push_back({u, v});
        }
      }
      return d;
    };
    original.apply_topology_delta(make_delta(original.graph()));
    for (int t = 0; t < 105; ++t) original.step();

    const auto bytes = save(original);
    graph::Graph restored_graph = restore_graph(bytes);
    auto restored_sched = sched::make_scheduler(sched_name, restored_graph);
    auto restored = restore(bytes, restored_graph, alg, *restored_sched);
    expect_engines_equal(original, *restored);

    // Both sides keep churning and running — identically.
    for (int round = 0; round < 3; ++round) {
      const auto d1 = make_delta(original.graph());
      const auto d2 = make_delta(restored->graph());
      ASSERT_EQ(d1.remove, d2.remove);
      ASSERT_EQ(d1.add, d2.add);
      original.apply_topology_delta(d1);
      restored->apply_topology_delta(d2);
      for (int t = 0; t < 80; ++t) {
        original.step();
        restored->step();
      }
      expect_engines_equal(original, *restored);
    }
    EXPECT_EQ(original.graph().num_edges(), restored->graph().num_edges());
    EXPECT_EQ(original.graph().max_degree(), restored->graph().max_degree());
  }
}

TEST(SnapshotDifferential, StaleFieldSurvivesSnapshot) {
  // inject_configuration invalidates a live field; the snapshot must carry
  // the stale marker so the restored engine rebuilds lazily exactly like
  // the original (and a full-activation engine stays stale forever).
  for (const std::string& sched_name :
       {std::string("uniform-single"), std::string("synchronous")}) {
    SCOPED_TRACE(sched_name);
    util::Rng graph_rng(31);
    graph::Graph g = graph::random_connected(32, 0.2, graph_rng);
    const unison::AlgAu alg(static_cast<int>(graph::diameter(g)));
    core::EngineOptions opts;
    opts.signal_field = core::SignalFieldMode::kOn;

    util::Rng rng(9);
    auto sched = sched::make_scheduler(sched_name, g);
    core::Engine original(g, alg, *sched,
                          core::random_configuration(alg, g.num_nodes(), rng),
                          222, opts);
    for (int t = 0; t < 50; ++t) original.step();
    original.inject_configuration(
        core::random_configuration(alg, g.num_nodes(), rng));
    ASSERT_TRUE(original.signal_field_active());
    ASSERT_TRUE(original.signal_field_stale());

    const auto bytes = save(original);
    graph::Graph restored_graph = restore_graph(bytes);
    auto restored_sched = sched::make_scheduler(sched_name, restored_graph);
    auto restored = restore(bytes, restored_graph, alg, *restored_sched);
    EXPECT_TRUE(restored->signal_field_active());
    EXPECT_TRUE(restored->signal_field_stale());
    expect_engines_equal(original, *restored);

    for (int t = 0; t < 120; ++t) {
      original.step();
      restored->step();
    }
    EXPECT_EQ(original.signal_field_stale(), restored->signal_field_stale());
    expect_engines_equal(original, *restored);
  }
}

TEST(SnapshotDifferential, AdaptiveFieldBailMatchesAcrossRestore) {
  // A kAuto mask-kernel field self-disables once patches outweigh senses;
  // rotating-single on a clique drives AlgAu's clocks on nearly every
  // activation, so it bails at the first window boundary. Snapshots taken
  // mid-window, on the last step before the bail and on the step after must
  // all restore into engines that bail (or have bailed) exactly like the
  // original: the window counters ride the snapshot, and a restore after
  // the bail drops the field its own construction routing re-created.
  const graph::Graph g = graph::complete(40);  // avg degree 39 >= 32 floor
  const unison::AlgAu alg(1);
  core::EngineOptions opts;  // kAuto default

  util::Rng rng(13);
  auto sched = sched::make_scheduler("rotating-single", g);
  core::Engine original(g, alg, *sched,
                        core::random_configuration(alg, g.num_nodes(), rng),
                        333, opts);
  ASSERT_TRUE(original.signal_field_active());

  // Single-node steps sense one node each: the window check at the start of
  // step `window` + 1 is the first that can bail.
  const auto window = static_cast<int>(core::kSignalFieldAdaptiveWindow);
  std::vector<std::vector<std::uint8_t>> snaps;
  for (int t = 0; t < 3000; ++t) original.step();
  snaps.push_back(save(original));  // mid-window
  for (int t = 3000; t < window; ++t) original.step();
  ASSERT_TRUE(original.signal_field_active());
  snaps.push_back(save(original));  // the last step before the bail
  original.step();
  ASSERT_FALSE(original.signal_field_active());
  snaps.push_back(save(original));  // the step after
  for (int t = 0; t < 500; ++t) original.step();

  for (std::size_t i = 0; i < snaps.size(); ++i) {
    SCOPED_TRACE(i);
    graph::Graph g2 = restore_graph(snaps[i]);
    auto sched2 = sched::make_scheduler("rotating-single", g2);
    auto restored = restore(snaps[i], g2, alg, *sched2);
    EXPECT_EQ(restored->signal_field_active(), i < 2);
    while (restored->time() < original.time()) restored->step();
    EXPECT_FALSE(restored->signal_field_active());
    expect_engines_equal(original, *restored);
  }
}

// --- corrupt input: always SnapshotError, never UB ---------------------------

TEST(SnapshotErrors, TruncationAtEveryByteBoundary) {
  TinyRun run;
  for (std::size_t len = 0; len < run.bytes.size(); ++len) {
    const std::vector<std::uint8_t> truncated(run.bytes.begin(),
                                              run.bytes.begin() +
                                                  static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(core::snapshot::inspect(truncated), SnapshotError)
        << "prefix length " << len;
    graph::Graph g2 = graph::ring_of_cliques(3, 4);
    auto sched2 = sched::make_scheduler("permutation", g2);
    EXPECT_THROW(restore(truncated, g2, run.alg, *sched2), SnapshotError)
        << "prefix length " << len;
  }
}

TEST(SnapshotErrors, FlippedByteAnywhereIsDetected) {
  TinyRun run;
  for (std::size_t i = 0; i < run.bytes.size(); ++i) {
    auto corrupt = run.bytes;
    corrupt[i] ^= 0x5A;
    EXPECT_THROW(core::snapshot::inspect(corrupt), SnapshotError)
        << "byte " << i;
  }
}

TEST(SnapshotErrors, VersionSkew) {
  TinyRun run;
  auto bytes = run.bytes;
  bytes[8] = static_cast<std::uint8_t>(core::snapshot::kSnapshotVersion + 1);
  refresh_crc(bytes);
  try {
    (void)core::snapshot::inspect(bytes);
    FAIL() << "version skew not detected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST(SnapshotErrors, EndiannessGuard) {
  TinyRun run;
  auto bytes = run.bytes;
  // A big-endian writer would store the sentinel bytes reversed.
  bytes[12] = 0x01;
  bytes[13] = 0x02;
  bytes[14] = 0x03;
  bytes[15] = 0x04;
  refresh_crc(bytes);
  try {
    (void)core::snapshot::inspect(bytes);
    FAIL() << "endianness mismatch not detected";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("endianness"), std::string::npos);
  }
}

TEST(SnapshotErrors, MismatchedCollaboratorsRejected) {
  TinyRun run;

  // Wrong automaton (|Q| differs).
  {
    const unison::AlgAu other(4);
    graph::Graph g2 = restore_graph(run.bytes);
    auto sched2 = sched::make_scheduler("permutation", g2);
    EXPECT_THROW(restore(run.bytes, g2, other, *sched2), SnapshotError);
  }
  // Wrong scheduler name.
  {
    graph::Graph g2 = restore_graph(run.bytes);
    auto sched2 = sched::make_scheduler("uniform-single", g2);
    EXPECT_THROW(restore(run.bytes, g2, run.alg, *sched2), SnapshotError);
  }
  // Wrong graph (same node count, different edges).
  {
    graph::Graph g2 = graph::complete(12);
    auto sched2 = sched::make_scheduler("permutation", g2);
    EXPECT_THROW(restore(run.bytes, g2, run.alg, *sched2), SnapshotError);
  }
}

// --- crash-consistent checkpointing ------------------------------------------

TEST(Checkpoint, TornWriteFallsBackToPrevious) {
  TinyRun run;
  const std::string path = "test_snapshot_torn.snap";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  // Two checkpoints: the second rotates the first to .prev.
  core::snapshot::write_checkpoint(*run.engine, path);
  run.engine->step();
  core::snapshot::write_checkpoint(*run.engine, path);
  ASSERT_TRUE(std::filesystem::exists(path + ".prev"));
  const auto full = core::snapshot::read_file(path);
  const auto prev = core::snapshot::read_file(path + ".prev");

  // Tear the primary at every byte boundary: read_checkpoint must always
  // come back with the intact previous checkpoint.
  for (std::size_t len = 0; len < full.size(); len += 7) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char*>(full.data()),
             static_cast<std::streamsize>(len));
    os.close();
    const auto recovered = core::snapshot::read_checkpoint(path);
    EXPECT_EQ(recovered, prev) << "torn at " << len;
  }

  // Corrupt BOTH: no valid checkpoint left — a clean typed error.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write("garbage", 7);
    os.close();
    std::ofstream osp(path + ".prev", std::ios::binary | std::ios::trunc);
    osp.write("garbage", 7);
    osp.close();
    EXPECT_THROW(core::snapshot::read_checkpoint(path), SnapshotError);
  }
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

TEST(Checkpoint, FaultCampaignWritesAndResumes) {
  const std::string path = "test_snapshot_campaign.snap";
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");

  util::Rng graph_rng(41);
  graph::Graph g = graph::random_connected(24, 0.2, graph_rng);
  const unison::AlgAu alg(static_cast<int>(graph::diameter(g)));
  auto sched = sched::make_scheduler("uniform-single", g);
  util::Rng rng(6);
  core::Engine engine(g, alg, *sched,
                      core::random_configuration(alg, g.num_nodes(), rng),
                      888);

  core::FaultCampaignOptions opts;
  opts.bursts = 4;
  opts.nodes_per_burst = 3;
  opts.settle_rounds = 4;
  opts.checkpoint_every = 2;
  opts.checkpoint_path = path;
  const auto res = core::run_fault_campaign(
      engine,
      [&](const core::Configuration& c) {
        return unison::graph_good(alg.turns(), engine.graph(), c);
      },
      opts, rng);
  // Baseline + after bursts 2 and 4.
  EXPECT_EQ(res.checkpoints_written, 3u);
  ASSERT_TRUE(std::filesystem::exists(path));

  const auto bytes = core::snapshot::read_checkpoint(path);
  graph::Graph g2 = restore_graph(bytes);
  auto sched2 = sched::make_scheduler("uniform-single", g2);
  auto resumed = restore(bytes, g2, alg, *sched2);
  expect_engines_equal(engine, *resumed);  // final checkpoint == final state
  for (int t = 0; t < 200; ++t) {
    engine.step();
    resumed->step();
  }
  expect_engines_equal(engine, *resumed);

  // checkpoint_every without a path is a usage error, caught up front.
  core::FaultCampaignOptions bad;
  bad.checkpoint_every = 1;
  EXPECT_THROW(core::run_fault_campaign(
                   engine, [](const core::Configuration&) { return true; },
                   bad, rng),
               std::invalid_argument);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".prev");
}

// --- golden fixtures: old wire versions stay loadable ------------------------

/// The fixture-vs-live differential both golden tests share: the fixture is
/// a snapshot of the TinyRun engine (ring_of_cliques(3,4), AlgAu(2),
/// permutation daemon, seed 99, 100 steps); it must restore AND continue
/// exactly like a straight run of the same deterministic engine — across
/// compilers, library versions, and wire-format revisions.
void expect_golden_loads(const std::string& path) {
  TinyRun run;
  const auto bytes = core::snapshot::read_file(path);
  const auto info = core::snapshot::inspect(bytes);
  EXPECT_EQ(info.num_nodes, 12u);
  EXPECT_EQ(info.scheduler, "permutation");
  EXPECT_EQ(info.seed, 99u);
  EXPECT_EQ(info.time, 100u);

  graph::Graph g2 = restore_graph(bytes);
  auto sched2 = sched::make_scheduler("permutation", g2);
  auto restored = restore(bytes, g2, run.alg, *sched2);
  expect_engines_equal(*run.engine, *restored);
  for (int t = 0; t < 50; ++t) {
    run.engine->step();
    restored->step();
  }
  expect_engines_equal(*run.engine, *restored);
}

TEST(Golden, V1FixtureStillLoads) {
  // FROZEN: a v1-era writer produced this file (per-node rng block present);
  // no current writer can regenerate it, so it is read-only forever. The v1
  // reader path (validate + skip the rng block) keeps it loading.
  expect_golden_loads(std::string(SSAU_TEST_DATA_DIR) +
                      "/golden_engine_v1.snap");
}

TEST(Golden, V2FixtureStillLoads) {
  // FROZEN: a v2-era writer produced this file (no reorder options byte, no
  // graph relabelling block); no current writer can regenerate it. The
  // versioned readers default those fields (reorder = kOff, identity
  // layout), which is exactly what a v2 engine was.
  expect_golden_loads(std::string(SSAU_TEST_DATA_DIR) +
                      "/golden_engine_v2.snap");
}

TEST(Golden, V3FixtureLoads) {
  // The current-format fixture. Regenerate ONLY on a deliberate format break
  // (with a version bump and a new frozen fixture for the old version) via
  //   SSAU_REGEN_GOLDEN=1 ./test_snapshot --gtest_filter=Golden.*
  const std::string path = golden_path("golden_engine_v3.snap");
  if (std::getenv("SSAU_REGEN_GOLDEN") != nullptr) {
    TinyRun run;
    core::snapshot::write_file(run.bytes, path);
    GTEST_SKIP() << "regenerated " << path;
  }
  expect_golden_loads(path);
}

TEST(Golden, V3ReorderedFixtureLoads) {
  // v3's new wire content — a graph relabelling — exercised end to end: the
  // fixture engine ran over a BFS-reordered layout, so the file carries the
  // permutation and the restored graph must come back reordered(). Same
  // regeneration protocol as the main v3 fixture.
  const std::string path = golden_path("golden_engine_v3_reordered.snap");
  if (std::getenv("SSAU_REGEN_GOLDEN") != nullptr) {
    ReorderedRun live;
    core::snapshot::write_file(save(*live.engine), path);
    GTEST_SKIP() << "regenerated " << path;
  }
  ReorderedRun live;
  ASSERT_TRUE(live.g.reordered());
  const auto bytes = core::snapshot::read_file(path);
  graph::Graph g2 = restore_graph(bytes);
  ASSERT_TRUE(g2.reordered());
  EXPECT_TRUE(std::equal(live.g.permutation().begin(),
                         live.g.permutation().end(),
                         g2.permutation().begin(), g2.permutation().end()));
  auto sched2 = sched::make_scheduler("permutation", g2);
  auto restored = restore(bytes, g2, live.alg, *sched2);
  expect_engines_equal(*live.engine, *restored);
  for (int t = 0; t < 50; ++t) {
    live.engine->step();
    restored->step();
  }
  expect_engines_equal(*live.engine, *restored);
}

TEST(Golden, V3WritersReproduceTheFixturesByteForByte) {
  // The write side of the format: today's save() of each fixture run must
  // emit exactly the committed bytes.
  const TinyRun tiny;
  EXPECT_EQ(tiny.bytes, file_bytes(golden_path("golden_engine_v3.snap")));
  const ReorderedRun reordered;
  EXPECT_EQ(save(*reordered.engine),
            file_bytes(golden_path("golden_engine_v3_reordered.snap")));
}

TEST(Golden, RetiredFastPathByteIsIgnored) {
  // Section 1 opens with two retired bytes (the removed fast_path and
  // compile switches). An engine that ran the interpreted path wrote
  // fast_path = 0; such a file must restore into today's engine and step
  // exactly like the fixture run.
  auto bytes = file_bytes(golden_path("golden_engine_v3.snap"));
  constexpr std::size_t kFastPathOffset = 24;  // first payload byte
  ASSERT_EQ(bytes.at(kFastPathOffset), 1u);
  bytes[kFastPathOffset] = 0;
  refresh_crc(bytes);
  TinyRun run;
  graph::Graph g2 = restore_graph(bytes);
  auto sched2 = sched::make_scheduler("permutation", g2);
  auto restored = restore(bytes, g2, run.alg, *sched2);
  expect_engines_equal(*run.engine, *restored);
  for (int t = 0; t < 50; ++t) {
    run.engine->step();
    restored->step();
  }
  expect_engines_equal(*run.engine, *restored);
}

// --- scheduler state blobs ---------------------------------------------------

TEST(SchedulerState, PermutationMidCycleRoundTrip) {
  const graph::Graph g = graph::complete(16);
  sched::PermutationScheduler a(16);
  util::Rng rng(77);
  std::vector<core::NodeId> out;
  for (core::Time t = 0; t < 20; ++t) a.activations(t, out, rng);  // mid-cycle

  util::BinaryWriter w;
  a.save_state(w);
  sched::PermutationScheduler b(16);
  util::BinaryReader r(w.buffer());
  b.load_state(r);
  EXPECT_TRUE(r.done());

  // Identical remaining schedule (same rng stream fed to both from here).
  util::Rng rng_a = rng;
  util::Rng rng_b = rng;
  std::vector<core::NodeId> out_b;
  for (core::Time t = 20; t < 40; ++t) {
    a.activations(t, out, rng_a);
    b.activations(t, out_b, rng_b);
    EXPECT_EQ(out, out_b) << "t=" << t;
  }
}

TEST(SchedulerState, PermutationRejectsCorruptBlobs) {
  sched::PermutationScheduler s(8);
  {
    util::BinaryWriter w;
    w.u32(9);  // wrong n
    for (core::NodeId v = 0; v < 9; ++v) w.u32(v);
    util::BinaryReader r(w.buffer());
    EXPECT_THROW(s.load_state(r), SnapshotError);
  }
  {
    util::BinaryWriter w;
    w.u32(8);
    for (core::NodeId v = 0; v < 7; ++v) w.u32(v);
    w.u32(99);  // out of range
    util::BinaryReader r(w.buffer());
    EXPECT_THROW(s.load_state(r), SnapshotError);
  }
}

TEST(SchedulerState, WaveLayeringRoundTrip) {
  util::Rng graph_rng(55);
  const graph::Graph g = graph::random_connected(30, 0.15, graph_rng);
  sched::WaveScheduler a(g);
  util::BinaryWriter w;
  a.save_state(w);

  // Load into a wave scheduler built over a DIFFERENT graph: the blob wins
  // (restore loads the snapshotted layering, not the constructor's).
  const graph::Graph other = graph::complete(30);
  sched::WaveScheduler b(other);
  util::BinaryReader r(w.buffer());
  b.load_state(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(a.max_activation_hint(), b.max_activation_hint());

  util::Rng rng(1);
  std::vector<core::NodeId> out_a;
  std::vector<core::NodeId> out_b;
  for (core::Time t = 0; t < 25; ++t) {
    a.activations(t, out_a, rng);
    b.activations(t, out_b, rng);
    EXPECT_EQ(out_a, out_b) << "t=" << t;
  }
}

TEST(SchedulerState, WaveRejectsCorruptBlobs) {
  const graph::Graph g = graph::path(4);
  sched::WaveScheduler s(g);
  const auto blob_of = [](std::vector<std::vector<core::NodeId>> layers) {
    util::BinaryWriter w;
    w.u64(layers.size());
    for (const auto& layer : layers) {
      w.u64(layer.size());
      for (const core::NodeId v : layer) w.u32(v);
    }
    return w.take();
  };
  {
    // Node id >= n: the engine would index config_/pending_/neighbors() out
    // of bounds with it.
    const auto bytes = blob_of({{0}, {1}, {2}, {99}});
    util::BinaryReader r(bytes);
    EXPECT_THROW(s.load_state(r), SnapshotError);
  }
  {
    // Duplicate across layers.
    const auto bytes = blob_of({{0, 1}, {1, 2}});
    util::BinaryReader r(bytes);
    EXPECT_THROW(s.load_state(r), SnapshotError);
  }
  {
    // Missing node (layering must partition the node set).
    const auto bytes = blob_of({{0}, {1, 2}});
    util::BinaryReader r(bytes);
    EXPECT_THROW(s.load_state(r), SnapshotError);
  }
  {
    // Zero layers.
    const auto bytes = blob_of({});
    util::BinaryReader r(bytes);
    EXPECT_THROW(s.load_state(r), SnapshotError);
  }
  // A rejected blob must not have clobbered the layering: the schedule
  // still partitions [0, 4) one node per BFS layer of the path.
  util::Rng rng(1);
  std::vector<core::NodeId> out;
  std::vector<bool> seen(4, false);
  for (core::Time t = 0; t < 4; ++t) {
    s.activations(t, out, rng);
    for (const core::NodeId v : out) {
      ASSERT_LT(v, 4u);
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Restore, FailedRestoreLeavesSchedulerIntact) {
  // Corrupt the tail of a valid snapshot (engine-state section) and re-seal
  // the envelope: restore throws AFTER reaching the scheduler blob, yet must
  // leave the caller's scheduler producing its original schedule.
  TinyRun run;  // 100 steps → the snapshotted permutation is mid-cycle
  auto bytes = run.bytes;

  // Drop the final payload byte and re-frame (length at offset 16, CRC
  // trailing): the envelope validates, every section up to and including
  // the scheduler blob parses, and Engine::load_state hits truncation.
  bytes.resize(bytes.size() - 5);  // old CRC (4) + last payload byte
  const std::uint64_t new_len = bytes.size() - 24;
  for (int i = 0; i < 8; ++i) {
    bytes[16 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(new_len >> (8 * i));
  }
  const std::uint32_t crc = util::crc32(bytes);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }

  graph::Graph g2 = restore_graph(bytes);
  auto sched2 = sched::make_scheduler("permutation", g2);
  // Reference: a twin scheduler that never sees the corrupt restore.
  auto sched_ref = sched::make_scheduler("permutation", g2);

  EXPECT_THROW(restore(bytes, g2, run.alg, *sched2), SnapshotError);

  // Compare mid-cycle (pos 1..n-1 never reshuffles, so the snapshot's
  // shuffled order would show through if the failed restore left it in).
  util::Rng rng;
  std::vector<core::NodeId> out_a;
  std::vector<core::NodeId> out_b;
  for (core::Time t = 1; t < 12; ++t) {
    sched2->activations(t, out_a, rng);
    sched_ref->activations(t, out_b, rng);
    EXPECT_EQ(out_a, out_b) << "t=" << t;
  }
}

// --- command log -------------------------------------------------------------

TEST(CommandLog, RoundTripAllRecordTypes) {
  const std::string path = "test_snapshot_roundtrip.cmdlog";
  core::ReplayHeader header;
  header.automaton = "alg-au:2";
  header.scheduler = "permutation";
  header.subset_p = 0.25;
  header.burst = 7;
  header.seed = 4242;
  header.options.thread_count = 4;
  header.options.signal_field = core::SignalFieldMode::kOn;
  {
    core::CommandLogWriter log(path, header);
    log.record_steps(10);
    log.record_steps(5);  // coalesces with the previous 10
    log.record_inject_state(3, 1);
    log.record_steps(2);
    graph::TopologyDelta delta;
    delta.remove.push_back({0, 1});
    delta.add.push_back({2, 5});
    log.record_topology_delta(delta);
    log.record_inject_configuration(core::Configuration{1, 0, 2, 1});
    log.flush();
  }

  const auto log = core::read_command_log(path);
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.header.automaton, "alg-au:2");
  EXPECT_EQ(log.header.scheduler, "permutation");
  EXPECT_EQ(log.header.subset_p, 0.25);
  EXPECT_EQ(log.header.burst, 7u);
  EXPECT_EQ(log.header.seed, 4242u);
  EXPECT_EQ(log.header.options.thread_count, 4u);
  ASSERT_EQ(log.commands.size(), 5u);
  EXPECT_EQ(log.commands[0].type, core::CommandType::kSteps);
  EXPECT_EQ(log.commands[0].count, 15u);
  EXPECT_EQ(log.commands[1].type, core::CommandType::kInjectState);
  EXPECT_EQ(log.commands[1].node, 3u);
  EXPECT_EQ(log.commands[2].count, 2u);
  EXPECT_EQ(log.commands[3].type, core::CommandType::kTopologyDelta);
  EXPECT_EQ(log.commands[3].delta.remove.size(), 1u);
  EXPECT_EQ(log.commands[4].type, core::CommandType::kInjectConfiguration);
  EXPECT_EQ(log.commands[4].config,
            (core::Configuration{1, 0, 2, 1}));
  std::filesystem::remove(path);
}

TEST(CommandLog, TornTailIsRecoverableCorruptionIsNot) {
  const std::string path = "test_snapshot_torn.cmdlog";
  core::ReplayHeader header;
  header.automaton = "alg-au:2";
  header.scheduler = "uniform-single";
  {
    core::CommandLogWriter log(path, header);
    log.record_steps(100);
    log.record_inject_state(1, 1);
    log.flush();
  }
  std::ifstream is(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  is.close();

  // Shear the final record anywhere: the prefix replays, the tail flag is
  // set. (Stop before eating into the previous complete record's frame.)
  const std::size_t last_record_size = 8 + 1 + 4 + 8;  // frame + body
  for (std::size_t cut = 1; cut < last_record_size; ++cut) {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size() - cut));
    os.close();
    const auto log = core::read_command_log(path);
    EXPECT_TRUE(log.truncated_tail) << "cut " << cut;
    ASSERT_EQ(log.commands.size(), 1u) << "cut " << cut;
    EXPECT_EQ(log.commands[0].count, 100u);
  }

  // A COMPLETE record with flipped bytes is corruption — typed error.
  {
    auto corrupt = bytes;
    corrupt[corrupt.size() - 2] ^= 0x40;  // inside the last record's body
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    os.close();
    EXPECT_THROW(core::read_command_log(path), SnapshotError);
  }
  std::filesystem::remove(path);
}

TEST(CommandLog, RecordedTrajectoryReplaysBitIdentically) {
  const std::string snap_path = "test_snapshot_replay.snap";
  const std::string log_path = "test_snapshot_replay.cmdlog";

  util::Rng graph_rng(61);
  graph::Graph g = graph::random_connected(28, 0.18, graph_rng);
  const unison::AlgAu alg(static_cast<int>(graph::diameter(g)) + 2);
  auto sched = sched::make_scheduler("uniform-single", g);
  util::Rng rng(15);
  core::Engine engine(g, alg, *sched,
                      core::random_configuration(alg, g.num_nodes(), rng),
                      321);
  for (int t = 0; t < 60; ++t) engine.step();

  // Checkpoint, then record everything that happens afterwards.
  core::snapshot::write_file(save(engine), snap_path);
  core::ReplayHeader header;
  header.automaton = "alg-au:" + std::to_string(
      static_cast<int>(graph::diameter(g)) + 2);
  header.scheduler = "uniform-single";
  header.seed = engine.seed();
  header.options = engine.options();
  std::uint64_t final_hash = 0;
  {
    core::CommandLogWriter log(log_path, header);
    for (int t = 0; t < 40; ++t) {
      engine.step();
      log.record_steps(1);
    }
    log.record_expect_hash(engine);
    engine.inject_state(4, 2);
    log.record_inject_state(4, 2);
    graph::TopologyDelta delta;
    delta.remove.push_back(engine.graph().edges()[0]);
    const auto applied = engine.apply_topology_delta(delta);
    log.record_topology_delta(applied);
    for (int t = 0; t < 75; ++t) {
      engine.step();
      log.record_steps(1);
    }
    log.record_expect_hash(engine);
    final_hash = core::engine_state_hash(engine);
  }

  // Fresh process equivalent: restore + replay must converge on the same
  // trajectory digest with zero hash mismatches.
  const auto bytes = core::snapshot::read_file(snap_path);
  graph::Graph g2 = restore_graph(bytes);
  auto sched2 = sched::make_scheduler("uniform-single", g2);
  auto restored = restore(bytes, g2, alg, *sched2);
  const auto log = core::read_command_log(log_path);
  const auto result = core::replay_commands(*restored, log.commands);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.hash_checks, 2u);
  EXPECT_EQ(result.steps, 115u);
  EXPECT_EQ(core::engine_state_hash(*restored), final_hash);
  expect_engines_equal(engine, *restored);

  std::filesystem::remove(snap_path);
  std::filesystem::remove(log_path);
}

/// The run behind golden_command_log_v2.cmdlog: TinyRun's engine (the state
/// golden_engine_v3.snap holds) driven through every wire record type,
/// each applied command recorded as it happens.
void record_golden_log(core::Engine& engine, const std::string& path) {
  core::ReplayHeader header;
  header.automaton = "alg-au:2";
  header.scheduler = "permutation";
  header.seed = engine.seed();
  header.options = engine.options();
  core::CommandLogWriter log(path, header);
  const auto steps = [&](int count) {
    for (int t = 0; t < count; ++t) {
      engine.step();
      log.record_steps(1);
    }
  };
  steps(30);
  log.record_expect_hash(engine);
  engine.inject_state(5, 3);
  log.record_inject_state(5, 3);
  graph::TopologyDelta cut;
  cut.remove.push_back({0, 1});
  const graph::TopologyDelta applied = engine.apply_topology_delta(cut);
  log.record_topology_delta(applied);
  steps(20);
  log.record_expect_hash(engine);
  log.record_topology_delta(engine.apply_topology_delta(applied.inverse()));
  core::Configuration config(engine.config().size());
  for (std::size_t v = 0; v < config.size(); ++v) {
    config[v] = (7 * v) % engine.automaton().state_count();
  }
  engine.inject_configuration(config);
  log.record_inject_configuration(config);
  steps(25);
  log.record_expect_hash(engine);
  log.flush();
}

TEST(CommandLog, GoldenLogReplaysAndWriterReproducesIt) {
  // A command log recorded by an earlier build (regenerate only on a
  // deliberate format break, like the snapshot fixtures:
  //   SSAU_REGEN_GOLDEN=1 ./test_snapshot --gtest_filter=CommandLog.Golden*).
  const std::string path = golden_path("golden_command_log_v2.cmdlog");
  if (std::getenv("SSAU_REGEN_GOLDEN") != nullptr) {
    TinyRun run;
    record_golden_log(*run.engine, path);
    GTEST_SKIP() << "regenerated " << path;
  }
  // Replayed from the snapshot fixture, every recorded hash must match.
  const auto bytes =
      core::snapshot::read_file(golden_path("golden_engine_v3.snap"));
  graph::Graph g2 = restore_graph(bytes);
  auto sched2 = sched::make_scheduler("permutation", g2);
  const unison::AlgAu alg(2);
  auto restored = restore(bytes, g2, alg, *sched2);
  const auto log = core::read_command_log(path);
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.header.automaton, "alg-au:2");
  const auto result = core::replay_commands(*restored, log.commands);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.hash_checks, 3u);
  EXPECT_EQ(result.steps, 75u);

  // Today's writer, fed the same run, emits the same bytes.
  const std::string rewrite = "test_snapshot_golden_rewrite.cmdlog";
  TinyRun run;
  record_golden_log(*run.engine, rewrite);
  EXPECT_EQ(file_bytes(rewrite), file_bytes(path));
  expect_engines_equal(*run.engine, *restored);
  std::filesystem::remove(rewrite);
}

// --- the edges() lazy-cache tripwire -----------------------------------------

#if !defined(NDEBUG) && defined(GTEST_HAS_DEATH_TEST)
TEST(EdgesGuardDeathTest, DirtyCacheRebuildAssertsWhileForbidden) {
  graph::Graph g(4, {{0, 1}, {1, 2}});
  g.add_edge(2, 3);  // dirties the lazy edges() cache
  g.debug_forbid_lazy_edges(true);
  EXPECT_DEATH((void)g.edges(), "edges");
  g.debug_forbid_lazy_edges(false);
  EXPECT_EQ(g.edges().size(), 3u);  // rebuild allowed again
}
#endif

TEST(EdgesGuard, CleanCacheIsAlwaysReadable) {
  graph::Graph g(4, {{0, 1}, {1, 2}});
  g.debug_forbid_lazy_edges(true);
  EXPECT_EQ(g.edges().size(), 2u);  // cache fresh from construction: fine
  g.debug_forbid_lazy_edges(false);
}

TEST(EdgesGuard, SaveNeverTouchesDirtyEdgesCache) {
  // Snapshotting right after churn (edges() cache dirty) must not trip the
  // serializer's own tripwire — it walks the CSR slots.
  graph::Graph g = graph::ring_of_cliques(3, 4);
  const unison::AlgAu alg(3);
  auto sched = sched::make_scheduler("uniform-single", g);
  util::Rng rng(8);
  core::Engine engine(g, alg, *sched,
                      core::random_configuration(alg, g.num_nodes(), rng), 44);
  graph::TopologyDelta delta;
  delta.add.push_back({0, 6});
  engine.apply_topology_delta(delta);  // cache now dirty
  const auto bytes = save(engine);     // must not rebuild edges()
  const graph::Graph g2 = restore_graph(bytes);
  EXPECT_EQ(g2.num_edges(), g.num_edges());
}

}  // namespace
