// Service layer: the Session command surface and the multi-session pool.
//
// The headline invariant is the differential one: a session multiplexed over
// the shared worker pool — at ANY worker count, under mixed interleaved
// traffic from many sessions — walks exactly the trajectory of a standalone
// engine driven serially with the same commands. On top of that: typed
// capability errors (TopologyDelta on a const-graph session), queue
// backpressure and drain-on-shutdown (no accepted command is ever dropped),
// quarantine isolation (a throwing session never disturbs siblings), the
// record/replay round trip through Session::apply, and the fault campaign's
// checkpoint path now sharing the service's `.prev` rotation guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/command_log.hpp"
#include "core/engine.hpp"
#include "core/faults.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "sched/scheduler.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "thread_spawn_failure.hpp"
#include "unison/alg_au.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace ssau {
namespace {

namespace fs = std::filesystem;
using service::Command;
using service::Result;
using service::Session;
using service::SessionSpec;
using service::SimulationService;
using service::Status;
namespace cmd = service::cmd;

std::string temp_path(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

// --- Session: command surface ------------------------------------------------

TEST(Session, StepsMatchDirectEngineDrive) {
  SessionSpec spec;
  spec.automaton = "alg-au:4";
  spec.scheduler = "uniform-single";
  spec.graph = "complete:12";
  spec.seed = 42;
  Session session(spec);

  // The same collaborators rebuilt by hand, driven directly.
  Session reference(spec);
  for (int i = 0; i < 100; ++i) reference.engine().step();

  const Result r = session.apply(cmd::step(100));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(r.steps, 100u);
  EXPECT_EQ(core::engine_state_hash(session.engine()),
            core::engine_state_hash(reference.engine()));
}

TEST(Session, RunRoundsReportsExecutedSteps) {
  SessionSpec spec;
  spec.graph = "cycle:9";
  spec.scheduler = "synchronous";
  Session session(spec);
  const Result r = session.apply(cmd::run_rounds(7));
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(session.engine().rounds_completed(), 7u);
  EXPECT_EQ(r.steps, session.engine().time());
}

TEST(Session, QueriesReportEngineState) {
  SessionSpec spec;
  spec.graph = "grid:4:5";
  Session session(spec);
  ASSERT_TRUE(session.apply(cmd::step(25)).ok());

  const Result stats = session.apply(cmd::query_stats());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.stats.nodes, 20u);
  EXPECT_EQ(stats.stats.edges, session.engine().graph().num_edges());
  EXPECT_EQ(stats.stats.time, 25u);
  EXPECT_TRUE(stats.stats.churn_capable);

  const Result config = session.apply(cmd::query_config());
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.config, session.engine().config());

  const Result hash = session.apply(cmd::query_hash());
  ASSERT_TRUE(hash.ok());
  EXPECT_EQ(hash.hash, core::engine_state_hash(session.engine()));

  const Result match = session.apply(cmd::expect_hash(hash.hash));
  EXPECT_TRUE(match.ok()) << match.error;
  const Result mismatch = session.apply(cmd::expect_hash(hash.hash ^ 1));
  EXPECT_EQ(mismatch.status, Status::kHashMismatch);
  EXPECT_EQ(mismatch.hash, hash.hash);  // observed digest still reported
}

TEST(Session, InvalidArgumentsComeBackTypedAndLeaveStateIntact) {
  SessionSpec spec;
  spec.graph = "complete:8";
  Session session(spec);
  ASSERT_TRUE(session.apply(cmd::step(10)).ok());
  const std::uint64_t before = core::engine_state_hash(session.engine());

  // Out-of-range node: the engine validates before mutating.
  const Result bad_node = session.apply(cmd::inject_state(99, 0));
  EXPECT_EQ(bad_node.status, Status::kInvalidArgument);
  EXPECT_FALSE(bad_node.error.empty());

  // Wrong-size configuration.
  const Result bad_config =
      session.apply(cmd::inject_configuration(core::Configuration(3, 0)));
  EXPECT_EQ(bad_config.status, Status::kInvalidArgument);

  // Checkpoint without a path.
  const Result bad_snap = session.apply(cmd::snapshot(""));
  EXPECT_EQ(bad_snap.status, Status::kInvalidArgument);

  EXPECT_EQ(core::engine_state_hash(session.engine()), before);
}

TEST(Session, MalformedSpecsThrowInvalidArgument) {
  SessionSpec spec;
  spec.automaton = "no-such-alg:3";
  EXPECT_THROW(Session{spec}, std::invalid_argument);
  spec.automaton = "alg-au:3";
  spec.graph = "no-such-family:7";
  EXPECT_THROW(Session{spec}, std::invalid_argument);
  spec.graph = "random:64:nan";  // NaN edge probability
  EXPECT_THROW(Session{spec}, std::invalid_argument);
  spec.graph = "damaged-clique:64:nan";
  EXPECT_THROW(Session{spec}, std::invalid_argument);
  spec.graph = "complete:8";
  spec.initial = "uniform:100000";  // out of range for |Q|
  EXPECT_THROW(Session{spec}, std::invalid_argument);
  // Diameter bounds whose derived int arithmetic (3D, D + 3, 2D + 1,
  // M + 2D + 1) would overflow.
  spec.initial = "random";
  for (const char* automaton :
       {"alg-au:800000000", "alg-mis:2147483647", "alg-mis:1100000000",
        "alg-le:1100000000", "reset-unison:1100000000:5"}) {
    spec.automaton = automaton;
    EXPECT_THROW(Session{spec}, std::invalid_argument) << automaton;
  }
  // Numbers must be whole tokens that fit their type: trailing junk is not
  // ignored, and a negative |Q| does not wrap to 2^64 - 1.
  struct Spec {
    const char* automaton;
    const char* graph;
    const char* initial;
  };
  for (const Spec& bad : {Spec{"alg-au:3junk", "complete:8", "random"},
                          Spec{"alg-au:3", "complete:8junk", "random"},
                          Spec{"min-prop:-1", "complete:8", "random"},
                          Spec{"min-prop:0", "complete:8", "random"},
                          Spec{"alg-au:3", "complete:8", "uniform:1x"},
                          Spec{"alg-au:3", "random:64:0.1junk", "random"},
                          Spec{"alg-au:3", "complete:4294967296", "random"}}) {
    spec.automaton = bad.automaton;
    spec.graph = bad.graph;
    spec.initial = bad.initial;
    EXPECT_THROW(Session{spec}, std::invalid_argument)
        << bad.automaton << " " << bad.graph << " " << bad.initial;
  }
}

// --- Session: churn capability (the typed logic_error replacement) ----------

TEST(Session, TopologyDeltaOnConstGraphSessionIsTypedUnsupported) {
  const graph::Graph g = graph::complete(10);  // const: no churn capability
  const unison::AlgAu alg(3);
  const auto sched = sched::make_scheduler("uniform-single", g);
  core::Engine engine(g, alg, *sched, core::Configuration(10, 0), 1);
  ASSERT_FALSE(engine.churn_capable());

  Session session(engine);
  EXPECT_FALSE(session.churn_capable());
  graph::TopologyDelta delta;
  delta.remove = {{0, 1}};
  const Result r = session.apply(cmd::topology_delta(delta));
  EXPECT_EQ(r.status, Status::kUnsupported);
  EXPECT_FALSE(r.error.empty());
  // The raw engine still throws; the session surface is where the typed
  // mapping lives.
  EXPECT_THROW(engine.apply_topology_delta(delta), std::logic_error);
}

TEST(Session, OwningSessionsAreChurnCapable) {
  SessionSpec spec;
  spec.graph = "complete:10";
  Session session(spec);
  EXPECT_TRUE(session.churn_capable());
  graph::TopologyDelta delta;
  delta.remove = {{0, 1}};
  ASSERT_TRUE(session.apply(cmd::topology_delta(delta)).ok());
  EXPECT_EQ(session.engine().graph().num_edges(), 44u);
}

// --- Session: record/replay --------------------------------------------------

// Drives a mixed trajectory through a recording session, then replays the
// log two ways — through Session::restore + apply (the tools/replay path)
// and through the raw core::replay_commands loop — and expects both to land
// on the recorded trajectory, hash checks green.
TEST(Session, RecordReplayRoundTrip) {
  const std::string snap = temp_path("svc_roundtrip.snap");
  const std::string log_path = temp_path("svc_roundtrip.cmdlog");
  fs::remove(snap);
  fs::remove(snap + ".prev");
  fs::remove(log_path);

  SessionSpec spec;
  spec.automaton = "alg-au:4";
  spec.scheduler = "random-subset";
  spec.subset_p = 0.4;
  spec.graph = "complete:16";
  spec.seed = 99;
  Session session(spec);
  ASSERT_TRUE(session.apply(cmd::step(30)).ok());
  ASSERT_TRUE(session.apply(cmd::snapshot(snap)).ok());

  session.start_recording(log_path);
  ASSERT_TRUE(session.recording());
  ASSERT_TRUE(session.apply(cmd::step(20)).ok());
  ASSERT_TRUE(session.apply(cmd::inject_state(5, 0)).ok());
  graph::TopologyDelta delta;
  delta.remove = {{2, 3}};
  ASSERT_TRUE(session.apply(cmd::topology_delta(delta)).ok());
  ASSERT_TRUE(session.apply(cmd::run_rounds(3)).ok());
  ASSERT_TRUE(session.apply(cmd::query_hash()).ok());  // logged assertion
  ASSERT_TRUE(session.apply(cmd::step(10)).ok());
  ASSERT_TRUE(session.apply(cmd::query_hash()).ok());
  session.stop_recording();
  const std::uint64_t final_hash = core::engine_state_hash(session.engine());

  const core::CommandLog log = core::read_command_log(log_path);
  EXPECT_FALSE(log.truncated_tail);
  EXPECT_EQ(log.header.automaton, spec.automaton);
  EXPECT_EQ(log.header.scheduler, spec.scheduler);

  // Path 1: the session surface (what tools/replay drives).
  const auto bytes = core::snapshot::read_checkpoint(snap);
  const auto restored =
      Session::restore(bytes, service::spec_from_header(log.header));
  for (const Command& c : log.commands) {
    const Result r = restored->apply(c);
    EXPECT_TRUE(r.ok()) << service::status_name(r.status) << ": " << r.error;
  }
  EXPECT_EQ(core::engine_state_hash(restored->engine()), final_hash);

  // Path 2: the raw replay loop over the same decoded commands.
  const auto automaton = service::make_automaton(log.header.automaton);
  graph::Graph g = core::snapshot::restore_graph(bytes);
  const auto scheduler = sched::make_scheduler(
      log.header.scheduler, g, log.header.subset_p, log.header.burst);
  const auto engine = core::snapshot::restore(bytes, g, *automaton, *scheduler);
  const core::ReplayResult raw = core::replay_commands(*engine, log.commands);
  EXPECT_TRUE(raw.ok());
  EXPECT_EQ(raw.hash_checks, 2u);
  EXPECT_EQ(core::engine_state_hash(*engine), final_hash);

  fs::remove(snap);
  fs::remove(snap + ".prev");
  fs::remove(log_path);
}

TEST(Session, BorrowedSessionsCannotRecord) {
  graph::Graph g = graph::complete(6);
  const unison::AlgAu alg(3);
  const auto sched = sched::make_scheduler("uniform-single", g);
  core::Engine engine(g, alg, *sched, core::Configuration(6, 0), 1);
  Session session(engine);
  EXPECT_THROW(session.start_recording(temp_path("svc_norecord.cmdlog")),
               std::logic_error);
}

// --- SimulationService: differential bit-identity ---------------------------

struct Script {
  SessionSpec spec;
  std::vector<Command> commands;
};

// Mixed per-session traffic over heterogeneous specs; churny commands only
// on complete graphs (edge {0,1} always legal to drop and re-add).
std::vector<Script> make_scripts() {
  std::vector<Script> scripts;
  for (int i = 0; i < 6; ++i) {
    Script s;
    s.spec.seed = 1000 + i;
    switch (i % 3) {
      case 0:
        s.spec.automaton = "alg-au:4";
        s.spec.scheduler = "uniform-single";
        s.spec.graph = "complete:14";
        break;
      case 1:
        s.spec.automaton = "alg-mis:5";
        s.spec.scheduler = "random-subset";
        s.spec.subset_p = 0.3;
        s.spec.graph = "random:24:0.15";
        break;
      default:
        s.spec.automaton = "min-prop:16";
        s.spec.scheduler = "synchronous";
        s.spec.graph = "torus:4:5";
        break;
    }
    s.commands.push_back(cmd::step(20 + 5 * i));
    s.commands.push_back(cmd::inject_state(static_cast<core::NodeId>(i), 0));
    if (i % 3 == 0) {
      graph::TopologyDelta drop, heal;
      drop.remove = {{0, 1}};
      heal.add = {{0, 1}};
      s.commands.push_back(cmd::topology_delta(drop));
      s.commands.push_back(cmd::step(15));
      s.commands.push_back(cmd::topology_delta(heal));
    }
    s.commands.push_back(cmd::run_rounds(3));
    s.commands.push_back(cmd::query_hash());
    s.commands.push_back(cmd::step(10));
    s.commands.push_back(cmd::query_hash());
    scripts.push_back(std::move(s));
  }
  return scripts;
}

TEST(SimulationService, PooledSessionsBitIdenticalToStandaloneAtEveryWorkerCount) {
  const std::vector<Script> scripts = make_scripts();

  // Reference: each script driven serially through a standalone session.
  struct Reference {
    std::vector<std::uint64_t> hashes;  // one per query_hash command
    core::Configuration config;
    core::Time time = 0;
    std::uint64_t rounds = 0;
    std::uint64_t final_hash = 0;
  };
  std::vector<Reference> expected;
  for (const Script& s : scripts) {
    SessionSpec spec = s.spec;
    spec.options.thread_count = 1;  // trajectories are thread-count-invariant,
                                    // so any resolution the service picks
                                    // matches this serial reference
    Session session(spec);
    Reference ref;
    for (const Command& c : s.commands) {
      const Result r = session.apply(c);
      ASSERT_TRUE(r.ok()) << r.error;
      if (c.type == core::CommandType::kQueryHash) ref.hashes.push_back(r.hash);
    }
    ref.config = session.engine().config();
    ref.time = session.engine().time();
    ref.rounds = session.engine().rounds_completed();
    ref.final_hash = core::engine_state_hash(session.engine());
    expected.push_back(std::move(ref));
  }

  for (const unsigned workers : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    service::ServiceOptions options;
    options.workers = workers;
    SimulationService svc(options);
    ASSERT_EQ(svc.workers(), workers);

    std::vector<SimulationService::SessionId> ids;
    for (const Script& s : scripts) ids.push_back(svc.open_session(s.spec));

    // Interleave: one command per session per round, so distinct sessions
    // genuinely contend for the pool mid-trajectory.
    std::vector<std::vector<std::future<Result>>> futures(scripts.size());
    std::size_t longest = 0;
    for (const Script& s : scripts) {
      longest = std::max(longest, s.commands.size());
    }
    for (std::size_t k = 0; k < longest; ++k) {
      for (std::size_t i = 0; i < scripts.size(); ++i) {
        if (k < scripts[i].commands.size()) {
          futures[i].push_back(svc.submit(ids[i], scripts[i].commands[k]));
        }
      }
    }
    svc.drain();

    for (std::size_t i = 0; i < scripts.size(); ++i) {
      SCOPED_TRACE("session " + std::to_string(i));
      std::vector<std::uint64_t> hashes;
      for (std::size_t k = 0; k < futures[i].size(); ++k) {
        const Result r = futures[i][k].get();
        ASSERT_TRUE(r.ok()) << r.error;
        if (scripts[i].commands[k].type == core::CommandType::kQueryHash) {
          hashes.push_back(r.hash);
        }
      }
      EXPECT_EQ(hashes, expected[i].hashes);
      Session& session = svc.session(ids[i]);
      EXPECT_EQ(session.engine().config(), expected[i].config);
      EXPECT_EQ(session.engine().time(), expected[i].time);
      EXPECT_EQ(session.engine().rounds_completed(), expected[i].rounds);
      EXPECT_EQ(core::engine_state_hash(session.engine()),
                expected[i].final_hash);
    }
    svc.shutdown();
  }
}

// --- SimulationService: queue semantics --------------------------------------

TEST(SimulationService, BackpressureBoundsPendingCommands) {
  service::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 3;
  SimulationService svc(options);
  SessionSpec spec;
  spec.graph = "complete:32";
  const auto id = svc.open_session(spec);

  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 40; ++i) {
    futures.push_back(svc.submit(id, cmd::step(50)));  // blocks at capacity
  }
  svc.drain();
  EXPECT_LE(svc.peak_pending(), options.queue_capacity);
  EXPECT_EQ(svc.commands_completed(), 40u);
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(svc.session(id).engine().time(), 40u * 50u);
  EXPECT_EQ(svc.latency_samples().size(), 40u);
}

TEST(SimulationService, ShutdownDrainsEveryAcceptedCommand) {
  service::ServiceOptions options;
  options.workers = 2;
  SimulationService svc(options);
  SessionSpec spec;
  spec.graph = "complete:24";
  const auto a = svc.open_session(spec);
  spec.seed = 1;
  const auto b = svc.open_session(spec);

  std::vector<std::future<Result>> futures;
  for (int i = 0; i < 25; ++i) {
    futures.push_back(svc.submit(a, cmd::step(20)));
    futures.push_back(svc.submit(b, cmd::step(20)));
  }
  svc.shutdown();  // immediately: must still complete all 50
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  EXPECT_EQ(svc.session(a).engine().time(), 500u);
  EXPECT_EQ(svc.session(b).engine().time(), 500u);
  EXPECT_THROW(svc.submit(a, cmd::step()), std::runtime_error);
  EXPECT_THROW(svc.open_session(spec), std::runtime_error);
  svc.shutdown();  // idempotent
}

TEST(SimulationService, UnknownSessionIdThrows) {
  SimulationService svc({.workers = 1});
  EXPECT_THROW(svc.submit(123, cmd::step()), std::out_of_range);
  EXPECT_THROW(static_cast<void>(svc.session(123)), std::out_of_range);
  EXPECT_FALSE(svc.quarantined(123));
}

TEST(SimulationService, FailedWorkerSpawnJoinsStartedWorkersAndThrows) {
#ifdef SSAU_SHADOW_MEMORY_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory exceeds any RLIMIT_AS cap";
#endif
  // Re-exec the binary for the child: a forked child would inherit this
  // process's address space, so the cap could starve the very first spawn
  // and hide a constructor that leaks joinable threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(testing_support::construct_under_address_cap([] {
                SimulationService svc(
                    {.workers = testing_support::kSpawnTestThreads});
              }),
              ::testing::ExitedWithCode(0), "caught: ");
}

// --- SimulationService: pooled engine thread budgets -------------------------

TEST(SimulationService, AutoThreadCountDividesHardwareAcrossWorkers) {
  // thread_count == 0 must resolve through recommended_threads(workers):
  // `workers` concurrently executing sessions never multiply into
  // workers x cores engine threads.
  for (const unsigned workers : {1u, 2u, 8u, 1024u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SimulationService svc({.workers = workers});
    SessionSpec spec;
    spec.automaton = "alg-au:4";
    spec.scheduler = "synchronous";
    spec.graph = "cycle:64";
    spec.seed = 7;
    spec.options.thread_count = 0;  // "auto"
    const auto id = svc.open_session(spec);
    const unsigned resolved = svc.session(id).engine().options().thread_count;
    EXPECT_EQ(resolved,
              core::ParallelEngine::recommended_threads(svc.workers()));
    EXPECT_GE(resolved, 1u);
    EXPECT_LE(resolved * svc.workers(),
              std::max(core::ParallelEngine::resolve_thread_count(0),
                       svc.workers()));
  }
  // With at least as many workers as cores, auto sessions must be serial.
  {
    const unsigned hw = core::ParallelEngine::resolve_thread_count(0);
    SimulationService svc({.workers = hw});
    SessionSpec spec;
    spec.automaton = "alg-au:4";
    spec.scheduler = "synchronous";
    spec.graph = "cycle:64";
    spec.seed = 7;
    spec.options.thread_count = 0;
    const auto id = svc.open_session(spec);
    EXPECT_EQ(svc.session(id).engine().options().thread_count, 1u);
  }
}

TEST(SimulationService, ExplicitThreadCountSurvivesPooling) {
  // Deliberate oversubscription (bench experiments) stays expressible: an
  // explicit value passes through verbatim and the session still walks the
  // bit-identical trajectory.
  SimulationService svc({.workers = 2});
  SessionSpec spec;
  spec.automaton = "alg-au:4";
  spec.scheduler = "synchronous";
  spec.graph = "random:96:0.08";
  spec.seed = 11;
  spec.options.thread_count = 4;
  const auto id = svc.open_session(spec);
  EXPECT_EQ(svc.session(id).engine().options().thread_count, 4u);

  auto fut = svc.submit(id, cmd::run_rounds(20));
  ASSERT_TRUE(fut.get().ok());
  svc.drain();

  spec.options.thread_count = 1;
  Session serial(spec);
  ASSERT_TRUE(serial.apply(cmd::run_rounds(20)).ok());
  EXPECT_EQ(svc.session(id).engine().config(), serial.engine().config());
}

// --- SimulationService: quarantine isolation ---------------------------------

// Throws an exception the Session cannot type (not invalid_argument /
// logic_error / SnapshotError) after `fuse` activations — the kError path.
class FusedAutomaton final : public core::Automaton {
 public:
  explicit FusedAutomaton(int fuse) : fuse_(fuse) {}
  [[nodiscard]] core::StateId state_count() const override { return 4; }
  [[nodiscard]] bool is_output(core::StateId) const override { return false; }
  [[nodiscard]] std::int64_t output(core::StateId) const override { return 0; }
  [[nodiscard]] core::StateId step(core::StateId q, const core::Signal&,
                                   util::Rng&) const override {
    if (++activations_ > fuse_) throw std::runtime_error("fuse blown");
    return (q + 1) % 4;
  }

 private:
  int fuse_;
  mutable std::atomic<int> activations_{0};
};

TEST(SimulationService, QuarantineIsolatesThrowingSession) {
  graph::Graph g = graph::complete(8);
  const FusedAutomaton alg(30);
  const auto sched = sched::make_scheduler("uniform-single", g);
  core::Engine engine(g, alg, *sched, core::Configuration(8, 0), 3);

  SimulationService svc({.workers = 2});
  const auto bad = svc.adopt_session(std::make_unique<Session>(engine));
  SessionSpec spec;
  spec.graph = "complete:12";
  const auto good = svc.open_session(spec);

  std::vector<std::future<Result>> bad_futures;
  std::vector<std::future<Result>> good_futures;
  for (int i = 0; i < 10; ++i) {
    bad_futures.push_back(svc.submit(bad, cmd::step(10)));
    good_futures.push_back(svc.submit(good, cmd::step(10)));
  }
  svc.drain();

  // The fused session blew up mid-script: the faulting command reports
  // kError, everything after it kQuarantined. Nothing hangs or leaks.
  ASSERT_TRUE(svc.quarantined(bad));
  EXPECT_NE(svc.quarantine_reason(bad).find("fuse blown"), std::string::npos);
  bool saw_error = false;
  for (auto& f : bad_futures) {
    const Result r = f.get();
    if (r.status == Status::kError) {
      EXPECT_FALSE(saw_error) << "exactly one command faults";
      saw_error = true;
    } else if (saw_error) {
      EXPECT_EQ(r.status, Status::kQuarantined);
    } else {
      EXPECT_TRUE(r.ok());
    }
  }
  EXPECT_TRUE(saw_error);

  // The sibling is untouched: all commands applied, trajectory identical to
  // a standalone run.
  for (auto& f : good_futures) EXPECT_TRUE(f.get().ok());
  EXPECT_FALSE(svc.quarantined(good));
  SessionSpec ref_spec = spec;
  ref_spec.options.thread_count = 1;
  Session reference(ref_spec);
  ASSERT_TRUE(reference.apply(cmd::step(100)).ok());
  EXPECT_EQ(core::engine_state_hash(svc.session(good).engine()),
            core::engine_state_hash(reference.engine()));
}

// --- fault campaign: checkpoints through the Session path --------------------

TEST(FaultCampaign, CheckpointsRotatePrevLikeTheService) {
  const std::string path = temp_path("svc_campaign.snap");
  fs::remove(path);
  fs::remove(path + ".prev");

  SessionSpec spec;
  spec.automaton = "min-prop:8";
  spec.scheduler = "uniform-single";
  spec.graph = "complete:10";
  spec.initial = "uniform:7";
  spec.seed = 5;
  Session session(spec);

  core::FaultCampaignOptions options;
  options.bursts = 4;
  options.nodes_per_burst = 2;
  options.recovery_budget = 10000;
  options.checkpoint_every = 1;
  options.checkpoint_path = path;
  util::Rng rng(17);
  // min-prop legitimacy: agreement (everyone at the propagated minimum).
  const auto result = core::run_fault_campaign(
      session.engine(),
      [](const core::Configuration& c) {
        for (const auto q : c) {
          if (q != c.front()) return false;
        }
        return true;
      },
      options, rng);

  // Baseline + one per burst; after >= 2 writes the previous checkpoint has
  // rotated to `.prev` and BOTH generations validate — the write_checkpoint
  // guarantee the campaign now inherits from the Session snapshot command.
  EXPECT_GE(result.checkpoints_written, 2u);
  EXPECT_NO_THROW(core::snapshot::restore_graph(core::snapshot::read_file(path)));
  EXPECT_NO_THROW(
      core::snapshot::restore_graph(core::snapshot::read_file(path + ".prev")));

  fs::remove(path);
  fs::remove(path + ".prev");
}

}  // namespace
}  // namespace ssau
