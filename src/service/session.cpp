#include "service/session.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sync/simple_sync_algs.hpp"
#include "unison/alg_au.hpp"
#include "unison/baselines.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace ssau::service {

namespace {

// Independent per-purpose rng streams forked off SessionSpec::seed, so the
// graph draw never perturbs the initial-configuration draw (Rng::stream is a
// pure function of (seed, id)).
constexpr std::uint64_t kGraphStream = 0x6772'6170'6800'0001ULL;
constexpr std::uint64_t kInitStream = 0x696E'6974'0000'0002ULL;

/// parts[i] of `spec` as a T, parsed strictly (util::parse_number);
/// anything else is a malformed `kind` spec (std::invalid_argument).
template <typename T>
T spec_number(const std::vector<std::string>& parts, std::size_t i,
              const std::string& spec, const char* kind) {
  if (const auto value = util::parse_number<T>(parts.at(i))) return *value;
  throw std::invalid_argument(std::string("malformed ") + kind +
                              " spec: " + spec);
}

std::vector<std::string> split_spec(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    if (colon == std::string::npos) {
      parts.push_back(spec.substr(start));
      return parts;
    }
    parts.push_back(spec.substr(start, colon - start));
    start = colon + 1;
  }
}

core::Configuration make_initial(const std::string& spec,
                                 const core::Automaton& alg,
                                 graph::NodeId n, std::uint64_t seed) {
  const core::StateId states = alg.state_count();
  core::Configuration config(n);
  if (spec == "random") {
    util::Rng rng = util::Rng::stream(seed, kInitStream);
    for (auto& q : config) q = rng.below(states);
    return config;
  }
  const auto parts = split_spec(spec);
  if (parts[0] == "uniform" && parts.size() == 2) {
    const auto q0 = spec_number<core::StateId>(parts, 1, spec, "initial");
    if (q0 >= states) {
      throw std::invalid_argument("initial state " + parts[1] +
                                  " out of range for |Q|=" +
                                  std::to_string(states));
    }
    config.assign(n, q0);
    return config;
  }
  throw std::invalid_argument("unknown initial spec: " + spec);
}

}  // namespace

namespace cmd {

Command step(std::uint64_t count) {
  Command c;
  c.type = CommandType::kSteps;
  c.count = count;
  return c;
}

Command run_rounds(std::uint64_t rounds) {
  Command c;
  c.type = CommandType::kRunRounds;
  c.count = rounds;
  return c;
}

Command inject_state(core::NodeId v, core::StateId q) {
  Command c;
  c.type = CommandType::kInjectState;
  c.node = v;
  c.state = q;
  return c;
}

Command inject_configuration(core::Configuration config) {
  Command c;
  c.type = CommandType::kInjectConfiguration;
  c.config = std::move(config);
  return c;
}

Command topology_delta(graph::TopologyDelta delta) {
  Command c;
  c.type = CommandType::kTopologyDelta;
  c.delta = std::move(delta);
  return c;
}

Command snapshot(std::string path) {
  Command c;
  c.type = CommandType::kSnapshot;
  c.path = std::move(path);
  return c;
}

Command query_config() {
  Command c;
  c.type = CommandType::kQueryConfig;
  return c;
}

Command query_stats() {
  Command c;
  c.type = CommandType::kQueryStats;
  return c;
}

Command query_hash() {
  Command c;
  c.type = CommandType::kQueryHash;
  return c;
}

Command expect_hash(std::uint64_t hash) {
  Command c;
  c.type = CommandType::kExpectHash;
  c.hash = hash;
  return c;
}

}  // namespace cmd

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kUnsupported: return "unsupported";
    case Status::kInvalidArgument: return "invalid-argument";
    case Status::kHashMismatch: return "hash-mismatch";
    case Status::kIoError: return "io-error";
    case Status::kQuarantined: return "quarantined";
    case Status::kError: return "error";
  }
  return "unknown";
}

std::unique_ptr<core::Automaton> make_automaton(const std::string& spec) {
  const auto parts = split_spec(spec);
  const auto arg = [&](std::size_t i) {
    return spec_number<int>(parts, i, spec, "automaton");
  };
  if (parts[0] == "alg-au" && parts.size() == 2) {
    return std::make_unique<unison::AlgAu>(arg(1));
  }
  if (parts[0] == "reset-unison" && parts.size() == 3) {
    return std::make_unique<unison::ResetUnison>(arg(1), arg(2));
  }
  if (parts[0] == "min-prop" && parts.size() == 2) {
    const auto m = spec_number<unsigned>(parts, 1, spec, "automaton");
    if (m == 0) throw std::invalid_argument("min-prop needs |Q| >= 1: " + spec);
    return std::make_unique<sync::MinPropagation>(m);
  }
  if (parts[0] == "alg-mis" && parts.size() == 2) {
    return std::make_unique<mis::AlgMis>(
        mis::AlgMisParams{.diameter_bound = arg(1)});
  }
  if (parts[0] == "alg-le" && parts.size() == 2) {
    return std::make_unique<le::AlgLe>(le::AlgLeParams{.diameter_bound = arg(1)});
  }
  throw std::invalid_argument("unknown automaton spec: " + spec);
}

graph::Graph make_graph(const std::string& spec, std::uint64_t seed) {
  const auto parts = split_spec(spec);
  const auto n = [&](std::size_t i) {
    return spec_number<graph::NodeId>(parts, i, spec, "graph");
  };
  const auto p = [&](std::size_t i) {
    return spec_number<double>(parts, i, spec, "graph");
  };
  util::Rng rng = util::Rng::stream(seed, kGraphStream);
  if (parts[0] == "random" && parts.size() == 3) {
    return graph::random_connected(n(1), p(2), rng);
  }
  if (parts[0] == "complete" && parts.size() == 2) return graph::complete(n(1));
  if (parts[0] == "cycle" && parts.size() == 2) return graph::cycle(n(1));
  if (parts[0] == "path" && parts.size() == 2) return graph::path(n(1));
  if (parts[0] == "star" && parts.size() == 2) return graph::star(n(1));
  if (parts[0] == "grid" && parts.size() == 3) return graph::grid(n(1), n(2));
  if (parts[0] == "torus" && parts.size() == 3) return graph::torus(n(1), n(2));
  if (parts[0] == "damaged-clique" && parts.size() == 3) {
    return graph::damaged_clique(n(1), p(2), rng);
  }
  if (parts[0] == "ring-of-cliques" && parts.size() == 3) {
    return graph::ring_of_cliques(n(1), n(2));
  }
  throw std::invalid_argument("unknown graph spec: " + spec);
}

SessionSpec spec_from_header(const core::ReplayHeader& header) {
  SessionSpec spec;
  spec.automaton = header.automaton;
  spec.scheduler = header.scheduler;
  spec.subset_p = header.subset_p;
  spec.burst = header.burst;
  spec.seed = header.seed;
  spec.options = header.options;
  return spec;
}

Session::Session(const SessionSpec& spec) : spec_(spec) {
  graph_ = std::make_unique<graph::Graph>(make_graph(spec.graph, spec.seed));
  automaton_ = make_automaton(spec.automaton);
  scheduler_ = sched::make_scheduler(spec.scheduler, *graph_, spec.subset_p,
                                     spec.burst);
  core::Configuration initial = make_initial(spec.initial, *automaton_,
                                             graph_->num_nodes(), spec.seed);
  // *graph_ is a non-const lvalue, so the churn-capable Engine overload binds.
  owned_engine_ = std::make_unique<core::Engine>(
      *graph_, *automaton_, *scheduler_, std::move(initial), spec.seed,
      spec.options);
  engine_ = owned_engine_.get();
}

Session::Session(core::Engine& engine) : engine_(&engine) {}

std::unique_ptr<Session> Session::restore(
    std::span<const std::uint8_t> snapshot_bytes, const SessionSpec& spec) {
  std::unique_ptr<Session> s(new Session());
  s->spec_ = spec;
  s->graph_ = std::make_unique<graph::Graph>(
      core::snapshot::restore_graph(snapshot_bytes));
  s->automaton_ = make_automaton(spec.automaton);
  s->scheduler_ = sched::make_scheduler(spec.scheduler, *s->graph_,
                                        spec.subset_p, spec.burst);
  // snapshot::restore takes the graph by non-const reference, so restored
  // sessions are churn-capable — replay logs may contain TopologyDelta.
  s->owned_engine_ = core::snapshot::restore(snapshot_bytes, *s->graph_,
                                             *s->automaton_, *s->scheduler_);
  s->engine_ = s->owned_engine_.get();
  return s;
}

std::unique_ptr<Session> Session::restore_checkpoint(const std::string& path,
                                                     const SessionSpec& spec) {
  return restore(core::snapshot::read_checkpoint(path), spec);
}

Result Session::apply(const Command& command) {
  Result r;
  try {
    switch (command.type) {
      case CommandType::kSteps:
        for (std::uint64_t i = 0; i < command.count; ++i) engine_->step();
        r.steps = command.count;
        if (log_) log_->record_steps(command.count);
        break;
      case CommandType::kRunRounds: {
        const core::Time before = engine_->time();
        engine_->run_rounds(command.count);
        r.steps = engine_->time() - before;
        // Logged as the kSteps it actually executed — replay re-runs the
        // exact step count, independent of round-boundary bookkeeping.
        if (log_) log_->record_steps(r.steps);
        break;
      }
      case CommandType::kInjectState:
        engine_->inject_state(command.node, command.state);
        if (log_) log_->record_inject_state(command.node, command.state);
        break;
      case CommandType::kInjectConfiguration:
        engine_->inject_configuration(command.config);
        if (log_) log_->record_inject_configuration(command.config);
        break;
      case CommandType::kTopologyDelta:
        // The capability check the redesign promises: a const-graph engine
        // yields a typed result, not the ctor-overload logic_error.
        if (!engine_->churn_capable()) {
          r.status = Status::kUnsupported;
          r.error =
              "topology delta on a const-graph session (engine built "
              "without the churn capability)";
          break;
        }
        engine_->apply_topology_delta(command.delta);
        if (log_) log_->record_topology_delta(command.delta);
        break;
      case CommandType::kSnapshot:
        if (command.path.empty()) {
          r.status = Status::kInvalidArgument;
          r.error = "snapshot command requires a checkpoint path";
          break;
        }
        core::snapshot::write_checkpoint(*engine_, command.path);
        break;
      case CommandType::kQueryConfig:
        r.config = engine_->config();
        break;
      case CommandType::kQueryStats: {
        const graph::Graph& g = engine_->graph();
        r.stats.nodes = g.num_nodes();
        r.stats.edges = g.num_edges();
        r.stats.time = engine_->time();
        r.stats.rounds = engine_->rounds_completed();
        for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
          r.stats.activations += engine_->activation_count(v);
        }
        r.stats.churn_capable = engine_->churn_capable();
        break;
      }
      case CommandType::kQueryHash:
        r.hash = core::engine_state_hash(*engine_);
        if (log_) log_->record_expect_hash(*engine_);
        break;
      case CommandType::kExpectHash: {
        r.hash = core::engine_state_hash(*engine_);
        if (r.hash != command.hash) {
          r.status = Status::kHashMismatch;
          r.error = "engine state hash mismatch: expected " +
                    std::to_string(command.hash) + ", observed " +
                    std::to_string(r.hash);
        }
        if (log_) log_->record_expect_hash(*engine_);
        break;
      }
      default:
        r.status = Status::kInvalidArgument;
        r.error = "unknown command type " +
                  std::to_string(static_cast<int>(command.type));
        break;
    }
  } catch (const util::SnapshotError& e) {
    // Checkpoint / log I/O — engine state is intact.
    r.status = Status::kIoError;
    r.error = e.what();
  } catch (const std::invalid_argument& e) {
    // Engine validation (before any mutation). Must precede logic_error:
    // invalid_argument derives from it.
    r.status = Status::kInvalidArgument;
    r.error = e.what();
  } catch (const std::logic_error& e) {
    r.status = Status::kUnsupported;
    r.error = e.what();
  } catch (const std::exception& e) {
    // Escaped mid-command: the engine may be half-stepped. The service
    // quarantines the session on this status.
    r.status = Status::kError;
    r.error = e.what();
  }
  return r;
}

void Session::start_recording(const std::string& log_path) {
  if (!spec_) {
    throw std::logic_error(
        "recording requires an owning session: a borrowed engine has no "
        "factory specs to stamp into the replay header");
  }
  core::ReplayHeader header;
  header.automaton = spec_->automaton;
  header.scheduler = spec_->scheduler;
  header.subset_p = spec_->subset_p;
  header.burst = spec_->burst;
  header.seed = spec_->seed;
  header.options = engine_->options();
  log_ = std::make_unique<core::CommandLogWriter>(log_path, header);
}

void Session::stop_recording() {
  if (!log_) return;
  log_->flush();
  log_.reset();
}

}  // namespace ssau::service
