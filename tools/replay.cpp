// Replay driver: reconstructs a recorded run from snapshot + command log.
//
//   replay --snapshot=campaign.snap --log=campaign.cmdlog [--verbose]
//
// Reads the command log's header, restores a service::Session from the
// snapshot (falling back to <snapshot>.prev when the primary checkpoint is
// torn), re-applies every logged command through Session::apply — the same
// decode path and command surface the simulation service uses — and checks
// every recorded trajectory hash. Exit status: 0 when every hash check
// passes, 1 on a divergence, 2 on unusable inputs — so a replayed
// differential failure is scriptable.
//
// Automaton and scheduler specs come from the log header and are resolved
// by service::make_automaton / sched::make_scheduler (one factory, one
// grammar — see service/session.hpp for the spec strings).
#include <cstdio>
#include <exception>
#include <memory>
#include <string>

#include "core/command_log.hpp"
#include "core/snapshot.hpp"
#include "service/session.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ssau;
  util::Cli cli(argc, argv);
  const std::string snapshot_path = cli.get("snapshot", "");
  const std::string log_path = cli.get("log", "");
  const bool verbose = cli.get_bool("verbose", false);
  try {
    cli.reject_unread();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "replay: %s\n", e.what());
    return 2;
  }
  if (snapshot_path.empty() || log_path.empty()) {
    std::fprintf(stderr,
                 "usage: replay --snapshot=FILE --log=FILE [--verbose]\n");
    return 2;
  }

  try {
    const core::CommandLog log = core::read_command_log(log_path);
    if (log.truncated_tail) {
      std::fprintf(stderr,
                   "note: command log has a torn final record (crash tail); "
                   "replaying the complete prefix\n");
    }

    const auto bytes = core::snapshot::read_checkpoint(snapshot_path);
    const core::snapshot::Info info = core::snapshot::inspect(bytes);
    if (verbose) {
      std::printf("snapshot: n=%u m=%llu scheduler=%s seed=%llu t=%llu "
                  "rounds=%llu |Q|=%llu\n",
                  info.num_nodes,
                  static_cast<unsigned long long>(info.num_edges),
                  info.scheduler.c_str(),
                  static_cast<unsigned long long>(info.seed),
                  static_cast<unsigned long long>(info.time),
                  static_cast<unsigned long long>(info.rounds),
                  static_cast<unsigned long long>(info.state_count));
    }

    const auto session =
        service::Session::restore(bytes, service::spec_from_header(log.header));

    std::uint64_t commands_applied = 0;
    std::uint64_t steps = 0;
    std::uint64_t hash_checks = 0;
    std::uint64_t hash_mismatches = 0;
    for (const core::Command& cmd : log.commands) {
      const service::Result r = session->apply(cmd);
      if (cmd.type == core::CommandType::kExpectHash) {
        ++hash_checks;
        if (r.status == service::Status::kHashMismatch) ++hash_mismatches;
      } else if (!r.ok()) {
        // The old dispatch loop surfaced engine exceptions as "replay
        // failed"; typed results preserve that contract.
        std::fprintf(stderr, "replay failed: %s\n", r.error.c_str());
        return 2;
      }
      ++commands_applied;
      steps += r.steps;
    }

    const core::Engine& engine = session->engine();
    std::printf("replayed %llu commands (%llu steps): %llu/%llu hash checks "
                "passed; final t=%llu rounds=%llu hash=%016llx\n",
                static_cast<unsigned long long>(commands_applied),
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(hash_checks - hash_mismatches),
                static_cast<unsigned long long>(hash_checks),
                static_cast<unsigned long long>(engine.time()),
                static_cast<unsigned long long>(engine.rounds_completed()),
                static_cast<unsigned long long>(
                    core::engine_state_hash(engine)));
    if (hash_mismatches != 0) {
      std::fprintf(stderr, "replay DIVERGED: %llu hash mismatches\n",
                   static_cast<unsigned long long>(hash_mismatches));
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "replay failed: %s\n", e.what());
    return 2;
  }
}
