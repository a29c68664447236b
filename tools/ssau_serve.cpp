// ssau_serve: line-protocol driver for SimulationService.
//
//   ssau_serve [--script=FILE] [--workers=N] [--queue=N] [--quiet]
//
// Reads newline-delimited commands (stdin by default), submits them to a
// SimulationService, and prints one result line per command in submission
// order — an in-process load-testing surface for CI, no network stack.
//
// Grammar (one command per line; blank lines and `#` comments ignored):
//
//   open <sid> automaton=SPEC scheduler=NAME graph=GSPEC [seed=N]
//        [subset-p=F] [burst=N] [init=INIT] [record=PATH]
//   step <sid> [count]
//   run-rounds <sid> <rounds>
//   inject-state <sid> <node> <state>
//   inject-config <sid> uniform:<q>
//   delta <sid> [remove=u-v,...] [add=u-v,...]   (at least one of the two)
//   snapshot <sid> <path>
//   config <sid>
//   stats <sid>
//   hash <sid>
//   expect-hash <sid> <hex-digest>
//   drain
//
// <sid> is a caller-chosen session name mapped to a service session id by
// `open`. Every verb takes exactly the tokens shown, and `open` and `delta`
// take only the keys shown, each at most once. Every number (flags
// included) must be one whole token that fits its type — decimal, except
// the hex digest. A line that breaks any of these is a protocol error naming
// its line. Exit status: 0 all commands ok, 1 any command
// produced a non-ok Result (a well-formed node id beyond the graph, say),
// 2 protocol/usage errors.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <future>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "service/service.hpp"
#include "util/cli.hpp"
#include "util/strings.hpp"

namespace {

using namespace ssau;

struct ProtocolError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// `token` as a T (util::parse_number), or a ProtocolError naming `what`.
template <typename T>
T number(const std::string& token, const char* what, int base = 10) {
  if (const auto value = util::parse_number<T>(token, base)) return *value;
  throw ProtocolError(std::string("malformed ") + what + " '" + token + "'");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  return tokens;
}

/// Splits "key=value" tokens into a map. Bare tokens, keys outside `known`
/// and repeated keys are rejected: a typo such as `sed=5` must not fall back
/// to the default seed.
std::unordered_map<std::string, std::string> keyvals(
    const std::vector<std::string>& tokens, std::size_t from,
    std::initializer_list<std::string_view> known) {
  std::unordered_map<std::string, std::string> kv;
  for (std::size_t i = from; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ProtocolError("expected key=value, got '" + tokens[i] + "'");
    }
    std::string key = tokens[i].substr(0, eq);
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw ProtocolError("unknown key '" + key + "'");
    }
    if (!kv.emplace(std::move(key), tokens[i].substr(eq + 1)).second) {
      throw ProtocolError("repeated key in '" + tokens[i] + "'");
    }
  }
  return kv;
}

/// Parses "u-v,u-v,..." into an edge list.
std::vector<std::pair<graph::NodeId, graph::NodeId>> parse_edges(
    const std::string& spec) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  std::istringstream in(spec);
  std::string pair;
  while (std::getline(in, pair, ',')) {
    const std::size_t dash = pair.find('-');
    if (dash == std::string::npos) {
      throw ProtocolError("expected u-v edge, got '" + pair + "'");
    }
    edges.push_back({number<graph::NodeId>(pair.substr(0, dash), "node id"),
                     number<graph::NodeId>(pair.substr(dash + 1), "node id")});
  }
  return edges;
}

struct PendingLine {
  std::size_t line_no;
  std::string text;
  std::future<service::Result> future;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const std::string script = cli.get("script", "");
  const bool quiet = cli.get_bool("quiet", false);
  service::ServiceOptions options;
  try {
    options.workers = number<unsigned>(cli.get("workers", "0"), "--workers");
    options.queue_capacity =
        number<std::size_t>(cli.get("queue", "4096"), "--queue");
    cli.reject_unread();
  } catch (const std::exception& e) {  // a malformed number or unknown flag
    std::fprintf(stderr, "ssau_serve: %s\n", e.what());
    return 2;
  }

  std::ifstream file;
  if (!script.empty()) {
    file.open(script);
    if (!file) {
      std::fprintf(stderr, "ssau_serve: cannot open script '%s'\n",
                   script.c_str());
      return 2;
    }
  }
  std::istream& in = script.empty() ? std::cin : file;

  service::SimulationService svc(options);
  std::unordered_map<std::string, service::SimulationService::SessionId> ids;
  std::unordered_map<std::string, std::string> record_paths;
  std::vector<PendingLine> pending;
  bool any_failed = false;

  const auto flush_pending = [&] {
    for (auto& p : pending) {
      const service::Result r = p.future.get();
      if (!r.ok()) any_failed = true;
      if (!quiet || !r.ok()) {
        std::printf("%zu %s status=%s", p.line_no, p.text.c_str(),
                    service::status_name(r.status));
        if (r.steps != 0) {
          std::printf(" steps=%llu",
                      static_cast<unsigned long long>(r.steps));
        }
        if (r.hash != 0) {
          std::printf(" hash=%016llx",
                      static_cast<unsigned long long>(r.hash));
        }
        if (!r.config.empty()) {
          std::printf(" |config|=%zu", r.config.size());
        }
        if (r.stats.nodes != 0) {
          std::printf(" n=%u m=%llu t=%llu rounds=%llu", r.stats.nodes,
                      static_cast<unsigned long long>(r.stats.edges),
                      static_cast<unsigned long long>(r.stats.time),
                      static_cast<unsigned long long>(r.stats.rounds));
        }
        if (!r.error.empty()) std::printf(" error=\"%s\"", r.error.c_str());
        std::printf("\n");
      }
    }
    pending.clear();
  };

  const auto session_id = [&](const std::string& sid) {
    const auto it = ids.find(sid);
    if (it == ids.end()) throw ProtocolError("unknown session '" + sid + "'");
    return it->second;
  };

  std::string line;
  std::size_t line_no = 0;
  try {
    while (std::getline(in, line)) {
      ++line_no;
      const auto tokens = tokenize(line);
      if (tokens.empty() || tokens[0][0] == '#') continue;
      const std::string& verb = tokens[0];

      if (verb == "drain" && tokens.size() == 1) {
        svc.drain();
        flush_pending();
        continue;
      }
      if (tokens.size() < 2) {
        throw ProtocolError("'" + verb + "' needs a session id");
      }
      const std::string& sid = tokens[1];

      if (verb == "open") {
        const auto kv =
            keyvals(tokens, 2,
                    {"automaton", "scheduler", "graph", "init", "seed",
                     "subset-p", "burst", "record"});
        service::SessionSpec spec;
        const auto get = [&](const char* key, const std::string& fallback) {
          const auto it = kv.find(key);
          return it == kv.end() ? fallback : it->second;
        };
        spec.automaton = get("automaton", spec.automaton);
        spec.scheduler = get("scheduler", spec.scheduler);
        spec.graph = get("graph", spec.graph);
        spec.initial = get("init", spec.initial);
        spec.seed = number<std::uint64_t>(get("seed", "0"), "seed");
        spec.subset_p = number<double>(get("subset-p", "0.5"), "subset-p");
        spec.burst = number<unsigned>(get("burst", "4"), "burst");
        const auto id = svc.open_session(spec);
        ids[sid] = id;
        const std::string record = get("record", "");
        if (!record.empty()) {
          // Recording mutates session state: start it before any command is
          // queued for the session (open is synchronous, so this is safe).
          svc.session(id).start_recording(record);
          record_paths[sid] = record;
        }
        if (!quiet) {
          std::printf("%zu open %s status=ok id=%llu\n", line_no, sid.c_str(),
                      static_cast<unsigned long long>(id));
        }
        continue;
      }

      service::Command command;
      if (verb == "step" && (tokens.size() == 2 || tokens.size() == 3)) {
        command = service::cmd::step(
            tokens.size() > 2 ? number<std::uint64_t>(tokens[2], "step count")
                              : 1);
      } else if (verb == "run-rounds" && tokens.size() == 3) {
        command = service::cmd::run_rounds(
            number<std::uint64_t>(tokens[2], "round count"));
      } else if (verb == "inject-state" && tokens.size() == 4) {
        command = service::cmd::inject_state(
            number<core::NodeId>(tokens[2], "node id"),
            number<core::StateId>(tokens[3], "state"));
      } else if (verb == "inject-config" && tokens.size() == 3) {
        if (tokens[2].rfind("uniform:", 0) != 0) {
          throw ProtocolError("inject-config expects uniform:<q>");
        }
        const auto q = number<core::StateId>(tokens[2].substr(8), "state");
        const auto id = session_id(sid);
        // Sizing the configuration needs the node count; engine() reads are
        // only safe when the session is idle, so drain first.
        svc.drain();
        flush_pending();
        const core::Configuration config(
            svc.session(id).engine().graph().num_nodes(), q);
        command = service::cmd::inject_configuration(config);
      } else if (verb == "delta" && tokens.size() > 2) {
        const auto kv = keyvals(tokens, 2, {"remove", "add"});
        graph::TopologyDelta delta;
        if (const auto it = kv.find("remove"); it != kv.end()) {
          delta.remove = parse_edges(it->second);
        }
        if (const auto it = kv.find("add"); it != kv.end()) {
          delta.add = parse_edges(it->second);
        }
        command = service::cmd::topology_delta(std::move(delta));
      } else if (verb == "snapshot" && tokens.size() == 3) {
        command = service::cmd::snapshot(tokens[2]);
      } else if (verb == "config" && tokens.size() == 2) {
        command = service::cmd::query_config();
      } else if (verb == "stats" && tokens.size() == 2) {
        command = service::cmd::query_stats();
      } else if (verb == "hash" && tokens.size() == 2) {
        command = service::cmd::query_hash();
      } else if (verb == "expect-hash" && tokens.size() == 3) {
        command = service::cmd::expect_hash(
            number<std::uint64_t>(tokens[2], "hex digest", 16));
      } else {
        throw ProtocolError("unknown or malformed command '" + line + "'");
      }

      PendingLine p;
      p.line_no = line_no;
      p.text = verb + " " + sid;
      p.future = svc.submit(session_id(sid), std::move(command));
      pending.push_back(std::move(p));
    }

    svc.drain();
    flush_pending();
    // Flush logs before shutdown so recorded files are complete on exit.
    for (const auto& [sid, path] : record_paths) {
      svc.session(ids[sid]).stop_recording();
    }
    svc.shutdown();
  } catch (const ProtocolError& e) {
    std::fprintf(stderr, "ssau_serve: line %zu: %s\n", line_no, e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ssau_serve: %s\n", e.what());
    return 2;
  }

  return any_failed ? 1 : 0;
}
