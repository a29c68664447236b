#include "core/snapshot.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "util/binary_io.hpp"

namespace ssau::core::snapshot {

namespace {

constexpr std::uint8_t kMagic[8] = {'S', 'S', 'A', 'U', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kEndianSentinel = 0x01020304;
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8;  // magic, version, endian, len
constexpr std::size_t kFooterSize = 4;              // CRC-32

/// RAII arm/disarm of the Graph::edges() lazy-rebuild tripwire around
/// serializer CSR walks.
class EdgesGuard {
 public:
  explicit EdgesGuard(const graph::Graph& g) : g_(g) {
    g_.debug_forbid_lazy_edges(true);
  }
  ~EdgesGuard() { g_.debug_forbid_lazy_edges(false); }
  EdgesGuard(const EdgesGuard&) = delete;
  EdgesGuard& operator=(const EdgesGuard&) = delete;

 private:
  const graph::Graph& g_;
};

/// Order-sensitive FNV-1a 64 over the normalized (u < v, sorted) edge
/// stream plus the node/edge counts — rederivable from any Graph without
/// touching the lazy edges() cache.
std::uint64_t hash_graph(const graph::Graph& g) {
  constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h = kOffset;
  const auto mix = [&h](std::uint64_t x, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h = (h ^ ((x >> (8 * i)) & 0xFFU)) * kPrime;
    }
  };
  mix(g.num_nodes(), 4);
  mix(g.num_edges(), 8);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::NodeId u : g.neighbors(v)) {
      if (u > v) {
        mix(v, 4);
        mix(u, 4);
      }
    }
  }
  return h;
}

/// Section 1 as this file's `version` lays it out.
EngineOptions read_snapshot_options(util::BinaryReader& r,
                                    std::uint32_t version) {
  return read_options(r, /*has_reorder_byte=*/version >= 3,
                      "snapshot options");
}

/// Section-3 trailer (v3+): the serialized user->internal relabelling, or an
/// empty vector for an identity layout (and for every pre-v3 file).
std::vector<graph::NodeId> read_permutation(util::BinaryReader& r,
                                            std::uint32_t version,
                                            graph::NodeId n) {
  std::vector<graph::NodeId> to_internal;
  if (version < 3 || r.u8() == 0) return to_internal;
  if (n > r.remaining() / 4) {
    throw util::SnapshotError("snapshot truncated: graph relabelling");
  }
  to_internal.resize(n);
  for (graph::NodeId u = 0; u < n; ++u) to_internal[u] = r.u32();
  return to_internal;
}

/// Validates the envelope (magic, endianness, version, length framing,
/// CRC) and returns a reader positioned over the payload. When
/// `version_out` is non-null it receives the file's wire version (within
/// [kMinSnapshotVersion, kSnapshotVersion]) so section-6 readers can handle
/// the v1 layout.
util::BinaryReader open_payload(std::span<const std::uint8_t> bytes,
                                std::uint32_t* version_out = nullptr) {
  if (bytes.size() < kHeaderSize + kFooterSize) {
    throw util::SnapshotError("snapshot truncated: shorter than header");
  }
  util::BinaryReader header(bytes);
  const auto magic = header.bytes(8);
  if (!std::equal(magic.begin(), magic.end(), kMagic)) {
    throw util::SnapshotError("bad snapshot magic");
  }
  const std::uint32_t version = header.u32();
  const std::uint32_t endian = header.u32();
  // The sentinel discriminates a byte-swapped (foreign big-endian) writer
  // from plain corruption — check it before trusting any multi-byte field.
  if (endian != kEndianSentinel) {
    if (endian == 0x04030201) {
      throw util::SnapshotError("snapshot endianness mismatch");
    }
    throw util::SnapshotError("snapshot endianness sentinel corrupt");
  }
  if (version < kMinSnapshotVersion || version > kSnapshotVersion) {
    throw util::SnapshotError("snapshot version skew: file has v" +
                              std::to_string(version) + ", reader accepts v" +
                              std::to_string(kMinSnapshotVersion) + "..v" +
                              std::to_string(kSnapshotVersion));
  }
  if (version_out != nullptr) *version_out = version;
  const std::uint64_t payload_len = header.u64();
  if (payload_len != bytes.size() - kHeaderSize - kFooterSize) {
    throw util::SnapshotError("snapshot truncated: payload length mismatch");
  }
  const auto body = bytes.first(bytes.size() - kFooterSize);
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i) {
    stored_crc |= static_cast<std::uint32_t>(bytes[body.size() +
                                                   static_cast<std::size_t>(i)])
                  << (8 * i);
  }
  if (util::crc32(body) != stored_crc) {
    throw util::SnapshotError("snapshot CRC mismatch");
  }
  return util::BinaryReader(bytes.subspan(kHeaderSize, payload_len));
}

}  // namespace

void write_options(util::BinaryWriter& w, const EngineOptions& o) {
  // The retired fast_path and compile bytes, as every default engine wrote
  // them.
  w.u8(1);
  w.u8(1);
  w.u32(o.thread_count);
  w.u64(o.sparse_activation_threshold);
  w.u8(static_cast<std::uint8_t>(o.signal_field));
  w.u8(static_cast<std::uint8_t>(o.reorder));
}

EngineOptions read_options(util::BinaryReader& r, bool has_reorder_byte,
                           const std::string& context) {
  r.skip(2);  // the retired fast_path and compile bytes
  EngineOptions o;
  o.thread_count = r.u32();
  o.sparse_activation_threshold = r.u64();
  const std::uint8_t mode = r.u8();
  if (mode > static_cast<std::uint8_t>(SignalFieldMode::kOff)) {
    throw util::SnapshotError(context + ": bad signal-field mode");
  }
  o.signal_field = static_cast<SignalFieldMode>(mode);
  if (has_reorder_byte) {
    const std::uint8_t reorder = r.u8();
    if (reorder > static_cast<std::uint8_t>(ReorderMode::kDegree)) {
      throw util::SnapshotError(context + ": bad reorder mode");
    }
    o.reorder = static_cast<ReorderMode>(reorder);
  } else {
    // Writers before the reorder byte never reordered; kOff (not the kAuto
    // default) keeps a restored engine from inventing a layout the state
    // arrays don't have.
    o.reorder = ReorderMode::kOff;
  }
  return o;
}

std::vector<std::uint8_t> save(const Engine& engine) {
  const graph::Graph& g = engine.graph();
  const EdgesGuard guard(g);

  util::BinaryWriter w;
  w.bytes(kMagic);
  w.u32(kSnapshotVersion);
  w.u32(kEndianSentinel);
  const std::size_t len_offset = w.tell();
  w.u64(0);  // payload length, patched below
  const std::size_t payload_start = w.tell();

  // 1. engine options
  write_options(w, engine.options());

  // 2. automaton identity
  w.u64(engine.automaton().state_count());
  w.u8(engine.automaton().deterministic() ? 1 : 0);

  // 3. graph — CSR walk (normalized, slack elided), never edges(). Pairs and
  // digest are in layout (internal) ids; the relabelling trailer carries the
  // user-id mapping of a cache-reordered graph.
  w.u32(g.num_nodes());
  w.u64(g.num_edges());
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const graph::NodeId u : g.neighbors(v)) {
      if (u > v) {
        w.u32(v);
        w.u32(u);
      }
    }
  }
  w.u64(hash_graph(g));
  const auto perm = g.permutation();
  w.u8(perm.empty() ? 0 : 1);
  for (const graph::NodeId p : perm) w.u32(p);

  // 4. scheduler
  w.str(engine.scheduler().name());
  const std::size_t blob_len_offset = w.tell();
  w.u64(0);
  const std::size_t blob_start = w.tell();
  engine.scheduler().save_state(w);
  w.patch_u64(blob_len_offset, w.tell() - blob_start);

  // 5. configuration
  w.u64(engine.config().size());
  for (const StateId q : engine.config()) w.u64(q);

  // 6. engine dynamic state
  engine.save_state(w);

  w.patch_u64(len_offset, w.tell() - payload_start);
  w.u32(util::crc32(w.buffer()));
  return w.take();
}

Info inspect(std::span<const std::uint8_t> bytes) {
  std::uint32_t version = kSnapshotVersion;
  auto r = open_payload(bytes, &version);
  Info info;
  info.options = read_snapshot_options(r, version);
  info.state_count = r.u64();
  info.deterministic = r.u8() != 0;
  info.num_nodes = r.u32();
  info.num_edges = r.u64();
  if (info.num_edges > r.remaining() / 8) {
    throw util::SnapshotError("snapshot truncated: graph edge list");
  }
  r.skip(static_cast<std::size_t>(info.num_edges) * 8);  // edge pairs
  r.skip(8);                                             // graph digest
  if (version >= 3 && r.u8() != 0) {
    if (info.num_nodes > r.remaining() / 4) {
      throw util::SnapshotError("snapshot truncated: graph relabelling");
    }
    r.skip(static_cast<std::size_t>(info.num_nodes) * 4);
  }
  info.scheduler = r.str();
  const std::uint64_t blob_len = r.u64();
  r.skip(static_cast<std::size_t>(blob_len));
  const std::uint64_t config_len = r.u64();
  if (config_len != info.num_nodes) {
    throw util::SnapshotError("snapshot configuration size mismatch");
  }
  r.skip(static_cast<std::size_t>(config_len) * 8);
  info.seed = r.u64();
  info.time = r.u64();
  info.rounds = r.u64();
  return info;
}

graph::Graph restore_graph(std::span<const std::uint8_t> bytes) {
  std::uint32_t version = kSnapshotVersion;
  auto r = open_payload(bytes, &version);
  read_snapshot_options(r, version);
  r.skip(8 + 1);  // automaton identity
  const graph::NodeId n = r.u32();
  const std::uint64_t m = r.u64();
  // Division form: m * 8 could wrap on an adversarial edge count.
  if (m > r.remaining() / 8) {
    throw util::SnapshotError("snapshot truncated: graph edge list");
  }
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  edges.reserve(static_cast<std::size_t>(m));
  for (std::uint64_t i = 0; i < m; ++i) {
    const graph::NodeId u = r.u32();
    const graph::NodeId v = r.u32();
    edges.push_back({u, v});
  }
  const std::uint64_t stored_digest = r.u64();
  std::vector<graph::NodeId> to_internal = read_permutation(r, version, n);
  try {
    graph::Graph g(n, std::move(edges));
    if (hash_graph(g) != stored_digest) {
      // A hash mismatch past a valid CRC means the serialized pair stream
      // was not normalized the way this reader normalizes — a format bug,
      // surfaced as corruption rather than silently accepted.
      throw util::SnapshotError("snapshot graph digest mismatch");
    }
    if (!to_internal.empty()) {
      // Reconstruct the inverse; bounds-check before the scatter (the wire
      // is untrusted), then let attach_permutation prove mutual inversion.
      std::vector<graph::NodeId> to_user(n, 0);
      for (graph::NodeId u = 0; u < n; ++u) {
        if (to_internal[u] >= n) {
          throw util::SnapshotError("snapshot graph relabelling out of range");
        }
        to_user[to_internal[u]] = u;
      }
      g.attach_permutation(std::move(to_internal), std::move(to_user));
    }
    return g;
  } catch (const std::invalid_argument& e) {
    throw util::SnapshotError(std::string("snapshot graph invalid: ") +
                              e.what());
  }
}

std::unique_ptr<Engine> restore(std::span<const std::uint8_t> bytes,
                                graph::Graph& g, const Automaton& alg,
                                sched::Scheduler& sched,
                                std::optional<EngineOptions> options_override) {
  std::uint32_t version = kSnapshotVersion;
  auto r = open_payload(bytes, &version);
  const EngineOptions saved_options = read_snapshot_options(r, version);

  const std::uint64_t state_count = r.u64();
  const bool deterministic = r.u8() != 0;
  if (state_count != alg.state_count() || deterministic != alg.deterministic()) {
    throw util::SnapshotError(
        "snapshot automaton mismatch: serialized |Q|=" +
        std::to_string(state_count) + (deterministic ? " det" : " rand") +
        ", caller automaton |Q|=" + std::to_string(alg.state_count()) +
        (alg.deterministic() ? " det" : " rand"));
  }

  const graph::NodeId n = r.u32();
  const std::uint64_t m = r.u64();
  if (n != g.num_nodes() || m != g.num_edges()) {
    throw util::SnapshotError("snapshot graph mismatch: serialized " +
                              std::to_string(n) + " nodes / " +
                              std::to_string(m) + " edges, caller graph " +
                              std::to_string(g.num_nodes()) + " / " +
                              std::to_string(g.num_edges()));
  }
  r.skip(static_cast<std::size_t>(m) * 8);
  const std::uint64_t stored_digest = r.u64();
  {
    const EdgesGuard guard(g);
    if (hash_graph(g) != stored_digest) {
      throw util::SnapshotError(
          "snapshot graph mismatch: edge digest differs (restore the graph "
          "via restore_graph, or pass the exact topology the snapshot was "
          "taken over)");
    }
  }
  {
    // The serialized state arrays are indexed by layout ids, and the
    // configuration below by user ids; both only reconcile if the caller
    // graph carries the exact relabelling the snapshot was taken under.
    const std::vector<graph::NodeId> to_internal =
        read_permutation(r, version, n);
    const auto caller_perm = g.permutation();
    if (to_internal.size() != caller_perm.size() ||
        !std::equal(to_internal.begin(), to_internal.end(),
                    caller_perm.begin())) {
      throw util::SnapshotError(
          "snapshot graph mismatch: node relabelling differs (restore the "
          "graph via restore_graph)");
    }
  }

  const std::string sched_name = r.str();
  if (sched_name != sched.name()) {
    throw util::SnapshotError("snapshot scheduler mismatch: serialized '" +
                              sched_name + "', caller scheduler '" +
                              sched.name() + "'");
  }
  const std::uint64_t blob_len = r.u64();
  const auto blob_bytes = r.bytes(static_cast<std::size_t>(blob_len));

  const std::uint64_t config_len = r.u64();
  if (config_len != n) {
    throw util::SnapshotError("snapshot configuration size mismatch");
  }
  Configuration config(static_cast<std::size_t>(config_len));
  for (auto& q : config) {
    q = r.u64();
    if (q >= state_count) {
      throw util::SnapshotError("snapshot configuration state out of range");
    }
  }

  // The caller's scheduler is the only collaborator restore mutates. Its
  // prior state is saved so a failure in any later stage (engine state,
  // trailing bytes) can roll it back — a failed restore leaves the caller's
  // objects exactly as they were.
  util::BinaryWriter prior_sched_state;
  sched.save_state(prior_sched_state);
  try {
    util::BinaryReader blob(blob_bytes);
    sched.load_state(blob);
    if (!blob.done()) {
      throw util::SnapshotError("scheduler state blob not fully consumed");
    }

    // The layout comes from the wire: the caller graph (relabelling
    // included) already IS what the serialized state arrays are indexed by,
    // so the constructor must never re-reorder it here — whatever the
    // snapshotted or overriding options say.
    EngineOptions ctor_options = options_override.value_or(saved_options);
    ctor_options.reorder = ReorderMode::kOff;
    // The seed passed here is a placeholder: load_state overwrites the seed
    // and every rng stream with the serialized states.
    auto engine = std::make_unique<Engine>(g, alg, sched, std::move(config),
                                           /*seed=*/0, ctor_options);
    engine->load_state(r, version);
    if (!r.done()) {
      throw util::SnapshotError("snapshot has trailing bytes");
    }
    return engine;
  } catch (...) {
    try {
      util::BinaryReader rollback(prior_sched_state.buffer());
      sched.load_state(rollback);
    } catch (const util::SnapshotError&) {
      // Rolling back state the scheduler itself just saved cannot fail for
      // the in-tree schedulers; if a custom one does, propagating the
      // original error matters more.
    }
    throw;
  }
}

void write_file(std::span<const std::uint8_t> bytes, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) {
      throw util::SnapshotError("cannot open '" + tmp + "' for writing");
    }
    os.write(reinterpret_cast<const char*>(bytes.data()),
             static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      throw util::SnapshotError("write failed for '" + tmp + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw util::SnapshotError("rename '" + tmp + "' -> '" + path +
                              "' failed: " + ec.message());
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw util::SnapshotError("cannot open snapshot '" + path + "'");
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  if (is.bad()) {
    throw util::SnapshotError("read failed for snapshot '" + path + "'");
  }
  open_payload(bytes);  // full envelope validation; result discarded
  return bytes;
}

void write_checkpoint(const Engine& engine, const std::string& path) {
  const auto bytes = save(engine);
  std::error_code ec;
  const bool have_previous = std::filesystem::exists(path, ec);
  // A transient stat failure must not be read as "no previous checkpoint":
  // that would skip rotation and overwrite a valid checkpoint via rename,
  // breaking the never-zero-valid-checkpoints guarantee.
  if (ec) {
    throw util::SnapshotError("checkpoint stat of '" + path +
                              "' failed: " + ec.message());
  }
  if (have_previous) {
    std::filesystem::rename(path, path + ".prev", ec);
    if (ec) {
      throw util::SnapshotError("checkpoint rotation '" + path + "' -> '" +
                                path + ".prev' failed: " + ec.message());
    }
  }
  write_file(bytes, path);
}

std::vector<std::uint8_t> read_checkpoint(const std::string& path) {
  std::string primary_error;
  try {
    return read_file(path);
  } catch (const util::SnapshotError& e) {
    primary_error = e.what();
  }
  try {
    return read_file(path + ".prev");
  } catch (const util::SnapshotError& e) {
    throw util::SnapshotError("no valid checkpoint: '" + path + "' (" +
                              primary_error + "); '" + path + ".prev' (" +
                              e.what() + ")");
  }
}

}  // namespace ssau::core::snapshot
