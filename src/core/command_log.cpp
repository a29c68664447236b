#include "core/command_log.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <stdexcept>

#include "core/snapshot.hpp"
#include "util/binary_io.hpp"

namespace ssau::core {

namespace {

constexpr std::uint8_t kLogMagic[8] = {'S', 'S', 'A', 'U', 'L', 'O', 'G', '1'};
// v2 appends the reorder byte to the header's engine options; v1 logs (no
// byte) replay with reorder = kOff — what their recording engines ran.
constexpr std::uint32_t kLogVersion = 2;
constexpr std::uint32_t kMinLogVersion = 1;
constexpr std::uint32_t kEndianSentinel = 0x01020304;
constexpr std::uint8_t kHeaderRecord = 0;  // reserved type for the header

void write_pairs(util::BinaryWriter& w,
                 const std::vector<std::pair<graph::NodeId, graph::NodeId>>& p) {
  w.u64(p.size());
  for (const auto& [u, v] : p) {
    w.u32(u);
    w.u32(v);
  }
}

std::vector<std::pair<graph::NodeId, graph::NodeId>> read_pairs(
    util::BinaryReader& r) {
  const std::uint64_t count = r.u64();
  if (count > r.remaining() / 8) {
    throw util::SnapshotError("command log record: truncated edge pair list");
  }
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;
  out.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const graph::NodeId u = r.u32();
    const graph::NodeId v = r.u32();
    out.push_back({u, v});
  }
  return out;
}

}  // namespace

std::uint64_t engine_state_hash(const Engine& engine) {
  util::BinaryWriter w;
  w.u64(engine.config().size());
  for (const StateId q : engine.config()) w.u64(q);
  engine.save_state(w);
  constexpr std::uint64_t kOffset = 0xCBF29CE484222325ULL;
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  std::uint64_t h = kOffset;
  for (const std::uint8_t byte : w.buffer()) {
    h = (h ^ byte) * kPrime;
  }
  return h;
}

CommandLogWriter::CommandLogWriter(const std::string& path,
                                   const ReplayHeader& header)
    : os_(path, std::ios::binary | std::ios::trunc), path_(path) {
  if (!os_) {
    throw util::SnapshotError("cannot open command log '" + path +
                              "' for writing");
  }
  util::BinaryWriter preamble;
  preamble.bytes(kLogMagic);
  preamble.u32(kLogVersion);
  preamble.u32(kEndianSentinel);
  os_.write(reinterpret_cast<const char*>(preamble.buffer().data()),
            static_cast<std::streamsize>(preamble.buffer().size()));

  util::BinaryWriter body;
  body.u8(kHeaderRecord);
  body.str(header.automaton);
  body.str(header.scheduler);
  body.f64(header.subset_p);
  body.u32(header.burst);
  body.u64(header.seed);
  snapshot::write_options(body, header.options);
  write_record(body.buffer());
}

CommandLogWriter::~CommandLogWriter() {
  try {
    flush();
  } catch (const util::SnapshotError&) {
    // Destructor: the stream already failed; nothing recoverable here.
  }
}

void CommandLogWriter::write_record(const std::vector<std::uint8_t>& body) {
  // The frame length is u32; silently truncating an oversized body (e.g. an
  // inject-configuration record for a >512M-node graph) would produce a log
  // the reader rejects as CRC-corrupt. Fail here, at write time, instead.
  if (body.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw util::SnapshotError("command log record too large for '" + path_ +
                              "': " + std::to_string(body.size()) + " bytes");
  }
  util::BinaryWriter frame;
  frame.u32(static_cast<std::uint32_t>(body.size()));
  frame.u32(util::crc32(body));
  frame.bytes(body);
  os_.write(reinterpret_cast<const char*>(frame.buffer().data()),
            static_cast<std::streamsize>(frame.buffer().size()));
  os_.flush();
  if (!os_) {
    throw util::SnapshotError("command log write failed for '" + path_ + "'");
  }
}

void CommandLogWriter::flush_pending_steps() {
  if (pending_steps_ == 0) return;
  util::BinaryWriter body;
  body.u8(static_cast<std::uint8_t>(CommandType::kSteps));
  body.u64(pending_steps_);
  pending_steps_ = 0;
  write_record(body.buffer());
}

void CommandLogWriter::record_steps(std::uint64_t count) {
  pending_steps_ += count;
}

void CommandLogWriter::record_inject_state(NodeId v, StateId q) {
  flush_pending_steps();
  util::BinaryWriter body;
  body.u8(static_cast<std::uint8_t>(CommandType::kInjectState));
  body.u32(v);
  body.u64(q);
  write_record(body.buffer());
}

void CommandLogWriter::record_inject_configuration(const Configuration& config) {
  flush_pending_steps();
  util::BinaryWriter body;
  body.u8(static_cast<std::uint8_t>(CommandType::kInjectConfiguration));
  body.u64(config.size());
  for (const StateId q : config) body.u64(q);
  write_record(body.buffer());
}

void CommandLogWriter::record_topology_delta(const graph::TopologyDelta& delta) {
  flush_pending_steps();
  util::BinaryWriter body;
  body.u8(static_cast<std::uint8_t>(CommandType::kTopologyDelta));
  write_pairs(body, delta.remove);
  write_pairs(body, delta.add);
  write_record(body.buffer());
}

void CommandLogWriter::record_expect_hash(const Engine& engine) {
  flush_pending_steps();
  util::BinaryWriter body;
  body.u8(static_cast<std::uint8_t>(CommandType::kExpectHash));
  body.u64(engine_state_hash(engine));
  write_record(body.buffer());
}

void CommandLogWriter::flush() {
  flush_pending_steps();
  os_.flush();
  if (!os_) {
    throw util::SnapshotError("command log flush failed for '" + path_ + "'");
  }
}

CommandLog read_command_log(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw util::SnapshotError("cannot open command log '" + path + "'");
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                                  std::istreambuf_iterator<char>());
  if (is.bad()) {
    throw util::SnapshotError("read failed for command log '" + path + "'");
  }

  constexpr std::size_t kPreamble = 8 + 4 + 4;
  if (bytes.size() < kPreamble) {
    throw util::SnapshotError("command log truncated: shorter than preamble");
  }
  util::BinaryReader pre(bytes);
  const auto magic = pre.bytes(8);
  if (!std::equal(magic.begin(), magic.end(), kLogMagic)) {
    throw util::SnapshotError("bad command log magic");
  }
  const std::uint32_t version = pre.u32();
  const std::uint32_t endian = pre.u32();
  if (endian != kEndianSentinel) {
    throw util::SnapshotError("command log endianness mismatch");
  }
  if (version < kMinLogVersion || version > kLogVersion) {
    throw util::SnapshotError("command log version skew: file has v" +
                              std::to_string(version) + ", reader accepts v" +
                              std::to_string(kMinLogVersion) + "..v" +
                              std::to_string(kLogVersion));
  }

  CommandLog log;
  bool saw_header = false;
  std::size_t pos = kPreamble;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      log.truncated_tail = true;  // sheared mid-frame
      break;
    }
    util::BinaryReader frame(
        std::span<const std::uint8_t>(bytes).subspan(pos));
    const std::uint32_t len = frame.u32();
    const std::uint32_t stored_crc = frame.u32();
    if (len > frame.remaining()) {
      log.truncated_tail = true;  // sheared mid-body
      break;
    }
    const auto body_span = frame.bytes(len);
    if (util::crc32(body_span) != stored_crc) {
      // The frame is COMPLETE but its bytes are wrong: corruption, not a
      // torn append — refuse rather than silently replay garbage.
      throw util::SnapshotError("command log record CRC mismatch");
    }
    pos += 8 + len;

    util::BinaryReader body(body_span);
    const std::uint8_t type = body.u8();
    if (!saw_header) {
      if (type != kHeaderRecord) {
        throw util::SnapshotError("command log missing header record");
      }
      log.header.automaton = body.str();
      log.header.scheduler = body.str();
      log.header.subset_p = body.f64();
      log.header.burst = body.u32();
      log.header.seed = body.u64();
      log.header.options = snapshot::read_options(
          body, /*has_reorder_byte=*/version >= 2, "command log header");
      saw_header = true;
    } else {
      Command cmd;
      switch (static_cast<CommandType>(type)) {
        case CommandType::kSteps:
          cmd.type = CommandType::kSteps;
          cmd.count = body.u64();
          break;
        case CommandType::kInjectState:
          cmd.type = CommandType::kInjectState;
          cmd.node = body.u32();
          cmd.state = body.u64();
          break;
        case CommandType::kInjectConfiguration: {
          cmd.type = CommandType::kInjectConfiguration;
          const std::uint64_t count = body.u64();
          if (count > body.remaining() / 8) {
            throw util::SnapshotError(
                "command log record: truncated configuration");
          }
          cmd.config.resize(static_cast<std::size_t>(count));
          for (auto& q : cmd.config) q = body.u64();
          break;
        }
        case CommandType::kTopologyDelta:
          cmd.type = CommandType::kTopologyDelta;
          cmd.delta.remove = read_pairs(body);
          cmd.delta.add = read_pairs(body);
          break;
        case CommandType::kExpectHash:
          cmd.type = CommandType::kExpectHash;
          cmd.hash = body.u64();
          break;
        default:
          throw util::SnapshotError("command log record: unknown type " +
                                    std::to_string(type));
      }
      if (!body.done()) {
        throw util::SnapshotError("command log record: trailing bytes");
      }
      log.commands.push_back(std::move(cmd));
    }
  }
  if (!saw_header) {
    throw util::SnapshotError("command log missing header record");
  }
  return log;
}

ReplayResult replay_commands(Engine& engine,
                             const std::vector<Command>& commands) {
  ReplayResult result;
  for (const Command& cmd : commands) {
    switch (cmd.type) {
      case CommandType::kSteps:
        for (std::uint64_t i = 0; i < cmd.count; ++i) engine.step();
        result.steps += cmd.count;
        break;
      case CommandType::kInjectState:
        engine.inject_state(cmd.node, cmd.state);
        break;
      case CommandType::kInjectConfiguration:
        engine.inject_configuration(cmd.config);
        break;
      case CommandType::kTopologyDelta:
        engine.apply_topology_delta(cmd.delta);
        break;
      case CommandType::kExpectHash:
        ++result.hash_checks;
        if (engine_state_hash(engine) != cmd.hash) ++result.hash_mismatches;
        break;
      default:
        throw std::invalid_argument(
            "replay_commands: session-only command type " +
            std::to_string(static_cast<int>(cmd.type)) +
            " (use service::Session::apply)");
    }
    ++result.commands_applied;
  }
  return result;
}

}  // namespace ssau::core
