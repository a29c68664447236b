#include "le/alg_le.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

#include "util/strings.hpp"

namespace ssau::le {

namespace {
constexpr int kComputeBits = 32;  // flag, flag_acc, candidate, coin, coin_acc
}

AlgLe::AlgLe(AlgLeParams params)
    : params_(params), restart_(params.diameter_bound) {
  if (params_.diameter_bound < 1) {
    throw std::invalid_argument("AlgLe: diameter bound must be >= 1");
  }
  if (params_.id_alphabet < 2) {
    throw std::invalid_argument("AlgLe: id alphabet must be >= 2");
  }
  if (params_.p0 <= 0.0 || params_.p0 >= 1.0) {
    throw std::invalid_argument("AlgLe: p0 must be in (0,1)");
  }
  const auto e = static_cast<core::StateId>(epoch_length());
  const auto k = static_cast<core::StateId>(params_.id_alphabet);
  compute_base_ = 0;
  verify_base_ = compute_base_ + e * kComputeBits;
  sigma_base_ = verify_base_ + e * 2 * (k + 1);
  count_ = sigma_base_ + static_cast<core::StateId>(restart_.chain_length());
  if (count_ <= core::WideStateSet::kBits) build_classes();
}

void AlgLe::build_classes() {
  const auto e = static_cast<std::size_t>(epoch_length());
  round_class_ = kSlot + static_cast<std::size_t>(params_.id_alphabet);
  classes_ = core::StateClasses(round_class_ + 2 * e, count_);
  for (core::StateId q = 0; q < count_; ++q) {
    const LeState s = decode(q);
    const auto r = static_cast<std::size_t>(s.r);
    switch (s.mode) {
      case LeState::Mode::kRestart:
        classes_.insert(kSigma, q);
        break;
      case LeState::Mode::kCompute:
        classes_.insert(round_class_ + r, q);
        if (s.flag_acc) classes_.insert(kFlagAcc, q);
        if (s.coin_acc) classes_.insert(kCoinAcc, q);
        break;
      case LeState::Mode::kVerify:
        classes_.insert(round_class_ + e + r, q);
        if (s.slot != 0) {
          classes_.insert(kSlot + static_cast<std::size_t>(s.slot - 1), q);
        }
        break;
    }
  }
}

core::StateId AlgLe::encode(const LeState& s) const {
  switch (s.mode) {
    case LeState::Mode::kCompute: {
      core::StateId idx = static_cast<core::StateId>(s.r);
      idx = idx * 2 + (s.flag ? 1 : 0);
      idx = idx * 2 + (s.flag_acc ? 1 : 0);
      idx = idx * 2 + (s.candidate ? 1 : 0);
      idx = idx * 2 + (s.coin ? 1 : 0);
      idx = idx * 2 + (s.coin_acc ? 1 : 0);
      return compute_base_ + idx;
    }
    case LeState::Mode::kVerify: {
      core::StateId idx = static_cast<core::StateId>(s.r);
      idx = idx * 2 + (s.leader ? 1 : 0);
      idx = idx * static_cast<core::StateId>(params_.id_alphabet + 1) +
            static_cast<core::StateId>(s.slot);
      return verify_base_ + idx;
    }
    case LeState::Mode::kRestart:
      return sigma_base_ + static_cast<core::StateId>(s.sigma);
  }
  throw std::logic_error("AlgLe::encode: bad mode");
}

LeState AlgLe::decode(core::StateId q) const {
  if (q >= count_) throw std::invalid_argument("AlgLe::decode: bad state id");
  LeState s;
  if (q >= sigma_base_) {
    s.mode = LeState::Mode::kRestart;
    s.sigma = static_cast<int>(q - sigma_base_);
    return s;
  }
  if (q >= verify_base_) {
    s.mode = LeState::Mode::kVerify;
    core::StateId idx = q - verify_base_;
    const auto k1 = static_cast<core::StateId>(params_.id_alphabet + 1);
    s.slot = static_cast<int>(idx % k1);
    idx /= k1;
    s.leader = (idx % 2) != 0;
    s.r = static_cast<int>(idx / 2);
    return s;
  }
  s.mode = LeState::Mode::kCompute;
  core::StateId idx = q - compute_base_;
  s.coin_acc = (idx % 2) != 0;
  idx /= 2;
  s.coin = (idx % 2) != 0;
  idx /= 2;
  s.candidate = (idx % 2) != 0;
  idx /= 2;
  s.flag_acc = (idx % 2) != 0;
  idx /= 2;
  s.flag = (idx % 2) != 0;
  idx /= 2;
  s.r = static_cast<int>(idx);
  return s;
}

core::StateId AlgLe::initial_state() const {
  LeState s;
  s.mode = LeState::Mode::kCompute;
  s.r = 0;
  s.flag = true;
  s.flag_acc = false;
  s.candidate = true;
  s.coin = false;
  s.coin_acc = false;
  return encode(s);
}

core::StateId AlgLe::state_count() const { return count_; }

bool AlgLe::is_output(core::StateId q) const {
  return decode(q).mode == LeState::Mode::kVerify;
}

std::int64_t AlgLe::output(core::StateId q) const {
  const LeState s = decode(q);
  return s.mode == LeState::Mode::kVerify && s.leader ? 1 : 0;
}

core::StateId AlgLe::step_fast(core::StateId q, const core::SignalView& sig,
                               util::Rng& rng) const {
  const LeState self = decode(q);
  const int exit_idx = restart_.exit_index();

  // --- Restart rules take priority -----------------------------------------
  std::optional<int> min_sigma;
  bool senses_non_sigma = false;
  bool all_exit = true;
  for (const core::StateId s : sig.states()) {
    const LeState ds = decode(s);
    if (ds.mode == LeState::Mode::kRestart) {
      if (!min_sigma || ds.sigma < *min_sigma) min_sigma = ds.sigma;
      if (ds.sigma != exit_idx) all_exit = false;
    } else {
      senses_non_sigma = true;
      all_exit = false;
    }
  }
  const std::optional<int> own_sigma =
      self.mode == LeState::Mode::kRestart ? std::optional<int>(self.sigma)
                                           : std::nullopt;
  const restart::RestartDecision rd =
      restart_.decide(own_sigma, min_sigma, senses_non_sigma, all_exit);
  switch (rd.kind) {
    case restart::RestartDecision::Kind::kEnter:
      return encode({.mode = LeState::Mode::kRestart, .sigma = 0});
    case restart::RestartDecision::Kind::kStep:
      return encode({.mode = LeState::Mode::kRestart, .sigma = rd.index});
    case restart::RestartDecision::Kind::kExit:
      return initial_state();
    case restart::RestartDecision::Kind::kNone:
      break;
  }

  // --- Local consistency: stage and epoch round must agree ------------------
  for (const core::StateId s : sig.states()) {
    const LeState ds = decode(s);
    if (ds.mode != self.mode || ds.r != self.r) {
      return encode({.mode = LeState::Mode::kRestart, .sigma = 0});
    }
  }

  const int last_round = epoch_length() - 1;  // r = D, the epoch-end round

  if (self.mode == LeState::Mode::kCompute) {
    if (self.r == 0) {
      // Toss round: RandCount flag decay and Elect coin toss; seed the
      // OR-flood accumulators.
      LeState next = self;
      next.flag = self.flag && !rng.bernoulli(params_.p0);
      next.coin = self.candidate && rng.coin();
      next.flag_acc = next.flag;
      next.coin_acc = self.candidate && next.coin;
      next.r = 1;
      return encode(next);
    }
    // Flood rounds: OR in the neighbors' accumulators.
    bool flag_acc = self.flag_acc;
    bool coin_acc = self.coin_acc;
    for (const core::StateId s : sig.states()) {
      const LeState ds = decode(s);
      flag_acc = flag_acc || ds.flag_acc;
      coin_acc = coin_acc || ds.coin_acc;
    }
    if (self.r < last_round) {
      LeState next = self;
      next.flag_acc = flag_acc;
      next.coin_acc = coin_acc;
      next.r = self.r + 1;
      return encode(next);
    }
    // Epoch end: apply Elect's elimination, then RandCount's halt check.
    const bool iflag = flag_acc;
    const bool ic = coin_acc;
    const bool candidate = self.candidate && !(!self.coin && ic);
    if (!iflag) {
      // Computation stage halts; survivors mark themselves leaders.
      LeState next;
      next.mode = LeState::Mode::kVerify;
      next.r = 0;
      next.leader = candidate;
      next.slot = 0;
      return encode(next);
    }
    LeState next;
    next.mode = LeState::Mode::kCompute;
    next.r = 0;
    next.flag = self.flag;
    next.flag_acc = false;
    next.candidate = candidate;
    next.coin = false;
    next.coin_acc = false;
    return encode(next);
  }

  // --- Verify stage (DetectLE) ----------------------------------------------
  if (self.r == 0) {
    LeState next = self;
    next.slot = self.leader
                    ? 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(params_.id_alphabet)))
                    : 0;
    next.r = 1;
    return encode(next);
  }
  // Gather identifiers present in the neighborhood (own slot included via the
  // inclusive signal).
  std::set<int> ids;
  for (const core::StateId s : sig.states()) {
    const LeState ds = decode(s);
    if (ds.slot != 0) ids.insert(ds.slot);
  }
  if (ids.size() >= 2) {
    return encode({.mode = LeState::Mode::kRestart, .sigma = 0});
  }
  LeState next = self;
  if (next.slot == 0 && !ids.empty()) next.slot = *ids.begin();
  if (self.r < last_round) {
    next.r = self.r + 1;
    return encode(next);
  }
  // Epoch end: a node that heard no identifier detects a leaderless
  // configuration.
  if (next.slot == 0) {
    return encode({.mode = LeState::Mode::kRestart, .sigma = 0});
  }
  next.r = 0;
  return encode(next);
}

core::StateId AlgLe::step_set(core::StateId q, const core::StateSet& set,
                              util::Rng& rng) const {
  if (classes_.empty() || classes_.words() > core::StateSet::kWords) {
    return Automaton::step_set(q, set, rng);
  }
  return set_step(q, set.words, rng);
}

core::StateId AlgLe::step_wide(core::StateId q, const core::WideStateSet& set,
                               util::Rng& rng) const {
  if (classes_.empty()) return Automaton::step_wide(q, set, rng);
  return set_step(q, set.words, rng);
}

// step_fast's δ with each digest read off a class set: the same decisions in
// the same order, and the same rng draws at the same points.
template <std::size_t W>
core::StateId AlgLe::set_step(core::StateId q,
                              const std::array<std::uint64_t, W>& sensed,
                              util::Rng& rng) const {
  const LeState self = decode(q);

  // --- Restart rules take priority: the lowest sensed σ state carries the
  // smallest σ index, and St(v) = {σ(2D)} iff only σ states are sensed and
  // the smallest of them is the exit.
  const core::StateId sigma = classes_.first_common(sensed, kSigma);
  if (sigma != core::StateClasses::kNone) {
    const int min_sigma = static_cast<int>(sigma - sigma_base_);
    const bool senses_non_sigma = !classes_.within(sensed, kSigma);
    const std::optional<int> own_sigma =
        self.mode == LeState::Mode::kRestart ? std::optional<int>(self.sigma)
                                             : std::nullopt;
    const restart::RestartDecision rd = restart_.decide(
        own_sigma, min_sigma, senses_non_sigma,
        !senses_non_sigma && min_sigma == restart_.exit_index());
    switch (rd.kind) {
      case restart::RestartDecision::Kind::kEnter:
        return sigma_base_;
      case restart::RestartDecision::Kind::kStep:
        return sigma_base_ + static_cast<core::StateId>(rd.index);
      case restart::RestartDecision::Kind::kExit:
        return initial_state();
      case restart::RestartDecision::Kind::kNone:
        break;
    }
  }

  // --- Local consistency: every sensed state in our (stage, round) class.
  // From here on every sensed state lies in that class's words.
  const std::size_t round_class =
      round_class_ + static_cast<std::size_t>(self.r) +
      (self.mode == LeState::Mode::kVerify
           ? static_cast<std::size_t>(epoch_length())
           : 0);
  if (!classes_.within(sensed, round_class)) return sigma_base_;
  const core::WordSpan block = classes_.span(round_class);

  const int last_round = epoch_length() - 1;  // r = D, the epoch-end round

  if (self.mode == LeState::Mode::kCompute) {
    if (self.r == 0) {
      // Toss round: RandCount flag decay and Elect coin toss; seed the
      // OR-flood accumulators.
      LeState next = self;
      next.flag = self.flag && !rng.bernoulli(params_.p0);
      next.coin = self.candidate && rng.coin();
      next.flag_acc = next.flag;
      next.coin_acc = self.candidate && next.coin;
      next.r = 1;
      return encode(next);
    }
    // Flood rounds: OR in the neighbors' accumulators (q is sensed too).
    const bool flag_acc = classes_.meets(sensed, kFlagAcc, block);
    const bool coin_acc = classes_.meets(sensed, kCoinAcc, block);
    if (self.r < last_round) {
      LeState next = self;
      next.flag_acc = flag_acc;
      next.coin_acc = coin_acc;
      next.r = self.r + 1;
      return encode(next);
    }
    // Epoch end: apply Elect's elimination, then RandCount's halt check.
    const bool candidate = self.candidate && !(!self.coin && coin_acc);
    if (!flag_acc) {
      // Computation stage halts; survivors mark themselves leaders.
      LeState next;
      next.mode = LeState::Mode::kVerify;
      next.r = 0;
      next.leader = candidate;
      next.slot = 0;
      return encode(next);
    }
    LeState next;
    next.mode = LeState::Mode::kCompute;
    next.r = 0;
    next.flag = self.flag;
    next.flag_acc = false;
    next.candidate = candidate;
    next.coin = false;
    next.coin_acc = false;
    return encode(next);
  }

  // --- Verify stage (DetectLE) ----------------------------------------------
  if (self.r == 0) {
    LeState next = self;
    next.slot = self.leader
                    ? 1 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(params_.id_alphabet)))
                    : 0;
    next.r = 1;
    return encode(next);
  }
  // The identifiers present in the neighborhood (own slot included): two
  // distinct ones restart, else the smallest fills an empty slot.
  int first_id = 0;
  for (int id = 1; id <= params_.id_alphabet; ++id) {
    if (!classes_.meets(sensed, kSlot + static_cast<std::size_t>(id - 1),
                        block)) {
      continue;
    }
    if (first_id != 0) {
      return sigma_base_;
    }
    first_id = id;
  }
  LeState next = self;
  if (next.slot == 0) next.slot = first_id;
  if (self.r < last_round) {
    next.r = self.r + 1;
    return encode(next);
  }
  // Epoch end: a node that heard no identifier detects a leaderless
  // configuration.
  if (next.slot == 0) {
    return sigma_base_;
  }
  next.r = 0;
  return encode(next);
}

std::string AlgLe::state_name(core::StateId q) const {
  const LeState s = decode(q);
  switch (s.mode) {
    case LeState::Mode::kCompute:
      return "C(r=" + std::to_string(s.r) + (s.flag ? ",f" : "") +
             (s.candidate ? ",c" : "") + (s.coin ? ",H" : ",T") +
             (s.flag_acc ? ",Fa" : "") + (s.coin_acc ? ",Ca" : "") + ")";
    case LeState::Mode::kVerify:
      return "V(r=" + std::to_string(s.r) + (s.leader ? ",L" : "") +
             ",id=" + std::to_string(s.slot) + ")";
    case LeState::Mode::kRestart:
      return util::labeled("s", s.sigma);
  }
  return "?";
}

bool le_legitimate(const AlgLe& alg, const graph::Graph& g,
                   const core::Configuration& c) {
  (void)g;
  std::size_t leaders = 0;
  int round = -1;
  int leader_slot = 0;
  for (const core::StateId q : c) {
    const LeState s = alg.decode(q);
    if (s.mode != LeState::Mode::kVerify) return false;
    if (round == -1) round = s.r;
    if (s.r != round) return false;
    if (s.leader) {
      ++leaders;
      leader_slot = s.slot;
    }
  }
  if (leaders != 1) return false;
  for (const core::StateId q : c) {
    const LeState s = alg.decode(q);
    if (s.slot != 0 && s.slot != leader_slot) return false;
  }
  return true;
}

std::size_t le_leader_count(const AlgLe& alg, const core::Configuration& c) {
  std::size_t leaders = 0;
  for (const core::StateId q : c) {
    const LeState s = alg.decode(q);
    if (s.mode == LeState::Mode::kVerify && s.leader) ++leaders;
  }
  return leaders;
}

core::Configuration le_adversarial_configuration(const std::string& kind,
                                                 const AlgLe& alg,
                                                 const graph::Graph& g,
                                                 util::Rng& rng) {
  const core::NodeId n = g.num_nodes();
  if (kind == "random") return core::random_configuration(alg, n, rng);
  if (kind == "zero-leaders") {
    LeState s;
    s.mode = LeState::Mode::kVerify;
    s.r = 0;
    s.leader = false;
    s.slot = 0;
    return core::uniform_configuration(n, alg.encode(s));
  }
  if (kind == "two-leaders") {
    LeState follower;
    follower.mode = LeState::Mode::kVerify;
    follower.r = 0;
    follower.leader = false;
    follower.slot = 0;
    core::Configuration c(n, alg.encode(follower));
    LeState boss = follower;
    boss.leader = true;
    c[0] = alg.encode(boss);
    if (n > 1) c[n - 1] = alg.encode(boss);
    return c;
  }
  if (kind == "all-leaders") {
    LeState s;
    s.mode = LeState::Mode::kVerify;
    s.r = 0;
    s.leader = true;
    s.slot = 0;
    return core::uniform_configuration(n, alg.encode(s));
  }
  if (kind == "mid-restart") {
    core::Configuration c(n);
    for (core::NodeId v = 0; v < n; ++v) {
      LeState s;
      s.mode = LeState::Mode::kRestart;
      s.sigma = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(2 * alg.params().diameter_bound + 1)));
      c[v] = alg.encode(s);
    }
    return c;
  }
  if (kind == "skewed-rounds") {
    core::Configuration c(n);
    for (core::NodeId v = 0; v < n; ++v) {
      LeState s;
      s.mode = LeState::Mode::kCompute;
      s.r = static_cast<int>(v) % alg.epoch_length();
      s.flag = true;
      s.candidate = true;
      c[v] = alg.encode(s);
    }
    return c;
  }
  throw std::invalid_argument("unknown LE adversary kind: " + kind);
}

std::vector<std::string> le_adversary_kinds() {
  return {"random",      "zero-leaders", "two-leaders",
          "all-leaders", "mid-restart",  "skewed-rounds"};
}

}  // namespace ssau::le
