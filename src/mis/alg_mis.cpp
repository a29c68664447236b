#include "mis/alg_mis.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/row_walk.hpp"
#include "util/strings.hpp"

namespace ssau::mis {

namespace {
// Undecided states per step value (flag, candidate, coin, collect). encode
// numbers the undecided block step-major, so the lowest undecided state of
// any set carries the set's smallest step.
constexpr core::StateId kUndecidedPerStep = 16;
}  // namespace

AlgMis::AlgMis(AlgMisParams params)
    : params_(params), restart_(params.diameter_bound) {
  if (params_.diameter_bound < 1) {
    throw std::invalid_argument("AlgMis: diameter bound must be >= 1");
  }
  if (params_.id_alphabet < 2) {
    throw std::invalid_argument("AlgMis: id alphabet must be >= 2");
  }
  if (params_.p0 <= 0.0 || params_.p0 >= 1.0) {
    throw std::invalid_argument("AlgMis: p0 must be in (0,1)");
  }
  const auto steps = static_cast<core::StateId>(params_.diameter_bound + 3);
  undecided_base_ = 0;
  in_base_ = undecided_base_ + steps * kUndecidedPerStep;
  out_base_ = in_base_ + static_cast<core::StateId>(params_.id_alphabet);
  sigma_base_ = out_base_ + 1;
  count_ = sigma_base_ + static_cast<core::StateId>(restart_.chain_length());
  if (count_ <= core::WideStateSet::kBits) build_classes();
}

void AlgMis::build_classes() {
  const int steps = params_.diameter_bound + 3;
  classes_ = core::StateClasses(kDiscrepancy + static_cast<std::size_t>(steps),
                                count_);
  for (core::StateId q = 0; q < count_; ++q) {
    const MisState s = decode(q);
    switch (s.mode) {
      case MisState::Mode::kRestart:
        classes_.insert(kSigma, q);
        break;
      case MisState::Mode::kIn:
        classes_.insert(kIn, q);
        break;
      case MisState::Mode::kOut:
        break;
      case MisState::Mode::kUndecided:
        classes_.insert(kUndecided, q);
        if (s.candidate && s.coin && s.trial_collect) {
          classes_.insert(kWinning, q);
        }
        for (int step = 0; step < steps; ++step) {
          if (std::abs(s.step - step) > 1) {
            classes_.insert(kDiscrepancy + static_cast<std::size_t>(step), q);
          }
        }
        break;
    }
  }
}

core::StateId AlgMis::encode(const MisState& s) const {
  switch (s.mode) {
    case MisState::Mode::kUndecided: {
      core::StateId idx = static_cast<core::StateId>(s.step);
      idx = idx * 2 + (s.flag ? 1 : 0);
      idx = idx * 2 + (s.candidate ? 1 : 0);
      idx = idx * 2 + (s.coin ? 1 : 0);
      idx = idx * 2 + (s.trial_collect ? 1 : 0);
      return undecided_base_ + idx;
    }
    case MisState::Mode::kIn:
      return in_base_ + static_cast<core::StateId>(s.id - 1);
    case MisState::Mode::kOut:
      return out_base_;
    case MisState::Mode::kRestart:
      return sigma_base_ + static_cast<core::StateId>(s.sigma);
  }
  throw std::logic_error("AlgMis::encode: bad mode");
}

MisState AlgMis::decode(core::StateId q) const {
  if (q >= count_) throw std::invalid_argument("AlgMis::decode: bad state id");
  MisState s;
  if (q >= sigma_base_) {
    s.mode = MisState::Mode::kRestart;
    s.sigma = static_cast<int>(q - sigma_base_);
    return s;
  }
  if (q == out_base_) {
    s.mode = MisState::Mode::kOut;
    return s;
  }
  if (q >= in_base_) {
    s.mode = MisState::Mode::kIn;
    s.id = static_cast<int>(q - in_base_) + 1;
    return s;
  }
  s.mode = MisState::Mode::kUndecided;
  core::StateId idx = q - undecided_base_;
  s.trial_collect = (idx % 2) != 0;
  idx /= 2;
  s.coin = (idx % 2) != 0;
  idx /= 2;
  s.candidate = (idx % 2) != 0;
  idx /= 2;
  s.flag = (idx % 2) != 0;
  idx /= 2;
  s.step = static_cast<int>(idx);
  return s;
}

core::StateId AlgMis::initial_state() const {
  MisState s;
  s.mode = MisState::Mode::kUndecided;
  s.step = 0;
  s.flag = true;
  s.candidate = true;
  s.coin = false;
  s.trial_collect = false;
  return encode(s);
}

core::StateId AlgMis::state_count() const { return count_; }

bool AlgMis::is_output(core::StateId q) const {
  const MisState::Mode m = decode(q).mode;
  return m == MisState::Mode::kIn || m == MisState::Mode::kOut;
}

std::int64_t AlgMis::output(core::StateId q) const {
  return decode(q).mode == MisState::Mode::kIn ? 1 : 0;
}

core::StateId AlgMis::step_fast(core::StateId q, const core::SignalView& sig,
                                util::Rng& rng) const {
  const MisState self = decode(q);
  const int exit_idx = restart_.exit_index();
  const int max_step = params_.diameter_bound + 2;  // D+2

  // --- Restart rules take priority ------------------------------------------
  std::optional<int> min_sigma;
  bool senses_non_sigma = false;
  bool all_exit = true;
  for (const core::StateId s : sig.states()) {
    const MisState ds = decode(s);
    if (ds.mode == MisState::Mode::kRestart) {
      if (!min_sigma || ds.sigma < *min_sigma) min_sigma = ds.sigma;
      if (ds.sigma != exit_idx) all_exit = false;
    } else {
      senses_non_sigma = true;
      all_exit = false;
    }
  }
  const std::optional<int> own_sigma =
      self.mode == MisState::Mode::kRestart ? std::optional<int>(self.sigma)
                                            : std::nullopt;
  const restart::RestartDecision rd =
      restart_.decide(own_sigma, min_sigma, senses_non_sigma, all_exit);
  switch (rd.kind) {
    case restart::RestartDecision::Kind::kEnter:
      return encode({.mode = MisState::Mode::kRestart, .sigma = 0});
    case restart::RestartDecision::Kind::kStep:
      return encode({.mode = MisState::Mode::kRestart, .sigma = rd.index});
    case restart::RestartDecision::Kind::kExit:
      return initial_state();
    case restart::RestartDecision::Kind::kNone:
      break;
  }

  // --- Signal digests over non-σ states -------------------------------------
  bool senses_in = false;
  bool senses_other_in_id = false;
  bool winning_neighbor = false;  // undecided candidate with coin=1, collect phase
  int undecided_step_min = self.mode == MisState::Mode::kUndecided ? self.step
                                                                   : max_step;
  bool step_discrepancy = false;
  for (const core::StateId s : sig.states()) {
    const MisState ds = decode(s);
    switch (ds.mode) {
      case MisState::Mode::kIn:
        senses_in = true;
        if (self.mode == MisState::Mode::kIn && ds.id != self.id) {
          senses_other_in_id = true;
        }
        break;
      case MisState::Mode::kUndecided:
        if (self.mode == MisState::Mode::kUndecided) {
          undecided_step_min = std::min(undecided_step_min, ds.step);
          if (std::abs(ds.step - self.step) > 1) step_discrepancy = true;
          if (ds.candidate && ds.coin && ds.trial_collect) {
            winning_neighbor = true;
          }
        }
        break;
      default:
        break;
    }
  }

  switch (self.mode) {
    case MisState::Mode::kIn:
      // DetectMIS: adjacent IN detected via mismatching temporary ids.
      if (senses_other_in_id) {
        return encode({.mode = MisState::Mode::kRestart, .sigma = 0});
      }
      return encode({.mode = MisState::Mode::kIn,
                     .id = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                               params_.id_alphabet)))});

    case MisState::Mode::kOut:
      // DetectMIS: an OUT node must sense some IN identifier.
      if (!senses_in) {
        return encode({.mode = MisState::Mode::kRestart, .sigma = 0});
      }
      return q;

    case MisState::Mode::kUndecided: {
      // RandPhase validity check.
      if (step_discrepancy) {
        return encode({.mode = MisState::Mode::kRestart, .sigma = 0});
      }
      // A neighbor joined IN: join OUT (the phase's ultimate round in clean
      // executions; immediate cleanup from faulty ones).
      if (senses_in) {
        return encode({.mode = MisState::Mode::kOut});
      }

      MisState next = self;

      // Compete trial (runs while step <= D).
      if (self.step <= params_.diameter_bound) {
        if (!self.trial_collect) {
          next.coin = self.candidate && rng.coin();
          next.trial_collect = true;
        } else {
          if (self.candidate && !self.coin && winning_neighbor) {
            next.candidate = false;
          }
          next.coin = false;
          next.trial_collect = false;
        }
      }

      // RandPhase: random prefix, then the deterministic step wave.
      if (self.flag) {
        if (rng.bernoulli(params_.p0)) next.flag = false;
        next.step = 0;
        return encode(next);
      }
      if (undecided_step_min < max_step) {
        next.step = undecided_step_min + 1;
        if (next.step == params_.diameter_bound + 1 && next.candidate) {
          // Survived every trial: join IN (the phase's penultimate round).
          return encode(
              {.mode = MisState::Mode::kIn,
               .id = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
                         params_.id_alphabet)))});
        }
        return encode(next);
      }
      // stepmin = D+2: the phase ends; start the next one.
      next.step = 0;
      next.flag = true;
      next.candidate = true;
      next.coin = false;
      next.trial_collect = false;
      return encode(next);
    }

    case MisState::Mode::kRestart:
      break;  // handled by the restart rules above
  }
  return q;
}

core::StateId AlgMis::step_set(core::StateId q, const core::StateSet& set,
                               util::Rng& rng) const {
  if (classes_.empty() || classes_.words() > core::StateSet::kWords) {
    return Automaton::step_set(q, set, rng);
  }
  return set_step(q, set.words, rng);
}

core::StateId AlgMis::step_wide(core::StateId q, const core::WideStateSet& set,
                                util::Rng& rng) const {
  if (classes_.empty()) return Automaton::step_wide(q, set, rng);
  return set_step(q, set.words, rng);
}

// step_fast's δ with each digest read off a class set: the same decisions in
// the same order, and the same rng draws at the same points.
template <std::size_t W>
core::StateId AlgMis::set_step(core::StateId q,
                               const std::array<std::uint64_t, W>& sensed,
                               util::Rng& rng) const {
  const MisState self = decode(q);
  const int max_step = params_.diameter_bound + 2;  // D+2
  const auto k = static_cast<std::uint64_t>(params_.id_alphabet);

  // --- Restart rules take priority: the lowest sensed σ state carries the
  // smallest σ index, and St(v) = {σ(2D)} iff only σ states are sensed and
  // the smallest of them is the exit.
  const core::StateId sigma = classes_.first_common(sensed, kSigma);
  if (sigma != core::StateClasses::kNone) {
    const int min_sigma = static_cast<int>(sigma - sigma_base_);
    const bool senses_non_sigma = !classes_.within(sensed, kSigma);
    const std::optional<int> own_sigma =
        self.mode == MisState::Mode::kRestart ? std::optional<int>(self.sigma)
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

  switch (self.mode) {
    case MisState::Mode::kIn:
      // DetectMIS: q itself is sensed, so a second IN state is another id.
      if (classes_.count_common(sensed, kIn) > 1) return sigma_base_;
      return in_base_ + rng.below(k);

    case MisState::Mode::kOut:
      // DetectMIS: an OUT node must sense some IN identifier.
      return classes_.meets(sensed, kIn) ? q : sigma_base_;

    case MisState::Mode::kUndecided: {
      // RandPhase validity check.
      if (classes_.meets(sensed,
                         kDiscrepancy + static_cast<std::size_t>(self.step))) {
        return sigma_base_;
      }
      // A neighbor joined IN: join OUT.
      if (classes_.meets(sensed, kIn)) return out_base_;

      MisState next = self;

      // Compete trial (runs while step <= D).
      if (self.step <= params_.diameter_bound) {
        if (!self.trial_collect) {
          next.coin = self.candidate && rng.coin();
          next.trial_collect = true;
        } else {
          if (self.candidate && !self.coin &&
              classes_.meets(sensed, kWinning)) {
            next.candidate = false;
          }
          next.coin = false;
          next.trial_collect = false;
        }
      }

      // RandPhase: random prefix, then the deterministic step wave.
      if (self.flag) {
        if (rng.bernoulli(params_.p0)) next.flag = false;
        next.step = 0;
        return encode(next);
      }
      // q is undecided and sensed, so some undecided state is.
      const int step_min = static_cast<int>(
          (classes_.first_common(sensed, kUndecided) - undecided_base_) /
          kUndecidedPerStep);
      if (step_min < max_step) {
        next.step = step_min + 1;
        if (next.step == params_.diameter_bound + 1 && next.candidate) {
          // Survived every trial: join IN.
          return in_base_ + rng.below(k);
        }
        return encode(next);
      }
      // stepmin = D+2: the phase ends; start the next one.
      next.step = 0;
      next.flag = true;
      next.candidate = true;
      next.coin = false;
      next.trial_collect = false;
      return encode(next);
    }

    case MisState::Mode::kRestart:
      break;  // handled by the restart rules above
  }
  return q;
}

std::string AlgMis::state_name(core::StateId q) const {
  const MisState s = decode(q);
  switch (s.mode) {
    case MisState::Mode::kUndecided:
      return "U(step=" + std::to_string(s.step) + (s.flag ? ",f" : "") +
             (s.candidate ? ",c" : "") + (s.coin ? ",H" : ",T") +
             (s.trial_collect ? ",col" : ",toss") + ")";
    case MisState::Mode::kIn:
      return "IN(id=" + std::to_string(s.id) + ")";
    case MisState::Mode::kOut:
      return "OUT";
    case MisState::Mode::kRestart:
      return util::labeled("s", s.sigma);
  }
  return "?";
}

namespace {

/// The MIS over `c`'s outputs (user ids), read along g's rows: every node
/// decided, no edge joining two IN nodes, and an IN neighbour for every OUT
/// node.
bool outputs_form_mis(const AlgMis& alg, const graph::Graph& g,
                      const core::Configuration& user_c, const char* who) {
  core::check_configuration(g, user_c, alg.state_count(), who);
  core::Configuration buffer;
  const core::Configuration& c = core::layout_order(g, user_c, buffer);
  std::vector<std::uint8_t> in(c.size());
  for (core::NodeId v = 0; v < c.size(); ++v) {
    const MisState s = alg.decode(c[v]);
    if (s.mode != MisState::Mode::kIn && s.mode != MisState::Mode::kOut) {
      return false;
    }
    in[v] = s.mode == MisState::Mode::kIn;
  }
  const bool independent = core::for_each_upper_row(
      g, [&](core::NodeId v, std::span<const core::NodeId> upper) {
        return !in[v] || std::none_of(upper.begin(), upper.end(),
                                      [&](core::NodeId u) { return in[u]; });
      });
  if (!independent) return false;
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nb = g.neighbors(v);
    if (!in[v] && std::none_of(nb.begin(), nb.end(),
                               [&](core::NodeId u) { return in[u]; })) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool mis_legitimate(const AlgMis& alg, const graph::Graph& g,
                    const core::Configuration& c) {
  return outputs_form_mis(alg, g, c, "mis_legitimate");
}

bool mis_outputs_correct(const AlgMis& alg, const graph::Graph& g,
                         const core::Configuration& c) {
  return outputs_form_mis(alg, g, c, "mis_outputs_correct");
}

core::Configuration mis_adversarial_configuration(const std::string& kind,
                                                  const AlgMis& alg,
                                                  const graph::Graph& g,
                                                  util::Rng& rng) {
  const core::NodeId n = g.num_nodes();
  auto in_state = [&](int id) {
    return alg.encode({.mode = MisState::Mode::kIn, .id = id});
  };
  const core::StateId out_state = alg.encode({.mode = MisState::Mode::kOut});
  if (kind == "random") return core::random_configuration(alg, n, rng);
  if (kind == "adjacent-in") {
    // Everything IN: maximally conflicted.
    core::Configuration c(n);
    for (auto& q : c) {
      q = in_state(1 + static_cast<int>(rng.below(
                       static_cast<std::uint64_t>(alg.params().id_alphabet))));
    }
    return c;
  }
  if (kind == "orphan-out" || kind == "all-out") {
    return core::uniform_configuration(n, out_state);
  }
  if (kind == "all-in") {
    return core::uniform_configuration(n, in_state(1));
  }
  if (kind == "mid-restart") {
    core::Configuration c(n);
    for (auto& q : c) {
      q = alg.encode(
          {.mode = MisState::Mode::kRestart,
           .sigma = static_cast<int>(rng.below(static_cast<std::uint64_t>(
               2 * alg.params().diameter_bound + 1)))});
    }
    return c;
  }
  if (kind == "skewed-steps") {
    core::Configuration c(n);
    for (core::NodeId v = 0; v < n; ++v) {
      MisState s;
      s.mode = MisState::Mode::kUndecided;
      s.step = static_cast<int>(v) % (alg.params().diameter_bound + 3);
      s.flag = false;
      s.candidate = true;
      c[v] = alg.encode(s);
    }
    return c;
  }
  throw std::invalid_argument("unknown MIS adversary kind: " + kind);
}

std::vector<std::string> mis_adversary_kinds() {
  return {"random",  "adjacent-in", "orphan-out", "all-in",
          "mid-restart", "skewed-steps"};
}

}  // namespace ssau::mis
