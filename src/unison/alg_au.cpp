#include "unison/alg_au.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "graph/metrics.hpp"

namespace ssau::unison {

namespace {

// Guard tests over either sensed form: the 64-bit mask names states < 64,
// so word 0 of a guard set is its exact counterpart.
bool within(std::uint64_t mask, const core::StateSet& guard) {
  return (mask & ~guard.words[0]) == 0;
}
bool within(const core::StateSet& set, const core::StateSet& guard) {
  return set.subset_of(guard);
}
bool meets(std::uint64_t mask, const core::StateSet& guard) {
  return (mask & guard.words[0]) != 0;
}
bool meets(const core::StateSet& set, const core::StateSet& guard) {
  return set.intersects(guard);
}

}  // namespace

AlgAu::AlgAu(int diameter_bound, AlgAuOptions options)
    : turns_(diameter_bound), options_(options) {
  if (turns_.state_count() <= core::StateSet::kBits) build_guards();
}

void AlgAu::build_guards() {
  const core::StateId n = turns_.state_count();
  // Every guard is a union of whole levels: a level's able turn and, for
  // |ℓ| >= 2, its faulty twin. Building level by level costs O(|Q| k)
  // instead of testing every (q, s) pair.
  const auto insert_level = [&](core::StateSet& set, Level l) {
    set.insert(turns_.able_id(l));
    if (turns_.has_faulty(l)) set.insert(turns_.faulty_id(l));
  };
  guards_.resize(n);
  for (core::StateId q = 0; q < n; ++q) {
    TurnGuards& tg = guards_[q];
    const Level l = turns_.level_of(q);
    const Level fwd = turns_.forward(l);
    // adjacent(ℓ, ℓ') iff ℓ' ∈ {φ^{-1}(ℓ), ℓ, φ(ℓ)}; Ψ>(ℓ) is every level of
    // ℓ's sign further out than ℓ.
    for (const Level a : {turns_.forward(l, -1), l, fwd}) {
      insert_level(tg.adjacent, a);
    }
    insert_level(tg.in_step, l);
    insert_level(tg.in_step, fwd);
    for (int m = std::abs(l) + 1; m <= turns_.k(); ++m) {
      insert_level(tg.outwards, l > 0 ? m : -m);
    }
    if (turns_.is_able(q)) {
      tg.aa_next = turns_.able_id(fwd);
      tg.has_faulty_twin = turns_.has_faulty(l);
      if (tg.has_faulty_twin) {
        tg.af_next = turns_.faulty_id(l);
        const Level inward = turns_.outwards(l, -1);
        if (turns_.has_faulty(inward)) {
          tg.af_inward.insert(turns_.faulty_id(inward));
        }
      }
    } else {
      faulty_.insert(q);
      tg.fa_next = turns_.able_id(turns_.outwards(l, -1));
    }
  }
}

template <typename Sensed>
core::StateId AlgAu::guarded_step(core::StateId q,
                                  const Sensed& sensed) const {
  const TurnGuards& tg = guards_[q];

  if (turns_.is_able(q)) {
    // --- type AA: good (or merely protected under the ablation) and
    // Λ_v ⊆ {ℓ, φ(ℓ)} ------------------------------------------------------
    const bool prot = within(sensed, tg.adjacent);
    const bool good =
        options_.aa_requires_good ? prot && !meets(sensed, faulty_) : prot;
    if (good && within(sensed, tg.in_step)) return tg.aa_next;

    // --- type AF (only levels with |ℓ| >= 2 have a faulty twin) ------------
    if (tg.has_faulty_twin) {
      if (!prot) return tg.af_next;
      if (options_.af_inward_trigger && meets(sensed, tg.af_inward)) {
        return tg.af_next;
      }
    }
    return q;
  }

  // --- type FA -------------------------------------------------------------
  if (options_.fa_outward_guard && meets(sensed, tg.outwards)) return q;
  return tg.fa_next;
}

core::StateId AlgAu::step_mask(core::StateId q, std::uint64_t mask,
                               util::Rng& rng) const {
  if (guards_.empty()) return Automaton::step_mask(q, mask, rng);
  return guarded_step(q, mask);
}

core::StateId AlgAu::step_set(core::StateId q, const core::StateSet& set,
                              util::Rng& rng) const {
  if (guards_.empty()) return Automaton::step_set(q, set, rng);
  return guarded_step(q, set);
}

core::StateId AlgAu::step_fast(core::StateId q, const core::SignalView& sig,
                               util::Rng& /*rng*/) const {
  const Level l = turns_.level_of(q);

  if (turns_.is_able(q)) {
    // --- type AA ---------------------------------------------------------
    const Level fwd = turns_.forward(l);
    const bool good = options_.aa_requires_good ? locally_good(q, sig)
                                                : locally_protected(q, sig);
    bool levels_in_step = true;  // Λ_v ⊆ {ℓ, φ(ℓ)}
    for (const core::StateId s : sig.states()) {
      const Level sl = turns_.level_of(s);
      if (sl != l && sl != fwd) {
        levels_in_step = false;
        break;
      }
    }
    if (good && levels_in_step) return turns_.able_id(fwd);

    // --- type AF (only levels with |ℓ| >= 2 have a faulty twin) -----------
    if (turns_.has_faulty(l)) {
      if (!locally_protected(q, sig)) return turns_.faulty_id(l);
      if (options_.af_inward_trigger) {
        const Level inward = turns_.outwards(l, -1);
        if (turns_.has_faulty(inward) &&
            sig.contains(turns_.faulty_id(inward))) {
          return turns_.faulty_id(l);
        }
      }
    }
    return q;
  }

  // --- type FA ------------------------------------------------------------
  if (options_.fa_outward_guard) {
    for (const core::StateId s : sig.states()) {
      if (turns_.strictly_outwards(turns_.level_of(s), l)) return q;
    }
  }
  return turns_.able_id(turns_.outwards(l, -1));
}

AlgAu::TransitionType AlgAu::classify(core::StateId from,
                                      core::StateId to) const {
  if (from == to) return TransitionType::None;
  const Level lf = turns_.level_of(from);
  const Level lt = turns_.level_of(to);
  if (turns_.is_able(from) && turns_.is_able(to) &&
      lt == turns_.forward(lf)) {
    return TransitionType::AA;
  }
  if (turns_.is_able(from) && turns_.is_faulty(to) && lf == lt) {
    return TransitionType::AF;
  }
  if (turns_.is_faulty(from) && turns_.is_able(to) &&
      lt == turns_.outwards(lf, -1)) {
    return TransitionType::FA;
  }
  throw std::logic_error("AlgAu::classify: not a legal transition shape (" +
                         turns_.turn_name(from) + " -> " +
                         turns_.turn_name(to) + ")");
}

bool AlgAu::locally_protected(core::StateId q,
                              const core::SignalView& sig) const {
  const Level l = turns_.level_of(q);
  for (const core::StateId s : sig.states()) {
    if (!turns_.adjacent(l, turns_.level_of(s))) return false;
  }
  return true;
}

bool AlgAu::locally_good(core::StateId q, const core::SignalView& sig) const {
  if (!locally_protected(q, sig)) return false;
  for (const core::StateId s : sig.states()) {
    if (turns_.is_faulty(s)) return false;
  }
  return true;
}

std::string to_string(AlgAu::TransitionType t) {
  switch (t) {
    case AlgAu::TransitionType::None: return "None";
    case AlgAu::TransitionType::AA: return "AA";
    case AlgAu::TransitionType::AF: return "AF";
    case AlgAu::TransitionType::FA: return "FA";
  }
  return "?";
}

core::Configuration au_config_tear(const AlgAu& alg, core::NodeId n) {
  const auto& ts = alg.turns();
  core::Configuration c(n, ts.able_id(1));
  for (core::NodeId v = n / 2; v < n; ++v) c[v] = ts.able_id(ts.k());
  return c;
}

core::Configuration au_config_all_faulty(const AlgAu& alg, core::NodeId n) {
  return core::Configuration(n, alg.turns().faulty_id(alg.turns().k()));
}

core::Configuration au_config_opposed(const AlgAu& alg, core::NodeId n) {
  const auto& ts = alg.turns();
  core::Configuration c(n);
  for (core::NodeId v = 0; v < n; ++v) {
    c[v] = (v % 2 == 0) ? ts.able_id(ts.k()) : ts.able_id(-ts.k());
  }
  return c;
}

core::Configuration au_config_random_able(const AlgAu& alg, core::NodeId n,
                                          util::Rng& rng) {
  const auto& ts = alg.turns();
  core::Configuration c(n);
  for (auto& q : c) q = rng.below(2 * static_cast<std::uint64_t>(ts.k()));
  return c;  // able ids occupy [0, 2k)
}

core::Configuration au_config_gradient(const AlgAu& alg,
                                       const graph::Graph& g) {
  const auto& ts = alg.turns();
  const auto dist = graph::bfs_distances(g, 0);
  core::Configuration c(g.num_nodes());
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    const int l = std::min<int>(1 + static_cast<int>(dist[v]), ts.k());
    c[v] = ts.able_id(l);
  }
  return c;
}

std::vector<std::string> au_adversary_kinds() {
  return {"tear", "all-faulty", "opposed", "random-able", "random",
          "gradient"};
}

core::Configuration au_adversarial_configuration(const std::string& kind,
                                                 const AlgAu& alg,
                                                 const graph::Graph& g,
                                                 util::Rng& rng) {
  const core::NodeId n = g.num_nodes();
  if (kind == "tear") return au_config_tear(alg, n);
  if (kind == "all-faulty") return au_config_all_faulty(alg, n);
  if (kind == "opposed") return au_config_opposed(alg, n);
  if (kind == "random-able") return au_config_random_able(alg, n, rng);
  if (kind == "random") return core::random_configuration(alg, n, rng);
  if (kind == "gradient") return au_config_gradient(alg, g);
  throw std::invalid_argument("unknown AU adversary kind: " + kind);
}

}  // namespace ssau::unison
