// The algorithm abstraction Π = <Q, Q_O, ω, δ> of the SA model (paper §1.1).
//
// An Automaton is an anonymous, size-uniform randomized finite state machine:
// every node runs the same transition function over (own state, signal). The
// δ of the paper maps to a set of candidate next states from which the node
// picks uniformly at random; implementations realize that draw inside step()
// using the supplied Rng (deterministic algorithms ignore it).
//
// Output values are modeled as int64 for uniformity across tasks: AU exposes
// the clock value in Z_{2k}; LE/MIS expose {0,1}.
#pragma once

#include <string>

#include "core/signal.hpp"
#include "core/signal_view.hpp"
#include "core/types.hpp"
#include "util/rng.hpp"

namespace ssau::core {

class Automaton {
 public:
  virtual ~Automaton() = default;

  /// |Q|. State ids are dense in [0, state_count()).
  [[nodiscard]] virtual StateId state_count() const = 0;

  /// Membership in Q_O.
  [[nodiscard]] virtual bool is_output(StateId q) const = 0;

  /// ω(q) — only meaningful for output states; implementations may return an
  /// arbitrary value for non-output states.
  [[nodiscard]] virtual std::int64_t output(StateId q) const = 0;

  /// One activation of a node in state `q` sensing `sig` (which includes q
  /// itself). Returns the post-step state; returning q means "no transition".
  ///
  /// The default forwards to step_fast through a SignalView, so an automaton
  /// implements δ exactly once — in whichever overload fits it — and gets the
  /// other for free. Overriding NEITHER step nor step_fast is ill-formed
  /// (infinite mutual recursion).
  [[nodiscard]] virtual StateId step(StateId q, const Signal& sig,
                                     util::Rng& rng) const {
    return step_fast(q, SignalView(sig), rng);
  }

  /// The zero-allocation δ used by the engine hot path: identical semantics to
  /// step(), but the signal is a non-owning view (span + optional bitmask).
  /// The default materializes a Signal and calls step() — correct but
  /// allocating; hot automata override this one instead of step().
  [[nodiscard]] virtual StateId step_fast(StateId q, const SignalView& sig,
                                          util::Rng& rng) const {
    return step(q, sig.materialize(), rng);
  }

  /// δ from the presence bitmask alone — the engine's innermost kernel when
  /// |Q| <= 64 (the mask is then an exact encoding of the signal). The
  /// default unpacks the mask into a scratch SignalView and calls step_fast;
  /// automata with a native bitmask kernel (precomputed predicate masks,
  /// transition tables) override this for O(1) transitions.
  [[nodiscard]] virtual StateId step_mask(StateId q, std::uint64_t mask,
                                          util::Rng& rng) const;

  /// δ from the exact 256-bit presence set — the engine's kernel when
  /// 64 < |Q| <= 256 (every byte-per-node store senses into a StateSet). The
  /// default unpacks the words in ascending order into a scratch SignalView
  /// and calls step_fast, as step_mask's default does; automata with native
  /// guard sets (AlgAu for D <= 20) override it with word-wise AND tests.
  [[nodiscard]] virtual StateId step_set(StateId q, const StateSet& set,
                                         util::Rng& rng) const;

  /// δ from the exact wide presence set — the engine's kernel when
  /// 256 < |Q| <= WideStateSet::kBits and native_wide_kernel() holds. The
  /// default unpacks the words in ascending order into a scratch SignalView
  /// and calls step_fast, as step_set's default does; AlgMis (D <= 53) and
  /// AlgLe (D <= 22) override it with their class-set tests.
  [[nodiscard]] virtual StateId step_wide(StateId q, const WideStateSet& set,
                                          util::Rng& rng) const;

  /// True iff δ never consults the Rng. Deterministic automata with
  /// |Q| <= SignalView::kMaskBits are eligible for table compilation
  /// (CompiledAutomaton).
  [[nodiscard]] virtual bool deterministic() const { return false; }

  /// True iff step_mask is a native O(1) kernel (not the unpacking default).
  /// The engine skips CompiledAutomaton table compilation for such automata —
  /// wrapping a memo around an O(1) kernel only adds overhead.
  [[nodiscard]] virtual bool native_mask_kernel() const { return false; }

  /// True iff step_wide is a native kernel for this |Q| (not the unpacking
  /// default). The engine senses a wide store into a WideStateSet only for
  /// such automata; every other wide store keeps the sorted view, since
  /// unpacking a set back into it would only add work.
  [[nodiscard]] virtual bool native_wide_kernel() const { return false; }

  /// True iff concurrent step/step_fast/step_mask calls on ONE instance are
  /// safe (no mutable per-call state; thread_local scratch is fine). The
  /// engine shards its synchronous kernel across worker threads only for
  /// automata that opt in; the default is conservative because C++ cannot
  /// check this property. Audit for `mutable` members before overriding —
  /// e.g. sync::Synchronizer keeps per-call projection scratch and must stay
  /// serial.
  [[nodiscard]] virtual bool parallel_safe() const { return false; }

  /// Human-readable state name for traces and diagrams.
  [[nodiscard]] virtual std::string state_name(StateId q) const;
};

}  // namespace ssau::core
