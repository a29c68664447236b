// The asynchronous execution engine of the SA model (paper §1.1).
//
// Semantics reproduced exactly:
//   * step t: every node v in A_t reads the configuration C_t (its own state
//     and its signal S_v^t over N+(v)) and updates simultaneously; all other
//     nodes keep their state (double-buffered application).
//   * round operator ϱ: a round [R(i), R(i+1)) closes at the earliest time by
//     which every node has been activated at least once since R(i).
//     Stabilization times are reported as round indices i, the paper's
//     measure.
//
// The engine is algorithm-agnostic: it drives any core::Automaton under any
// sched::Scheduler from any initial configuration (the adversary's C_0).
//
// Kernels:
//   * sensing follows the configuration store, allocation-free
//     (core/signal_view.hpp): |Q| <= 64 gathers a 64-bit presence mask for
//     Automaton::step_mask; 64 < |Q| <= 256 (the rest of the byte-per-node
//     stores) gathers the exact 256-bit StateSet for Automaton::step_set;
//     a wide store (|Q| > 256) of at most 1,024 states whose automaton has
//     a native step_wide (AlgMIS to D = 53, AlgLE to D = 22) gathers the
//     exact WideStateSet, ceil(|Q| / 64) populated words, for
//     Automaton::step_wide; every other wide store sorts the neighborhood
//     into a SignalView for Automaton::step_fast. No path sorts or
//     deduplicates except the last;
//   * deterministic automata with |Q| <= 64 are compiled into a table-driven
//     kernel (CompiledAutomaton) at engine construction;
//   * under a full-activation scheduler (Scheduler::full_activation), the
//     phase-1/phase-2 split is replaced by double-buffering the whole
//     configuration, and activation/round bookkeeping folds into the same
//     pass (every synchronous step closes exactly one round);
//   * the serial asynchronous step splits by |A_t|. A step whose A_t holds
//     one node (every step of uniform-single, rotating-single, permutation
//     and burst; laggard's and random-subset's one-node draws) senses,
//     steps and applies in one pass: nothing else reads C_t, so there is
//     no update list and no second loop. Larger activation sets keep the
//     two phases — every node senses C_t into the update list, then all
//     apply — because their reads are simultaneous. Both shapes share one
//     sense→δ dispatch (Engine::activate, templated on the sense kind that
//     is resolved once per step) and one apply and round-close bookkeeping.
//
// Signal field (EngineOptions::signal_field; core/signal_field.hpp):
//   * under the serial-daemon regime — an asynchronous scheduler whose
//     activation sets stay small — every sense on the serial per-activation
//     path still rescans N+(v). The signal field replaces that rescan with
//     delta-maintained per-node state counters: initialized once from C_0,
//     patched on every applied transition by updating only the
//     transitioning node's neighbors, and read back per sense as a presence
//     mask derived from the node's own counter row (|Q| <= 64), its stored
//     presence words (|Q| <= 256), or an O(distinct) span (the sorted
//     multiset of larger or denser instances);
//   * routing is one rule, decided at construction and never revisited: a
//     field exists only on engines whose every step runs the serial
//     asynchronous path (not full-activation, not sparse-eligible). There
//     kOn always builds one, kOff never does, and kAuto builds one from the
//     scheduler's max_activation_hint(), the graph's average degree and
//     the field's layout: only a field with dense counters (see
//     SignalFieldMode::kAuto);
//   * so only serial steps patch it, and configuration injections
//     invalidate it for a lazy rebuild at the next step — the field-sensed
//     trajectory is bit-identical to the rescan-sensed one.
//
// Parallel kernels (EngineOptions::thread_count != 1):
//   * all sharded execution runs on the fork-join shard pool
//     (core/parallel_engine.hpp): each run() call executes one body over a
//     shard list, the caller claiming shards alongside the workers, and
//     returns once every shard finished. Plans over-decompose: P
//     participants share P * kShardsPerParticipant shards (core/shard.hpp),
//     so one slow participant no longer holds up the whole join. Scratch
//     that a body mutates lives per participant (sense scratch, lazy memo,
//     rng scratch; participant 0 is the calling thread, whose workspace
//     also serves the serial paths), results live per shard (transition
//     log, counter-saturation flag, pending tally);
//   * under a full-activation scheduler the double-buffered synchronous step
//     is sharded over contiguous degree-weighted node ranges (core/shard.hpp);
//     every node reads the previous buffer and writes only its own slot, so
//     shards never contend. Each step is one run() of the phase-1 body
//     followed by one serial tail: listener replay from the per-shard
//     transition logs, buffer swap, round close. A serial synchronous
//     engine runs the same shard body on a single [0, n) shard without a
//     pool, so serial and sharded synchronous steps share one loop body and
//     one tail;
//   * under an asynchronous daemon whose activation sets can get large
//     (Scheduler::max_activation_hint() at or above
//     EngineOptions::sparse_activation_threshold), any step with
//     |A_t| >= that threshold runs BOTH phases sharded over contiguous
//     degree-weighted index ranges of the activation list: a phase-1 run()
//     writes disjoint slots of the update list, then an apply run() — a
//     separate call, since phase 1 reads arbitrary configuration slots —
//     drains each shard's own span into disjoint config/activation-count/
//     pending elements, and the engine finishes with a serial merge in
//     shard-index order (pending-count/round-close detection: the
//     cross-shard effect that needs a deterministic order). The scheduler
//     draw itself stays serial, so the schedule is untouched. The
//     threshold check comes before the |A_t| split, so at a threshold of 0
//     or 1 one-node steps run sharded too; steps below the threshold run
//     the serial step, and a listener (whose replay needs the pre-apply
//     configuration) keeps the sharded phase 1 but the serial apply loop;
//   * transition listeners stay exact: workers log (v, from, to) per shard
//     and the engine replays the concatenated logs in iteration order after
//     the join, materializing each signal from the pre-step configuration;
//   * single-node daemons (max_activation_hint() below the threshold) run
//     the serial path regardless of thread_count and spawn no workers.
//
// Topology churn (Engine::apply_topology_delta):
//   * the paper's §1 obstacle events — links failing and healing mid-run —
//     are O(delta) in-place edits: the graph is patched through
//     Graph::apply_delta, a live signal field is patched per effective edge,
//     sense scratches grow only when max_degree grew, the synchronous
//     kernel's shard plan re-balances lazily at its next parallel step, and
//     the scheduler is notified (WaveScheduler re-layers). Construction-time
//     routing (field on/off, sparse eligibility, thread count) is not
//     revisited — performance choices only, every path stays bit-identical;
//   * requires the churn-capable constructor (non-const graph::Graph&);
//     engines over const graphs keep the immutable contract.
//
// RNG discipline — all paths, all thread counts, bit-identical:
//   * scheduler draws always come from the engine's forked sched_rng_ stream,
//     consumed only on the (serial) scheduler call, so a randomized schedule
//     is a pure function of the seed, untouched by thread_count;
//   * automaton coin flips come from lazily derived two-axis counter streams
//     (util::Rng::activation_stream(seed, v, activation_count(v))): the
//     generator for each activation is a pure function of the seed, the node,
//     and how many times that node has been activated before — state the
//     engine already maintains — so NO per-node rng object is ever stored
//     (the pre-PR-9 engine kept n four-word generators alive; at a million
//     nodes that was 32 MB of state that also had to ride every snapshot).
//     Every kernel draws before bumping the node's activation count, so the
//     derived stream never depends on which shard, thread, or engine path
//     executed the activation.
// Consequently the serial kernels and the sharded kernels at every thread
// count all walk the same trajectory for equal seeds — the trajectory of the
// literal interpreter the differential suites judge them by
// (tests/support/reference_engine.hpp: an owning Signal::from_states plus
// Automaton::step per activation, under the same RNG discipline).
#pragma once

#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "core/automaton.hpp"
#include "core/compiled_automaton.hpp"
#include "core/parallel_engine.hpp"
#include "core/shard.hpp"
#include "core/signal.hpp"
#include "core/signal_field.hpp"
#include "core/signal_view.hpp"
#include "core/simd_gather.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "sched/scheduler.hpp"
#include "util/memusage.hpp"
#include "util/rng.hpp"

namespace ssau::util {
class BinaryReader;
class BinaryWriter;
}  // namespace ssau::util

namespace ssau::core {

/// Result of run_until_*: whether the predicate was reached, at what time,
/// and the smallest round index i with R(i) >= that time. Both `time` and
/// `rounds` are ABSOLUTE — counted from the engine's t = 0, not from the
/// start of the run_until call. To report how many rounds a recovery took,
/// subtract the round_index_now() stamp taken before the fault.
struct RunOutcome {
  bool reached = false;
  Time time = 0;
  std::uint64_t rounds = 0;
};

/// Routing policy for the delta-maintained signal field. Whatever the mode,
/// a field exists only on engines whose every step runs the serial
/// asynchronous path: the scheduler is not full-activation and the engine
/// is not sparse-eligible (see EngineOptions::sparse_activation_threshold).
/// The shard kernels never sense, so a field there would be upkeep that
/// nothing reads. The decision is made once, at construction, and no step
/// revisits it.
enum class SignalFieldMode : std::uint8_t {
  /// Build the field when n > 1, the scheduler's max_activation_hint() is
  /// below the sparse-activation threshold and at most n / 2 (daemons
  /// activating most of the graph per step transition too often for delta
  /// maintenance to win), the graph's average degree reaches
  /// kSignalFieldMinAvgDegree, and SignalField::dense_eligible holds: |Q| <=
  /// 256, no counter can saturate, and the counter table fits the field's
  /// byte budget. The sorted-multiset field that fails that last clause
  /// patched slower than the set kernels rescan at average degrees ~8 and
  /// ~30, and about even at ~200, so wide stores (MIS and LE from D = 12)
  /// rescan. Under rotation-style daemons a unison automaton transitions on
  /// almost every activation, and its field then reads slower than the
  /// rescan (single runs down to about two thirds); no shipped workload
  /// runs there.
  kAuto = 0,
  /// Always build the field where it can exist (the differential-testing
  /// and forced-benchmark mode), in whichever layout SignalField picks —
  /// the sorted multiset included.
  kOn,
  /// Never build the field; every sense rescans the neighborhood.
  kOff,
};

/// Cache-locality policy for the node layout (graph/reorder.hpp). Applied by
/// the churn-capable constructor only — it owns a mutable graph and reorders
/// it in place before any engine state is sized, so the CSR, both
/// configuration buffers, the activation counters, and the signal field all
/// inherit the permuted layout. Engines over const graphs never reorder (the
/// option is ignored there); a graph that already carries a permutation is
/// used as-is. Purely a performance knob: the public API keeps speaking user
/// ids (translated at the engine boundary), and the trajectory is the
/// original one relabelled — the permutation-equivalence suite pins that for
/// every kernel. NOTE for randomized automata: per-node draw streams are
/// keyed by the INTERNAL id, so a reordered run's user-visible trajectory
/// matches the unreordered run's only up to the relabelling, not verbatim.
enum class ReorderMode : std::uint8_t {
  /// Reorder (kBfs) when the graph is big enough to be cache-bound and has
  /// edges worth localizing: n >= kReorderAutoMinNodes and avg_degree >= 2.
  kAuto = 0,
  /// Keep the caller's layout.
  kOff,
  /// BFS/RCM frontier order — the right default (see ReorderPolicy::kBfs).
  kBfs,
  /// Stable descending-degree order (see ReorderPolicy::kDegree).
  kDegree,
};

/// Execution-path knobs. Defaults give the fastest exact-semantics engine.
struct EngineOptions {
  /// Shard count for the parallel kernels. 1 (default) = serial; 0 = auto —
  /// resolved through ParallelEngine::resolve_thread_count to
  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard allows hardware_concurrency() to report 0 on runners that
  /// cannot determine it; 0 never reaches any engine arithmetic). Services
  /// pooling many engines should resolve 0 through
  /// ParallelEngine::recommended_threads(sessions) instead, which divides
  /// the hardware budget across the sessions rather than handing every one
  /// of them the full core count. The auto budget is then clamped through
  /// core::recommended_shard_count, which scales the worker fleet to the
  /// graph's scan footprint — small instances stay serial (or lightly
  /// sharded) rather than paying barrier overhead across idle workers; an
  /// explicit N is always honored as given (up to one thread per node).
  /// N > 1 = N participants (the caller plus N - 1 workers) on the
  /// fork-join shard pool, claiming N * kShardsPerParticipant
  /// degree-weighted shards per parallel phase. Full-activation schedulers
  /// shard the synchronous kernel; asynchronous daemons with large
  /// activation sets shard both phases of the sparse-activation kernel.
  /// Every setting produces bit-identical trajectories.
  unsigned thread_count = 1;
  /// Minimum |A_t| for the sparse-activation sharded kernel. Steps with
  /// smaller activation sets (and daemons whose max_activation_hint() never
  /// reaches it) run the serial per-activation path — below this size the
  /// pool's fork and join cost more than the phase-1 work they split. Purely
  /// a performance knob: trajectories are bit-identical either way. Ignored
  /// when thread_count resolves to 1.
  std::size_t sparse_activation_threshold = 1024;
  /// Whether the serial per-activation path senses through the
  /// delta-maintained signal field instead of rescanning N+(v) — see
  /// SignalFieldMode. Purely a performance knob: trajectories are
  /// bit-identical in every mode.
  SignalFieldMode signal_field = SignalFieldMode::kAuto;
  /// Cache-locality node reordering — see ReorderMode. Only the
  /// churn-capable constructor acts on it; const-graph engines ignore it.
  ReorderMode reorder = ReorderMode::kAuto;
};

/// ReorderMode::kAuto reorders only at or above this node count: below it
/// the whole working set fits comfortably in cache and the permutation's
/// build cost plus its 8 bytes/node of translation tables buy nothing.
inline constexpr NodeId kReorderAutoMinNodes = NodeId{1} << 16;

/// kAuto enables the signal field only when the mean neighborhood is at
/// least this large; below it the per-sense rescan is already a handful of
/// reads and the per-transition patch would cost more than it saves. One
/// floor for every kernel of a dense field: on the uniform-single daemon
/// the mask kernels gain at least as much from the field as the set
/// kernels at every density measured (CHANGES.md holds the table).
inline constexpr double kSignalFieldMinAvgDegree = 4.0;

/// One engine configuration buffer, stored byte-per-node when the automaton's
/// state space fits a byte (|Q| <= 256 — AlgAU to D = 20, MIS to D = 11, LE
/// to D = 4 and the baselines) and as wide StateIds otherwise (the
/// synchronizer's product spaces, and MIS and LE at larger D). The narrow
/// mode is the double buffers' share of the million-node footprint story: 2
/// bytes per node across both buffers instead of 16. Hot kernels read/write
/// the raw arrays (templated on the element type); the wide `view()` is
/// materialized lazily for accessors, serialization, and field rebuilds.
class ConfigStore {
 public:
  void reset(const Configuration& c, bool narrow) {
    narrow_ = narrow;
    size_ = c.size();
    if (narrow_) {
      // The byte buffer carries simd::kByteStorePadding tail bytes beyond
      // the logical size: the AVX2 gather kernels read 32-bit lanes at byte
      // offsets, so the last node's gather overreads by 3 bytes.
      bytes_.assign(c.size() + simd::kByteStorePadding, 0);
      for (std::size_t i = 0; i < c.size(); ++i) {
        bytes_[i] = static_cast<std::uint8_t>(c[i]);
      }
      wide_.clear();
      wide_.shrink_to_fit();
    } else {
      wide_ = c;
      bytes_.clear();
      bytes_.shrink_to_fit();
    }
    view_dirty_ = true;
  }

  void reset_zero(std::size_t n, bool narrow) {
    narrow_ = narrow;
    size_ = n;
    if (narrow_) {
      bytes_.assign(n + simd::kByteStorePadding, 0);
    } else {
      wide_.assign(n, 0);
    }
    view_dirty_ = true;
  }

  [[nodiscard]] bool narrow() const { return narrow_; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] StateId get(NodeId v) const {
    return narrow_ ? bytes_[v] : wide_[v];
  }

  /// Serial element write (marks the lazy view dirty).
  void set(NodeId v, StateId q) {
    set_raw(v, q);
    view_dirty_ = true;
  }

  /// Raw element write for the parallel apply phase: touches no shared flag
  /// (concurrent view_dirty_ writes would be a data race); the kernel calls
  /// invalidate_view() once, serially, after the apply run() returns.
  void set_raw(NodeId v, StateId q) {
    if (narrow_) {
      bytes_[v] = static_cast<std::uint8_t>(q);
    } else {
      wide_[v] = q;
    }
  }

  [[nodiscard]] std::uint8_t* bytes_data() { return bytes_.data(); }
  [[nodiscard]] const std::uint8_t* bytes_data() const { return bytes_.data(); }
  [[nodiscard]] StateId* wide_data() { return wide_.data(); }
  [[nodiscard]] const StateId* wide_data() const { return wide_.data(); }

  /// Kernels that wrote through raw pointers must call this at their serial
  /// tail so the next view() re-materializes.
  void invalidate_view() { view_dirty_ = true; }

  /// The configuration as wide StateIds. Wide mode returns the buffer
  /// itself; narrow mode materializes (and caches) an owned wide copy.
  [[nodiscard]] const Configuration& view() const {
    if (!narrow_) return wide_;
    if (view_dirty_) {
      view_.resize(size_);
      for (std::size_t i = 0; i < size_; ++i) view_[i] = bytes_[i];
      view_dirty_ = false;
    }
    return view_;
  }

  void swap(ConfigStore& o) {
    std::swap(narrow_, o.narrow_);
    std::swap(size_, o.size_);
    bytes_.swap(o.bytes_);
    wide_.swap(o.wide_);
    view_.swap(o.view_);
    std::swap(view_dirty_, o.view_dirty_);
  }

  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    return util::DynamicUsage(bytes_) + util::DynamicUsage(wide_) +
           util::DynamicUsage(view_);
  }

 private:
  bool narrow_ = false;
  std::size_t size_ = 0;
  std::vector<std::uint8_t> bytes_;  // size_ + simd::kByteStorePadding bytes
  Configuration wide_;
  mutable Configuration view_;
  mutable bool view_dirty_ = true;
};

/// The asynchronous kernels' pending-update slots, packed to 8 bytes per
/// update ((NodeId, uint32 state)) whenever the state space fits 32 bits —
/// which is every shipped automaton; the pair<NodeId, StateId> fallback (16
/// bytes after padding) exists for pathological state spaces only.
class UpdateList {
 public:
  void configure(bool packed) { packed_ = packed; }
  [[nodiscard]] bool packed() const { return packed_; }
  [[nodiscard]] std::size_t size() const {
    return packed_ ? packed_slots_.size() : wide_slots_.size();
  }
  void clear() {
    packed_slots_.clear();
    wide_slots_.clear();
  }
  void resize(std::size_t n) {
    if (packed_) {
      packed_slots_.resize(n);
    } else {
      wide_slots_.resize(n);
    }
  }
  void reserve(std::size_t n) {
    if (packed_) {
      packed_slots_.reserve(n);
    } else {
      wide_slots_.reserve(n);
    }
  }
  void push(NodeId v, StateId q) {
    if (packed_) {
      packed_slots_.push_back({v, static_cast<std::uint32_t>(q)});
    } else {
      wide_slots_.emplace_back(v, q);
    }
  }
  /// Indexed write into a pre-resized slot — disjoint indices may be written
  /// from concurrent shards (no shared state is touched).
  void set(std::size_t i, NodeId v, StateId q) {
    if (packed_) {
      packed_slots_[i] = {v, static_cast<std::uint32_t>(q)};
    } else {
      wide_slots_[i] = {v, q};
    }
  }
  [[nodiscard]] std::pair<NodeId, StateId> get(std::size_t i) const {
    if (packed_) return {packed_slots_[i].v, packed_slots_[i].q};
    return wide_slots_[i];
  }
  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    return util::DynamicUsage(packed_slots_) + util::DynamicUsage(wide_slots_);
  }

 private:
  struct PackedUpdate {
    NodeId v;
    std::uint32_t q;
  };
  bool packed_ = true;
  std::vector<PackedUpdate> packed_slots_;
  std::vector<std::pair<NodeId, StateId>> wide_slots_;
};

class Engine {
 public:
  /// Observes every state transition (from != to) as it is applied. The
  /// Signal is materialized into one engine-owned scratch that is reused
  /// across callbacks (no per-transition allocation once warm);
  /// the reference is only valid for the duration of the call — listeners
  /// that keep signals must copy them.
  using TransitionListener = std::function<void(
      NodeId v, StateId from, StateId to, const Signal& sig, Time t)>;

  /// The engine borrows graph/automaton/scheduler; they must outlive it.
  Engine(const graph::Graph& g, const Automaton& alg, sched::Scheduler& sched,
         Configuration initial, std::uint64_t seed, EngineOptions options = {});

  /// Churn-capable overload: identical semantics, but the engine remembers
  /// that it may mutate `g`, enabling apply_topology_delta(). A non-const
  /// graph lvalue binds here automatically; engines over const graphs keep
  /// the immutable contract. This overload also applies
  /// EngineOptions::reorder: when the resolved policy is not kOff, `g` is
  /// rebuilt in a cache-friendly node order (graph/reorder.hpp) before the
  /// engine sizes any state — `g` itself is replaced, and its
  /// to_user/to_internal accessors carry the relabelling. All ids crossing
  /// the public API (here and below) stay in USER space.
  Engine(graph::Graph& g, const Automaton& alg, sched::Scheduler& sched,
         Configuration initial, std::uint64_t seed, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Executes one step (one scheduler activation set).
  void step();

  /// Runs until pred(config) holds (checked after every step and on the
  /// initial configuration) or until rounds_completed() reaches
  /// `max_rounds`. The cap is ABSOLUTE, not relative to the call: a second
  /// run_until after a fault burst must pass the pre-burst stamp plus its
  /// budget, or it inherits whatever budget the first call left.
  RunOutcome run_until(const std::function<bool(const Configuration&)>& pred,
                       std::uint64_t max_rounds);

  /// Runs until `rounds` more rounds have completed.
  void run_rounds(std::uint64_t rounds);

  /// The current configuration, indexed by USER node ids (on a reordered
  /// graph this materializes a translated copy; the span stays valid until
  /// the next engine call).
  [[nodiscard]] const Configuration& config() const {
    return graph_.reordered() ? user_view() : store_.view();
  }
  [[nodiscard]] StateId state_of(NodeId v) const {
    return store_.get(graph_.to_internal(v));
  }
  [[nodiscard]] Time time() const { return time_; }
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }

  /// Smallest i such that R(i) >= current time (the paper-style round stamp
  /// of "now"). At a round boundary — time_ == R(rounds_), which includes
  /// t = 0 = R(0) — this is exactly rounds_; strictly inside a round it is
  /// rounds_ + 1, the index of the round that will close next.
  [[nodiscard]] std::uint64_t round_index_now() const {
    return time_ == last_boundary_time_ ? rounds_ : rounds_ + 1;
  }

  /// The signal of node v under the *current* configuration (owning; for
  /// inspection — the hot path never calls this).
  [[nodiscard]] Signal signal_of(NodeId v) const;

  /// Number of activations applied to node v so far (fairness auditing).
  [[nodiscard]] std::uint64_t activation_count(NodeId v) const {
    const NodeId i = graph_.to_internal(v);
    return act_wide_ ? act64_[i] : act32_[i];
  }

  /// True when the configuration buffers run byte-per-node (|Q| <= 256) —
  /// observability for the scale bench and tests.
  [[nodiscard]] bool compact_config() const { return store_.narrow(); }

  /// Heap bytes owned by the engine's dynamic state — configuration buffers,
  /// round/pending bookkeeping, activation counters, kernels, workspaces,
  /// the signal field, and the shard pool (see util/memusage.hpp). The
  /// borrowed graph/automaton/scheduler are NOT included; Graph has its own
  /// dynamic_memory_usage().
  [[nodiscard]] std::size_t dynamic_memory_usage() const;

  /// Attaches (or, with an empty function, detaches) the transition
  /// listener; it observes every transition from the next step on.
  void set_transition_listener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

  [[nodiscard]] const graph::Graph& graph() const { return graph_; }
  [[nodiscard]] const Automaton& automaton() const { return automaton_; }
  [[nodiscard]] const sched::Scheduler& scheduler() const { return scheduler_; }
  /// The compiled table kernel, or nullptr when the automaton is not
  /// compiled: randomized, |Q| > 64, or carrying its own native mask kernel
  /// (every other automaton is compiled at construction).
  [[nodiscard]] const CompiledAutomaton* compiled() const {
    return compiled_.get();
  }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// True when the engine owns a delta-maintained signal field: the routing
  /// rule of SignalFieldMode, applied once at construction.
  [[nodiscard]] bool signal_field_active() const { return field_ != nullptr; }
  /// The field itself, or nullptr when routing built none (observability
  /// for tests and benches). Check signal_field_stale() before reading
  /// counters out of it.
  [[nodiscard]] const SignalField* signal_field() const { return field_.get(); }
  /// True when an injection invalidated the field and no step has rebuilt
  /// it yet; the next step rebuilds it before its first sense.
  [[nodiscard]] bool signal_field_stale() const { return field_stale_; }

  /// Threads that step the parallel kernels (synchronous or
  /// sparse-activation): the shard pool's participants, caller included —
  /// or 1 when the engine runs serial (thread_count 1, a daemon whose
  /// activation sets stay below the sparse threshold, or a parallel-unsafe
  /// automaton). Each parallel phase cuts up to kShardsPerParticipant times
  /// as many shards; this counts the threads that share them, which is what
  /// divides a step's work.
  [[nodiscard]] unsigned shard_count() const {
    return pool_ ? pool_->participants() : 1;
  }

  /// Nanoseconds the stepping thread has spent blocked at the pool's join
  /// after every shard was claimed (ParallelEngine::barrier_wait_ns) — 0
  /// for serial engines. The bench's thread-sweep rows report this per
  /// cell; the original epoch pool spent every serial phase-2 tail here.
  [[nodiscard]] std::uint64_t barrier_wait_ns() const {
    return pool_ ? pool_->barrier_wait_ns() : 0;
  }
  /// Nanoseconds spent in the serial tail after a sharded step's barrier:
  /// the sparse kernel's shard-order merge, and the sharded synchronous
  /// kernel's buffer swap and round close. Serial steps (the serial
  /// synchronous step and the serial apply path, which also runs the sparse
  /// kernel's listener fallback) never read the clock — one read per ~100 ns
  /// single-activation step would tax the loop — so an engine without a
  /// pool always reports 0.
  [[nodiscard]] std::uint64_t apply_phase_ns() const { return apply_phase_ns_; }

  /// Overwrites the configuration (models a burst of transient faults /
  /// adversarial re-initialization mid-run). Round tracking continues.
  void inject_configuration(Configuration config);

  /// Overwrites the state of one node (a targeted transient fault).
  void inject_state(NodeId v, StateId q);

  /// Applies a batch of edge edits to the live topology in place — the
  /// paper's §1 environmental-obstacle events (links failing and healing
  /// mid-run) as an O(delta) operation instead of a rebuild. The graph is
  /// patched via Graph::apply_delta; every piece of engine-derived state
  /// follows incrementally:
  ///   * a live signal field is patched in O(1) per effective edge (the two
  ///     endpoints exchange presence of each other's current state) — no
  ///     rebuild, and a stale field stays lazily-rebuilt-later;
  ///   * sense scratches grow when max_degree grew; the compiled-automaton
  ///     table/memo and per-node rng streams are untouched (they do not
  ///     depend on the topology);
  ///   * the synchronous kernel's shard plan is re-balanced lazily at its
  ///     next parallel step (the sparse kernel re-weighs every step anyway);
  ///   * the scheduler is notified via Scheduler::on_topology_change
  ///     (WaveScheduler recomputes its BFS layers).
  /// Construction-time ROUTING decisions (signal-field on/off, sparse-kernel
  /// eligibility, thread count) are deliberately not revisited — they are
  /// performance choices, and every path stays bit-identical regardless.
  /// Time, rounds, pending-round bookkeeping, and activation counts carry
  /// across the event: churn is part of the run, not a restart.
  ///
  /// Returns the effective delta (what actually changed). Throws
  /// std::logic_error when the engine was constructed from a const graph,
  /// std::invalid_argument on out-of-range endpoints or self-loops (graph
  /// untouched). Must be called between steps, never from a listener.
  graph::TopologyDelta apply_topology_delta(const graph::TopologyDelta& delta);

  /// The seed this engine was constructed with (snapshot provenance; the
  /// restored engine's behavior comes from the serialized rng states, not
  /// from re-seeding).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// True when the churn-capable constructor ran (non-const graph), i.e.
  /// apply_topology_delta is available. service::Session surfaces this as a
  /// typed capability: a TopologyDelta command against a const-graph engine
  /// yields a Status::kUnsupported Result instead of the raw logic_error.
  [[nodiscard]] bool churn_capable() const { return mutable_graph_ != nullptr; }

  // --- snapshot support (core/snapshot.hpp drives these) --------------------
  // The serialization contract is a repo-wide invariant: any new mutable
  // engine member must either be covered by save_state/load_state (bump
  // kSnapshotVersion in core/snapshot.hpp) or be derived state the
  // constructor rebuilds — otherwise the restore differential suite
  // (tests/test_snapshot.cpp) fails.

  /// Serializes the engine's dynamic state — time, round bookkeeping,
  /// pending set, activation counts (always written as u64 regardless of the
  /// in-memory width), rng/sched-rng states — then the retired signal-field
  /// block as zeros (kRetiredFieldBytes). Nothing here depends on routing
  /// or thread count, so neither does engine_state_hash. Static state
  /// (graph, config, options, automaton identity, scheduler state) is
  /// framed separately by the snapshot layer. Writes the v2 layout:
  /// per-node rng streams are derived (see the RNG-discipline note), so no
  /// per-node block exists.
  void save_state(util::BinaryWriter& w) const;

  /// Restores state written by save_state into a freshly constructed engine
  /// over the same graph/automaton/scheduler/configuration. `version` is the
  /// enclosing snapshot's wire version: v1 payloads carry a per-node rng
  /// block (the pre-PR-9 stored streams), which is validated for shape and
  /// skipped — a restored v1 randomized run continues on the activation-
  /// derived streams, deterministic but not the byte stream the pre-upgrade
  /// binary would have produced (v1 deterministic runs, including the golden
  /// fixture, are unaffected). The retired field block is skipped whatever
  /// it holds: this engine keeps the field its own construction routed,
  /// built from the restored configuration. Throws util::SnapshotError on
  /// structural inconsistency (sizes that do not match the graph,
  /// pending-count mismatch). After it returns, stepping this engine is
  /// bit-identical to stepping the snapshotted one.
  void load_state(util::BinaryReader& r, std::uint32_t version = 2);

  /// Size of the retired signal-field block that closes the engine state:
  /// presence, staleness and adaptive-routing u8s, then two u64 window
  /// counters. Writers emit zeros, which is what a field-less engine always
  /// wrote; readers skip it.
  static constexpr std::size_t kRetiredFieldBytes = 3 + 2 * 8;

 private:
  struct ParticipantWorkspace;
  struct ShardWorkspace;
  /// One applied state transition of node v — the record the sharded
  /// kernels log per shard for a listener's replay. `from`/`to` are taken
  /// against the pre-step configuration (simultaneous updates: every
  /// transition of one step reads the same C_t).
  struct TransitionRec {
    NodeId v;
    StateId from;
    StateId to;
  };

  void step_synchronous();
  void step_async();
  void step_sparse_parallel();

  /// How a serial activation senses N+(v) and which δ overload it feeds.
  /// with_sense_kind resolves it once per step, so the per-activation code
  /// never branches on it.
  enum class SenseKind : std::uint8_t {
    kFieldMask,  // the field's presence mask -> step_mask (no listener)
    kFieldSet,   // the field's presence set -> step_set
    kFieldView,  // the field's sorted view -> step_fast
    kTable,      // rescanned mask -> compiled dense table (no listener)
    kMask,       // rescanned mask -> step_mask (no listener)
    kSet,        // rescanned set -> step_set
    kWideSet,    // rescanned wide set -> step_wide
    kView,       // rescanned sorted view -> step_fast
  };
  template <SenseKind K>
  using SenseTag = std::integral_constant<SenseKind, K>;

  /// Calls f(SenseTag<K>{}) with the kind this step's activations take.
  template <typename F>
  void with_sense_kind(const F& f);

  /// The serial asynchronous step over the raw current store `cfg`
  /// (templated on the element width, resolved once per step). |A_t| = 1
  /// senses, steps and applies in one pass; larger activation sets sense
  /// every node into updates_ first (simultaneous reads), then apply.
  template <typename T>
  void async_serial_step(T* cfg);

  /// One serial activation of node v: senses N+(v) under `cfg` as K says,
  /// applies δ, and reports a transition to the listener with the pre-step
  /// signal. Returns the next state. The one definition of the per-activation
  /// sense→δ dispatch that both step shapes share.
  template <SenseKind K, typename T>
  [[gnu::always_inline]] StateId activate(ParticipantWorkspace& ws,
                                          const Automaton& kernel,
                                          const T* cfg, NodeId v);

  /// Applies one serial activation's result: patches the field on a
  /// transition, writes the store, bumps v's activation count and clears
  /// its pending mark. Shared by the one-pass step, the two-phase apply
  /// loop (apply_updates) and the sparse kernel's listener fallback, which
  /// runs on an engine that never has a field. The serial step refreshed a
  /// stale field before its first sense, so a field here is always live.
  template <typename T>
  [[gnu::always_inline]] void apply_activation(T* cfg, NodeId v,
                                               StateId next);
  template <typename T>
  void apply_updates(T* cfg);

  /// The end of every asynchronous step, serial or sharded: marks the
  /// store's wide view stale, advances time, closes the round when no node
  /// is pending, and promotes the activation counters when a serial bump
  /// asked for it. Never reads the clock: single-activation steps take
  /// ~100 ns, so apply_phase_ns_ instruments the sharded kernels only.
  void close_async_step();

  /// Rebuilds the signal field from the current configuration if an
  /// injection invalidated it — called at the start of every serial step.
  void ensure_field_fresh() {
    if (field_stale_) {
      field_->rebuild(store_.view());
      field_stale_ = false;
    }
  }

  /// Listener dispatch: refills the reusable scratch Signal from
  /// the view's span (no allocation once warm) and invokes the callback.
  /// `v` is an internal id; the listener, like every public surface, sees
  /// the user id.
  void emit_listener(NodeId v, StateId from, StateId to, const SignalView& sig) {
    listener_scratch_.assign_sorted_unique(sig.states());
    listener_(graph_.to_user(v), from, to, listener_scratch_, time_);
  }

  /// Phase 1 of one shard, shared by the synchronous kernel (serial and
  /// sharded) and the sparse-activation kernel — their loop bodies must stay
  /// in lockstep or bit-identity silently breaks: computes the next state
  /// of every index in [shard.begin, shard.end) against the raw current
  /// store `cfg` (templated on the element type so the byte-compact and
  /// wide storage modes share one body) with the running participant's
  /// scratch `pw`, mapping indices to nodes via `node_of` (identity for the
  /// synchronous kernel, the activation list for the sparse kernel) and
  /// handing results to `emit(i, v, next)` (double-buffer slot vs
  /// update-list slot). Logs transitions into ws.transitions for a listener
  /// when `log_transitions`.
  template <typename T, typename NodeOf, typename Emit>
  void shard_phase1(const Shard& shard, ParticipantWorkspace& pw,
                    ShardWorkspace& ws, const T* cfg, bool log_transitions,
                    const NodeOf& node_of, const Emit& emit);

  /// The synchronous kernel's phase 1: every shard of sync_shards_ computes
  /// its node range of `next` from `cur` — claimed by the pool's
  /// participants when the engine has a pool, run inline on the single
  /// [0, n) shard otherwise.
  template <typename T>
  void sync_phase1(const T* cur, T* next, bool log_transitions);
  /// The sparse kernel's phase 1: one pool run() over sparse_shards_, each
  /// shard computing its span of the activation list into updates_.
  template <typename T>
  void sparse_phase1(const T* cfg, bool log_transitions);

  /// Node v's activation count right now — the activation axis of the lazy
  /// rng stream derivation. Safe from shard bodies: only the shard holding
  /// v writes act*[v], in a later run() than any phase-1 read.
  [[nodiscard]] std::uint64_t act_now(NodeId v) const {
    return act_wide_ ? act64_[v] : act32_[v];
  }

  /// 32-bit counters promote to 64-bit once any node reaches this. Promotion
  /// runs at the end of every step that requested it, and one step bumps a
  /// node at most once (activation sets hold distinct ids), so a single
  /// count of headroom below 2^32 would do; the 256 is slack that keeps
  /// that argument from having to be exact.
  static constexpr std::uint32_t kActPromote = 0xFFFFFF00U;

  /// Bumps node v's activation count, requesting promotion via `saturated`
  /// (the engine-level flag on serial paths, a per-shard workspace flag in
  /// shard bodies — promotion itself only ever runs at a serial point).
  /// Forced inline: GCC merged the serial step's several call sites into
  /// one out-of-line call.
  [[gnu::always_inline]] void bump_act(NodeId v, bool& saturated) {
    if (act_wide_) {
      ++act64_[v];
      return;
    }
    if (++act32_[v] >= kActPromote) saturated = true;
  }

  /// Serial point: widens the counters to 64-bit when any path saw a counter
  /// near the 32-bit ceiling since the last check.
  void maybe_promote_acts();

  /// The rng stream for an activation of node v, materialized into the
  /// running participant's scratch generator: derived on the spot from
  /// (seed, v, activation count) for randomized automata (see the RNG-
  /// discipline note — no per-node generator is stored), left untouched and
  /// never consulted for deterministic ones. A participant runs one body at
  /// a time, so this never races. Must be called BEFORE the activation's
  /// bump_act.
  ///
  /// Forced inline: every kernel loop calls it once per activation, and
  /// left to itself GCC made it an out-of-line call there, deterministic
  /// automata included.
  [[nodiscard, gnu::always_inline]] util::Rng& draw_rng(
      ParticipantWorkspace& pw, NodeId v) {
    if (randomized_) {
      pw.scratch_rng = util::Rng::activation_stream(seed_, v, act_now(v));
    }
    return pw.scratch_rng;
  }

  /// The current configuration translated back to USER id order (reordered
  /// graphs only — config() routes here). Materialized into user_view_ on
  /// every call: the store has no cheap way to know whether it changed since
  /// the last translation, and the accessor is off the hot path.
  [[nodiscard]] const Configuration& user_view() const;

  /// Maps a topology delta across the id boundary: user->internal for
  /// deltas entering apply_topology_delta, internal->user for the effective
  /// delta it returns. Identity (no copy cost beyond the pass-through) when
  /// the graph is not reordered — callers skip it then.
  [[nodiscard]] graph::TopologyDelta translate_delta_to_internal(
      const graph::TopologyDelta& d) const;
  [[nodiscard]] graph::TopologyDelta translate_delta_to_user(
      const graph::TopologyDelta& d) const;

  /// The 64-bit neighborhood presence mask of v under the current store —
  /// serial-path convenience over the templated free function.
  [[nodiscard]] std::uint64_t mask_current(NodeId v) const;

  /// Senses v under the current store into `s` — serial-path convenience
  /// dispatching the store's element width.
  SignalView sense_current(SignalScratch& s, NodeId v);

  const graph::Graph& graph_;
  // Non-null iff the churn-capable constructor ran: the one handle through
  // which apply_topology_delta may mutate the borrowed graph.
  graph::Graph* mutable_graph_ = nullptr;
  const Automaton& automaton_;
  sched::Scheduler& scheduler_;
  // Double-buffered configuration storage, byte-per-node when |Q| <= 256
  // (next_store_ is only populated for synchronous engines).
  ConfigStore store_;
  ConfigStore next_store_;
  util::Rng rng_;
  util::Rng sched_rng_;
  std::uint64_t seed_;
  Time time_ = 0;
  EngineOptions options_;

  // Kernel state.
  std::unique_ptr<CompiledAutomaton> compiled_;
  bool full_activation_ = false;   // scheduler guarantees A_t = V
  bool mask_kernel_ = false;       // |Q| <= 64: step_mask drives the hot loop
  bool set_kernel_ = false;        // 64 < |Q| <= 256: step_set, byte store
  // 256 < |Q| <= 1024 with a native step_wide: wide store, no sort.
  bool wide_set_kernel_ = false;
  // Dense compiled kernel hoisted out of the virtual dispatch: when the
  // compiled automaton carries an eager table, phase-1 loops apply δ as
  // table_[(q << dense_shift_) | mask] directly (nullptr otherwise). The
  // table is immutable and shared by every shard.
  const std::uint8_t* dense_table_ = nullptr;
  StateId dense_shift_ = 0;

  // Randomized automata draw from lazily derived (seed, node, activation)
  // counter streams (see the RNG-discipline note above); deterministic ones
  // never draw at all.
  bool randomized_ = false;

  // What a kernel body mutates besides its outputs, one per thread that
  // runs bodies. Workers write scratch_rng (and, on the wide-store path, the
  // sense scratch) once per activation, so line_gap keeps neighbouring
  // entries of participant_ws_ a cache line apart. Padding, not
  // alignas(64): the over-aligned allocation raised stabilize-1m's peak RSS
  // by 4 MB (the heap's layout across its repeated set-ups).
  struct ParticipantWorkspace {
    SignalScratch scratch;
    // Lazy-memo compiled kernels are single-threaded: each worker gets its
    // own instance, while the caller's workspace steps through the engine's
    // compiled_ (one warm memo for the serial and sharded steps of a
    // threshold-straddling run). Dense tables are immutable and shared.
    std::unique_ptr<CompiledAutomaton> compiled;
    const Automaton* stepper = nullptr;  // compiled_/compiled, else automaton_
    // Randomized automata: the derived per-activation stream is materialized
    // here (see draw_rng); deterministic automata never consult it.
    util::Rng scratch_rng{0};
    char line_gap[64]{};
  };
  // One shard's results of one run(); one run() hands each shard index to
  // exactly one participant. Read serially after the join, in shard order.
  struct ShardWorkspace {
    // This step's transitions of the shard, in iteration order (filled only
    // when a listener replays them).
    std::vector<TransitionRec> transitions;
    // Set when this shard pushed a 32-bit activation counter near the
    // ceiling; the next serial point promotes (see maybe_promote_acts).
    bool act_saturated = false;
    // The sparse kernel's apply phase: nodes of this shard's span that left
    // the pending set this step (summed serially in shard order afterwards).
    std::uint64_t newly_done = 0;
  };
  // The shard pool (null when running serial) and the workspaces, indexed
  // by participant and by shard. participant_ws_ has one entry per pool
  // participant, or one for a serial engine; entry 0 is the calling
  // thread's, which the serial paths use too. shard_ws_ has one entry per
  // shard a plan can cut (participants * kShardsPerParticipant; entries a
  // small graph's plan leaves unused stay empty): a single one for a serial
  // synchronous engine, none for a serial asynchronous one.
  std::unique_ptr<ParallelEngine> pool_;
  std::vector<ParticipantWorkspace> participant_ws_;
  std::vector<ShardWorkspace> shard_ws_;
  // Sparse-activation kernel: true when the pool may shard asynchronous
  // steps (the scheduler's hint reaches the threshold); the actual |A_t| is
  // still checked every step.
  bool sparse_eligible_ = false;
  std::vector<Shard> sparse_shards_;  // per-step index partition of active_
  // The synchronous kernel's node partition: participants *
  // kShardsPerParticipant degree-weighted ranges (at most n), or the single
  // [0, n) shard of a serial engine. Topology churn shifts the weights, so
  // apply_topology_delta marks a pooled partition dirty and the next
  // synchronous step re-balances it into the same number of shards (lazy:
  // the sparse kernel never reads it).
  std::vector<Shard> sync_shards_;
  bool sync_shards_dirty_ = false;

  // Post-barrier tail time of sharded steps (see apply_phase_ns()); only
  // the stepping thread touches it.
  std::uint64_t apply_phase_ns_ = 0;

  // Delta-maintained signal field (null unless routing built one, which it
  // does only on serial asynchronous engines). The field is patched where
  // serial steps apply updates and by inject_state, and marked stale (for
  // a lazy rebuild at the next step) by inject_configuration.
  std::unique_ptr<SignalField> field_;
  bool field_stale_ = false;
  std::vector<StateId> field_scratch_;  // field-sense / set unpack buffer

  // Reused by emit_listener: one Signal refilled per observed transition
  // instead of one allocation per observed transition.
  Signal listener_scratch_;

  // Round operator tracking. pending_ is byte-per-node (not vector<bool>):
  // the sparse kernel's parallel apply phase clears disjoint ELEMENTS from
  // different threads, which packed bits would turn into a word-level race.
  // The snapshot wire format still packs 64 nodes per word.
  std::uint64_t rounds_ = 0;
  std::vector<std::uint8_t> pending_;  // not yet activated in current round
  std::uint64_t pending_count_;
  Time last_boundary_time_ = 0;    // R(rounds_): 0 initially (R(0) = 0)

  // Per-node activation counters: 32-bit until any node approaches the
  // ceiling, then promoted once (one-way) to 64-bit at the next serial point
  // — 4 bytes/node instead of 8 for every realistic run length, with exact
  // counts preserved across the promotion.
  std::vector<std::uint32_t> act32_;
  std::vector<std::uint64_t> act64_;
  bool act_wide_ = false;
  bool act_saturated_ = false;  // serial paths' promotion request flag
  TransitionListener listener_;

  // Reused scratch buffers.
  std::vector<NodeId> active_;
  UpdateList updates_;
  // config()'s user-id-order translation of the store (reordered graphs
  // only; empty otherwise).
  mutable Configuration user_view_;
};

/// Convenience: uniformly random initial configuration over the automaton's
/// full state set — the canonical adversarial C_0 for self-stabilization runs.
[[nodiscard]] Configuration random_configuration(const Automaton& alg,
                                                 NodeId n, util::Rng& rng);

/// All nodes in the same state q.
[[nodiscard]] Configuration uniform_configuration(NodeId n, StateId q);

}  // namespace ssau::core
