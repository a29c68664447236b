#include "core/engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "graph/reorder.hpp"
#include "util/binary_io.hpp"

namespace ssau::core {

namespace {

/// Resolves EngineOptions::reorder and, when it calls for a new layout,
/// replaces `g` with its cache-reordered rebuild before the delegated
/// constructor sizes any per-node state off it. Only the churn-capable
/// constructor routes through here: it owns a mutable graph, so the permuted
/// CSR it leaves behind is the same object the caller keeps using (with the
/// user<->internal bijection attached). Already-reordered graphs are used
/// as-is — repeated engine constructions over one graph must not keep
/// compounding relabellings.
graph::Graph& reorder_for_engine(graph::Graph& g, sched::Scheduler& sched,
                                 const EngineOptions& options) {
  graph::ReorderPolicy policy{};
  switch (options.reorder) {
    case ReorderMode::kOff:
      return g;
    case ReorderMode::kBfs:
      policy = graph::ReorderPolicy::kBfs;
      break;
    case ReorderMode::kDegree:
      policy = graph::ReorderPolicy::kDegree;
      break;
    case ReorderMode::kAuto:
      // Below the size floor the working set is cache-resident anyway; with
      // avg degree < 2 there is barely any gather traffic to localize.
      if (g.num_nodes() < kReorderAutoMinNodes || g.avg_degree() < 2.0) {
        return g;
      }
      policy = graph::ReorderPolicy::kBfs;
      break;
  }
  if (g.reordered() || g.num_nodes() <= 1) return g;
  g = graph::reorder_graph(g, policy);
  // The scheduler was constructed over the pre-reorder layout; any ids it
  // captured (WaveScheduler's BFS layers) must follow the relabelling.
  sched.on_topology_change(g);
  return g;
}

/// The 64-bit presence bitmask of node v's inclusive neighborhood under the
/// raw configuration buffer `c` — the one definition of mask sensing shared
/// by the serial, sharded, and async kernels (all must stay bit-identical).
/// Templated on the element type so the byte-compact and wide storage modes
/// share it; the gather itself routes through core/simd_gather.hpp (AVX2
/// lane-parallel accumulation for byte stores, prefetched scalar otherwise).
template <typename T>
inline std::uint64_t neighborhood_mask(const graph::Graph& g, const T* c,
                                       NodeId v) {
  return simd::accumulate_mask(g.neighbors(v), c, std::uint64_t{1} << c[v]);
}

inline std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point from) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - from)
          .count());
}

}  // namespace

Engine::Engine(const graph::Graph& g, const Automaton& alg,
               sched::Scheduler& sched, Configuration initial,
               std::uint64_t seed, EngineOptions options)
    : graph_(g),
      automaton_(alg),
      scheduler_(sched),
      rng_(seed),
      sched_rng_(rng_.fork()),
      seed_(seed),
      options_(options),
      pending_(g.num_nodes(), 1),
      pending_count_(g.num_nodes()) {
  if (initial.size() != graph_.num_nodes()) {
    throw std::invalid_argument("initial configuration size mismatch");
  }
  for (const StateId q : initial) {
    if (q >= automaton_.state_count()) {
      throw std::invalid_argument("initial state out of range");
    }
  }
  // The caller's C_0 is in user ids; on a reordered graph every per-node
  // engine structure lives in layout order, so translate it once here —
  // downstream (store reset, signal-field construction) sees internal order.
  if (graph_.reordered()) {
    Configuration permuted(initial.size());
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      permuted[graph_.to_internal(u)] = initial[u];
    }
    initial = std::move(permuted);
  }
  // Byte-per-node double buffers whenever the state space fits a byte —
  // every shipped algorithm except the synchronizer's product spaces.
  const bool narrow = automaton_.state_count() <= 256;
  store_.reset(initial, narrow);
  act32_.assign(graph_.num_nodes(), 0);
  updates_.configure(automaton_.state_count() <=
                     std::numeric_limits<std::uint32_t>::max());
  randomized_ = !automaton_.deterministic();
  mask_kernel_ = automaton_.state_count() <= SignalView::kMaskBits;
  set_kernel_ = narrow && !mask_kernel_;
  if (CompiledAutomaton::compilable(automaton_) &&
      !automaton_.native_mask_kernel()) {
    compiled_ = std::make_unique<CompiledAutomaton>(automaton_);
    if (compiled_->dense()) {
      dense_table_ = compiled_->dense_table().data();
      dense_shift_ = automaton_.state_count();
    }
  }
  full_activation_ = scheduler_.full_activation();
  if (full_activation_) next_store_.reset_zero(graph_.num_nodes(), narrow);

  unsigned threads =
      ParallelEngine::resolve_thread_count(options_.thread_count);
  if (options_.thread_count == 0) {
    // Auto thread count: scale the worker fleet to what this graph's
    // working set can feed (see recommended_shard_count) instead of
    // spawning the whole hardware budget for a cache-resident instance.
    threads = recommended_shard_count(graph_, threads);
  }
  const bool shardable =
      threads > 1 && graph_.num_nodes() > 1 && automaton_.parallel_safe();
  // Asynchronous daemons shard only when their activation sets can reach
  // the sparse threshold (the hint is consulted once; the per-step |A_t|
  // check is in step_async). Single-node daemons spawn no workers.
  sparse_eligible_ =
      shardable && !full_activation_ &&
      scheduler_.max_activation_hint() >= options_.sparse_activation_threshold;
  if (shardable && (full_activation_ || sparse_eligible_)) {
    // No more participants than nodes. The synchronous plan cuts
    // kShardsPerParticipant shards per participant (fewer on tiny graphs),
    // claimed from the pool's cursor.
    pool_ = std::make_unique<ParallelEngine>(
        static_cast<unsigned>(std::min<NodeId>(threads, graph_.num_nodes())));
    if (full_activation_) {
      sync_shards_ = make_shards(
          graph_, pool_->participants() * kShardsPerParticipant);
    }
    shard_ws_.resize(pool_->participants() * kShardsPerParticipant);
  } else if (full_activation_) {
    // Serial synchronous engines run the shared shard body on one shard.
    sync_shards_.push_back({0, graph_.num_nodes()});
    shard_ws_.resize(1);
  }
  participant_ws_.resize(pool_ ? pool_->participants() : 1);
  for (std::size_t p = 0; p < participant_ws_.size(); ++p) {
    ParticipantWorkspace& pw = participant_ws_[p];
    pw.scratch.reserve(graph_.max_degree() + 1);
    if (p != 0 && compiled_ && !compiled_->dense()) {
      pw.compiled = std::make_unique<CompiledAutomaton>(automaton_);
      pw.stepper = pw.compiled.get();
    } else {
      pw.stepper = compiled_ ? compiled_.get() : &automaton_;
    }
  }
  if (sparse_eligible_) {
    // Size the activation workspaces once from the scheduler's bound
    // (clamped to n), so sharded steps never reallocate mid-run. Serial
    // engines keep growing lazily to the observed |A_t| instead — a
    // loose worst-case hint (e.g. random-subset's n) must not charge
    // engines that never shard for memory they will not touch.
    const std::size_t hint = std::min<std::size_t>(
        scheduler_.max_activation_hint(), graph_.num_nodes());
    active_.reserve(hint);
    updates_.reserve(hint);
  }

  // Signal-field routing: delta-maintained senses vs dense rescan. kAuto
  // enables the field only in the serial-daemon regime — activation sets
  // small enough that the sparse kernel never engages and most of the
  // graph sits idle per step — on graphs whose neighborhoods are large
  // enough that the per-sense rescan is worth replacing. |Q| routes the
  // field's internal representation (flat saturating counters vs compact
  // sorted multiset), not the on/off decision.
  // Mask-kernel automata sense in one OR-loop and step in O(1); their
  // rescan is so lean that delta maintenance needs an order of magnitude
  // more density to pay for its per-transition patches — and even then
  // only at low transition rates, which construction cannot see.
  const bool cheap_sense =
      mask_kernel_ &&
      (compiled_ != nullptr || automaton_.native_mask_kernel());
  bool want_field = false;
  switch (options_.signal_field) {
    case SignalFieldMode::kOff:
      break;
    case SignalFieldMode::kOn:
      want_field = true;
      break;
    case SignalFieldMode::kAuto: {
      const std::size_t hint = scheduler_.max_activation_hint();
      const double degree_floor = cheap_sense
                                      ? kSignalFieldMaskKernelMinAvgDegree
                                      : kSignalFieldMinAvgDegree;
      want_field = !full_activation_ && graph_.num_nodes() > 1 &&
                   hint < options_.sparse_activation_threshold &&
                   hint * 2 <= graph_.num_nodes() &&
                   graph_.avg_degree() >= degree_floor;
      break;
    }
  }
  if (want_field) {
    field_ = std::make_unique<SignalField>(graph_, automaton_.state_count(),
                                           initial);
    // Only the heuristic's shakiest bet monitors itself: a kAuto field on
    // a mask-kernel automaton wins or loses purely on the (unknowable at
    // construction) transition rate, so it bails out mid-run if patching
    // proves more expensive than the rescans it replaces. Heavy-sense
    // automata keep the field unconditionally — their per-sense saving
    // dwarfs any patch rate a single transition per activation can cause.
    field_adaptive_ =
        options_.signal_field == SignalFieldMode::kAuto && cheap_sense;
  }
}

Engine::Engine(graph::Graph& g, const Automaton& alg, sched::Scheduler& sched,
               Configuration initial, std::uint64_t seed, EngineOptions options)
    : Engine(static_cast<const graph::Graph&>(
                 reorder_for_engine(g, sched, options)),
             alg, sched, std::move(initial), seed, options) {
  mutable_graph_ = &g;
}

graph::TopologyDelta Engine::apply_topology_delta(
    const graph::TopologyDelta& delta) {
  if (mutable_graph_ == nullptr) {
    throw std::logic_error(
        "apply_topology_delta: engine was constructed over a const graph "
        "(use the churn-capable Engine(graph::Graph&, ...) overload)");
  }
  // Deltas cross the API in user ids; the graph (and the field patches
  // below) speak layout ids. Identity layouts skip both copies.
  const bool reordered = graph_.reordered();
  const graph::TopologyDelta applied = mutable_graph_->apply_delta(
      reordered ? translate_delta_to_internal(delta) : delta);

  // Signal field: O(1) per effective edge — each endpoint gains/loses the
  // presence of the other's CURRENT state (churn does not touch the
  // configuration, and the per-node reads never materialize a wide view).
  if (field_) {
    if (field_->dense() && graph_.max_degree() + 1 >=
                               static_cast<std::size_t>(SignalField::kSaturated)) {
      // Degree growth reached the dense representation's saturation bound —
      // a regime construction routes to the sparse multiset. Recreate the
      // field so it re-routes; a from-scratch build here is the rare safety
      // valve, not the churn fast path.
      field_ = std::make_unique<SignalField>(graph_, automaton_.state_count(),
                                             store_.view());
      field_stale_ = false;
    } else if (!field_stale_) {
      for (const auto& [u, v] : applied.remove) {
        field_->apply_edge_removal(u, v, store_.get(u), store_.get(v));
      }
      for (const auto& [u, v] : applied.add) {
        field_->apply_edge_insertion(u, v, store_.get(u), store_.get(v));
      }
    }
    // A stale field needs no patching: its pending lazy rebuild reads the
    // live (already-patched) graph.
  }

  // Sense scratches must hold max_degree + 1 states; grow if churn raised it.
  for (ParticipantWorkspace& pw : participant_ws_) {
    pw.scratch.reserve(graph_.max_degree() + 1);
  }
  // Degree weights shifted: the synchronous kernel re-balances its node
  // partition lazily at the next parallel step (a serial engine's single
  // [0, n) shard has nothing to re-balance); the sparse-activation kernel
  // re-weighs its activation-list partition every step anyway.
  sync_shards_dirty_ = pool_ != nullptr;

  scheduler_.on_topology_change(graph_);
  return reordered ? translate_delta_to_user(applied) : applied;
}

graph::TopologyDelta Engine::translate_delta_to_internal(
    const graph::TopologyDelta& d) const {
  const NodeId n = graph_.num_nodes();
  // Out-of-range endpoints pass through untranslated so Graph::apply_delta
  // rejects them with its usual invalid_argument, graph untouched.
  const auto map = [&](const std::pair<NodeId, NodeId>& e) {
    return std::pair<NodeId, NodeId>{
        e.first < n ? graph_.to_internal(e.first) : e.first,
        e.second < n ? graph_.to_internal(e.second) : e.second};
  };
  graph::TopologyDelta out;
  out.remove.reserve(d.remove.size());
  out.add.reserve(d.add.size());
  for (const auto& e : d.remove) out.remove.push_back(map(e));
  for (const auto& e : d.add) out.add.push_back(map(e));
  return out;
}

graph::TopologyDelta Engine::translate_delta_to_user(
    const graph::TopologyDelta& d) const {
  // Effective deltas only hold endpoints the graph accepted — all in range.
  const auto map = [&](const std::pair<NodeId, NodeId>& e) {
    return std::pair<NodeId, NodeId>{graph_.to_user(e.first),
                                     graph_.to_user(e.second)};
  };
  graph::TopologyDelta out;
  out.remove.reserve(d.remove.size());
  out.add.reserve(d.add.size());
  for (const auto& e : d.remove) out.remove.push_back(map(e));
  for (const auto& e : d.add) out.add.push_back(map(e));
  return out;
}

Signal Engine::signal_of(NodeId v) const {
  const NodeId i = graph_.to_internal(v);
  std::vector<StateId> sensed;
  sensed.reserve(graph_.degree(i) + 1);
  sensed.push_back(store_.get(i));
  for (const NodeId u : graph_.neighbors(i)) sensed.push_back(store_.get(u));
  return Signal::from_states(std::move(sensed));
}

const Configuration& Engine::user_view() const {
  const NodeId n = graph_.num_nodes();
  user_view_.resize(n);
  if (store_.narrow()) {
    const std::uint8_t* c = store_.bytes_data();
    for (NodeId u = 0; u < n; ++u) user_view_[u] = c[graph_.to_internal(u)];
  } else {
    const StateId* c = store_.wide_data();
    for (NodeId u = 0; u < n; ++u) user_view_[u] = c[graph_.to_internal(u)];
  }
  return user_view_;
}

std::uint64_t Engine::mask_current(NodeId v) const {
  return store_.narrow() ? neighborhood_mask(graph_, store_.bytes_data(), v)
                         : neighborhood_mask(graph_, store_.wide_data(), v);
}

SignalView Engine::sense_current(SignalScratch& s, NodeId v) {
  return store_.narrow() ? s.sense(graph_, store_.bytes_data(), v)
                         : s.sense(graph_, store_.wide_data(), v);
}

void Engine::maybe_promote_acts() {
  bool any = act_saturated_;
  act_saturated_ = false;
  for (ShardWorkspace& ws : shard_ws_) {
    any = any || ws.act_saturated;
    ws.act_saturated = false;
  }
  if (!any || act_wide_) return;
  // One-way widening at a serial point: exact counts carry over, so the
  // derived rng streams (keyed by activation count) are unaffected.
  act64_.assign(act32_.begin(), act32_.end());
  act32_.clear();
  act32_.shrink_to_fit();
  act_wide_ = true;
}

void Engine::step() {
  if (full_activation_) {
    step_synchronous();
  } else {
    step_async();
  }
}

// Phase 1 of one shard, shared by the synchronous kernel (serial and
// sharded) and the sparse-activation kernel — one definition so the loop
// bodies cannot drift out of lockstep (bit-identity depends on them staying
// identical).
template <typename T, typename NodeOf, typename Emit>
void Engine::shard_phase1(const Shard& shard, ParticipantWorkspace& pw,
                          ShardWorkspace& ws, const T* cfg,
                          const bool log_transitions, const NodeOf& node_of,
                          const Emit& emit) {
  std::vector<TransitionRec>& log = ws.transitions;
  log.clear();
  const Automaton& kernel = *pw.stepper;
  if (mask_kernel_) {
    if (dense_table_ != nullptr && !log_transitions) {
      // Vectorized table application: the SIMD mask gather feeds one
      // devirtualized table load per node — no virtual δ dispatch, no rng
      // derivation (dense tables exist only for deterministic automata).
      // The eager table is immutable, so every shard probes the shared copy.
      const std::uint8_t* table = dense_table_;
      const StateId shift = dense_shift_;
      for (NodeId i = shard.begin; i < shard.end; ++i) {
        const NodeId v = node_of(i);
        const std::uint64_t mask = neighborhood_mask(graph_, cfg, v);
        emit(i, v,
             table[(static_cast<std::size_t>(cfg[v]) << shift) | mask]);
      }
      return;
    }
    for (NodeId i = shard.begin; i < shard.end; ++i) {
      const NodeId v = node_of(i);
      const StateId cur = cfg[v];
      const StateId next = kernel.step_mask(
          cur, neighborhood_mask(graph_, cfg, v), draw_rng(pw, v));
      if (log_transitions && next != cur) {
        log.push_back({v, cur, next});
      }
      emit(i, v, next);
    }
  } else if (set_kernel_) {
    for (NodeId i = shard.begin; i < shard.end; ++i) {
      const NodeId v = node_of(i);
      const StateId cur = cfg[v];
      const StateId next = kernel.step_set(
          cur, neighborhood_set(graph_, cfg, v), draw_rng(pw, v));
      if (log_transitions && next != cur) {
        log.push_back({v, cur, next});
      }
      emit(i, v, next);
    }
  } else {
    for (NodeId i = shard.begin; i < shard.end; ++i) {
      const NodeId v = node_of(i);
      const SignalView sig = pw.scratch.sense(graph_, cfg, v);
      const StateId cur = cfg[v];
      const StateId next = kernel.step_fast(cur, sig, draw_rng(pw, v));
      if (log_transitions && next != cur) {
        log.push_back({v, cur, next});
      }
      emit(i, v, next);
    }
  }
}

// Synchronous kernel: A_t = V, so the next configuration is computed into
// the double buffer in one pass (no update list, no pending-bitmap churn)
// and every step closes exactly one round. Phase 1 runs the shared shard
// body over sync_shards_: on the pool when the engine has one (each shard
// computes its contiguous node range into its own log, with the scratch of
// whichever participant claimed it, and the join in ParallelEngine::run
// makes every write visible before the tail), inline on the single [0, n)
// shard otherwise. Serial and sharded steps then share one serial tail:
// listener replay and field patches from the per-shard logs (shards are
// contiguous and ascending, so shard-order concatenation IS node order —
// the order a per-activation loop over A_t = V emits), the buffer swap,
// and the round close.
void Engine::step_synchronous() {
  // The synchronous kernel never *senses* through the signal field, but a
  // live forced-on field must stay consistent across the step. Shards
  // cannot patch shared counter rows concurrently (a node's neighbors
  // straddle shards), so phase 1 logs transitions and the tail patches from
  // the logs — deltas against the pre-step configuration commute, and
  // nothing reads the field mid-step. A stale field (post-injection) stays
  // stale: no synchronous step will ever read it, so the rebuild is
  // deferred to a future field sense that may never come —
  // signal_field_stale() tells observability readers.
  const bool patch_field = field_live();
  const bool log_transitions = static_cast<bool>(listener_) || patch_field;
  if (store_.narrow()) {
    sync_phase1(store_.bytes_data(), next_store_.bytes_data(), log_transitions);
  } else {
    sync_phase1(store_.wide_data(), next_store_.wide_data(), log_transitions);
  }
  if (listener_) {
    // Signals materialize from the pre-step configuration, still in store_.
    for (const ShardWorkspace& ws : shard_ws_) {
      for (const TransitionRec& tr : ws.transitions) {
        const SignalView sig =
            sense_current(participant_ws_[0].scratch, tr.v);
        emit_listener(tr.v, tr.from, tr.to, sig);
      }
    }
  }
  // Serial engines never read the clock (see apply_phase_ns()).
  const bool timed = pool_ != nullptr;
  const auto apply_from = timed ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{};
  if (patch_field) {
    for (const ShardWorkspace& ws : shard_ws_) {
      field_->apply_transitions(ws.transitions.data(), ws.transitions.size());
    }
  }
  store_.swap(next_store_);
  // Both buffers were written through raw pointers (and the swap moves any
  // cached view with its buffer): re-materialize lazily on the next read.
  store_.invalidate_view();
  next_store_.invalidate_view();
  ++time_;
  ++rounds_;
  last_boundary_time_ = time_;
  if (timed) apply_phase_ns_ += elapsed_ns(apply_from);
  maybe_promote_acts();
  // pending_ stays all-true / pending_count_ stays n: the round that opened
  // at this step's start closed at its end.
}

template <typename T>
void Engine::sync_phase1(const T* cur, T* next, const bool log_transitions) {
  const auto body = [&](const Shard& shard, unsigned shard_index,
                        unsigned participant) {
    ShardWorkspace& ws = shard_ws_[shard_index];
    shard_phase1(
        shard, participant_ws_[participant], ws, cur, log_transitions,
        [](NodeId i) { return i; },
        [&](NodeId, NodeId v, StateId nextq) {
          next[v] = static_cast<T>(nextq);
          bump_act(v, ws.act_saturated);
        });
  };
  if (!pool_) {
    body(sync_shards_.front(), 0, 0);
    return;
  }
  if (sync_shards_dirty_) {
    // Topology churn shifted the degree weights: re-balance the node
    // partition before fanning out, into as many shards as construction cut
    // (the pool and n are fixed, so the per-shard workspaces still line up).
    make_weighted_shards_into(
        sync_shards_, graph_.num_nodes(),
        pool_->participants() * kShardsPerParticipant,
        [&](NodeId v) { return static_cast<std::uint64_t>(graph_.degree(v)) + 1; });
    sync_shards_dirty_ = false;
  }
  pool_->run(sync_shards_, body);
}

void Engine::step_async() {
  // The scheduler draw is always serial (it owns the engine's sched_rng_
  // stream), so the schedule is identical whatever kernel runs phase 1.
  scheduler_.activations(time_, active_, sched_rng_);
  // The !empty() guard keeps a sparse_activation_threshold of 0 (or a
  // scheduler emitting an empty A_t) on the serial path, which handles the
  // degenerate step gracefully — zero activations cannot be sharded.
  if (sparse_eligible_ && !active_.empty() &&
      active_.size() >= options_.sparse_activation_threshold) {
    step_sparse_parallel();
    return;
  }

  // Adaptive routing: at each window boundary, drop a kAuto mask-kernel
  // field whose observed patch volume outweighs the rescans it saved (the
  // daemon is transitioning nearly every activation — e.g. a rotation
  // schedule driving unison clocks). Purely a performance decision: the
  // field-sensed and rescan paths are bit-identical, so switching mid-run
  // is unobservable in the trajectory.
  if (field_adaptive_ && field_senses_ >= kSignalFieldAdaptiveWindow) {
    if (field_patches_ * kSignalFieldPatchCostFactor > field_senses_) {
      field_.reset();
      field_adaptive_ = false;
      field_stale_ = false;  // no field left for the flag to describe
    }
    // A new window opens. After a bail-out, dead counters would otherwise
    // survive in snapshots and make the engine's serialized state differ
    // from its own restore.
    field_senses_ = 0;
    field_patches_ = 0;
  }
  if (field_) {
    // The lazy rebuild reads the wide view, which never relocates the raw
    // buffer the step then works on.
    ensure_field_fresh();
    field_senses_ += active_.size();
  }

  // The store's element width and the sense kind are resolved here, once
  // per step — the per-activation code reads the raw buffer directly
  // instead of re-branching on every activation.
  if (store_.narrow()) {
    async_serial_step(store_.bytes_data());
  } else {
    async_serial_step(store_.wide_data());
  }
  close_async_step();
}

template <typename F>
void Engine::with_sense_kind(const F& f) {
  if (field_) {
    // Field-sensed: an O(1) presence lookup (or O(distinct) span) per
    // activation instead of an O(deg) neighborhood rescan; the matching
    // per-transition patches run in apply_activation.
    if (mask_kernel_ && !listener_ && field_->mask_exact()) {
      return f(SenseTag<SenseKind::kFieldMask>{});
    }
    if (set_kernel_) return f(SenseTag<SenseKind::kFieldSet>{});
    return f(SenseTag<SenseKind::kFieldView>{});
  }
  if (mask_kernel_ && !listener_) {
    if (dense_table_ != nullptr) return f(SenseTag<SenseKind::kTable>{});
    return f(SenseTag<SenseKind::kMask>{});
  }
  if (set_kernel_) return f(SenseTag<SenseKind::kSet>{});
  return f(SenseTag<SenseKind::kView>{});
}

template <Engine::SenseKind K, typename T>
inline StateId Engine::activate(ParticipantWorkspace& ws,
                                const Automaton& kernel, const T* cfg,
                                const NodeId v) {
  const StateId cur = cfg[v];
  if constexpr (K == SenseKind::kTable) {
    // Devirtualized table load: no δ dispatch, no rng derivation (dense
    // tables exist only for deterministic automata).
    return dense_table_[(static_cast<std::size_t>(cur) << dense_shift_) |
                        neighborhood_mask(graph_, cfg, v)];
  } else if constexpr (K == SenseKind::kFieldMask || K == SenseKind::kMask) {
    const std::uint64_t mask = K == SenseKind::kFieldMask
                                   ? field_->mask_of(v)
                                   : neighborhood_mask(graph_, cfg, v);
    return kernel.step_mask(cur, mask, draw_rng(ws, v));
  } else if constexpr (K == SenseKind::kFieldSet || K == SenseKind::kSet) {
    const StateSet set = K == SenseKind::kFieldSet
                             ? field_->set_of(v)
                             : neighborhood_set(graph_, cfg, v);
    const StateId next = kernel.step_set(cur, set, draw_rng(ws, v));
    if (next != cur && listener_) {
      emit_listener(v, cur, next,
                    K == SenseKind::kFieldSet
                        ? unpack_set(set, field_scratch_)
                        : ws.scratch.sense(graph_, cfg, v));
    }
    return next;
  } else {
    const SignalView sig = K == SenseKind::kFieldView
                               ? field_->sense(v, field_scratch_)
                               : ws.scratch.sense(graph_, cfg, v);
    const StateId next = kernel.step_fast(cur, sig, draw_rng(ws, v));
    if (next != cur && listener_) emit_listener(v, cur, next, sig);
    return next;
  }
}

template <typename T>
inline void Engine::apply_activation(T* cfg, const NodeId v,
                                     const StateId next) {
  const StateId cur = cfg[v];
  if (cur != next) {
    if (field_live()) {
      field_->apply_transition(v, cur, next);
      ++field_patches_;
    }
    cfg[v] = static_cast<T>(next);
  }
  bump_act(v, act_saturated_);
  if (pending_[v] != 0) {
    pending_[v] = 0;
    --pending_count_;
  }
}

template <typename T>
void Engine::apply_updates(T* cfg) {
  const std::size_t count = updates_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const auto [v, q] = updates_.get(i);
    apply_activation(cfg, v, q);
  }
}

template <typename T>
void Engine::async_serial_step(T* cfg) {
  ParticipantWorkspace& ws = participant_ws_[0];
  const Automaton& kernel = *ws.stepper;
  with_sense_kind([&](auto kind) {
    constexpr SenseKind K = decltype(kind)::value;
    if (active_.size() == 1) {
      // One node: no other activation reads C_t, so it senses, steps and
      // applies in place — no update list, no second loop.
      const NodeId v = active_.front();
      apply_activation(cfg, v, activate<K>(ws, kernel, cfg, v));
      return;
    }
    // Simultaneous reads: every activated node reads C_t before any
    // update is applied.
    updates_.clear();
    for (const NodeId v : active_) {
      updates_.push(v, activate<K>(ws, kernel, cfg, v));
    }
    apply_updates(cfg);
  });
}

void Engine::close_async_step() {
  store_.invalidate_view();
  ++time_;
  if (pending_count_ == 0) {
    ++rounds_;
    last_boundary_time_ = time_;
    pending_.assign(graph_.num_nodes(), 1);
    pending_count_ = graph_.num_nodes();
  }
  if (act_saturated_) maybe_promote_acts();
}

// Sparse-activation sharded kernel: BOTH phases of one asynchronous step
// with a large A_t, as two consecutive run() calls on the shard pool. The
// activation list is re-partitioned every step into contiguous
// degree-weighted index spans (activation sets differ step to step). The
// phase-1 run computes each span's next states into that span's slots of
// the update list — disjoint indices, so shards never contend — deriving
// randomized transitions from the (seed, node, activation-count) streams
// (node v's draw depends only on its own activation history, never on the
// shard that ran it). The apply run — a separate call, because phase 1
// reads arbitrary configuration slots — then drains each shard's own span
// into the config store, activation counters, and pending_ (disjoint
// elements: the scheduler's distinct-ids contract, asserted below). The
// cross-shard effects — signal-field patches from the per-shard logs,
// pending-count accounting, and round-close detection — run in a serial
// merge in shard-index order after the join; spans are contiguous and
// ascending, so shard-order concatenation IS activation-list order and the
// merge matches the serial apply loop record for record (field_patches_
// included, which snapshots serialize). With a listener attached the replay
// needs signals from the PRE-apply configuration, so that path keeps the
// sharded phase 1 and the serial apply loop (apply_updates).
template <typename T>
void Engine::sparse_phase1(const T* cfg, const bool log_transitions) {
  pool_->run(sparse_shards_, [&](const Shard& shard, unsigned shard_index,
                                 unsigned participant) {
    shard_phase1(
        shard, participant_ws_[participant], shard_ws_[shard_index], cfg,
        log_transitions, [&](NodeId i) { return active_[i]; },
        [&](NodeId i, NodeId v, StateId next) { updates_.set(i, v, next); });
  });
}

void Engine::step_sparse_parallel() {
#ifndef NDEBUG
  {
    // The distinct-node-ids contract of Scheduler::activations is what makes
    // the concurrent per-node draws (and the apply phase's config/pending
    // element writes) race-free; a scheduler that violates it must fail
    // loudly here, not corrupt state under TSan's radar in release builds.
    std::vector<bool> seen(graph_.num_nodes(), false);
    for (const NodeId v : active_) {
      assert(!seen[v] && "Scheduler emitted duplicate node ids in one A_t");
      seen[v] = true;
    }
  }
#endif
  const auto count = static_cast<NodeId>(active_.size());
  updates_.resize(count);
  make_weighted_shards_into(
      sparse_shards_, count, pool_->participants() * kShardsPerParticipant,
      [&](NodeId i) {
        return static_cast<std::uint64_t>(graph_.degree(active_[i])) + 1;
      });

  const bool patch_field = field_live();
  const bool log_transitions = static_cast<bool>(listener_) || patch_field;
  if (store_.narrow()) {
    sparse_phase1(store_.bytes_data(), log_transitions);
  } else {
    sparse_phase1(store_.wide_data(), log_transitions);
  }

  if (listener_) {
    // Listener fallback: replay from the pre-apply configuration, then the
    // serial apply loop.
    for (std::size_t s = 0; s < sparse_shards_.size(); ++s) {
      for (const TransitionRec& tr : shard_ws_[s].transitions) {
        const SignalView sig =
            sense_current(participant_ws_[0].scratch, tr.v);
        emit_listener(tr.v, tr.from, tr.to, sig);
      }
    }
    if (store_.narrow()) {
      apply_updates(store_.bytes_data());
    } else {
      apply_updates(store_.wide_data());
    }
    close_async_step();
    return;
  }

  pool_->run(sparse_shards_, [&](const Shard& shard, unsigned shard_index,
                                 unsigned) {
    ShardWorkspace& ws = shard_ws_[shard_index];
    std::uint64_t newly_done = 0;
    for (NodeId i = shard.begin; i < shard.end; ++i) {
      const auto [v, q] = updates_.get(i);
      store_.set_raw(v, q);
      bump_act(v, ws.act_saturated);
      if (pending_[v] != 0) {
        pending_[v] = 0;
        ++newly_done;
      }
    }
    ws.newly_done = newly_done;
  });

  // Serial merge, shard-index order — the deterministic ordering of every
  // cross-shard effect.
  const auto apply_from = std::chrono::steady_clock::now();
  std::uint64_t newly_done = 0;
  for (std::size_t s = 0; s < sparse_shards_.size(); ++s) {
    const ShardWorkspace& ws = shard_ws_[s];
    if (patch_field) {
      field_->apply_transitions(ws.transitions.data(), ws.transitions.size());
      field_patches_ += ws.transitions.size();
    }
    newly_done += ws.newly_done;
  }
  pending_count_ -= newly_done;
  close_async_step();
  apply_phase_ns_ += elapsed_ns(apply_from);
  maybe_promote_acts();  // the shards' saturation flags
}

RunOutcome Engine::run_until(
    const std::function<bool(const Configuration&)>& pred,
    std::uint64_t max_rounds) {
  RunOutcome out;
  // config() hands the predicate user-id order, as documented.
  if (pred(config())) {
    out.reached = true;
    out.time = time_;
    out.rounds = round_index_now();
    return out;
  }
  while (rounds_ < max_rounds) {
    step();
    if (pred(config())) {
      out.reached = true;
      out.time = time_;
      out.rounds = round_index_now();
      return out;
    }
  }
  out.time = time_;
  out.rounds = rounds_;
  return out;
}

void Engine::run_rounds(std::uint64_t rounds) {
  const std::uint64_t target = rounds_ + rounds;
  while (rounds_ < target) step();
}

void Engine::inject_configuration(Configuration config) {
  if (config.size() != graph_.num_nodes()) {
    throw std::invalid_argument("injected configuration size mismatch");
  }
  // Same range check as the constructor: the bitmask kernels index
  // state-indexed tables (and shift by StateId), so an out-of-range state
  // must fail loudly here rather than corrupt the run.
  for (const StateId q : config) {
    if (q >= automaton_.state_count()) {
      throw std::invalid_argument("injected state out of range");
    }
  }
  // Injected configurations are user-ordered, like the constructor's C_0.
  if (graph_.reordered()) {
    Configuration permuted(config.size());
    for (NodeId u = 0; u < graph_.num_nodes(); ++u) {
      permuted[graph_.to_internal(u)] = config[u];
    }
    config = std::move(permuted);
  }
  store_.reset(config, store_.narrow());
  // An arbitrary overwrite invalidates the delta-maintained field; it is
  // rebuilt lazily at the next field sense.
  field_stale_ = field_ != nullptr;
}

void Engine::inject_state(NodeId v, StateId q) {
  if (v >= graph_.num_nodes() || q >= automaton_.state_count()) {
    throw std::invalid_argument("inject_state out of range");
  }
  const NodeId i = graph_.to_internal(v);
  // A targeted fault is still a (v, old -> new) delta: patch a live field
  // instead of discarding it (a no-op fault leaves it untouched).
  const StateId cur = store_.get(i);
  if (field_live() && cur != q) {
    field_->apply_transition(i, cur, q);
  }
  store_.set(i, q);
}

std::size_t Engine::dynamic_memory_usage() const {
  std::size_t total =
      store_.dynamic_memory_usage() + next_store_.dynamic_memory_usage() +
      updates_.dynamic_memory_usage() + util::DynamicUsage(pending_) +
      util::DynamicUsage(act32_) + util::DynamicUsage(act64_) +
      util::DynamicUsage(active_) + util::DynamicUsage(field_scratch_) +
      util::DynamicUsage(user_view_) + util::DynamicUsage(sync_shards_) +
      util::DynamicUsage(sparse_shards_);
  if (compiled_) {
    total += sizeof(CompiledAutomaton) + compiled_->dynamic_memory_usage();
  }
  if (field_) total += sizeof(SignalField) + field_->dynamic_memory_usage();
  if (pool_) total += sizeof(ParallelEngine) + pool_->dynamic_memory_usage();
  total += participant_ws_.capacity() * sizeof(ParticipantWorkspace);
  for (const ParticipantWorkspace& pw : participant_ws_) {
    total += pw.scratch.dynamic_memory_usage();
    if (pw.compiled) {
      total += sizeof(CompiledAutomaton) + pw.compiled->dynamic_memory_usage();
    }
  }
  total += shard_ws_.capacity() * sizeof(ShardWorkspace);
  for (const ShardWorkspace& ws : shard_ws_) {
    total += util::DynamicUsage(ws.transitions);
  }
  return total;
}

void Engine::save_state(util::BinaryWriter& w) const {
  const NodeId n = graph_.num_nodes();
  w.u64(seed_);
  w.u64(time_);
  w.u64(rounds_);
  w.u64(last_boundary_time_);

  // Pending set, packed 64 nodes per word, plus its maintained count.
  w.u64(pending_count_);
  std::uint64_t word = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (pending_[v]) word |= std::uint64_t{1} << (v % 64);
    if (v % 64 == 63) {
      w.u64(word);
      word = 0;
    }
  }
  if (n % 64 != 0) w.u64(word);

  // Activation counts: always u64 on the wire, whatever the in-memory width
  // (load re-derives the width from the restored values).
  for (NodeId v = 0; v < n; ++v) w.u64(act_now(v));

  for (const std::uint64_t s : rng_.state()) w.u64(s);
  for (const std::uint64_t s : sched_rng_.state()) w.u64(s);
  // v2 drops v1's per-node rng block: randomized draws are derived from
  // (seed, node, activation count), all of which are already serialized.

  // Signal field: presence + staleness + adaptive-routing counters. The
  // field's counters themselves are NOT serialized — a restored engine's
  // constructor rebuilds them from the restored configuration, which is
  // exactly what a live field contains.
  w.u8(field_ ? 1 : 0);
  w.u8(field_stale_ ? 1 : 0);
  w.u8(field_adaptive_ ? 1 : 0);
  w.u64(field_senses_);
  w.u64(field_patches_);
}

void Engine::load_state(util::BinaryReader& r, std::uint32_t version) {
  const NodeId n = graph_.num_nodes();
  seed_ = r.u64();
  time_ = r.u64();
  rounds_ = r.u64();
  last_boundary_time_ = r.u64();
  if (last_boundary_time_ > time_) {
    throw util::SnapshotError("engine state: round boundary after now");
  }

  const std::uint64_t pending_count = r.u64();
  if (pending_count > n) {
    throw util::SnapshotError("engine state: pending count exceeds node count");
  }
  std::uint64_t checked_count = 0;
  std::uint64_t word = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (v % 64 == 0) word = r.u64();
    const bool pending = (word >> (v % 64)) & 1U;
    pending_[v] = pending ? 1 : 0;
    checked_count += pending ? 1 : 0;
  }
  if (checked_count != pending_count) {
    throw util::SnapshotError("engine state: pending bitmap/count mismatch");
  }
  pending_count_ = pending_count;

  // Activation counts travel as u64; pick the in-memory width from the
  // restored maximum (the same promotion rule the live engine applies).
  act64_.resize(n);
  std::uint64_t max_act = 0;
  for (NodeId v = 0; v < n; ++v) {
    act64_[v] = r.u64();
    max_act = std::max(max_act, act64_[v]);
  }
  if (max_act < kActPromote) {
    act32_.resize(n);
    for (NodeId v = 0; v < n; ++v) {
      act32_[v] = static_cast<std::uint32_t>(act64_[v]);
    }
    act64_.clear();
    act64_.shrink_to_fit();
    act_wide_ = false;
  } else {
    act32_.clear();
    act32_.shrink_to_fit();
    act_wide_ = true;
  }
  act_saturated_ = false;

  std::array<std::uint64_t, 4> s;
  for (auto& x : s) x = r.u64();
  rng_ = util::Rng::from_state(s);
  for (auto& x : s) x = r.u64();
  sched_rng_ = util::Rng::from_state(s);
  if (version == 1) {
    // v1 stored one generator per node for randomized automata. The streams
    // are derived now, so the block is validated for shape and skipped: a
    // restored v1 randomized run continues deterministically on the
    // activation-derived streams (not the byte stream the pre-upgrade
    // binary would have produced); v1 deterministic runs are unaffected.
    const std::uint64_t node_rng_count = r.u64();
    const std::uint64_t expected = randomized_ ? n : 0;
    if (node_rng_count != expected) {
      throw util::SnapshotError(
          "engine state: per-node rng stream count mismatch");
    }
    for (std::uint64_t i = 0; i < node_rng_count * 4; ++i) {
      static_cast<void>(r.u64());
    }
  }

  const bool had_field = r.u8() != 0;
  const bool was_stale = r.u8() != 0;
  const bool was_adaptive = r.u8() != 0;
  const std::uint64_t senses = r.u64();
  const std::uint64_t patches = r.u64();
  if (!had_field) {
    // The snapshotted engine ran without a field — either routing never
    // built one or the adaptive monitor dropped it mid-run. Match it, even
    // if this engine's construction routing re-created one: the sense paths
    // are bit-identical, but the restored engine must make the SAME future
    // adaptive decisions as the original, which requires the same counters
    // on the same (absent) field.
    field_.reset();
    field_stale_ = false;
    field_adaptive_ = false;
    field_senses_ = 0;
    field_patches_ = 0;
  } else if (field_) {
    // Construction already rebuilt the field from the restored
    // configuration, which is what a live field holds; a stale field only
    // needs the marker restored (the lazy rebuild runs at the next sense).
    field_stale_ = was_stale;
    field_adaptive_ = was_adaptive;
    field_senses_ = senses;
    field_patches_ = patches;
  }
  // had_field && !field_: the caller overrode options (e.g. restoring a
  // kOn snapshot with kOff) — legitimate, the trajectory is identical on
  // either sense path and no adaptive monitor exists to diverge.
}

Configuration random_configuration(const Automaton& alg, NodeId n,
                                   util::Rng& rng) {
  Configuration c(n);
  for (auto& q : c) q = rng.below(alg.state_count());
  return c;
}

Configuration uniform_configuration(NodeId n, StateId q) {
  return Configuration(n, q);
}

}  // namespace ssau::core
