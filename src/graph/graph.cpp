#include "graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "util/memusage.hpp"

namespace ssau::graph {

Graph::Graph(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges) : n_(n) {
  for (auto& [u, v] : edges) {
    if (u >= n || v >= n) throw std::invalid_argument("edge endpoint out of range");
    if (u == v) throw std::invalid_argument("self-loop not allowed");
    if (u > v) std::swap(u, v);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  num_edges_ = edges.size();

  deg_.assign(n_, 0);
  for (const auto& [u, v] : edges) {
    ++deg_[u];
    ++deg_[v];
  }
  hist_.assign(n_ > 0 ? n_ : 1, 0);
  for (const std::uint32_t d : deg_) {
    ++hist_[d];
    max_degree_ = std::max<std::size_t>(max_degree_, d);
  }
  avg_degree_ = n_ > 0 ? 2.0 * static_cast<double>(num_edges_) /
                             static_cast<double>(n_)
                       : 0.0;
  // Zero-slack slots to start with: churn earns slack via removals and buys
  // it via relocation; a never-mutated graph pays nothing extra.
  pos_.assign(n_, 0);
  cap_.assign(deg_.begin(), deg_.end());
  for (NodeId v = 1; v < n_; ++v) pos_[v] = pos_[v - 1] + cap_[v - 1];
  pool_.resize(n_ > 0 ? pos_[n_ - 1] + cap_[n_ - 1] : 0);
  {
    std::vector<std::uint32_t> cursor(pos_.begin(), pos_.end());
    for (const auto& [u, v] : edges) {
      pool_[cursor[u]++] = v;
      pool_[cursor[v]++] = u;
    }
  }
  for (NodeId v = 0; v < n_; ++v) {
    std::sort(pool_.begin() + pos_[v], pool_.begin() + pos_[v] + deg_[v]);
  }
  edges_cache_ = std::move(edges);
}

std::span<const std::pair<NodeId, NodeId>> Graph::edges() const {
  if (edges_dirty_) {
    // A serializer (or any other reader that registered via
    // debug_forbid_lazy_edges) must walk neighbors() directly — the lazy
    // rebuild mutates the cache and is not safe under concurrent readers.
    assert(!edges_rebuild_forbidden_ &&
           "Graph::edges() lazy rebuild hit while forbidden "
           "(snapshot paths must walk neighbors() instead)");
    ++edges_rebuilds_;
    edges_cache_.clear();
    edges_cache_.reserve(num_edges_);
    for (NodeId v = 0; v < n_; ++v) {
      for (const NodeId u : neighbors(v)) {
        if (v < u) edges_cache_.emplace_back(v, u);
      }
    }
    edges_dirty_ = false;
  }
  return edges_cache_;
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) return false;
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

bool Graph::connected() const {
  if (n_ <= 1) return true;
  std::vector<bool> seen(n_, false);
  std::queue<NodeId> frontier;
  frontier.push(0);
  seen[0] = true;
  NodeId reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    for (const NodeId u : neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        ++reached;
        frontier.push(u);
      }
    }
  }
  return reached == n_;
}

// --- topology churn ----------------------------------------------------------

void Graph::validate_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument("edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("self-loop not allowed");
}

void Graph::bump_degree(NodeId u, bool up) {
  const std::uint32_t d = deg_[u];
  --hist_[up ? d - 1 : d + 1];
  ++hist_[d];
  if (d > max_degree_) {
    max_degree_ = d;
  } else {
    // A removal may have vacated the top bucket; walk it down. Each step
    // undoes one earlier raise, so the walk is O(1) amortized.
    while (max_degree_ > 0 && hist_[max_degree_] == 0) --max_degree_;
  }
}

void Graph::insert_half_edge(NodeId u, NodeId w) {
  if (deg_[u] == cap_[u]) {
    // Slot full: relocate to fresh space at the pool's end with doubled
    // capacity. The old slot is abandoned (reclaimed by recompaction).
    const std::uint32_t new_cap = std::max<std::uint32_t>(4, 2 * cap_[u]);
    const std::size_t new_pos = pool_.size();
    pool_.resize(new_pos + new_cap);
    std::copy_n(pool_.begin() + pos_[u], deg_[u], pool_.begin() + new_pos);
    dead_ += cap_[u];
    pos_[u] = static_cast<std::uint32_t>(new_pos);
    cap_[u] = new_cap;
  }
  NodeId* base = pool_.data() + pos_[u];
  NodeId* end = base + deg_[u];
  NodeId* it = std::lower_bound(base, end, w);
  std::copy_backward(it, end, end + 1);
  *it = w;
  ++deg_[u];
  bump_degree(u, /*up=*/true);
}

void Graph::remove_half_edge(NodeId u, NodeId w) {
  NodeId* base = pool_.data() + pos_[u];
  NodeId* end = base + deg_[u];
  NodeId* it = std::lower_bound(base, end, w);
  assert(it != end && *it == w && "removing a half-edge that is not present");
  std::copy(it + 1, end, it);
  --deg_[u];
  bump_degree(u, /*up=*/false);
}

void Graph::recompact_if_bloated() {
  // Reclaim abandoned slots once they dominate: the pool never exceeds ~2x
  // the live+slack footprint, and each entry is moved O(1) amortized times
  // between recompactions.
  if (dead_ > pool_.size() / 2 && dead_ > 1024) recompact();
}

void Graph::recompact() {
  std::vector<NodeId> fresh;
  fresh.reserve(2 * num_edges_);
  std::vector<std::uint32_t> new_pos(n_, 0);
  for (NodeId v = 0; v < n_; ++v) {
    new_pos[v] = static_cast<std::uint32_t>(fresh.size());
    fresh.insert(fresh.end(), pool_.begin() + pos_[v],
                 pool_.begin() + pos_[v] + deg_[v]);
    cap_[v] = deg_[v];
  }
  pool_ = std::move(fresh);
  pos_ = std::move(new_pos);
  dead_ = 0;
}

bool Graph::add_edge(NodeId u, NodeId v) {
  validate_edge(u, v);
  if (has_edge(u, v)) return false;
  insert_half_edge(u, v);
  insert_half_edge(v, u);
  ++num_edges_;
  avg_degree_ = 2.0 * static_cast<double>(num_edges_) / static_cast<double>(n_);
  edges_dirty_ = true;
  recompact_if_bloated();
  return true;
}

bool Graph::remove_edge(NodeId u, NodeId v) {
  validate_edge(u, v);
  if (!has_edge(u, v)) return false;
  remove_half_edge(u, v);
  remove_half_edge(v, u);
  --num_edges_;
  avg_degree_ = 2.0 * static_cast<double>(num_edges_) / static_cast<double>(n_);
  edges_dirty_ = true;
  return true;
}

void Graph::attach_permutation(std::vector<NodeId> to_internal,
                               std::vector<NodeId> to_user) {
  if (to_internal.empty() && to_user.empty()) {
    to_internal_.clear();
    to_internal_.shrink_to_fit();
    to_user_.clear();
    to_user_.shrink_to_fit();
    return;
  }
  if (to_internal.size() != n_ || to_user.size() != n_) {
    throw std::invalid_argument("attach_permutation: size mismatch");
  }
  // to_user[to_internal[u]] == u for every u (with to_internal[u] in range)
  // forces to_internal injective over a finite equal-size domain, hence both
  // are bijections and exact inverses — one pass checks everything.
  for (NodeId u = 0; u < n_; ++u) {
    if (to_internal[u] >= n_ || to_user[to_internal[u]] != u) {
      throw std::invalid_argument(
          "attach_permutation: maps are not mutually inverse bijections");
    }
  }
  to_internal_ = std::move(to_internal);
  to_user_ = std::move(to_user);
}

void Graph::shrink_to_fit() {
  recompact();  // zero per-slot slack, dead_ = 0
  pos_.shrink_to_fit();
  deg_.shrink_to_fit();
  cap_.shrink_to_fit();
  pool_.shrink_to_fit();
  hist_.shrink_to_fit();
  to_internal_.shrink_to_fit();
  to_user_.shrink_to_fit();
  // Drop the materialized edge list entirely; the rare reader that still
  // wants it pays one lazy rebuild.
  edges_cache_.clear();
  edges_cache_.shrink_to_fit();
  edges_dirty_ = true;
}

std::size_t Graph::dynamic_memory_usage() const {
  return util::DynamicUsage(pos_) + util::DynamicUsage(deg_) +
         util::DynamicUsage(cap_) + util::DynamicUsage(pool_) +
         util::DynamicUsage(hist_) + util::DynamicUsage(edges_cache_) +
         util::DynamicUsage(to_internal_) + util::DynamicUsage(to_user_);
}

TopologyDelta Graph::apply_delta(const TopologyDelta& delta) {
  // Validate the whole batch up front so a bad edit never leaves the graph
  // half-patched.
  for (const auto& [u, v] : delta.remove) validate_edge(u, v);
  for (const auto& [u, v] : delta.add) validate_edge(u, v);

  TopologyDelta applied;
  applied.remove.reserve(delta.remove.size());
  applied.add.reserve(delta.add.size());
  for (auto [u, v] : delta.remove) {
    if (u > v) std::swap(u, v);
    if (remove_edge(u, v)) applied.remove.emplace_back(u, v);
  }
  for (auto [u, v] : delta.add) {
    if (u > v) std::swap(u, v);
    if (add_edge(u, v)) applied.add.emplace_back(u, v);
  }
  return applied;
}

// --- streaming construction --------------------------------------------------

GraphBuilder::GraphBuilder(NodeId n, GraphOptions options)
    : n_(n), options_(options) {
  if (options_.slack < 0.0) {
    throw std::invalid_argument("GraphBuilder: negative slack");
  }
  deg_.assign(n_, 0);
}

void GraphBuilder::count_edge(NodeId u, NodeId v) {
  if (phase_ != Phase::kCounting) {
    throw std::logic_error("GraphBuilder::count_edge after finish_counting");
  }
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument("edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("self-loop not allowed");
  ++deg_[u];
  ++deg_[v];
}

void GraphBuilder::finish_counting() {
  if (phase_ != Phase::kCounting) {
    throw std::logic_error("GraphBuilder::finish_counting called twice");
  }
  phase_ = Phase::kFilling;
  cap_.resize(n_);
  pos_.resize(n_);
  std::size_t total = 0;
  for (NodeId v = 0; v < n_; ++v) {
    const auto d = deg_[v];
    const auto extra =
        options_.slack > 0.0
            ? static_cast<std::uint32_t>(
                  std::ceil(options_.slack * static_cast<double>(d)))
            : 0U;
    cap_[v] = d + extra;
    pos_[v] = static_cast<std::uint32_t>(total);
    total += cap_[v];
  }
  pool_.resize(total);
  // deg_ becomes the fill cursor for pass 2 (reset to the slot base).
  deg_.assign(n_, 0);
}

void GraphBuilder::fill_edge(NodeId u, NodeId v) {
  if (phase_ != Phase::kFilling) {
    throw std::logic_error("GraphBuilder::fill_edge outside the fill pass");
  }
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument("edge endpoint out of range");
  }
  if (u == v) throw std::invalid_argument("self-loop not allowed");
  // A fill stream that outgrows its counted slot means the two passes
  // diverged — a caller bug that must not scribble into a neighbor's slot.
  if (deg_[u] >= cap_[u] || deg_[v] >= cap_[v]) {
    throw std::logic_error("GraphBuilder::fill_edge exceeds counted degree");
  }
  pool_[pos_[u] + deg_[u]++] = v;
  pool_[pos_[v] + deg_[v]++] = u;
}

Graph GraphBuilder::finish() && {
  if (phase_ != Phase::kFilling) {
    throw std::logic_error("GraphBuilder::finish before finish_counting");
  }
  for (NodeId v = 0; v < n_; ++v) {
    NodeId* base = pool_.data() + pos_[v];
    std::sort(base, base + deg_[v]);
    // Parallel emissions collapse; the freed entries stay as in-slot slack.
    const auto unique_end = std::unique(base, base + deg_[v]);
    deg_[v] = static_cast<std::uint32_t>(unique_end - base);
  }
  return std::move(*this).take();
}

Graph GraphBuilder::take() && {
  phase_ = Phase::kDone;
  Graph g(n_);
  std::size_t half_edges = 0;
  g.hist_.assign(n_ > 0 ? n_ : 1, 0);
  for (NodeId v = 0; v < n_; ++v) {
    half_edges += deg_[v];
    ++g.hist_[deg_[v]];
    g.max_degree_ = std::max<std::size_t>(g.max_degree_, deg_[v]);
  }
  g.num_edges_ = half_edges / 2;
  g.avg_degree_ = n_ > 0 ? 2.0 * static_cast<double>(g.num_edges_) /
                               static_cast<double>(n_)
                         : 0.0;
  g.pos_ = std::move(pos_);
  g.deg_ = std::move(deg_);
  g.cap_ = std::move(cap_);
  g.pool_ = std::move(pool_);
  // No materialized edge list: the cache starts dirty and empty, rebuilt
  // lazily by the first edges() caller (never on the scale path).
  g.edges_dirty_ = true;
  return g;
}

Graph GraphBuilder::relabel(const Graph& g, std::span<const NodeId> perm,
                            GraphOptions options) {
  const NodeId n = g.num_nodes();
  if (perm.size() != n) {
    throw std::invalid_argument("relabel: permutation size mismatch");
  }
  {
    std::vector<std::uint8_t> seen(n, 0);
    for (const NodeId p : perm) {
      if (p >= n || seen[p]) {
        throw std::invalid_argument("relabel: not a permutation");
      }
      seen[p] = 1;
    }
  }
  GraphBuilder b(n, options);
  for (NodeId v = 0; v < n; ++v) b.deg_[perm[v]] = g.deg_[v];
  b.finish_counting();
  // Old rows are read in order; each lands, whole, in the slot of its new
  // id. Only those destinations are scattered, so they are prefetched.
  for (NodeId v = 0; v < n; ++v) {
    if (v + kRowPrefetchDistance < n) {
      const NodeId ahead = perm[v + kRowPrefetchDistance];
      prefetch</*kForWrite=*/true>(b.pool_.data() + b.pos_[ahead]);
    }
    const auto row = g.neighbors(v);
    NodeId* out = b.pool_.data() + b.pos_[perm[v]];
    for (std::size_t i = 0; i < row.size(); ++i) out[i] = perm[row[i]];
    std::sort(out, out + row.size());
    b.deg_[perm[v]] = g.deg_[v];
  }
  return std::move(b).take();
}

}  // namespace ssau::graph
