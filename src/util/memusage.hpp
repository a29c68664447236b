// Recursive dynamic-memory accounting — the footprint half of the scale
// story.
//
// DynamicUsage(x) reports the heap bytes OWNED by x (capacity, not size:
// slack a container reserves is real memory the process pays for), excluding
// sizeof(x) itself — the caller knows where x lives (stack, member, arena).
// Container overloads recurse into elements that own heap memory of their own
// (detected by the presence of a DynamicUsage overload for the element type),
// so nested structures (vector<vector<T>>) account for every level; flat
// elements (ints, NodeId pairs) cost exactly their capacity slots. Classes
// with private containers expose a `dynamic_memory_usage()` method built from
// these overloads; the repo-wide invariant (CONTRIBUTING.md) is that any new
// per-node/per-edge member is added to its class's method in the same PR that
// introduces it.
//
// The numbers feed bytes_per_node / bytes_per_edge columns in
// BENCH_engine.json and the bytes-per-node CI gate (bench/gates.txt),
// so they must stay exact for the vector-backed containers that dominate the
// footprint (std::deque is approximated by its element bytes — its block
// bookkeeping is implementation-defined and negligible at engine scale).
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace ssau::util {

/// Heap bytes owned by a string (0 when the small-string optimization keeps
/// the payload inline — detected by comparing against a default-constructed
/// string's inline capacity).
[[nodiscard]] inline std::size_t DynamicUsage(const std::string& s) {
  return s.capacity() > std::string().capacity() ? s.capacity() + 1 : 0;
}

template <typename T>
[[nodiscard]] std::size_t DynamicUsage(const std::vector<T>& v);

template <typename T>
[[nodiscard]] std::size_t DynamicUsage(const std::deque<T>& d);

namespace detail {

/// True when T has its own DynamicUsage overload, i.e. its elements can own
/// heap memory the containing container must recurse into. Flat value types
/// (integers, pairs of node ids) have no overload and cost only their slots.
template <typename T, typename = void>
struct OwnsHeap : std::false_type {};

template <typename T>
struct OwnsHeap<T,
                std::void_t<decltype(DynamicUsage(std::declval<const T&>()))>>
    : std::true_type {};

}  // namespace detail

/// Heap bytes owned by a vector: the full reserved capacity (slack is
/// committed memory), plus — for element types that own heap memory
/// themselves — every element's own DynamicUsage, recursively.
template <typename T>
[[nodiscard]] std::size_t DynamicUsage(const std::vector<T>& v) {
  std::size_t total = v.capacity() * sizeof(T);
  if constexpr (detail::OwnsHeap<T>::value) {
    for (const T& item : v) total += DynamicUsage(item);
  }
  return total;
}

/// Approximate heap bytes of a deque: element payload only (plus element
/// recursion). libstdc++/libc++ block maps add a few pointers per block —
/// noise next to the element arrays the engine accounts for.
template <typename T>
[[nodiscard]] std::size_t DynamicUsage(const std::deque<T>& d) {
  std::size_t total = d.size() * sizeof(T);
  if constexpr (detail::OwnsHeap<T>::value) {
    for (const T& item : d) total += DynamicUsage(item);
  }
  return total;
}

}  // namespace ssau::util
