// Class sets for native set δs.
//
// A native set δ (Automaton::step_set over the 256-bit StateSet,
// Automaton::step_wide over the wide set) never decodes a sensed state. It
// asks the presence set questions instead — is some σ state present, is
// every sensed state in my (stage, round) class, which undecided state is
// the lowest present — and answers each with word-wise AND, popcount and
// count-trailing-zeros against a class of states fixed at construction.
//
// StateClasses holds such a family. Every class is ceil(|Q| / 64) words in
// StateSet's layout (bit q & 63 of word q >> 6), which is also the populated
// prefix of a WideStateSet, so one table and one set of tests serve both
// sensed forms: the tests are templated on the sensed set's word count W
// and read only the class's words, so they require words() <= W. Each class
// also records the span of words it occupies, and the tests that look for a
// common state walk only that span.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/types.hpp"

namespace ssau::core {

/// The words [first, last) of a presence set.
struct WordSpan {
  std::size_t first = 0;
  std::size_t last = 0;
};

class StateClasses {
 public:
  /// first_common's answer when the two sets share no state.
  static constexpr StateId kNone = ~StateId{0};

  StateClasses() = default;

  /// `classes` empty classes over the states [0, state_count).
  StateClasses(std::size_t classes, StateId state_count)
      : words_((static_cast<std::size_t>(state_count) + 63) / 64),
        bits_(classes * words_, 0),
        spans_(classes, WordSpan{words_, 0}) {}

  void insert(std::size_t cls, StateId q) {
    const std::size_t w = q >> 6;
    bits_[cls * words_ + w] |= std::uint64_t{1} << (q & 63);
    WordSpan& span = spans_[cls];
    span.first = std::min(span.first, w);
    span.last = std::max(span.last, w + 1);
  }

  /// True when no class was built (the automaton's |Q| has no native δ).
  [[nodiscard]] bool empty() const { return spans_.empty(); }
  /// Words per class: ceil(|Q| / 64).
  [[nodiscard]] std::size_t words() const { return words_; }
  /// The words outside which class `cls` has no state.
  [[nodiscard]] WordSpan span(std::size_t cls) const { return spans_[cls]; }

  /// True iff some sensed state is in class `cls`.
  template <std::size_t W>
  [[nodiscard]] bool meets(const std::array<std::uint64_t, W>& sensed,
                           std::size_t cls) const {
    return meets(sensed, cls, spans_[cls]);
  }

  /// True iff some sensed state of the words `span` is in class `cls` — for
  /// callers that already know every sensed state lies in those words.
  template <std::size_t W>
  [[nodiscard]] bool meets(const std::array<std::uint64_t, W>& sensed,
                           std::size_t cls, WordSpan span) const {
    const std::uint64_t* c = row(cls);
    std::uint64_t any = 0;
    for (std::size_t w = span.first; w < span.last; ++w) {
      any |= sensed[w] & c[w];
    }
    return any != 0;
  }

  /// True iff every sensed state is in class `cls`.
  template <std::size_t W>
  [[nodiscard]] bool within(const std::array<std::uint64_t, W>& sensed,
                            std::size_t cls) const {
    const std::uint64_t* c = row(cls);
    std::uint64_t outside = 0;
    for (std::size_t w = 0; w < words_; ++w) outside |= sensed[w] & ~c[w];
    return outside == 0;
  }

  /// How many sensed states are in class `cls`.
  template <std::size_t W>
  [[nodiscard]] int count_common(const std::array<std::uint64_t, W>& sensed,
                                 std::size_t cls) const {
    const std::uint64_t* c = row(cls);
    const WordSpan span = spans_[cls];
    int count = 0;
    for (std::size_t w = span.first; w < span.last; ++w) {
      count += std::popcount(sensed[w] & c[w]);
    }
    return count;
  }

  /// The lowest sensed state in class `cls`, or kNone.
  template <std::size_t W>
  [[nodiscard]] StateId first_common(
      const std::array<std::uint64_t, W>& sensed, std::size_t cls) const {
    const std::uint64_t* c = row(cls);
    const WordSpan span = spans_[cls];
    for (std::size_t w = span.first; w < span.last; ++w) {
      if (const std::uint64_t both = sensed[w] & c[w]; both != 0) {
        return static_cast<StateId>(w * 64 + std::countr_zero(both));
      }
    }
    return kNone;
  }

 private:
  [[nodiscard]] const std::uint64_t* row(std::size_t cls) const {
    return bits_.data() + cls * words_;
  }

  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;  // class c at [c * words_, (c + 1) * words_)
  std::vector<WordSpan> spans_;
};

}  // namespace ssau::core
