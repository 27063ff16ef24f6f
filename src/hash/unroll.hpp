// Compile-time loop unrolling for the digest compression functions.
#pragma once

#include <cstddef>
#include <utility>

namespace avmem::hashing::detail {

template <std::size_t First, typename Body, std::size_t... I>
inline void unrolled(Body& body, std::index_sequence<I...>) {
  (body(First + I), ...);
}

/// body(First), body(First + 1), ..., body(First + N - 1) as straight-line
/// code: every round index is a constant, so schedule slots, message
/// words and shift amounts resolve at compile time instead of branching
/// per round.
template <std::size_t First, std::size_t N, typename Body>
inline void unroll(Body body) {
  unrolled<First>(body, std::make_index_sequence<N>{});
}

}  // namespace avmem::hashing::detail
