// Protocol and operation knobs, with the paper's defaults.
#pragma once

#include <cstdint>

#include "hash/pair_hash.hpp"
#include "sim/time.hpp"

namespace avmem::core {

/// AVMEM maintenance-protocol configuration (paper Section 3.1).
struct ProtocolConfig {
  /// Horizontal-sliver half-width; "using eps = 0.1 suffices".
  double epsilon = 0.1;
  /// Vertical-sliver constant c1 (predicate I.B / I.C).
  double c1 = 1.0;
  /// Horizontal-sliver constant c2 (predicate II.B).
  double c2 = 1.0;
  /// Discovery sub-protocol period ("typically 1 minute").
  sim::SimDuration discoveryPeriod = sim::SimDuration::minutes(1);
  /// Refresh sub-protocol period ("a refresh period of 20 minutes
  /// suffices").
  sim::SimDuration refreshPeriod = sim::SimDuration::minutes(20);
  /// Additive slack on receiver-side verification (paper Section 4.1,
  /// Figures 5-6). 0 = strict.
  double cushion = 0.0;
  /// Function behind the pair hash H. SHA-1 is the paper-fidelity default;
  /// kFast64 is the scale-mode option (see hash/fast64.hpp).
  hashing::PairHashAlgorithm hashAlgorithm = hashing::PairHashAlgorithm::kSha1;
  /// Deployment seed for kFast64 (ignored by SHA-1).
  std::uint64_t hashSeed = hashing::kFast64DefaultSeed;
};

/// Anycast forwarding strategies (paper Section 3.2).
enum class AnycastStrategy : std::uint8_t {
  kGreedy,
  kRetriedGreedy,
  kSimulatedAnnealing,
};

[[nodiscard]] constexpr const char* toString(AnycastStrategy s) noexcept {
  switch (s) {
    case AnycastStrategy::kGreedy:
      return "greedy";
    case AnycastStrategy::kRetriedGreedy:
      return "retried-greedy";
    case AnycastStrategy::kSimulatedAnnealing:
      return "simulated-annealing";
  }
  return "?";
}

/// Multicast dissemination modes (paper Section 3.2).
enum class MulticastMode : std::uint8_t {
  kFlood,
  kGossip,
};

[[nodiscard]] constexpr const char* toString(MulticastMode m) noexcept {
  switch (m) {
    case MulticastMode::kFlood:
      return "flood";
    case MulticastMode::kGossip:
      return "gossip";
  }
  return "?";
}

}  // namespace avmem::core
