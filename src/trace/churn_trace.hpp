// Dense churn traces: the recorded-timeline backend of AvailabilityModel.
//
// The paper's evaluation injects availability traces from the Overnet p2p
// system, "collected over a 7 day period, at 20 minute intervals, for a
// fixed population of 1442 hosts" (Bhagwan et al. [3]). ChurnTrace stores
// such a trace — real (loaded from disk) or synthetic (see
// overnet_generator.hpp) — as one byte per host-epoch plus uint32
// availability prefix sums: every query is O(1), at ~5 bytes per
// host-epoch.
//
// This is one of two interchangeable availability backends (see
// availability_model.hpp): ChurnTrace for paper-fidelity figures and
// on-disk traces, MarkovChurnModel when a stored timeline is too large.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/time.hpp"
#include "trace/availability_model.hpp"

namespace avmem::trace {

/// An immutable, dense churn trace.
class ChurnTrace final : public AvailabilityModel {
 public:
  /// Build from per-host epoch bitmaps; `timeline[h][e]` is host h's online
  /// flag in epoch e. All hosts must have the same number of epochs.
  ChurnTrace(std::vector<std::vector<std::uint8_t>> timeline,
             sim::SimDuration epochDuration);

  [[nodiscard]] std::size_t hostCount() const noexcept override {
    return online_.size();
  }
  [[nodiscard]] std::size_t epochCount() const noexcept override {
    return epochs_;
  }
  [[nodiscard]] sim::SimDuration epochDuration() const noexcept override {
    return epochDuration_;
  }

  [[nodiscard]] bool onlineInEpoch(HostIndex h, std::size_t e) const override {
    return online_.at(h).at(e) != 0;
  }

  /// Online epochs of `h` in [0, e]: one prefix-sum lookup.
  [[nodiscard]] std::uint64_t onlineEpochsThrough(
      HostIndex h, std::size_t e) const override {
    return uptimePrefix_.at(h).at(e + 1);
  }

  [[nodiscard]] std::vector<HostIndex> onlineHostsInEpoch(
      std::size_t e) const override;
  [[nodiscard]] std::size_t onlineCountInEpoch(std::size_t e) const override;

  [[nodiscard]] std::size_t memoryFootprintBytes() const noexcept override;

 private:
  std::vector<std::vector<std::uint8_t>> online_;      // [host][epoch] 0/1
  std::vector<std::vector<std::uint32_t>> uptimePrefix_;  // [host][epoch+1]
  std::size_t epochs_ = 0;
  sim::SimDuration epochDuration_ = sim::SimDuration::zero();
};

}  // namespace avmem::trace
