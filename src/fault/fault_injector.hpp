// The fault injector: turns a FaultPlan into deterministic wire verdicts
// and a composed availability overlay.
//
// Wire seam. net::Network::send/sendWithAck and net/shuffle_channel.hpp
// consult onWire() at their delivery-scheduling points. Every consult
// that lands inside an active, scope-matching loss stage burns one
// counter of that wire kind's stream and derives its dice from
// Rng::stream(plan.seed, kind, seq) — a pure function, so verdicts are
// independent of thread count (all consults happen in serial
// event/commit context, in identical order at any count). Outside
// any active stage onWire() is a pure no-op that draws nothing and
// advances nothing, which is what makes a plan with no active stages —
// or a disabled injector — byte-identical to a faultless run.
//
// Availability seam. Outage and flash-crowd stages do not touch the
// wire; they compose over the trace as an OutageOverlayModel that
// forces hash-selected hosts offline (or online) for the epochs their
// windows cover, at the trace's own epoch granularity. Membership
// maintenance, the network's online oracle, the candidate feed and the engines all see the same
// overlaid world because they all query the same model.
//
// State. The per-kind counters, injected-fault tallies and attack-sweep
// counters are the injector's only mutable state; snapshot/ serializes
// them in the FALT section so a checkpoint taken mid-campaign resumes
// the exact counter streams.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "fault/fault_plan.hpp"
#include "sim/random.hpp"
#include "trace/availability_model.hpp"

namespace avmem::fault {

/// Sentinel for "source unknown at this seam" (endpoint-blind sends).
inline constexpr std::uint32_t kUnknownNode = 0xFFFFFFFFu;

/// Which wire lane a consult is for. Each kind owns an independent
/// counter stream, so adding consults to one lane never shifts the
/// randomness another lane sees.
enum class WireKind : std::uint8_t {
  kDatagram = 0,     ///< fire-and-forget Network::send
  kAckRequest = 1,   ///< Network::sendWithAck request leg
  kAck = 2,          ///< Network::sendWithAck ack leg
  kShuffleRequest = 3,
  kShuffleReply = 4,
  kShuffleAck = 5,
  kPing = 6,         ///< AVMON monitor ping (avmon/avmon_monitors.hpp)
};
inline constexpr std::size_t kWireKindCount = 7;

namespace detail {
inline constexpr std::uint64_t kRegionSalt = 0x5E610ull;
inline constexpr std::uint64_t kWireSaltBase = 0x3172Eull;
inline constexpr std::uint64_t kAttackSaltBase = 0xA77ACull;
inline constexpr std::uint64_t kWindowSaltBase = 0x0D0BEull;
}  // namespace detail

/// The plan's deterministic hash region assignment — shared by the
/// injector's loss scoping and the overlay's outage membership so both
/// agree on what "region r" means.
[[nodiscard]] inline std::uint32_t hashRegionOf(std::uint64_t seed,
                                                std::uint32_t regions,
                                                std::uint32_t node) {
  return static_cast<std::uint32_t>(
      sim::Rng::stream(seed, detail::kRegionSalt, node).below(regions));
}

/// One consult's outcome. `drop` wins over everything; a duplicate is a
/// second delivery of the same message, offset by `duplicateDelayUs`
/// past the primary's latency (drawn from the fault stream — the real
/// latency stream is never perturbed).
struct WireVerdict {
  bool drop = false;
  bool duplicate = false;
  std::int64_t extraDelayUs = 0;
  std::int64_t duplicateDelayUs = 0;
};

/// Cumulative injected-fault and campaign tallies.
struct FaultStats {
  std::uint64_t injectedDrops = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t attackSweeps = 0;
  std::uint64_t attackTargets = 0;
  std::uint64_t attackAccepted = 0;
};

class FaultInjector {
 public:
  /// Maps a node to its region for loss-stage scoping. Defaults to the
  /// plan's deterministic hash assignment; installs a topology-backed
  /// map (net::RegionLatency::regionOf) via setRegionMap when one
  /// exists.
  using RegionFn = std::function<std::uint32_t(std::uint32_t)>;

  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
    attackSweepsDone_.assign(plan_.attacks.size(), 0);
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

  void setRegionMap(RegionFn fn) { regionMap_ = std::move(fn); }

  /// Region of `node` under this plan: the installed map if any, else
  /// a pure hash of (plan.seed, node) — stable across runs and
  /// independent of everything else drawn from the plan seed.
  [[nodiscard]] std::uint32_t regionOf(std::uint32_t node) const {
    if (regionMap_) return regionMap_(node) % plan_.regions;
    return hashRegionOf(plan_.seed, plan_.regions, node);
  }

  /// True iff some loss stage is active at `nowUs` (cheap pre-check the
  /// wire seams may use to skip consults entirely).
  [[nodiscard]] bool lossActiveAt(std::int64_t nowUs) const noexcept {
    for (const auto& s : plan_.loss) {
      if (nowUs >= s.fromUs && nowUs < s.toUs) return true;
    }
    return false;
  }

  /// Consult at a delivery-scheduling point. Must only be called from
  /// serial (event or commit) context — counter order is event order.
  [[nodiscard]] WireVerdict onWire(WireKind kind, std::uint32_t src,
                                   std::uint32_t dst, std::int64_t nowUs) {
    const LossStage* stage = matchLoss(src, dst, nowUs);
    if (stage == nullptr) return {};
    const auto k = static_cast<std::size_t>(kind);
    sim::Rng r = sim::Rng::stream(plan_.seed, detail::kWireSaltBase + k,
                                  wireSeq_[k]++);
    WireVerdict v;
    v.drop = stage->drop > 0.0 && r.chance(stage->drop);
    if (v.drop) {
      ++stats_.injectedDrops;
      return v;
    }
    v.duplicate = stage->duplicate > 0.0 && r.chance(stage->duplicate);
    if (v.duplicate) {
      ++stats_.duplicated;
      const std::int64_t spread =
          stage->delayMaxUs > 0 ? stage->delayMaxUs : kDefaultDupSpreadUs;
      v.duplicateDelayUs = r.between(1, spread);
    }
    if (stage->delay > 0.0 && r.chance(stage->delay)) {
      v.extraDelayUs = r.between(1, stage->delayMaxUs);
      ++stats_.delayed;
    }
    return v;
  }

  // --- attacker campaigns (driven by core/'s periodic tasks) ---------------

  [[nodiscard]] std::size_t attackStageCount() const noexcept {
    return plan_.attacks.size();
  }
  [[nodiscard]] const AttackStage& attackStage(std::size_t i) const {
    return plan_.attacks.at(i);
  }
  [[nodiscard]] std::uint64_t attackSweepsDone(std::size_t i) const {
    return attackSweepsDone_.at(i);
  }

  /// Claim the next sweep index of attack stage `i` (the counter the
  /// attacker draw keys on); increments the per-stage counter.
  [[nodiscard]] std::uint64_t nextAttackSweep(std::size_t i) {
    return attackSweepsDone_.at(i)++;
  }

  /// Deterministic attacker stream for (stage, sweep): the campaign
  /// driver draws the attacker (and any retries for offline picks)
  /// from this generator.
  [[nodiscard]] sim::Rng attackerRng(std::size_t stageIdx,
                                     std::uint64_t sweep) const {
    return sim::Rng::stream(plan_.seed, detail::kAttackSaltBase + stageIdx,
                            sweep);
  }

  void recordSweep(std::size_t targets, std::size_t accepted) noexcept {
    ++stats_.attackSweeps;
    stats_.attackTargets += targets;
    stats_.attackAccepted += accepted;
  }

  // --- warm-state checkpointing (snapshot/) --------------------------------

  struct SavedState {
    std::array<std::uint64_t, kWireKindCount> wireSeq{};
    FaultStats stats;
    std::vector<std::uint64_t> attackSweepsDone;
  };

  [[nodiscard]] SavedState saveState() const {
    return SavedState{wireSeq_, stats_, attackSweepsDone_};
  }

  void restoreState(const SavedState& s) {
    wireSeq_ = s.wireSeq;
    stats_ = s.stats;
    if (s.attackSweepsDone.size() != plan_.attacks.size()) {
      throw FaultPlanError(
          "fault injector restore: attack stage count mismatch");
    }
    attackSweepsDone_ = s.attackSweepsDone;
  }

 private:
  static constexpr std::int64_t kDefaultDupSpreadUs = 100'000;  // 100 ms

  [[nodiscard]] const LossStage* matchLoss(std::uint32_t src,
                                           std::uint32_t dst,
                                           std::int64_t nowUs) const {
    for (const auto& s : plan_.loss) {
      if (nowUs < s.fromUs || nowUs >= s.toUs) continue;
      if (s.srcRegion != kAnyRegion &&
          (src == kUnknownNode ||
           regionOf(src) != static_cast<std::uint32_t>(s.srcRegion))) {
        continue;
      }
      if (s.dstRegion != kAnyRegion &&
          (dst == kUnknownNode ||
           regionOf(dst) != static_cast<std::uint32_t>(s.dstRegion))) {
        continue;
      }
      return &s;
    }
    return nullptr;
  }

  FaultPlan plan_;
  RegionFn regionMap_;
  std::array<std::uint64_t, kWireKindCount> wireSeq_{};
  std::vector<std::uint64_t> attackSweepsDone_;
  FaultStats stats_;
};

/// Availability model composing a plan's outage and flash-crowd windows
/// over an inner trace. Forcing decisions are pure hashes of
/// (plan.seed, window, host) — stateless and epoch-pure, so the overlay
/// is as concurrent-read-safe as its inner model.
///
/// fullAvailability() deliberately delegates to the inner model: the
/// long-term availability PDF (and everything derived from it — ranges,
/// target selection) describes the *healthy* population the paper's
/// crawler measured, not the campaign being injected.
class OutageOverlayModel final : public trace::AvailabilityModel {
 public:
  OutageOverlayModel(std::unique_ptr<trace::AvailabilityModel> inner,
                     const FaultPlan& plan);

  [[nodiscard]] std::size_t hostCount() const noexcept override {
    return inner_->hostCount();
  }
  [[nodiscard]] std::size_t epochCount() const noexcept override {
    return inner_->epochCount();
  }
  [[nodiscard]] sim::SimDuration epochDuration() const noexcept override {
    return inner_->epochDuration();
  }
  [[nodiscard]] std::size_t memoryFootprintBytes() const noexcept override {
    return inner_->memoryFootprintBytes() + windows_.size() * sizeof(Window);
  }

  [[nodiscard]] bool onlineInEpoch(trace::HostIndex h,
                                   std::size_t e) const override;
  [[nodiscard]] std::uint64_t onlineEpochsThrough(trace::HostIndex h,
                                                  std::size_t e)
      const override;

  [[nodiscard]] double fullAvailability(trace::HostIndex h) const override {
    return inner_->fullAvailability(h);
  }

  /// The wrapped model (snapshot/ unwraps to reach backend-specific
  /// state like the Markov cursor cache).
  [[nodiscard]] const trace::AvailabilityModel& inner() const noexcept {
    return *inner_;
  }
  [[nodiscard]] trace::AvailabilityModel& inner() noexcept {
    return *inner_;
  }

 private:
  /// An outage or flash-crowd stage resolved to epoch granularity:
  /// epochs [fromEpoch, toEpoch] inclusive, both clamped into range.
  struct Window {
    std::size_t fromEpoch = 0;
    std::size_t toEpoch = 0;
    bool forceOnline = false;     ///< flash crowd vs outage
    std::uint32_t region = 0;     ///< outage only
    double fraction = 1.0;
    std::uint64_t salt = 0;       ///< per-window member-hash stream
  };

  [[nodiscard]] bool affects(const Window& w, trace::HostIndex h) const;

  std::unique_ptr<trace::AvailabilityModel> inner_;
  std::uint64_t seed_;
  std::uint32_t regions_;
  std::vector<Window> windows_;
};

}  // namespace avmem::fault
