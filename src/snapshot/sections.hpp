// The checkpoint layout: every section's fields, listed once.
//
// Each section is one persist function run by two archives. Writer
// appends the fields to a SectionWriter; Reader parses them back from a
// Cursor into staging state, which restore validates before it mutates
// anything (snapshot/checkpoint.cpp). Because save and restore run the
// same function, a field cannot be written without being read.
//
// Every persisted struct is bound with a structured binding that names
// all of its members (`auto& [a, b, c] = s; ar(a, b, c);`). Adding a
// member to such a struct, an owner's SavedState included, then fails to
// compile ("only N names provided for structured binding") until the
// layout takes a position on it; a ctest pair pins that
// (tests/snapshot/compile_check/persist_probe.cpp).
//
// Encoding by field type: arithmetic values as their fixed-width
// little-endian bytes, enums as their underlying type, std::array element
// by element, vectors of arithmetic values or SimTime as one raw block
// (u64 count + bytes), any other vector as a u64 count plus its elements,
// and any other struct through its Layout::persist overload.
#pragma once

#include <array>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/simulation.hpp"
#include "snapshot/snapshot_io.hpp"
#include "trace/markov_churn.hpp"

namespace avmem::snapshot {

namespace detail {

// --- records ---------------------------------------------------------------

/// One node's protocol state (NODS).
struct NodeRecord {
  double selfAv = 0.0;
  core::NodeStats stats;
  core::SliverList hs;
  core::SliverList vs;
};

/// One armed timing-wheel slot (WHLS). `seq` is a queue tie-break key:
/// raw while collecting, then normalized to a dense rank before it is
/// written (see rankSavedEvents in checkpoint.cpp).
struct SlotRecord {
  std::uint32_t slot = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;
};

/// A periodic timer that may be stopped: the AVMON epoch fold (AVMN) and
/// each attacker-campaign stage (FALT).
struct TimerRecord {
  std::uint8_t running = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;  ///< tie-break rank (see rankSavedEvents)
};

/// One attacker-campaign stage: its timer and the sweeps it has run.
struct AttackRecord {
  TimerRecord timer;
  std::uint64_t sweepsDone = 0;
};

}  // namespace detail

/// The layout of every record a section holds: one persist overload per
/// type, run by both archives. Declared friend by SliverList, whose
/// arrays it binds directly.
struct Layout {
  template <class Ar>
  static void persist(Ar& ar, core::SliverList& sl) {
    auto& [peers, avs, added, refreshed] = sl;
    ar(peers, avs, added, refreshed);
    if (avs.size() != peers.size() || added.size() != peers.size() ||
        refreshed.size() != peers.size()) {
      throw CheckpointFormatError("checkpoint sliver: ragged arrays");
    }
  }

  template <class Ar>
  static void persist(Ar& ar, core::NodeStats& st) {
    auto& [discoveryRounds, refreshRounds, neighborsDiscovered,
           neighborsEvicted, availabilityQueries, verificationQueries,
           messagesVerified, messagesRejected] = st;
    ar(discoveryRounds, refreshRounds, neighborsDiscovered, neighborsEvicted,
       availabilityQueries, verificationQueries, messagesVerified,
       messagesRejected);
  }

  template <class Ar>
  static void persist(Ar& ar, detail::NodeRecord& r) {
    auto& [selfAv, stats, hs, vs] = r;
    ar(selfAv, stats, hs, vs);
  }

  template <class Ar>
  static void persist(Ar& ar, core::MembershipEngineStats& es) {
    auto& [discoveryRounds, refreshRounds, skippedOffline, feedCandidates] =
        es;
    ar(discoveryRounds, refreshRounds, skippedOffline, feedCandidates);
  }

  template <class Ar>
  static void persist(Ar& ar, detail::SlotRecord& r) {
    auto& [slot, fireAtUs, seq] = r;
    ar(slot, fireAtUs, seq);
  }

  template <class Ar>
  static void persist(Ar& ar, detail::TimerRecord& r) {
    auto& [running, fireAtUs, seq] = r;
    ar(running, fireAtUs, seq);
  }

  template <class Ar>
  static void persist(Ar& ar, detail::AttackRecord& r) {
    auto& [timer, sweepsDone] = r;
    ar(timer, sweepsDone);
  }

  /// Field by field, never as raw memory: the struct has padding.
  template <class Ar>
  static void persist(Ar& ar, net::ShuffleMsg& m) {
    auto& [kind, src, dst, payloadOffset, payloadCount, echoOffset, echoCount,
           seq, order, dueUs, rawDueUs] = m;
    ar(kind, src, dst, payloadOffset, payloadCount, echoOffset, echoCount, seq,
       order, dueUs, rawDueUs);
  }

  template <class Ar>
  static void persist(Ar& ar, net::NetworkStats& ns) {
    auto& [sent, delivered, rejected, droppedOffline, acksSent, ackTimeouts,
           bytesSent, duplicated, injectedDrops] = ns;
    ar(sent, delivered, rejected, droppedOffline, acksSent, ackTimeouts,
       bytesSent, duplicated, injectedDrops);
  }

  template <class Ar>
  static void persist(Ar& ar, fault::FaultStats& fs) {
    auto& [injectedDrops, duplicated, delayed, attackSweeps, attackTargets,
           attackAccepted] = fs;
    ar(injectedDrops, duplicated, delayed, attackSweeps, attackTargets,
       attackAccepted);
  }

  template <class Ar>
  static void persist(Ar& ar, avmon::AvmonSystem::PingStats& ps) {
    auto& [sent, delivered, lostToFaults, bytes] = ps;
    ar(sent, delivered, lostToFaults, bytes);
  }

  template <class Ar>
  static void persist(Ar& ar, avmon::AvmonSystem::SavedState::Cell& cell) {
    auto& [target, samples, up] = cell;
    ar(target, samples, up);
  }
};

namespace detail {

template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <class T>
inline constexpr bool kIsArray = false;
template <class T, std::size_t N>
inline constexpr bool kIsArray<std::array<T, N>> = true;

/// Element types a vector stores as one memcpy block. Structs never do:
/// padding bytes are indeterminate and would break byte-identical
/// re-saves.
template <class T>
inline constexpr bool kRawElement =
    std::is_arithmetic_v<T> || std::is_same_v<T, sim::SimTime>;

// SimTime arrays are serialized as raw memory; keep that honest.
static_assert(std::is_trivially_copyable_v<sim::SimTime> &&
                  sizeof(sim::SimTime) == sizeof(std::int64_t),
              "SimTime layout changed: bump kFormatVersion and revisit");

/// Appends fields to one section's payload.
class Writer {
 public:
  explicit Writer(SectionWriter& sec) : sec_(sec) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (put(fields), ...);
  }

 private:
  template <class T>
  void put(T& v) {
    if constexpr (std::is_enum_v<T>) {
      sec_.scalar(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_arithmetic_v<T>) {
      sec_.scalar(v);
    } else if constexpr (kIsArray<T>) {
      for (auto& e : v) put(e);
    } else if constexpr (kIsVector<T>) {
      using E = typename T::value_type;
      if constexpr (kRawElement<E>) {
        sec_.raw<E>(v);
      } else {
        sec_.scalar<std::uint64_t>(v.size());
        for (E& e : v) put(e);
      }
    } else {
      Layout::persist(*this, v);
    }
  }

  SectionWriter& sec_;
};

/// Parses fields back out of one (CRC-verified) section payload. Every
/// length is checked against the bytes left before anything is sized.
class Reader {
 public:
  explicit Reader(Cursor& cur) : cur_(cur) {}

  template <class... Ts>
  void operator()(Ts&... fields) {
    (get(fields), ...);
  }

 private:
  template <class T>
  void get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      v = static_cast<T>(cur_.scalar<std::underlying_type_t<T>>());
    } else if constexpr (std::is_arithmetic_v<T>) {
      v = cur_.scalar<T>();
    } else if constexpr (kIsArray<T>) {
      for (auto& e : v) get(e);
    } else if constexpr (kIsVector<T>) {
      using E = typename T::value_type;
      if constexpr (kRawElement<E>) {
        v = cur_.raw<E>();
      } else {
        // Every element encodes to at least one byte, so a lying count
        // runs out of payload before it can size a large allocation.
        const std::uint64_t count = cur_.scalar<std::uint64_t>();
        if (count > cur_.remaining()) {
          throw CheckpointFormatError(
              "checkpoint section: element count exceeds payload");
        }
        v.resize(static_cast<std::size_t>(count));
        for (E& e : v) get(e);
      }
    } else {
      Layout::persist(*this, v);
    }
  }

  Cursor& cur_;
};

// --- staging ---------------------------------------------------------------

/// Everything a checkpoint carries, grouped by section in file order.
/// save() gathers it from the live world; restore() parses it back,
/// validates it and only then installs it.
struct Staged {
  // SIMU
  std::int64_t nowUs = 0;
  std::uint64_t executed = 0;
  // NODS
  std::vector<NodeRecord> nodes;
  // ENGS
  core::MembershipEngineStats engine;
  // WHLS: the discovery, refresh and shuffle wheels.
  std::array<std::vector<SlotRecord>, 3> wheels;
  // SHFV + CHAN
  avmon::ShuffleService::SavedState shuffle;
  std::uint64_t wakeSeq = 0;
  // FEED
  core::CandidateFeed::SavedState feed;
  std::uint64_t sealSeq = 0;
  // NETW
  net::Network::SavedState network;
  // FALT
  fault::FaultInjector::SavedState fault;
  std::vector<AttackRecord> attacks;
  // AVMN
  avmon::AvmonSystem::SavedState avmon;
  TimerRecord avmonTimer;
  // SRNG
  std::array<std::uint64_t, 4> facadeRng{};
  // MRKV
  std::vector<std::uint64_t> markovCursors;
};

/// The Markov trace behind an optional fault-plan outage overlay, or null
/// for the other trace backends. `Model` is AvailabilityModel, const or
/// not; the result carries the same constness.
template <class Model>
auto* markovOf(Model& model) {
  constexpr bool kConst = std::is_const_v<Model>;
  using Overlay = std::conditional_t<kConst, const fault::OutageOverlayModel,
                                     fault::OutageOverlayModel>;
  using Markov = std::conditional_t<kConst, const trace::MarkovChurnModel,
                                    trace::MarkovChurnModel>;
  Model* m = &model;
  if (auto* ov = dynamic_cast<Overlay*>(m)) m = &ov->inner();
  return dynamic_cast<Markov*>(m);
}

// --- the table -------------------------------------------------------------

/// One section: its tag, whether a world of this configuration carries
/// it, and its layout, instantiated for both archives.
struct Section {
  using Present = bool (*)(const core::AvmemSimulation&);

  template <class Persist>
  constexpr Section(std::uint32_t tag, Present present, Persist persist)
      : tag(tag), present(present), write(persist), read(persist) {}

  std::uint32_t tag;
  Present present;
  void (*write)(Writer&, Staged&);
  void (*read)(Reader&, Staged&);
};

constexpr bool always(const core::AvmemSimulation&) { return true; }

/// MRKV holds caches only: a Markov world may restore without it.
inline constexpr std::uint32_t kMarkovTag = fourcc('M', 'R', 'K', 'V');

/// The format, section by section in file order. A reader skips tags it
/// does not know: appending a section is forward-compatible, changing an
/// existing section's layout bumps kFormatVersion.
inline constexpr Section kSections[] = {
    // SIMU: the clock and the executed-event count. Restoring `executed`
    // keeps the scale-sweep `events` column comparable across the restore
    // boundary (it is one of the thread-invariance keys).
    {fourcc('S', 'I', 'M', 'U'), always,
     [](auto& ar, Staged& s) { ar(s.nowUs, s.executed); }},
    // NODS: per-node protocol state, SoA sliver arrays raw.
    {fourcc('N', 'O', 'D', 'S'), always,
     [](auto& ar, Staged& s) { ar(s.nodes); }},
    // ENGS: engine counters.
    {fourcc('E', 'N', 'G', 'S'), always,
     [](auto& ar, Staged& s) { ar(s.engine); }},
    // WHLS: the three timing wheels' armed slots — fire times and
    // tie-break ranks only; slot *membership* is reproduced from RNG state
    // on restore and cross-checked against these records.
    {fourcc('W', 'H', 'L', 'S'), always,
     [](auto& ar, Staged& s) { ar(s.wheels); }},
    // SHFV: coarse views + rounds + stream seeds + the post-bootstrap RNG.
    // The channel is its own section.
    {fourcc('S', 'H', 'F', 'V'), always,
     [](auto& ar, Staged& s) {
       auto& [views, rounds, completedShuffles, planSeed, wireSeed, rngState,
              channel] = s.shuffle;
       ar(views, rounds, completedShuffles, planSeed, wireSeed, rngState);
     }},
    // CHAN: every in-flight shuffle leg (heap array order preserved — pops
    // depend on the layout), the arena, ack bookkeeping, the armed wake
    // (instant + tie-break rank) and the wire RNG.
    {fourcc('C', 'H', 'A', 'N'), always,
     [](auto& ar, Staged& s) {
       auto& [heap, arena, liveEntries, awaitingAck, nextSeq, nextOrder,
              scheduledWakeUs, rngState] = s.shuffle.channel;
       ar(heap, arena, liveEntries, awaitingAck, nextSeq, nextOrder,
          scheduledWakeUs, s.wakeSeq, rngState);
     }},
    // FEED: both directory sides + the seal timer (iff the feed exists).
    {fourcc('F', 'E', 'E', 'D'),
     [](const core::AvmemSimulation& sim) {
       return sim.candidateFeed() != nullptr;
     },
     [](auto& ar, Staged& s) {
       auto& [frozenBuckets, frozenPopulation, buildingBuckets,
              buildingPopulation, publishedInEpoch, sealedEpochs,
              sealNextFireAtUs] = s.feed;
       ar(frozenBuckets, frozenPopulation, buildingBuckets,
          buildingPopulation, publishedInEpoch, sealedEpochs,
          sealNextFireAtUs, s.sealSeq);
     }},
    // NETW: wire counters + the latency RNG.
    {fourcc('N', 'E', 'T', 'W'), always,
     [](auto& ar, Staged& s) {
       auto& [stats, rngState] = s.network;
       ar(stats, rngState);
     }},
    // FALT: the fault injector's counter streams, tallies, and attacker
    // campaign timers (iff a plan is active). The campaign itself is not
    // serialized — the config fingerprint already pins it. Each stage's
    // sweep count travels in its attack record.
    {fourcc('F', 'A', 'L', 'T'),
     [](const core::AvmemSimulation& sim) {
       return sim.faultInjector() != nullptr;
     },
     [](auto& ar, Staged& s) {
       auto& [wireSeq, stats, attackSweepsDone] = s.fault;
       ar(wireSeq, stats, s.attacks);
     }},
    // AVMN: the avmon overlay — fold cursor, ping accounting, epoch-task
    // timer, and the materialized counter cells (monitor lists are a pure
    // hash, rebuilt and cross-checked on restore).
    {fourcc('A', 'V', 'M', 'N'),
     [](const core::AvmemSimulation& sim) {
       return sim.avmonSystem() != nullptr;
     },
     [](auto& ar, Staged& s) {
       auto& [advancedEpochs, pings, cells] = s.avmon;
       ar(advancedEpochs, pings, s.avmonTimer, cells);
     }},
    // SRNG: the facade RNG (pickInitiator draws) — restoring it keeps
    // post-restore anycast batches identical to a straight-through run.
    {fourcc('S', 'R', 'N', 'G'), always,
     [](auto& ar, Staged& s) { ar(s.facadeRng); }},
    // MRKV: the Markov trace's per-host cursors. Pure caches — omitting
    // them changes no answer — but restoring them makes the first
    // post-restore epoch O(1) per host instead of a block replay.
    {kMarkovTag,
     [](const core::AvmemSimulation& sim) {
       return markovOf(sim.trace()) != nullptr;
     },
     [](auto& ar, Staged& s) { ar(s.markovCursors); }},
};

}  // namespace detail
}  // namespace avmem::snapshot
