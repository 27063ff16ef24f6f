// The checkpoint orchestrator: gathers every state owner's saveState into
// staging state and walks the section table (snapshot/sections.hpp) to
// frame it with snapshot_io; restore parses through the same table,
// validates, installs and re-arms. See checkpoint.hpp for the contract.
#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "snapshot/sections.hpp"

namespace avmem::snapshot {

namespace {

using core::AvmemSimulation;
using core::SimulationConfig;
using detail::AttackRecord;
using detail::kSections;
using detail::NodeRecord;
using detail::Section;
using detail::SlotRecord;
using detail::Staged;

// --- config fingerprint -----------------------------------------------------

/// SplitMix64-chained field mixer; the field ORDER below is part of the
/// format (reordering fields silently invalidates every old checkpoint, so
/// treat any change here like a version bump).
struct Mixer {
  std::uint64_t state = 0x243F6A8885A308D3ull;  // pi fractional bits

  void add(std::uint64_t v) noexcept {
    state ^= v;
    state = sim::splitMix64(state) ^ (v * 0x9E3779B97F4A7C15ull);
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  void add(sim::SimDuration d) noexcept {
    add(static_cast<std::uint64_t>(d.toMicros()));
  }

  [[nodiscard]] std::uint64_t result() noexcept {
    std::uint64_t s = state;
    return sim::splitMix64(s);
  }
};

// --- saved events -----------------------------------------------------------

std::vector<SlotRecord> collectWheel(const sim::Simulator& simlr,
                                     const sim::ShardedScheduler& wheel,
                                     const char* name) {
  std::vector<SlotRecord> recs;
  recs.reserve(wheel.activeShardCount());
  for (std::size_t s = 0; s < wheel.shardCount(); ++s) {
    const sim::PeriodicTask* task = wheel.slotTask(s);
    if (task == nullptr) continue;
    std::uint64_t seq = 0;
    if (!simlr.eventSeqOf(task->pendingHandle(), seq)) {
      throw CheckpointUnsupportedError(
          std::string("checkpoint: ") + name +
          " wheel slot timer is not live (mid-firing save?)");
    }
    recs.push_back({static_cast<std::uint32_t>(s),
                    task->nextFireAt().toMicros(), seq});
  }
  return recs;
}

/// Replace every saved event's raw queue seq with its dense rank in
/// (fireAt, rawSeq) order. The raw counters are run-history artifacts
/// (they keep growing over a run); ranks carry exactly the information
/// restore needs — the relative order of same-instant events — and make
/// serialization canonical: a restored world re-saves byte-identically,
/// because its fresh queue hands out seqs 0..k-1 in precisely this order
/// (the roundtrip property test pins this down).
void rankSavedEvents(std::vector<std::uint64_t*> seqs,
                     const std::vector<std::int64_t>& ats) {
  std::vector<std::size_t> idx(seqs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ats[a] != ats[b] ? ats[a] < ats[b] : *seqs[a] < *seqs[b];
  });
  std::vector<std::uint64_t> ranks(seqs.size());
  for (std::size_t r = 0; r < idx.size(); ++r) ranks[idx[r]] = r;
  for (std::size_t i = 0; i < seqs.size(); ++i) *seqs[i] = ranks[i];
}

/// Save-time gate: the format captures maintenance-quiescent worlds only.
/// Every live event must be one of the known re-armable owners; anything
/// else (an anycast timeout, a multicast horizon, a test's ad-hoc timer)
/// cannot be reconstructed from state and must fail loudly.
void verifyEventAccounting(const sim::Simulator& simulator,
                           const core::MembershipEngine& engine,
                           const avmon::ShuffleService& shuffle,
                           bool hasFeed, std::size_t attackTimers,
                           bool avmonTask) {
  std::size_t accounted = engine.discoveryScheduler().activeShardCount() +
                          engine.refreshScheduler().activeShardCount() +
                          shuffle.scheduler().activeShardCount();
  if (shuffle.channel().scheduledWakeMicros() !=
      net::ShuffleChannel::kNoWakeSaved) {
    ++accounted;
  }
  if (hasFeed) ++accounted;  // the periodic seal task
  accounted += attackTimers;  // running attacker-campaign timers (FALT)
  if (avmonTask) ++accounted;  // the AVMON epoch-fold timer (AVMN)
  const std::size_t live = simulator.liveEventCount();
  if (live != accounted) {
    throw CheckpointUnsupportedError(
        "checkpoint: " + std::to_string(live) + " live events but only " +
        std::to_string(accounted) +
        " accounted maintenance timers — an unfinished management "
        "operation (anycast/multicast) cannot be checkpointed");
  }
}

/// Tie-break seq of a pending event, required live.
std::uint64_t liveSeqOf(const sim::Simulator& simulator,
                        const sim::EventHandle& h, const char* what) {
  std::uint64_t seq = 0;
  if (!simulator.eventSeqOf(h, seq)) {
    throw CheckpointUnsupportedError(
        std::string("checkpoint: ") + what + " event is not live");
  }
  return seq;
}

/// One deferred re-arm, executed in ascending (fireAt, savedSeq) order so
/// the fresh event queue reproduces every same-instant tie outcome.
struct ArmRequest {
  std::int64_t atUs = 0;
  std::uint64_t savedSeq = 0;
  std::function<void()> arm;
};

/// A section tag as its four characters, for error messages.
std::string tagName(std::uint32_t tag) {
  return std::string(reinterpret_cast<const char*>(&tag), sizeof(tag));
}

void require(bool ok, const char* what) {
  if (!ok) throw CheckpointFormatError(std::string("checkpoint: ") + what);
}

/// Restore-side checks on the parsed staging state, run before anything
/// is installed: every node index in range, every arena span inside the
/// arena, every table sized to its owner. Scans each saved AVMON cell's
/// monitor set once and returns the lists for installation.
std::vector<std::vector<net::NodeIndex>> validate(
    const Staged& s, const AvmemSimulation& sim, std::size_t attackStages,
    bool haveMarkov) {
  const std::size_t n = sim.nodeCount();
  const auto inRange = [n](std::span<const net::NodeIndex> ids) {
    return std::all_of(ids.begin(), ids.end(),
                       [n](net::NodeIndex i) { return i < n; });
  };

  require(s.nodes.size() == n, "node count does not match the population");
  for (const NodeRecord& r : s.nodes) {
    require(inRange(r.hs.peers()) && inRange(r.vs.peers()),
            "sliver peer out of range");
  }

  require(s.shuffle.views.size() == n && s.shuffle.rounds.size() == n,
          "shuffle views do not match the population");
  for (const auto& view : s.shuffle.views) {
    require(inRange(view), "view entry out of range");
  }
  const net::ShuffleChannel::SavedState& ch = s.shuffle.channel;
  require(inRange(ch.arena), "channel arena entry out of range");
  for (const net::ShuffleMsg& m : ch.heap) {
    require(m.kind <= net::ShuffleMsg::Kind::kTimeout,
            "unknown channel message kind");
    require(m.src < n && m.dst < n, "channel endpoint out of range");
    require(std::uint64_t{m.payloadOffset} + m.payloadCount <=
                    ch.arena.size() &&
                std::uint64_t{m.echoOffset} + m.echoCount <= ch.arena.size(),
            "channel message span runs past the arena");
  }

  if (const core::CandidateFeed* feed = sim.candidateFeed()) {
    require(s.feed.frozenBuckets.size() == feed->bucketCount() &&
                s.feed.buildingBuckets.size() == feed->bucketCount(),
            "feed bucket count mismatch");
    for (const auto* side : {&s.feed.frozenBuckets, &s.feed.buildingBuckets}) {
      for (const auto& bucket : *side) {
        require(inRange(bucket), "feed bucket entry out of range");
      }
    }
    require(s.feed.publishedInEpoch.size() == n, "feed population mismatch");
  }

  if (sim.faultInjector() != nullptr) {
    require(s.attacks.size() == attackStages, "attack stage count mismatch");
  }

  if (haveMarkov) {
    require(s.markovCursors.size() ==
                detail::markovOf(sim.trace())->hostCount(),
            "Markov cursor count does not match the trace");
  }

  std::vector<std::vector<net::NodeIndex>> monitors;
  if (const avmon::AvmonSystem* avmon = sim.avmonSystem()) {
    const auto& cells = s.avmon.cells;
    monitors.resize(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      require(cells[i].target < n &&
                  (i == 0 || cells[i].target > cells[i - 1].target),
              "avmon cell targets must ascend within the population");
      avmon->scanMonitors(cells[i].target, monitors[i]);
      require(cells[i].samples.size() == monitors[i].size() &&
                  cells[i].up.size() == monitors[i].size(),
              "avmon cell counters do not match its monitor set (taken "
              "under a different monitor relation?)");
    }
  }
  return monitors;
}

}  // namespace

std::uint64_t configFingerprint(const SimulationConfig& config) {
  Mixer m;
  // Trace generator / model parameters.
  const trace::OvernetTraceConfig& t = config.trace;
  m.add(static_cast<std::uint64_t>(t.hosts));
  m.add(static_cast<std::uint64_t>(t.epochs));
  m.add(t.epochDuration);
  m.add(t.seed);
  m.add(t.lowWeight);
  m.add(t.lowMin);
  m.add(t.lowMax);
  m.add(t.midWeight);
  m.add(t.midMin);
  m.add(t.midMax);
  m.add(t.highWeight);
  m.add(t.highMin);
  m.add(t.highMax);
  m.add(t.serverWeight);
  m.add(t.serverMin);
  m.add(t.serverMax);
  m.add(t.meanSessionEpochs);
  m.add(t.diurnalAmplitude);
  // Protocol.
  const core::ProtocolConfig& p = config.protocol;
  m.add(p.epsilon);
  m.add(p.c1);
  m.add(p.c2);
  m.add(p.discoveryPeriod);
  m.add(p.refreshPeriod);
  m.add(p.cushion);
  m.add(static_cast<std::uint64_t>(p.hashAlgorithm));
  m.add(p.hashSeed);
  // Shuffle substrate.
  const avmon::ShuffleConfig& sh = config.shuffle;
  m.add(static_cast<std::uint64_t>(sh.viewSize));
  m.add(static_cast<std::uint64_t>(sh.gossipLength));
  m.add(sh.period);
  m.add(static_cast<std::uint64_t>(sh.shards));
  m.add(sh.ackTimeout);
  m.add(sh.deliveryQuantum);
  // Backend selection and parameters.
  m.add(static_cast<std::uint64_t>(config.backend));
  m.add(config.noisyMaxError);
  m.add(config.noisyStaleness);
  m.add(config.agedAlpha);
  m.add(config.centralSnapshotPeriod);
  m.add(config.avmon.expectedMonitorsPerTarget);
  m.add(static_cast<std::uint64_t>(config.avmon.hashAlgorithm));
  m.add(config.avmon.hashSeed);
  m.add(static_cast<std::uint64_t>(config.traceBackend));
  m.add(static_cast<std::uint64_t>(config.predicate));
  m.add(config.randomOverlayP);
  // Candidate feed.
  const core::CandidateFeedConfig& f = config.candidateFeed;
  m.add(static_cast<std::uint64_t>(f.enabled ? 1 : 0));
  m.add(static_cast<std::uint64_t>(f.buckets));
  m.add(static_cast<std::uint64_t>(f.horizontalScanBudget));
  m.add(static_cast<std::uint64_t>(f.verticalScanBudget));
  m.add(static_cast<std::uint64_t>(f.maxCandidates));
  m.add(f.thresholdSlack);
  m.add(f.epochPeriod);
  // Remaining result-determining knobs. maintenanceThreads and the
  // checkpoint paths are deliberately absent: a checkpoint restores at
  // any thread count.
  m.add(static_cast<std::uint64_t>(config.useCoarseViewOverlay ? 1 : 0));
  m.add(static_cast<std::uint64_t>(config.pdfBins));
  m.add(config.seed);
  m.add(static_cast<std::uint64_t>(config.maintenanceShards));
  // The fault campaign is world state — a mid-campaign checkpoint only
  // restores into the same campaign. faultPlanPath is I/O plumbing and
  // stays excluded (the *parsed contents* are what matter); an empty
  // plan fingerprints to 0, keeping faultless checkpoints stable.
  m.add(config.faultPlan.fingerprint());
  return m.result();
}

// --- save -------------------------------------------------------------------

void CheckpointAccess::save(const AvmemSimulation& sim, std::ostream& out) {
  if (!sim.started_) {
    throw CheckpointUnsupportedError(
        "checkpoint: system not started (nothing warm to save)");
  }
  if (sim.config_.backend == core::AvailabilityBackend::kAged ||
      sim.config_.backend == core::AvailabilityBackend::kCentral) {
    throw CheckpointUnsupportedError(
        "checkpoint: the aged and central availability backends hold "
        "per-query estimator state the format does not capture (the avmon "
        "overlay checkpoints via its AVMN section as of v3)");
  }
  std::size_t runningAttackTimers = 0;
  for (const auto& task : sim.attackTasks_) {
    if (task->running()) ++runningAttackTimers;
  }
  const bool avmonTaskRunning = sim.avmonSystem_ != nullptr &&
                                sim.avmonSystem_->epochTask().running();
  verifyEventAccounting(*sim.sim_, *sim.engine_, *sim.shuffle_,
                        sim.feed_ != nullptr, runningAttackTimers,
                        avmonTaskRunning);

  // Gather every owner's state, and every saved event's (fire time, raw
  // queue seq).
  Staged s;
  s.nowUs = sim.sim_->now().toMicros();
  s.executed = sim.sim_->executedEvents();
  s.nodes.reserve(sim.nodes_.size());
  for (const core::AvmemNode& node : sim.nodes_) {
    s.nodes.push_back({node.selfAvailability(), node.stats(),
                       node.horizontalSliver(), node.verticalSliver()});
  }
  s.engine = sim.engine_->stats();
  s.wheels = {
      collectWheel(*sim.sim_, sim.engine_->discoveryScheduler(), "discovery"),
      collectWheel(*sim.sim_, sim.engine_->refreshScheduler(), "refresh"),
      collectWheel(*sim.sim_, sim.shuffle_->scheduler(), "shuffle")};
  s.shuffle = sim.shuffle_->saveState();
  const bool haveWake = s.shuffle.channel.scheduledWakeUs !=
                        net::ShuffleChannel::kNoWakeSaved;
  if (haveWake) {
    s.wakeSeq = liveSeqOf(*sim.sim_, sim.shuffle_->channel().wakeHandle(),
                          "channel wake");
  }
  if (sim.feed_ != nullptr) {
    s.feed = sim.feed_->saveState();
    s.sealSeq = liveSeqOf(*sim.sim_, sim.feed_->sealTask().pendingHandle(),
                          "feed seal");
  }
  s.network = sim.network_->saveState();
  if (sim.fault_ != nullptr) {
    s.fault = sim.fault_->saveState();
    s.attacks.resize(sim.attackTasks_.size());
    for (std::size_t i = 0; i < sim.attackTasks_.size(); ++i) {
      AttackRecord& rec = s.attacks[i];
      rec.sweepsDone = s.fault.attackSweepsDone[i];
      const sim::PeriodicTask& task = *sim.attackTasks_[i];
      if (task.running()) {
        rec.timer = {1, task.nextFireAt().toMicros(),
                     liveSeqOf(*sim.sim_, task.pendingHandle(),
                               "attack campaign")};
      }
    }
  }
  if (sim.avmonSystem_ != nullptr) {
    s.avmon = sim.avmonSystem_->saveState();
    if (avmonTaskRunning) {
      const sim::PeriodicTask& task = sim.avmonSystem_->epochTask();
      s.avmonTimer = {1, task.nextFireAt().toMicros(),
                      liveSeqOf(*sim.sim_, task.pendingHandle(),
                                "avmon epoch fold")};
    }
  }
  s.facadeRng = sim.rng_.saveState();
  if (const auto* markov = detail::markovOf(sim.trace())) {
    s.markovCursors = markov->saveCursors();
  }

  // Normalize the raw seqs to dense ranks so the file is canonical (see
  // rankSavedEvents).
  {
    std::vector<std::uint64_t*> seqs;
    std::vector<std::int64_t> ats;
    const auto add = [&](std::uint64_t& seq, std::int64_t at) {
      seqs.push_back(&seq);
      ats.push_back(at);
    };
    for (auto& wheel : s.wheels) {
      for (SlotRecord& r : wheel) add(r.seq, r.fireAtUs);
    }
    if (haveWake) add(s.wakeSeq, s.shuffle.channel.scheduledWakeUs);
    if (sim.feed_ != nullptr) add(s.sealSeq, s.feed.sealNextFireAtUs);
    for (AttackRecord& rec : s.attacks) {
      if (rec.timer.running != 0) add(rec.timer.seq, rec.timer.fireAtUs);
    }
    if (avmonTaskRunning) add(s.avmonTimer.seq, s.avmonTimer.fireAtUs);
    rankSavedEvents(std::move(seqs), ats);
  }

  CheckpointWriter writer(out);
  FileHeader header;
  header.version = kFormatVersion;
  header.fingerprint = configFingerprint(sim.config_);
  header.hosts = sim.nodes_.size();
  header.seed = sim.config_.seed;
  writer.writeHeader(header);

  SectionWriter sec;
  detail::Writer ar(sec);
  for (const Section& section : kSections) {
    if (!section.present(sim)) continue;
    sec.clear();
    section.write(ar, s);
    writer.writeSection(section.tag, sec);
  }
  writer.finish();
}

// --- restore ----------------------------------------------------------------

void CheckpointAccess::restore(AvmemSimulation& sim, std::istream& in) {
  if (sim.started_ || sim.sim_->pendingEvents() != 0) {
    throw CheckpointUnsupportedError(
        "checkpoint: restore requires a freshly-constructed system");
  }

  CheckpointReader reader(in);
  const FileHeader& header = reader.header();
  if (header.fingerprint != configFingerprint(sim.config_)) {
    throw CheckpointConfigError(
        "checkpoint: config fingerprint mismatch — the checkpoint was "
        "taken under a different configuration (thread count aside, every "
        "knob must match)");
  }
  const std::size_t n = sim.nodes_.size();
  if (header.hosts != n) {
    throw CheckpointConfigError("checkpoint: population mismatch");
  }

  // --- parse every known section into staging state ---

  Staged s;
  std::array<bool, std::size(kSections)> seen{};
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;
  while (reader.nextSection(id, payload)) {
    const Section* section =
        std::find_if(std::begin(kSections), std::end(kSections),
                     [id](const Section& sec) { return sec.tag == id; });
    if (section == std::end(kSections)) continue;  // unknown: skip
    bool& once = seen[static_cast<std::size_t>(section - kSections)];
    if (once) {
      throw CheckpointFormatError("checkpoint: duplicate " + tagName(id) +
                                  " section");
    }
    once = true;
    Cursor cur(payload.data(), payload.size());
    detail::Reader ar(cur);
    section->read(ar, s);
    if (!cur.atEnd()) {
      throw CheckpointFormatError("checkpoint: trailing bytes in the " +
                                  tagName(id) + " section");
    }
  }
  bool haveMarkov = false;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    const Section& section = kSections[i];
    if (section.tag == detail::kMarkovTag) haveMarkov = seen[i];
    if (seen[i] == section.present(sim) ||
        (section.tag == detail::kMarkovTag && !seen[i])) {
      continue;
    }
    throw CheckpointFormatError(
        "checkpoint: " + tagName(section.tag) +
        (seen[i] ? " section saved, but this configuration has no such state"
                 : " section missing"));
  }
  const std::vector<std::vector<net::NodeIndex>> monitors =
      validate(s, sim, sim.attackTasks_.size(), haveMarkov);

  // --- install state (no events scheduled yet) ---

  sim.started_ = true;
  sim.sim_->restoreClock(sim::SimTime::micros(s.nowUs), s.executed);

  for (std::size_t i = 0; i < n; ++i) {
    NodeRecord& r = s.nodes[i];
    sim.nodes_[i].restoreState(r.selfAv, std::move(r.hs), std::move(r.vs),
                               r.stats);
  }

  sim.engine_->prepareResume();
  sim.engine_->restoreStats(s.engine);
  const std::int64_t sealFireAtUs = s.feed.sealNextFireAtUs;
  sim.shuffle_->restoreState(std::move(s.shuffle));
  if (sim.feed_ != nullptr) sim.feed_->restoreState(std::move(s.feed));
  sim.network_->restoreState(s.network);
  sim.rng_ = sim::Rng::fromState(s.facadeRng);
  if (sim.fault_ != nullptr) {
    s.fault.attackSweepsDone.clear();
    for (const AttackRecord& rec : s.attacks) {
      s.fault.attackSweepsDone.push_back(rec.sweepsDone);
    }
    sim.fault_->restoreState(s.fault);
  }
  if (sim.avmonSystem_ != nullptr) {
    sim.avmonSystem_->restoreState(s.avmon, monitors);
  }
  if (haveMarkov) {
    detail::markovOf(*sim.trace_)->restoreCursors(s.markovCursors);
  }

  // --- re-arm every saved event in (fireAt, saved tie-break seq) order ---
  //
  // The fresh queue assigns seqs 0..k-1 in arming order, so sorting by the
  // saved keys reproduces every same-instant tie outcome; events scheduled
  // after the restore sort behind all of these, exactly as events
  // scheduled after time T sorted behind the then-pending set in the
  // straight-through run.

  std::vector<ArmRequest> arms;
  auto armWheel = [&](sim::ShardedScheduler& wheel,
                      const std::vector<SlotRecord>& recs, const char* name) {
    if (recs.size() != wheel.activeShardCount()) {
      throw CheckpointFormatError(
          std::string("checkpoint: ") + name +
          " wheel armed-slot count does not match the rebuilt wheel "
          "(slot assignment failed to reproduce)");
    }
    for (const SlotRecord& rec : recs) {
      if (rec.slot >= wheel.shardCount() ||
          wheel.slotTask(rec.slot) == nullptr) {
        throw CheckpointFormatError(
            std::string("checkpoint: ") + name +
            " wheel slot assignment mismatch");
      }
      arms.push_back({rec.fireAtUs, rec.seq,
                      [&wheel, slot = rec.slot, at = rec.fireAtUs] {
                        wheel.armSlot(slot, sim::SimTime::micros(at));
                      }});
    }
  };
  armWheel(sim.engine_->discoveryWheel(), s.wheels[0], "discovery");
  armWheel(sim.engine_->refreshWheel(), s.wheels[1], "refresh");
  armWheel(sim.shuffle_->wheel(), s.wheels[2], "shuffle");

  net::ShuffleChannel& channel = sim.shuffle_->channel();
  if (channel.scheduledWakeMicros() != net::ShuffleChannel::kNoWakeSaved) {
    arms.push_back({channel.scheduledWakeMicros(), s.wakeSeq,
                    [&channel] { channel.armWake(); }});
  }
  if (sim.feed_ != nullptr) {
    arms.push_back(
        {sealFireAtUs, s.sealSeq, [&sim, sealFireAtUs] {
           sim.feed_->armSeal(*sim.sim_,
                              sim.config_.protocol.discoveryPeriod,
                              sim::SimTime::micros(sealFireAtUs));
         }});
  }
  for (std::size_t i = 0; i < s.attacks.size(); ++i) {
    const detail::TimerRecord& timer = s.attacks[i].timer;
    if (timer.running == 0) continue;  // stage window already closed
    arms.push_back(
        {timer.fireAtUs, timer.seq, [&sim, i, at = timer.fireAtUs] {
           sim.attackTasks_[i]->start(
               *sim.sim_, sim::SimTime::micros(at),
               sim::SimDuration::micros(
                   sim.config_.faultPlan.attacks[i].periodUs),
               [simPtr = &sim, i] { simPtr->fireAttackStage(i); });
         }});
  }

  if (s.avmonTimer.running != 0) {
    arms.push_back({s.avmonTimer.fireAtUs, s.avmonTimer.seq,
                    [&sim, at = s.avmonTimer.fireAtUs] {
                      // start() recomputes the next boundary from the
                      // restored fold cursor; it must land exactly where
                      // the saved timer was armed.
                      sim.avmonSystem_->start();
                      const sim::PeriodicTask& task =
                          sim.avmonSystem_->epochTask();
                      if (!task.running() ||
                          task.nextFireAt().toMicros() != at) {
                        throw CheckpointFormatError(
                            "checkpoint avmon: epoch-task re-arm landed at "
                            "a different instant than the saved timer");
                      }
                    }});
  }

  std::sort(arms.begin(), arms.end(),
            [](const ArmRequest& a, const ArmRequest& b) {
              return a.atUs != b.atUs ? a.atUs < b.atUs
                                      : a.savedSeq < b.savedSeq;
            });
  for (const ArmRequest& req : arms) req.arm();
}

}  // namespace avmem::snapshot

// --- facade entry points ----------------------------------------------------

namespace avmem::core {

void AvmemSimulation::saveCheckpoint(std::ostream& out) const {
  snapshot::CheckpointAccess::save(*this, out);
}

void AvmemSimulation::saveCheckpoint(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw snapshot::CheckpointIoError(
        "cannot open checkpoint for writing: " + path);
  }
  saveCheckpoint(static_cast<std::ostream&>(out));
  out.close();
  if (!out) {
    throw snapshot::CheckpointIoError("checkpoint close failed: " + path);
  }
}

void AvmemSimulation::restoreCheckpoint(std::istream& in) {
  snapshot::CheckpointAccess::restore(*this, in);
}

void AvmemSimulation::restoreCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw snapshot::CheckpointIoError("cannot open checkpoint: " + path);
  }
  restoreCheckpoint(static_cast<std::istream&>(in));
}

}  // namespace avmem::core
