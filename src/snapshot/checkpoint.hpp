// Warm-state checkpoint/restore of a converged AVMEM world.
//
// A scale experiment spends most of its wall-clock warming up: hours of
// simulated maintenance before the overlay the paper's theorems describe
// exists. This subsystem serializes the *complete* warm state — SliverList
// arrays, coarse views, in-flight shuffle legs (heap + arena), the
// candidate-feed double-buffered directory, Markov trace cursors, every
// mutated RNG, and the scheduler/event-queue state (wheel slot timers, the
// channel wake, the feed seal, sim clock, executed-event count) — so a run
// can resume from sim-time T instead of re-simulating to it.
//
// The correctness contract is strict: restoring a checkpoint taken at T
// and running to T + delta is BIT-IDENTICAL (view digest, sliver digests,
// engine/wire stats, anycast outcomes) to running straight through — at
// any thread count (tests/core/parallel_engine_test.cpp
// RestoreEqualsRunThrough; the CI
// checkpoint job diffs scale-sweep JSON across the boundary).
//
// How event-queue state survives (the part a naive design gets wrong):
// std::function callbacks cannot serialize, so the checkpoint instead
// captures *reconstructible* state and re-arms. Save verifies that every
// live event is accounted for by a known owner (wheel slots, the channel
// wake, the feed seal) and refuses otherwise — a mid-anycast world throws
// CheckpointUnsupportedError rather than snapshotting partially. Restore
// installs all owner state without scheduling, then arms the saved events
// in ascending (fire-time, saved tie-break seq) order: the fresh queue
// assigns them seqs 0..k-1, preserving every same-instant tie outcome,
// and anything scheduled afterwards sorts behind them exactly as it would
// have in the original run. Wheel slot *assignment* is never serialized —
// it is a pure function of the saved jitter RNG state, so prepare-style
// restarts reproduce it and the writer's per-slot records are
// cross-checked against the rebuilt wheels (mismatch = format error).
//
// The byte layout is snapshot/sections.hpp: each section's fields listed
// once, in one persist function that save and restore both run. Restore
// parses every section into staging state and validates all of it (node
// indices, arena spans, table sizes, AVMON monitor sets) before it
// installs anything, so a rejected file leaves the target untouched.
//
// What is deliberately NOT saved (and why that is sound):
//  * the anycast/multicast engines' RNGs — checkpoints are taken at
//    maintenance-only instants (the save-side accounting enforces it), so
//    both are pristine, exactly as in a fresh build;
//  * MembershipEngine's jitter RNG — never advanced; forks are pure.
//
// Config compatibility: the header carries a fingerprint over every
// result-determining config field. maintenanceThreads is excluded —
// restore at any thread count — as are the checkpoint paths themselves.
// A mismatch throws CheckpointConfigError instead of silently computing
// something else.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "snapshot/snapshot_io.hpp"

namespace avmem::core {
struct SimulationConfig;
class AvmemSimulation;
}  // namespace avmem::core

namespace avmem::snapshot {

/// 64-bit fingerprint over every config field that determines simulation
/// results, in a fixed field order. Exclusions (thread count, checkpoint
/// paths) are the fields a restore is allowed to vary.
[[nodiscard]] std::uint64_t configFingerprint(
    const core::SimulationConfig& config);

/// The single seam through AvmemSimulation's internals (declared friend
/// there). AvmemSimulation::saveCheckpoint/restoreCheckpoint delegate
/// here; tests drive those facade methods, not this struct.
struct CheckpointAccess {
  static void save(const core::AvmemSimulation& sim, std::ostream& out);
  static void restore(core::AvmemSimulation& sim, std::istream& in);
};

}  // namespace avmem::snapshot
