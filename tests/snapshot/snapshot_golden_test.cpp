// Golden checkpoint fixtures: files written by an earlier build of the
// checkpoint code must restore, and re-save to the very same bytes.
//
// The roundtrip suite proves that a build agrees with itself; this suite
// proves that it agrees with the format as it was frozen on disk. Any
// change to a section's field order, width or presence rule (anything
// that should have bumped kFormatVersion) shows up as a failed restore or
// as the first differing byte of the re-save.
//
// The two fixtures together carry all twelve section tags:
//  * full.avmem  — 200-host scale world on the AVMON backend, with the
//    candidate feed, the Markov trace under an outage overlay, a fault
//    campaign whose loss and attack stages are running at the save
//    instant, and shuffle legs in flight;
//  * plain.avmem — 100-host world on the oracle backend with a dense
//    trace and no feed or campaign, so every optional section is absent.
//
// The fixtures are never regenerated as part of a normal build. After a
// deliberate format version bump, rewrite them by running
// avmem_snapshot_tests with --gtest_also_run_disabled_tests and
// --gtest_filter=SnapshotGoldenTest.DISABLED_WriteFixtures.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/checkpoint.hpp"

namespace avmem::snapshot {
namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

/// One fixture: its file name, the world it was saved from, and how long
/// that world warmed up before the save.
struct GoldenWorld {
  const char* file;
  SimulationConfig config;
  sim::SimDuration warmup;
};

SimulationConfig scaleConfig(std::uint32_t hosts, std::uint64_t seed) {
  core::Scenario s = core::makeScaleScenario(hosts, seed);
  s.config.checkpointIn.clear();
  s.config.checkpointOut.clear();
  s.config.faultPlan = {};
  s.config.faultPlanPath.clear();
  // A fast shuffle keeps legs in flight at the save instant.
  s.config.shuffle.period = sim::SimDuration::seconds(15);
  return s.config;
}

std::vector<GoldenWorld> goldenWorlds() {
  SimulationConfig full = scaleConfig(200, 41);
  full.backend = core::AvailabilityBackend::kAvmon;
  full.avmon.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  full.avmon.hashSeed = full.seed * 0x9E3779B97F4A7C15ull + 2;
  // Loss and attack run over [0.25 h, 0.6 h); the save lands at 24 min.
  full.faultPlan = fault::parseFaultPlanText(
      "seed = 99\n"
      "regions = 8\n"
      "[loss]\n"
      "from_h = 0.25\nto_h = 0.6\n"
      "drop = 0.25\nduplicate = 0.05\ndelay = 0.1\ndelay_max_ms = 150\n"
      "[outage]\n"
      "from_h = 0.3\nto_h = 0.55\nregion = 1\n"
      "[attack]\n"
      "from_h = 0.25\nto_h = 0.6\nperiod_s = 120\nkind = flooding\n");

  SimulationConfig plain = scaleConfig(100, 42);
  plain.traceBackend = core::TraceBackend::kDense;
  plain.candidateFeed.enabled = false;

  return {{"full.avmem", full, sim::SimDuration::minutes(24)},
          {"plain.avmem", plain, sim::SimDuration::minutes(17)}};
}

std::string fixturePath(const char* file) {
  return std::string(AVMEM_SNAPSHOT_FIXTURE_DIR) + "/" + file;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "missing fixture " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Section tags in file order (header: magic + version + fingerprint +
/// hosts + seed; frame: u32 id + u64 len + u32 crc).
std::vector<std::uint32_t> sectionTags(const std::string& bytes) {
  constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
  constexpr std::size_t kFrameBytes = 4 + 8 + 4;
  std::vector<std::uint32_t> tags;
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameBytes <= bytes.size()) {
    std::uint32_t id = 0;
    std::uint64_t len = 0;
    std::memcpy(&id, bytes.data() + pos, 4);
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    tags.push_back(id);
    pos += kFrameBytes + static_cast<std::size_t>(len);
  }
  return tags;
}

TEST(SnapshotGoldenTest, FixturesRestoreAndResaveByteIdentical) {
  std::set<std::uint32_t> seen;
  for (const GoldenWorld& world : goldenWorlds()) {
    SCOPED_TRACE(world.file);
    const std::string golden = readFile(fixturePath(world.file));
    ASSERT_FALSE(golden.empty());
    for (const std::uint32_t tag : sectionTags(golden)) seen.insert(tag);

    AvmemSimulation restored(world.config);
    std::istringstream in(golden, std::ios::binary);
    restored.restoreCheckpoint(in);
    std::ostringstream out(std::ios::binary);
    restored.saveCheckpoint(out);
    const std::string resaved = out.str();

    ASSERT_EQ(resaved.size(), golden.size());
    if (resaved != golden) {
      std::size_t at = 0;
      while (resaved[at] == golden[at]) ++at;
      FAIL() << "re-save differs from the fixture at byte " << at;
    }
  }
  const char* const kAllTags[] = {"SIMU", "NODS", "ENGS", "WHLS",
                                  "SHFV", "CHAN", "FEED", "NETW",
                                  "FALT", "AVMN", "SRNG", "MRKV"};
  for (const char* tag : kAllTags) {
    EXPECT_TRUE(seen.count(fourcc(tag[0], tag[1], tag[2], tag[3])) == 1)
        << "no fixture carries section " << tag;
  }
}

TEST(SnapshotGoldenTest, DISABLED_WriteFixtures) {
  for (const GoldenWorld& world : goldenWorlds()) {
    AvmemSimulation donor(world.config);
    donor.warmup(world.warmup);
    donor.saveCheckpoint(fixturePath(world.file));
  }
}

}  // namespace
}  // namespace avmem::snapshot
