// Pinned config fingerprints for every registry scenario.
//
// A checkpoint restores only into a world whose configFingerprint()
// matches its header, and the fingerprint hashes enumerator values and a
// fixed sequence of field slots. Renumbering an enumerator or dropping a
// slot silently orphans every checkpoint of the worlds it touches, and
// the golden fixtures cover only two of them. The values below were
// recorded from the v3 format's fingerprint and must never move; a
// deliberate change is a format version bump.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "snapshot/checkpoint.hpp"

namespace avmem::snapshot {
namespace {

const std::map<std::string, std::uint64_t> kRecorded = {
    {"chaos-loss", 0xE85431E1DB9850D0ull},
    {"chaos-outage", 0x1CB688D21D9D9DE1ull},
    {"chaos-storm", 0x391D4F4498F7B871ull},
    {"coarse-view-baseline", 0xC4586175BED7DC62ull},
    {"noisy-verification", 0x9A9D4960C3FBA2C8ull},
    {"oracle-small", 0x157652A50D40FCF5ull},
    {"paper-default", 0x7BD4DB3C9188983Eull},
    {"random-overlay", 0x5379180A34D1CCC3ull},
    {"scale-100k", 0xDD52E6B8F166CD3Bull},
    {"scale-10k", 0x5EEF3BA91D1F74B8ull},
    {"scale-1m", 0x913DBA387F5E6E30ull},
    {"scale-avmon-100k", 0x2AA682DA9A5D1BB4ull},
    {"scale-avmon-1m", 0xBDACF7A8673DB6F7ull},
};

TEST(ConfigFingerprintTest, RegistryScenariosMatchRecordedValues) {
  for (const auto& [name, fingerprint] : kRecorded) {
    EXPECT_EQ(configFingerprint(core::makeScenario(name).config),
              fingerprint)
        << name;
  }
}

TEST(ConfigFingerprintTest, EveryRegisteredScenarioIsPinned) {
  // A new built-in scenario gets its fingerprint recorded above.
  std::vector<std::string> pinned;
  for (const auto& entry : kRecorded) pinned.push_back(entry.first);
  EXPECT_EQ(core::ScenarioRegistry::global().names(), pinned);
}

}  // namespace
}  // namespace avmem::snapshot
