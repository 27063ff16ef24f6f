// Hostile-input hardening: a checkpoint that is truncated, bit-flipped,
// version-skewed, config-skewed, or structurally lying must produce the
// matching typed CheckpointError — never UB, never a silent partial
// restore, never an attacker-sized allocation. CI runs this suite under
// AddressSanitizer, so any out-of-bounds parse the assertions miss still
// fails the job.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "snapshot/checkpoint.hpp"

namespace avmem::snapshot {
namespace {

using core::AvmemSimulation;
using core::Scenario;

/// Fixed byte layout of the file header (magic + version + fingerprint +
/// hosts + seed) — the offsets the mutation helpers below patch.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8;
constexpr std::size_t kVersionOffset = 8;
/// Per-section frame: u32 id + u64 len + u32 crc.
constexpr std::size_t kFrameBytes = 4 + 8 + 4;

Scenario donorScenario() {
  Scenario s = core::makeScaleScenario(250, /*seed=*/3);
  // A fast shuffle keeps legs in flight at the save instant, so the CHAN
  // section is non-trivial.
  s.config.shuffle.period = sim::SimDuration::seconds(15);
  return s;
}

/// One valid warm checkpoint, produced once and shared by every mutation
/// test (saving is the expensive part).
const std::string& goodBytes() {
  static const std::string bytes = [] {
    AvmemSimulation donor(donorScenario().config);
    donor.warmup(sim::SimDuration::minutes(10));
    std::ostringstream out(std::ios::binary);
    donor.saveCheckpoint(out);
    return out.str();
  }();
  return bytes;
}

void expectRestoreThrows(const std::string& bytes,
                         void (*check)(const CheckpointError&),
                         const Scenario& scenario = donorScenario()) {
  AvmemSimulation victim(scenario.config);
  std::istringstream in(bytes, std::ios::binary);
  try {
    victim.restoreCheckpoint(in);
    FAIL() << "restore accepted hostile input";
  } catch (const CheckpointError& e) {
    check(e);
  }
  // A rejected restore must leave the system unstarted and event-free —
  // usable for a later, valid restore.
  EXPECT_EQ(victim.membershipEngine().stats().discoveryRounds, 0u);
}

template <typename Expected>
void expectRestoreError(const std::string& bytes,
                        const Scenario& scenario = donorScenario()) {
  expectRestoreThrows(
      bytes,
      [](const CheckpointError& e) {
        EXPECT_NE(dynamic_cast<const Expected*>(&e), nullptr)
            << "wrong error type: " << e.what();
      },
      scenario);
}

/// A section frame located inside the raw byte string.
struct FrameRef {
  std::uint32_t id = 0;
  std::size_t frameStart = 0;
  std::size_t payloadStart = 0;
  std::size_t payloadLen = 0;
};

std::vector<FrameRef> walkFrames(const std::string& bytes) {
  std::vector<FrameRef> frames;
  std::size_t pos = kHeaderBytes;
  while (pos + kFrameBytes <= bytes.size()) {
    FrameRef f;
    f.frameStart = pos;
    std::memcpy(&f.id, bytes.data() + pos, 4);
    std::uint64_t len = 0;
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    f.payloadStart = pos + kFrameBytes;
    f.payloadLen = static_cast<std::size_t>(len);
    frames.push_back(f);
    pos = f.payloadStart + f.payloadLen;
  }
  return frames;
}

/// Reassemble a file from (possibly mutated) section payloads with
/// correct CRCs — for attacks that must get PAST the checksum.
std::string reframe(const std::string& header,
                    const std::vector<std::pair<std::uint32_t, std::string>>&
                        sections) {
  std::string out = header;
  for (const auto& [id, payload] : sections) {
    const std::uint64_t len = payload.size();
    const std::uint32_t crc = crc32(
        reinterpret_cast<const std::uint8_t*>(payload.data()),
        payload.size());
    out.append(reinterpret_cast<const char*>(&id), 4);
    out.append(reinterpret_cast<const char*>(&len), 8);
    out.append(reinterpret_cast<const char*>(&crc), 4);
    out.append(payload);
  }
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> sectionsOf(
    const std::string& bytes) {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  for (const FrameRef& f : walkFrames(bytes)) {
    out.emplace_back(f.id,
                     bytes.substr(f.payloadStart, f.payloadLen));
  }
  return out;
}

/// The donor world on the AVMON backend, so the file carries AVMN.
Scenario avmonDonorScenario() {
  Scenario s = donorScenario();
  s.config.backend = core::AvailabilityBackend::kAvmon;
  s.config.avmon.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  return s;
}

const std::string& avmonGoodBytes() {
  static const std::string bytes = [] {
    AvmemSimulation donor(avmonDonorScenario().config);
    donor.warmup(sim::SimDuration::minutes(10));
    std::ostringstream out(std::ios::binary);
    donor.saveCheckpoint(out);
    return out.str();
  }();
  return bytes;
}

template <typename T>
T peek(const std::string& payload, std::size_t at) {
  T v{};
  std::memcpy(&v, payload.data() + at, sizeof(T));
  return v;
}

template <typename T>
void poke(std::string& payload, std::size_t at, T v) {
  std::memcpy(payload.data() + at, &v, sizeof(T));
}

/// `bytes` with section `tag`'s payload passed through `edit`, reframed
/// with a valid CRC so the attack gets past the checksum.
template <typename Edit>
std::string withSection(const std::string& bytes, const char* tag,
                        Edit edit) {
  const std::uint32_t id = fourcc(tag[0], tag[1], tag[2], tag[3]);
  auto sections = sectionsOf(bytes);
  bool found = false;
  for (auto& [sid, payload] : sections) {
    if (sid != id) continue;
    edit(payload);
    found = true;
  }
  EXPECT_TRUE(found) << "donor has no " << tag << " section";
  return reframe(bytes.substr(0, kHeaderBytes), sections);
}

/// Offset of the first entry of a u64-counted list of raw u32 arrays (the
/// SHFV views, each FEED bucket side).
std::size_t firstNestedEntry(const std::string& payload) {
  const auto count = peek<std::uint64_t>(payload, 0);
  std::size_t pos = 8;
  for (std::uint64_t i = 0; i < count; ++i, pos += 8) {
    if (peek<std::uint64_t>(payload, pos) > 0) return pos + 8;
  }
  ADD_FAILURE() << "every array is empty";
  return 0;
}

/// Offset of the first sliver peer in a NODS payload: per node an f64 and
/// eight u64 counters, then two slivers of four raw arrays each.
std::size_t firstSliverPeer(const std::string& nods) {
  const auto count = peek<std::uint64_t>(nods, 0);
  std::size_t pos = 8;
  for (std::uint64_t node = 0; node < count; ++node) {
    pos += 8 + 8 * 8;
    for (int sliver = 0; sliver < 2; ++sliver, pos += 4 * 8) {
      if (peek<std::uint64_t>(nods, pos) > 0) return pos + 8;
    }
  }
  ADD_FAILURE() << "every sliver is empty";
  return 0;
}

TEST(SnapshotHostileTest, EmptyAndGarbageStreams) {
  expectRestoreError<CheckpointFormatError>("");
  expectRestoreError<CheckpointFormatError>("short");
  expectRestoreError<CheckpointFormatError>(
      std::string(1024, '\x5a'));  // plausible length, wrong magic
}

TEST(SnapshotHostileTest, BadMagic) {
  std::string bytes = goodBytes();
  bytes[0] ^= 0x01;
  expectRestoreError<CheckpointFormatError>(bytes);
}

TEST(SnapshotHostileTest, VersionSkew) {
  std::string bytes = goodBytes();
  const std::uint32_t future = kFormatVersion + 7;
  std::memcpy(bytes.data() + kVersionOffset, &future, 4);
  expectRestoreError<CheckpointVersionError>(bytes);
}

TEST(SnapshotHostileTest, TruncationAtEveryBoundary) {
  const std::string& good = goodBytes();
  std::vector<std::size_t> cuts = {1,  4,  kHeaderBytes - 1, kHeaderBytes + 3,
                                   kHeaderBytes + kFrameBytes - 1};
  for (const FrameRef& f : walkFrames(good)) {
    cuts.push_back(f.payloadStart);           // frame with no payload
    cuts.push_back(f.payloadStart + f.payloadLen / 2);  // mid-payload
  }
  cuts.push_back(good.size() - 1);
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    ASSERT_LT(cut, good.size());
    expectRestoreError<CheckpointFormatError>(good.substr(0, cut));
  }
  // Truncation at an exact section boundary parses cleanly but loses
  // mandatory sections — still a loud format error. (Cutting before the
  // second-to-last frame drops both the facade-RNG section and the
  // trailing optional Markov-cursor section; dropping only the optional
  // one would legitimately restore.)
  const std::vector<FrameRef> frames = walkFrames(good);
  ASSERT_GT(frames.size(), 2u);
  expectRestoreError<CheckpointFormatError>(
      good.substr(0, frames[frames.size() - 2].frameStart));
}

TEST(SnapshotHostileTest, BitFlipInEverySectionIsCaughtByCrc) {
  const std::string& good = goodBytes();
  for (const FrameRef& f : walkFrames(good)) {
    if (f.payloadLen == 0) continue;
    SCOPED_TRACE("section=" + std::to_string(f.id));
    std::string bytes = good;
    bytes[f.payloadStart + f.payloadLen / 2] ^= 0x40;
    expectRestoreError<CheckpointCrcError>(bytes);
  }
}

TEST(SnapshotHostileTest, AbsurdSectionLengthRejectedBeforeAllocation) {
  std::string bytes = goodBytes();
  const std::vector<FrameRef> frames = walkFrames(bytes);
  ASSERT_FALSE(frames.empty());
  // Lie about the first section's length: petabyte-scale. The reader's
  // byte budget must reject this before any resize happens — under ASan
  // an attempted 2^60-byte allocation would abort the process instead of
  // throwing, so reaching the typed error proves the ordering.
  const std::uint64_t absurd = 1ull << 60;
  std::memcpy(bytes.data() + frames[0].frameStart + 4, &absurd, 8);
  expectRestoreError<CheckpointFormatError>(bytes);
}

TEST(SnapshotHostileTest, UnknownSectionsAreSkipped) {
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  ASSERT_FALSE(sections.empty());
  // A newer writer appended sections this build has never heard of —
  // one mid-stream, one trailing.
  sections.insert(sections.begin() + 1,
                  {fourcc('Z', 'Z', 'Z', '1'), std::string("future data")});
  sections.push_back({fourcc('Z', 'Z', 'Z', '2'), std::string(64, '\x7f')});
  const std::string bytes = reframe(good.substr(0, kHeaderBytes), sections);

  AvmemSimulation restored(donorScenario().config);
  std::istringstream in(bytes, std::ios::binary);
  restored.restoreCheckpoint(in);

  // The restore ignored the unknown sections entirely: re-saving yields
  // the original canonical bytes.
  std::ostringstream out(std::ios::binary);
  restored.saveCheckpoint(out);
  EXPECT_EQ(out.str(), good);
}

TEST(SnapshotHostileTest, PayloadShrunkBehindValidCrc) {
  // CRC-valid but structurally short: the section cursor must hit its
  // bounds check, not read past the buffer (ASan would catch the latter).
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  for (auto& [id, payload] : sections) {
    if (id == fourcc('S', 'I', 'M', 'U')) {
      ASSERT_GE(payload.size(), 16u);
      payload.resize(10);  // i64 now + 2 bytes of the executed counter
    }
  }
  expectRestoreError<CheckpointFormatError>(
      reframe(good.substr(0, kHeaderBytes), sections));
}

TEST(SnapshotHostileTest, LyingNodeCountBehindValidCrc) {
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  for (auto& [id, payload] : sections) {
    if (id == fourcc('N', 'O', 'D', 'S')) {
      std::uint64_t count = 0;
      std::memcpy(&count, payload.data(), 8);
      ++count;
      std::memcpy(payload.data(), &count, 8);
    }
  }
  expectRestoreError<CheckpointFormatError>(
      reframe(good.substr(0, kHeaderBytes), sections));
}

TEST(SnapshotHostileTest, TrailingBytesInSection) {
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "SIMU",
                  [](std::string& p) { p.append(8, '\0'); }));
}

TEST(SnapshotHostileTest, DuplicateSection) {
  const std::string& good = goodBytes();
  auto sections = sectionsOf(good);
  ASSERT_EQ(sections[0].first, fourcc('S', 'I', 'M', 'U'));
  std::string later = sections[0].second;
  poke<std::int64_t>(later, 0, peek<std::int64_t>(later, 0) + 1'000'000);
  sections.insert(sections.begin() + 1, {sections[0].first, later});
  expectRestoreError<CheckpointFormatError>(
      reframe(good.substr(0, kHeaderBytes), sections));
}

TEST(SnapshotHostileTest, SliverPeerOutOfRange) {
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "NODS", [](std::string& p) {
        poke<std::uint32_t>(p, firstSliverPeer(p), 250);
      }));
}

TEST(SnapshotHostileTest, ViewEntryOutOfRange) {
  // Accepted unchecked, this entry crashes the next discovery round.
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "SHFV", [](std::string& p) {
        poke<std::uint32_t>(p, firstNestedEntry(p), 0x7fffffff);
      }));
}

TEST(SnapshotHostileTest, ChannelEndpointOutOfRange) {
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "CHAN", [](std::string& p) {
        ASSERT_GT(peek<std::uint64_t>(p, 0), 0u) << "no leg in flight";
        poke<std::uint32_t>(p, 8 + 1, 250);  // first message's src
      }));
}

TEST(SnapshotHostileTest, ChannelSpanPastArena) {
  // Per message: u8 kind, six u32 (src, dst, payload offset/count, echo
  // offset/count), four 64-bit keys; the arena follows the heap.
  constexpr std::size_t kMsgBytes = 1 + 6 * 4 + 4 * 8;
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "CHAN", [](std::string& p) {
        const auto legs = peek<std::uint64_t>(p, 0);
        ASSERT_GT(legs, 0u) << "no leg in flight";
        const auto arena = peek<std::uint64_t>(p, 8 + legs * kMsgBytes);
        poke<std::uint32_t>(p, 8 + 1 + 2 * 4,
                            static_cast<std::uint32_t>(arena));
        poke<std::uint32_t>(p, 8 + 1 + 3 * 4, 1);
      }));
}

TEST(SnapshotHostileTest, FeedBucketEntryOutOfRange) {
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "FEED", [](std::string& p) {
        poke<std::uint32_t>(p, firstNestedEntry(p), 250);
      }));
}

TEST(SnapshotHostileTest, MarkovCursorCountShort) {
  expectRestoreError<CheckpointFormatError>(
      withSection(goodBytes(), "MRKV", [](std::string& p) {
        poke<std::uint64_t>(p, 0, peek<std::uint64_t>(p, 0) - 1);
        p.resize(p.size() - 8);
      }));
}

// AVMN: u64 fold cursor, four u64 ping counters, the epoch timer (u8 +
// i64 + u64), then the cell count and per cell a u32 target and two raw
// u32 counter arrays.
constexpr std::size_t kAvmonCells = 8 + 4 * 8 + 1 + 8 + 8;

TEST(SnapshotHostileTest, AvmonTargetOutOfRange) {
  expectRestoreError<CheckpointFormatError>(
      withSection(avmonGoodBytes(), "AVMN",
                  [](std::string& p) {
                    ASSERT_GT(peek<std::uint64_t>(p, kAvmonCells), 0u);
                    poke<std::uint32_t>(p, kAvmonCells + 8, 250);
                  }),
      avmonDonorScenario());
}

TEST(SnapshotHostileTest, AvmonCounterLengthMismatch) {
  expectRestoreError<CheckpointFormatError>(
      withSection(avmonGoodBytes(), "AVMN",
                  [](std::string& p) {
                    ASSERT_GT(peek<std::uint64_t>(p, kAvmonCells), 0u);
                    const std::size_t samples = kAvmonCells + 8 + 4;
                    const auto k = peek<std::uint64_t>(p, samples);
                    ASSERT_GT(k, 0u);
                    const std::size_t up = samples + 8 + 4 * k;
                    poke<std::uint64_t>(p, up, k - 1);
                    p.erase(up + 8, 4);
                  }),
      avmonDonorScenario());
}

TEST(SnapshotHostileTest, ConfigFingerprintMismatch) {
  // A checkpoint from seed 3 must not restore into a seed-4 world.
  Scenario other = donorScenario();
  other.config.seed = 4;
  AvmemSimulation victim(other.config);
  std::istringstream in(goodBytes(), std::ios::binary);
  EXPECT_THROW(victim.restoreCheckpoint(in), CheckpointConfigError);
}

TEST(SnapshotHostileTest, SaveRefusesUnsupportedStates) {
  // Never started: nothing warm to save.
  {
    AvmemSimulation cold(donorScenario().config);
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(cold.saveCheckpoint(out), CheckpointUnsupportedError);
  }
  // Stateful availability backend: the format does not capture monitor
  // state, so it must refuse rather than snapshot partially.
  {
    Scenario aged = donorScenario();
    aged.config.backend = core::AvailabilityBackend::kAged;
    AvmemSimulation system(aged.config);
    system.warmup(sim::SimDuration::minutes(5));
    std::ostringstream out(std::ios::binary);
    EXPECT_THROW(system.saveCheckpoint(out), CheckpointUnsupportedError);
  }
}

TEST(SnapshotHostileTest, RestoreRefusesStartedSystem) {
  AvmemSimulation running(donorScenario().config);
  running.warmup(sim::SimDuration::minutes(5));
  std::istringstream in(goodBytes(), std::ios::binary);
  EXPECT_THROW(running.restoreCheckpoint(in), CheckpointUnsupportedError);
}

TEST(SnapshotHostileTest, MissingFileIsIoError) {
  AvmemSimulation victim(donorScenario().config);
  EXPECT_THROW(victim.restoreCheckpoint("/nonexistent/path/warm.avmem"),
               CheckpointIoError);
}

}  // namespace
}  // namespace avmem::snapshot
