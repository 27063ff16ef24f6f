// Golden checksums of the paper-fidelity pair hash.
//
// Every paper-figure run keys its overlay off H(id(x), id(y)), so the
// SHA-1 body behind kSha1 must reproduce the same doubles bit for bit
// across any rewrite. The constants below were recorded from the
// straightforward byte-at-a-time digest implementation; a faster body must
// match them exactly. The WorkerPool case pins that H is a pure function
// that may be evaluated from many threads at once (run it under TSan).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/node_id.hpp"
#include "hash/normalized.hpp"
#include "hash/pair_hash.hpp"
#include "hash/sha1.hpp"
#include "sim/worker_pool.hpp"

namespace avmem::hashing {
namespace {

constexpr std::size_t kHosts = 300;
constexpr std::uint64_t kIdSeed = 20070101;

constexpr std::uint64_t kSha1PairChecksum = 0x528F8E949A9F203Dull;
constexpr std::uint64_t kSha1LengthChecksum = 0xAF52D7F0B9253A18ull;

/// FNV-1a over 64-bit words: order-sensitive, so a permuted or shifted
/// value changes the checksum as surely as a wrong one.
std::uint64_t fold(std::uint64_t acc, std::uint64_t word) {
  return (acc ^ word) * 0x100000001B3ull;
}
constexpr std::uint64_t kFoldBasis = 0xCBF29CE484222325ull;

/// H(a, b) for every ordered pair (a, b) of the id table, row-major.
std::vector<double> allPairs(const PairHasher& hasher,
                             const std::vector<core::NodeId>& ids,
                             sim::WorkerPool* pool) {
  std::vector<double> out(ids.size() * ids.size());
  const auto row = [&](std::size_t a) {
    for (std::size_t b = 0; b < ids.size(); ++b) {
      out[a * ids.size() + b] = hasher(ids[a].bytes(), ids[b].bytes());
    }
  };
  if (pool != nullptr) {
    pool->run(ids.size(), row);
  } else {
    for (std::size_t a = 0; a < ids.size(); ++a) row(a);
  }
  return out;
}

std::uint64_t checksum(const std::vector<double>& values) {
  std::uint64_t acc = kFoldBasis;
  for (const double v : values) acc = fold(acc, std::bit_cast<std::uint64_t>(v));
  return acc;
}

/// SHA-1 of the byte string 0, 1, ..., n-1 for every n in [0, 200): spans
/// the one-block, two-block (56..63 byte) and multi-block padding paths.
std::uint64_t sha1LengthSweep() {
  std::uint64_t acc = kFoldBasis;
  std::vector<std::uint8_t> msg;
  for (std::size_t n = 0; n < 200; ++n) {
    for (const std::uint8_t byte : sha1(msg)) acc = fold(acc, byte);
    msg.push_back(static_cast<std::uint8_t>(n * 131 + 7));
  }
  return acc;
}

TEST(PairHashGoldenTest, Sha1PairsMatchRecordedChecksum) {
  const auto ids = core::makeNodeIds(kHosts, kIdSeed);
  EXPECT_EQ(checksum(allPairs(PairHasher(PairHashAlgorithm::kSha1), ids,
                              nullptr)),
            kSha1PairChecksum);
}

TEST(PairHashGoldenTest, DigestLengthSweepMatchesRecordedChecksum) {
  EXPECT_EQ(sha1LengthSweep(), kSha1LengthChecksum);
}

TEST(PairHashGoldenTest, WorkerPoolThreadsMatchSerial) {
  const auto ids = core::makeNodeIds(kHosts, kIdSeed);
  sim::WorkerPool pool(4);
  const PairHasher sha(PairHashAlgorithm::kSha1);
  EXPECT_EQ(checksum(allPairs(sha, ids, &pool)), kSha1PairChecksum);
}

}  // namespace
}  // namespace avmem::hashing
