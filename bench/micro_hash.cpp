// Micro-benchmarks: digest and pair-hash throughput (google-benchmark).
//
// The pair hash sits on the hot path of Discovery (one evaluation per
// coarse-view entry per protocol period per node) — these numbers bound
// the predicate-evaluation budget quoted in DESIGN.md.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hash/fast64_batch.hpp"
#include "hash/pair_hash.hpp"
#include "hash/sha1.hpp"
#include "sim/random.hpp"

namespace {

using namespace avmem;

void BM_Sha1(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(hashing::sha1(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(12)->Arg(64)->Arg(1024)->Arg(65536);

// Arg: the PairHashAlgorithm value, 0 = SHA-1 (paper default) or
// 2 = kFast64 (scale mode). The acceptance bar for scale mode is
// kFast64 >= 5x SHA-1 throughput.
void BM_PairHash(benchmark::State& state) {
  const hashing::PairHasher hasher(
      static_cast<hashing::PairHashAlgorithm>(state.range(0)));
  const std::array<std::uint8_t, 6> a{10, 0, 0, 1, 4, 210};
  const std::array<std::uint8_t, 6> b{10, 0, 0, 2, 8, 161};
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PairHash)->Arg(0)->Arg(2);

// The raw mixer, without the PairHasher dispatch: what Discovery pays per
// predicate evaluation in scale mode.
void BM_Fast64Pair(benchmark::State& state) {
  const std::array<std::uint8_t, 6> a{10, 0, 0, 1, 4, 210};
  std::array<std::uint8_t, 6> b{10, 0, 0, 2, 8, 161};
  std::uint64_t k = 0;
  for (auto _ : state) {
    b[5] = static_cast<std::uint8_t>(++k);  // defeat constant folding
    benchmark::DoNotOptimize(hashing::fast64Pair(42, a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Fast64Pair);

// The batched kFast64 lane used by the vectorized plan kernels: one node's
// hash against a whole candidate run. Arg = run length.
void BM_Fast64HashMany(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(21);
  std::vector<std::uint64_t> tails(n);
  for (auto& t : tails) {
    t = hashing::fast64Tail6(static_cast<std::uint32_t>(rng.next()),
                             static_cast<std::uint16_t>(rng.next()));
  }
  const hashing::Fast64PairBatch batch(
      42, hashing::fast64Tail6(0x0A000001u, 1234));
  std::vector<double> out(n);
  for (auto _ : state) {
    batch.hashMany(tails, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Fast64HashMany)->Arg(32)->Arg(512);

// Scalar-vs-batched on the same inputs, ratio reported as a counter
// ("scalar_over_batched" > 1 means the batch lane wins). This is the
// per-candidate cost delta the plan-phase pre-filter banks on.
void BM_Fast64BatchSpeedup(benchmark::State& state) {
  constexpr std::size_t kRun = 512;
  sim::Rng rng(22);
  const std::array<std::uint8_t, 6> self{10, 0, 0, 1, 4, 210};
  std::vector<std::array<std::uint8_t, 6>> ids(kRun);
  std::vector<std::uint64_t> tails(kRun);
  for (std::size_t i = 0; i < kRun; ++i) {
    for (auto& b : ids[i]) b = static_cast<std::uint8_t>(rng.next());
    std::uint64_t tail = 1;
    for (const std::uint8_t b : ids[i]) tail = (tail << 8) | b;
    tails[i] = tail;
  }
  const std::uint64_t selfTail = hashing::fast64Tail6(0x0A000001u, 1234);
  const hashing::Fast64PairBatch batch(42, selfTail);
  std::vector<double> out(kRun);
  double scalarNs = 0.0;
  double batchNs = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t acc = 0;
    for (const auto& id : ids) acc ^= hashing::fast64Pair(42, self, id);
    benchmark::DoNotOptimize(acc);
    const auto t1 = std::chrono::steady_clock::now();
    batch.hashMany(tails, out);
    benchmark::DoNotOptimize(out.data());
    const auto t2 = std::chrono::steady_clock::now();
    scalarNs += std::chrono::duration<double, std::nano>(t1 - t0).count();
    batchNs += std::chrono::duration<double, std::nano>(t2 - t1).count();
  }
  state.counters["scalar_over_batched"] =
      batchNs > 0.0 ? scalarNs / batchNs : 0.0;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * kRun));
}
BENCHMARK(BM_Fast64BatchSpeedup);

// The discovery access pattern one node of the 1442-host paper world
// produces: SHA-1 of (self, y) for every other y, recomputed each time.
// Compare with BM_PairHash/0 (one fixed pair).
void BM_Sha1PairSweep(benchmark::State& state) {
  const hashing::PairHasher hasher(hashing::PairHashAlgorithm::kSha1);
  std::vector<std::array<std::uint8_t, 6>> ids;
  sim::Rng rng(4);
  for (int i = 0; i < 1442; ++i) {
    ids.push_back({static_cast<std::uint8_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.next()),
                   static_cast<std::uint8_t>(rng.next())});
  }
  std::size_t k = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher(ids[0], ids[k]));
    k = (k % (ids.size() - 1)) + 1;
  }
}
BENCHMARK(BM_Sha1PairSweep);

}  // namespace

BENCHMARK_MAIN();
