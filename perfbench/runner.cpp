// perfbench runner: runs one benchmark workload through the public
// AvmemSimulation facade and reports what it measured.
//
// The workload plan arrives on stdin, generated from the benchmark seed
// by perfbench/run.py; the runner draws nothing of its own. It repeats
// the workload ("a rep": build the world, warm it up or restore it, run
// the operation schedule) until the host-time budget is spent, and prints
// one JSON object per line on stdout:
//
//   {"type":"descriptor", ...}  build and machine descriptor
//   {"type":"rep", ...}         host timings and counter deltas of one rep,
//                               whole and per measured section
//   {"type":"sim", ...}         simulated outcomes of rep 0 (every rep's
//                               digest must match it; run.py checks)
//
// Every layer is measured from outside: by timing facade calls and by
// reading counters the library already exposes. With `trace 1` the
// runner also records a span around every facade call and timed probe,
// each carrying counter deltas, and writes them as Chrome trace-event
// JSON (chrome://tracing, ui.perfetto.dev) to the plan's trace_out path.
//
// Plan directives, one per line (see run.py for the generator):
//   world scale-avmon|paper   hosts N   sim_seed S   threads T
//   warm_s X   slices K   prewarm_s X   seconds X   min_reps R
//   setup_reps R (extra setups before each rep)   trace 0|1   trace_out PATH
//   probe_every_s X (the host speed probe)
//   op <any|mc|agg> <low|mid|high> <-|flood|gossip> <thr|rng> A B
//      COUNT STAGGER_MS DUE_MS
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/management.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "hash/pair_hash.hpp"

namespace {

using namespace avmem;
using Clock = std::chrono::steady_clock;

[[nodiscard]] double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak resident set size: the kernel's high-water mark (VmHWM), which
/// resetPeakRss() can lower; getrusage's ru_maxrss where /proc is missing.
[[nodiscard]] double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Hand freed heap back to the kernel and restart the high-water mark at
/// the current RSS, so the peak of the reps excludes worlds already torn
/// down (serve-ops' warm-up world, discarded setups). False where the
/// kernel does not support the reset.
bool resetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

/// Read-only stream buffer over a string's bytes: restores read the
/// checkpoint in place instead of copying it into an istringstream.
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& bytes) {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }

 protected:
  // Seekable like an istringstream, so the reader can learn its budget.
  pos_type seekoff(off_type off, std::ios_base::seekdir dir,
                   std::ios_base::openmode which) override {
    const off_type size = egptr() - eback();
    const off_type at = dir == std::ios_base::beg   ? off
                        : dir == std::ios_base::cur ? (gptr() - eback()) + off
                                                    : size + off;
    if (!(which & std::ios_base::in) || at < 0 || at > size) {
      return pos_type(off_type(-1));
    }
    setg(eback(), eback() + at, egptr());
    return pos_type(at);
  }
  pos_type seekpos(pos_type pos, std::ios_base::openmode which) override {
    return seekoff(off_type(pos), std::ios_base::beg, which);
  }
};

/// Host speed probe: a fixed reference work that touches nothing of the
/// library under test. On a shared host the vCPUs' speed drifts by tens
/// of percent over minutes. The probe chases pointers through a 4 MiB
/// random cycle (cache misses) and mixes integers into a small table
/// (compute and branches), in turns. The runner takes it between measured
/// sections all through every rep, and around every setup, so run.py can
/// state the workload's time in units of this work.
class SpeedProbe {
 public:
  SpeedProbe() : ring_(std::size_t{1} << 20) {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      ring_[i] = static_cast<std::uint32_t>(i);
    }
    // Sattolo's shuffle: one cycle through every slot.
    std::uint64_t x = 0x5EEDu;
    for (std::size_t i = ring_.size() - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[mix(x) % i]);
    }
    for (int k = 0; k < 3; ++k) (void)take();  // fault in and warm the ring
  }

  struct Sample {
    double wallS, cpuS;
  };

  /// One probe, about 10 ms on an unloaded host.
  [[nodiscard]] Sample take() {
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    std::uint32_t at = 0;
    std::uint64_t x = 0;
    for (int turn = 0; turn < kTurns; ++turn) {
      // Memory latency: one dependent load per step.
      for (int k = 0; k < kChase; ++k) at = ring_[at];
      // Compute: a dependent mixing chain with branchy table updates.
      x += at;
      for (int k = 0; k < kMix; ++k) {
        const std::uint64_t v = mix(x);
        auto& slot = table_[v & (table_.size() - 1)];
        slot += v >> 32;
        if (slot & 1) x ^= slot;
      }
    }
    sink_ = sink_ + x;
    return {secondsBetween(t0, Clock::now()), cpuSeconds() - cpu0};
  }

 private:
  // The two halves of a turn take about the same time.
  static constexpr int kTurns = 40;
  static constexpr int kChase = 1'000;
  static constexpr int kMix = 12'000;

  static std::uint64_t mix(std::uint64_t& x) {
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  std::vector<std::uint32_t> ring_;
  std::array<std::uint64_t, 4096> table_{};  // 32 KiB: stays in L1
  volatile std::uint64_t sink_ = 0;
};

// --- plan --------------------------------------------------------------------

/// Nodes whose slivers enter the digest (evenly spaced).
constexpr std::size_t kSliverSample = 256;
/// AVMON targets whose estimate enters avmon_mae.
constexpr std::size_t kMaeSample = 1024;
/// Cap on reps per run, whatever the time budget.
constexpr int kMaxReps = 50;

struct Op {
  std::string kind;   // any | mc | agg
  std::string band;   // low | mid | high
  std::string mode;   // - | flood | gossip
  std::string shape;  // thr | rng
  double a = 0.0;
  double b = 0.0;
  std::size_t count = 1;
  std::int64_t staggerMs = 0;
  std::int64_t dueMs = 0;
};

struct Plan {
  std::string world;
  std::uint32_t hosts = 0;
  std::uint64_t simSeed = 0;
  std::size_t threads = 1;
  double warmS = 0.0;
  int slices = 1;
  double prewarmS = 0.0;
  double seconds = 1.0;
  int minReps = 1;
  int setupReps = 0;
  double probeEveryS = 1.0;
  bool trace = false;
  std::string traceOut;
  std::vector<Op> ops;
};

[[nodiscard]] Plan readPlan(std::istream& in) {
  Plan p;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string key;
    if (!(ls >> key) || key[0] == '#') continue;
    bool ok = true;
    if (key == "world") ok = static_cast<bool>(ls >> p.world);
    else if (key == "hosts") ok = static_cast<bool>(ls >> p.hosts);
    else if (key == "sim_seed") ok = static_cast<bool>(ls >> p.simSeed);
    else if (key == "threads") ok = static_cast<bool>(ls >> p.threads);
    else if (key == "warm_s") ok = static_cast<bool>(ls >> p.warmS);
    else if (key == "slices") ok = static_cast<bool>(ls >> p.slices);
    else if (key == "prewarm_s") ok = static_cast<bool>(ls >> p.prewarmS);
    else if (key == "seconds") ok = static_cast<bool>(ls >> p.seconds);
    else if (key == "min_reps") ok = static_cast<bool>(ls >> p.minReps);
    else if (key == "setup_reps") ok = static_cast<bool>(ls >> p.setupReps);
    else if (key == "probe_every_s") ok = static_cast<bool>(ls >> p.probeEveryS);
    else if (key == "trace") {
      int t = 0;
      ok = static_cast<bool>(ls >> t);
      p.trace = t != 0;
    } else if (key == "trace_out") ok = static_cast<bool>(ls >> p.traceOut);
    else if (key == "op") {
      Op op;
      ok = static_cast<bool>(ls >> op.kind >> op.band >> op.mode >> op.shape >>
                             op.a >> op.b >> op.count >> op.staggerMs >>
                             op.dueMs);
      ok = ok && (op.kind == "any" || op.kind == "mc" || op.kind == "agg") &&
           (op.band == "low" || op.band == "mid" || op.band == "high") &&
           (op.shape == "thr" || op.shape == "rng") && op.count > 0;
      if (ok) p.ops.push_back(op);
    } else {
      throw std::invalid_argument("unknown plan directive '" + key + "'");
    }
    if (!ok) throw std::invalid_argument("malformed plan line: " + line);
  }
  if (p.world != "scale-avmon" && p.world != "paper") {
    throw std::invalid_argument("plan: world must be scale-avmon|paper");
  }
  if (p.simSeed == 0 || p.threads == 0 || p.slices < 1 || p.minReps < 1 ||
      p.minReps > kMaxReps || p.setupReps < 0 || !(p.probeEveryS > 0.0)) {
    throw std::invalid_argument("plan: out-of-range setting");
  }
  if (p.world == "paper" ? p.hosts != 0 : p.hosts == 0) {
    throw std::invalid_argument("plan: hosts is fixed for paper, else needed");
  }
  return p;
}

/// The workload's world at scenario defaults; only the seed, the host
/// count (scale worlds) and the plan-phase thread count are set.
[[nodiscard]] core::SimulationConfig worldConfig(const Plan& p) {
  core::ScenarioTuning tuning;
  tuning.seed = p.simSeed;
  tuning.hosts = p.hosts;
  core::Scenario s = core::makeScenario(
      p.world == "paper" ? "paper-default" : "scale-avmon-100k", tuning);
  s.config.maintenanceThreads = p.threads;
  return s.config;
}

[[nodiscard]] core::AvBand bandOf(const std::string& name) {
  if (name == "low") return core::AvBand::low();
  if (name == "mid") return core::AvBand::mid();
  return core::AvBand::high();
}

[[nodiscard]] core::AvRange rangeOf(const Op& op) {
  return op.shape == "thr" ? core::AvRange::threshold(op.a)
                           : core::AvRange::closed(op.a, op.b);
}

// --- counters & spans ------------------------------------------------------

/// Everything the layers expose as public counters or wall accessors.
struct Counters {
  double events = 0, netSent = 0, netDelivered = 0, netBytes = 0,
         ackTimeouts = 0, droppedOffline = 0, rejected = 0, rounds = 0,
         feedCandidates = 0, shuffles = 0, pingsSent = 0, pingBytes = 0,
         planS = 0, commitS = 0, shufflePlanS = 0, shuffleCommitS = 0;

  [[nodiscard]] double maintS() const {
    return planS + commitS + shufflePlanS + shuffleCommitS;
  }
};

[[nodiscard]] Counters readCounters(core::AvmemSimulation* s) {
  Counters c;
  if (s == nullptr) return c;
  auto& sys = *s;
  const auto& net = sys.network().stats();
  const auto& eng = s->membershipEngine();
  c.events = static_cast<double>(sys.simulator().executedEvents());
  c.netSent = static_cast<double>(net.sent);
  c.netDelivered = static_cast<double>(net.delivered);
  c.netBytes = static_cast<double>(net.bytesSent);
  c.ackTimeouts = static_cast<double>(net.ackTimeouts);
  c.droppedOffline = static_cast<double>(net.droppedOffline);
  c.rejected = static_cast<double>(net.rejected);
  c.rounds = static_cast<double>(eng.stats().discoveryRounds +
                                 eng.stats().refreshRounds);
  c.feedCandidates = static_cast<double>(eng.stats().feedCandidates);
  c.shuffles = static_cast<double>(s->shuffleService().completedShuffles());
  if (const auto* avmon = s->avmonSystem()) {
    c.pingsSent = static_cast<double>(avmon->pingStats().sent);
    c.pingBytes = static_cast<double>(avmon->pingStats().bytes);
  }
  c.planS = eng.planWallSeconds();
  c.commitS = eng.commitWallSeconds();
  c.shufflePlanS = s->shuffleService().planWallSeconds();
  c.shuffleCommitS = s->shuffleService().commitWallSeconds();
  return c;
}

#define PERFBENCH_COUNTERS(X)                                              \
  X(events) X(netSent) X(netDelivered) X(netBytes) X(ackTimeouts)          \
  X(droppedOffline) X(rejected) X(rounds) X(feedCandidates) X(shuffles)    \
  X(pingsSent) X(pingBytes) X(planS) X(commitS) X(shufflePlanS)            \
  X(shuffleCommitS)

[[nodiscard]] Counters operator-(const Counters& a, const Counters& b) {
  Counters d;
#define PERFBENCH_SUB(f) d.f = a.f - b.f;
  PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
  return d;
}

Counters& operator+=(Counters& a, const Counters& b) {
#define PERFBENCH_ADD(f) a.f += b.f;
  PERFBENCH_COUNTERS(PERFBENCH_ADD)
#undef PERFBENCH_ADD
  return a;
}

/// Median (upper middle element); NaN when empty.
[[nodiscard]] double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Shortest decimal that round-trips the double (run.py keeps every digit).
[[nodiscard]] std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// In-memory span recorder. Inactive (no clock reads, no storage) unless
/// the plan asks for a trace; its own bookkeeping time is accumulated so
/// the report can state the tracing overhead.
class Spans {
 public:
  struct Span {
    std::string name;
    std::string cat;
    double startUs = 0.0;
    double durUs = 0.0;
    double childUs = 0.0;
    int parent = -1;
    Counters delta;
  };

  explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Open a span; `system` (may be null) is the world whose counters the
  /// span's deltas are taken from.
  int begin(std::string name, std::string cat,
            core::AvmemSimulation* system) {
    if (!on_) return -1;
    const auto t0 = Clock::now();
    Span s;
    s.name = std::move(name);
    s.cat = std::move(cat);
    s.parent = open_.empty() ? -1 : open_.back();
    s.delta = readCounters(system);
    spans_.push_back(std::move(s));
    const int id = static_cast<int>(spans_.size()) - 1;
    open_.push_back(id);
    systems_.push_back(system);
    const auto t1 = Clock::now();
    spans_[id].startUs = usSince(t1);
    overheadS_ += secondsBetween(t0, t1);
    return id;
  }

  void end(int id) {
    if (!on_ || id < 0) return;
    const auto t0 = Clock::now();
    Span& s = spans_[id];
    s.durUs = usSince(t0) - s.startUs;
    s.delta = readCounters(systems_.back()) - s.delta;
    open_.pop_back();
    systems_.pop_back();
    if (s.parent >= 0) spans_[s.parent].childUs += s.durUs;
    overheadS_ += secondsBetween(t0, Clock::now());
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] double overheadSeconds() const noexcept { return overheadS_; }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write trace " + path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":" << num(s.startUs) << ",\"dur\":"
          << num(s.durUs) << ",\"args\":{\"self_us\":"
          << num(s.durUs - s.childUs) << ",\"parent\":" << s.parent;
#define PERFBENCH_ARG(f) \
  if (s.delta.f != 0) out << ",\"" #f "\":" << num(s.delta.f);
      PERFBENCH_COUNTERS(PERFBENCH_ARG)
#undef PERFBENCH_ARG
      out << "}}";
    }
    out << "\n]}\n";
  }

 private:
  [[nodiscard]] double usSince(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<core::AvmemSimulation*> systems_;
  double overheadS_ = 0.0;
};

/// RAII span guard.
class Scope {
 public:
  Scope(Spans& spans, std::string name, std::string cat,
        core::AvmemSimulation* system)
      : spans_(spans),
        id_(spans.begin(std::move(name), std::move(cat), system)) {}
  ~Scope() { spans_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// --- digests -------------------------------------------------------------------

/// FNV-1a over 64-bit words: order-sensitive and stable across builds.
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Slivers of a fixed, evenly spaced node sample (peers and cached
/// availabilities, in list order).
[[nodiscard]] std::string sliverDigest(const core::AvmemSimulation& s) {
  Digest d;
  const std::size_t n = s.nodeCount();
  const std::size_t step = std::max<std::size_t>(1, n / kSliverSample);
  for (std::size_t i = 0; i < n; i += step) {
    const auto& node = s.node(static_cast<net::NodeIndex>(i));
    for (const auto* list : {&node.horizontalSliver(), &node.verticalSliver()}) {
      d.add(static_cast<std::uint64_t>(list->size()));
      for (std::size_t k = 0; k < list->size(); ++k) {
        d.add(static_cast<std::uint64_t>(list->peerAt(k)));
        d.add(list->cachedAvAt(k));
      }
    }
  }
  return d.hex();
}

// --- one rep ---------------------------------------------------------------

/// Simulated outcomes of one rep; identical across reps of one plan.
struct SimOutcome {
  std::string viewDigest;
  std::string sliverDigest;
  std::string opsDigest;
  double meanDegree = 0.0;
  double avmonMae = 0.0;
  std::size_t anycasts = 0;
  std::size_t anycastsDelivered = 0;
  std::vector<double> anycastLatMs;  // delivered only
  std::vector<double> anycastHops;   // delivered only
  std::size_t multicasts = 0;
  std::size_t multicastsReached = 0;
  // Dissemination within the range, over multicasts that entered it (an
  // entry that failed counts against op_success_frac instead).
  double mcEligible = 0, mcDelivered = 0, mcSpam = 0;
  std::vector<double> floodMs;   // dissemination latencies, flood mode
  std::vector<double> gossipMs;  // dissemination latencies, gossip mode
  std::size_t inconsistent = 0;  // results that contradict themselves
  double maxLatenessMs = 0.0;
  std::size_t lateOps = 0;
  double endMinutes = 0.0;  // sim clock when the last operation settled
  std::size_t operations = 0;

  [[nodiscard]] std::string digest() const {
    return viewDigest + "-" + sliverDigest + "-" + opsDigest;
  }
};

/// Host time of one measured section of a rep.
struct SectionTimes {
  char kind;  // w warm-up slice, i idle gap, a anycast batch, m multicast
  double wallS, cpuS, maintS;
};

/// Speed probes of one rep: before its first section and then before the
/// next section once `everyS` of measured time has passed since the last.
struct Probes {
  SpeedProbe* probe = nullptr;
  Spans* spans = nullptr;
  double everyS = 1.0;
  double sinceS = 0.0;  // measured time since the last probe
  std::vector<double> wallS, cpuS;

  /// Probe if one is due before the next section; returns the probes
  /// taken so far.
  std::size_t due() {
    if (probe != nullptr && (wallS.empty() || sinceS >= everyS)) {
      Scope span(*spans, "speed.probe", "bench", nullptr);
      sinceS = 0.0;
      const auto sample = probe->take();
      wallS.push_back(sample.wallS);
      cpuS.push_back(sample.cpuS);
    }
    return wallS.size();
  }
};

struct RepResult {
  Probes probes;
  double setupS = 0, traceBuildS = 0, constructS = 0, restoreS = 0;
  double setupProbeS = 0;  // the speed probe around the setup
  double wallS = 0, cpuS = 0;  // summed over the measured sections
  std::vector<SectionTimes> sections;
  Counters measured;  // counter deltas over the measured sections
  double opsNetSent = 0;  // messages sent during the operation phase
  double modelMb = 0;
  // probes (traced runs only)
  double hashPairNs = 0, avmonQueryNs = 0, traceQueryNs = 0;
  double saveS = 0, probeRestoreS = 0, snapshotMb = 0;
  double traceOverheadS = 0;
  std::size_t spans = 0;
  std::size_t effectiveThreads = 1;
  SimOutcome sim;
};

/// A measured section (a warm-up slice, an idle gap or one operation),
/// timed in every run (wall, CPU and the maintenance that accrued inside
/// it) and wrapped in a span when tracing. A plan yields the same sections
/// in the same order in every rep (run.py checks). A speed probe due
/// before the section runs first, outside its span and clocks.
class Section {
 public:
  Section(RepResult& r, core::AvmemSimulation& s, Spans& spans, char kind,
          std::string name, std::string cat)
      : probed_(r.probes.due()), r_(r), s_(s), kind_(kind),
        span_(spans, std::move(name), std::move(cat), &s),
        c0_(readCounters(&s)), cpu0_(cpuSeconds()), t0_(Clock::now()) {}
  ~Section() {
    const double wall = secondsBetween(t0_, Clock::now());
    const double cpu = cpuSeconds() - cpu0_;
    const Counters delta = readCounters(&s_) - c0_;
    r_.sections.push_back({kind_, wall, cpu, delta.maintS()});
    r_.wallS += wall;
    r_.cpuS += cpu;
    r_.measured += delta;
    r_.probes.sinceS += wall;
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  std::size_t probed_;  // first: the probe runs before the span and clocks
  RepResult& r_;
  core::AvmemSimulation& s_;
  char kind_;
  Scope span_;  // opened before, closed after the timed part
  Counters c0_;
  double cpu0_;
  Clock::time_point t0_;
};

void runOps(const Plan& plan, core::AvmemSimulation& sys, Spans& spans,
            RepResult& r) {
  core::ManagementClient client(sys);
  SimOutcome& o = r.sim;
  Digest d;
  const sim::SimTime t0 = sys.simulator().now();
  for (const Op& op : plan.ops) {
    const sim::SimTime due = t0 + sim::SimDuration::millis(op.dueMs);
    const sim::SimTime now = sys.simulator().now();
    if (now < due) {
      Section idle(r, sys, spans, 'i', "idle", "sim");
      sys.run(due - now);
    } else {
      const double late = (now - due).toMillis();
      o.maxLatenessMs = std::max(o.maxLatenessMs, late);
      o.lateOps += late > 0.0 ? 1 : 0;
    }
    const core::AvBand band = bandOf(op.band);
    const core::AvRange range = rangeOf(op);
    if (op.kind == "any") {
      const auto batch = [&] {
        Section section(r, sys, spans, 'a', "anycast.batch", "core.anycast");
        return sys.runAnycastBatch(band, client.anycastParams(range), op.count,
                                   sim::SimDuration::millis(op.staggerMs));
      }();
      o.anycasts += op.count;
      o.operations += op.count;
      if (batch.count() > op.count) ++o.inconsistent;
      d.add(static_cast<std::uint64_t>(batch.count()));
      for (const auto& res : batch.results) {
        d.add(static_cast<std::uint64_t>(res.outcome));
        d.add(static_cast<std::uint64_t>(res.latency.toMicros()));
        if (res.outcome != core::AnycastOutcome::kDelivered) continue;
        d.add(static_cast<std::uint64_t>(res.deliveredTo));
        d.add(static_cast<std::uint64_t>(res.hops));
        if (res.hops < 0) ++o.inconsistent;
        ++o.anycastsDelivered;
        o.anycastLatMs.push_back(res.latency.toMillis());
        o.anycastHops.push_back(res.hops);
      }
      continue;
    }
    o.multicasts += 1;
    o.operations += 1;
    const auto mode = op.mode == "gossip" ? core::MulticastMode::kGossip
                                          : core::MulticastMode::kFlood;
    core::MulticastResult res;
    std::optional<core::AggregateResult> agg;
    {
      Section section(r, sys, spans, 'm',
                      op.kind == "agg" ? "aggregate" : "multicast",
                      "core.multicast");
      const auto initiator = sys.pickInitiator(band);
      if (!initiator) {
        d.add(~std::uint64_t{0});
        continue;
      }
      if (op.kind == "agg") {
        agg = client.rangeAggregate(
            *initiator, range.lo, range.hi,
            [&sys](net::NodeIndex n) {
              return static_cast<double>(sys.node(n).degree());
            },
            mode);
        res = agg->multicast;
      } else {
        res = op.shape == "thr"
                  ? client.thresholdMulticast(*initiator, op.a, mode)
                  : client.rangeMulticast(*initiator, op.a, op.b, mode);
      }
    }
    if (agg) {
      if (agg->attribute.count() != res.delivered) ++o.inconsistent;
      d.add(agg->attribute.count() == 0 ? 0.0 : agg->attribute.mean());
    }
    if (res.delivered > res.eligible) ++o.inconsistent;
    d.add(static_cast<std::uint64_t>(res.reachedRange));
    d.add(static_cast<std::uint64_t>(res.eligible));
    d.add(static_cast<std::uint64_t>(res.delivered));
    d.add(static_cast<std::uint64_t>(res.spam));
    d.add(static_cast<std::uint64_t>(res.lastDeliveryLatency.toMicros()));
    if (res.reachedRange) {
      ++o.multicastsReached;
      o.mcEligible += static_cast<double>(res.eligible);
      o.mcDelivered += static_cast<double>(res.delivered);
      o.mcSpam += static_cast<double>(res.spam);
    }
    // Dissemination latency: each in-range delivery after the first (the
    // entry anycast's own latency is already in anycast_lat_*).
    if (!res.deliveryLatencies.empty()) {
      const auto first = *std::min_element(res.deliveryLatencies.begin(),
                                           res.deliveryLatencies.end());
      auto& pooled = mode == core::MulticastMode::kFlood ? o.floodMs
                                                        : o.gossipMs;
      for (const auto lat : res.deliveryLatencies) {
        pooled.push_back((lat - first).toMillis());
      }
    }
  }
  o.opsDigest = d.hex();
  o.endMinutes = sys.simulator().now().toMinutes();
}

/// Overlay convergence at the end of warm-up: a pure read of node state.
[[nodiscard]] double meanDegree(const core::AvmemSimulation& sys) {
  double degree = 0.0;
  for (std::size_t i = 0; i < sys.nodeCount(); ++i) {
    degree += static_cast<double>(sys.node(static_cast<net::NodeIndex>(i)).degree());
  }
  return degree / static_cast<double>(sys.nodeCount());
}

/// AVMON estimate error against the oracle over a fixed target sample,
/// each queried by its successor (as bench/scale_sweep does). A query can
/// build a target's monitor cell, so this runs after the digests, outside
/// every measured section.
[[nodiscard]] double avmonMae(core::AvmemSimulation& sys) {
  if (sys.avmonSystem() == nullptr) return 0.0;
  const std::size_t n = sys.nodeCount();
  const std::size_t sample = std::min(n, kMaeSample);
  double err = 0.0;
  std::size_t answered = 0;
  for (std::size_t i = 0; i < sample; ++i) {
    const auto target = static_cast<net::NodeIndex>(i);
    const auto est = sys.availabilityService().query(
        static_cast<net::NodeIndex>((i + 1) % n), target);
    if (!est) continue;
    err += std::abs(*est - sys.trueAvailability(target));
    ++answered;
  }
  return answered == 0 ? 0.0 : err / static_cast<double>(answered);
}

/// Timed probes of single layers; traced runs only, after the digests, so
/// they cannot perturb the simulated outcome.
void runProbes(const core::SimulationConfig& cfg, core::AvmemSimulation& sys,
               Spans& spans, RepResult& r) {
  const std::size_t n = sys.nodeCount();
  volatile double sink = 0.0;
  {
    Scope span(spans, "probe.hash", "hash", nullptr);
    const hashing::PairHasher hasher(cfg.protocol.hashAlgorithm,
                                     cfg.protocol.hashSeed);
    constexpr std::size_t kPairs = 20'000;
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kPairs; ++k) {
      const auto a = sys.ids()[k % n].bytes();
      const auto b = sys.ids()[(k * 7919 + 1) % n].bytes();
      acc += hasher(a, b);
    }
    r.hashPairNs = secondsBetween(t0, Clock::now()) * 1e9 / kPairs;
    sink = sink + acc;
  }
  {
    Scope span(spans, "probe.avmon.query", "avmon", nullptr);
    const std::size_t pairs = std::min<std::size_t>(4096, n);
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < pairs; ++k) {
      const auto est = sys.availabilityService().query(
          static_cast<net::NodeIndex>((k * 7919 + 3) % n),
          static_cast<net::NodeIndex>((k * 104729 + 11) % n));
      acc += est.value_or(0.0);
    }
    r.avmonQueryNs =
        secondsBetween(t0, Clock::now()) * 1e9 / static_cast<double>(pairs);
    sink = sink + acc;
  }
  {
    Scope span(spans, "probe.trace.query", "trace", nullptr);
    constexpr std::size_t kQueries = 100'000;
    const auto& model = sys.trace();
    const double horizon = sys.simulator().now().toSeconds();
    double acc = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < kQueries; ++k) {
      const auto at = sim::SimTime::fromSeconds(
          horizon * static_cast<double>(k % 97) / 97.0);
      acc += model.availabilityAt(static_cast<net::NodeIndex>(k % n), at);
    }
    r.traceQueryNs = secondsBetween(t0, Clock::now()) * 1e9 / kQueries;
    sink = sink + acc;
  }
}

/// Save/restore round trip of the warm world (traced runs only, before
/// the operations, which leave timers a checkpoint cannot hold): the
/// restored copy must carry the same coarse views and slivers, so this is
/// a correctness check as well as the snapshot probe. Saving is const; the
/// copy is discarded.
void probeRoundTrip(const core::SimulationConfig& cfg,
                    core::AvmemSimulation& sys, Spans& spans, RepResult& r) {
  std::string bytes;
  {
    Scope span(spans, "probe.snapshot.save", "snapshot", nullptr);
    const auto t0 = Clock::now();
    std::ostringstream out;
    sys.saveCheckpoint(out);
    bytes = std::move(out).str();
    r.saveS = secondsBetween(t0, Clock::now());
    r.snapshotMb = static_cast<double>(bytes.size()) / (1024.0 * 1024.0);
  }
  core::AvmemSimulation copy(cfg);
  {
    Scope span(spans, "probe.snapshot.restore", "snapshot", nullptr);
    const auto t0 = Clock::now();
    ViewBuf view(bytes);
    std::istream in(&view);
    copy.restoreCheckpoint(in);
    r.probeRestoreS = secondsBetween(t0, Clock::now());
  }
  if (copy.shuffleService().viewDigest() != sys.shuffleService().viewDigest() ||
      sliverDigest(copy) != sliverDigest(sys)) {
    throw std::runtime_error("checkpoint round trip changed the world");
  }
}

/// One speed probe's wall time, in a span of its own.
double probeWall(Spans& spans, SpeedProbe& probe) {
  Scope span(spans, "speed.probe", "bench", nullptr);
  return probe.take().wallS;
}

/// Build the world (and restore the warm state, if any): the setup every
/// rep pays. Fills the setup timings of `r`, and the time of the speed
/// probe around the setup: the mean of one probe just before it and one
/// just after.
std::unique_ptr<core::AvmemSimulation> setUp(const core::SimulationConfig& cfg,
                                             const std::string* checkpoint,
                                             Spans& spans, SpeedProbe& probe,
                                             RepResult& r) {
  std::unique_ptr<core::AvmemSimulation> sys;
  const double probeBefore = probeWall(spans, probe);
  const auto t0 = Clock::now();
  std::unique_ptr<trace::AvailabilityModel> model;
  {
    Scope span(spans, "trace.build", "trace", nullptr);
    model = core::makeTraceModel(cfg.traceBackend, cfg.trace);
  }
  const auto t1 = Clock::now();
  {
    Scope span(spans, "construct", "core", nullptr);
    sys = std::make_unique<core::AvmemSimulation>(cfg, std::move(model));
  }
  const auto t2 = Clock::now();
  if (checkpoint != nullptr) {
    Scope span(spans, "snapshot.restore", "snapshot", sys.get());
    ViewBuf view(*checkpoint);
    std::istream in(&view);
    sys->restoreCheckpoint(in);
  }
  const auto t3 = Clock::now();
  r.traceBuildS = secondsBetween(t0, t1);
  r.constructS = secondsBetween(t1, t2);
  r.restoreS = secondsBetween(t2, t3);
  r.setupS = secondsBetween(t0, t3);
  r.setupProbeS = (probeBefore + probeWall(spans, probe)) / 2.0;
  return sys;
}

RepResult runRep(const Plan& plan, const core::SimulationConfig& cfg,
                 const std::string* checkpoint, Spans& spans,
                 SpeedProbe& probe) {
  RepResult r;
  Scope rep(spans, "rep", "bench", nullptr);
  const auto sys = setUp(cfg, checkpoint, spans, probe, r);
  r.modelMb = static_cast<double>(sys->trace().memoryFootprintBytes()) /
              (1024.0 * 1024.0);
  r.effectiveThreads = sys->maintenanceThreads();
  r.probes.probe = &probe;
  r.probes.spans = &spans;
  r.probes.everyS = plan.probeEveryS;

  if (plan.warmS > 0.0) {
    const std::int64_t totalUs =
        sim::SimDuration::fromSeconds(plan.warmS).toMicros();
    for (int k = 0; k < plan.slices; ++k) {
      const auto slice = sim::SimDuration::micros(
          totalUs * (k + 1) / plan.slices - totalUs * k / plan.slices);
      Section section(r, *sys, spans, 'w', "warmup.slice", "sim");
      sys->warmup(slice);
    }
  }
  r.sim.meanDegree = meanDegree(*sys);
  if (spans.on() && checkpoint == nullptr) {
    probeRoundTrip(cfg, *sys, spans, r);
  }
  const Counters beforeOps = readCounters(sys.get());
  {
    Scope span(spans, "ops", "bench", sys.get());
    runOps(plan, *sys, spans, r);
  }
  r.opsNetSent = (readCounters(sys.get()) - beforeOps).netSent;
  r.sim.viewDigest = std::to_string(sys->shuffleService().viewDigest());
  r.sim.sliverDigest = sliverDigest(*sys);
  r.sim.avmonMae = avmonMae(*sys);
  if (spans.on()) {
    Scope span(spans, "probes", "bench", nullptr);
    runProbes(cfg, *sys, spans, r);
  }
  return r;
}

// --- output ------------------------------------------------------------------

class JsonLine {
 public:
  explicit JsonLine(const char* type) { out_ << "{\"type\":\"" << type << "\""; }
  JsonLine& kv(const char* k, double v) {
    out_ << ",\"" << k << "\":" << num(v);
    return *this;
  }
  JsonLine& kv(const char* k, const std::string& v) {
    out_ << ",\"" << k << "\":\"" << v << "\"";
    return *this;
  }
  JsonLine& kv(const char* k, const std::vector<double>& v) {
    out_ << ",\"" << k << "\":[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out_ << (i == 0 ? "" : ",") << num(v[i]);
    }
    out_ << "]";
    return *this;
  }
  void print() { std::cout << out_.str() << "}\n" << std::flush; }

 private:
  std::ostringstream out_;
};

void printRep(int i, const RepResult& r, bool peakReset) {
  const Counters& m = r.measured;
  JsonLine line("rep");
  line.kv("i", i)
      .kv("digest", r.sim.digest())
      .kv("setup_s", r.setupS)
      .kv("setup_probe_s", r.setupProbeS)
      .kv("trace_build_s", r.traceBuildS)
      .kv("construct_s", r.constructS)
      .kv("restore_s", r.restoreS)
      .kv("wall_s", r.wallS)
      .kv("cpu_s", r.cpuS)
      .kv("operations", static_cast<double>(r.sim.operations))
      .kv("ops_net_sent", r.opsNetSent)
      .kv("model_mb", r.modelMb)
      .kv("hash_pair_ns", r.hashPairNs)
      .kv("avmon_query_ns", r.avmonQueryNs)
      .kv("trace_query_ns", r.traceQueryNs)
      .kv("probe_save_s", r.saveS)
      .kv("probe_restore_s", r.probeRestoreS)
      .kv("probe_snapshot_mb", r.snapshotMb)
      .kv("trace_overhead_s", r.traceOverheadS)
      .kv("spans", static_cast<double>(r.spans))
      .kv("peak_rss_mb", peakRssMb())
      .kv("peak_rss_reset", peakReset ? 1.0 : 0.0);
  std::string kinds;
  std::vector<double> wall, cpu, maint;
  for (const SectionTimes& t : r.sections) {
    kinds += t.kind;
    wall.push_back(t.wallS);
    cpu.push_back(t.cpuS);
    maint.push_back(t.maintS);
  }
  line.kv("sections", kinds)
      .kv("sec_wall_s", wall)
      .kv("sec_cpu_s", cpu)
      .kv("sec_maint_s", maint)
      .kv("probe_wall_s", r.probes.wallS)
      .kv("probe_cpu_s", r.probes.cpuS);
#define PERFBENCH_REP(f) line.kv(#f, m.f);
  PERFBENCH_COUNTERS(PERFBENCH_REP)
#undef PERFBENCH_REP
  line.print();
}

void printSim(const RepResult& r) {
  const SimOutcome& o = r.sim;
  JsonLine("sim")
      .kv("digest", o.digest())
      .kv("mean_degree", o.meanDegree)
      .kv("avmon_mae", o.avmonMae)
      .kv("operations", static_cast<double>(o.operations))
      .kv("anycasts", static_cast<double>(o.anycasts))
      .kv("anycasts_delivered", static_cast<double>(o.anycastsDelivered))
      .kv("multicasts", static_cast<double>(o.multicasts))
      .kv("multicasts_reached", static_cast<double>(o.multicastsReached))
      .kv("mc_eligible", o.mcEligible)
      .kv("mc_delivered", o.mcDelivered)
      .kv("mc_spam", o.mcSpam)
      .kv("inconsistent", static_cast<double>(o.inconsistent))
      .kv("late_ops", static_cast<double>(o.lateOps))
      .kv("max_lateness_ms", o.maxLatenessMs)
      .kv("end_min", o.endMinutes)
      .kv("effective_threads", static_cast<double>(r.effectiveThreads))
      .kv("anycast_lat_ms", o.anycastLatMs)
      .kv("anycast_hops", o.anycastHops)
      .kv("flood_p50_ms", median(o.floodMs))
      .kv("flood_deliveries", static_cast<double>(o.floodMs.size()))
      .kv("gossip_p50_ms", median(o.gossipMs))
      .print();
}

void printDescriptor(const Plan& plan) {
#ifdef AVMEM_SIMD
  const double simd = 1;
#else
  const double simd = 0;
#endif
  JsonLine("descriptor")
      .kv("compiler", std::string(PERFBENCH_COMPILER))
      .kv("build_type", std::string(PERFBENCH_BUILD_TYPE))
      .kv("avmem_simd", simd)
      .kv("threads_requested", static_cast<double>(plan.threads))
      .kv("sim_seed", std::to_string(plan.simSeed))
      .print();
}

}  // namespace

int main() {
  Plan plan;
  try {
    plan = readPlan(std::cin);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 2;
  }
  try {
    printDescriptor(plan);
    const core::SimulationConfig cfg = worldConfig(plan);
    Spans spans(plan.trace);

    // serve-ops: the warm world is produced once, by this build, and every
    // rep restores it from memory (no disk cache in the number).
    std::string checkpoint;
    if (plan.prewarmS > 0.0) {
      Scope span(spans, "prewarm", "bench", nullptr);
      core::AvmemSimulation warm(cfg);
      warm.warmup(sim::SimDuration::fromSeconds(plan.prewarmS));
      const auto t0 = Clock::now();
      std::ostringstream out;
      {
        Scope save(spans, "snapshot.save", "snapshot", &warm);
        warm.saveCheckpoint(out);
      }
      const double saveS = secondsBetween(t0, Clock::now());
      checkpoint = std::move(out).str();
      JsonLine("checkpoint")
          .kv("save_s", saveS)
          .kv("mb", static_cast<double>(checkpoint.size()) / (1024.0 * 1024.0))
          .print();
    }

    SpeedProbe probe;
    const std::string* warmState = checkpoint.empty() ? nullptr : &checkpoint;
    bool peakReset = false;
    const auto start = Clock::now();
    for (int i = 0; i < kMaxReps; ++i) {
      const auto repStart = Clock::now();
      // Extra setups (worlds discarded) before every rep, so setup_s is a
      // median of many, taken all through the run.
      for (int k = 0; k < plan.setupReps; ++k) {
        RepResult r;
        Scope span(spans, "setup", "bench", nullptr);
        setUp(cfg, warmState, spans, probe, r);
        JsonLine("setup")
            .kv("setup_s", r.setupS)
            .kv("probe_s", r.setupProbeS)
            .print();
      }
      if (i == 0) peakReset = resetPeakRss();
      const std::size_t spans0 = spans.spans().size();
      const double overhead0 = spans.overheadSeconds();
      RepResult r = runRep(plan, cfg, warmState, spans, probe);
      r.spans = spans.spans().size() - spans0;
      r.traceOverheadS = spans.overheadSeconds() - overhead0;
      printRep(i, r, peakReset);
      if (i == 0) printSim(r);
      // Stop when another rep as long as this one would overrun the budget.
      const auto now = Clock::now();
      if (i + 1 >= plan.minReps && secondsBetween(start, now) +
                                           secondsBetween(repStart, now) >
                                       plan.seconds) {
        break;
      }
    }
    if (plan.trace) spans.write(plan.traceOut);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
