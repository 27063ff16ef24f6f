#include "trace/overnet_generator.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "trace/markov_churn.hpp"

namespace avmem::trace {

// The on/off chain math (stationary on-fraction a, mean on-run meanOn) is
// shared with the streaming backend: markovRatesFor in markov_churn.hpp.

double sampleIntrinsicAvailability(const OvernetTraceConfig& config,
                                   sim::Rng& rng) {
  const double total = config.lowWeight + config.midWeight +
                       config.highWeight + config.serverWeight;
  if (total <= 0.0) {
    throw std::invalid_argument("OvernetTraceConfig: zero mixture weight");
  }
  double u = rng.uniform() * total;
  if (u < config.lowWeight) {
    return rng.uniform(config.lowMin, config.lowMax);
  }
  u -= config.lowWeight;
  if (u < config.midWeight) {
    return rng.uniform(config.midMin, config.midMax);
  }
  u -= config.midWeight;
  if (u < config.highWeight) {
    return rng.uniform(config.highMin, config.highMax);
  }
  return rng.uniform(config.serverMin, config.serverMax);
}

ChurnTrace generateOvernetTrace(const OvernetTraceConfig& config) {
  if (config.hosts == 0 || config.epochs == 0) {
    throw std::invalid_argument("OvernetTraceConfig: empty trace");
  }
  sim::Rng root(config.seed);
  sim::Rng mixRng = root.fork("intrinsic-availability");

  const double epochsPerDay =
      sim::SimDuration::days(1).toMicros() /
      static_cast<double>(config.epochDuration.toMicros());

  std::vector<std::vector<std::uint8_t>> timeline(config.hosts);
  for (std::uint32_t h = 0; h < config.hosts; ++h) {
    const double a = sampleIntrinsicAvailability(config, mixRng);
    const MarkovRates rates = markovRatesFor(a, config.meanSessionEpochs);
    sim::Rng rng = root.fork("host-churn", h);

    auto& row = timeline[h];
    row.resize(config.epochs);
    bool on = rng.chance(a);  // start from the stationary distribution
    for (std::uint32_t e = 0; e < config.epochs; ++e) {
      row[e] = on ? 1 : 0;
      // Diurnal cycle: join rate peaks mid-day, dips at night.
      double q = rates.qOn;
      if (config.diurnalAmplitude > 0.0 && epochsPerDay > 0.0) {
        const double phase = 2.0 * std::numbers::pi *
                             (static_cast<double>(e) / epochsPerDay);
        q = std::clamp(
            q * (1.0 + config.diurnalAmplitude * std::sin(phase)), 0.0, 1.0);
      }
      if (on) {
        if (rng.chance(rates.pOff)) on = false;
      } else {
        if (rng.chance(q)) on = true;
      }
    }
  }

  return ChurnTrace(std::move(timeline), config.epochDuration);
}

}  // namespace avmem::trace
