// The benchmark's statistics: percentiles with a sample-count rule, the
// seeded Zipf sampler, the read-capacity step search and the failure
// accounting. Pure code, no sockets, so selftest.cpp can pin every rule on
// synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace sdnsbench {

/// SplitMix64: the one generator every seeded input is drawn from, so the
/// same seed gives the same inputs on every platform and standard library.
class SeededRng {
 public:
  SeededRng(std::uint64_t seed, std::uint64_t stream)
      : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 0x632BE59BD9B4E019ULL)) {
    next();
  }
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("Zipf over zero items");
    double sum = 0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
    cdf_.back() = 1.0;
  }
  std::size_t draw(SeededRng& rng) const {
    const double u = rng.unit();
    return static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

/// Fewest samples for which percentile `q` (0 < q < 1) has at least ten
/// samples beyond it: n * (1 - q) >= 10.
inline std::size_t min_samples_for(double q) {
  return static_cast<std::size_t>(std::ceil(10.0 / (1.0 - q) - 1e-9));
}

/// Percentile `q` of `values` (nearest rank), or nullopt when fewer than
/// ten samples lie beyond it. Sorts `values` in place.
inline std::optional<double> percentile(std::vector<double>& values, double q) {
  if (values.empty() || values.size() < min_samples_for(q)) return std::nullopt;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

inline double mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

/// Operations attempted versus failed, per kind. Every operation the driver
/// starts is counted once, as answered or as failed.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t answered = 0;  ///< answered correctly
  std::uint64_t failed = 0;

  void ok() { ++attempted, ++answered; }
  void fail() { ++attempted, ++failed; }
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    answered += o.answered;
    failed += o.failed;
    return *this;
  }
  bool consistent() const { return answered + failed == attempted; }
  double fail_share() const {
    return attempted ? static_cast<double>(failed) / static_cast<double>(attempted)
                     : 0.0;
  }
};

/// What one step of the capacity search observed at its offered rate.
struct StepOutcome {
  double offered = 0;
  double answered_share = 0;  ///< correct answers / queries sent
  double answered_per_s = 0;  ///< correct answers per second of the step
  double p99_ms = 0;
  double first_half_p50_ms = 0;   ///< queries scheduled in the first half
  double second_half_p50_ms = 0;  ///< ... and in the second half
};

struct StepLimits {
  double min_answered_share = 0.999;
  double max_p99_ms = 10.0;
  /// The backlog "grows" when the second half's median exceeds the first
  /// half's by this factor plus `backlog_slack_ms`.
  double backlog_factor = 1.5;
  double backlog_slack_ms = 0.2;
};

inline bool step_passes(const StepOutcome& s, const StepLimits& lim) {
  return s.answered_share >= lim.min_answered_share && s.p99_ms <= lim.max_p99_ms &&
         s.second_half_p50_ms <=
             lim.backlog_factor * s.first_half_p50_ms + lim.backlog_slack_ms;
}

struct SearchResult {
  double max_rate = 0;  ///< highest passing offered rate (0: none passed)
  double max_answered = 0;  ///< answered_per_s of that step
  std::vector<StepOutcome> steps;
};

/// Step search for the highest offered rate that passes `lim`: grow the rate
/// by `growth` from `start` until a step fails (or `ceiling` is reached),
/// then bisect between the last pass and the first failure, `refine` times.
/// `probe(rate)` runs one step.
inline SearchResult step_search(const std::function<StepOutcome(double)>& probe,
                                double start, double growth, unsigned refine,
                                double ceiling, const StepLimits& lim = {}) {
  SearchResult out;
  const auto run = [&](double rate) {
    out.steps.push_back(probe(rate));
    const bool ok = step_passes(out.steps.back(), lim);
    if (ok && rate >= out.max_rate) {
      out.max_rate = rate;
      out.max_answered = out.steps.back().answered_per_s;
    }
    return ok;
  };
  double pass = 0, fail = 0;
  double rate = std::min(start, ceiling);
  if (run(rate)) {
    pass = rate;
    while (pass < ceiling) {
      rate = std::min(pass * growth, ceiling);
      if (!run(rate)) {
        fail = rate;
        break;
      }
      pass = rate;
    }
  } else {
    // A failing first step searches downwards for a passing floor.
    fail = rate;
    for (unsigned i = 0; i < 6 && pass == 0; ++i) {
      rate = fail / growth;
      (run(rate) ? pass : fail) = rate;
    }
  }
  if (pass > 0 && fail > 0) {
    for (unsigned i = 0; i < refine; ++i) {
      const double mid = 0.5 * (pass + fail);
      (run(mid) ? pass : fail) = mid;
    }
  }
  return out;
}

}  // namespace sdnsbench
