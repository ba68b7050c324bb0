// The benchmark's own arithmetic: percentiles, medians, the sustained-rate
// rule and zero-safe ratios. Header-only and free of mspar types so the
// self-test (tests/selftest.cpp) checks exactly what the benchmark reports.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile needs at least this many samples strictly beyond its rank
/// before the benchmark will report it (p99 needs n >= 1000).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile: the ceil(q * n)-th smallest sample, q in (0, 1].
/// Throws std::domain_error when fewer than kMinSamplesBeyond samples lie
/// beyond that rank, so a tail figure is never read off a handful of points.
inline double nearest_rank(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile rank outside (0, 1]");
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  if (n == 0 || rank == 0 || n - rank < kMinSamplesBeyond)
    throw std::domain_error("percentile " + std::to_string(q) + " of " +
                            std::to_string(n) + " samples has fewer than " +
                            std::to_string(kMinSamplesBeyond) +
                            " samples beyond it");
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a host-timing sample (mean of the middle two when even).
inline double median(std::vector<double> samples) {
  if (samples.empty()) throw std::domain_error("median of no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

/// num / den, or 0 when den is 0 (no transfers, no candidates, no idle):
/// a layer that did no work reports a zero ratio, never inf or NaN.
inline double ratio_or_zero(double num, double den) {
  return den == 0.0 ? 0.0 : num / den;
}

/// Latency limit of the serving workloads' sustained-rate rule.
inline constexpr double kLatencySloS = 0.25;

/// No-backlog rule. Completion latencies are taken in arrival order and cut
/// into quarters. A queue that keeps up has the same latency for late
/// arrivals as for early ones; a queue that falls behind adds the backlog to
/// every later query. The backlog grows when the median latency of the last
/// quarter exceeds that of the first quarter by more than `slack_s` (the
/// batcher deadline: a query may wait that long by design) plus half the
/// first quarter's median.
inline bool backlog_grows(const std::vector<double>& latency_by_arrival,
                          double slack_s) {
  const std::size_t quarter = latency_by_arrival.size() / 4;
  if (quarter == 0)
    throw std::domain_error("backlog rule needs at least 4 latencies");
  const auto first = latency_by_arrival.begin();
  const double head = median({first, first + static_cast<std::ptrdiff_t>(quarter)});
  const double tail =
      median({latency_by_arrival.end() - static_cast<std::ptrdiff_t>(quarter),
              latency_by_arrival.end()});
  return tail > 1.5 * head + slack_s;
}

/// One point of a rate sweep: offered rate plus the two rule inputs.
struct RatePoint {
  double rate_qps = 0.0;
  double p99_s = 0.0;
  bool backlog_grows = false;
};

/// The sustained rate of a rising rate sweep: the highest swept rate such
/// that it and every lower swept rate meet the latency limit without a
/// growing backlog (0 when the lowest rate fails). When the first failing
/// rate misses the latency limit, the result is interpolated linearly in
/// p99 between it and the last passing rate to where p99 reaches the limit,
/// so a latency change smaller than one sweep step still moves the figure.
inline double sustained_rate(const std::vector<RatePoint>& sweep,
                             double slo_s = kLatencySloS) {
  for (std::size_t k = 1; k < sweep.size(); ++k)
    if (!(sweep[k].rate_qps > sweep[k - 1].rate_qps))
      throw std::invalid_argument("rate sweep is not rising");
  auto passes = [&](const RatePoint& point) {
    return point.p99_s <= slo_s && !point.backlog_grows;
  };
  std::size_t k = 0;
  while (k < sweep.size() && passes(sweep[k])) ++k;
  if (k == 0) return 0.0;
  const RatePoint& last = sweep[k - 1];
  if (k == sweep.size() || sweep[k].p99_s <= slo_s) return last.rate_qps;
  const RatePoint& fail = sweep[k];
  const double share = (slo_s - last.p99_s) / (fail.p99_s - last.p99_s);
  return last.rate_qps + share * (fail.rate_qps - last.rate_qps);
}

}  // namespace perfbench
