// Self-tests for the benchmark's own arithmetic (src/metrics.hpp). run.py
// runs this before every measurement; a failure stops the benchmark.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::exception&) {
    return true;
  }
  return false;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int k = n; k >= 1; --k) v.push_back(k);  // unsorted on purpose
  return v;
}

void test_nearest_rank() {
  using perfbench::nearest_rank;
  // 1000 samples: p99 is the 990th smallest, with exactly 10 beyond it.
  check(nearest_rank(one_to(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  check(nearest_rank(one_to(1200), 0.99) == 1188.0, "p99 of 1..1200 is 1188");
  check(nearest_rank(one_to(21), 0.50) == 11.0, "p50 of 1..21 is 11");
  check(nearest_rank(one_to(20), 0.50) == 10.0, "p50 of 1..20 is 10");
  // 999 samples leave only 9 beyond p99: refused.
  check(throws([] { nearest_rank(one_to(999), 0.99); }),
        "p99 of 999 samples is refused");
  check(throws([] { nearest_rank(one_to(256), 0.99); }),
        "p99 of 256 samples is refused");
  check(throws([] { nearest_rank(one_to(19), 0.50); }),
        "p50 of 19 samples is refused (9 beyond)");
  check(throws([] { nearest_rank({}, 0.50); }), "empty sample is refused");
  check(throws([] { nearest_rank(one_to(100), 0.0); }), "q = 0 is refused");
  check(throws([] { nearest_rank(one_to(100), 1.5); }), "q > 1 is refused");
}

void test_median() {
  using perfbench::median;
  check(median({3, 1, 2}) == 2.0, "odd median");
  check(median({4, 1, 3, 2}) == 2.5, "even median");
  check(throws([] { median({}); }), "median of nothing is refused");
}

void test_ratios() {
  using perfbench::ratio_or_zero;
  check(ratio_or_zero(5.0, 0.0) == 0.0, "no transfers: bytes ratio is 0");
  check(ratio_or_zero(0.0, 0.0) == 0.0, "no candidates: reuse ratio is 0");
  check(ratio_or_zero(2.14, 0.0) == 0.0, "no idle: reclaim ratio is 0");
  check(std::isfinite(ratio_or_zero(1.0, 0.0)), "zero base stays finite");
  check(ratio_or_zero(3.0, 4.0) == 0.75, "ordinary ratio");
}

/// A synthetic arrival-ordered latency table: `base` for every query plus
/// `growth` seconds per query of backlog.
std::vector<double> latency_table(double base, double growth) {
  std::vector<double> lat;
  for (int k = 0; k < 1200; ++k)
    lat.push_back(base + 0.001 * (k % 7) + growth * k);
  return lat;
}

void test_backlog_rule() {
  using perfbench::backlog_grows;
  check(!backlog_grows(latency_table(0.03, 0.0), 0.02), "flat: no backlog");
  check(backlog_grows(latency_table(0.03, 0.0005), 0.02),
        "linear growth: backlog grows");
  // Early warm-up faster than the steady state is not a backlog.
  std::vector<double> warm = latency_table(0.05, 0.0);
  for (int k = 0; k < 100; ++k) warm[static_cast<std::size_t>(k)] = 0.01;
  check(!backlog_grows(warm, 0.02), "warm-up dip: no backlog");
  check(throws([] { backlog_grows({0.1, 0.2, 0.3}, 0.02); }),
        "fewer than 4 latencies is refused");
}

using perfbench::RatePoint;

/// An explicit 0.8 s limit keeps these cases independent of kLatencySloS.
double sustained_at_0_8(const std::vector<RatePoint>& sweep) {
  return perfbench::sustained_rate(sweep, 0.8);
}

void test_sustained_rate() {
  const std::vector<RatePoint> sweep = {
      {200, 0.30, false}, {300, 0.40, false}, {400, 0.60, false},
      {500, 0.70, false}, {600, 0.90, false}, {700, 0.50, false}};
  // 600 misses the limit: p99 crosses 0.8 s halfway from 500 to 600.
  // 700 passing again does not count.
  check(std::fabs(sustained_at_0_8(sweep) - 550.0) < 1e-9,
        "interpolated to the p99 crossing before the first miss");
  std::vector<RatePoint> backlog = sweep;
  backlog[3].backlog_grows = true;
  // 500 fails on backlog alone: no interpolation, 400 stands.
  check(sustained_at_0_8(backlog) == 400.0, "growing backlog fails a rate");
  std::vector<RatePoint> all_pass = sweep;
  all_pass.resize(4);
  check(sustained_at_0_8(all_pass) == 500.0, "every rate passes: top rate");
  check(sustained_at_0_8({{200, 0.9, false}}) == 0.0, "nothing sustained");
  check(sustained_at_0_8({{200, 0.8, false}}) == 200.0, "limit is inclusive");
  check(sustained_at_0_8({}) == 0.0, "empty sweep sustains nothing");
  check(throws([] {
          sustained_at_0_8({{300, 0.1, false}, {200, 0.1, false}});
        }),
        "unsorted sweep is refused");
}

}  // namespace

int main() {
  test_nearest_rank();
  test_median();
  test_ratios();
  test_backlog_rule();
  test_sustained_rate();
  if (failures != 0) return 1;
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
