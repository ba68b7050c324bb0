// The four benchmark workloads and the run loop that measures them.
//
// A run generates its inputs from the seed into files, loads them back
// through mspar's io layer (the set-up the user pays), computes the serial
// SearchEngine::search oracle once, then repeats the workload's driver call
// until the time budget is spent. Every repetition is checked hit-for-hit
// against the oracle and must reproduce the first repetition's simulated
// metrics exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { kPaperRing, kOpenSearch, kServeStream, kTenantMix };

const std::vector<Workload>& all_workloads();
const char* workload_name(Workload workload);
/// Throws std::invalid_argument on an unknown name.
Workload workload_from_name(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< queries submitted over every driver call
  std::uint64_t failed = 0;     ///< shed, or submitted to a call that threw
  std::vector<Metric> metrics;
};

struct RunOptions {
  std::uint64_t seed = 2009;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< where the generated input files are written
};

/// Measure one workload. With `trace` off the metrics are the end-to-end
/// ones; with it on, the per-layer ones from the traced pass. Progress and
/// a human-readable table go to `log`.
RunOutcome run_workload(Workload workload, const RunOptions& options,
                        std::ostream& log);

}  // namespace perfbench
