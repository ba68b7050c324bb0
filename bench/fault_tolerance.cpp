// Fault-tolerance overhead: what does surviving a fault cost, in simulated
// run-time, relative to the failure-free baseline?
//
// For each p we run Algorithm A under four schedules — none, a straggler
// (4x compute / 2x network on one rank), transient transfer failures (three
// retried pulls), and a mid-ring rank crash (survivors re-partition the dead
// rank's query block and re-pull its shard from the ring replica) — plus the
// master–worker baseline's crash recovery (the dead worker's in-flight batch
// is re-queued). Output verification against the serial engine runs on every
// row, and the process exits non-zero when any row is not exact: a recovery
// that loses hits fails here before it shows up in a paper table.
#include <iostream>
#include <string>

#include "bench/common.hpp"
#include "core/algorithm_a.hpp"
#include "core/master_worker.hpp"
#include "core/search_engine.hpp"
#include "io/fasta.hpp"
#include "util/table.hpp"

namespace {

bool hits_match(const msp::QueryHits& got, const msp::QueryHits& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t q = 0; q < want.size(); ++q) {
    if (got[q].size() != want[q].size()) return false;
    for (std::size_t h = 0; h < want[q].size(); ++h)
      if (!(got[q][h] == want[q][h])) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  msp::Cli cli("bench_fault_tolerance",
               "overhead of stragglers, transient failures and crash "
               "recovery vs the failure-free run");
  msp::bench::add_common_options(cli);
  cli.add_int("size", 8000, "database size (sequences)");
  if (!cli.parse(argc, argv)) return 0;

  auto procs = cli.get_int_list("procs");
  std::erase_if(procs, [](std::int64_t p) { return p < 2; });
  const auto query_count = static_cast<std::size_t>(cli.get_int("queries"));
  const auto size = static_cast<std::size_t>(cli.get_int("size"));

  const msp::bench::Workload workload = msp::bench::make_workload(
      size, query_count, static_cast<std::uint64_t>(cli.get_int("seed")));
  const std::string image = workload.image_of_first(size);
  const msp::SearchConfig config = msp::bench::bench_config();
  const msp::QueryHits serial =
      msp::SearchEngine(config).search(msp::read_fasta_string(image),
                                       workload.queries);

  struct Scenario {
    const char* name;
    bool master_worker;
    msp::sim::FaultModel (*schedule)(int p);
  };
  const Scenario scenarios[] = {
      {"A baseline", false, [](int) { return msp::sim::FaultModel{}; }},
      {"A straggler", false,
       [](int) {
         msp::sim::FaultModel f;
         f.straggle(1, 4.0, 2.0);
         return f;
       }},
      {"A transient", false,
       [](int) {
         msp::sim::FaultModel f;
         f.fail_transfers(1, {0, 1, 2});
         return f;
       }},
      {"A crash", false,
       [](int p) {
         msp::sim::FaultModel f;
         f.crash(1, p / 2);
         return f;
       }},
      {"MW baseline", true, [](int) { return msp::sim::FaultModel{}; }},
      {"MW crash", true,
       [](int) {
         msp::sim::FaultModel f;
         f.crash(1, 0);
         return f;
       }},
  };

  msp::Table table({"scenario", "p", "time (s)", "overhead %", "retries",
                    "recovery (s)", "exact"});
  bool all_exact = true;
  for (auto p : procs) {
    double a_baseline = 0.0;
    double mw_baseline = 0.0;
    for (const Scenario& scenario : scenarios) {
      if (scenario.master_worker && p < 3 &&
          std::string(scenario.name) == "MW crash")
        continue;  // killing the only worker is (correctly) unrecoverable
      msp::sim::Runtime runtime(
          static_cast<int>(p), msp::bench::bench_network(),
          msp::bench::bench_compute(), scenario.schedule(static_cast<int>(p)));
      // Trace the crash-recovery timeline at the largest p (one file per
      // faulty scenario; the fault lane shows retries/crash/re-search).
      msp::bench::TraceGate trace(runtime, cli.get_string("trace-out"),
                                  p == procs.back() &&
                                      std::string(scenario.name) == "A crash");
      const msp::ParallelRunResult result =
          scenario.master_worker
              ? msp::run_master_worker(runtime, image, workload.queries, config)
              : msp::run_algorithm_a(runtime, image, workload.queries, config);
      trace.write(result.report);
      const double time = result.report.total_time();
      double& baseline = scenario.master_worker ? mw_baseline : a_baseline;
      if (baseline == 0.0) baseline = time;
      const double overhead = 100.0 * (time - baseline) / baseline;
      const bool exact = hits_match(result.hits, serial);
      all_exact = all_exact && exact;
      table.add_row({scenario.name, std::to_string(p),
                     msp::Table::cell(time), msp::Table::cell(overhead, 1),
                     std::to_string(result.report.total_transfer_retries()),
                     msp::Table::cell(result.report.total_recovery_seconds()),
                     exact ? "yes" : "NO"});
    }
  }

  std::cout << "== Fault-tolerance overhead (vs failure-free baseline) ==\n";
  table.print(std::cout);
  std::cout << "'exact' = hit lists identical to the serial engine despite "
               "the injected faults\n";
  if (!all_exact) {
    std::cerr << "bench_fault_tolerance: a row's hits differ from the serial "
                 "engine\n";
    return 1;
  }
  return 0;
}
