// Table III reproduction: candidates evaluated per second as a function of
// processor size, for the largest configured database.
//
// Paper (2.65M microbial database):
//   p           8       16      32      64      128
//   cand/sec    41,429  76,057  159,220 271,294 522,331
// Shape to check: aggregate evaluation rate scales ~linearly with p (the
// paper calls this "likely the most interesting performance measure").
#include <iostream>

#include "bench/common.hpp"
#include "core/algorithm_a.hpp"
#include "util/str.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  msp::Cli cli("bench_table3_rate",
               "Table III: candidates evaluated per second vs processor size");
  // 300 queries, heavier than the sweep default, so the rate stays
  // compute-bound through p=128.
  msp::bench::add_common_options(cli, 300);
  cli.add_int("sequences", 16000, "database size (sequence count)");
  if (!cli.parse(argc, argv)) return 0;

  const auto query_count = static_cast<std::size_t>(cli.get_int("queries"));
  const auto sequences = static_cast<std::size_t>(cli.get_int("sequences"));
  auto procs = cli.get_int_list("procs");
  std::erase_if(procs, [](std::int64_t p) { return p < 8; });  // paper starts at 8

  const msp::bench::Workload workload = msp::bench::make_workload(
      sequences, query_count, static_cast<std::uint64_t>(cli.get_int("seed")));
  const std::string image = workload.image_of_first(sequences);
  const msp::SearchConfig config = msp::bench::bench_config();

  msp::Table table({"p", "run-time (s)", "candidates", "candidates/sec",
                    "scaling vs p=8"});
  double rate_p8 = 0.0;
  for (auto p : procs) {
    const msp::sim::Runtime runtime(static_cast<int>(p),
                                    msp::bench::bench_network(),
                                    msp::bench::bench_compute());
    const msp::ParallelRunResult result =
        msp::run_algorithm_a(runtime, image, workload.queries, config);
    const double seconds = result.report.total_time();
    const double rate = static_cast<double>(result.candidates) / seconds;
    if (rate_p8 == 0.0) rate_p8 = rate;
    table.add_row({std::to_string(p), msp::Table::cell(seconds),
                   msp::group_digits(result.candidates),
                   msp::group_digits(static_cast<std::uint64_t>(rate)),
                   msp::Table::cell(rate / rate_p8) + "x"});
  }

  std::cout << "== Table III: candidate evaluation rate ("
            << msp::group_digits(sequences) << "-sequence database, "
            << query_count << " queries) ==\n";
  table.print(std::cout);
  std::cout << "paper: 41,429 -> 522,331 cand/s from p=8 to p=128 "
               "(12.6x over 16x more processors)\n";
  return 0;
}
