// mspar_perfbench: measure one benchmark workload and print its metrics.
//
//   mspar_perfbench --workload paper-ring --seed 2009 --seconds 10 --trace 0
//
// The progress log and a metric table go to stderr; stdout carries one JSON
// line: {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exits 1 when any hit differs from the serial engine, a driver call threw,
// or a simulated metric failed to repeat.
#include <cstdio>
#include <iostream>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

namespace {

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  msp::Cli cli("mspar_perfbench", "mspar end-to-end and per-layer benchmark");
  cli.add_string("workload", "paper-ring",
                 "paper-ring | open-search | serve-stream | tenant-mix");
  cli.add_int("seed", 2009, "input generator seed");
  cli.add_double("seconds", 10.0, "measurement budget (host seconds)");
  cli.add_int("trace", 0, "1 = traced pass with per-layer metrics");
  cli.add_string("work-dir", ".bench_build/perfbench-inputs",
                 "directory for the generated input files");
  try {
    if (!cli.parse(argc, argv)) return 0;
    perfbench::RunOptions options;
    options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    options.seconds = cli.get_double("seconds");
    options.trace = cli.get_int("trace") != 0;
    options.work_dir = cli.get_string("work-dir");
    const perfbench::RunOutcome outcome = perfbench::run_workload(
        perfbench::workload_from_name(cli.get_string("workload")), options,
        std::cerr);

    std::string json = "{\"correct\": ";
    json += outcome.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (std::size_t k = 0; k < outcome.metrics.size(); ++k) {
      const perfbench::Metric& metric = outcome.metrics[k];
      if (k > 0) json += ", ";
      json += json_string(metric.name) + ": {\"value\": " +
              json_number(metric.value) +
              ", \"unit\": " + json_string(metric.unit) + "}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "mspar_perfbench: " << error.what() << "\n";
    return 2;
  }
}
