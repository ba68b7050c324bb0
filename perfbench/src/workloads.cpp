#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/algorithm_a.hpp"
#include "core/candidate_index.hpp"
#include "core/fragment_index.hpp"
#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "io/mgf.hpp"
#include "metrics.hpp"
#include "sched/scheduler.hpp"
#include "serve/service.hpp"
#include "simmpi/trace_validate.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// User + system CPU seconds of every thread of this process so far.
double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

constexpr double kMiB = 1024.0 * 1024.0;
constexpr const char* kVirtualS = "virtual_s";
constexpr const char* kVirtualQps = "q/virtual_s";

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

/// Serving rates swept by serve-stream, in q/virtual s; latency is read at
/// kReportRate and the saturated ring throughput at the last rate.
constexpr double kRates[] = {400, 1000, 1200, 1400, 1600};
constexpr double kReportRate = 400;
/// Virtual second at which serving traffic starts: after the ring's set-up
/// (about 0.6 virtual s at 4,000 sequences and p=16), so latency measures
/// the running service rather than queries queued behind its start.
constexpr double kTrafficStartS = 1.5;
/// tenant-mix: the serve tenant owns queries [0, kServeQueries), the batch
/// tenant the next kBatchQueries. A serve burst is one batch, so its 2,400
/// queries are 300 independent batch latencies.
constexpr std::size_t kServeQueries = 2400;
constexpr std::size_t kBatchQueries = 1200;
/// Batcher deadline of both serving workloads (also the no-backlog slack).
constexpr double kBatchWaitS = 0.020;
/// Set-up loads measured before the first driver call (one more follows
/// every measured pass).
constexpr int kSetupRepeats = 5;

struct Spec {
  int instances = 1;  ///< independent input sets; sim metrics are medians
  std::size_t sequences = 0;
  std::size_t queries = 0;
  int p = 0;
  msp::SearchConfig config;
  msp::sim::NetworkModel network;
};

/// The paper's testbed: 8 ranks per node on 24 nodes, a 2009 TCP MPI stack
/// (~22 MB/s effective per stream). The same values as bench/common.hpp's
/// bench_network(), held here so that no change outside this directory can
/// change what the benchmark measures.
msp::sim::NetworkModel paper_network() {
  msp::sim::NetworkModel network;
  network.latency_s = 50e-6;
  network.seconds_per_byte = 4.5e-8;
  network.shm_latency_s = 1e-6;
  network.shm_seconds_per_byte = 0.4e-9;
  network.ranks_per_node = 8;
  network.node_count = 24;
  return network;
}

Spec spec_of(Workload workload) {
  Spec spec;
  spec.config.tolerance_da = 3.0;
  spec.config.tau = 10;
  spec.config.min_candidate_length = 6;
  spec.config.max_candidate_length = 60;
  spec.config.model = msp::ScoreModel::kLikelihood;
  spec.config.kernel_threads = 1;
  spec.network = paper_network();
  switch (workload) {
    case Workload::kPaperRing:
      spec.sequences = 16000;
      spec.queries = 1210;
      spec.p = 64;
      break;
    case Workload::kOpenSearch:
      // The slowest rank's query block sets the makespan; 500 queries per
      // rank keep that maximum steady across seeds.
      spec.sequences = 4000;
      spec.queries = 8000;
      spec.p = 16;
      spec.config.open_window_da = 200.0;
      spec.config.min_fragment_votes = 4;
      spec.config.candidate_source = msp::CandidateSourceKind::kFragmentIndex;
      // A contemporary link (~500 MB/s per stream): on the 2009 wire the
      // postings shipped with each shard would make this a network test.
      spec.network.latency_s = 10e-6;
      spec.network.seconds_per_byte = 2e-9;
      break;
    case Workload::kServeStream:
      spec.instances = 8;
      spec.sequences = 4000;
      spec.queries = 1200;
      spec.p = 16;
      spec.config.tolerance_da = 0.05;
      break;
    case Workload::kTenantMix:
      spec.instances = 6;
      spec.sequences = 4000;
      spec.queries = kServeQueries + kBatchQueries;
      spec.p = 16;
      spec.config.tolerance_da = 0.05;
      break;
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Inputs: generated into files from the seed, then loaded through io
// ---------------------------------------------------------------------------

struct InputFiles {
  std::string fasta;
  std::string mgf;
};

/// Generate the workload's database and queries from `seed` and write them
/// as FASTA and MGF. Nothing but the two files leaves this function.
InputFiles generate_inputs(Workload workload, const Spec& spec,
                           std::uint64_t seed, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string stem =
      dir + "/" + workload_name(workload) + "-" + std::to_string(seed);
  InputFiles files{stem + ".fasta", stem + ".mgf"};

  msp::ProteinGenOptions db_options = msp::microbial_like_options(1.0);
  db_options.sequence_count = spec.sequences;
  db_options.seed = seed;
  const msp::ProteinDatabase db = msp::generate_proteins(db_options);

  msp::QueryGenOptions q_options;
  q_options.query_count = spec.queries;
  q_options.seed = seed + 1;
  q_options.digest.min_length = 6;
  q_options.digest.max_length = 30;
  msp::write_fasta_file(files.fasta, db);
  msp::write_mgf_file(files.mgf,
                      msp::spectra_of(msp::generate_queries(db, q_options)));
  return files;
}

struct Inputs {
  std::string fasta_image;
  msp::ProteinDatabase db;
  std::vector<msp::Spectrum> queries;
  double fasta_s = 0.0;  ///< read the bytes + read_fasta_string
  double mgf_s = 0.0;    ///< read_mgf_file
};

/// What mspar_cli does before its first search call.
Inputs load_inputs(const InputFiles& files) {
  Inputs inputs;
  const Clock::time_point start = Clock::now();
  {
    std::ifstream in(files.fasta, std::ios::binary);
    if (!in) throw std::runtime_error("cannot open " + files.fasta);
    inputs.fasta_image.assign(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
  }
  inputs.db = msp::read_fasta_string(inputs.fasta_image);
  inputs.fasta_s = seconds_since(start);
  const Clock::time_point mgf_start = Clock::now();
  inputs.queries = msp::read_mgf_file(files.mgf);
  inputs.mgf_s = seconds_since(mgf_start);
  return inputs;
}

// ---------------------------------------------------------------------------
// One driver call ("unit") per input set
// ---------------------------------------------------------------------------

/// Latency samples of serve-stream at one swept rate.
struct RateSample {
  double rate_qps = 0.0;
  std::vector<double> latency;  ///< completed queries, in arrival order
  bool backlog_grows = false;

  friend bool operator==(const RateSample&, const RateSample&) = default;
};

/// The virtual-clock results of one driver call. They are deterministic, so
/// every run of one input set must produce an equal Sim, traced or not.
struct Sim {
  double makespan_s = 0.0;
  std::vector<double> latency;    ///< per-query latency at the reported point
  std::vector<RateSample> sweep;  ///< serve-stream only
  /// Rates as queries over virtual seconds (sustained: unless swept).
  double sustained_queries = 0.0;
  double sustained_span_s = 0.0;
  double batch_queries = 0.0;
  double batch_span_s = 0.0;
  double peak_mib = 0.0;

  friend bool operator==(const Sim&, const Sim&) = default;
};

/// What one unit measured; `layers` and `note` are filled for traced units.
struct Unit {
  double host_cpu_s = 0.0;
  Sim sim;
  std::vector<Metric> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;  ///< completed queries whose hits differ
  std::string problem;           ///< thrown error or invalid trace
  std::string note;              ///< human-readable detail for the log
};

/// One independently generated input set of a workload, with its oracle.
struct Instance {
  std::uint64_t seed = 0;
  InputFiles files;
  Inputs inputs;
  msp::QueryHits oracle;
};

/// Queries whose hits differ from the oracle's; only `completed` ones count
/// when given (a shed query has no hits and is counted as failed instead).
std::uint64_t count_mismatches(const msp::QueryHits& hits,
                               const msp::QueryHits& oracle,
                               const std::vector<bool>* completed = nullptr) {
  std::uint64_t mismatched = 0;
  for (std::size_t q = 0; q < oracle.size(); ++q) {
    if (completed != nullptr && !(*completed)[q]) continue;
    if (q >= hits.size() || hits[q] != oracle[q]) ++mismatched;
  }
  return mismatched;
}

/// Completed queries' latencies from the scheduled arrival, in query order
/// over [begin, end); marks them in `completed`.
std::vector<double> completed_latency(
    const std::vector<msp::serve::QueryOutcome>& outcomes, std::size_t begin,
    std::size_t end, std::vector<bool>& completed) {
  std::vector<double> latency;
  for (std::size_t q = begin; q < end; ++q) {
    const msp::serve::QueryOutcome& o = outcomes[q];
    if (o.shed || o.complete_s < 0) continue;
    completed[q] = true;
    latency.push_back(o.complete_s - o.arrival_s);
  }
  return latency;
}

/// Per-layer metrics every workload reads off its representative RunReport:
/// the kernel's counters, the transport's time buckets and the router's
/// audit.
void add_report_layers(std::vector<Metric>& out,
                       const msp::sim::RunReport& report) {
  const double evaluated =
      static_cast<double>(report.sum_counter("candidates"));
  const double prefiltered =
      static_cast<double>(report.sum_counter("prefiltered"));
  const double ions = static_cast<double>(report.sum_counter("ions"));
  out.push_back({"engine.candidates_evaluated", evaluated, "count"});
  out.push_back({"engine.candidates_prefiltered", prefiltered, "count"});
  out.push_back({"engine.ions_built", ions, "count"});
  out.push_back({"engine.ion_reuse",
                 ratio_or_zero(evaluated + prefiltered, ions), "ratio"});
  out.push_back({"engine.postings_scanned",
                 static_cast<double>(report.sum_counter("postings")), "count"});

  double compute = 0, residual = 0, sync = 0, io = 0, bytes = 0;
  const msp::sim::RankStats* crit = nullptr;
  for (const msp::sim::RankStats& rank : report.ranks) {
    compute += rank.compute_seconds;
    residual += rank.residual_comm_seconds;
    sync += rank.sync_wait_seconds;
    io += rank.io_seconds;
    bytes += static_cast<double>(rank.bytes_received);
    if (crit == nullptr || rank.total_time > crit->total_time) crit = &rank;
  }
  out.push_back({"simmpi.compute_s", compute, kVirtualS});
  out.push_back({"simmpi.residual_s", residual, kVirtualS});
  out.push_back({"simmpi.sync_wait_s", sync, kVirtualS});
  out.push_back({"simmpi.io_s", io, kVirtualS});
  out.push_back({"simmpi.bytes_moved", bytes, "bytes"});
  out.push_back(
      {"simmpi.masking_efficiency", report.masking_efficiency(), "ratio"});
  out.push_back({"simmpi.residual_over_compute",
                 report.mean_residual_over_compute(), "ratio"});
  out.push_back({"simmpi.crit_compute_s",
                 crit != nullptr ? crit->compute_seconds : 0.0, kVirtualS});
  out.push_back({"simmpi.crit_wait_s",
                 crit != nullptr
                     ? crit->residual_comm_seconds + crit->sync_wait_seconds
                     : 0.0,
                 kVirtualS});
  out.push_back({"simmpi.retries",
                 static_cast<double>(report.total_transfer_retries()),
                 "count"});

  const double visited =
      static_cast<double>(report.sum_counter("route_steps_visited"));
  const double skipped =
      static_cast<double>(report.sum_counter("route_steps_skipped"));
  out.push_back({"route.steps_visited", visited, "count"});
  out.push_back({"route.steps_skipped", skipped, "count"});
  out.push_back({"route.skip_ratio",
                 ratio_or_zero(skipped, visited + skipped), "ratio"});
}

/// Ring-step segment durations of the slowest rank, read from the
/// per-iteration CSV (batch drivers mark "A2 ring step s", the serving ring
/// "serve step s").
std::vector<double> critical_rank_steps(const msp::sim::RunReport& report) {
  const auto slowest = std::max_element(
      report.ranks.begin(), report.ranks.end(),
      [](const msp::sim::RankStats& a, const msp::sim::RankStats& b) {
        return a.total_time < b.total_time;
      });
  if (slowest == report.ranks.end()) return {};
  std::vector<double> steps;
  std::istringstream csv(report.to_iteration_csv());
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    std::vector<std::string> cells;
    std::stringstream row(line);
    for (std::string cell; std::getline(row, cell, ',');)
      cells.push_back(cell);
    if (cells.size() < 5 || std::stoi(cells[0]) != slowest->rank) continue;
    const std::string& label = cells[2];
    if (label.rfind("A2 ring step", 0) != 0 &&
        label.rfind("serve step", 0) != 0)
      continue;
    steps.push_back(std::stod(cells[4]) - std::stod(cells[3]));
  }
  return steps;
}

/// Validate the traced report's Chrome trace and add the slowest rank's
/// step summary; records a problem instead of throwing.
void add_trace_layers(Unit& unit, const msp::sim::RunReport& report) {
  const std::string problem =
      msp::sim::validate_chrome_trace(report.to_chrome_trace());
  if (!problem.empty()) unit.problem = "invalid Chrome trace: " + problem;
  const std::vector<double> steps = critical_rank_steps(report);
  const double step_p50 = steps.empty() ? 0.0 : median(steps);
  const double step_max =
      steps.empty() ? 0.0 : *std::max_element(steps.begin(), steps.end());
  unit.layers.push_back(
      {"simmpi.crit_steps", static_cast<double>(steps.size()), "count"});
  unit.layers.push_back({"simmpi.crit_step_p50_s", step_p50, kVirtualS});
  unit.layers.push_back({"simmpi.crit_step_max_s", step_max, kVirtualS});
  std::ostringstream note;
  note << "slowest rank's " << steps.size() << " ring steps (virtual s):";
  if (steps.size() <= 64)
    for (const double step : steps) note << ' ' << step;
  else
    note << " median " << step_p50 << ", max " << step_max;
  unit.note += note.str() + "\n";
}

msp::sim::Runtime make_runtime(const Spec& spec, bool traced) {
  msp::sim::Runtime runtime(spec.p, spec.network, msp::sim::ComputeModel{});
  runtime.enable_tracing(traced);
  return runtime;
}

/// Serving-layer metrics over the queries [begin, end) of one stream.
void add_serve_layers(std::vector<Metric>& out,
                      const std::vector<msp::serve::QueryOutcome>& outcomes,
                      std::size_t begin, std::size_t end, double batches,
                      int ring_steps, double shed, double idle_per_rank) {
  std::vector<double> queue_wait, ring_time;
  double redispatches = 0;
  for (std::size_t q = begin; q < end; ++q) {
    const msp::serve::QueryOutcome& o = outcomes[q];
    redispatches += o.redispatches;
    if (o.shed || o.complete_s < 0) continue;
    queue_wait.push_back(o.dispatch_s - o.arrival_s);
    ring_time.push_back(o.complete_s - o.dispatch_s);
  }
  out.push_back({"serve.batches", batches, "count"});
  out.push_back(
      {"serve.batch_size_mean",
       ratio_or_zero(static_cast<double>(queue_wait.size()), batches),
       "queries"});
  out.push_back({"serve.ring_steps", static_cast<double>(ring_steps), "count"});
  out.push_back(
      {"serve.queue_wait_p50_s", nearest_rank(queue_wait, 0.50), kVirtualS});
  out.push_back(
      {"serve.queue_wait_p99_s", nearest_rank(queue_wait, 0.99), kVirtualS});
  out.push_back(
      {"serve.ring_time_p99_s", nearest_rank(ring_time, 0.99), kVirtualS});
  out.push_back({"serve.idle_s", idle_per_rank, kVirtualS});
  out.push_back({"serve.shed", shed, "count"});
  out.push_back({"serve.redispatches", redispatches, "count"});
}

/// Zero-valued metrics of a layer the workload's path never enters.
void add_absent(
    std::vector<Metric>& out,
    std::initializer_list<std::pair<const char*, const char*>> names) {
  for (const auto& [name, unit] : names) out.push_back({name, 0.0, unit});
}

void add_serve_absent(std::vector<Metric>& out) {
  add_absent(out, {{"serve.batches", "count"},
                   {"serve.batch_size_mean", "queries"},
                   {"serve.ring_steps", "count"},
                   {"serve.queue_wait_p50_s", kVirtualS},
                   {"serve.queue_wait_p99_s", kVirtualS},
                   {"serve.ring_time_p99_s", kVirtualS},
                   {"serve.idle_s", kVirtualS},
                   {"serve.shed", "count"},
                   {"serve.redispatches", "count"}});
}

void add_sched_absent(std::vector<Metric>& out) {
  add_absent(out, {{"sched.backfill_chunks", "count"},
                   {"sched.backfill_busy_s", kVirtualS},
                   {"sched.reclaim_ratio", "ratio"},
                   {"sched.preemptions", "count"},
                   {"sched.batch_wait_s", kVirtualS}});
}

// ---- paper-ring / open-search: Algorithm A, closed batch -----------------

Unit run_batch(const Spec& spec, const Instance& inst, bool traced) {
  Unit unit;
  const std::size_t m = inst.inputs.queries.size();
  unit.attempted = m;
  const msp::sim::Runtime runtime = make_runtime(spec, traced);
  const double cpu0 = process_cpu_seconds();
  const msp::ParallelRunResult result = msp::run_algorithm_a(
      runtime, inst.inputs.fasta_image, inst.inputs.queries, spec.config);
  unit.host_cpu_s = process_cpu_seconds() - cpu0;
  unit.mismatched = count_mismatches(result.hits, inst.oracle);

  // A query's answer is reported when its owning rank finishes; every query
  // of a closed batch arrives at 0.
  const msp::sim::RunReport& report = result.report;
  Sim& sim = unit.sim;
  sim.latency.resize(m);
  for (int r = 0; r < report.p; ++r) {
    const msp::QueryRange block = msp::query_block(m, r, report.p);
    for (std::size_t q = block.begin; q < block.end; ++q)
      sim.latency[q] = report.ranks[static_cast<std::size_t>(r)].total_time;
  }
  sim.makespan_s = report.total_time();
  sim.sustained_queries = sim.batch_queries = static_cast<double>(m);
  sim.sustained_span_s = sim.batch_span_s = sim.makespan_s;
  sim.peak_mib = static_cast<double>(report.max_peak_memory()) / kMiB;
  if (traced) {
    add_report_layers(unit.layers, report);
    add_serve_absent(unit.layers);
    add_sched_absent(unit.layers);
    add_trace_layers(unit, report);
  }
  return unit;
}

// ---- serve-stream: run_service swept over arrival rates ------------------

msp::serve::ServiceOptions serve_options(std::uint64_t seed, double rate,
                                         std::size_t count) {
  msp::serve::ArrivalModel poisson;
  poisson.kind = msp::serve::ArrivalKind::kPoisson;
  poisson.rate_qps = rate;
  poisson.seed = seed;
  msp::serve::ServiceOptions options;
  options.arrivals.kind = msp::serve::ArrivalKind::kReplay;
  options.arrivals.replay_times = msp::serve::make_arrivals(poisson, count);
  for (double& time : options.arrivals.replay_times) time += kTrafficStartS;
  options.batch.max_batch = 8;
  options.batch.max_wait_s = kBatchWaitS;
  options.admission.max_outstanding = 512;
  options.admission.overload = msp::serve::OverloadPolicy::kDelay;
  options.mode = msp::serve::DispatchMode::kMultiBatchRing;
  options.mass_routing = true;
  return options;
}

Unit run_serve(const Spec& spec, const Instance& inst, bool traced) {
  Unit unit;
  Sim& sim = unit.sim;
  const std::size_t m = inst.inputs.queries.size();
  std::size_t peak_bytes = 0;
  for (const double rate : kRates) {
    const msp::sim::Runtime runtime = make_runtime(spec, traced);
    const double cpu0 = process_cpu_seconds();
    const msp::serve::ServiceResult result = msp::serve::run_service(
        runtime, inst.inputs.fasta_image, inst.inputs.queries, spec.config,
        serve_options(inst.seed, rate, m));
    unit.host_cpu_s += process_cpu_seconds() - cpu0;

    // Arrivals are non-decreasing in query order, so query order is
    // arrival order.
    std::vector<bool> completed(m, false);
    std::vector<double> latency =
        completed_latency(result.outcomes, 0, m, completed);
    unit.attempted += m;
    unit.failed += m - latency.size();
    unit.mismatched += count_mismatches(result.hits, inst.oracle, &completed);
    peak_bytes = std::max(peak_bytes, result.report.max_peak_memory());
    const double traffic_s = result.makespan_s - kTrafficStartS;
    if (rate == kRates[std::size(kRates) - 1]) {
      sim.batch_queries = static_cast<double>(latency.size());
      sim.batch_span_s = traffic_s;
    }
    if (rate == kReportRate) {
      sim.makespan_s = traffic_s;
      sim.latency = latency;
      if (traced) {
        add_report_layers(unit.layers, result.report);
        add_serve_layers(unit.layers, result.outcomes, 0, m,
                         static_cast<double>(result.batches),
                         result.ring_steps, static_cast<double>(result.shed),
                         result.report.serve_idle_seconds() / spec.p);
        add_sched_absent(unit.layers);
        add_trace_layers(unit, result.report);
      }
    }
    const bool grows = backlog_grows(latency, kBatchWaitS);
    sim.sweep.push_back({rate, std::move(latency), grows});
  }
  sim.peak_mib = static_cast<double>(peak_bytes) / kMiB;
  return unit;
}

// ---- tenant-mix: run_sched with a serve tenant and a batch tenant --------

msp::sched::SchedOptions sched_options(std::uint64_t seed, std::size_t m) {
  msp::sched::SchedOptions options;
  options.tenants = {{"frontend", 1.0, 0}, {"analytics", 1.0, 0}};
  msp::sched::JobSpec serve;
  serve.name = "stream";
  serve.tenant = "frontend";
  serve.kind = msp::sched::JobKind::kServe;
  serve.priority = msp::sched::Priority::kHigh;
  serve.submit_s = kTrafficStartS;
  serve.query_begin = 0;
  serve.query_end = kServeQueries;
  serve.arrivals.kind = msp::serve::ArrivalKind::kBurst;
  serve.arrivals.burst_size = 8;
  serve.arrivals.burst_gap_s = 0.2;
  serve.arrivals.seed = seed;
  serve.batch.max_batch = 8;
  serve.batch.max_wait_s = kBatchWaitS;
  serve.admission.max_outstanding = 512;
  options.jobs.push_back(serve);

  msp::sched::JobSpec batch;
  batch.name = "scan";
  batch.tenant = "analytics";
  batch.kind = msp::sched::JobKind::kBatch;
  batch.priority = msp::sched::Priority::kLow;
  batch.submit_s = kTrafficStartS;
  batch.query_begin = kServeQueries;
  batch.query_end = m;
  options.jobs.push_back(batch);
  options.chunk_queries = 8;
  options.max_inflight_chunks = 2;
  options.backfill = true;
  options.preempt = true;
  return options;
}

Unit run_mix(const Spec& spec, const Instance& inst, bool traced) {
  Unit unit;
  Sim& sim = unit.sim;
  const std::size_t m = inst.inputs.queries.size();
  unit.attempted = m;
  const msp::sim::Runtime runtime = make_runtime(spec, traced);
  const double cpu0 = process_cpu_seconds();
  const msp::sched::SchedResult result = msp::sched::run_sched(
      runtime, inst.inputs.fasta_image, inst.inputs.queries, spec.config,
      sched_options(inst.seed, m));
  unit.host_cpu_s = process_cpu_seconds() - cpu0;

  std::vector<bool> completed(m, false);
  sim.latency = completed_latency(result.outcomes, 0, kServeQueries, completed);
  completed_latency(result.outcomes, kServeQueries, m, completed);
  unit.mismatched = count_mismatches(result.hits, inst.oracle, &completed);
  const auto done = static_cast<std::size_t>(
      std::count(completed.begin(), completed.end(), true));
  unit.failed = m - done;

  const msp::sched::JobOutcome* batch = nullptr;
  for (const msp::sched::JobOutcome& job : result.jobs)
    if (job.kind == msp::sched::JobKind::kBatch) batch = &job;
  if (batch == nullptr) throw std::logic_error("tenant-mix has no batch job");

  sim.makespan_s = result.makespan_s - kTrafficStartS;
  sim.sustained_queries = static_cast<double>(done);
  sim.sustained_span_s = sim.makespan_s;
  sim.batch_queries = static_cast<double>(batch->queries_completed);
  sim.batch_span_s = batch->complete_s - batch->submit_s;
  sim.peak_mib = static_cast<double>(result.report.max_peak_memory()) / kMiB;
  if (traced) {
    const double idle_per_rank = result.report.serve_idle_seconds() / spec.p;
    add_report_layers(unit.layers, result.report);
    add_serve_layers(unit.layers, result.outcomes, 0, kServeQueries,
                     static_cast<double>(result.batches), result.ring_steps,
                     static_cast<double>(result.shed), idle_per_rank);
    unit.layers.push_back({"sched.backfill_chunks",
                           static_cast<double>(result.backfill_chunks),
                           "count"});
    unit.layers.push_back(
        {"sched.backfill_busy_s", result.backfill_busy_s, kVirtualS});
    unit.layers.push_back(
        {"sched.reclaim_ratio",
         ratio_or_zero(result.backfill_busy_s, idle_per_rank), "ratio"});
    unit.layers.push_back({"sched.preemptions",
                           static_cast<double>(result.preemptions), "count"});
    unit.layers.push_back(
        {"sched.batch_wait_s", batch->start_s - batch->submit_s, kVirtualS});
    add_trace_layers(unit, result.report);
  }
  return unit;
}

Unit run_instance(Workload workload, const Spec& spec, const Instance& inst,
                  bool traced) {
  try {
    switch (workload) {
      case Workload::kPaperRing:
      case Workload::kOpenSearch:
        return run_batch(spec, inst, traced);
      case Workload::kServeStream:
        return run_serve(spec, inst, traced);
      case Workload::kTenantMix:
        return run_mix(spec, inst, traced);
    }
  } catch (const std::exception& error) {
    Unit failed;
    failed.attempted = inst.inputs.queries.size();
    failed.failed = failed.attempted;
    failed.problem = error.what();
    return failed;
  }
  throw std::logic_error("unknown workload");
}

/// The simulated end-to-end metrics of one input set.
std::vector<Metric> simulated_metrics(const Sim& sim) {
  double sustained = sim.sustained_queries / sim.sustained_span_s;
  if (!sim.sweep.empty()) {
    std::vector<RatePoint> points;
    for (const RateSample& sample : sim.sweep)
      points.push_back({sample.rate_qps, nearest_rank(sample.latency, 0.99),
                        sample.backlog_grows});
    sustained = sustained_rate(points);
  }
  return {
      {"sim_makespan_s", sim.makespan_s, kVirtualS},
      {"sim_latency_p50_s", nearest_rank(sim.latency, 0.50), kVirtualS},
      {"sim_latency_p99_s", nearest_rank(sim.latency, 0.99), kVirtualS},
      {"sim_sustained_qps", sustained, kVirtualQps},
      {"sim_batch_qps", sim.batch_queries / sim.batch_span_s, kVirtualQps},
      {"peak_rank_mib", sim.peak_mib, "MiB"},
  };
}

/// serve-stream's sweep of one input set, for the log.
void print_sweep(std::ostream& log, const Sim& sim) {
  for (const RateSample& sample : sim.sweep)
    log << "  rate " << sample.rate_qps << " q/s: p50 "
        << nearest_rank(sample.latency, 0.50) << " p99 "
        << nearest_rank(sample.latency, 0.99) << " virtual s, backlog "
        << (sample.backlog_grows ? "grows" : "steady") << "\n";
}

// ---------------------------------------------------------------------------
// Host-time spans around the benchmark's own calls into each layer
// ---------------------------------------------------------------------------

template <typename Fn>
double timed(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start);
}

/// Per-layer host costs, measured once in the traced pass: the index,
/// fragment and pack layers over the workload's p-way partition (as the
/// driver's ranks build them), and the kernel over the whole database.
void add_host_layers(std::vector<Metric>& out, const Spec& spec,
                     const Instance& inst,
                     double bytes_moved) {
  const msp::SearchConfig& config = spec.config;
  const bool open = config.open_search();
  double index_s = 0, fragment_s = 0, unpack_s = 0;
  double entries = 0, postings = 0, plain_bytes = 0;
  for (int r = 0; r < spec.p; ++r) {
    const msp::ProteinDatabase shard =
        msp::load_database_shard(inst.inputs.fasta_image, r, spec.p);
    msp::CandidateIndex index;
    index_s += timed([&] { index = msp::CandidateIndex::build(shard, config); });
    entries += static_cast<double>(index.size());
    msp::FragmentIndex fragment;
    if (open) {
      fragment_s += timed([&] {
        fragment = msp::FragmentIndex::build(shard, index, config.bin_width);
      });
      postings += static_cast<double>(fragment.posting_count());
    }
    const msp::MassHistogram histogram = msp::MassHistogram::build(index);
    const std::vector<char> image =
        open ? msp::pack_database(shard, index, histogram, fragment)
             : msp::pack_database(shard, index, histogram);
    plain_bytes += static_cast<double>(msp::pack_database(shard).size());
    unpack_s += timed([&] { (void)msp::unpack_shard(image); });
  }
  out.push_back({"index.build_s", index_s, "s"});
  out.push_back({"index.entries", entries, "count"});
  out.push_back({"fragment.build_s", fragment_s, "s"});
  out.push_back({"fragment.postings", postings, "count"});
  out.push_back({"packdb.unpack_s", unpack_s, "s"});
  out.push_back({"packdb.plain_bytes", plain_bytes, "bytes"});
  out.push_back({"ring.bytes_over_plain",
                 ratio_or_zero(bytes_moved, (spec.p - 1) * plain_bytes),
                 "ratio"});

  const msp::SearchEngine engine(config);
  const msp::CandidateIndex index =
      msp::CandidateIndex::build(inst.inputs.db, config);
  msp::FragmentIndex fragment;
  if (open)
    fragment = msp::FragmentIndex::build(inst.inputs.db, index, config.bin_width);
  const msp::PreparedQueries prepared = engine.prepare(inst.inputs.queries);
  std::vector<msp::TopK<msp::Hit>> tops = engine.make_tops(prepared.size());
  msp::ShardSearchStats stats;
  const double kernel_s = timed([&] {
    stats = engine.search_shard(inst.inputs.db, prepared, tops, nullptr, &index,
                                open ? &fragment : nullptr);
  });
  out.push_back(
      {"engine.ns_per_candidate",
       ratio_or_zero(kernel_s * 1e9,
                     static_cast<double>(stats.candidates_evaluated)),
       "ns"});
}

double value_of(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& metric : metrics)
    if (metric.name == name) return metric.value;
  throw std::logic_error("no metric " + name);
}

void print_metrics(std::ostream& log, const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics)
    log << "  " << std::left << std::setw(30) << metric.name << std::right
        << std::setw(20) << std::setprecision(10) << metric.value << "  "
        << metric.unit << "\n";
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = {
      Workload::kPaperRing, Workload::kOpenSearch, Workload::kServeStream,
      Workload::kTenantMix};
  return workloads;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kPaperRing: return "paper-ring";
    case Workload::kOpenSearch: return "open-search";
    case Workload::kServeStream: return "serve-stream";
    case Workload::kTenantMix: return "tenant-mix";
  }
  return "?";
}

Workload workload_from_name(const std::string& name) {
  for (const Workload workload : all_workloads())
    if (name == workload_name(workload)) return workload;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

RunOutcome run_workload(Workload workload, const RunOptions& options,
                        std::ostream& log) {
  const Clock::time_point run_start = Clock::now();
  const Spec spec = spec_of(workload);
  log << "workload " << workload_name(workload) << ", seed " << options.seed
      << ": " << spec.instances << " input set(s) of " << spec.sequences
      << " sequences x " << spec.queries << " queries, p=" << spec.p << "\n";

  // Each input set has its own seed, derived from the run's seed only.
  std::vector<Instance> instances(static_cast<std::size_t>(spec.instances));
  for (std::size_t i = 0; i < instances.size(); ++i) {
    instances[i].seed = options.seed * 1000003 + i;
    instances[i].files = generate_inputs(workload, spec, instances[i].seed,
                                         options.work_dir);
  }

  // Set-up: load every input set, several times; keep the median.
  std::vector<double> setup_s, fasta_s, mgf_s;
  auto set_up = [&] {
    const Clock::time_point start = Clock::now();
    double fasta = 0, mgf = 0;
    for (Instance& inst : instances) {
      inst.inputs = load_inputs(inst.files);
      fasta += inst.inputs.fasta_s;
      mgf += inst.inputs.mgf_s;
    }
    setup_s.push_back(seconds_since(start));
    fasta_s.push_back(fasta);
    mgf_s.push_back(mgf);
  };
  for (int k = 0; k < kSetupRepeats; ++k) set_up();

  // The correctness oracle: the serial engine on each loaded input set.
  double input_bytes = 0;
  for (Instance& inst : instances) {
    if (inst.inputs.queries.size() != spec.queries)
      throw std::runtime_error("MGF round trip lost queries");
    input_bytes += static_cast<double>(inst.inputs.fasta_image.size() +
                                       std::filesystem::file_size(inst.files.mgf));
    inst.oracle = msp::SearchEngine(spec.config)
                      .search(inst.inputs.db, inst.inputs.queries);
  }
  log << "inputs, set-up and oracle done in " << seconds_since(run_start)
      << " s\n";

  RunOutcome outcome;
  std::vector<std::string> problems;
  // reference[i]: input set i's simulated results from its first run.
  std::vector<std::optional<Sim>> reference(instances.size());
  auto run = [&](std::size_t i, bool traced) {
    Unit unit = run_instance(workload, spec, instances[i], traced);
    outcome.attempted += unit.attempted;
    outcome.failed += unit.failed;
    if (unit.mismatched != 0)
      problems.push_back(std::to_string(unit.mismatched) +
                         " queries differ from the serial engine");
    if (!unit.problem.empty()) {
      problems.push_back(unit.problem);
    } else if (!reference[i]) {
      reference[i] = unit.sim;
    } else if (unit.sim != *reference[i]) {
      problems.push_back(traced ? "simulated results differ with tracing on"
                                : "simulated results differ between runs");
    }
    return unit;
  };

  // Measure: repeat passes over every input set until the budget is spent,
  // re-measuring set-up between passes so it samples the whole run. A
  // traced pass traces input set 0 right after its untraced run.
  std::vector<double> pass_cpu, first_cpu, traced_cpu;
  Unit traced_unit;
  // Warm-up: the process's first driver call also pays for growing the heap
  // (10-20 % more CPU on paper-ring), which later calls do not. It is
  // checked like every call but not timed.
  run(0, false);
  const Clock::time_point measure_start = Clock::now();
  do {
    double cpu = 0;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const Unit unit = run(i, false);
      cpu += unit.host_cpu_s;
      if (i == 0) first_cpu.push_back(unit.host_cpu_s);
      if (i == 0 && options.trace) {
        traced_unit = run(0, true);
        traced_cpu.push_back(traced_unit.host_cpu_s);
      }
    }
    pass_cpu.push_back(cpu);
    set_up();
  } while (seconds_since(measure_start) < options.seconds && problems.empty());

  if (!problems.empty()) {
    outcome.correct = false;
    for (const std::string& problem : problems)
      log << "FAIL: " << problem << "\n";
    return outcome;
  }
  if (!reference[0]->sweep.empty()) {
    log << "input set 0's rate sweep:\n";
    print_sweep(log, *reference[0]);
  }
  log << "set-up samples (s):";
  for (const double sample : setup_s) log << ' ' << sample;
  log << "\nhost CPU per pass (s):";
  for (const double sample : pass_cpu) log << ' ' << sample;
  log << "\n" << traced_unit.note << pass_cpu.size() << " measured pass(es) in "
      << seconds_since(measure_start) << " s\n";
  log << "failed_frac "
      << ratio_or_zero(static_cast<double>(outcome.failed),
                       static_cast<double>(outcome.attempted))
      << " ratio (" << outcome.failed << " of " << outcome.attempted
      << " queries)\n";

  std::vector<Metric>& metrics = outcome.metrics;
  if (!options.trace) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"host_cpu_s", median(pass_cpu), "s"});
    // Each simulated metric is the median of its per-input-set values.
    std::vector<std::vector<Metric>> per_set;
    for (const std::optional<Sim>& sim : reference)
      per_set.push_back(simulated_metrics(*sim));
    for (std::size_t j = 0; j < per_set.front().size(); ++j) {
      std::vector<double> values;
      for (const std::vector<Metric>& set : per_set)
        values.push_back(set[j].value);
      metrics.push_back(
          {per_set.front()[j].name, median(values), per_set.front()[j].unit});
    }
  } else {
    const double fasta = median(fasta_s);
    const double mgf = median(mgf_s);
    metrics.push_back({"io.fasta_s", fasta, "s"});
    metrics.push_back({"io.mgf_s", mgf, "s"});
    metrics.push_back({"io.mib_per_s", input_bytes / kMiB / (fasta + mgf),
                       "MiB/s"});
    for (const Metric& metric : traced_unit.layers) metrics.push_back(metric);
    add_host_layers(metrics, spec, instances[0],
                    value_of(metrics, "simmpi.bytes_moved"));
    const bool serving = workload == Workload::kServeStream ||
                         workload == Workload::kTenantMix;
    metrics.push_back(
        {"serve.host_cpu_s", serving ? median(first_cpu) : 0.0, "s"});
    metrics.push_back({"trace.host_cpu_s", median(traced_cpu), "s"});
    metrics.push_back({"trace.overhead_cpu_s",
                       median(traced_cpu) - median(first_cpu), "s"});
  }
  print_metrics(log, metrics);
  return outcome;
}

}  // namespace perfbench
