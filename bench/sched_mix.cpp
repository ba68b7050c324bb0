// Multi-tenant scheduler sweep: serve-only vs serve+backfill vs
// priority-preemption on one shared serving ring.
//
// The serving bench (serve_latency.cpp) measures what a dedicated ring
// gives one latency-sensitive stream; this bench measures what a *cluster*
// gives a mix of tenants. A bursty serve session leaves the ring parked
// between bursts (the kServeIdle lane the serve-only cell measures); the
// scheduler backfills batch chunks into exactly those measured gaps using
// the Slurm-style fit rule, and the preemption cell adds the safety net
// that evicts lower-priority chunks the moment a serve batch closes. The
// headline numbers:
//
//   reclaimed_idle_ratio   backfill_busy_s / (serve-only idle per rank) —
//                          how much of the measured idle the batch tenant's
//                          chunks actually turned into compute,
//   serve_p99_ratio        the serve tenant's p99 under the full scheduler
//                          over its serve-only p99 — the latency price of
//                          sharing the ring.
//
// CI gates reclaimed_idle_ratio >= 0.3 and serve_p99_ratio <= 1.1 at the
// default 16-rank configuration (tools/check_sched_bench.py), and hits are
// bit-identical across every cell. Results append to a trajectory file
// (BENCH_sched.json, a JSON array with one entry per run; entry 0 is the
// committed baseline) exactly like BENCH_kernel.json.
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench/common.hpp"
#include "sched/scheduler.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace {

/// Append `entry` (a JSON object) to the JSON array at `path`, creating the
/// array on first write. Textual append — strip the closing bracket, add
/// the entry — so prior entries pass through byte-identical and the file
/// stays a valid array after every run.
void append_trajectory(const std::string& path, const std::string& entry) {
  if (path.empty()) return;
  std::string existing;
  {
    std::ifstream in(path, std::ios::binary);
    if (in)
      existing.assign((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  }
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' '))
    existing.pop_back();
  std::ofstream out(path, std::ios::binary);
  MSP_CHECK_MSG(out.good(), "cannot open JSON output " << path);
  if (existing.empty()) {
    out << "[\n" << entry << "\n]\n";
  } else {
    MSP_CHECK_MSG(existing.back() == ']',
                  "trajectory file " << path << " is not a JSON array");
    existing.pop_back();
    while (!existing.empty() &&
           (existing.back() == '\n' || existing.back() == ' '))
      existing.pop_back();
    out << existing << ",\n" << entry << "\n]\n";
  }
  std::cout << "appended to " << path << "\n";
}

const msp::sched::TenantAccounting* tenant_named(
    const msp::sched::SchedResult& result, const std::string& name) {
  for (const msp::sched::TenantAccounting& tenant : result.tenants)
    if (tenant.name == name) return &tenant;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  msp::Cli cli("bench_sched_mix",
               "multi-tenant scheduler: serve-only vs backfill vs preemption");
  // 1,000 queries by default: 48 serve + 952 batch. The batch backlog must
  // be deep enough that backfill, not work starvation, bounds the
  // reclaimed-idle ratio the CI gate checks — the bench exits 1 when the
  // backfill cell finishes no later than the serve-only one.
  msp::bench::add_common_options(cli, /*default_queries=*/1000);
  cli.add_int("p", 16, "simulated ranks (one shared serving ring)");
  cli.add_int("sequences", 4000, "database size (proteins)");
  cli.add_int("serve-queries", 48, "queries owned by the serve tenant");
  cli.add_int("burst", 8, "serve arrivals per burst");
  cli.add_double("burst-gap-ms", 200.0,
                 "virtual ms between serve bursts (the idle the batch "
                 "tenant backfills)");
  cli.add_int("chunk", 8, "batch queries per backfill chunk");
  cli.add_int("inflight-chunks", 2, "max batch chunks in flight");
  cli.add_double("tolerance", 0.05,
                 "precursor window half-width in Da (narrow by default — "
                 "the serving regime, where ring steps are cheap enough "
                 "for burst gaps to leave reclaimable idle)");
  cli.add_string("label", "local",
                 "trajectory entry label (CI uses the commit hash)");
  cli.add_string("out", "BENCH_sched.json",
                 "trajectory JSON array to append to (empty = skip)");
  if (!cli.parse(argc, argv)) return 0;

  const int p = static_cast<int>(cli.get_int("p"));
  const auto query_count = static_cast<std::size_t>(cli.get_int("queries"));
  const auto serve_count =
      static_cast<std::size_t>(cli.get_int("serve-queries"));
  MSP_CHECK_MSG(serve_count < query_count,
                "--serve-queries must leave queries for the batch tenant");
  const msp::bench::Workload workload = msp::bench::make_workload(
      static_cast<std::size_t>(cli.get_int("sequences")), query_count,
      static_cast<std::uint64_t>(cli.get_int("seed")));
  const std::string image = workload.image_of_first(
      static_cast<std::size_t>(cli.get_int("sequences")));
  msp::SearchConfig config = msp::bench::bench_config();
  config.tolerance_da = cli.get_double("tolerance");

  // The two-tenant mix: a latency-sensitive serve session with bursty
  // arrivals (frontend) and a low-priority batch scan over the rest of the
  // stream (analytics). Cells differ only in scheduler policy.
  msp::sched::SchedOptions base;
  base.tenants = {{"frontend", 1.0, 0}, {"analytics", 1.0, 0}};
  {
    msp::sched::JobSpec serve;
    serve.name = "stream";
    serve.tenant = "frontend";
    serve.kind = msp::sched::JobKind::kServe;
    serve.priority = msp::sched::Priority::kHigh;
    serve.submit_s = 0.0;
    serve.query_begin = 0;
    serve.query_end = serve_count;
    serve.arrivals.kind = msp::serve::ArrivalKind::kBurst;
    serve.arrivals.burst_size = static_cast<std::size_t>(cli.get_int("burst"));
    serve.arrivals.burst_gap_s = cli.get_double("burst-gap-ms") * 1e-3;
    serve.arrivals.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    serve.batch.max_batch = serve.arrivals.burst_size;
    serve.batch.max_wait_s = 0.02;
    serve.admission.max_outstanding = 512;
    base.jobs.push_back(serve);

    msp::sched::JobSpec batch;
    batch.name = "scan";
    batch.tenant = "analytics";
    batch.kind = msp::sched::JobKind::kBatch;
    batch.priority = msp::sched::Priority::kLow;
    batch.submit_s = 0.0;
    batch.query_begin = serve_count;
    batch.query_end = query_count;
    base.jobs.push_back(batch);
  }
  base.chunk_queries = static_cast<std::size_t>(cli.get_int("chunk"));
  base.max_inflight_chunks =
      static_cast<std::size_t>(cli.get_int("inflight-chunks"));

  struct Cell {
    const char* name;
    bool batch_tenant;  ///< serve-only drops the batch job entirely
    bool backfill;
    bool preempt;
  };
  const Cell cells[] = {
      {"serve-only", false, false, false},
      {"backfill", true, true, false},
      {"preempt", true, true, true},
  };
  constexpr int kCellCount = 3;

  msp::Table table({"cell", "done", "steps", "backfill", "preempt",
                    "reclaim (s)", "serve p99 (s)", "batch (q/s)",
                    "makespan (s)"});
  msp::sched::SchedResult results[kCellCount];
  for (int c = 0; c < kCellCount; ++c) {
    msp::sched::SchedOptions options = base;
    if (!cells[c].batch_tenant) {
      options.jobs.resize(1);
      options.tenants.resize(1);
    }
    options.backfill = cells[c].backfill;
    options.preempt = cells[c].preempt;
    msp::sim::Runtime runtime(p, msp::bench::bench_network(),
                              msp::bench::bench_compute());
    // Trace the full-policy cell (the representative configuration).
    msp::bench::TraceGate trace(runtime, cli.get_string("trace-out"),
                                c == kCellCount - 1);
    results[c] = msp::sched::run_sched(runtime, image, workload.queries,
                                       config, options);
    trace.write(results[c].report);

    const msp::sched::TenantAccounting* frontend =
        tenant_named(results[c], "frontend");
    const msp::sched::TenantAccounting* analytics =
        tenant_named(results[c], "analytics");
    table.add_row(
        {cells[c].name, std::to_string(results[c].completed),
         std::to_string(results[c].ring_steps),
         std::to_string(results[c].backfill_chunks),
         std::to_string(results[c].preemptions),
         msp::Table::cell(results[c].backfill_busy_s),
         msp::Table::cell(frontend->serve_latency.p99),
         analytics != nullptr
             ? msp::Table::cell(analytics->throughput_qps, 1)
             : std::string("-"),
         msp::Table::cell(results[c].makespan_s)});
  }

  // Hit bit-identity across cells: every query-backed job publishes the
  // same lists no matter which policy scheduled it.
  for (int c = 1; c < kCellCount; ++c)
    for (std::size_t q = serve_count; q < query_count; ++q)
      MSP_CHECK_MSG(results[c].hits[q].size() == results[1].hits[q].size(),
                    "policy changed a hit list at query " << q);

  // Headline ratios (per-rank idle: idle spans park every rank equally, so
  // the aggregate divides by p).
  const msp::sched::SchedResult& serve_only = results[0];
  const msp::sched::SchedResult& full = results[kCellCount - 1];
  const double idle_per_rank =
      serve_only.report.serve_idle_seconds() / static_cast<double>(p);
  const double reclaimed_ratio =
      idle_per_rank > 0.0 ? full.backfill_busy_s / idle_per_rank : 0.0;
  const double p99_serve_only =
      tenant_named(serve_only, "frontend")->serve_latency.p99;
  const double p99_full = tenant_named(full, "frontend")->serve_latency.p99;
  const double p99_ratio =
      p99_serve_only > 0.0 ? p99_full / p99_serve_only : 0.0;

  msp::JsonWriter json;
  json.begin_object();
  json.field("label", cli.get_string("label"));
  json.field("p", p);
  json.field("queries", query_count);
  json.field("serve_queries", serve_count);
  json.field("burst", static_cast<std::int64_t>(cli.get_int("burst")));
  json.field("burst_gap_s", cli.get_double("burst-gap-ms") * 1e-3);
  json.field("chunk_queries", base.chunk_queries);
  json.field("max_inflight_chunks", base.max_inflight_chunks);
  json.key("cells").begin_array();
  for (int c = 0; c < kCellCount; ++c) {
    const msp::sched::SchedResult& result = results[c];
    json.begin_object();
    json.field("name", cells[c].name);
    json.field("backfill", cells[c].backfill);
    json.field("preempt", cells[c].preempt);
    json.field("completed", result.completed);
    json.field("shed", result.shed);
    json.field("batches", result.batches);
    json.field("ring_steps", result.ring_steps);
    json.field("preemptions", result.preemptions);
    json.field("backfill_chunks", result.backfill_chunks);
    json.field("backfill_busy_s", result.backfill_busy_s);
    json.field("serve_idle_s", result.report.serve_idle_seconds());
    json.field("makespan_s", result.makespan_s);
    json.field("throughput_qps", result.throughput_qps);
    json.key("tenants").begin_array();
    for (const msp::sched::TenantAccounting& tenant : result.tenants) {
      json.begin_object();
      json.field("name", tenant.name);
      json.field("jobs_completed", tenant.jobs_completed);
      json.field("queries_completed", tenant.queries_completed);
      json.field("queries_shed", tenant.queries_shed);
      json.field("preemptions", tenant.preemptions);
      json.field("backfill_chunks", tenant.backfill_chunks);
      json.field("usage_end", tenant.usage_end);
      json.field("throughput_qps", tenant.throughput_qps);
      json.field("p99_s", tenant.serve_latency.p99);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.field("serve_idle_per_rank_s", idle_per_rank);
  json.field("reclaimed_idle_ratio", reclaimed_ratio);
  json.field("serve_p99_serve_only_s", p99_serve_only);
  json.field("serve_p99_full_s", p99_full);
  json.field("serve_p99_ratio", p99_ratio);
  json.end_object();

  std::cout << "== Multi-tenant scheduler (p = " << p << ", "
            << serve_count << " serve + " << query_count - serve_count
            << " batch queries) ==\n";
  table.print(std::cout);
  std::cout << "reclaimed idle: " << msp::Table::cell(full.backfill_busy_s)
            << " s of " << msp::Table::cell(idle_per_rank)
            << " s per-rank serve idle (ratio "
            << msp::Table::cell(reclaimed_ratio, 2) << "); serve p99 "
            << msp::Table::cell(p99_full) << " s vs "
            << msp::Table::cell(p99_serve_only) << " s serve-only (ratio "
            << msp::Table::cell(p99_ratio, 2) << ")\n";

  // The reclaimed-idle ratio only measures backfill while the batch backlog
  // outlasts the serve session: once the batch tenant runs dry inside it,
  // the ratio measures starvation instead. A starved run exits 1 without
  // appending its entry.
  const msp::sched::SchedResult& backfill = results[1];
  if (backfill.makespan_s <= serve_only.makespan_s) {
    std::cerr << "bench_sched_mix: the batch backlog ran dry inside the serve "
                 "session (backfill makespan "
              << backfill.makespan_s << " s <= serve-only "
              << serve_only.makespan_s
              << " s), so reclaimed idle measures starvation, not backfill "
                 "— raise --queries\n";
    return 1;
  }

  // Indent the entry one level so the trajectory array reads naturally.
  std::istringstream lines(json.str());
  std::ostringstream indented;
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    if (!first) indented << "\n";
    indented << "  " << line;
    first = false;
  }
  append_trajectory(cli.get_string("out"), indented.str());
  return 0;
}
