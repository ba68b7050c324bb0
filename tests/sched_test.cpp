// Cluster-scheduler validation: every job mix must reproduce the serial
// engine's exact hit lists (each query-backed job is hit-identical to its
// standalone run — the oracle the preemption satellite names), preemption
// must ride the crash-recovery contract deterministically across reruns,
// kernel thread counts and fault schedules, backfill must reclaim measured
// serve idle without corrupting anything, fair-share/tenant caps must bind,
// the tenant accounting must land in the RunReport, and traces must
// validate with the sched lane populated.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "sched/scheduler.hpp"
#include "serve/slo.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/trace_validate.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

struct Fixture {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;
  SearchConfig config;
  QueryHits serial;

  Fixture() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 36;
    db_options.mean_length = 110;
    db_options.seed = 6001;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 36;
    q_options.seed = 6002;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));

    config.tolerance_da = 25.0;
    config.tau = 6;
    config.min_candidate_length = 4;
    config.max_candidate_length = 60;
    config.model = ScoreModel::kLikelihood;

    const SearchEngine engine(config);
    serial = engine.search(db, queries);
  }
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

void expect_hits_equal(const QueryHits& got, const QueryHits& want,
                       const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      EXPECT_EQ(got[q][h].protein_id, want[q][h].protein_id)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].end, want[q][h].end)
          << label << " q" << q << " h" << h;
      EXPECT_DOUBLE_EQ(got[q][h].score, want[q][h].score)
          << label << " q" << q << " h" << h;
    }
  }
}

sched::JobSpec serve_job(const std::string& name, const std::string& tenant,
                         std::size_t begin, std::size_t end) {
  sched::JobSpec job;
  job.name = name;
  job.tenant = tenant;
  job.kind = sched::JobKind::kServe;
  job.priority = sched::Priority::kHigh;
  job.submit_s = 0.0;
  job.query_begin = begin;
  job.query_end = end;
  job.arrivals.kind = serve::ArrivalKind::kPoisson;
  job.arrivals.rate_qps = 400.0;
  job.arrivals.seed = 77;
  job.batch.max_batch = 4;
  job.batch.max_wait_s = 0.02;
  job.admission.max_outstanding = 256;
  return job;
}

sched::JobSpec batch_job(const std::string& name, const std::string& tenant,
                         std::size_t begin, std::size_t end,
                         sched::Priority priority) {
  sched::JobSpec job;
  job.name = name;
  job.tenant = tenant;
  job.kind = sched::JobKind::kBatch;
  job.priority = priority;
  job.submit_s = 0.0;
  job.query_begin = begin;
  job.query_end = end;
  return job;
}

/// One serve session plus two batch jobs from two tenants — the default
/// mixed workload most tests run.
sched::SchedOptions default_mix() {
  sched::SchedOptions options;
  options.tenants = {{"acme", 1.0, 0}, {"zeta", 2.0, 0}};
  options.jobs.push_back(serve_job("frontend", "acme", 0, 12));
  options.jobs.push_back(
      batch_job("analytics", "zeta", 12, 24, sched::Priority::kLow));
  options.jobs.back().algorithm = Algorithm::kAlgorithmA;
  options.jobs.push_back(
      batch_job("reproc", "acme", 24, 36, sched::Priority::kNormal));
  options.jobs.back().algorithm = Algorithm::kAlgorithmB;
  options.chunk_queries = 6;
  return options;
}

/// A mix tuned so preemption provably fires: the optimistic initial step
/// estimate lets backfill admit chunks at t = 0, the serve job submits
/// mid-flight (the fixture's 25 Da window makes a chunk's flight span
/// several bands, so it outlasts the first step), and its first burst
/// closes a high-priority batch that evicts the chunks on the spot.
sched::SchedOptions preempting_mix() {
  sched::SchedOptions options = default_mix();
  options.jobs[0].submit_s = 0.004;
  options.jobs[0].arrivals.kind = serve::ArrivalKind::kBurst;
  options.jobs[0].arrivals.burst_size = 6;
  options.jobs[0].arrivals.burst_gap_s = 0.05;
  options.step_estimate_init_s = 1e-6;
  return options;
}

// ---------------------------------------------------------------------------
// A mixed job mix reproduces the serial hit lists, every job completes.

TEST(Sched, MixedMixMatchesSerialHits) {
  const Fixture& f = fixture();
  for (const int p : {4, 7}) {
    const sim::Runtime runtime(p);
    const sched::SchedResult result = sched::run_sched(
        runtime, f.image, f.queries, f.config, default_mix());
    EXPECT_EQ(result.completed, f.queries.size());
    EXPECT_EQ(result.shed, 0u);
    expect_hits_equal(result.hits, f.serial, "mix p=" + std::to_string(p));
    ASSERT_EQ(result.jobs.size(), 3u);
    for (const sched::JobOutcome& job : result.jobs) {
      EXPECT_GE(job.start_s, 0.0) << job.name;
      EXPECT_GE(job.complete_s, job.start_s) << job.name;
      EXPECT_EQ(job.queries_completed, 12u) << job.name;
    }
    for (const serve::QueryOutcome& q : result.outcomes) {
      EXPECT_FALSE(q.shed);
      EXPECT_LE(q.arrival_s, q.admit_s);
      EXPECT_LE(q.admit_s, q.dispatch_s);
      EXPECT_LT(q.dispatch_s, q.complete_s);
    }
    EXPECT_GT(result.batches, 3u);
    EXPECT_GT(result.throughput_qps, 0.0);
  }
}

// ---------------------------------------------------------------------------
// Determinism: reruns and kernel thread counts change nothing observable —
// hits, per-query outcomes, and the rendered reports are byte-identical.

TEST(Sched, DeterministicAcrossRerunsAndKernelThreads) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(5);

  auto run_with_threads = [&](std::size_t threads) {
    SearchConfig config = f.config;
    config.kernel_threads = threads;
    return sched::run_sched(runtime, f.image, f.queries, config,
                            default_mix());
  };

  const sched::SchedResult a = run_with_threads(1);
  const sched::SchedResult b = run_with_threads(1);
  const sched::SchedResult c = run_with_threads(3);

  const std::string csv = a.report.to_csv();
  const std::string json = a.report.to_json();
  for (const sched::SchedResult* other : {&b, &c}) {
    expect_hits_equal(other->hits, a.hits, "rerun");
    ASSERT_EQ(other->outcomes.size(), a.outcomes.size());
    for (std::size_t q = 0; q < a.outcomes.size(); ++q) {
      EXPECT_EQ(other->outcomes[q].arrival_s, a.outcomes[q].arrival_s);
      EXPECT_EQ(other->outcomes[q].admit_s, a.outcomes[q].admit_s);
      EXPECT_EQ(other->outcomes[q].dispatch_s, a.outcomes[q].dispatch_s);
      EXPECT_EQ(other->outcomes[q].complete_s, a.outcomes[q].complete_s);
      EXPECT_EQ(other->outcomes[q].batch_id, a.outcomes[q].batch_id);
    }
    EXPECT_EQ(other->ring_steps, a.ring_steps);
    EXPECT_EQ(other->makespan_s, a.makespan_s);
    EXPECT_EQ(other->backfill_busy_s, a.backfill_busy_s);
    EXPECT_EQ(other->report.to_csv(), csv);
    EXPECT_EQ(other->report.to_json(), json);
  }
}

// ---------------------------------------------------------------------------
// Preemption: high-priority serve batches evict lower-priority chunks, the
// evicted queries are re-scored from scratch, and everything stays exact —
// including when a crash lands in the same run.

TEST(Sched, PreemptionKeepsHitsExact) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(5);
  const sched::SchedResult result = sched::run_sched(
      runtime, f.image, f.queries, f.config, preempting_mix());

  EXPECT_GT(result.preemptions, 0u) << "mix never triggered a preemption";
  EXPECT_EQ(result.completed, f.queries.size());
  expect_hits_equal(result.hits, f.serial, "preempt");
  // Evicted chunks re-enter through the same re-dispatch counter crash
  // orphans use (the induced-fault contract).
  std::uint32_t redispatches = 0;
  for (const serve::QueryOutcome& q : result.outcomes)
    redispatches += q.redispatches;
  EXPECT_GT(redispatches, 0u);
  // Only batch jobs were victimized; the serve session never was.
  EXPECT_EQ(result.jobs[0].preemptions, 0u);
  EXPECT_GT(result.jobs[1].preemptions + result.jobs[2].preemptions, 0u);
}

TEST(Sched, PreemptionDeterministicAcrossThreadsAndFaults) {
  const Fixture& f = fixture();
  sim::FaultModel faults;
  faults.crash(2, 3);  // rank 2 dies at ring step 3, mid-flight
  const sim::Runtime runtime(5, {}, {}, faults);

  auto run_with_threads = [&](std::size_t threads) {
    SearchConfig config = f.config;
    config.kernel_threads = threads;
    return sched::run_sched(runtime, f.image, f.queries, config,
                            preempting_mix());
  };

  const sched::SchedResult a = run_with_threads(1);
  EXPECT_GT(a.preemptions, 0u);
  EXPECT_TRUE(a.report.has_fault_activity());
  EXPECT_EQ(a.completed, f.queries.size());
  expect_hits_equal(a.hits, f.serial, "preempt+crash");

  const sched::SchedResult b = run_with_threads(1);
  const sched::SchedResult c = run_with_threads(3);
  for (const sched::SchedResult* other : {&b, &c}) {
    expect_hits_equal(other->hits, a.hits, "preempt+crash rerun");
    EXPECT_EQ(other->preemptions, a.preemptions);
    EXPECT_EQ(other->makespan_s, a.makespan_s);
    EXPECT_EQ(other->report.to_csv(), a.report.to_csv());
  }
}

// The oracle the satellite names: a preempted-then-resumed batch job's hit
// lists equal a standalone serial run over just its query slice,
// bit-for-bit — not merely the full-stream serial run.

TEST(Sched, PreemptedJobMatchesUncontendedRun) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(5);
  const sched::SchedOptions options = preempting_mix();
  const sched::SchedResult result =
      sched::run_sched(runtime, f.image, f.queries, f.config, options);
  ASSERT_GT(result.preemptions, 0u);

  for (std::size_t j = 1; j < options.jobs.size(); ++j) {
    const sched::JobSpec& spec = options.jobs[j];
    const std::vector<Spectrum> slice(
        f.queries.begin() + static_cast<std::ptrdiff_t>(spec.query_begin),
        f.queries.begin() + static_cast<std::ptrdiff_t>(spec.query_end));
    const SearchEngine engine(f.config);
    const QueryHits uncontended = engine.search(f.db, slice);
    QueryHits scheduled(slice.size());
    for (std::size_t q = 0; q < slice.size(); ++q)
      scheduled[q] = result.hits[spec.query_begin + q];
    expect_hits_equal(scheduled, uncontended, "job " + spec.name);
  }
}

// ---------------------------------------------------------------------------
// Backfill: chunks ride measured serve gaps (reclaimed idle > 0); with
// backfill off the cluster is strictly partitioned — batch work waits for
// the serve session to drain.

TEST(Sched, BackfillReclaimsServeIdle) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);

  sched::SchedOptions serve_only;
  serve_only.tenants = {{"acme", 1.0, 0}};
  serve_only.jobs.push_back(serve_job("frontend", "acme", 0, 12));
  serve_only.jobs[0].arrivals.kind = serve::ArrivalKind::kBurst;
  serve_only.jobs[0].arrivals.burst_size = 4;
  serve_only.jobs[0].arrivals.burst_gap_s = 0.2;
  const sched::SchedResult baseline = sched::run_sched(
      runtime, f.image, f.queries, f.config, serve_only);
  EXPECT_GT(baseline.report.serve_idle_seconds(), 0.0)
      << "bursty serve-only run measured no idle to reclaim";

  sched::SchedOptions mixed = serve_only;
  mixed.tenants.push_back({"zeta", 1.0, 0});
  mixed.jobs.push_back(
      batch_job("analytics", "zeta", 12, 36, sched::Priority::kLow));
  mixed.chunk_queries = 4;
  const sched::SchedResult result =
      sched::run_sched(runtime, f.image, f.queries, f.config, mixed);
  EXPECT_EQ(result.completed, f.queries.size());
  expect_hits_equal(result.hits, f.serial, "backfill");
  EXPECT_GT(result.backfill_chunks, 0u);
  EXPECT_GT(result.backfill_busy_s, 0.0);

  mixed.backfill = false;
  const sched::SchedResult strict =
      sched::run_sched(runtime, f.image, f.queries, f.config, mixed);
  EXPECT_EQ(strict.completed, f.queries.size());
  expect_hits_equal(strict.hits, f.serial, "strict partition");
  EXPECT_EQ(strict.backfill_chunks, 0u);
  EXPECT_EQ(strict.backfill_busy_s, 0.0);
  // Strict partition: the batch job cannot start before the serve session
  // completed, so sharing the gaps finishes the mix sooner.
  EXPECT_GE(strict.jobs[1].start_s, strict.jobs[0].complete_s);
  EXPECT_LT(result.makespan_s, strict.makespan_s);
}

// A backfill chunk is sized by its own flight: a chunk whose query sits in
// one mass band rides one ring step, so it fits a serve gap of 1.5 step
// estimates that p estimates would not. Unrouted, a flight still takes p
// steps, so the same chunk waits for the serve session.

TEST(Sched, OneStepChunkFitsAGapThatPStepsWouldNot) {
  const Fixture& f = fixture();
  SearchConfig narrow = f.config;
  narrow.tolerance_da = 0.05;
  const QueryHits serial = SearchEngine(narrow).search(f.db, f.queries);
  constexpr double kStepEstimate = 0.05;
  for (const int p : {4, 5, 16}) {
    for (const std::size_t threads : {1u, 3u}) {
      for (const bool routing : {true, false}) {
        const std::string cell = "p=" + std::to_string(p) + " threads=" +
                                 std::to_string(threads) +
                                 (routing ? " routed" : " unrouted");
        SearchConfig config = narrow;
        config.kernel_threads = threads;
        const sim::Runtime runtime(p);
        sched::SchedOptions options;
        options.tenants = {{"acme", 1.0, 0}, {"zeta", 1.0, 0}};
        options.jobs.push_back(
            batch_job("scan", "zeta", 0, 12, sched::Priority::kLow));
        options.chunk_queries = 1;
        options.max_inflight_chunks = 1;
        options.step_estimate_init_s = kStepEstimate;
        options.mass_routing = routing;
        // The first boundary: where the batch job alone starts.
        const double first_boundary =
            sched::run_sched(runtime, f.image, f.queries, config, options)
                .jobs[0]
                .start_s;

        const double submit = first_boundary + 1.5 * kStepEstimate;
        ASSERT_LT(submit, first_boundary + p * kStepEstimate) << cell;
        options.jobs.push_back(serve_job("frontend", "acme", 12, 36));
        options.jobs.back().submit_s = submit;
        const sched::SchedResult result =
            sched::run_sched(runtime, f.image, f.queries, config, options);
        EXPECT_EQ(result.completed, f.queries.size()) << cell;
        expect_hits_equal(result.hits, serial, cell);
        if (routing) {
          EXPECT_EQ(result.jobs[0].start_s, first_boundary) << cell;
        } else {
          EXPECT_GE(result.jobs[0].start_s, submit) << cell;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fair share and tenant QOS caps.

TEST(Sched, TenantInflightCapBoundsChunkSize) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  sched::SchedOptions options;
  options.tenants = {{"capped", 1.0, 3}, {"free", 1.0, 0}};
  options.jobs.push_back(
      batch_job("small", "capped", 0, 18, sched::Priority::kNormal));
  options.jobs.push_back(
      batch_job("large", "free", 18, 36, sched::Priority::kNormal));
  options.chunk_queries = 8;
  const sched::SchedResult result =
      sched::run_sched(runtime, f.image, f.queries, f.config, options);
  EXPECT_EQ(result.completed, f.queries.size());
  expect_hits_equal(result.hits, f.serial, "capped");

  // Group published queries by flight: flights of the capped tenant never
  // exceed its in-flight cap; the free tenant got full-size chunks.
  std::map<std::size_t, std::size_t> flight_sizes;
  for (std::size_t q = 0; q < result.outcomes.size(); ++q)
    ++flight_sizes[result.outcomes[q].batch_id];
  std::size_t free_max = 0;
  for (std::size_t q = 0; q < 18; ++q)
    EXPECT_LE(flight_sizes[result.outcomes[q].batch_id], 3u) << "query " << q;
  for (std::size_t q = 18; q < 36; ++q)
    free_max = std::max(free_max, flight_sizes[result.outcomes[q].batch_id]);
  EXPECT_EQ(free_max, 8u);

  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_EQ(result.tenants[0].name, "capped");
  EXPECT_EQ(result.tenants[0].queries_completed, 18u);
  EXPECT_EQ(result.tenants[0].jobs_completed, 1u);
  EXPECT_EQ(result.tenants[1].queries_completed, 18u);
  EXPECT_GT(result.tenants[0].usage_end + result.tenants[1].usage_end, 0.0);
}

TEST(Sched, TenantAccountingLandsInRunReport) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  const sched::SchedResult result = sched::run_sched(
      runtime, f.image, f.queries, f.config, default_mix());
  EXPECT_EQ(result.report.sum_counter("tenant_acme_completed"), 24u);
  EXPECT_EQ(result.report.sum_counter("tenant_zeta_completed"), 12u);
  EXPECT_EQ(result.report.sum_counter("tenant_acme_jobs"), 2u);
  EXPECT_EQ(result.report.sum_counter("tenant_zeta_jobs"), 1u);
  const std::string csv = result.report.to_csv();
  EXPECT_NE(csv.find("tenant_acme_completed"), std::string::npos);
  EXPECT_NE(csv.find("tenant_zeta_usage_micro"), std::string::npos);
  // Per-tenant serve latency summarizes only serve queries.
  EXPECT_EQ(result.tenants[0].serve_latency.count, 12u);
  EXPECT_EQ(result.tenants[1].serve_latency.count, 0u);
  EXPECT_GT(result.tenants[0].throughput_qps, 0.0);
}

// ---------------------------------------------------------------------------
// Pack jobs: deterministic build slices consume idle boundaries.

TEST(Sched, PackJobRunsToCompletion) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  sched::SchedOptions options = default_mix();
  sched::JobSpec pack;
  pack.name = "repack";
  pack.tenant = "zeta";
  pack.kind = sched::JobKind::kPack;
  pack.priority = sched::Priority::kLow;
  pack.submit_s = 0.0;
  pack.pack_slices = 3;
  options.jobs.push_back(pack);

  const sched::SchedResult result =
      sched::run_sched(runtime, f.image, f.queries, f.config, options);
  EXPECT_EQ(result.completed, f.queries.size());
  expect_hits_equal(result.hits, f.serial, "with pack");
  const sched::JobOutcome& outcome = result.jobs.back();
  EXPECT_EQ(outcome.pack_slices_done, 3u);
  EXPECT_GE(outcome.complete_s, outcome.start_s);
  EXPECT_EQ(result.tenants[1].pack_slices, 3u);
}

// ---------------------------------------------------------------------------
// Traces: sched lane present, validator clean, byte-identical reruns.

TEST(Sched, TraceValidatesWithSchedLane) {
  const Fixture& f = fixture();
  sim::Runtime runtime(4);
  runtime.enable_tracing();

  const sched::SchedResult result = sched::run_sched(
      runtime, f.image, f.queries, f.config, preempting_mix());
  ASSERT_GT(result.preemptions, 0u);
  const std::string trace = result.report.to_chrome_trace();
  EXPECT_EQ(sim::validate_chrome_trace(trace), "");
  EXPECT_NE(trace.find("\"sched\""), std::string::npos);
  EXPECT_NE(trace.find("sched-submit"), std::string::npos);
  EXPECT_NE(trace.find("sched-start"), std::string::npos);
  EXPECT_NE(trace.find("sched-preempt"), std::string::npos);
  EXPECT_NE(trace.find("sched-complete"), std::string::npos);
  EXPECT_NE(trace.find("serve-admit"), std::string::npos);

  const sched::SchedResult again = sched::run_sched(
      runtime, f.image, f.queries, f.config, preempting_mix());
  EXPECT_EQ(again.report.to_chrome_trace(), trace);

  // Faulty traces validate too.
  sim::FaultModel faults;
  faults.crash(1, 2);
  sim::Runtime faulty(4, {}, {}, faults);
  faulty.enable_tracing();
  const sched::SchedResult crashed = sched::run_sched(
      faulty, f.image, f.queries, f.config, preempting_mix());
  EXPECT_EQ(sim::validate_chrome_trace(crashed.report.to_chrome_trace()), "");
}

// ---------------------------------------------------------------------------
// simcheck: the scheduler's ring reads stay race-free, preemption included.

TEST(Sched, SimcheckCleanIncludingFaults) {
  const Fixture& f = fixture();
  std::vector<sim::check::Violation> violations;

  sim::Runtime runtime(4);
  runtime.set_check_sink(&violations);
  const sched::SchedResult clean = sched::run_sched(
      runtime, f.image, f.queries, f.config, preempting_mix());
  EXPECT_EQ(clean.completed, f.queries.size());
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations";

  sim::FaultModel faults;
  faults.crash(3, 2);
  sim::Runtime faulty(4, {}, {}, faults);
  faulty.set_check_sink(&violations);
  const sched::SchedResult crashed = sched::run_sched(
      faulty, f.image, f.queries, f.config, preempting_mix());
  EXPECT_EQ(crashed.completed, f.queries.size());
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations";
}

// ---------------------------------------------------------------------------
// Spec validation and name round-trips.

TEST(Sched, RejectsMalformedMixes) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  const auto run = [&](const sched::SchedOptions& options) {
    return sched::run_sched(runtime, f.image, f.queries, f.config, options);
  };

  sched::SchedOptions empty;
  empty.tenants = {{"acme", 1.0, 0}};
  EXPECT_THROW(run(empty), InvalidArgument);

  sched::SchedOptions overlap = default_mix();
  overlap.jobs[2].query_begin = 20;  // overlaps analytics' [12, 24)
  EXPECT_THROW(run(overlap), InvalidArgument);

  sched::SchedOptions bad_range = default_mix();
  bad_range.jobs[2].query_end = f.queries.size() + 1;
  EXPECT_THROW(run(bad_range), InvalidArgument);

  sched::SchedOptions unknown_tenant = default_mix();
  unknown_tenant.jobs[1].tenant = "nobody";
  EXPECT_THROW(run(unknown_tenant), InvalidArgument);

  sched::SchedOptions empty_pack = default_mix();
  sched::JobSpec pack;
  pack.name = "broken";
  pack.tenant = "acme";
  pack.kind = sched::JobKind::kPack;
  pack.pack_slices = 0;
  empty_pack.jobs.push_back(pack);
  EXPECT_THROW(run(empty_pack), InvalidArgument);

  sched::SchedOptions zero_chunk = default_mix();
  zero_chunk.chunk_queries = 0;
  EXPECT_THROW(run(zero_chunk), InvalidArgument);
}

TEST(Sched, NamesRoundTrip) {
  for (const sched::JobKind kind :
       {sched::JobKind::kBatch, sched::JobKind::kServe, sched::JobKind::kPack})
    EXPECT_EQ(sched::job_kind_from_name(sched::job_kind_name(kind)), kind);
  for (const sched::Priority priority :
       {sched::Priority::kLow, sched::Priority::kNormal,
        sched::Priority::kHigh})
    EXPECT_EQ(sched::priority_from_name(sched::priority_name(priority)),
              priority);
  EXPECT_THROW(sched::job_kind_from_name("bogus"), InvalidArgument);
  EXPECT_THROW(sched::priority_from_name("bogus"), InvalidArgument);
}

}  // namespace
}  // namespace msp
