// Online service validation: the streamed per-shard top-τ merge must be
// bit-identical to the one-shot search for any shard order (the property
// the incremental publish rests on), the service must reproduce the serial
// engine's exact hit lists under every dispatch mode, overload policy and
// fault schedule, its latency accounting must be deterministic across
// reruns and kernel thread counts, and its traces must validate with the
// serve lane populated.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "scoring/incremental_topk.hpp"
#include "serve/service.hpp"
#include "serve/slo.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/trace_validate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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
    db_options.seed = 5001;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 24;
    q_options.seed = 5002;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));

    config.tolerance_da = 3.0;
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

serve::ServiceOptions default_options() {
  serve::ServiceOptions options;
  options.arrivals.kind = serve::ArrivalKind::kPoisson;
  options.arrivals.rate_qps = 400.0;
  options.arrivals.seed = 77;
  options.batch.max_batch = 6;
  options.batch.max_wait_s = 0.02;
  options.admission.max_outstanding = 256;
  return options;
}

// ---------------------------------------------------------------------------
// Satellite: streamed per-shard merge == one-shot TopK, any shard order.

TEST(IncrementalTopK, MatchesOneShotForAnyShardOrder) {
  const Fixture& f = fixture();
  const SearchEngine engine(f.config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(f.queries.data(), f.queries.size()));

  for (const int shards : {3, 5, 8}) {
    // Per-shard partial top-τ lists, one vector<TopK> per shard.
    std::vector<std::vector<TopK<Hit>>> partials;
    for (int s = 0; s < shards; ++s) {
      const ProteinDatabase shard_db =
          load_database_shard(f.image, s, shards);
      std::vector<TopK<Hit>> tops = engine.make_tops(f.queries.size());
      engine.search_shard(shard_db, prepared, tops, nullptr, nullptr);
      partials.push_back(std::move(tops));
    }

    // Absorb in several deterministic random orders (plus forward and
    // reverse) and require the exact serial lists every time — the shard
    // order a crashed-and-recovered service sees is just another
    // permutation.
    std::vector<std::size_t> order(static_cast<std::size_t>(shards));
    for (std::size_t s = 0; s < order.size(); ++s) order[s] = s;
    Xoshiro256 rng(900 + static_cast<std::uint64_t>(shards));
    for (int trial = 0; trial < 6; ++trial) {
      if (trial == 1) {
        std::reverse(order.begin(), order.end());
      } else if (trial > 1) {
        for (std::size_t i = order.size() - 1; i > 0; --i)
          std::swap(order[i], order[rng() % (i + 1)]);
      }
      QueryHits streamed(f.queries.size());
      for (std::size_t q = 0; q < f.queries.size(); ++q) {
        IncrementalTopK<Hit> merged(f.config.tau,
                                    static_cast<std::size_t>(shards));
        for (const std::size_t s : order) {
          EXPECT_FALSE(merged.complete());
          merged.absorb(s, partials[s][q]);
        }
        ASSERT_TRUE(merged.complete());
        streamed[q] = merged.finalize();
      }
      expect_hits_equal(streamed, f.serial,
                        "shards=" + std::to_string(shards) + " trial=" +
                            std::to_string(trial));
    }
  }
}

TEST(IncrementalTopK, RejectsDoubleAbsorbAndEarlyFinalize) {
  IncrementalTopK<Hit> merged(4, 2);
  TopK<Hit> partial(4);
  merged.absorb(0, partial);
  EXPECT_THROW(merged.absorb(0, partial), InvalidArgument);
  EXPECT_THROW(merged.finalize(), InvalidArgument);
  EXPECT_THROW(merged.absorb(2, partial), InvalidArgument);
}

// ---------------------------------------------------------------------------
// The service reproduces the serial hit lists.

TEST(Service, MultiBatchRingMatchesSerialHits) {
  const Fixture& f = fixture();
  for (const int p : {4, 7}) {
    const sim::Runtime runtime(p);
    const serve::ServiceResult result = serve::run_service(
        runtime, f.image, f.queries, f.config, default_options());
    EXPECT_EQ(result.completed, f.queries.size());
    EXPECT_EQ(result.shed, 0u);
    expect_hits_equal(result.hits, f.serial, "multi p=" + std::to_string(p));
    EXPECT_GT(result.batches, 1u);
    EXPECT_EQ(result.latency.count, f.queries.size());
    for (const serve::QueryOutcome& q : result.outcomes) {
      EXPECT_FALSE(q.shed);
      EXPECT_LE(q.arrival_s, q.admit_s);
      EXPECT_LE(q.admit_s, q.dispatch_s);
      EXPECT_LT(q.dispatch_s, q.complete_s);
    }
  }
}

TEST(Service, NaiveModeMatchesAndIsSlower) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(6);
  serve::ServiceOptions options = default_options();

  options.mode = serve::DispatchMode::kMultiBatchRing;
  const serve::ServiceResult multi =
      serve::run_service(runtime, f.image, f.queries, f.config, options);
  options.mode = serve::DispatchMode::kBatchAtATime;
  const serve::ServiceResult naive =
      serve::run_service(runtime, f.image, f.queries, f.config, options);

  expect_hits_equal(naive.hits, f.serial, "naive");
  expect_hits_equal(multi.hits, f.serial, "multi");
  EXPECT_EQ(naive.completed, f.queries.size());
  // The continuous ring amortizes rotations over in-flight batches; the
  // batch-at-a-time baseline pays a full rotation per batch, so it can
  // never finish sooner and uses at least as many ring steps.
  EXPECT_LE(multi.makespan_s, naive.makespan_s);
  EXPECT_LE(multi.ring_steps, naive.ring_steps);
  EXPECT_GE(multi.throughput_qps, naive.throughput_qps);
}

// ---------------------------------------------------------------------------
// Determinism: reruns and kernel thread counts change nothing observable.

TEST(Service, DeterministicAcrossRerunsAndKernelThreads) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(5);

  auto run_with_threads = [&](std::size_t threads) {
    SearchConfig config = f.config;
    config.kernel_threads = threads;
    return serve::run_service(runtime, f.image, f.queries, config,
                              default_options());
  };

  const serve::ServiceResult a = run_with_threads(1);
  const serve::ServiceResult b = run_with_threads(1);
  const serve::ServiceResult c = run_with_threads(3);

  for (const serve::ServiceResult* other : {&b, &c}) {
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
    EXPECT_EQ(other->latency.p99, a.latency.p99);
    EXPECT_EQ(other->report.total_time(), a.report.total_time());
  }
}

// ---------------------------------------------------------------------------
// Fault schedules: orphaned queries re-enter admission and still finish
// with the exact serial hits.

TEST(Service, CrashOrphansAreReadmittedAndComplete) {
  const Fixture& f = fixture();
  const int p = 5;
  sim::FaultModel faults;
  faults.crash(2, 2);  // rank 2 dies at service ring step 2, mid-flight
  const sim::Runtime runtime(p, {}, {}, faults);

  const serve::ServiceResult result = serve::run_service(
      runtime, f.image, f.queries, f.config, default_options());

  EXPECT_EQ(result.completed, f.queries.size());
  EXPECT_EQ(result.shed, 0u);
  expect_hits_equal(result.hits, f.serial, "crash");
  std::uint32_t redispatches = 0;
  for (const serve::QueryOutcome& q : result.outcomes)
    redispatches += q.redispatches;
  EXPECT_GT(redispatches, 0u);
  EXPECT_TRUE(result.report.has_fault_activity());

  // And the faulty run is itself deterministic.
  const serve::ServiceResult again = serve::run_service(
      runtime, f.image, f.queries, f.config, default_options());
  expect_hits_equal(again.hits, result.hits, "crash rerun");
  EXPECT_EQ(again.makespan_s, result.makespan_s);
}

// The schedules the ring cannot absorb fail with the typed error, routed or
// not: every rank dead (p=2), and a band whose owner and replica holder
// (its ring successor) both die (p=4).
TEST(Service, UnrecoverableSchedulesThrow) {
  const Fixture& f = fixture();
  sim::FaultModel all_dead;
  all_dead.crash(0, 0).crash(1, 1);
  sim::FaultModel band_lost;
  band_lost.crash(1, 0).crash(2, 1);
  const std::pair<int, const sim::FaultModel*> cells[] = {{2, &all_dead},
                                                          {4, &band_lost}};
  for (const auto& [p, faults] : cells) {
    for (const bool routing : {true, false}) {
      const sim::Runtime runtime(p, {}, {}, *faults);
      serve::ServiceOptions options = default_options();
      options.mass_routing = routing;
      EXPECT_THROW(
          serve::run_service(runtime, f.image, f.queries, f.config, options),
          FaultUnrecoverable)
          << "p=" << p << " routing=" << routing;
    }
  }
}

// ---------------------------------------------------------------------------
// Admission control: shed drops deterministically, delay completes all.

TEST(Service, OverloadShedsOrDelaysDeterministically) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  serve::ServiceOptions options = default_options();
  options.arrivals.kind = serve::ArrivalKind::kBurst;
  options.arrivals.burst_size = 12;
  options.arrivals.burst_gap_s = 0.1;
  options.admission.max_outstanding = 8;

  options.admission.overload = serve::OverloadPolicy::kShed;
  const serve::ServiceResult shed =
      serve::run_service(runtime, f.image, f.queries, f.config, options);
  EXPECT_GT(shed.shed, 0u);
  EXPECT_EQ(shed.completed + shed.shed, f.queries.size());
  for (std::size_t q = 0; q < shed.outcomes.size(); ++q) {
    if (!shed.outcomes[q].shed) continue;
    EXPECT_TRUE(shed.hits[q].empty()) << "shed query " << q << " has hits";
    EXPECT_LT(shed.outcomes[q].complete_s, 0.0);
  }
  const serve::ServiceResult shed_again =
      serve::run_service(runtime, f.image, f.queries, f.config, options);
  ASSERT_EQ(shed_again.outcomes.size(), shed.outcomes.size());
  for (std::size_t q = 0; q < shed.outcomes.size(); ++q)
    EXPECT_EQ(shed_again.outcomes[q].shed, shed.outcomes[q].shed) << q;

  options.admission.overload = serve::OverloadPolicy::kDelay;
  const serve::ServiceResult delay =
      serve::run_service(runtime, f.image, f.queries, f.config, options);
  EXPECT_EQ(delay.shed, 0u);
  EXPECT_EQ(delay.completed, f.queries.size());
  expect_hits_equal(delay.hits, f.serial, "delay");
  bool backpressured = false;
  for (const serve::QueryOutcome& q : delay.outcomes)
    if (q.admit_s > q.arrival_s) backpressured = true;
  EXPECT_TRUE(backpressured) << "delay policy never queued an arrival";
  // Backpressure trades latency for completeness: the delay run completes
  // more queries than the shed run at the same capacity.
  EXPECT_GT(delay.completed, shed.completed);
}

// ---------------------------------------------------------------------------
// Traces: serve lane present, validator clean, byte-identical across runs.

TEST(Service, TraceValidatesWithServeLane) {
  const Fixture& f = fixture();
  sim::Runtime runtime(4);
  runtime.enable_tracing();

  const serve::ServiceResult result = serve::run_service(
      runtime, f.image, f.queries, f.config, default_options());
  const std::string trace = result.report.to_chrome_trace();
  EXPECT_EQ(sim::validate_chrome_trace(trace), "");
  EXPECT_NE(trace.find("\"serve\""), std::string::npos);
  EXPECT_NE(trace.find("serve-admit"), std::string::npos);
  EXPECT_NE(trace.find("serve-dispatch"), std::string::npos);
  EXPECT_NE(trace.find("serve-publish"), std::string::npos);

  const serve::ServiceResult again = serve::run_service(
      runtime, f.image, f.queries, f.config, default_options());
  EXPECT_EQ(again.report.to_chrome_trace(), trace);

  // Faulty traces validate too, with the shed/admit markers intact.
  sim::FaultModel faults;
  faults.crash(1, 2);
  sim::Runtime faulty(4, {}, {}, faults);
  faulty.enable_tracing();
  const serve::ServiceResult crashed = serve::run_service(
      faulty, f.image, f.queries, f.config, default_options());
  EXPECT_EQ(sim::validate_chrome_trace(crashed.report.to_chrome_trace()), "");
}

// ---------------------------------------------------------------------------
// simcheck: the service's cross-batch window reads are race-free.

TEST(Service, SimcheckCleanIncludingFaults) {
  const Fixture& f = fixture();
  std::vector<sim::check::Violation> violations;

  sim::Runtime runtime(4);
  runtime.set_check_sink(&violations);
  const serve::ServiceResult clean = serve::run_service(
      runtime, f.image, f.queries, f.config, default_options());
  EXPECT_EQ(clean.completed, f.queries.size());
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations";

  sim::FaultModel faults;
  faults.crash(3, 2);
  sim::Runtime faulty(4, {}, {}, faults);
  faulty.set_check_sink(&violations);
  const serve::ServiceResult crashed = serve::run_service(
      faulty, f.image, f.queries, f.config, default_options());
  EXPECT_EQ(crashed.completed, f.queries.size());
  EXPECT_TRUE(violations.empty()) << violations.size() << " violations";
}

// ---------------------------------------------------------------------------
// Arrival schedules and latency summaries.

TEST(Arrivals, SchedulesAreDeterministicAndOrdered) {
  serve::ArrivalModel model;
  for (const serve::ArrivalKind kind :
       {serve::ArrivalKind::kUniform, serve::ArrivalKind::kPoisson,
        serve::ArrivalKind::kBurst}) {
    model.kind = kind;
    const std::vector<double> a = serve::make_arrivals(model, 50);
    const std::vector<double> b = serve::make_arrivals(model, 50);
    ASSERT_EQ(a.size(), 50u);
    EXPECT_EQ(a, b) << serve::arrival_kind_name(kind);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()))
        << serve::arrival_kind_name(kind);
    EXPECT_GE(a.front(), 0.0);
  }
  model.kind = serve::ArrivalKind::kReplay;
  model.replay_times = {0.0, 0.5, 0.5, 2.0};
  EXPECT_EQ(serve::make_arrivals(model, 3),
            (std::vector<double>{0.0, 0.5, 0.5}));
  model.replay_times = {1.0, 0.5};
  EXPECT_THROW(serve::make_arrivals(model, 2), InvalidArgument);
  EXPECT_THROW(serve::arrival_kind_from_name("bogus"), InvalidArgument);
}

TEST(Slo, LatencySummaryNearestRank) {
  std::vector<double> sample;
  for (int i = 100; i >= 1; --i) sample.push_back(static_cast<double>(i));
  const serve::LatencySummary s = serve::summarize_latencies(sample);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.p50, 50.0);
  EXPECT_DOUBLE_EQ(s.p95, 95.0);
  EXPECT_DOUBLE_EQ(s.p99, 99.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  const serve::LatencySummary empty = serve::summarize_latencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0.0);
}

}  // namespace
}  // namespace msp
