// Mass-aware shard routing validation: the oracle matrix (routed and
// unrouted service hits must be bit-identical to the reference kernel
// across precursor-window widths, query-mass distributions, and fault
// schedules), the exhaustive skip proof (a routed-away band truly holds no
// candidate for any skipped query), byte-level determinism of routed runs
// (hits, report JSON, trace) across reruns, kernel thread counts, and crash
// re-admission, early publication (each routed query sits on the rank that
// reaches its bands soonest and its flight publishes after its last needed
// band), the histogram wire record's round-trip/fallback/corruption
// properties, and the router's audit counters in the report schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/candidate_record.hpp"
#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/ring_service.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "core/wire.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "serve/service.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace msp {
namespace {

// ---------------------------------------------------------------------------
// Workloads: a uniform query-mass spread and a skewed one (all targets
// excised from a narrow digest-length slice, so the masses pile into a thin
// band and most of the ring's mass bands are provably irrelevant).

struct Workload {
  std::string name;
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;
};

Workload make_workload(bool skewed) {
  Workload w;
  w.name = skewed ? "skewed" : "uniform";

  ProteinGenOptions db_options;
  db_options.sequence_count = 30;
  db_options.mean_length = 100;
  db_options.seed = skewed ? 7101 : 7001;
  w.db = generate_proteins(db_options);
  w.image = to_fasta_string(w.db);

  QueryGenOptions q_options;
  q_options.query_count = 18;
  q_options.seed = skewed ? 7102 : 7002;
  q_options.digest.min_length = 6;
  q_options.digest.max_length = skewed ? 9 : 25;
  w.queries = spectra_of(generate_queries(w.db, q_options));
  return w;
}

const Workload& workload(bool skewed) {
  static const Workload uniform = make_workload(false);
  static const Workload skew = make_workload(true);
  return skewed ? skew : uniform;
}

SearchConfig make_config(double tolerance_da) {
  SearchConfig config;
  config.tolerance_da = tolerance_da;
  config.tau = 6;
  config.min_candidate_length = 4;
  config.max_candidate_length = 60;
  config.model = ScoreModel::kLikelihood;
  return config;
}

/// The routing oracle: the original database-walking kernel over the whole
/// (unsharded) database — no banding, no histograms, no ring.
QueryHits reference_hits(const Workload& w, const SearchConfig& config) {
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  std::vector<TopK<Hit>> tops = engine.make_tops(w.queries.size());
  engine.search_shard_reference(w.db, prepared, tops, nullptr);
  return engine.finalize(tops);
}

/// Bit-identity, not tolerance: every field of every hit, scores compared
/// with operator== on the doubles.
void expect_hits_identical(const QueryHits& got, const QueryHits& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      EXPECT_EQ(got[q][h].protein_id, want[q][h].protein_id)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].offset, want[q][h].offset)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].length, want[q][h].length)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].end, want[q][h].end)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].peptide, want[q][h].peptide)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].score, want[q][h].score)
          << label << " q" << q << " h" << h;
    }
  }
}

serve::ServiceOptions service_options(bool routed) {
  serve::ServiceOptions options;
  options.arrivals.kind = serve::ArrivalKind::kPoisson;
  options.arrivals.rate_qps = 400.0;
  options.arrivals.seed = 77;
  options.batch.max_batch = 6;
  options.batch.max_wait_s = 0.02;
  options.admission.max_outstanding = 256;
  options.mass_routing = routed;
  return options;
}

// ---------------------------------------------------------------------------
// The oracle matrix: {narrow, wide, open-ish} windows × {uniform, skewed}
// mass distributions × {clean, crash} schedules. In every cell the routed
// and unrouted service must reproduce the reference kernel's hit lists
// bit-for-bit; in narrow cells the router must actually skip.

TEST(Routing, OracleMatrixRoutedEqualsUnroutedEqualsReference) {
  const int p = 5;
  for (const bool skewed : {false, true}) {
    const Workload& w = workload(skewed);
    for (const double tolerance : {0.05, 3.0, 25.0}) {
      const SearchConfig config = make_config(tolerance);
      const QueryHits reference = reference_hits(w, config);
      for (const bool crash : {false, true}) {
        const std::string cell = w.name + " tol=" + std::to_string(tolerance) +
                                 (crash ? " crash" : " clean");
        sim::FaultModel faults;
        if (crash) faults.crash(2, 3);  // rank 2 dies at ring step 3
        const sim::Runtime runtime(p, {}, {}, faults);

        const serve::ServiceResult routed = serve::run_service(
            runtime, w.image, w.queries, config, service_options(true));
        const serve::ServiceResult unrouted = serve::run_service(
            runtime, w.image, w.queries, config, service_options(false));

        EXPECT_EQ(routed.completed, w.queries.size()) << cell;
        EXPECT_EQ(unrouted.completed, w.queries.size()) << cell;
        expect_hits_identical(routed.hits, reference, cell + " routed");
        expect_hits_identical(unrouted.hits, reference, cell + " unrouted");

        // Audit sanity: routing off never reports a skip; ratios in range.
        EXPECT_EQ(unrouted.steps_skipped, 0u) << cell;
        EXPECT_EQ(unrouted.skip_ratio, 0.0) << cell;
        EXPECT_GE(routed.skip_ratio, 0.0) << cell;
        EXPECT_LE(routed.skip_ratio, 1.0) << cell;
        // Narrow windows over banded shards must skip most of the ring —
        // otherwise the router is vacuous and this suite proves nothing.
        if (tolerance <= 0.05) {
          EXPECT_GT(routed.steps_skipped, 0u) << cell;
          EXPECT_GT(routed.skip_ratio, 0.5) << cell;
          EXPECT_LE(routed.makespan_s, unrouted.makespan_s) << cell;
        }
      }
    }
  }
}

/// This rank's mass band and the exchanged band map, rebuilt collectively
/// exactly as the serving ring builds them (same enumeration envelope, same
/// counting sort, same histogram grid).
struct ServeBands {
  std::vector<CandidateRecord> records;
  ShardMassMap map;
};

ServeBands serve_bands(sim::Comm& comm, const Workload& w,
                       const SearchConfig& config) {
  const SearchEngine engine(config);
  ProteinDatabase local_db =
      load_database_shard(w.image, comm.rank(), comm.size());

  // The stream envelope the service enumerates under.
  double stream_lo = 1e30;
  double stream_hi = -1e30;
  for (const Spectrum& query : w.queries)
    for (const double mass : engine.hypothesis_masses(query)) {
      stream_lo = std::min(stream_lo, mass);
      stream_hi = std::max(stream_hi, mass);
    }
  std::vector<CandidateRecord> records = enumerate_candidate_records(
      local_db, config, stream_lo - config.window_below(),
      stream_hi + config.window_above());
  ServeBands bands;
  bands.records = sort_candidate_records_by_mass(comm, std::move(records));

  std::vector<double> masses;
  masses.reserve(bands.records.size());
  for (const CandidateRecord& record : bands.records)
    masses.push_back(record.mass);
  bands.map = ShardMassMap::exchange(
      comm, MassHistogram::build(masses, kServeRouteBucketDa));
  return bands;
}

// ---------------------------------------------------------------------------
// The skip proof, checked against ground truth: rebuild the service's band
// layout collectively, then for every (query, band) the map routes away,
// exhaustively scan the band and require zero candidates inside any of the
// query's hypothesis windows. Also checks record_range's superset contract
// on the visited side — every in-window record index lies in the range.

TEST(Routing, SkippedShardsContainNoCandidatesExhaustive) {
  const Workload& w = workload(false);
  const SearchConfig config = make_config(0.05);
  const SearchEngine engine(config);
  const int p = 6;
  const sim::Runtime runtime(p);

  std::vector<std::uint64_t> skipped(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> skip_violations(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> range_violations(static_cast<std::size_t>(p), 0);

  runtime.run([&](sim::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    const ServeBands bands = serve_bands(comm, w, config);
    const std::vector<CandidateRecord>& band = bands.records;
    const ShardMassMap& map = bands.map;

    for (const Spectrum& query : w.queries) {
      const std::vector<double> hyp = engine.hypothesis_masses(query);
      const auto in_window = [&](double mass) {
        for (const double m : hyp)
          if (mass >= m - config.tolerance_da &&
              mass <= m + config.tolerance_da)
            return true;
        return false;
      };
      if (!map.needed(comm.rank(), hyp, config.tolerance_da)) {
        ++skipped[rank];
        for (const CandidateRecord& record : band)
          if (in_window(record.mass)) ++skip_violations[rank];
      } else if (!hyp.empty()) {
        double lo = hyp.front();
        double hi = hyp.front();
        for (const double m : hyp) {
          lo = std::min(lo, m);
          hi = std::max(hi, m);
        }
        const auto [first, last] = map.histogram(comm.rank())->record_range(
            lo - config.tolerance_da, hi + config.tolerance_da);
        for (std::size_t i = 0; i < band.size(); ++i)
          if (in_window(band[i].mass) && (i < first || i >= last))
            ++range_violations[rank];
      }
    }
  });

  std::uint64_t total_skipped = 0;
  for (int r = 0; r < p; ++r) {
    const auto rank = static_cast<std::size_t>(r);
    total_skipped += skipped[rank];
    EXPECT_EQ(skip_violations[rank], 0u)
        << "rank " << r << " skipped a band holding in-window candidates";
    EXPECT_EQ(range_violations[rank], 0u)
        << "rank " << r << " record_range dropped an in-window record";
  }
  // The proof is vacuous unless the narrow window actually skips.
  EXPECT_GT(total_skipped, 0u);
}

// ---------------------------------------------------------------------------
// Byte-level determinism with routing on: reruns, kernel thread counts, and
// a crash schedule whose orphans re-enter admission through the router all
// produce identical hits, report JSON, CSV, and trace bytes.

TEST(Routing, ByteIdenticalAcrossRerunsThreadsAndCrashes) {
  const Workload& w = workload(false);
  // A 3 Da window gives flights that span several bands, so the crash at
  // step 3 lands while rank 3 still holds a block of one.
  sim::FaultModel faults;
  faults.crash(3, 3);
  sim::Runtime runtime(5, {}, {}, faults);
  runtime.enable_tracing();

  auto run_with_threads = [&](std::size_t threads) {
    SearchConfig config = make_config(3.0);
    config.kernel_threads = threads;
    return serve::run_service(runtime, w.image, w.queries, config,
                              service_options(true));
  };

  const serve::ServiceResult a = run_with_threads(1);
  const serve::ServiceResult b = run_with_threads(1);
  const serve::ServiceResult c = run_with_threads(3);

  // The crash exercised the router's re-admission path.
  std::uint32_t redispatches = 0;
  for (const serve::QueryOutcome& q : a.outcomes)
    redispatches += q.redispatches;
  EXPECT_GT(redispatches, 0u);
  EXPECT_GT(a.steps_skipped, 0u);

  for (const serve::ServiceResult* other : {&b, &c}) {
    expect_hits_identical(other->hits, a.hits, "routed rerun");
    EXPECT_EQ(other->report.to_json(), a.report.to_json());
    EXPECT_EQ(other->report.to_csv(), a.report.to_csv());
    EXPECT_EQ(other->report.to_chrome_trace(), a.report.to_chrome_trace());
    EXPECT_EQ(other->steps_visited, a.steps_visited);
    EXPECT_EQ(other->steps_skipped, a.steps_skipped);
    EXPECT_EQ(other->makespan_s, a.makespan_s);
  }
}

// ---------------------------------------------------------------------------
// Early publication: a routed flight is as long as its routed work. Rank r
// holds band (r + s) mod p at step s, so a query needing bands B is done on
// r after reach(r) = max over b in B of (b − r − f) mod p steps past the
// admit step f. Each query must sit on the live rank with the smallest
// reach (lowest rank on a tie — single-query batches place nothing else),
// and a flight must publish at f + its largest placed reach. The expected
// values are recomputed here from an independently exchanged band map;
// which rank holds a query is read off the memory its block charges.

int ring_reach(int rank, int first_step, const std::vector<int>& bands,
               int p) {
  int reach = 0;
  for (const int band : bands)
    reach = std::max(reach, ((band - rank - first_step) % p + p) % p);
  return reach;
}

struct FlightProbe {
  std::vector<std::size_t> ids;
  int first_step = 0;
  int flight_steps = 0;       ///< RingService::flight_steps before admit
  int expected_steps = 0;     ///< 1 + max over ids of the least live reach
  int published_step = -1;    ///< the step whose outcome published it
  int expected_member = -1;   ///< single-query batches: soonest live rank
  int preferred_member = -1;  ///< the same, ignoring deaths
  std::vector<int> holders;   ///< ranks whose memory grew at admit
};

struct ProbeRun {
  std::vector<FlightProbe> flights;
  QueryHits hits;
};

/// Admit `w`'s queries to a RingService one batch of `batch_size` at a
/// time, stepping each flight to publication before the next. `dead` names
/// a rank the fault schedule kills at step 0 (-1: none).
ProbeRun probe_flights(const Workload& w, const SearchConfig& config, int p,
                       bool routing, std::size_t batch_size, int dead) {
  sim::FaultModel faults;
  if (dead >= 0) faults.crash(dead, 0);
  const sim::Runtime runtime(p, {}, {}, faults);
  const SearchEngine engine(config);
  const std::size_t n = w.queries.size();
  const std::size_t flight_count = (n + batch_size - 1) / batch_size;

  ProbeRun run;
  run.hits.resize(n);
  run.flights.resize(flight_count);
  std::vector<std::vector<int>> held(
      flight_count, std::vector<int>(static_cast<std::size_t>(p), 0));
  runtime.run([&](sim::Comm& comm) {
    const ServeBands bands = serve_bands(comm, w, config);
    RingService ring(comm, w.image,
                     std::span<const Spectrum>(w.queries.data(), n), engine,
                     run.hits, routing);
    for (std::size_t f = 0; f < flight_count; ++f) {
      FlightProbe probe;
      const std::size_t end = std::min(n, (f + 1) * batch_size);
      for (std::size_t q = f * batch_size; q < end; ++q)
        probe.ids.push_back(q);
      probe.first_step = ring.steps_done();
      probe.flight_steps = ring.flight_steps(probe.ids);
      int span = 0;
      for (const std::size_t q : probe.ids) {
        std::vector<int> need;
        const std::vector<double> masses =
            engine.hypothesis_masses(w.queries[q]);
        for (int band = 0; band < p; ++band)
          if (bands.map.needed(band, masses, config.window_below(),
                               config.window_above()))
            need.push_back(band);
        int best = -1;
        int best_reach = p;
        int preferred = -1;
        int preferred_reach = p;
        for (int r = 0; r < p; ++r) {
          const int reach = ring_reach(r, probe.first_step, need, p);
          if (reach < preferred_reach) {
            preferred = r;
            preferred_reach = reach;
          }
          if (r != dead && reach < best_reach) {
            best = r;
            best_reach = reach;
          }
        }
        span = std::max(span, best_reach);
        probe.expected_member = best;
        probe.preferred_member = preferred;
      }
      probe.expected_steps = routing ? span + 1 : p;

      const std::size_t before = comm.current_memory();
      ring.admit(ServiceBatch{f, probe.ids});
      if (comm.current_memory() > before)
        held[f][static_cast<std::size_t>(comm.rank())] = 1;
      while (ring.in_flight() > 0) {
        const ServiceStepOutcome out = ring.step(false);
        if (!out.published.empty()) probe.published_step = out.step;
      }
      if (comm.rank() == 0) run.flights[f] = std::move(probe);
    }
    ring.finish();
  });
  for (std::size_t f = 0; f < flight_count; ++f)
    for (int r = 0; r < p; ++r)
      if (held[f][static_cast<std::size_t>(r)])
        run.flights[f].holders.push_back(r);
  return run;
}

TEST(EarlyPublication, RoutedFlightsPublishAtTheirLastNeededStep) {
  const Workload& w = workload(false);
  for (const int p : {4, 5, 16}) {
    for (const std::size_t threads : {1u, 3u}) {
      SearchConfig config = make_config(3.0);
      config.kernel_threads = threads;
      const QueryHits reference = reference_hits(w, config);
      for (const std::size_t batch : {1u, 4u}) {
        const std::string cell = "p=" + std::to_string(p) + " threads=" +
                                 std::to_string(threads) + " batch=" +
                                 std::to_string(batch);
        const ProbeRun run = probe_flights(w, config, p, true, batch, -1);
        std::size_t short_flights = 0;
        for (const FlightProbe& flight : run.flights) {
          EXPECT_EQ(flight.flight_steps, flight.expected_steps) << cell;
          EXPECT_EQ(flight.published_step,
                    flight.first_step + flight.expected_steps - 1)
              << cell;
          if (flight.expected_steps < p) ++short_flights;
          // Each query sits on the member that reaches its bands soonest.
          if (batch == 1) {
            EXPECT_EQ(flight.holders, std::vector<int>{flight.expected_member})
                << cell << " query " << flight.ids.front();
          }
        }
        EXPECT_GT(short_flights, 0u) << cell;
        expect_hits_identical(run.hits, reference, cell);
      }
    }
  }
}

TEST(EarlyPublication, UnroutedFlightsStillTakePSteps) {
  const Workload& w = workload(false);
  for (const int p : {4, 5, 16}) {
    for (const std::size_t threads : {1u, 3u}) {
      SearchConfig config = make_config(3.0);
      config.kernel_threads = threads;
      const std::string cell =
          "p=" + std::to_string(p) + " threads=" + std::to_string(threads);
      const ProbeRun run = probe_flights(w, config, p, false, 4, -1);
      for (const FlightProbe& flight : run.flights) {
        EXPECT_EQ(flight.flight_steps, p) << cell;
        EXPECT_EQ(flight.published_step, flight.first_step + p - 1) << cell;
      }
      expect_hits_identical(run.hits, reference_hits(w, config), cell);
    }
  }
}

TEST(EarlyPublication, DeadPlacementTargetFallsBackToNextSoonestLiveMember) {
  const Workload& w = workload(false);
  const int dead = 1;
  for (const int p : {4, 5, 16}) {
    for (const std::size_t threads : {1u, 3u}) {
      SearchConfig config = make_config(3.0);
      config.kernel_threads = threads;
      const std::string cell =
          "p=" + std::to_string(p) + " threads=" + std::to_string(threads);
      const ProbeRun run = probe_flights(w, config, p, true, 1, dead);
      std::size_t fallbacks = 0;
      for (const FlightProbe& flight : run.flights) {
        EXPECT_NE(flight.expected_member, dead) << cell;
        EXPECT_EQ(flight.holders, std::vector<int>{flight.expected_member})
            << cell << " query " << flight.ids.front();
        EXPECT_EQ(flight.published_step,
                  flight.first_step + flight.expected_steps - 1)
            << cell;
        if (flight.preferred_member == dead) ++fallbacks;
      }
      // Vacuous unless some query's soonest rank was the dead one.
      EXPECT_GT(fallbacks, 0u) << cell;
      expect_hits_identical(run.hits, reference_hits(w, config), cell);
    }
  }
}

// ---------------------------------------------------------------------------
// Report schema: the router's audit counters ride the standard counter
// columns (CSV) and counter sums (JSON), and vanish when routing is off —
// the zero-cost-when-disabled contract the fault columns already honor.

TEST(Routing, AuditCountersAppearInReportSchema) {
  const Workload& w = workload(false);
  const SearchConfig config = make_config(0.05);
  const sim::Runtime runtime(5);

  const serve::ServiceResult routed = serve::run_service(
      runtime, w.image, w.queries, config, service_options(true));
  const std::string csv = routed.report.to_csv();
  const std::string json = routed.report.to_json();
  EXPECT_NE(csv.find("route_steps_visited"), std::string::npos);
  EXPECT_NE(csv.find("route_steps_skipped"), std::string::npos);
  EXPECT_NE(json.find("route_steps_visited"), std::string::npos);
  EXPECT_NE(json.find("route_steps_skipped"), std::string::npos);
  EXPECT_GT(routed.report.sum_counter("route_steps_skipped"), 0u);

  // The per-batch audit aggregates to the result's totals.
  std::uint64_t visited = 0;
  std::uint64_t skipped = 0;
  for (const serve::BatchRouteStats& batch : routed.batch_routes) {
    visited += batch.steps_visited;
    skipped += batch.steps_skipped;
  }
  EXPECT_EQ(visited, routed.steps_visited);
  EXPECT_EQ(skipped, routed.steps_skipped);

  const serve::ServiceResult unrouted = serve::run_service(
      runtime, w.image, w.queries, config, service_options(false));
  EXPECT_EQ(unrouted.report.sum_counter("route_steps_skipped"), 0u);
  EXPECT_EQ(unrouted.report.to_csv().find("route_steps_skipped"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Wire format: the histogram record round-trips losslessly under fuzzed
// mass sets, widths, and sizes (empty and singleton included).

TEST(RoutingWire, HistogramRecordRoundTripFuzz) {
  Xoshiro256 rng(424242);
  const double widths[] = {0.01, 0.25, 1.0, 17.3};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count =
        trial == 0 ? 0 : (trial == 1 ? 1 : rng() % 300);
    std::vector<double> masses(count);
    for (double& mass : masses)
      mass = 300.0 + static_cast<double>(rng() % 3700000) * 1e-3;
    std::sort(masses.begin(), masses.end());
    const double width = widths[rng() % 4];
    const MassHistogram histogram = MassHistogram::build(masses, width);
    EXPECT_EQ(histogram.total(), masses.size());

    wire::Writer writer;
    put_histogram(writer, histogram);
    const std::vector<char> bytes = writer.take();
    wire::Reader reader(bytes);
    EXPECT_TRUE(peek_histogram(reader));
    const MassHistogram parsed = get_histogram(reader);
    EXPECT_TRUE(reader.exhausted()) << "trial " << trial;

    EXPECT_EQ(parsed.bucket_width, histogram.bucket_width);
    EXPECT_EQ(parsed.min_mass, histogram.min_mass);
    EXPECT_EQ(parsed.bucket_count, histogram.bucket_count);
    ASSERT_EQ(parsed.buckets.size(), histogram.buckets.size());
    for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
      EXPECT_EQ(parsed.buckets[i].index, histogram.buckets[i].index);
      EXPECT_EQ(parsed.buckets[i].count, histogram.buckets[i].count);
    }

    // Semantic equivalence on random windows, not just field equality.
    for (int probe = 0; probe < 8; ++probe) {
      const double lo = 250.0 + static_cast<double>(rng() % 3900000) * 1e-3;
      const double hi = lo + static_cast<double>(rng() % 5000) * 1e-3;
      EXPECT_EQ(parsed.occupied(lo, hi), histogram.occupied(lo, hi));
      EXPECT_EQ(parsed.record_range(lo, hi), histogram.record_range(lo, hi));
    }
  }
}

// ---------------------------------------------------------------------------
// Bucket-math boundaries: occupied()/record_range() are integer math over
// clamped bucket ordinals (no float compare against the grid), so masses
// exactly on bucket edges, windows far outside the grid, infinities and
// NaN all take defined paths — edges err occupied (the ±1-bucket widening),
// out-of-grid windows are provably empty, NaN never routes a visit.

TEST(RoutingBucketMath, ExactBucketEdgesAreOccupied) {
  const double width = 0.25;
  std::vector<double> masses = {500.0, 500.5, 501.0};
  const MassHistogram histogram = MassHistogram::build(masses, width);
  for (const double mass : masses) {
    // A zero-width window exactly on a stored mass (a bucket's floor edge,
    // since these masses are multiples of the width).
    EXPECT_TRUE(histogram.occupied(mass, mass)) << mass;
    const auto [first, last] = histogram.record_range(mass, mass);
    EXPECT_LT(first, last) << mass;
  }
  // The grid edges themselves: one bucket-width below the first mass and
  // at/above the last stored bucket are inside the ±1 widening → occupied;
  // two widths out is provably empty.
  EXPECT_TRUE(histogram.occupied(500.0 - width, 500.0 - width));
  EXPECT_FALSE(histogram.occupied(500.0 - 2 * width, 500.0 - 2 * width));
  EXPECT_TRUE(histogram.occupied(501.0 + width, 501.0 + width));
  EXPECT_FALSE(histogram.occupied(501.25 + width, 501.25 + width));
}

TEST(RoutingBucketMath, WindowsOutsideTheGridAreEmpty) {
  std::vector<double> masses = {800.0, 900.0, 1000.0};
  const MassHistogram histogram = MassHistogram::build(masses, 0.01);
  // Far below, far above, and astronomically outside — including values
  // whose float bucket ordinal overflows int32/uint32 if computed naively.
  EXPECT_FALSE(histogram.occupied(1.0, 2.0));
  EXPECT_FALSE(histogram.occupied(5000.0, 6000.0));
  EXPECT_FALSE(histogram.occupied(1e30, 1e30));
  EXPECT_FALSE(histogram.occupied(-1e30, -1e30));
  EXPECT_EQ(histogram.record_range(1.0, 2.0), (std::pair<std::uint64_t,
                                               std::uint64_t>{0, 0}));
  EXPECT_EQ(histogram.record_range(1e30, 1e30).first,
            histogram.record_range(1e30, 1e30).second);
  // An envelope that swallows the whole grid (±inf) routes a visit and
  // covers every record.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(histogram.occupied(-kInf, kInf));
  EXPECT_EQ(histogram.record_range(-kInf, kInf),
            (std::pair<std::uint64_t, std::uint64_t>{0, masses.size()}));
  // Inverted and empty-intersection windows are empty, not UB.
  EXPECT_FALSE(histogram.occupied(900.0, 800.0));
}

TEST(RoutingBucketMath, NanWindowsNeverRoute) {
  std::vector<double> masses = {700.0, 701.0};
  const MassHistogram histogram = MassHistogram::build(masses, 0.01);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  // Every NaN comparison is false, so a NaN bound lands on the below-grid
  // sentinel and the window is treated as empty — deterministically, on
  // every rank (a NaN that routed "visit" on some ranks and "skip" on
  // others would desynchronize the replicated controllers).
  EXPECT_FALSE(histogram.occupied(kNan, kNan));
  // A NaN lower bound alone degrades to "from below the grid": with a real
  // upper bound the window still conservatively routes a visit.
  EXPECT_TRUE(histogram.occupied(kNan, 701.0));
  EXPECT_EQ(histogram.record_range(kNan, kNan),
            (std::pair<std::uint64_t, std::uint64_t>{0, 0}));
}

// Corrupt records must be rejected loudly, each with a specific IoError —
// never parsed into a histogram that silently misroutes.

TEST(RoutingWire, CorruptedHistogramRecordsAreRejected) {
  std::vector<double> masses;
  for (int i = 0; i < 50; ++i) masses.push_back(500.0 + 3.1 * i);
  const MassHistogram histogram = MassHistogram::build(masses, 0.25);
  wire::Writer writer;
  put_histogram(writer, histogram);
  const std::vector<char> valid = writer.take();

  const auto expect_rejected = [](std::vector<char> bytes,
                                  const std::string& label) {
    wire::Reader reader(bytes);
    EXPECT_THROW(get_histogram(reader), IoError) << label;
  };

  {  // Bad magic: peek says "not a histogram", get throws.
    std::vector<char> bytes = valid;
    bytes[0] ^= 0x5A;
    wire::Reader reader(bytes);
    EXPECT_FALSE(peek_histogram(reader));
    expect_rejected(bytes, "bad magic");
  }
  {  // Truncation anywhere in the record.
    for (const std::size_t keep :
         {std::size_t{4}, std::size_t{12}, valid.size() - 3}) {
      std::vector<char> bytes(valid.begin(),
                              valid.begin() + static_cast<long>(keep));
      expect_rejected(std::move(bytes),
                      "truncated to " + std::to_string(keep));
    }
  }

  // Structurally valid framing with hostile field values, crafted off the
  // real magic (read from the valid image so the constant stays private).
  wire::Reader magic_reader(valid);
  const std::uint64_t magic = magic_reader.peek_u64();
  const auto craft = [&](std::uint32_t version, double width, double min_mass,
                         std::uint64_t grid, auto&&... bucket_fields) {
    wire::Writer bad;
    bad.put_u64(magic);
    bad.put_u32(version);
    bad.put_double(width);
    bad.put_double(min_mass);
    bad.put_u64(grid);
    const std::vector<std::uint32_t> fields{
        static_cast<std::uint32_t>(bucket_fields)...};
    bad.put_u64(fields.size() / 2);
    for (const std::uint32_t field : fields) bad.put_u32(field);
    return bad.take();
  };

  expect_rejected(craft(99, 0.25, 100.0, 10), "unsupported version");
  expect_rejected(craft(1, 0.0, 100.0, 10), "zero width");
  expect_rejected(craft(1, -0.25, 100.0, 10), "negative width");
  expect_rejected(craft(1, std::nan(""), 100.0, 10), "NaN width");
  expect_rejected(craft(1, 0.25, std::nan(""), 10), "NaN min mass");
  expect_rejected(craft(1, 0.25, 100.0, 10, 0u, 0u), "zero-count bucket");
  expect_rejected(craft(1, 0.25, 100.0, 10, 12u, 3u), "bucket outside grid");
  expect_rejected(craft(1, 0.25, 100.0, 10, 5u, 1u, 5u, 2u),
                  "non-ascending buckets");
  expect_rejected(craft(1, 0.25, 100.0, 1, 0u, 1u, 0u, 1u, 0u, 1u),
                  "more nonzero buckets than the grid");
}

// Legacy images and unknown shards: no histogram record means
// route-everything, never a wrong skip.

TEST(RoutingWire, LegacyImagesFallBackToRouteEverything) {
  const Workload& w = workload(false);
  const SearchConfig config = make_config(0.05);

  // Plain and indexed pack images predate the histogram trailer; both must
  // still parse, reporting no histogram.
  const PackedShard plain = unpack_shard(pack_database(w.db));
  EXPECT_FALSE(plain.has_histogram);
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const PackedShard indexed = unpack_shard(pack_database(w.db, index));
  EXPECT_TRUE(indexed.has_index);
  EXPECT_FALSE(indexed.has_histogram);

  // The trailer form round-trips its histogram.
  const MassHistogram histogram = MassHistogram::build(index);
  const PackedShard tagged =
      unpack_shard(pack_database(w.db, index, histogram));
  ASSERT_TRUE(tagged.has_histogram);
  EXPECT_EQ(tagged.histogram.total(), histogram.total());
  EXPECT_EQ(tagged.histogram.bucket_count, histogram.bucket_count);

  // A map built from nothing knows nothing and routes everything; a map
  // holding an empty histogram proves that shard empty and skips it.
  const ShardMassMap unknown;
  EXPECT_FALSE(unknown.routes());
  EXPECT_FALSE(unknown.known(0));
  EXPECT_EQ(unknown.histogram(0), nullptr);
  const std::vector<double> hyp{1000.0};
  EXPECT_TRUE(unknown.needed(0, hyp, 0.05));

  std::vector<std::optional<MassHistogram>> shards(2);
  shards[0] = histogram;
  shards[1] = MassHistogram{};  // provably empty shard
  const ShardMassMap partial{std::move(shards)};
  EXPECT_TRUE(partial.routes());
  EXPECT_FALSE(partial.needed(1, hyp, 0.05));
  EXPECT_TRUE(partial.needed(2, hyp, 0.05));  // out of range: visit
}

}  // namespace
}  // namespace msp
