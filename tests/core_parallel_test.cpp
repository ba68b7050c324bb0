// Validation of the parallel algorithms — the reproduction of Section III's
// "both implementations A & B successfully reproduce MSPolygraph's output":
// Algorithm A (masked and unmasked), Algorithm B, the master–worker baseline
// and the query-transport ablation must all produce, at every p, exactly
// the hit lists of the serial engine.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <utility>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "core/candidate_store.hpp"
#include "core/master_worker.hpp"
#include "core/partition.hpp"
#include "core/pipeline.hpp"
#include "core/query_transport.hpp"
#include "core/search_engine.hpp"
#include "core/sortmz.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "mass/ptm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

struct Fixture {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;
  SearchConfig config;
  QueryHits serial;

  explicit Fixture(std::size_t sequences = 60, std::size_t query_count = 14) {
    ProteinGenOptions db_options;
    db_options.sequence_count = sequences;
    db_options.mean_length = 150;
    db_options.seed = 404;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = query_count;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));

    config.tolerance_da = 3.0;
    config.tau = 7;
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
      EXPECT_EQ(got[q][h].length, want[q][h].length)
          << label << " q" << q << " h" << h;
      EXPECT_EQ(got[q][h].end, want[q][h].end)
          << label << " q" << q << " h" << h;
      EXPECT_DOUBLE_EQ(got[q][h].score, want[q][h].score)
          << label << " q" << q << " h" << h;
    }
  }
}

// ---------- Algorithm A ----------

class AlgorithmAValidation : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmAValidation, ReproducesSerialOutput) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(GetParam());
  const ParallelRunResult result =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  expect_hits_equal(result.hits, f.serial, "A p=" + std::to_string(GetParam()));
  EXPECT_GT(result.candidates, 0u);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, AlgorithmAValidation,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(AlgorithmA, UnmaskedVariantSameHitsSlowerClock) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  AlgorithmAOptions masked, unmasked;
  unmasked.mask = false;
  const ParallelRunResult with_mask =
      run_algorithm_a(runtime, f.image, f.queries, f.config, masked);
  const ParallelRunResult without_mask =
      run_algorithm_a(runtime, f.image, f.queries, f.config, unmasked);
  expect_hits_equal(without_mask.hits, with_mask.hits, "mask ablation");
  // Masking can only help the simulated run-time.
  EXPECT_LE(with_mask.report.total_time(),
            without_mask.report.total_time() + 1e-9);
}

TEST(AlgorithmA, FenceAblationSameHits) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  AlgorithmAOptions no_fence;
  no_fence.fence_per_iteration = false;
  const ParallelRunResult result =
      run_algorithm_a(runtime, f.image, f.queries, f.config, no_fence);
  expect_hits_equal(result.hits, f.serial, "no-fence");
}

TEST(AlgorithmA, CandidateTotalIndependentOfP) {
  const Fixture& f = fixture();
  std::uint64_t reference = 0;
  for (int p : {1, 2, 4, 8}) {
    const sim::Runtime runtime(p);
    const ParallelRunResult result =
        run_algorithm_a(runtime, f.image, f.queries, f.config);
    if (reference == 0)
      reference = result.candidates;
    else
      EXPECT_EQ(result.candidates, reference) << "p=" << p;
  }
}

TEST(AlgorithmA, SpaceScalesDownWithP) {
  const Fixture& f = fixture();
  std::size_t peak_p2 = 0, peak_p8 = 0;
  {
    const sim::Runtime runtime(2);
    peak_p2 = run_algorithm_a(runtime, f.image, f.queries, f.config)
                  .report.max_peak_memory();
  }
  {
    const sim::Runtime runtime(8);
    peak_p8 = run_algorithm_a(runtime, f.image, f.queries, f.config)
                  .report.max_peak_memory();
  }
  // O(N/p) per rank: quadrupling p should at least halve the peak.
  EXPECT_LT(peak_p8, peak_p2 / 2 + 100000);
}

TEST(AlgorithmA, MemoryBudgetEnforced) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(2);
  AlgorithmAOptions options;
  options.memory_budget_bytes = 100;  // absurdly small
  EXPECT_THROW(
      run_algorithm_a(runtime, f.image, f.queries, f.config, options),
      OutOfMemoryBudget);
}

TEST(AlgorithmA, MoreRanksThanQueries) {
  Fixture small(30, 3);  // p=8 > m=3
  const sim::Runtime runtime(8);
  const ParallelRunResult result =
      run_algorithm_a(runtime, small.image, small.queries, small.config);
  expect_hits_equal(result.hits, small.serial, "p>m");
}

TEST(AlgorithmA, MoreRanksThanSequences) {
  Fixture tiny(5, 6);  // p=16 > n=5: some shards empty
  const sim::Runtime runtime(16);
  const ParallelRunResult result =
      run_algorithm_a(runtime, tiny.image, tiny.queries, tiny.config);
  expect_hits_equal(result.hits, tiny.serial, "p>n");
}

// ---------- Algorithm B ----------

class AlgorithmBValidation : public ::testing::TestWithParam<int> {};

TEST_P(AlgorithmBValidation, ReproducesSerialOutput) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(GetParam());
  const AlgorithmBResult result =
      run_algorithm_b(runtime, f.image, f.queries, f.config);
  expect_hits_equal(result.hits, f.serial, "B p=" + std::to_string(GetParam()));
  EXPECT_GE(result.max_sort_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(RankSweep, AlgorithmBValidation,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 13, 16));

TEST(AlgorithmB, SenderGroupsNeverExceedP) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(8);
  const AlgorithmBResult result =
      run_algorithm_b(runtime, f.image, f.queries, f.config);
  EXPECT_GT(result.mean_shards_visited, 0.0);
  EXPECT_LE(result.mean_shards_visited, 8.0);
}

TEST(AlgorithmB, CandidatesMatchAlgorithmA) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  const ParallelRunResult a = run_algorithm_a(runtime, f.image, f.queries, f.config);
  const AlgorithmBResult b = run_algorithm_b(runtime, f.image, f.queries, f.config);
  EXPECT_EQ(a.candidates, b.candidates);
}

// ---------- parallel counting sort ----------

TEST(SortMz, ProducesGloballySortedBalancedShards) {
  const Fixture& f = fixture();
  for (int p : {2, 4, 8}) {
    const sim::Runtime runtime(p);
    std::vector<ProteinDatabase> sorted(static_cast<std::size_t>(p));
    std::vector<std::vector<MzBoundary>> bounds(static_cast<std::size_t>(p));
    runtime.run([&](sim::Comm& comm) {
      const ProteinDatabase local =
          load_database_shard(f.image, comm.rank(), p);
      SortedShard shard = parallel_sort_by_mz(comm, local);
      sorted[static_cast<std::size_t>(comm.rank())] = std::move(shard.shard);
      bounds[static_cast<std::size_t>(comm.rank())] = shard.boundaries;
    });

    // (1) Same multiset of sequences.
    std::size_t total = 0;
    for (const auto& shard : sorted) total += shard.sequence_count();
    EXPECT_EQ(total, f.db.sequence_count());

    // (2) Globally non-decreasing m/z across the shard concatenation.
    std::uint32_t previous = 0;
    for (const auto& shard : sorted)
      for (const Protein& protein : shard.proteins) {
        const std::uint32_t bucket = mz_bucket(protein);
        EXPECT_GE(bucket, previous);
        previous = bucket;
      }

    // (3) Boundary tuples identical on all ranks and consistent with data.
    for (int r = 1; r < p; ++r) {
      for (int k = 0; k < p; ++k) {
        EXPECT_DOUBLE_EQ(bounds[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)].begin_mz,
                         bounds[0][static_cast<std::size_t>(k)].begin_mz);
        EXPECT_DOUBLE_EQ(bounds[static_cast<std::size_t>(r)][static_cast<std::size_t>(k)].end_mz,
                         bounds[0][static_cast<std::size_t>(k)].end_mz);
      }
    }
    for (int r = 0; r < p; ++r)
      for (const Protein& protein : sorted[static_cast<std::size_t>(r)].proteins) {
        const double mz = static_cast<double>(mz_bucket(protein));
        EXPECT_GE(mz, bounds[0][static_cast<std::size_t>(r)].begin_mz - 1e-9);
        EXPECT_LT(mz, bounds[0][static_cast<std::size_t>(r)].end_mz + 1e-9);
      }

    // (4) Equal m/z buckets coalesce on one rank (paper's invariant).
    std::map<std::uint32_t, std::set<int>> bucket_owners;
    for (int r = 0; r < p; ++r)
      for (const Protein& protein : sorted[static_cast<std::size_t>(r)].proteins)
        bucket_owners[mz_bucket(protein)].insert(r);
    for (const auto& [bucket, owners] : bucket_owners)
      EXPECT_EQ(owners.size(), 1u) << "bucket " << bucket;
  }
}

// ---------- sub-group hybrid (the paper's proposed extension) ----------

class HybridValidation
    : public ::testing::TestWithParam<std::pair<int, int>> {};  // (p, groups)

TEST_P(HybridValidation, ReproducesSerialOutput) {
  const auto [p, groups] = GetParam();
  const Fixture& f = fixture();
  const sim::Runtime runtime(p);
  HybridOptions options;
  options.groups = groups;
  const HybridResult result =
      run_algorithm_hybrid(runtime, f.image, f.queries, f.config, options);
  expect_hits_equal(result.hits, f.serial,
                    "hybrid p=" + std::to_string(p) +
                        " g=" + std::to_string(groups));
  EXPECT_EQ(result.groups_used, groups);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HybridValidation,
    ::testing::Values(std::pair{4, 1}, std::pair{4, 2}, std::pair{4, 4},
                      std::pair{8, 2}, std::pair{8, 4}, std::pair{12, 3},
                      std::pair{16, 4}));

TEST(Hybrid, DefaultGroupCountDividesP) {
  for (int p : {1, 2, 4, 6, 8, 12, 16, 36, 128}) {
    const int g = default_group_count(p);
    EXPECT_EQ(p % g, 0) << p;
    EXPECT_LE(g * g, p) << p;
  }
}

TEST(Hybrid, AutoGroupsReproduceSerial) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(8);
  const HybridResult result =
      run_algorithm_hybrid(runtime, f.image, f.queries, f.config);
  expect_hits_equal(result.hits, f.serial, "hybrid auto");
  EXPECT_EQ(result.groups_used, 2);  // largest divisor of 8 with g^2 <= 8
}

TEST(Hybrid, RejectsNonDividingGroups) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(8);
  HybridOptions options;
  options.groups = 3;
  EXPECT_THROW(
      run_algorithm_hybrid(runtime, f.image, f.queries, f.config, options),
      InvalidArgument);
}

TEST(Hybrid, MemoryInterpolatesBetweenAAndBaseline) {
  // Per-rank memory grows with group count: g=1 is Algorithm A (O(N/p)),
  // g=p replicates the database per rank (the baseline's O(N)).
  const Fixture& f = fixture();
  const sim::Runtime runtime(8);
  std::size_t previous = 0;
  for (int g : {1, 2, 4, 8}) {
    HybridOptions options;
    options.groups = g;
    const HybridResult result =
        run_algorithm_hybrid(runtime, f.image, f.queries, f.config, options);
    const std::size_t peak = result.report.max_peak_memory();
    EXPECT_GT(peak, previous) << "g=" << g;
    previous = peak;
  }
}

// ---------- master–worker baseline ----------

class MasterWorkerValidation : public ::testing::TestWithParam<int> {};

TEST_P(MasterWorkerValidation, ReproducesSerialOutput) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(GetParam());
  const ParallelRunResult result =
      run_master_worker(runtime, f.image, f.queries, f.config);
  expect_hits_equal(result.hits, f.serial,
                    "MW p=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RankSweep, MasterWorkerValidation,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(MasterWorker, ReplicatedDatabaseMemoryDoesNotShrinkWithP) {
  const Fixture& f = fixture();
  std::size_t peak_p2 = 0, peak_p8 = 0;
  {
    const sim::Runtime runtime(2);
    peak_p2 = run_master_worker(runtime, f.image, f.queries, f.config)
                  .report.max_peak_memory();
  }
  {
    const sim::Runtime runtime(8);
    peak_p8 = run_master_worker(runtime, f.image, f.queries, f.config)
                  .report.max_peak_memory();
  }
  // O(N) per worker: the peak stays ~constant as p grows.
  EXPECT_GT(peak_p8 * 2, peak_p2);
}

TEST(MasterWorker, BudgetBelowDatabaseSizeFails) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(3);
  MasterWorkerOptions options;
  options.memory_budget_bytes = f.db.total_residues() / 2;  // < O(N)
  EXPECT_THROW(
      run_master_worker(runtime, f.image, f.queries, f.config, options),
      OutOfMemoryBudget);
}

TEST(MasterWorker, BatchSizeDoesNotChangeResults) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  for (std::size_t batch : {1u, 3u, 100u}) {
    MasterWorkerOptions options;
    options.batch_size = batch;
    const ParallelRunResult result =
        run_master_worker(runtime, f.image, f.queries, f.config, options);
    expect_hits_equal(result.hits, f.serial,
                      "batch=" + std::to_string(batch));
  }
}

// ---------- candidate store (the paper's second proposed extension) ----------

/// The search modes the store must reproduce: the paper's narrow window,
/// the prefilter screen, alternate charges, a ±50 Da open mass window
/// (exhaustive source) and ±20 Da open search with phospho/oxidation rules
/// on the fragment-index source.
enum class StoreMode {
  kNarrow,
  kPrefilter,
  kCharges,
  kOpenWindow,
  kOpenPtm,
};

struct StoreCase {
  StoreMode mode = StoreMode::kNarrow;
  int p = 1;
};

/// Narrow rows print as the bare rank count, so they keep their stable
/// test names (`.../1` … `.../13`).
void PrintTo(const StoreCase& c, std::ostream* os) {
  static constexpr const char* kNames[] = {"", "prefilter", "charges",
                                           "open", "open+ptm"};
  if (c.mode != StoreMode::kNarrow)
    *os << kNames[static_cast<int>(c.mode)] << " p=";
  *os << c.p;
}

SearchConfig store_config(StoreMode mode) {
  SearchConfig config = fixture().config;
  switch (mode) {
    case StoreMode::kNarrow:
      break;
    case StoreMode::kPrefilter:
      config.prefilter = true;
      break;
    case StoreMode::kCharges:
      config.try_alternate_charges = true;
      break;
    case StoreMode::kOpenWindow:
      config.open_window_da = 50.0;
      config.candidate_source = CandidateSourceKind::kMassWindow;
      break;
    case StoreMode::kOpenPtm:
      config.open_window_da = 20.0;
      config.ptms = {ptm_phospho_s(), ptm_phospho_t(), ptm_oxidation_m()};
      config.candidate_source = CandidateSourceKind::kFragmentIndex;
      break;
  }
  return config;
}

class CandidateStoreValidation
    : public ::testing::TestWithParam<StoreCase> {};

TEST_P(CandidateStoreValidation, ReproducesSerialOutput) {
  const Fixture& f = fixture();
  const StoreCase c = GetParam();
  const SearchConfig config = store_config(c.mode);
  const QueryHits serial = SearchEngine(config).search(f.db, f.queries);
  const sim::Runtime runtime(c.p);
  const CandidateStoreResult result =
      run_candidate_store(runtime, f.image, f.queries, config);
  const std::string label = "store " + ::testing::PrintToString(c);
  expect_hits_equal(result.hits, serial, label);
  EXPECT_GT(result.stored_candidates, 0u) << label;
  EXPECT_GE(result.build_seconds, 0.0) << label;
  // The store scores exactly the (hypothesis, candidate) pairs A does.
  EXPECT_EQ(result.candidates,
            run_algorithm_a(runtime, f.image, f.queries, config).candidates)
      << label;
}

std::vector<StoreCase> store_cases() {
  std::vector<StoreCase> cases;
  for (const StoreMode mode :
       {StoreMode::kNarrow, StoreMode::kPrefilter, StoreMode::kCharges,
        StoreMode::kOpenWindow, StoreMode::kOpenPtm})
    for (const int p : {1, 2, 3, 4, 8, 13}) cases.push_back({mode, p});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(RankSweep, CandidateStoreValidation,
                         ::testing::ValuesIn(store_cases()));

TEST(CandidateStore, EvaluationsMatchAlgorithmA) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(4);
  const ParallelRunResult a =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  const CandidateStoreResult store =
      run_candidate_store(runtime, f.image, f.queries, f.config);
  // Same candidate population is scored (the same (query, fragment) pairs).
  EXPECT_EQ(store.candidates, a.candidates);
}

TEST(CandidateStore, TradesMemoryForComputeAsThePaperPredicts) {
  // The paper's trade-off, both directions: "current approaches are not
  // designed to store such large magnitudes of candidates in memory"
  // (records dwarf raw residues) but "this strategy could drastically
  // reduce the overall computation time" (generation paid once per stored
  // candidate instead of once per evaluation). The compute win needs the
  // paper's regime — a query set dense enough in mass that each stored
  // candidate serves queries on several ranks (their 1,210 spectra) — so
  // this test builds a paper-sized query set rather than reusing the sparse
  // fixture. The bar is higher than it once was: the candidate-centric
  // kernel already amortizes ion generation across one rank's queries, so
  // the store only wins when candidates are shared across ranks too.
  Fixture dense(80, 1210);
  const sim::Runtime runtime(8);
  const ParallelRunResult a =
      run_algorithm_a(runtime, dense.image, dense.queries, dense.config);
  const CandidateStoreResult store =
      run_candidate_store(runtime, dense.image, dense.queries, dense.config);
  // Memory: the record store dwarfs the raw residues it was derived from.
  EXPECT_GT(store.stored_candidates * sizeof(CandidateRecord),
            dense.db.total_residues());
  // Compute: generation paid once per stored candidate, not per evaluation.
  EXPECT_LT(store.report.sum_compute(), a.report.sum_compute());
}

TEST(CandidateStore, RejectsUnsupportedConfigs) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(2);
  SearchConfig tryptic = f.config;
  tryptic.candidate_mode = CandidateMode::kTryptic;
  EXPECT_THROW(run_candidate_store(runtime, f.image, f.queries, tryptic),
               InvalidArgument);
  SearchConfig too_long = f.config;
  too_long.max_candidate_length = 200;
  EXPECT_THROW(run_candidate_store(runtime, f.image, f.queries, too_long),
               InvalidArgument);
}

// ---------- query-transport ablation ----------

class QueryTransportValidation : public ::testing::TestWithParam<int> {};

TEST_P(QueryTransportValidation, ReproducesSerialOutput) {
  const Fixture& f = fixture();
  const sim::Runtime runtime(GetParam());
  const ParallelRunResult result =
      run_query_transport(runtime, f.image, f.queries, f.config);
  expect_hits_equal(result.hits, f.serial,
                    "QT p=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(RankSweep, QueryTransportValidation,
                         ::testing::Values(1, 2, 4, 8));

// ---------- counters: one accounting for every batch driver ----------

TEST(Counters, EveryBatchDriverReportsSerialHitsAndAlgorithmACandidates) {
  const Fixture& f = fixture();
  std::uint64_t serial_hits = 0;
  for (const std::vector<Hit>& hits : f.serial) serial_hits += hits.size();
  const sim::Runtime runtime(4);
  const ParallelRunResult a =
      run_algorithm_a(runtime, f.image, f.queries, f.config);
  HybridOptions two_groups;
  two_groups.groups = 2;
  const std::pair<const char*, ParallelRunResult> runs[] = {
      {"A", a},
      {"B", run_algorithm_b(runtime, f.image, f.queries, f.config)},
      {"hybrid", run_algorithm_hybrid(runtime, f.image, f.queries, f.config,
                                      two_groups)},
      {"master-worker",
       run_master_worker(runtime, f.image, f.queries, f.config)},
      {"query transport",
       run_query_transport(runtime, f.image, f.queries, f.config)},
      {"store", run_candidate_store(runtime, f.image, f.queries, f.config)},
  };
  for (const auto& [name, run] : runs) {
    expect_hits_equal(run.hits, f.serial, name);
    EXPECT_EQ(run.report.sum_counter("hits_reported"), serial_hits) << name;
    EXPECT_EQ(run.candidates, a.candidates) << name;
    EXPECT_EQ(run.report.sum_counter("candidates"), a.candidates) << name;
    EXPECT_GT(run.report.sum_counter("offers"), 0u) << name;
    EXPECT_GT(run.report.sum_counter("ions"), 0u) << name;
  }
}

// ---------- pipeline facade ----------

TEST(Pipeline, AllAlgorithmsAgree) {
  const Fixture& f = fixture();
  for (Algorithm algorithm :
       {Algorithm::kSerial, Algorithm::kAlgorithmA, Algorithm::kAlgorithmB,
        Algorithm::kMasterWorker, Algorithm::kQueryTransport}) {
    PipelineOptions options;
    options.algorithm = algorithm;
    options.p = 4;
    options.config = f.config;
    const PipelineResult result = run_pipeline(f.image, f.queries, options);
    expect_hits_equal(result.hits, f.serial, algorithm_name(algorithm));
  }
}

TEST(Pipeline, AlgorithmNamesRoundTrip) {
  EXPECT_EQ(algorithm_from_name("a"), Algorithm::kAlgorithmA);
  EXPECT_EQ(algorithm_from_name("b"), Algorithm::kAlgorithmB);
  EXPECT_EQ(algorithm_from_name("serial"), Algorithm::kSerial);
  EXPECT_EQ(algorithm_from_name("master-worker"), Algorithm::kMasterWorker);
  EXPECT_EQ(algorithm_from_name("query"), Algorithm::kQueryTransport);
  EXPECT_THROW(algorithm_from_name("nope"), InvalidArgument);
}

TEST(Pipeline, HitRecordsCarryQueryTitles) {
  const Fixture& f = fixture();
  const auto records = to_hit_records(f.queries, f.serial);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records[0].rank, 1u);
  EXPECT_FALSE(records[0].query_title.empty());
}

}  // namespace
}  // namespace msp
