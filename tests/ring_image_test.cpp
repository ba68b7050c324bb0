// What Algorithm A's ring carries, and what each rank rebuilds from it.
//
// The ring moves the paper's plain shard image (residues only, O(N/p)
// bytes). Each rank turns a received shard back into a CandidateIndex with
// CandidateIndex::rebuild_windowed, which keeps only the entries its own
// query hypotheses can reach. The claims enforced here:
//   * the windowed index keeps exactly the reachable entries of the full
//     index, in the full index's order;
//   * searching it gives hits, ShardSearchStats and per-query counts
//     identical to the full index — narrow search, open search with an
//     asymmetric PTM window, and any kernel_threads;
//   * Algorithm A stays hit-identical to the serial engine when a crash
//     sends survivors down the recovery path, and evaluates each
//     (candidate, hypothesis) pair exactly once;
//   * the narrow-search ring moves plain images only, and per-rank peak
//     memory stays O(N/p) — for Algorithm B's sorted ring too;
//   * under a memory budget the index is built and scored in protein
//     slices that fit, with unchanged hits and counters;
//   * Algorithm B's sender-group ring and the sub-group hybrid's rings
//     inherit the budget and the recovery accounting;
//   * a temporary index search_shard builds for a caller that passed none
//     is counted and charged.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/algorithm_b.hpp"
#include "core/algorithm_hybrid.hpp"
#include "core/candidate_index.hpp"
#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "mass/ptm.hpp"
#include "simmpi/runtime.hpp"

namespace msp {
namespace {

struct Workload {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;

  Workload() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 48;
    db_options.mean_length = 120;
    db_options.seed = 4411;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 20;
    q_options.seed = 4412;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

SearchConfig narrow_config() {
  SearchConfig config;
  config.tolerance_da = 3.0;
  config.tau = 6;
  config.min_candidate_length = 4;
  config.max_candidate_length = 50;
  config.model = ScoreModel::kLikelihood;
  return config;
}

/// Open search through the exhaustive source, with phospho rules so the
/// window is asymmetric: window_below() != window_above().
SearchConfig open_asymmetric_config() {
  SearchConfig config = narrow_config();
  config.tolerance_da = 2.0;
  config.open_window_da = 25.0;
  config.min_fragment_votes = 2;
  config.candidate_source = CandidateSourceKind::kMassWindow;
  config.ptms = {ptm_phospho_s(), ptm_phospho_t()};
  config.max_ptm_mods = 1;
  return config;
}

std::vector<SearchConfig> configs() {
  SearchConfig alternate = narrow_config();
  alternate.try_alternate_charges = true;
  SearchConfig tryptic = narrow_config();
  tryptic.candidate_mode = CandidateMode::kTryptic;
  return {narrow_config(), alternate, tryptic, open_asymmetric_config()};
}

std::string label_of(const SearchConfig& config) {
  return std::string(config.open_search() ? "open" : "narrow") +
         " mode=" + std::to_string(static_cast<int>(config.candidate_mode)) +
         " alt=" + std::to_string(config.try_alternate_charges) +
         " threads=" + std::to_string(config.kernel_threads);
}

CandidateIndex windowed_index(const ProteinDatabase& db,
                              const SearchConfig& config,
                              const PreparedQueries& prepared,
                              std::size_t* enumerated = nullptr) {
  CandidateIndex index;
  const CandidateIndex::WindowedSlice slice =
      index.rebuild_windowed(db, config, prepared.sorted_masses);
  EXPECT_EQ(slice.next_protein, db.proteins.size());
  if (enumerated) *enumerated = slice.enumerated;
  return index;
}

struct KernelRun {
  QueryHits hits;
  ShardSearchStats stats;
  std::vector<std::uint64_t> per_query;
};

KernelRun run_kernel(const SearchEngine& engine, const ProteinDatabase& db,
                     const PreparedQueries& prepared,
                     const CandidateIndex& index) {
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard(db, prepared, tops, &run.per_query, &index);
  run.hits = engine.finalize(tops);
  return run;
}

void expect_hits_identical(const QueryHits& got, const QueryHits& want,
                           const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t q = 0; q < want.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << label << " query " << q;
    for (std::size_t h = 0; h < want[q].size(); ++h) {
      const Hit& a = got[q][h];
      const Hit& b = want[q][h];
      EXPECT_EQ(a.score, b.score) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.protein_id, b.protein_id) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.offset, b.offset) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.length, b.length) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.end, b.end) << label << " q" << q << " h" << h;
      EXPECT_EQ(a.peptide, b.peptide) << label << " q" << q << " h" << h;
    }
  }
}

void expect_stats_identical(const ShardSearchStats& got,
                            const ShardSearchStats& want,
                            const std::string& label) {
  EXPECT_EQ(got.candidates_evaluated, want.candidates_evaluated) << label;
  EXPECT_EQ(got.candidates_prefiltered, want.candidates_prefiltered) << label;
  EXPECT_EQ(got.hits_offered, want.hits_offered) << label;
  EXPECT_EQ(got.ions_built, want.ions_built) << label;
  EXPECT_EQ(got.postings_scanned, want.postings_scanned) << label;
  EXPECT_EQ(got.index_entries_built, want.index_entries_built) << label;
}

// ---------- the windowed rebuild itself ----------

TEST(WindowedIndex, KeepsExactlyTheReachableEntriesInFullOrder) {
  const Workload& w = workload();
  for (const SearchConfig& config : configs()) {
    const std::string label = label_of(config);
    const SearchEngine engine(config);
    const PreparedQueries prepared = engine.prepare(w.queries);
    const CandidateIndex full = CandidateIndex::build(w.db, config);
    std::size_t enumerated = 0;
    const CandidateIndex windowed =
        windowed_index(w.db, config, prepared, &enumerated);

    EXPECT_EQ(enumerated, full.size()) << label;
    EXPECT_EQ(windowed.params(), full.params()) << label;
    const double below = config.window_below();
    const double above = config.window_above();
    const double delta = config.tolerance_da;
    std::vector<IndexedCandidate> want;
    for (const IndexedCandidate& entry : full.entries()) {
      for (const double m : prepared.sorted_masses) {
        // The predicate of the kernel the config selects.
        const bool reached =
            config.open_search()
                ? entry.mass >= m - below && entry.mass <= m + above
                : m >= entry.mass - delta && m <= entry.mass + delta;
        if (reached) {
          want.push_back(entry);
          break;
        }
      }
    }
    ASSERT_EQ(windowed.size(), want.size()) << label;
    EXPECT_LT(windowed.size(), full.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
      const IndexedCandidate& a = windowed.entries()[i];
      EXPECT_EQ(a.mass, want[i].mass) << label << " entry " << i;
      EXPECT_EQ(a.protein, want[i].protein) << label << " entry " << i;
      EXPECT_EQ(a.offset, want[i].offset) << label << " entry " << i;
      EXPECT_EQ(a.length, want[i].length) << label << " entry " << i;
      EXPECT_EQ(a.end, want[i].end) << label << " entry " << i;
    }
  }
}

TEST(WindowedIndex, NoHypothesesWalksNothingAndKeepsNothing) {
  const Workload& w = workload();
  const SearchConfig config = narrow_config();
  CandidateIndex index = CandidateIndex::build(w.db, config);
  ASSERT_FALSE(index.empty());
  const CandidateIndex::WindowedSlice slice =
      index.rebuild_windowed(w.db, config, {});
  EXPECT_EQ(slice.enumerated, 0u);
  EXPECT_EQ(slice.next_protein, w.db.proteins.size());
  EXPECT_TRUE(index.empty());
}

TEST(WindowedIndex, SearchMatchesFullIndexAcrossModesAndThreads) {
  const Workload& w = workload();
  ASSERT_NE(open_asymmetric_config().window_below(),
            open_asymmetric_config().window_above());
  for (SearchConfig config : configs()) {
    for (const std::size_t threads : {1u, 3u}) {
      config.kernel_threads = threads;
      const std::string label = label_of(config);
      const SearchEngine engine(config);
      const PreparedQueries prepared = engine.prepare(w.queries);
      const KernelRun full = run_kernel(engine, w.db, prepared,
                                        CandidateIndex::build(w.db, config));
      const KernelRun windowed = run_kernel(
          engine, w.db, prepared, windowed_index(w.db, config, prepared));
      ASSERT_GT(full.stats.candidates_evaluated, 0u) << label;
      expect_hits_identical(windowed.hits, full.hits, label);
      expect_stats_identical(windowed.stats, full.stats, label);
      EXPECT_EQ(windowed.per_query, full.per_query) << label;
    }
  }
}

TEST(WindowedIndex, PerShardSearchMatchesFullIndexForEveryQueryBlock) {
  // The ring's shape: each rank's query block against each shard.
  const Workload& w = workload();
  const int p = 4;
  for (const SearchConfig& config : configs()) {
    const std::string label = label_of(config);
    const SearchEngine engine(config);
    for (int r = 0; r < p; ++r) {
      const QueryRange block = query_block(w.queries.size(), r, p);
      const PreparedQueries prepared = engine.prepare(std::span<const Spectrum>(
          w.queries.data() + block.begin, block.count()));
      for (int s = 0; s < p; ++s) {
        const ProteinDatabase shard = load_database_shard(w.image, s, p);
        const KernelRun full = run_kernel(engine, shard, prepared,
                                          CandidateIndex::build(shard, config));
        const KernelRun windowed = run_kernel(
            engine, shard, prepared, windowed_index(shard, config, prepared));
        const std::string where = label + " rank " + std::to_string(r) +
                                  " shard " + std::to_string(s);
        expect_hits_identical(windowed.hits, full.hits, where);
        expect_stats_identical(windowed.stats, full.stats, where);
        EXPECT_EQ(windowed.per_query, full.per_query) << where;
      }
    }
  }
}

TEST(WindowedIndex, SlicesPartitionTheWindowAndRespectTheCap) {
  const Workload& w = workload();
  const SearchConfig config = open_asymmetric_config();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);
  const CandidateIndex whole = windowed_index(w.db, config, prepared);
  ASSERT_GT(whole.size(), 8u);
  const std::size_t cap = whole.size() / 8;

  CandidateIndex index;
  std::vector<IndexedCandidate> gathered;
  std::size_t enumerated = 0;
  std::size_t slices = 0;
  bool over_cap = false;
  CandidateIndex::WindowedSlice slice;
  while (slice.next_protein < w.db.proteins.size()) {
    const std::uint32_t first = slice.next_protein;
    slice = index.rebuild_windowed(w.db, config, prepared.sorted_masses,
                                   first, cap);
    ASSERT_GT(slice.next_protein, first);
    // Over the cap only when the slice is a single protein; the storage
    // grows past the cap only for such a protein.
    if (index.size() > cap) {
      EXPECT_EQ(slice.next_protein - first, 1u);
      over_cap = true;
    }
    if (!over_cap) {
      EXPECT_LE(index.reserved_bytes(), cap * sizeof(IndexedCandidate));
    }
    for (const IndexedCandidate& entry : index.entries()) {
      EXPECT_GE(entry.protein, first);
      EXPECT_LT(entry.protein, slice.next_protein);
      gathered.push_back(entry);
    }
    enumerated += slice.enumerated;
    ++slices;
  }
  EXPECT_GT(slices, 2u);
  // A protein that overflows a slice is walked again by the next one.
  EXPECT_GE(enumerated, CandidateIndex::build(w.db, config).size());
  ASSERT_EQ(gathered.size(), whole.size());
  const auto order = [](const IndexedCandidate& a, const IndexedCandidate& b) {
    return std::tie(a.protein, a.offset, a.length) <
           std::tie(b.protein, b.offset, b.length);
  };
  std::vector<IndexedCandidate> want = whole.entries();
  std::sort(want.begin(), want.end(), order);
  std::sort(gathered.begin(), gathered.end(), order);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(gathered[i].mass, want[i].mass) << i;
    EXPECT_EQ(gathered[i].protein, want[i].protein) << i;
    EXPECT_EQ(gathered[i].offset, want[i].offset) << i;
    EXPECT_EQ(gathered[i].length, want[i].length) << i;
  }
}

// ---------- Algorithm A: recovery path and the ring image ----------

TEST(RingImage, RecoveryRebuildsFromOrphanMassesAndMatchesSerial) {
  const Workload& w = workload();
  for (const SearchConfig& config :
       {narrow_config(), open_asymmetric_config()}) {
    const SearchEngine engine(config);
    const QueryHits serial = engine.search(w.db, w.queries);
    const PreparedQueries prepared = engine.prepare(w.queries);
    std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
    const ShardSearchStats whole = engine.search_shard(w.db, prepared, tops);
    std::uint64_t serial_reported = 0;
    for (const std::vector<Hit>& hits : serial) serial_reported += hits.size();

    for (const int crash_step : {0, 2}) {
      const std::string label =
          label_of(config) + " crash@" + std::to_string(crash_step);
      sim::FaultModel faults;
      faults.crash(1, crash_step);
      const sim::Runtime runtime(4, {}, {}, faults);
      const ParallelRunResult result =
          run_algorithm_a(runtime, w.image, w.queries, config);
      expect_hits_identical(result.hits, serial, label);
      EXPECT_GT(result.report.sum_counter("recovered_queries"), 0u) << label;
      // Adopted queries are reported once, by their adopter.
      EXPECT_EQ(result.report.sum_counter("hits_reported"), serial_reported)
          << label;
      if (crash_step == 0) {
        // The dead rank scored nothing, so every (candidate, hypothesis)
        // pair was evaluated exactly once — by the ring or by recovery.
        EXPECT_EQ(result.report.sum_counter("candidates"),
                  whole.candidates_evaluated)
            << label;
        EXPECT_EQ(result.report.sum_counter("prefiltered"),
                  whole.candidates_prefiltered)
            << label;
        EXPECT_EQ(result.report.sum_counter("offers"), whole.hits_offered)
            << label;
      }
    }
  }
}

TEST(RingImage, NarrowSearchMovesPlainShardsAndPeakStaysLinearInShard) {
  const Workload& w = workload();
  const SearchConfig config = narrow_config();
  const int p = 4;
  std::vector<std::size_t> plain(p);
  for (int r = 0; r < p; ++r)
    plain[static_cast<std::size_t>(r)] =
        pack_database(load_database_shard(w.image, r, p)).size();
  const std::size_t total = std::accumulate(plain.begin(), plain.end(),
                                            std::size_t{0});

  // The paper's O((N + m)/p): N is the plain database bytes, m the query
  // bytes as Algorithm A accounts them (peak list plus a 4 KiB binned
  // vector each). D_local + D_recv + D_comp, the rank's query block and the
  // windowed index fit in twice that; shipping the index would not.
  std::size_t query_bytes = 0;
  for (const Spectrum& q : w.queries)
    query_bytes += q.peaks().size() * sizeof(Peak) + 4096;
  const std::size_t peak_bound = 2 * (total + query_bytes) / p;

  const sim::Runtime runtime(p);
  const ParallelRunResult result =
      run_algorithm_a(runtime, w.image, w.queries, config);
  for (int r = 0; r < p; ++r) {
    // Every other shard's window bytes, each fetched exactly once.
    const std::size_t want = total - plain[static_cast<std::size_t>(r)];
    EXPECT_EQ(result.report.ranks[static_cast<std::size_t>(r)].bytes_received,
              want)
        << "rank " << r;
  }
  EXPECT_LE(result.report.max_peak_memory(), peak_bound) << "A";

  // Algorithm B rides the same ring over its m/z-sorted shards. Its
  // received bytes also count the sort's Alltoallv, so only the peak is
  // bounded.
  const AlgorithmBResult sorted =
      run_algorithm_b(runtime, w.image, w.queries, config);
  EXPECT_LE(sorted.report.max_peak_memory(), peak_bound) << "B";
}

TEST(RingImage, MemoryBudgetSlicesTheIndexWithoutChangingResults) {
  const Workload& w = workload();
  for (const SearchConfig& config :
       {narrow_config(), open_asymmetric_config()}) {
    const std::string label = label_of(config);
    const QueryHits serial = SearchEngine(config).search(w.db, w.queries);
    const sim::Runtime runtime(4);
    const ParallelRunResult free_run =
        run_algorithm_a(runtime, w.image, w.queries, config);
    const std::size_t peak = free_run.report.max_peak_memory();

    // One byte under the unbudgeted peak: the rank that hit it must now
    // score some shard in slices.
    AlgorithmAOptions options;
    options.memory_budget_bytes = peak - 1;
    const ParallelRunResult budgeted =
        run_algorithm_a(runtime, w.image, w.queries, config, options);
    expect_hits_identical(budgeted.hits, serial, label);
    EXPECT_LT(budgeted.report.max_peak_memory(), peak) << label;
    for (const char* counter : {"candidates", "prefiltered", "offers", "ions"})
      EXPECT_EQ(budgeted.report.sum_counter(counter),
                free_run.report.sum_counter(counter))
          << label << " " << counter;
  }
}

// ---------- Algorithm B: A's ring over the m/z-sorted shards ----------

// B inherits A's ring: it stays hit-identical to the serial engine in
// narrow search and in open search through both candidate sources, slices
// its windowed index under a memory budget without changing its counters,
// and recovers a crash with every hit reported once.
TEST(RingImage, AlgorithmBInheritsBudgetSlicingAndRecovery) {
  const Workload& w = workload();
  SearchConfig fragment = open_asymmetric_config();
  fragment.candidate_source = CandidateSourceKind::kFragmentIndex;
  for (const SearchConfig& config :
       {narrow_config(), open_asymmetric_config(), fragment}) {
    const std::string label =
        label_of(config) + " source=" +
        std::to_string(static_cast<int>(config.candidate_source)) + " B";
    const QueryHits serial = SearchEngine(config).search(w.db, w.queries);
    std::uint64_t serial_reported = 0;
    for (const std::vector<Hit>& hits : serial) serial_reported += hits.size();

    const sim::Runtime runtime(4);
    const AlgorithmBResult free_run =
        run_algorithm_b(runtime, w.image, w.queries, config);
    expect_hits_identical(free_run.hits, serial, label);
    const std::size_t peak = free_run.report.max_peak_memory();

    // The shipped fragment index cannot be sliced; the rebuilt windowed
    // index can.
    if (config.candidate_source != CandidateSourceKind::kFragmentIndex) {
      AlgorithmBOptions options;
      options.memory_budget_bytes = peak - 1;
      const AlgorithmBResult budgeted =
          run_algorithm_b(runtime, w.image, w.queries, config, options);
      expect_hits_identical(budgeted.hits, serial, label + " budget");
      EXPECT_LT(budgeted.report.max_peak_memory(), peak) << label;
      for (const char* counter : {"candidates", "prefiltered", "offers"})
        EXPECT_EQ(budgeted.report.sum_counter(counter),
                  free_run.report.sum_counter(counter))
            << label << " budget " << counter;
    }

    sim::FaultModel faults;
    faults.crash(1, 0);
    const sim::Runtime crashing(4, {}, {}, faults);
    const AlgorithmBResult crashed =
        run_algorithm_b(crashing, w.image, w.queries, config);
    expect_hits_identical(crashed.hits, serial, label + " crash@0");
    EXPECT_EQ(crashed.report.crashed_ranks(), std::vector<int>{1}) << label;
    EXPECT_GT(crashed.report.sum_counter("recovered_queries"), 0u) << label;
    EXPECT_EQ(crashed.report.sum_counter("hits_reported"), serial_reported)
        << label;
  }
}

// ---------- the hybrid: each group's ring is Algorithm A's ----------

// HybridOptions extends AlgorithmAOptions, so A's memory budget reaches
// every group's ring, and a crash inside one group is recovered and
// accounted exactly as in Algorithm A.
TEST(RingImage, HybridGroupsInheritBudgetSlicingAndRecoveryAccounting) {
  const Workload& w = workload();
  for (const SearchConfig& config :
       {narrow_config(), open_asymmetric_config()}) {
    const std::string label = label_of(config) + " hybrid g=2";
    const QueryHits serial = SearchEngine(config).search(w.db, w.queries);
    std::uint64_t serial_reported = 0;
    for (const std::vector<Hit>& hits : serial) serial_reported += hits.size();

    HybridOptions options;
    options.groups = 2;
    const sim::Runtime runtime(4);
    const HybridResult free_run =
        run_algorithm_hybrid(runtime, w.image, w.queries, config, options);
    expect_hits_identical(free_run.hits, serial, label);
    const std::size_t peak = free_run.report.max_peak_memory();

    options.memory_budget_bytes = peak - 1;
    const HybridResult budgeted =
        run_algorithm_hybrid(runtime, w.image, w.queries, config, options);
    expect_hits_identical(budgeted.hits, serial, label + " budget");
    EXPECT_LT(budgeted.report.max_peak_memory(), peak) << label;
    for (const char* counter : {"candidates", "prefiltered", "offers", "ions"})
      EXPECT_EQ(budgeted.report.sum_counter(counter),
                free_run.report.sum_counter(counter))
          << label << " budget " << counter;

    // Rank 1 is member 1 of group 0; it dies before its first ring step,
    // so the group's survivor scores its whole query block by recovery.
    options.memory_budget_bytes = 0;
    sim::FaultModel faults;
    faults.crash(1, 0);
    const sim::Runtime crashing(4, {}, {}, faults);
    const HybridResult crashed =
        run_algorithm_hybrid(crashing, w.image, w.queries, config, options);
    expect_hits_identical(crashed.hits, serial, label + " crash@0");
    EXPECT_GT(crashed.report.sum_counter("recovered_queries"), 0u) << label;
    EXPECT_EQ(crashed.report.sum_counter("hits_reported"), serial_reported)
        << label;
    for (const char* counter : {"candidates", "prefiltered", "offers"})
      EXPECT_EQ(crashed.report.sum_counter(counter),
                free_run.report.sum_counter(counter))
          << label << " crash@0 " << counter;
  }
}

// ---------- the temporary-index loophole ----------

TEST(SearchShardAccounting, TemporaryIndexBuildIsCountedAndCharged) {
  const Workload& w = workload();
  for (const SearchConfig& config :
       {narrow_config(), open_asymmetric_config()}) {
    const std::string label = label_of(config);
    const SearchEngine engine(config);
    const PreparedQueries prepared = engine.prepare(w.queries);
    const CandidateIndex full = CandidateIndex::build(w.db, config);

    std::vector<TopK<Hit>> built_tops = engine.make_tops(prepared.size());
    const ShardSearchStats built =
        engine.search_shard(w.db, prepared, built_tops);
    std::vector<TopK<Hit>> given_tops = engine.make_tops(prepared.size());
    const ShardSearchStats given =
        engine.search_shard(w.db, prepared, given_tops, nullptr, &full);

    EXPECT_EQ(built.index_entries_built, full.size()) << label;
    EXPECT_EQ(given.index_entries_built, 0u) << label;
    EXPECT_EQ(built.candidates_evaluated, given.candidates_evaluated) << label;
    const sim::ComputeModel model;
    const double charge =
        static_cast<double>(full.size()) * model.seconds_per_mz;
    EXPECT_NEAR(kernel_cost_seconds(built, model) -
                    kernel_cost_seconds(given, model),
                charge, charge * 1e-9)
        << label;
  }
}

}  // namespace
}  // namespace msp
