// Kernel-equivalence validation for the candidate-centric scoring kernel.
//
// Two independent claims are enforced here. First, the indexed merge-join
// kernel (search_shard) is hit-for-hit and counter-for-counter identical to
// the retained database-walking kernel (search_shard_reference) across every
// candidate mode, prefilter setting and charge-hypothesis setting — scores
// compared bit-exactly, because both paths consume the same sorted ion
// vectors in the same order — and the record path (search_records) over the
// same candidates matches it too. Second, intra-rank threading is invisible:
// any kernel_threads setting produces identical hits, identical counters
// and (through the algorithms) byte-identical virtual-time traces, with and
// without an injected fault schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_index.hpp"
#include "core/candidate_record.hpp"
#include "core/packdb.hpp"
#include "core/search_engine.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

struct Workload {
  ProteinDatabase db;
  std::string image;
  std::vector<Spectrum> queries;

  Workload() {
    ProteinGenOptions db_options;
    db_options.sequence_count = 50;
    db_options.mean_length = 130;
    db_options.seed = 7717;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 24;
    q_options.seed = 7718;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

SearchConfig base_config() {
  SearchConfig config;
  config.tolerance_da = 3.0;
  config.tau = 7;
  config.min_candidate_length = 4;
  config.max_candidate_length = 60;
  config.model = ScoreModel::kLikelihood;
  return config;
}

struct KernelRun {
  QueryHits hits;
  ShardSearchStats stats;
  std::vector<std::uint64_t> per_query;
};

KernelRun run_indexed(const SearchEngine& engine, const ProteinDatabase& db,
                      const PreparedQueries& prepared,
                      const CandidateIndex* index = nullptr) {
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard(db, prepared, tops, &run.per_query, index);
  run.hits = engine.finalize(tops);
  return run;
}

KernelRun run_reference(const SearchEngine& engine, const ProteinDatabase& db,
                        const PreparedQueries& prepared) {
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_shard_reference(db, prepared, tops, &run.per_query);
  run.hits = engine.finalize(tops);
  return run;
}

/// The record path over the same candidates: every record of `db`, sorted
/// into the serving ring's band order, scored by search_records.
KernelRun run_records(const SearchEngine& engine, const ProteinDatabase& db,
                      const PreparedQueries& prepared) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<CandidateRecord> records =
      enumerate_candidate_records(db, engine.config(), -kInf, kInf);
  std::sort(records.begin(), records.end(), candidate_record_less);
  KernelRun run;
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats = engine.search_records(records, prepared, tops);
  run.hits = engine.finalize(tops);
  return run;
}

/// Bit-exact hit comparison: the determinism claim is exact equality, not
/// tolerance equality — both kernels sum the same doubles in the same order.
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

void expect_runs_identical(const KernelRun& got, const KernelRun& want,
                           const std::string& label) {
  expect_hits_identical(got.hits, want.hits, label);
  EXPECT_EQ(got.stats.candidates_evaluated, want.stats.candidates_evaluated)
      << label;
  EXPECT_EQ(got.stats.candidates_prefiltered, want.stats.candidates_prefiltered)
      << label;
  EXPECT_EQ(got.stats.hits_offered, want.stats.hits_offered) << label;
  EXPECT_EQ(got.per_query, want.per_query) << label;
}

/// The record path reports no per-query counts, so it is compared on hits
/// and the counters the virtual clock charges.
void expect_record_run_matches(const KernelRun& records,
                               const KernelRun& indexed,
                               const std::string& label) {
  expect_hits_identical(records.hits, indexed.hits, label);
  EXPECT_EQ(records.stats.candidates_evaluated,
            indexed.stats.candidates_evaluated)
      << label;
  EXPECT_EQ(records.stats.candidates_prefiltered,
            indexed.stats.candidates_prefiltered)
      << label;
  EXPECT_EQ(records.stats.hits_offered, indexed.stats.hits_offered) << label;
  EXPECT_EQ(records.stats.ions_built, indexed.stats.ions_built) << label;
}

// ---------- indexed kernel vs. retained reference ----------

TEST(KernelEquivalence, IndexedMatchesReferenceAcrossConfigs) {
  const Workload& w = workload();
  for (const CandidateMode mode :
       {CandidateMode::kPrefixSuffix, CandidateMode::kTryptic}) {
    for (const bool prefilter : {false, true}) {
      for (const bool alternate : {false, true}) {
        for (const ScoreModel model :
             {ScoreModel::kLikelihood, ScoreModel::kHyperscore,
              ScoreModel::kSharedPeak, ScoreModel::kXcorr}) {
          SearchConfig config = base_config();
          config.candidate_mode = mode;
          config.prefilter = prefilter;
          config.try_alternate_charges = alternate;
          config.model = model;
          const std::string label =
              std::string(mode == CandidateMode::kTryptic ? "tryptic"
                                                          : "prefix/suffix") +
              (prefilter ? "+prefilter" : "") + (alternate ? "+charges" : "") +
              " model=" + std::to_string(static_cast<int>(model));

          const SearchEngine engine(config);
          const PreparedQueries prepared = engine.prepare(w.queries);
          const KernelRun indexed = run_indexed(engine, w.db, prepared);
          const KernelRun reference = run_reference(engine, w.db, prepared);
          expect_runs_identical(indexed, reference, label);
          // The whole point of the candidate-centric kernel: it never
          // generates a candidate's ions more often than the reference.
          EXPECT_LE(indexed.stats.ions_built, reference.stats.ions_built)
              << label;
          EXPECT_LE(indexed.stats.ions_built,
                    indexed.stats.candidates_evaluated +
                        indexed.stats.candidates_prefiltered)
              << label;
          // The record path is the same kernel over another view.
          if (mode == CandidateMode::kPrefixSuffix)
            expect_record_run_matches(run_records(engine, w.db, prepared),
                                      indexed, label + " (records)");
        }
      }
    }
  }
}

TEST(KernelEquivalence, AmortizesIonGenerationAcrossChargeHypotheses) {
  const Workload& w = workload();
  SearchConfig config = base_config();
  config.try_alternate_charges = true;  // several hypotheses share candidates
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);
  const KernelRun run = run_indexed(engine, w.db, prepared);
  ASSERT_GT(run.stats.ions_built, 0u);
  EXPECT_LT(run.stats.ions_built,
            run.stats.candidates_evaluated + run.stats.candidates_prefiltered);
}

TEST(KernelEquivalence, ShippedIndexMatchesLocalBuild) {
  const Workload& w = workload();
  const SearchConfig config = base_config();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(w.queries);

  const CandidateIndex index = CandidateIndex::build(w.db, config);
  ASSERT_FALSE(index.empty());
  const std::vector<char> bytes = pack_database(w.db, index);

  // The indexed image is self-describing and survives the wire intact.
  const PackedShard shard = unpack_shard(bytes);
  ASSERT_TRUE(shard.has_index);
  EXPECT_TRUE(shard.index.params() == index.params());
  ASSERT_EQ(shard.index.size(), index.size());
  for (std::size_t i = 0; i < index.size(); ++i) {
    const IndexedCandidate& a = shard.index.entries()[i];
    const IndexedCandidate& b = index.entries()[i];
    ASSERT_EQ(a.mass, b.mass) << "entry " << i;
    ASSERT_EQ(a.protein, b.protein) << "entry " << i;
    ASSERT_EQ(a.offset, b.offset) << "entry " << i;
    ASSERT_EQ(a.length, b.length) << "entry " << i;
    ASSERT_EQ(a.end, b.end) << "entry " << i;
  }

  // Searching with the shipped index == searching with an internal build.
  const KernelRun shipped =
      run_indexed(engine, shard.db, prepared, &shard.index);
  const KernelRun internal = run_indexed(engine, w.db, prepared);
  expect_runs_identical(shipped, internal, "shipped index");
  EXPECT_EQ(shipped.stats.ions_built, internal.stats.ions_built);

  // Legacy consumers that only want proteins still work on indexed images.
  const ProteinDatabase plain = unpack_database(bytes);
  ASSERT_EQ(plain.proteins.size(), w.db.proteins.size());
  EXPECT_EQ(plain.proteins.back().residues, w.db.proteins.back().residues);

  // And an un-indexed image reports has_index = false.
  const PackedShard legacy = unpack_shard(pack_database(w.db));
  EXPECT_FALSE(legacy.has_index);
  EXPECT_EQ(legacy.db.proteins.size(), w.db.proteins.size());
}

TEST(KernelEquivalence, RejectsIndexBuiltUnderDifferentParams) {
  const Workload& w = workload();
  SearchConfig tryptic = base_config();
  tryptic.candidate_mode = CandidateMode::kTryptic;
  const CandidateIndex wrong = CandidateIndex::build(w.db, tryptic);

  const SearchEngine engine(base_config());
  const PreparedQueries prepared = engine.prepare(w.queries);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  EXPECT_THROW(engine.search_shard(w.db, prepared, tops, nullptr, &wrong),
               InvalidArgument);
}

// ---------- kernel_threads determinism matrix ----------

TEST(KernelThreads, AnyThreadCountProducesIdenticalResults) {
  const Workload& w = workload();
  // Exercise the threaded merge under both a plain config and the most
  // stateful one (prefilter + alternate charges → shared candidates and
  // both counter paths).
  for (const bool stateful : {false, true}) {
    SearchConfig config = base_config();
    config.prefilter = stateful;
    config.try_alternate_charges = stateful;

    KernelRun baseline;
    for (const std::size_t threads : {1, 2, 4, 8}) {
      config.kernel_threads = threads;
      const SearchEngine engine(config);
      const PreparedQueries prepared = engine.prepare(w.queries);
      const KernelRun run = run_indexed(engine, w.db, prepared);
      if (threads == 1) baseline = run;
      const std::string label =
          "kernel_threads=" + std::to_string(threads) +
          (stateful ? " (prefilter+charges)" : "");
      expect_record_run_matches(run_records(engine, w.db, prepared), baseline,
                                label + " (records)");
      if (threads == 1) continue;
      expect_runs_identical(run, baseline, label);
      EXPECT_EQ(run.stats.ions_built, baseline.stats.ions_built) << label;
    }
  }
}

TEST(KernelThreads, ParallelTraceIsThreadCountInvariant) {
  const Workload& w = workload();
  SearchConfig config = base_config();
  sim::Runtime runtime(3);
  runtime.enable_tracing();

  config.kernel_threads = 1;
  const ParallelRunResult serial_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);
  config.kernel_threads = 4;
  const ParallelRunResult threaded_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);

  expect_hits_identical(threaded_kernel.hits, serial_kernel.hits,
                        "algorithm A, kernel_threads 4 vs 1");
  EXPECT_EQ(threaded_kernel.candidates, serial_kernel.candidates);
  // Byte-identical virtual trace: every counter and every clock charge must
  // be independent of intra-rank threading — including the span timeline.
  EXPECT_EQ(threaded_kernel.report.to_string(),
            serial_kernel.report.to_string());
  EXPECT_EQ(threaded_kernel.report.to_chrome_trace(),
            serial_kernel.report.to_chrome_trace());
  EXPECT_EQ(threaded_kernel.report.to_iteration_csv(),
            serial_kernel.report.to_iteration_csv());
}

TEST(KernelThreads, FaultScheduleOutcomeIsThreadCountInvariant) {
  const Workload& w = workload();
  sim::FaultModel faults;
  faults.straggle(1, 3.0).fail_transfers(2, {0}).crash(3, 2);
  sim::Runtime runtime(4, {}, {}, faults);
  runtime.enable_tracing();

  SearchConfig config = base_config();
  config.kernel_threads = 1;
  const ParallelRunResult serial_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);
  config.kernel_threads = 4;
  const ParallelRunResult threaded_kernel =
      run_algorithm_a(runtime, w.image, w.queries, config);

  expect_hits_identical(threaded_kernel.hits, serial_kernel.hits,
                        "algorithm A under faults, kernel_threads 4 vs 1");
  EXPECT_EQ(threaded_kernel.report.to_string(),
            serial_kernel.report.to_string());
  EXPECT_EQ(threaded_kernel.report.to_chrome_trace(),
            serial_kernel.report.to_chrome_trace());
}

}  // namespace
}  // namespace msp
