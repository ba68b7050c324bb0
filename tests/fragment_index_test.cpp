// Open-search validation for the fragment-ion-indexed candidate source.
//
// The central claim (DESIGN.md §5i): both open-search candidate sources —
// exhaustive mass-window enumeration and the fragment-ion index — compute
// the identical integer votes (shared_peak_count over the same b/y ladder
// and global bin grid), so they admit the identical survivor set and the
// kernel produces bit-identical hits whichever source is plugged in, across
// window widths, PTM sets, thread counts, fault schedules, and transports.
// The database-walking search_shard_reference() is the oracle both are
// compared against. The wire tests pin the "MSPARFRG" record format:
// round-trip equality, loud rejection of corrupted records, and silent
// fallback to exhaustive enumeration for legacy pack images.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_index.hpp"
#include "core/candidate_source.hpp"
#include "core/fragment_index.hpp"
#include "core/packdb.hpp"
#include "core/search_engine.hpp"
#include "core/wire.hpp"
#include "dbgen/protein_gen.hpp"
#include "dbgen/query_gen.hpp"
#include "io/fasta.hpp"
#include "mass/ptm.hpp"
#include "scoring/shared_peak.hpp"
#include "serve/service.hpp"
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
    db_options.sequence_count = 40;
    db_options.mean_length = 110;
    db_options.seed = 9117;
    db = generate_proteins(db_options);
    image = to_fasta_string(db);

    QueryGenOptions q_options;
    q_options.query_count = 14;
    q_options.seed = 9118;
    q_options.digest.min_length = 6;
    q_options.digest.max_length = 25;
    queries = spectra_of(generate_queries(db, q_options));
  }
};

const Workload& workload() {
  static const Workload w;
  return w;
}

/// An open-search base config: ±25 Da on top of the tolerance unless a test
/// overrides it. Votes gate at 2 matched ions, the shipping default.
SearchConfig open_config() {
  SearchConfig config;
  config.tolerance_da = 2.0;
  config.tau = 5;
  config.min_candidate_length = 5;
  config.max_candidate_length = 40;
  config.model = ScoreModel::kLikelihood;
  config.open_window_da = 25.0;
  config.min_fragment_votes = 2;
  return config;
}

struct KernelRun {
  QueryHits hits;
  ShardSearchStats stats;
  std::vector<std::uint64_t> per_query;
};

KernelRun run_shard(const SearchConfig& config, const CandidateIndex* index,
                    const FragmentIndex* fragment) {
  const Workload& w = workload();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats =
      engine.search_shard(w.db, prepared, tops, &run.per_query, index,
                          fragment);
  run.hits = engine.finalize(tops);
  return run;
}

KernelRun run_reference(const SearchConfig& config) {
  const Workload& w = workload();
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));
  KernelRun run;
  run.per_query.assign(prepared.size(), 0);
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  run.stats =
      engine.search_shard_reference(w.db, prepared, tops, &run.per_query);
  run.hits = engine.finalize(tops);
  return run;
}

/// Bit-exact: determinism means exact score equality, not tolerance
/// equality — every path sums the same doubles in the same order.
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

std::vector<Ptm> ptm_set(int which) {
  switch (which) {
    case 1:
      return {ptm_phospho_s(), ptm_phospho_t()};
    case 2:
      return {ptm_phospho_s(), ptm_phospho_t(), ptm_oxidation_m()};
    default:
      return {};
  }
}

// ---------- oracle matrix: both sources vs the reference kernel ----------

TEST(OpenSearchOracle, SourcesMatchReferenceAcrossWindowsAndPtms) {
  const Workload& w = workload();
  for (const double window : {25.0, 100.0}) {
    for (const int ptms : {0, 1, 2}) {
      for (const CandidateMode mode :
           {CandidateMode::kPrefixSuffix, CandidateMode::kTryptic}) {
        SearchConfig config = open_config();
        config.open_window_da = window;
        config.ptms = ptm_set(ptms);
        config.max_ptm_mods = 1;
        config.candidate_mode = mode;
        const std::string label = "window=" + std::to_string(window) +
                                  " ptms=" + std::to_string(ptms) + " mode=" +
                                  std::to_string(static_cast<int>(mode));

        const CandidateIndex index = CandidateIndex::build(w.db, config);
        const FragmentIndex fragment =
            FragmentIndex::build(w.db, index, config.bin_width);

        const KernelRun oracle = run_reference(config);

        config.candidate_source = CandidateSourceKind::kMassWindow;
        const KernelRun exhaustive = run_shard(config, &index, nullptr);

        config.candidate_source = CandidateSourceKind::kFragmentIndex;
        const KernelRun indexed = run_shard(config, &index, &fragment);

        // kAuto with a shipped fragment record takes the indexed path; the
        // result must be indistinguishable either way.
        config.candidate_source = CandidateSourceKind::kAuto;
        const KernelRun automatic = run_shard(config, &index, &fragment);

        expect_hits_identical(exhaustive.hits, oracle.hits,
                              label + " exhaustive");
        expect_hits_identical(indexed.hits, oracle.hits, label + " indexed");
        expect_hits_identical(automatic.hits, oracle.hits, label + " auto");

        // Both sources window and gate identically: same survivors fully
        // scored, same per-query candidate accounting, same hit offers.
        EXPECT_EQ(indexed.stats.candidates_evaluated,
                  exhaustive.stats.candidates_evaluated)
            << label;
        EXPECT_EQ(indexed.stats.hits_offered, exhaustive.stats.hits_offered)
            << label;
        EXPECT_EQ(indexed.per_query, exhaustive.per_query) << label;

        // The costs differ in the advertised direction: the indexed source
        // builds ions only for survivors, at most once each however many
        // hypotheses they survive for, and pays postings scans instead.
        EXPECT_LT(indexed.stats.ions_built, exhaustive.stats.ions_built)
            << label;
        EXPECT_LE(indexed.stats.ions_built, indexed.stats.candidates_evaluated)
            << label;
        EXPECT_GT(indexed.stats.postings_scanned, 0u) << label;
        EXPECT_EQ(exhaustive.stats.postings_scanned, 0u) << label;
      }
    }
  }
}

// Candidate-major scoring: a candidate that survives the gate for several
// hypotheses has its ions built once per shard search, not once per
// hypothesis. The expected build count is derived independently, by running
// the indexed source over each hypothesis's window and counting distinct
// survivor ordinals.
TEST(OpenSearchOracle, IndexedSearchBuildsEachSurvivorsIonsOnce) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.open_window_da = 100.0;
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  // Repeat a few queries so some survivors are shared by construction; the
  // wide window makes neighbouring queries share survivors as well.
  std::vector<Spectrum> queries = w.queries;
  queries.insert(queries.end(), w.queries.begin(), w.queries.begin() + 4);

  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  const SearchEngine engine(config);
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(queries.data(), queries.size()));
  std::vector<TopK<Hit>> tops = engine.make_tops(prepared.size());
  const ShardSearchStats indexed =
      engine.search_shard(w.db, prepared, tops, nullptr, &index, &fragment);

  FragmentIndexCandidateSource source(fragment, config.vote_gate());
  ShardSearchStats scratch;
  std::vector<std::uint32_t> survivors;
  std::vector<bool> survived(index.size(), false);
  std::uint64_t pairs = 0;
  for (std::size_t k = 0; k < prepared.sorted_masses.size(); ++k) {
    const double mass = prepared.sorted_masses[k];
    std::size_t lo = 0;
    while (lo < index.size() &&
           index.entries()[lo].mass < mass - config.window_below())
      ++lo;
    std::size_t hi = lo;
    while (hi < index.size() &&
           index.entries()[hi].mass <= mass + config.window_above())
      ++hi;
    const QueryContext& context = prepared.contexts[prepared.order[k]];
    source.collect(context, occupied_bins(context.binned()), lo, hi,
                   survivors, scratch);
    pairs += survivors.size();
    for (const std::uint32_t ordinal : survivors) survived[ordinal] = true;
  }
  const auto distinct = static_cast<std::uint64_t>(
      std::count(survived.begin(), survived.end(), true));

  ASSERT_GT(distinct, 0u);
  EXPECT_EQ(indexed.candidates_evaluated, pairs);
  EXPECT_EQ(indexed.ions_built, distinct);
  EXPECT_LT(indexed.ions_built, indexed.candidates_evaluated);
  EXPECT_EQ(indexed.postings_scanned, scratch.postings_scanned);
}

TEST(OpenSearchOracle, NarrowSearchIgnoresFragmentIndex) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.open_window_da = 0.0;  // not open: ±tolerance merge-join
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);

  const KernelRun plain = run_shard(config, &index, nullptr);
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  const KernelRun with_fragment = run_shard(config, &index, &fragment);
  expect_hits_identical(with_fragment.hits, plain.hits, "narrow");
  EXPECT_EQ(with_fragment.stats.postings_scanned, 0u);
}

// ---------- postings completeness: votes == shared_peak_count ----------

TEST(FragmentIndexPostings, VotesEqualSharedPeakCountExactly) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const SearchEngine engine(config);
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  ASSERT_EQ(fragment.candidate_count(), index.size());
  const PreparedQueries prepared = engine.prepare(
      std::span<const Spectrum>(w.queries.data(), w.queries.size()));

  for (const std::size_t q : {std::size_t{0}, std::size_t{5}}) {
    const QueryContext& context = prepared.contexts[q];
    // Accumulate votes the way the source does: walk the query's occupied
    // bins, bump every posted ordinal (postings are deduplicated per
    // (candidate, bin), so each bin adds at most one vote).
    std::vector<std::uint32_t> votes(index.size(), 0);
    for (const std::uint32_t bin : occupied_bins(context.binned()))
      for (const std::uint32_t ordinal : fragment.postings(bin))
        ++votes[ordinal];
    // Every candidate's vote count must equal the matched-ion count the
    // exhaustive source (and the prefilter, and kSharedPeak scoring)
    // computes from the candidate's freshly built ladder.
    for (std::size_t ordinal = 0; ordinal < index.size(); ++ordinal) {
      const IndexedCandidate& entry = index.entries()[ordinal];
      const Protein& protein = w.db.proteins[entry.protein];
      const std::string_view peptide =
          std::string_view(protein.residues).substr(entry.offset,
                                                    entry.length);
      EXPECT_EQ(votes[ordinal],
                shared_peak_count(context.binned(), peptide))
          << "q" << q << " ordinal " << ordinal << " peptide " << peptide;
    }
  }
}

TEST(FragmentIndexPostings, PostingListsAreOrdinalAscending) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  std::size_t walked = 0;
  for (std::uint32_t bin = 0; bin < fragment.bin_count(); ++bin) {
    const auto postings = fragment.postings(bin);
    for (std::size_t i = 0; i < postings.size(); ++i) {
      ASSERT_LT(postings[i], index.size()) << "bin " << bin;
      if (i > 0) {
        ASSERT_GE(postings[i], postings[i - 1]) << "bin " << bin;
      }
    }
    walked += postings.size();
  }
  EXPECT_EQ(walked, fragment.posting_count());
  EXPECT_GT(walked, index.size());  // every candidate posts several ions
}

// ---------- wire format: round-trip, corruption, legacy fallback ----------

TEST(FragmentIndexWire, RoundTripsThroughWriterAndPackImage) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);

  wire::Writer writer;
  put_fragment_index(writer, fragment);
  wire::Reader reader(writer.bytes());
  EXPECT_TRUE(peek_fragment_index(reader));
  EXPECT_EQ(get_fragment_index(reader), fragment);

  // The pack image: trailer parsed back intact, with and without the
  // histogram record in front of it.
  const PackedShard shard =
      unpack_shard(pack_database(w.db, index, fragment));
  ASSERT_TRUE(shard.has_fragment);
  EXPECT_EQ(shard.fragment, fragment);
  EXPECT_FALSE(shard.has_histogram);

  const MassHistogram histogram = MassHistogram::build(index);
  const PackedShard both =
      unpack_shard(pack_database(w.db, index, histogram, fragment));
  ASSERT_TRUE(both.has_fragment);
  EXPECT_EQ(both.fragment, fragment);
  EXPECT_TRUE(both.has_histogram);
}

TEST(FragmentIndexWire, RejectsCorruptedRecords) {
  const Workload& w = workload();
  const SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);
  wire::Writer writer;
  put_fragment_index(writer, fragment);
  const std::vector<char> good = writer.bytes();

  {  // flipped magic: peek says "no record", a forced get throws
    std::vector<char> bytes = good;
    bytes[0] ^= 0x1;
    wire::Reader peeker(bytes);
    EXPECT_FALSE(peek_fragment_index(peeker));
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_index(reader), IoError);
  }
  {  // unsupported version (u32 right after the 8-byte magic)
    std::vector<char> bytes = good;
    bytes[8] = 0x7f;
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_index(reader), IoError);
  }
  // Truncation anywhere in the payload must throw, never misparse: the
  // record carries untrusted sizes, so every slice is validated against
  // the remaining payload.
  for (const std::size_t keep :
       {std::size_t{12}, good.size() / 2, good.size() - 1}) {
    std::vector<char> bytes(good.begin(),
                            good.begin() + static_cast<std::ptrdiff_t>(keep));
    wire::Reader reader(bytes);
    EXPECT_THROW(get_fragment_index(reader), IoError) << "keep=" << keep;
  }
}

TEST(FragmentIndexWire, ConstructorRejectsBrokenCsr) {
  const FragmentIndexParams params{CandidateIndexParams{}, 1.0};
  // starts must begin at 0, be monotone, and sum to the posting count;
  // ordinals must be in range and ascending per bin; the grid finite.
  EXPECT_THROW(FragmentIndex(params, 2, {1, 1}, {}), InvalidArgument);
  EXPECT_THROW(FragmentIndex(params, 2, {0, 2, 1}, {0, 1}), InvalidArgument);
  EXPECT_THROW(FragmentIndex(params, 2, {0, 1}, {0, 1}), InvalidArgument);
  EXPECT_THROW(FragmentIndex(params, 2, {0, 1}, {5}), InvalidArgument);
  EXPECT_THROW(FragmentIndex(params, 2, {0, 2}, {1, 0}), InvalidArgument);
  EXPECT_THROW(
      FragmentIndex(FragmentIndexParams{CandidateIndexParams{}, -1.0}, 0, {},
                    {}),
      InvalidArgument);
  EXPECT_NO_THROW(FragmentIndex(params, 2, {0, 1, 2}, {0, 1}));
}

TEST(FragmentIndexWire, LegacyPackFallsBackToExhaustiveSearch) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  const CandidateIndex index = CandidateIndex::build(w.db, config);

  // A legacy (pre-fragment-record) image: no fragment trailer at all.
  const PackedShard legacy = unpack_shard(pack_database(w.db, index));
  ASSERT_TRUE(legacy.has_index);
  EXPECT_FALSE(legacy.has_fragment);

  // kAuto with no fragment record silently enumerates exhaustively and
  // still lands on the oracle's hits.
  const KernelRun oracle = run_reference(config);
  config.candidate_source = CandidateSourceKind::kAuto;
  const KernelRun fallback = run_shard(config, &legacy.index, nullptr);
  expect_hits_identical(fallback.hits, oracle.hits, "legacy fallback");
  EXPECT_EQ(fallback.stats.postings_scanned, 0u);
}

TEST(FragmentIndexWire, EngineRejectsMismatchedIndexParams) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  // Built on a different bin grid: a different grid is a different vote
  // gate, so the engine must refuse it rather than silently change hits.
  const FragmentIndex wrong_grid =
      FragmentIndex::build(w.db, index, config.bin_width * 2.0);
  EXPECT_THROW(run_shard(config, &index, &wrong_grid), InvalidArgument);
}

// ---------- determinism: threads, faults, and the parallel driver ----------

TEST(OpenSearchDeterminism, KernelThreadCountIsInvisible) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  const CandidateIndex index = CandidateIndex::build(w.db, config);
  const FragmentIndex fragment =
      FragmentIndex::build(w.db, index, config.bin_width);

  config.kernel_threads = 1;
  const KernelRun serial = run_shard(config, &index, &fragment);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    config.kernel_threads = threads;
    const KernelRun fanned = run_shard(config, &index, &fragment);
    const std::string label = "threads=" + std::to_string(threads);
    expect_hits_identical(fanned.hits, serial.hits, label);
    EXPECT_EQ(fanned.stats.candidates_evaluated,
              serial.stats.candidates_evaluated)
        << label;
    EXPECT_EQ(fanned.stats.candidates_prefiltered,
              serial.stats.candidates_prefiltered)
        << label;
    EXPECT_EQ(fanned.stats.ions_built, serial.stats.ions_built) << label;
    EXPECT_EQ(fanned.stats.postings_scanned, serial.stats.postings_scanned)
        << label;
    EXPECT_EQ(fanned.per_query, serial.per_query) << label;
  }
}

TEST(OpenSearchDeterminism, ParallelOpenSearchMatchesSerialUnderFaults) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.ptms = ptm_set(1);
  config.max_ptm_mods = 1;
  const QueryHits serial = SearchEngine(config).search(w.db, w.queries);

  for (const bool crash : {false, true}) {
    sim::FaultModel faults;
    if (crash) faults.crash(1, 1);
    for (const CandidateSourceKind source :
         {CandidateSourceKind::kMassWindow,
          CandidateSourceKind::kFragmentIndex}) {
      SearchConfig run_config = config;
      run_config.candidate_source = source;
      const sim::Runtime runtime(4, {}, {}, faults);
      const ParallelRunResult result = run_algorithm_a(
          runtime, w.image, w.queries, run_config, AlgorithmAOptions{});
      const std::string label =
          std::string(crash ? "crash" : "clean") + " source=" +
          std::to_string(static_cast<int>(source));
      expect_hits_identical(result.hits, serial, label);
      if (source == CandidateSourceKind::kFragmentIndex) {
        EXPECT_GT(result.report.sum_counter("postings"), 0u) << label;
      } else {
        EXPECT_EQ(result.report.sum_counter("postings"), 0u) << label;
      }
    }
  }
}

TEST(OpenSearchDeterminism, ParallelRunsAreByteIdenticalAcrossRepeats) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  config.candidate_source = CandidateSourceKind::kFragmentIndex;
  auto run_once = [&] {
    const sim::Runtime runtime(4);
    return run_algorithm_a(runtime, w.image, w.queries, config,
                           AlgorithmAOptions{});
  };
  const ParallelRunResult first = run_once();
  const ParallelRunResult second = run_once();
  expect_hits_identical(second.hits, first.hits, "repeat");
  EXPECT_EQ(second.report.to_string(), first.report.to_string());
}

// ---------- the serving ring in open mode ----------

TEST(OpenSearchServe, RoutedServiceMatchesSerialOpenHits) {
  const Workload& w = workload();
  SearchConfig config = open_config();
  const QueryHits serial = SearchEngine(config).search(w.db, w.queries);

  for (const bool routed : {true, false}) {
    serve::ServiceOptions options;
    options.arrivals.kind = serve::ArrivalKind::kPoisson;
    options.arrivals.rate_qps = 400.0;
    options.arrivals.seed = 77;
    options.batch.max_batch = 6;
    options.batch.max_wait_s = 0.02;
    options.admission.max_outstanding = 256;
    options.mass_routing = routed;

    const sim::Runtime runtime(4);
    const serve::ServiceResult result =
        serve::run_service(runtime, w.image, w.queries, config, options);
    const std::string label = routed ? "routed" : "unrouted";
    EXPECT_EQ(result.completed, w.queries.size()) << label;
    EXPECT_EQ(result.shed, 0u) << label;
    expect_hits_identical(result.hits, serial, label);
  }
}

}  // namespace
}  // namespace msp
