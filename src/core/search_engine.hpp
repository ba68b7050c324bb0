// The serial search kernel shared by every parallelization.
//
// Candidate rule (Section II-A): a prefix or suffix of a database sequence
// is a candidate for query q iff its neutral mass lies within m(q) ± δ.
//
// The kernel is *candidate-centric*: one merge-join walks a mass-ascending
// candidate array against the mass-sorted query hypotheses. Each
// candidate's theoretical fragment ions are built exactly once (into a
// reusable workspace) and scored against every query whose window contains
// it, instead of being regenerated per (candidate, query) pair. The paper's
// Discussion identifies on-the-fly candidate generation as the dominant
// query-processing cost; this is the HiCOPS-style fix. The original
// database-walking kernel is retained as search_shard_reference() so tests
// can prove the kernels hit-for-hit and counter-for-counter identical.
//
// Which algorithm uses which kernel:
//   * search_shard(), narrow window — the candidate-major kernel over the
//     shard's CandidateIndex. Serial, A, B, the hybrid, master–worker and
//     query transport all funnel through it.
//   * search_shard(), open/PTM window — a two-phase kernel. Phase 1
//     collects: each hypothesis windows the index and a CandidateSource
//     (exhaustive or fragment-index) gates the window, recording every
//     survivor as an (ordinal, hypothesis) pair. Phase 2 scores
//     candidate-major: the pairs are sorted by ordinal, and each distinct
//     survivor's ions are built once and scored against every hypothesis
//     it survived for.
//   * search_records() — the same candidate-major kernel over a
//     CandidateRecord span: the serving ring's bands and the candidate
//     store's fetched ranges, in narrow and open mode alike.
// Every algorithm funnels through these kernels, which is what makes the
// cross-algorithm hit-for-hit validation meaningful; every path honours
// kernel_threads.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/candidate_index.hpp"
#include "core/candidate_record.hpp"
#include "core/config.hpp"
#include "core/fragment_index.hpp"
#include "core/hit.hpp"
#include "mass/peptide.hpp"
#include "scoring/likelihood.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/netmodel.hpp"
#include "spectra/spectrum.hpp"
#include "spectra/theoretical.hpp"

namespace msp {

/// Preprocessed queries plus the mass-sorted view the kernel searches.
/// The sorted view holds one *entry* per parent-mass hypothesis — exactly
/// one per query normally, one per charge hypothesis when
/// SearchConfig::try_alternate_charges is on — so `order`/`sorted_masses`
/// may be longer than `spectra`.
struct PreparedQueries {
  std::vector<Spectrum> spectra;       ///< preprocessed copies
  std::vector<QueryContext> contexts;  ///< binned + background, per query
  std::vector<double> masses;          ///< reported parent mass, query order
  std::vector<std::uint32_t> order;    ///< entry k → query index
  std::vector<double> sorted_masses;  ///< entry k → hypothesis mass, rising

  std::size_t size() const { return spectra.size(); }
  double min_mass() const;  ///< the paper's m(q)_min (0 when empty)
  double max_mass() const;
};

struct ShardSearchStats {
  std::uint64_t candidates_evaluated = 0;  ///< fully scored (the paper's r)
  std::uint64_t candidates_prefiltered = 0;  ///< screened out cheaply
  std::uint64_t hits_offered = 0;          ///< top-τ updates attempted
  /// Theoretical fragment-ion generations. The candidate-centric kernel
  /// builds each matched candidate's ions once and reuses them across every
  /// matching query/prefilter, so ions_built ≤ evaluated + prefiltered (with
  /// strict inequality whenever candidates match several hypotheses); with
  /// the fragment-index source it is the number of distinct gate survivors,
  /// ≤ evaluated. The reference kernel regenerates per scoring call.
  std::uint64_t ions_built = 0;
  /// Fragment-index postings visited during open-search lookups (the
  /// indexed source's whole per-candidate cost; always 0 in narrow-window
  /// search and for the exhaustive source).
  std::uint64_t postings_scanned = 0;
  /// Candidates enumerated into a temporary CandidateIndex because the
  /// caller passed none (one fragment-mass computation each, the unit of
  /// every index build; 0 whenever an index is supplied).
  std::uint64_t index_entries_built = 0;

  ShardSearchStats& operator+=(const ShardSearchStats& other) {
    candidates_evaluated += other.candidates_evaluated;
    candidates_prefiltered += other.candidates_prefiltered;
    hits_offered += other.hits_offered;
    ions_built += other.ions_built;
    postings_scanned += other.postings_scanned;
    index_entries_built += other.index_entries_built;
    return *this;
  }
};

/// Virtual compute seconds one kernel invocation costs under `model` —
/// the single place where candidate work maps onto the simulated clock.
/// ρ splits into a generation part (charged per ion build, which the
/// candidate-centric kernel amortizes across queries) and a comparison part
/// (charged per full evaluation) — the same split candidate_store uses, so
/// "store pays generation once" and "the kernel reuses ions" land on one
/// consistent clock.
inline double kernel_cost_seconds(const ShardSearchStats& stats,
                                  const sim::ComputeModel& model) {
  const double generation =
      model.seconds_per_candidate * model.candidate_generation_fraction;
  const double evaluation =
      model.seconds_per_candidate * (1.0 - model.candidate_generation_fraction);
  return static_cast<double>(stats.ions_built) * generation +
         static_cast<double>(stats.candidates_evaluated) * evaluation +
         static_cast<double>(stats.candidates_prefiltered) *
             model.seconds_per_prefilter +
         static_cast<double>(stats.hits_offered) *
             model.seconds_per_hit_update +
         static_cast<double>(stats.postings_scanned) *
             model.seconds_per_posting +
         static_cast<double>(stats.index_entries_built) * model.seconds_per_mz;
}

class SearchEngine {
 public:
  explicit SearchEngine(SearchConfig config);

  const SearchConfig& config() const { return config_; }

  /// Preprocess and index a query set (any subset of the global queries).
  PreparedQueries prepare(std::span<const Spectrum> queries) const;

  /// The parent-mass hypotheses one raw query contributes — exactly the
  /// enumeration prepare() feeds the kernel (one per charge hypothesis when
  /// try_alternate_charges is on, else the reported parent mass), computable
  /// without preprocessing since preprocessing never alters the precursor.
  /// This is what mass routing matches against shard histograms: routing
  /// and scoring must window on the same masses.
  std::vector<double> hypothesis_masses(const Spectrum& query) const;

  /// Score every candidate of `shard` against every matching query in
  /// `queries`, updating tops[q]. tops.size() must equal queries.size().
  /// If `per_query_candidates` is non-null it accumulates, per query, the
  /// number of candidates evaluated (Fig. 1b measurements).
  ///
  /// The candidate-centric kernel: merge-joins `index` (the shard's
  /// mass-sorted CandidateIndex, normally shipped with the shard bytes)
  /// against the sorted query hypotheses, building each matched candidate's
  /// fragment ions once. When `index` is null a temporary one is built
  /// in-place, so every caller gets the same path; its entries are counted
  /// in ShardSearchStats::index_entries_built and charged by
  /// kernel_cost_seconds. When
  /// config().kernel_threads > 1 the index range fans out over that many
  /// threads with per-thread top-τ lists merged under the total hit order —
  /// hits and counters are identical for every thread count.
  ///
  /// When config().open_search() the kernel runs in two phases. Collect:
  /// each hypothesis windows [m − window_below, m + window_above] of the
  /// index and a CandidateSource gates the window down to candidates with
  /// ≥ vote_gate() matched ions (fanned over hypotheses; the Fig. 1b
  /// per-query count is this window count). Score: the (survivor,
  /// hypothesis) pairs are walked candidate-major, building each distinct
  /// survivor's ions once and scoring it against every hypothesis it
  /// survived for (fanned over whole candidate groups, so counters are
  /// thread-invariant). `fragment` selects the indexed source (per
  /// candidate_source; a null fragment with kAuto falls back to exhaustive
  /// enumeration — the legacy-pack path); hits are bit-identical across
  /// sources, thread counts, and fault schedules. Narrow-window search
  /// ignores `fragment`.
  ShardSearchStats search_shard(
      const ProteinDatabase& shard, const PreparedQueries& queries,
      std::span<TopK<Hit>> tops,
      std::vector<std::uint64_t>* per_query_candidates = nullptr,
      const CandidateIndex* index = nullptr,
      const FragmentIndex* fragment = nullptr) const;

  /// The record-array form of the candidate-centric kernel: merge-joins a
  /// mass-ascending CandidateRecord span (a band of the serving ring's
  /// sorted record layout, a candidate-store fetch, or any partial fetch of
  /// one) against the sorted query hypotheses. It runs the very block
  /// kernel narrow search_shard() runs, so scores, hits and counters are
  /// bit-identical to scoring the same candidates through the index path.
  /// In open mode the shared-peak screen applies vote_gate(), the gate both
  /// CandidateSource paths apply, so hits match search_shard() there too.
  /// Fans out over config().kernel_threads like search_shard().
  ShardSearchStats search_records(std::span<const CandidateRecord> records,
                                  const PreparedQueries& queries,
                                  std::span<TopK<Hit>> tops) const;

  /// The original database-walking kernel (re-enumerates candidates and
  /// regenerates ions per scoring call). Kept as the ground truth the
  /// kernel-equivalence tests compare search_shard() against. In open mode
  /// it applies the identical widened window and vote gate, so it is also
  /// the oracle for both open-search candidate sources.
  ShardSearchStats search_shard_reference(
      const ProteinDatabase& shard, const PreparedQueries& queries,
      std::span<TopK<Hit>> tops,
      std::vector<std::uint64_t>* per_query_candidates = nullptr) const;

  /// Score one candidate peptide against one query (model dispatch).
  double score_candidate(const QueryContext& context,
                         std::string_view peptide) const;

  /// Same, over the candidate's precomputed fragment ions — builds the SoA
  /// ladder and funnels through the ladder overload. Scores are
  /// bit-identical to the string overload.
  double score_candidate(const QueryContext& context, std::string_view peptide,
                         const std::vector<FragmentIon>& ions) const;

  /// Same, over the candidate's prebuilt ion ladder — the form the blocked
  /// kernel calls so the ladder is built once per candidate and reused
  /// across every matching query. `peptide` is still needed for the
  /// spectral-library lookup in hybrid mode. Every overload funnels here,
  /// which is what keeps the reference oracle bit-identical to the kernels.
  double score_candidate(const QueryContext& context, std::string_view peptide,
                         const IonLadder& ladder) const;

  /// Serial end-to-end search — the p=1 reference every parallel variant is
  /// validated against.
  QueryHits search(const ProteinDatabase& db,
                   std::span<const Spectrum> queries) const;

  /// Extract final per-query hit lists (best-first) from the running tops.
  QueryHits finalize(std::vector<TopK<Hit>>& tops) const;

  /// A fresh top-τ list per query.
  std::vector<TopK<Hit>> make_tops(std::size_t query_count) const;

 private:
  /// The two-phase open-search kernel behind search_shard(); `index` has
  /// already been validated (or built) by the caller.
  ShardSearchStats search_shard_open(
      const ProteinDatabase& shard, const PreparedQueries& queries,
      std::span<TopK<Hit>> tops,
      std::vector<std::uint64_t>* per_query_candidates,
      const CandidateIndex& index, const FragmentIndex* fragment) const;

  SearchConfig config_;
};

}  // namespace msp
