#include "core/search_engine.hpp"

#include <algorithm>
#include <exception>
#include <numeric>
#include <optional>
#include <thread>

#include "core/candidate_source.hpp"
#include "mass/digest.hpp"
#include "scoring/hyperscore.hpp"
#include "scoring/shared_peak.hpp"
#include "util/error.hpp"

namespace msp {

double PreparedQueries::min_mass() const {
  return sorted_masses.empty() ? 0.0 : sorted_masses.front();
}

double PreparedQueries::max_mass() const {
  return sorted_masses.empty() ? 0.0 : sorted_masses.back();
}

SearchEngine::SearchEngine(SearchConfig config) : config_(config) {
  MSP_CHECK_MSG(config_.tolerance_da > 0.0, "tolerance must be positive");
  MSP_CHECK_MSG(config_.tau >= 1, "tau must be >= 1");
  MSP_CHECK_MSG(config_.min_candidate_length >= 2,
                "candidates must have >= 2 residues (fragmentable)");
  MSP_CHECK_MSG(config_.max_candidate_length >= config_.min_candidate_length,
                "candidate length bounds inverted");
  MSP_CHECK_MSG(config_.open_window_da >= 0.0,
                "open window must be non-negative");
  if (config_.open_search())
    MSP_CHECK_MSG(config_.min_fragment_votes >= 1,
                  "open search requires a vote gate of at least 1 (a "
                  "zero-vote candidate is invisible to the fragment index)");
}

PreparedQueries SearchEngine::prepare(std::span<const Spectrum> queries) const {
  PreparedQueries prepared;
  prepared.spectra.reserve(queries.size());
  prepared.contexts.reserve(queries.size());
  prepared.masses.reserve(queries.size());
  // Each query contributes one (mass, query) search entry per parent-mass
  // hypothesis: just the reported charge by default, or one per charge in
  // charge_hypotheses when alternate-charge search is on.
  std::vector<std::pair<double, std::uint32_t>> entries;
  for (std::uint32_t i = 0; i < queries.size(); ++i) {
    const Spectrum& raw = queries[i];
    Spectrum cleaned = preprocess(raw, config_.preprocess);
    prepared.masses.push_back(cleaned.parent_mass());
    if (config_.try_alternate_charges) {
      for (int z : config_.charge_hypotheses) {
        MSP_CHECK_MSG(z >= 1, "charge hypotheses must be >= 1");
        entries.emplace_back(mass_from_mz(raw.precursor_mz(), z), i);
      }
    } else {
      entries.emplace_back(cleaned.parent_mass(), i);
    }
    prepared.contexts.emplace_back(cleaned, config_.bin_width);
    // Xcorr folds its 151-offset background into the query once, here, so
    // every driver and the serve path (all of which funnel through
    // prepare()) share one per-query build.
    if (config_.model == ScoreModel::kXcorr)
      prepared.contexts.back().enable_xcorr();
    prepared.spectra.push_back(std::move(cleaned));
  }
  std::sort(entries.begin(), entries.end());
  prepared.order.reserve(entries.size());
  prepared.sorted_masses.reserve(entries.size());
  for (const auto& [mass, index] : entries) {
    prepared.sorted_masses.push_back(mass);
    prepared.order.push_back(index);
  }
  return prepared;
}

std::vector<double> SearchEngine::hypothesis_masses(
    const Spectrum& query) const {
  std::vector<double> masses;
  if (config_.try_alternate_charges) {
    masses.reserve(config_.charge_hypotheses.size());
    for (const int z : config_.charge_hypotheses) {
      MSP_CHECK_MSG(z >= 1, "charge hypotheses must be >= 1");
      masses.push_back(mass_from_mz(query.precursor_mz(), z));
    }
  } else {
    masses.push_back(query.parent_mass());
  }
  return masses;
}

double SearchEngine::score_candidate(const QueryContext& context,
                                     std::string_view peptide) const {
  return score_candidate(context, peptide, fragment_ions(peptide));
}

double SearchEngine::score_candidate(
    const QueryContext& context, std::string_view peptide,
    const std::vector<FragmentIon>& ions) const {
  static thread_local IonLadder ladder;
  build_ion_ladder(ions, config_.bin_width, ladder);
  return score_candidate(context, peptide, ladder);
}

double SearchEngine::score_candidate(const QueryContext& context,
                                     std::string_view peptide,
                                     const IonLadder& ladder) const {
  switch (config_.model) {
    case ScoreModel::kLikelihood: {
      const double model_score = likelihood_ratio(context, ladder);
      if (config_.library != nullptr) {
        if (const Spectrum* entry = config_.library->find(peptide)) {
          // Hybrid evidence: the candidate explains the query if EITHER its
          // measured consensus pattern or the generic b/y model does —
          // library information can only strengthen a candidate.
          return std::max(model_score,
                          likelihood_ratio_library(context, *entry));
        }
      }
      return model_score;
    }
    case ScoreModel::kHyperscore:
      return hyperscore(context.binned(), ladder);
    case ScoreModel::kSharedPeak:
      return static_cast<double>(shared_peak_count(context.binned(), ladder));
    case ScoreModel::kXcorr: {
      const XcorrContext* x = context.xcorr();
      MSP_CHECK_MSG(x != nullptr,
                    "xcorr scoring requires a query context prepared under "
                    "ScoreModel::kXcorr (QueryContext::enable_xcorr)");
      return xcorr(*x, ladder);
    }
  }
  throw InvalidArgument("unknown score model");
}

namespace {

/// Score index entries [first, last) against all matching queries — the
/// candidate-centric inner loop one thread runs. State it writes (tops,
/// stats, per_query_candidates) is exclusively its own; everything else is
/// read-only, which is what makes the fan-out race-free.
void search_index_block(const SearchEngine& engine,
                        const ProteinDatabase& shard,
                        const CandidateIndex& index,
                        const PreparedQueries& queries, std::size_t first,
                        std::size_t last, std::span<TopK<Hit>> tops,
                        ShardSearchStats& stats,
                        std::vector<std::uint64_t>* per_query_candidates) {
  const SearchConfig& config = engine.config();
  const double delta = config.tolerance_da;
  const std::vector<IndexedCandidate>& entries = index.entries();
  const std::vector<double>& sorted = queries.sorted_masses;

  // Merge-join: entries and query hypotheses are both mass-ascending, so the
  // window [lo, hi) only ever slides forward. Bounds use the same predicates
  // as the reference kernel's binary searches (>= mass-δ, <= mass+δ).
  std::size_t lo = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(),
                       entries[first].mass - delta) -
      sorted.begin());
  std::size_t hi = lo;

  FragmentIonWorkspace workspace;
  const TheoreticalOptions ion_options;  // same defaults as the string path

  for (std::size_t e = first; e < last; ++e) {
    const IndexedCandidate& entry = entries[e];
    const double mass = entry.mass;
    while (lo < sorted.size() && sorted[lo] < mass - delta) ++lo;
    if (hi < lo) hi = lo;
    while (hi < sorted.size() && sorted[hi] <= mass + delta) ++hi;
    if (lo == hi) continue;

    const Protein& protein = shard.proteins[entry.protein];
    const std::string_view peptide =
        std::string_view(protein.residues).substr(entry.offset, entry.length);

    // Built lazily on the first matching query — ions plus their SoA bin
    // ladder — then shared by every query (and prefilter screen) this
    // candidate reaches. All scoring below runs on the ladder.
    bool built = false;

    for (std::size_t pos = lo; pos < hi; ++pos) {
      const std::uint32_t q = queries.order[pos];
      if (per_query_candidates) ++(*per_query_candidates)[q];
      if (!built) {
        build_ion_ladder(fragment_ions_into(peptide, ion_options, workspace),
                         config.bin_width, workspace.ladder);
        built = true;
        ++stats.ions_built;
      }
      double score;
      if (config.prefilter) {
        const std::size_t shared =
            shared_peak_count(queries.contexts[q].binned(), workspace.ladder);
        if (shared < config.prefilter_min_shared_peaks) {
          ++stats.candidates_prefiltered;
          continue;  // the aggressive screen: never fully scored
        }
        // Under the shared-peak model the screen already IS the score —
        // reuse it instead of scoring the candidate a second time.
        score = config.model == ScoreModel::kSharedPeak
                    ? static_cast<double>(shared)
                    : engine.score_candidate(queries.contexts[q], peptide,
                                             workspace.ladder);
      } else {
        score =
            engine.score_candidate(queries.contexts[q], peptide,
                                   workspace.ladder);
      }
      ++stats.candidates_evaluated;
      if (score < config.score_cutoff) continue;
      // Counted before the top-τ admission test so the counter (and the
      // virtual clock built on it) is independent of visit order.
      ++stats.hits_offered;
      TopK<Hit>& top = tops[q];
      // A full list never admits a strictly worse score: skip before paying
      // for the Hit's string materialization.
      if (top.full() && score < top.cutoff()) continue;
      Hit hit;
      hit.score = score;
      hit.protein_id = protein.id;
      hit.offset = entry.offset;
      hit.length = entry.length;
      hit.end = entry.end;
      hit.mass = mass;
      hit.peptide = std::string(peptide);
      top.offer(hit);
    }
  }
}

/// Score hypothesis entries [first, last) through a CandidateSource — the
/// query-centric open-search inner loop one thread runs. Each hypothesis
/// windows [m − window_below, m + window_above] of the index (one contiguous
/// ordinal range, since entries are mass-ascending), the source gates the
/// window down to candidates with enough matched ions, and only survivors
/// are fully scored. Writes (tops, stats, per_query_candidates) are private
/// to the thread, as in search_index_block.
void search_open_block(
    const SearchEngine& engine, const ProteinDatabase& shard,
    const CandidateIndex& index, const FragmentIndex* fragment,
    const PreparedQueries& queries,
    const std::vector<std::vector<std::uint32_t>>* occupied,
    std::size_t first, std::size_t last, std::span<TopK<Hit>> tops,
    ShardSearchStats& stats,
    std::vector<std::uint64_t>* per_query_candidates) {
  const SearchConfig& config = engine.config();
  const double below = config.window_below();
  const double above = config.window_above();
  const std::vector<IndexedCandidate>& entries = index.entries();
  const std::vector<double>& sorted = queries.sorted_masses;

  // Per-thread source scratch: vote accumulators must not be shared.
  MassWindowCandidateSource window_source(shard, index, config.vote_gate());
  std::optional<FragmentIndexCandidateSource> index_source;
  if (fragment != nullptr) index_source.emplace(*fragment, config.vote_gate());
  CandidateSource& source =
      fragment != nullptr ? static_cast<CandidateSource&>(*index_source)
                          : static_cast<CandidateSource&>(window_source);
  const bool prebuilt = source.ions_prebuilt();

  FragmentIonWorkspace workspace;
  const TheoreticalOptions ion_options;  // same defaults as every kernel
  std::vector<std::uint32_t> survivors;
  const auto entry_below = [](const IndexedCandidate& entry, double mass) {
    return entry.mass < mass;
  };
  const auto entry_above = [](double mass, const IndexedCandidate& entry) {
    return mass < entry.mass;
  };

  for (std::size_t k = first; k < last; ++k) {
    const double mass = sorted[k];
    const std::uint32_t q = queries.order[k];
    const std::size_t lo = static_cast<std::size_t>(
        std::lower_bound(entries.begin(), entries.end(), mass - below,
                         entry_below) -
        entries.begin());
    const std::size_t hi = static_cast<std::size_t>(
        std::upper_bound(entries.begin() + static_cast<std::ptrdiff_t>(lo),
                         entries.end(), mass + above, entry_above) -
        entries.begin());
    // The Fig. 1b measurement stays "candidates in the precursor window" —
    // identical for both sources (it is a property of the window alone).
    if (per_query_candidates) (*per_query_candidates)[q] += hi - lo;
    if (lo == hi) continue;

    source.collect(queries.contexts[q],
                   occupied != nullptr
                       ? std::span<const std::uint32_t>((*occupied)[q])
                       : std::span<const std::uint32_t>(),
                   lo, hi, survivors, stats);

    for (const std::uint32_t c : survivors) {
      const IndexedCandidate& entry = entries[c];
      const Protein& protein = shard.proteins[entry.protein];
      const std::string_view peptide =
          std::string_view(protein.residues).substr(entry.offset,
                                                    entry.length);
      build_ion_ladder(fragment_ions_into(peptide, ion_options, workspace),
                       config.bin_width, workspace.ladder);
      // The exhaustive source already built (and charged) every inspected
      // candidate's ions; the indexed source only ever builds survivors'.
      if (!prebuilt) ++stats.ions_built;
      const double score =
          engine.score_candidate(queries.contexts[q], peptide,
                                 workspace.ladder);
      ++stats.candidates_evaluated;
      if (score < config.score_cutoff) continue;
      ++stats.hits_offered;
      TopK<Hit>& top = tops[q];
      if (top.full() && score < top.cutoff()) continue;
      Hit hit;
      hit.score = score;
      hit.protein_id = protein.id;
      hit.offset = entry.offset;
      hit.length = entry.length;
      hit.end = entry.end;
      hit.mass = entry.mass;
      hit.peptide = std::string(peptide);
      top.offer(hit);
    }
  }
}

/// Run `block(first, last, tops, stats, per_query)` over [first, last),
/// fanned over `threads` contiguous sub-ranges, one thread each, with fully
/// private outputs merged in fixed thread order. The final lists depend only
/// on the multiset of offers (TopK's total order), and every counter is a
/// sum over independently processed items (index entries or hypotheses) —
/// both partition-invariant — so any thread count produces identical
/// results.
template <typename Block>
void fan_out(const SearchEngine& engine, std::size_t threads,
             std::size_t first, std::size_t last, std::span<TopK<Hit>> tops,
             ShardSearchStats& stats, std::vector<std::uint64_t>* per_query,
             const Block& block) {
  if (threads <= 1) {
    block(first, last, tops, stats, per_query);
    return;
  }
  struct ThreadState {
    std::vector<TopK<Hit>> tops;
    ShardSearchStats stats;
    std::vector<std::uint64_t> per_query;
    std::exception_ptr error;
  };
  std::vector<ThreadState> states(threads);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const std::size_t width = last - first;
  for (std::size_t t = 0; t < threads; ++t) {
    ThreadState& state = states[t];
    state.tops = engine.make_tops(tops.size());
    if (per_query) state.per_query.assign(tops.size(), 0);
    const std::size_t block_first = first + width * t / threads;
    const std::size_t block_last = first + width * (t + 1) / threads;
    pool.emplace_back([&, block_first, block_last, t] {
      ThreadState& mine = states[t];
      try {
        block(block_first, block_last, mine.tops, mine.stats,
              per_query ? &mine.per_query : nullptr);
      } catch (...) {
        mine.error = std::current_exception();
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  for (ThreadState& state : states)
    if (state.error) std::rethrow_exception(state.error);

  for (std::size_t t = 0; t < threads; ++t) {
    const ThreadState& state = states[t];
    for (std::size_t q = 0; q < tops.size(); ++q) tops[q].merge(state.tops[q]);
    stats += state.stats;
    if (per_query)
      for (std::size_t q = 0; q < state.per_query.size(); ++q)
        (*per_query)[q] += state.per_query[q];
  }
}

}  // namespace

ShardSearchStats SearchEngine::search_shard(
    const ProteinDatabase& shard, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops, std::vector<std::uint64_t>* per_query_candidates,
    const CandidateIndex* index, const FragmentIndex* fragment) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  ShardSearchStats stats;
  if (queries.size() == 0 || shard.proteins.empty()) return stats;

  CandidateIndex local;
  if (index == nullptr) {
    local = CandidateIndex::build(shard, config_);
    stats.index_entries_built = local.size();
    index = &local;
  } else {
    MSP_CHECK_MSG(index->params() == CandidateIndexParams::from(config_),
                  "candidate index was built under different enumeration "
                  "parameters than this engine's config");
  }

  if (config_.open_search()) {
    stats += search_shard_open(shard, queries, tops, per_query_candidates,
                               *index, fragment);
    return stats;
  }

  const std::vector<IndexedCandidate>& entries = index->entries();
  const double delta = config_.tolerance_da;
  const double query_mass_floor = queries.min_mass() - delta;
  const double query_mass_ceil = queries.max_mass() + delta;
  const auto by_mass = [](const IndexedCandidate& entry, double mass) {
    return entry.mass < mass;
  };
  const std::size_t first = static_cast<std::size_t>(
      std::lower_bound(entries.begin(), entries.end(), query_mass_floor,
                       by_mass) -
      entries.begin());
  std::size_t last = first;
  while (last < entries.size() && entries[last].mass <= query_mass_ceil) ++last;
  if (first >= last) return stats;

  const std::size_t threads =
      std::clamp<std::size_t>(config_.kernel_threads, 1, last - first);
  fan_out(*this, threads, first, last, tops, stats, per_query_candidates,
          [&](auto&&... block) {
            search_index_block(*this, shard, *index, queries, block...);
          });
  return stats;
}

ShardSearchStats SearchEngine::search_shard_open(
    const ProteinDatabase& shard, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops, std::vector<std::uint64_t>* per_query_candidates,
    const CandidateIndex& index, const FragmentIndex* fragment) const {
  ShardSearchStats stats;

  // Source selection: kAuto uses the shipped fragment index when present
  // (legacy images carry none — exhaustive fallback); kFragmentIndex builds
  // one in place when absent; kMassWindow forces exhaustive enumeration.
  FragmentIndex local_fragment;
  if (config_.candidate_source == CandidateSourceKind::kMassWindow) {
    fragment = nullptr;
  } else if (fragment == nullptr &&
             config_.candidate_source == CandidateSourceKind::kFragmentIndex) {
    local_fragment = FragmentIndex::build(shard, index, config_.bin_width);
    fragment = &local_fragment;
  }
  if (fragment != nullptr) {
    MSP_CHECK_MSG(
        fragment->params() ==
            (FragmentIndexParams{index.params(), config_.bin_width}),
        "fragment index was built under different parameters than this "
        "engine's config");
    MSP_CHECK_MSG(fragment->candidate_count() == index.size(),
                  "fragment index does not cover this candidate index");
  }

  const std::size_t hypotheses = queries.sorted_masses.size();
  if (hypotheses == 0 || index.empty()) return stats;

  // The query-side half of the inverted lookup, shared read-only across the
  // fan-out. Skipped entirely on the exhaustive path.
  std::vector<std::vector<std::uint32_t>> occupied;
  if (fragment != nullptr) {
    occupied.reserve(queries.contexts.size());
    for (const QueryContext& context : queries.contexts)
      occupied.push_back(occupied_bins(context.binned()));
  }
  const std::vector<std::vector<std::uint32_t>>* occupied_ptr =
      fragment != nullptr ? &occupied : nullptr;

  const std::size_t threads =
      std::clamp<std::size_t>(config_.kernel_threads, 1, hypotheses);
  fan_out(*this, threads, 0, hypotheses, tops, stats, per_query_candidates,
          [&](auto&&... block) {
            search_open_block(*this, shard, index, fragment, queries,
                              occupied_ptr, block...);
          });
  return stats;
}

ShardSearchStats SearchEngine::search_records(
    std::span<const CandidateRecord> records, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  ShardSearchStats stats;
  if (queries.size() == 0 || records.empty()) return stats;

  // A hypothesis m accepts candidate masses [m − below, m + above], so from
  // the candidate side a record of mass M matches hypotheses in
  // [M − above, M + below] — below/above swap direction. Narrow mode has
  // below == above == tolerance_da, leaving this loop exactly as it was.
  const double below = config_.window_below();
  const double above = config_.window_above();
  const std::vector<double>& sorted = queries.sorted_masses;

  // Trim the record span to the query envelope, then merge-join — the same
  // forward-sliding window and boundary predicates as search_index_block.
  const double query_mass_floor = queries.min_mass() - below;
  const double query_mass_ceil = queries.max_mass() + above;
  std::size_t first = static_cast<std::size_t>(
      std::lower_bound(records.begin(), records.end(), query_mass_floor,
                       [](const CandidateRecord& record, double mass) {
                         return record.mass < mass;
                       }) -
      records.begin());
  std::size_t last = first;
  while (last < records.size() && records[last].mass <= query_mass_ceil)
    ++last;
  if (first >= last) return stats;

  std::size_t lo = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(),
                       records[first].mass - above) -
      sorted.begin());
  std::size_t hi = lo;

  FragmentIonWorkspace workspace;
  const TheoreticalOptions ion_options;  // same defaults as the index path

  for (std::size_t e = first; e < last; ++e) {
    const CandidateRecord& record = records[e];
    const double mass = record.mass;
    while (lo < sorted.size() && sorted[lo] < mass - above) ++lo;
    if (hi < lo) hi = lo;
    while (hi < sorted.size() && sorted[hi] <= mass + below) ++hi;
    if (lo == hi) continue;

    const std::string_view peptide(record.peptide, record.length);
    bool built = false;

    for (std::size_t pos = lo; pos < hi; ++pos) {
      const std::uint32_t q = queries.order[pos];
      if (!built) {
        build_ion_ladder(fragment_ions_into(peptide, ion_options, workspace),
                         config_.bin_width, workspace.ladder);
        built = true;
        ++stats.ions_built;
      }
      double score;
      if (config_.open_search()) {
        // The same gate the CandidateSource paths apply — the record-band
        // form of open search stays hit-identical to search_shard().
        const std::size_t votes =
            shared_peak_count(queries.contexts[q].binned(), workspace.ladder);
        if (votes < config_.vote_gate()) {
          ++stats.candidates_prefiltered;
          continue;
        }
        score = score_candidate(queries.contexts[q], peptide, workspace.ladder);
      } else if (config_.prefilter) {
        const std::size_t shared =
            shared_peak_count(queries.contexts[q].binned(), workspace.ladder);
        if (shared < config_.prefilter_min_shared_peaks) {
          ++stats.candidates_prefiltered;
          continue;  // the aggressive screen: never fully scored
        }
        score = config_.model == ScoreModel::kSharedPeak
                    ? static_cast<double>(shared)
                    : score_candidate(queries.contexts[q], peptide,
                                      workspace.ladder);
      } else {
        score = score_candidate(queries.contexts[q], peptide, workspace.ladder);
      }
      ++stats.candidates_evaluated;
      if (score < config_.score_cutoff) continue;
      ++stats.hits_offered;
      TopK<Hit>& top = tops[q];
      if (top.full() && score < top.cutoff()) continue;
      Hit hit;
      hit.score = score;
      hit.protein_id = record.protein_id;  // NUL-padded → C string
      hit.offset = record.offset;
      hit.length = record.length;
      hit.end = static_cast<FragmentEnd>(record.end);
      hit.mass = mass;
      hit.peptide = std::string(peptide);
      top.offer(hit);
    }
  }
  return stats;
}

ShardSearchStats SearchEngine::search_shard_reference(
    const ProteinDatabase& shard, const PreparedQueries& queries,
    std::span<TopK<Hit>> tops,
    std::vector<std::uint64_t>* per_query_candidates) const {
  MSP_CHECK_MSG(tops.size() == queries.size(),
                "tops arity must match query arity");
  ShardSearchStats stats;
  if (queries.size() == 0 || shard.proteins.empty()) return stats;

  // Candidate-major direction: a candidate of mass M matches hypotheses in
  // [M − window_above, M + window_below] (the below/above swap — see
  // search_records). Narrow mode keeps below == above == tolerance_da.
  const double below = config_.window_below();
  const double above = config_.window_above();
  const double query_mass_floor = queries.min_mass() - below;
  const double query_mass_ceil = queries.max_mass() + above;

  // For one fragment mass, visit all queries whose window contains it.
  auto visit_matches = [&](double mass, std::uint32_t protein_index,
                           std::uint32_t offset, std::uint32_t length,
                           FragmentEnd end) {
    const auto lo = std::lower_bound(queries.sorted_masses.begin(),
                                     queries.sorted_masses.end(), mass - above);
    const auto hi = std::upper_bound(lo, queries.sorted_masses.end(),
                                     mass + below);
    if (lo == hi) return;

    const Protein& protein = shard.proteins[protein_index];
    const std::string_view peptide =
        std::string_view(protein.residues).substr(offset, length);

    for (auto it = lo; it != hi; ++it) {
      const auto sorted_pos =
          static_cast<std::size_t>(it - queries.sorted_masses.begin());
      const std::uint32_t q = queries.order[sorted_pos];
      if (per_query_candidates) ++(*per_query_candidates)[q];
      // Each string-overload scoring call regenerates the candidate's ions
      // from scratch — count those rebuilds so benches can show what the
      // candidate-centric kernel saves.
      if (config_.open_search()) {
        // The identical vote gate both CandidateSource implementations
        // apply — this walk is the oracle for open search too.
        ++stats.ions_built;
        if (shared_peak_count(queries.contexts[q].binned(), peptide) <
            config_.vote_gate()) {
          ++stats.candidates_prefiltered;
          continue;
        }
      } else if (config_.prefilter) {
        ++stats.ions_built;
        if (shared_peak_count(queries.contexts[q].binned(), peptide) <
            config_.prefilter_min_shared_peaks) {
          ++stats.candidates_prefiltered;
          continue;  // the aggressive screen: never fully scored
        }
      }
      ++stats.ions_built;
      const double score = score_candidate(queries.contexts[q], peptide);
      ++stats.candidates_evaluated;
      if (score < config_.score_cutoff) continue;
      Hit hit;
      hit.score = score;
      hit.protein_id = protein.id;
      hit.offset = offset;
      hit.length = length;
      hit.end = end;
      hit.mass = mass;
      hit.peptide = std::string(peptide);
      tops[q].offer(hit);
      ++stats.hits_offered;
    }
  };

  for (std::uint32_t pi = 0; pi < shard.proteins.size(); ++pi) {
    const Protein& protein = shard.proteins[pi];
    const std::size_t len = protein.residues.size();
    if (len < config_.min_candidate_length) continue;
    const FragmentMassIndex index(protein.residues);
    const std::size_t max_k = std::min(len, config_.max_candidate_length);

    if (config_.candidate_mode == CandidateMode::kPrefixSuffix) {
      // Prefix masses grow monotonically in k: stop past the heaviest window.
      for (std::size_t k = config_.min_candidate_length; k <= max_k; ++k) {
        const double mass = index.prefix_mass(k);
        if (mass > query_mass_ceil) break;
        if (mass < query_mass_floor) continue;
        visit_matches(mass, pi, 0, static_cast<std::uint32_t>(k),
                      FragmentEnd::kPrefix);
      }
      for (std::size_t k = config_.min_candidate_length; k <= max_k; ++k) {
        if (k == len) break;  // the full sequence already counted as a prefix
        const double mass = index.suffix_mass(k);
        if (mass > query_mass_ceil) break;
        if (mass < query_mass_floor) continue;
        visit_matches(mass, pi, static_cast<std::uint32_t>(len - k),
                      static_cast<std::uint32_t>(k), FragmentEnd::kSuffix);
      }
    } else {
      // Tryptic extension: enumerate enzymatic peptides; classify termini
      // so prefix/suffix hits stay comparable with the paper mode.
      DigestOptions digest;
      digest.min_length = config_.min_candidate_length;
      digest.max_length = max_k;
      digest.missed_cleavages = config_.candidate_missed_cleavages;
      for (const DigestedPeptide& peptide :
           digest_tryptic(protein.residues, digest)) {
        const double mass = index.prefix_mass(peptide.offset + peptide.length) -
                            index.prefix_mass(peptide.offset) + kWaterMass;
        if (mass < query_mass_floor || mass > query_mass_ceil) continue;
        FragmentEnd end = FragmentEnd::kInternal;
        if (peptide.offset == 0)
          end = FragmentEnd::kPrefix;
        else if (peptide.offset + peptide.length == len)
          end = FragmentEnd::kSuffix;
        visit_matches(mass, pi, static_cast<std::uint32_t>(peptide.offset),
                      static_cast<std::uint32_t>(peptide.length), end);
      }
    }
  }
  return stats;
}

std::vector<TopK<Hit>> SearchEngine::make_tops(std::size_t query_count) const {
  return std::vector<TopK<Hit>>(query_count, TopK<Hit>(config_.tau));
}

QueryHits SearchEngine::finalize(std::vector<TopK<Hit>>& tops) const {
  QueryHits hits;
  hits.reserve(tops.size());
  for (TopK<Hit>& top : tops) hits.push_back(top.sorted());
  return hits;
}

QueryHits SearchEngine::search(const ProteinDatabase& db,
                               std::span<const Spectrum> queries) const {
  const PreparedQueries prepared = prepare(queries);
  std::vector<TopK<Hit>> tops = make_tops(queries.size());
  search_shard(db, prepared, tops);
  return finalize(tops);
}

}  // namespace msp
