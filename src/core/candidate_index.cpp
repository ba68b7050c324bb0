#include "core/candidate_index.hpp"

#include <algorithm>

#include "mass/amino_acid.hpp"
#include "mass/digest.hpp"
#include "util/error.hpp"

namespace msp {

CandidateIndexParams CandidateIndexParams::from(const SearchConfig& config) {
  CandidateIndexParams params;
  params.mode = config.candidate_mode;
  params.min_length = static_cast<std::uint32_t>(config.min_candidate_length);
  params.max_length = static_cast<std::uint32_t>(config.max_candidate_length);
  params.missed_cleavages =
      config.candidate_mode == CandidateMode::kTryptic
          ? static_cast<std::uint32_t>(config.candidate_missed_cleavages)
          : 0;
  return params;
}

CandidateIndex::CandidateIndex(CandidateIndexParams params,
                               std::vector<IndexedCandidate> entries)
    : params_(params), entries_(std::move(entries)) {}

namespace {

/// Call `emit(entry)` for every candidate of shard proteins [first, last)
/// under `params`, in enumeration (not mass) order.
template <typename Emit>
void for_each_candidate(const ProteinDatabase& shard,
                          const CandidateIndexParams& params,
                          std::uint32_t first, std::uint32_t last,
                          Emit&& emit) {
  MSP_CHECK_MSG(params.min_length >= 2,
                "candidates must have >= 2 residues (fragmentable)");
  for (std::uint32_t pi = first; pi < last; ++pi) {
    const Protein& protein = shard.proteins[pi];
    const std::size_t len = protein.residues.size();
    if (len < params.min_length) continue;
    // Same arithmetic as the reference kernel: masses must be bit-identical
    // so indexed and reference searches score the same doubles.
    const FragmentMassIndex index(protein.residues);
    const std::size_t max_k = std::min<std::size_t>(len, params.max_length);

    if (params.mode == CandidateMode::kPrefixSuffix) {
      for (std::size_t k = params.min_length; k <= max_k; ++k) {
        emit(IndexedCandidate{index.prefix_mass(k), pi, 0,
                              static_cast<std::uint32_t>(k),
                              FragmentEnd::kPrefix});
      }
      for (std::size_t k = params.min_length; k <= max_k; ++k) {
        if (k == len) break;  // the full sequence already counted as a prefix
        emit(IndexedCandidate{index.suffix_mass(k), pi,
                              static_cast<std::uint32_t>(len - k),
                              static_cast<std::uint32_t>(k),
                              FragmentEnd::kSuffix});
      }
    } else {
      DigestOptions digest;
      digest.min_length = params.min_length;
      digest.max_length = max_k;
      digest.missed_cleavages = params.missed_cleavages;
      for (const DigestedPeptide& peptide :
           digest_tryptic(protein.residues, digest)) {
        const double mass = index.prefix_mass(peptide.offset + peptide.length) -
                            index.prefix_mass(peptide.offset) + kWaterMass;
        FragmentEnd end = FragmentEnd::kInternal;
        if (peptide.offset == 0)
          end = FragmentEnd::kPrefix;
        else if (peptide.offset + peptide.length == len)
          end = FragmentEnd::kSuffix;
        emit(IndexedCandidate{mass, pi,
                              static_cast<std::uint32_t>(peptide.offset),
                              static_cast<std::uint32_t>(peptide.length), end});
      }
    }
  }
}

/// (mass, protein, offset, length) ascending — a total order over a shard's
/// candidates, so every build of the same entries sorts identically.
void sort_entries(std::vector<IndexedCandidate>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const IndexedCandidate& a, const IndexedCandidate& b) {
              if (a.mass != b.mass) return a.mass < b.mass;
              if (a.protein != b.protein) return a.protein < b.protein;
              if (a.offset != b.offset) return a.offset < b.offset;
              return a.length < b.length;
            });
}

}  // namespace

CandidateIndex CandidateIndex::build(const ProteinDatabase& shard,
                                     const CandidateIndexParams& params) {
  std::vector<IndexedCandidate> entries;
  const auto append = [&](const IndexedCandidate& entry) {
    entries.push_back(entry);
  };
  for_each_candidate(shard, params, 0,
                     static_cast<std::uint32_t>(shard.proteins.size()), append);
  sort_entries(entries);
  return CandidateIndex(params, std::move(entries));
}

CandidateIndex::WindowedSlice CandidateIndex::rebuild_windowed(
    const ProteinDatabase& shard, const SearchConfig& config,
    std::span<const double> sorted_masses, std::uint32_t first_protein,
    std::size_t max_entries) {
  const CandidateIndexParams params = CandidateIndexParams::from(config);
  params_ = params;
  entries_.clear();
  const auto proteins = static_cast<std::uint32_t>(shard.proteins.size());
  // Nothing to keep, so nothing to walk.
  if (sorted_masses.empty()) return {0, proteins};
  const auto first = sorted_masses.begin();
  const auto last = sorted_masses.end();
  const bool open = config.open_search();
  const double below = config.window_below();
  const double above = config.window_above();
  // The exact predicate of the kernel that will search this index, so that
  // rounding keeps an entry here iff the kernel would visit it.
  const auto reachable = [&](double mass) {
    if (open) {
      // collect_survivors: entries [m - below, m + above] per hypothesis m.
      const auto it = std::partition_point(
          first, last, [&](double m) { return m + above < mass; });
      return it != last && *it - below <= mass;
    }
    // search_sorted_block: hypotheses [M - above, M + below] per entry M.
    const auto it = std::lower_bound(first, last, mass - above);
    return it != last && *it <= mass + below;
  };

  WindowedSlice slice{0, first_protein};
  bool overflow = false;
  const auto keep = [&](const IndexedCandidate& entry) {
    ++slice.enumerated;
    if (overflow || !reachable(entry.mass)) return;
    // The first protein of a slice always stays, so every slice makes
    // progress; any later protein that would pass the cap ends the slice.
    if (entries_.size() >= max_entries && slice.next_protein > first_protein) {
      overflow = true;
      return;
    }
    // Grow geometrically but never past the cap, so the storage a caller
    // charges (capacity) stays within what it allowed.
    if (entries_.size() == entries_.capacity()) {
      const std::size_t grown = std::max<std::size_t>(
          entries_.size() + 1, 2 * entries_.capacity());
      entries_.reserve(std::min(
          grown, std::max(max_entries, entries_.size() + 1)));
    }
    entries_.push_back(entry);
  };
  for (; slice.next_protein < proteins; ++slice.next_protein) {
    const std::size_t kept = entries_.size();
    const std::uint32_t pi = slice.next_protein;
    for_each_candidate(shard, params, pi, pi + 1, keep);
    // The protein that overflows the slice opens the next one.
    if (overflow) {
      entries_.resize(kept);
      break;
    }
  }
  sort_entries(entries_);
  return slice;
}

CandidateIndex CandidateIndex::build(const ProteinDatabase& shard,
                                     const SearchConfig& config) {
  return build(shard, CandidateIndexParams::from(config));
}

std::vector<IndexedCandidate> enumerate_candidates(const ProteinDatabase& shard,
                                                   const SearchConfig& config,
                                                   double mass_floor,
                                                   double mass_ceil) {
  std::vector<IndexedCandidate> candidates;
  for_each_candidate(shard, CandidateIndexParams::from(config), 0,
                     static_cast<std::uint32_t>(shard.proteins.size()),
                     [&](const IndexedCandidate& entry) {
                       if (entry.mass >= mass_floor && entry.mass <= mass_ceil)
                         candidates.push_back(entry);
                     });
  return candidates;
}

}  // namespace msp
