// Shard-resident candidate mass index.
//
// The paper's run-time is dominated by the O(r·k) scoring term (Section
// II-C), and its Discussion notes that "a dominant fraction of the query
// processing time is spent on generating candidates on-the-fly". The
// CandidateIndex moves candidate *enumeration* out of the kernel entirely:
// at pack time (once per shard) every prefix/suffix — or every digested
// peptide in tryptic mode — is materialized as a (mass, protein, offset,
// length, end) entry and the entries are sorted by mass. The kernel then
// merge-joins this array against the mass-sorted query hypotheses instead
// of re-walking every protein on every ring iteration, and Algorithm A's
// rotation ships the index alongside the shard bytes so all p ranks that
// search a shard reuse one enumeration (HiCOPS-style precomputed indexing).
//
// Masses are computed through the same FragmentMassIndex arithmetic the
// reference kernel uses, so indexed and reference searches are bit-identical.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "mass/peptide.hpp"

namespace msp {

/// One enumerated candidate of a shard: a prefix/suffix (or digested
/// peptide) of shard protein `protein`, located so the residue view can be
/// taken without copying.
struct IndexedCandidate {
  double mass = 0.0;          ///< neutral monoisotopic mass (residues + water)
  std::uint32_t protein = 0;  ///< index into the shard's proteins
  std::uint32_t offset = 0;   ///< start position within the parent sequence
  std::uint32_t length = 0;   ///< number of residues
  FragmentEnd end = FragmentEnd::kPrefix;
};

/// The candidate-enumeration parameters an index was built under. An index
/// is only valid for engines whose SearchConfig agrees on all four — the
/// engine checks before searching.
struct CandidateIndexParams {
  CandidateMode mode = CandidateMode::kPrefixSuffix;
  std::uint32_t min_length = 0;
  std::uint32_t max_length = 0;
  std::uint32_t missed_cleavages = 0;  ///< only meaningful in kTryptic mode

  static CandidateIndexParams from(const SearchConfig& config);

  friend bool operator==(const CandidateIndexParams& a,
                         const CandidateIndexParams& b) = default;
};

/// Mass-sorted candidate entries of one shard.
class CandidateIndex {
 public:
  CandidateIndex() = default;
  CandidateIndex(CandidateIndexParams params,
                 std::vector<IndexedCandidate> entries);

  /// Enumerate and sort every candidate of `shard` under `params`. Entry
  /// order is (mass, protein, offset, length) ascending — a total order, so
  /// the build is deterministic for a given shard.
  static CandidateIndex build(const ProteinDatabase& shard,
                              const CandidateIndexParams& params);
  static CandidateIndex build(const ProteinDatabase& shard,
                              const SearchConfig& config);

  /// What rebuild_windowed() walked: the candidates it enumerated (the
  /// unit the virtual clock charges) and where the next slice starts.
  struct WindowedSlice {
    std::size_t enumerated = 0;
    std::uint32_t next_protein = 0;  ///< == shard size once the shard is done
  };

  /// Replace this index's contents with the candidates of `shard` (under
  /// `config`'s enumeration parameters) that the mass-sorted hypotheses
  /// `sorted_masses` can reach, reusing the entry storage. An entry is kept
  /// iff the kernel `config` selects would visit it for some hypothesis m,
  /// tested with that kernel's own predicate: M in [m - window_below,
  /// m + window_above] for open search (collect_survivors, the window
  /// search_shard's open-mode phase 1 gates), m in
  /// [M - window_above, M + window_below] for narrow search
  /// (search_sorted_block; ±tolerance there). Kept entries are sorted like
  /// build()'s. An entry no hypothesis reaches has no effect on the kernel,
  /// so searching the windowed index gives the hits and ShardSearchStats of
  /// the full one.
  ///
  /// Proteins are walked from `first_protein` on. The walk stops before the
  /// protein that would take the kept entries past `max_entries` (a slice
  /// always keeps its first protein), so a rank can score a shard in slices
  /// whose indexes fit its memory; candidates of different proteins are
  /// independent, so the slices' hits and counters add up to the whole
  /// shard's. Storage never grows past `max_entries` entries unless the
  /// first protein alone needs more. With no hypotheses nothing is walked.
  WindowedSlice rebuild_windowed(
      const ProteinDatabase& shard, const SearchConfig& config,
      std::span<const double> sorted_masses, std::uint32_t first_protein = 0,
      std::size_t max_entries = std::numeric_limits<std::size_t>::max());

  const CandidateIndexParams& params() const { return params_; }
  const std::vector<IndexedCandidate>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  std::size_t size() const { return entries_.size(); }

  /// Bytes this index occupies in memory (for simulated memory accounting).
  std::size_t byte_size() const {
    return entries_.size() * sizeof(IndexedCandidate);
  }
  /// Bytes of entry storage held, kept or not (what rebuild_windowed reuses).
  std::size_t reserved_bytes() const {
    return entries_.capacity() * sizeof(IndexedCandidate);
  }

 private:
  CandidateIndexParams params_;
  std::vector<IndexedCandidate> entries_;  ///< mass ascending
};

/// The candidates of `shard` under `config`'s enumeration parameters whose
/// mass lies in [mass_floor, mass_ceil], in enumeration order (protein by
/// protein) — the walk CandidateIndex::build sorts, with the same mass
/// arithmetic, so every consumer sees bit-identical candidate masses.
std::vector<IndexedCandidate> enumerate_candidates(const ProteinDatabase& shard,
                                                   const SearchConfig& config,
                                                   double mass_floor,
                                                   double mass_ceil);

}  // namespace msp
