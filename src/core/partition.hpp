// Input partitioning (the paper's loading step A1/B1).
//
// The database is split by file byte ranges with boundary repair — exactly
// the rule read_fasta_chunk implements — and queries are split in equal
// blocks. Both are pure functions of (input, rank, p), so every rank can
// compute its own partition with no communication, as in the paper.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

#include "mass/peptide.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

/// The shard of `fasta_bytes` owned by `rank` out of `p` (step A1).
ProteinDatabase load_database_shard(std::string_view fasta_bytes, int rank,
                                    int p);

/// Block partition of m queries: rank gets [begin, end).
struct QueryRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t count() const { return end - begin; }
};
QueryRange query_block(std::size_t total_queries, int rank, int p);

/// Memory a rank charges for holding `queries`: a rough per-query footprint
/// (peak list plus binned vector), the one rule every algorithm accounts with.
std::size_t query_footprint_bytes(std::span<const Spectrum> queries);

/// Direct (in-memory) database partition used when no FASTA image exists:
/// contiguous sequence ranges balanced by residue count — same invariant as
/// the byte-chunk rule (each shard ≈ N/p residues), minus the parsing.
std::vector<ProteinDatabase> partition_by_residues(const ProteinDatabase& db,
                                                   int p);

}  // namespace msp
