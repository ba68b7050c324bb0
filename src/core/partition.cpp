#include "core/partition.hpp"

#include "io/fasta.hpp"
#include "util/error.hpp"

namespace msp {

ProteinDatabase load_database_shard(std::string_view fasta_bytes, int rank,
                                    int p) {
  MSP_CHECK_MSG(p >= 1 && rank >= 0 && rank < p, "bad rank/p");
  const ByteRange range = chunk_range(fasta_bytes.size(),
                                      static_cast<std::size_t>(rank),
                                      static_cast<std::size_t>(p));
  return read_fasta_chunk(fasta_bytes, range.begin, range.end);
}

QueryRange query_block(std::size_t total_queries, int rank, int p) {
  MSP_CHECK_MSG(p >= 1 && rank >= 0 && rank < p, "bad rank/p");
  const std::size_t base = total_queries / static_cast<std::size_t>(p);
  const std::size_t extra = total_queries % static_cast<std::size_t>(p);
  const auto r = static_cast<std::size_t>(rank);
  const std::size_t begin = r * base + std::min(r, extra);
  return QueryRange{begin, begin + base + (r < extra ? 1 : 0)};
}

std::size_t query_footprint_bytes(std::span<const Spectrum> queries) {
  std::size_t bytes = 0;
  for (const Spectrum& query : queries)
    bytes += query.peaks().size() * sizeof(Peak) + 4096;
  return bytes;
}

std::vector<ProteinDatabase> partition_by_residues(const ProteinDatabase& db,
                                                   int p) {
  MSP_CHECK_MSG(p >= 1, "need p >= 1");
  const std::size_t total = db.total_residues();
  std::vector<ProteinDatabase> shards(static_cast<std::size_t>(p));
  // Greedy contiguous fill: shard r closes once it reaches its residue
  // target; targets are cumulative so rounding never starves the last shard.
  std::size_t shard = 0;
  std::size_t running = 0;
  for (const Protein& protein : db.proteins) {
    // Cumulative target for shards 0..shard: (shard+1)/p of all residues.
    while (shard + 1 < static_cast<std::size_t>(p) &&
           running >= (shard + 1) * total / static_cast<std::size_t>(p)) {
      ++shard;
    }
    shards[shard].proteins.push_back(protein);
    running += protein.length();
  }
  return shards;
}

}  // namespace msp
