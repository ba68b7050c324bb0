#include "core/algorithm_b.hpp"

#include <algorithm>

#include "core/ring_search.hpp"
#include "core/search_engine.hpp"
#include "core/sortmz.hpp"
#include "simmpi/comm.hpp"

namespace msp {

AlgorithmBResult run_algorithm_b(const sim::Runtime& runtime,
                                 const std::string& fasta_image,
                                 const std::vector<Spectrum>& queries,
                                 const SearchConfig& config,
                                 const AlgorithmBOptions& options) {
  const SearchEngine engine(config);

  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    if (options.memory_budget_bytes != 0)
      comm.set_memory_budget(options.memory_budget_bytes);

    // ---- B1: load (identical to A1) ----
    comm.trace_mark("B1 load");
    ProteinDatabase local_db = detail::load_ring_shard(comm, fasta_image);

    // ---- B2: parallel counting sort by parent m/z ----
    comm.trace_mark("B2 mz sort");
    SortedShard sorted = parallel_sort_by_mz(comm, local_db);
    local_db = ProteinDatabase{};  // sorted copy replaces the unsorted shard
    comm.bump("sort_us",
              static_cast<std::uint64_t>(sorted.sort_seconds * 1e6));
    comm.charge_alloc(sorted.boundaries.size() * sizeof(MzBoundary));

    // ---- B3: A's ring restricted to the sender group {i′, ..., p−1} ----
    detail::ring_search_body(
        comm, std::move(sorted.shard),
        detail::RingQuerySet{
            std::span<const Spectrum>(queries.data(), queries.size()), 0},
        engine, options, all_hits, sorted.boundaries);
  });

  AlgorithmBResult result;
  result.candidates = report.sum_counter("candidates");
  for (const auto& r : report.ranks) {
    auto it = r.counters.find("sort_us");
    if (it != r.counters.end())
      result.max_sort_seconds = std::max(
          result.max_sort_seconds, static_cast<double>(it->second) * 1e-6);
  }
  result.mean_shards_visited =
      static_cast<double>(report.sum_counter("shards_visited")) /
      static_cast<double>(runtime.size());
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
