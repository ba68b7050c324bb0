#include "core/query_transport.hpp"

#include <algorithm>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "core/shard_ring.hpp"
#include "core/wire.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

std::vector<char> pack_hits(const std::vector<std::vector<Hit>>& per_query) {
  wire::Writer writer;
  writer.put_u64(per_query.size());
  for (const auto& hits : per_query) {
    writer.put_u32(static_cast<std::uint32_t>(hits.size()));
    for (const Hit& hit : hits) {
      writer.put_double(hit.score);
      writer.put_string(hit.protein_id);
      writer.put_u32(hit.offset);
      writer.put_u32(hit.length);
      writer.put_u32(static_cast<std::uint32_t>(hit.end));
      writer.put_double(hit.mass);
      writer.put_string(hit.peptide);
    }
  }
  return writer.take();
}

std::vector<std::vector<Hit>> unpack_hits(const std::vector<char>& bytes) {
  wire::Reader reader(bytes);
  std::vector<std::vector<Hit>> per_query(reader.get_u64());
  for (auto& hits : per_query) {
    hits.resize(reader.get_u32());
    for (Hit& hit : hits) {
      hit.score = reader.get_double();
      hit.protein_id = reader.get_string();
      hit.offset = reader.get_u32();
      hit.length = reader.get_u32();
      const std::uint32_t end = reader.get_u32();
      if (end > static_cast<std::uint32_t>(FragmentEnd::kInternal))
        throw IoError("packed hit has invalid fragment-end marker");
      hit.end = static_cast<FragmentEnd>(end);
      hit.mass = reader.get_double();
      hit.peptide = reader.get_string();
    }
  }
  return per_query;
}

}  // namespace

ParallelRunResult run_query_transport(const sim::Runtime& runtime,
                                      const std::string& fasta_image,
                                      const std::vector<Spectrum>& queries,
                                      const SearchConfig& config,
                                      const QueryTransportOptions& options) {
  const int p = runtime.size();
  const SearchEngine engine(config);
  // No recovery path: a dead rank's query block would lose its partial
  // lists with it, so a crash schedule is rejected up front (deterministic
  // and typed, like master-worker's unabsorbable schedules).
  if (runtime.faults().has_crashes())
    throw FaultUnrecoverable("query transport has no crash recovery");

  auto body = [&](sim::Comm& comm, QueryHits& all_hits) {
    const int rank = comm.rank();
    const auto& cost = comm.compute_model();

    // Static local database shard (never moves — that is the point).
    comm.trace_mark("QT load+index");
    const ProteinDatabase local_db = detail::load_ring_shard(comm, fasta_image);
    std::size_t db_bytes = 0;
    for (const Protein& protein : local_db.proteins)
      db_bytes += protein.residues.size() + protein.id.size();
    comm.charge_alloc(db_bytes);
    // The static shard is indexed once (with its fragment index in indexed
    // open search) and reused for all p query batches — query transport
    // benefits most, since its shard never moves.
    const detail::ShardIndexes local =
        detail::build_shard_indexes(comm, local_db, config);

    // Local query block, exposed for ring transport as packed bytes.
    const QueryRange block = query_block(queries.size(), rank, p);
    const std::span<const Spectrum> local_queries(queries.data() + block.begin,
                                                  block.count());
    std::vector<char> local_query_pack = pack_spectra(local_queries);
    comm.charge_alloc(local_query_pack.size());
    sim::Window window(comm, local_query_pack);

    // Partial results for EVERY query block this rank scored — the O(m·τ)
    // state the database-transport design avoids.
    std::vector<std::vector<std::vector<Hit>>> partial(
        static_cast<std::size_t>(p));
    const int pulls = comm.network().concurrent_pulls(p);

    std::vector<char> incoming;
    for (int s = 0; s < p; ++s) {
      comm.trace_mark("QT ring step " + std::to_string(s));
      const int j = (rank + s) % p;
      std::vector<Spectrum> batch;
      if (j == rank) {
        batch.assign(local_queries.begin(), local_queries.end());
      } else {
        sim::RmaRequest fetch = window.rget(j, incoming, pulls);
        window.wait(fetch);
        batch = unpack_spectra(incoming);
      }
      const PreparedQueries prepared = engine.prepare(batch);
      comm.clock().charge_compute(static_cast<double>(batch.size()) *
                                  cost.seconds_per_query_prep);
      std::vector<TopK<Hit>> tops = engine.make_tops(batch.size());
      const ShardSearchStats stats = engine.search_shard(
          local_db, prepared, tops, nullptr, &local.index, &local.fragment);
      detail::charge_shard_search(comm, stats, config);
      partial[static_cast<std::size_t>(j)] = engine.finalize(tops);
      window.fence();
    }
    // Window close is collective (MPI_Win_free semantics).
    window.fence();

    // Merge phase: ship partial lists to each block's owner (the
    // serialization step the paper's database transport avoids).
    comm.trace_mark("QT merge");
    std::vector<std::vector<char>> send(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r)
      send[static_cast<std::size_t>(r)] =
          pack_hits(partial[static_cast<std::size_t>(r)]);
    const std::vector<std::vector<char>> received = comm.alltoallv(send);

    std::vector<TopK<Hit>> merged = engine.make_tops(block.count());
    for (const auto& payload : received) {
      const auto partial_hits = unpack_hits(payload);
      MSP_CHECK(partial_hits.size() == block.count());
      for (std::size_t q = 0; q < partial_hits.size(); ++q)
        for (const Hit& hit : partial_hits[q]) merged[q].offer(hit);
    }
    comm.clock().charge_compute(static_cast<double>(block.count() * p) *
                                cost.seconds_per_hit_update *
                                static_cast<double>(config.tau));

    detail::report_block_hits(comm, config, engine.finalize(merged), all_hits,
                              [&](std::size_t q) { return block.begin + q; });
  };
  return detail::run_batch(runtime, queries.size(),
                           options.memory_budget_bytes, body);
}

}  // namespace msp
