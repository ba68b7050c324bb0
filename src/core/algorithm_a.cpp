#include "core/algorithm_a.hpp"

#include <algorithm>
#include <limits>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/ring_search.hpp"
#include "core/search_engine.hpp"
#include "mass/amino_acid.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"

namespace msp {
namespace detail {
namespace {

/// First rank whose sorted m/z range can still contain a sequence of
/// neutral mass >= needed_mass (the paper's i′); bounds.size() when none
/// can. Conservative by a small slack: skipping is an optimization, never a
/// correctness decision.
int lowest_useful_rank(std::span<const MzBoundary> bounds,
                       double needed_mass) {
  const double needed_mz = needed_mass + kProtonMass - 2.0;  // slack
  for (std::size_t r = 0; r < bounds.size(); ++r)
    if (bounds[r].end_mz >= needed_mz) return static_cast<int>(r);
  return static_cast<int>(bounds.size());  // empty sender group
}

}  // namespace

void ring_search_body(sim::Comm& comm, ProteinDatabase local_db,
                      const RingQuerySet& query_set, const SearchEngine& engine,
                      const AlgorithmAOptions& options, QueryHits& all_hits,
                      std::span<const MzBoundary> sorted_bounds) {
  const int p = comm.size();
  const int rank = comm.rank();
  const auto& cost = comm.compute_model();
  const SearchConfig& config = engine.config();

  // ---- A1 (the load is the caller's): prepare the rank's query block ----
  const QueryRange block = query_block(query_set.queries.size(), rank, p);
  const std::span<const Spectrum> local_queries(
      query_set.queries.data() + block.begin, block.count());

  comm.charge_alloc(query_footprint_bytes(local_queries));
  const PreparedQueries prepared = engine.prepare(local_queries);
  comm.clock().charge_compute(static_cast<double>(local_queries.size()) *
                              cost.seconds_per_query_prep);

  std::vector<TopK<Hit>> tops = engine.make_tops(local_queries.size());

  // The shards a query block needs: all p in Algorithm A; in Algorithm B,
  // whose shards are sorted by parent m/z, the sender group {i′, …, p−1}
  // of those heavy enough to offer a candidate to the block's lightest
  // query. window_below() degenerates to tolerance_da in narrow mode; in
  // open mode it widens the group so heavy modified matches stay in it.
  auto first_useful_shard = [&](const PreparedQueries& queries) {
    if (sorted_bounds.empty()) return 0;
    if (queries.size() == 0) return p;
    return lowest_useful_rank(sorted_bounds,
                              queries.min_mass() - config.window_below());
  };
  const int first = first_useful_shard(prepared);
  const int group = p - first;
  int steps = p;
  if (!sorted_bounds.empty()) {
    comm.bump("shards_visited", static_cast<std::uint64_t>(group));
    // Sender groups differ between ranks; the ring runs the longest so the
    // per-step fences stay collective.
    steps = static_cast<int>(comm.allreduce_max(static_cast<double>(group)));
  }
  // Shard scored at ring step s, or -1 past the rank's group: its own shard
  // first when it is in the group, then the rest of the group in rotation so
  // concurrent ranks spread their pulls.
  const int offset = rank >= first ? rank - first : 0;
  auto shard_at = [&](int s) {
    return s < group ? first + (offset + s) % group : -1;
  };

  // ---- A2: ring rotation with masked one-sided transport ----
  // The ring carries the paper's plain shard image — residues only, O(N/p)
  // bytes. Each rank turns every shard it scores back into a CandidateIndex
  // holding only the candidates its own hypotheses can reach, at one
  // fragment-mass computation per enumerated candidate (the unit of every
  // index build). Shipping the full index instead would cost ~21 B of
  // transport per entry, far more than the rebuild on the paper's network
  // (DESIGN.md §5m).
  //
  // Indexed open search is the exception: its fragment-ion postings cost one
  // mass computation per theoretical ion, so the owner builds the candidate
  // and fragment indexes once and both ride in the image.
  const bool ship_index = indexed_open_search(config);
  ShardIndexes local_indexes;  // shipped with the image in indexed open search
  if (ship_index) local_indexes = build_shard_indexes(comm, local_db, config);
  const std::vector<char> local_pack =
      ship_index ? pack_database(local_db, local_indexes.index,
                                 local_indexes.fragment)
                 : pack_database(local_db);
  // Crash steps index this ring's steps: a step outside [0, steps) names a
  // step of a longer ring and never fires here.
  ShardRing ring(comm, steps);
  ring.expose(local_pack);

  // Score one shard (`fetched`, or this rank's own when null) for `queries`
  // and charge and count the search: the one shard step of the rotation and
  // of recovery alike. A plain image is re-enumerated through the windowed
  // rebuild into storage every step reuses. That storage is a fourth buffer
  // next to D_local, D_recv and D_comp: the rank's memory account carries
  // its capacity, from the step it grows to the end of the run, like the
  // ring buffers. Under a memory budget the shard is rebuilt and scored in
  // protein slices whose entries fit the rank's headroom plus the storage
  // already held; a protein that overflows a slice is walked again (and
  // charged again) at the start of the next.
  CandidateIndex window_index;
  std::size_t window_index_bytes = 0;  // capacity charged so far
  auto score_shard = [&](const PackedShard* fetched,
                         const PreparedQueries& queries,
                         std::span<TopK<Hit>> block_tops) {
    const ProteinDatabase& shard_db = fetched ? fetched->db : local_db;
    ShardSearchStats stats;
    if (ship_index) {
      // Every image in this mode is packed above, with both trailers.
      stats = engine.search_shard(
          shard_db, queries, block_tops, nullptr,
          fetched ? &fetched->index : &local_indexes.index,
          fetched ? &fetched->fragment : &local_indexes.fragment);
    } else {
      const std::size_t budget = options.memory_budget_bytes;
      std::size_t max_entries = std::numeric_limits<std::size_t>::max();
      if (budget != 0) {
        const std::size_t used = std::min(comm.current_memory(), budget);
        max_entries =
            (budget - used + window_index_bytes) / sizeof(IndexedCandidate);
      }
      std::size_t enumerated = 0;
      CandidateIndex::WindowedSlice slice;
      while (slice.next_protein < shard_db.proteins.size()) {
        slice = window_index.rebuild_windowed(shard_db, config,
                                              queries.sorted_masses,
                                              slice.next_protein, max_entries);
        enumerated += slice.enumerated;
        if (window_index.reserved_bytes() > window_index_bytes) {
          comm.charge_alloc(window_index.reserved_bytes() - window_index_bytes);
          window_index_bytes = window_index.reserved_bytes();
        }
        stats += engine.search_shard(shard_db, queries, block_tops, nullptr,
                                     &window_index);
      }
      comm.clock().charge_compute(static_cast<double>(enumerated) *
                                  cost.seconds_per_mz);
    }
    charge_shard_search(comm, stats, config);
  };

  // Report the top-τ lists of the queries whose block starts at `first`:
  // the one report step of A3 and of every adopted orphan block.
  auto report_hits = [&](std::vector<TopK<Hit>>& block_tops,
                         std::size_t first) {
    const std::size_t offset = query_set.output_offset + first;
    report_block_hits(comm, config, engine.finalize(block_tops), all_hits,
                      [&](std::size_t q) { return offset + q; });
  };

  for (int s = 0; s < steps; ++s) {
    comm.trace_mark("A2 ring step " + std::to_string(s));
    if (ring.zombie_at(s, "ring step")) {
      // Fail-stop zombie: the simulated host is gone, but the thread keeps
      // matching the survivors' collectives so fence epochs and window
      // lifetimes stay aligned while they recover.
      if (options.fence_per_iteration) ring.fence();
      continue;
    }

    const int current = shard_at(s);
    const int next = shard_at(s + 1);

    // Non-blocking request for the next iteration's shard (A2's masking):
    // issued before this iteration's computation. When no previous step's
    // mask delivered the current shard (the unmasked variant, or a group
    // that starts past the own shard), resident() fetches it blocking,
    // fully exposing the transfer.
    if (options.mask && next >= 0) ring.prefetch(next, s);
    if (current >= 0) {
      PackedShard fetched;
      if (current != rank) fetched = unpack_shard(ring.resident(current, s));
      score_shard(current == rank ? nullptr : &fetched, prepared, tops);
    }
    ring.complete_prefetch();
    if (options.fence_per_iteration) ring.fence();
  }
  // Window close is collective (MPI_Win_free): no rank may free its
  // exposed shard while another can still read it.
  ring.fence();

  // ---- A2': survivors adopt the dead ranks' query blocks ----
  const bool survivor = ring.crash_step(rank) < 0;
  if (ring.fault_tolerant()) {
    std::vector<int> alive;
    std::vector<int> dead;
    for (int r = 0; r < p; ++r)
      (ring.crash_step(r) < 0 ? alive : dead).push_back(r);

    if (!dead.empty() && survivor) {
      comm.trace_mark("A2' recovery re-search");
      // Omniscient deterministic failure detection: the schedule is known
      // to every rank, so survivors charge the detection timeout once
      // instead of simulating a heartbeat protocol.
      comm.charge_recovery(comm.faults().crash_detection_timeout_s,
                           "declared " + std::to_string(dead.size()) +
                               " rank(s) dead");
      const double research_start = comm.clock().now();
      const int my_index = static_cast<int>(
          std::find(alive.begin(), alive.end(), rank) - alive.begin());
      std::uint64_t adopted_total = 0;
      std::vector<char> pulled;

      for (const int d : dead) {
        const QueryRange dead_block =
            query_block(query_set.queries.size(), d, p);
        // Re-partition the orphaned block among the survivors; each
        // survivor re-searches its slice against the slice's useful shards.
        const QueryRange adopted = query_block(
            dead_block.count(), my_index, static_cast<int>(alive.size()));
        if (adopted.count() == 0) continue;
        const std::span<const Spectrum> orphans(
            query_set.queries.data() + dead_block.begin + adopted.begin,
            adopted.count());

        const std::size_t orphan_bytes = query_footprint_bytes(orphans);
        comm.charge_alloc(orphan_bytes);
        const PreparedQueries orphan_prepared = engine.prepare(orphans);
        comm.clock().charge_compute(static_cast<double>(orphans.size()) *
                                    cost.seconds_per_query_prep);
        std::vector<TopK<Hit>> orphan_tops = engine.make_tops(orphans.size());

        for (int shard = first_useful_shard(orphan_prepared); shard < p;
             ++shard) {
          PackedShard fetched;
          if (shard != rank) {
            ring.pull(shard, steps, pulled);
            fetched = unpack_shard(pulled);
          }
          score_shard(shard == rank ? nullptr : &fetched, orphan_prepared,
                      orphan_tops);
        }
        report_hits(orphan_tops, dead_block.begin + adopted.begin);
        comm.release_alloc(orphan_bytes);
        adopted_total += adopted.count();
      }
      comm.bump("recovered_queries", adopted_total);
      comm.note_recovery_span(
          comm.clock().now() - research_start,
          "re-searched " + std::to_string(adopted_total) +
              " orphaned query(ies) against all shards");
    }
  }
  // The replica window closes once every survivor is done re-pulling.
  ring.close();

  // ---- A3: report the top-τ lists for the local queries ----
  comm.trace_mark("A3 finalize");
  if (survivor) report_hits(tops, block.begin);
}

}  // namespace detail

ParallelRunResult run_algorithm_a(const sim::Runtime& runtime,
                                  const std::string& fasta_image,
                                  const std::vector<Spectrum>& queries,
                                  const SearchConfig& config,
                                  const AlgorithmAOptions& options) {
  const SearchEngine engine(config);
  // Each query is owned by exactly one rank (its block owner, or on a crash
  // the surviving adopter), so the ranks write disjoint hit slots (no
  // synchronization needed beyond join).
  return detail::run_batch(
      runtime, queries.size(), options.memory_budget_bytes,
      [&](sim::Comm& comm, QueryHits& all_hits) {
        comm.trace_mark("A1 load+prepare");
        detail::ring_search_body(
            comm, detail::load_ring_shard(comm, fasta_image),
            detail::RingQuerySet{
                std::span<const Spectrum>(queries.data(), queries.size()), 0},
            engine, options, all_hits);
      });
}

}  // namespace msp
