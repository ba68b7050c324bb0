#include "core/algorithm_a.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "core/packdb.hpp"
#include "core/partition.hpp"
#include "core/ring_search.hpp"
#include "core/search_engine.hpp"
#include "mass/amino_acid.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

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

ProteinDatabase load_ring_shard(sim::Comm& comm,
                                const std::string& fasta_image) {
  ProteinDatabase db =
      load_database_shard(fasta_image, comm.rank(), comm.size());
  comm.clock().charge_io(static_cast<double>(db.total_residues()) *
                         comm.compute_model().seconds_per_residue_load);
  return db;
}

void ring_search_body(sim::Comm& comm, ProteinDatabase local_db,
                      const RingQuerySet& query_set, const SearchEngine& engine,
                      const AlgorithmAOptions& options, QueryHits& all_hits,
                      std::span<const MzBoundary> sorted_bounds) {
  const int p = comm.size();
  const int rank = comm.rank();
  const auto& cost = comm.compute_model();
  const sim::FaultModel& faults = comm.faults();
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

  // Crash schedule in group-rank space. A scheduled step outside the ring's
  // [0, steps) never fires on this communicator (it names a step of a
  // longer ring).
  auto crash_step_of = [&](int r) {
    const int step = faults.crash_step(comm.global_rank_of(r));
    return step >= 0 && step < steps ? step : -1;
  };
  const int my_crash_step = crash_step_of(rank);
  const bool fault_tolerant = faults.has_crashes();
  if (fault_tolerant) {
    int survivors = 0;
    for (int r = 0; r < p; ++r)
      if (crash_step_of(r) < 0) ++survivors;
    if (survivors == 0)
      throw FaultUnrecoverable(
          "fault schedule kills every rank of the ring — nobody left to "
          "recover the query blocks");
  }

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
  const bool ship_index =
      config.open_search() &&
      config.candidate_source != CandidateSourceKind::kMassWindow;
  CandidateIndex local_index;  // shipped with the image in indexed open search
  FragmentIndex local_fragment;
  if (ship_index) {
    local_index = CandidateIndex::build(local_db, config);
    comm.clock().charge_compute(static_cast<double>(local_index.size()) *
                                cost.seconds_per_mz);
    // Build cost is one mass computation per posting (= per theoretical
    // ion), the same unit as the index build.
    local_fragment =
        FragmentIndex::build(local_db, local_index, config.bin_width);
    comm.clock().charge_compute(
        static_cast<double>(local_fragment.posting_count()) *
        cost.seconds_per_mz);
  }
  const std::vector<char> local_pack =
      ship_index ? pack_database(local_db, local_index, local_fragment)
                 : pack_database(local_db);
  comm.charge_alloc(local_pack.size());  // D_local (window)
  sim::Window window(comm, local_pack);

  // Score one shard (`fetched`, or this rank's own when null) for `queries`
  // and bump the kernel counters: the one shard step of the rotation and of
  // recovery alike. A plain image is re-enumerated through the windowed
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
          fetched ? &fetched->index : &local_index,
          fetched ? &fetched->fragment : &local_fragment);
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
    comm.clock().charge_compute(kernel_cost_seconds(stats, cost));
    comm.bump("candidates", stats.candidates_evaluated);
    comm.bump("prefiltered", stats.candidates_prefiltered);
    comm.bump("offers", stats.hits_offered);
    comm.bump("ions", stats.ions_built);
    if (config.open_search()) comm.bump("postings", stats.postings_scanned);
  };

  // Report the top-τ lists of the queries whose block starts at `first`:
  // the one report step of A3 and of every adopted orphan block.
  auto report_hits = [&](std::vector<TopK<Hit>>& block_tops,
                         std::size_t first) {
    QueryHits hits = engine.finalize(block_tops);
    // Index-miss queries (no candidate cleared the vote gate anywhere) are
    // the de novo fallback lane's input; the counter lets callers size it.
    if (config.open_search()) {
      std::uint64_t misses = 0;
      for (const std::vector<Hit>& query_hits : hits)
        if (query_hits.empty()) ++misses;
      comm.bump("open_index_miss_queries", misses);
    }
    std::size_t reported = 0;
    for (std::size_t q = 0; q < hits.size(); ++q) {
      reported += hits[q].size();
      all_hits[query_set.output_offset + first + q] = std::move(hits[q]);
    }
    comm.clock().charge_io(static_cast<double>(reported) *
                           cost.seconds_per_hit_output);
    comm.bump("hits_reported", reported);
  };

  std::size_t max_shard = 0;
  for (int r = 0; r < p; ++r)
    max_shard = std::max(max_shard, window.shard_size(r));
  comm.charge_alloc(2 * max_shard);  // D_recv + D_comp

  std::vector<char> comp_buffer = local_pack;  // D_comp starts as own shard
  std::vector<char> recv_buffer;               // D_recv
  const int pulls = comm.network().concurrent_pulls(p);

  // Shard replication for crash recovery: every rank pulls its ring
  // predecessor's shard before the rotation starts (so the copy exists
  // before any crash can fire) and exposes it through a second window.
  // A dead rank's shard then stays reachable at its successor.
  std::vector<char> replica;
  std::optional<sim::Window> replica_window;
  if (fault_tolerant) {
    const int predecessor = (rank + p - 1) % p;
    sim::RmaRequest pull = window.rget(predecessor, replica, pulls);
    window.wait(pull);
    comm.charge_alloc(replica.size());
    replica_window.emplace(
        comm, std::span<const char>(replica.data(), replica.size()));
  }

  // One-sided fetch of shard `owner` issued at ring step `at_step`,
  // rerouted to the replica when the owner is already dead at issue time
  // (crashes are step-boundary events: a transfer issued before the
  // owner's crash step completes normally).
  struct ShardFetch {
    sim::RmaRequest request;
    sim::Window* window = nullptr;
  };
  auto owner_dead_at = [&](int owner, int at_step) {
    const int step = crash_step_of(owner);
    return step >= 0 && step <= at_step;
  };
  auto fetch_shard = [&](int owner, int at_step,
                         std::vector<char>& dest) -> ShardFetch {
    if (!owner_dead_at(owner, at_step))
      return ShardFetch{window.rget(owner, dest, pulls), &window};
    const int holder = (owner + 1) % p;
    if (owner_dead_at(holder, at_step))
      throw FaultUnrecoverable("shard " + std::to_string(owner) +
                               ": owner and replica holder " +
                               std::to_string(holder) + " both crashed");
    return ShardFetch{replica_window->rget(holder, dest, pulls),
                      &*replica_window};
  };

  int comp_shard = rank;  // shard image resident in comp_buffer
  for (int s = 0; s < steps; ++s) {
    comm.trace_mark("A2 ring step " + std::to_string(s));
    if (my_crash_step >= 0 && s >= my_crash_step) {
      if (s == my_crash_step)
        comm.mark_crashed("ring step " + std::to_string(s));
      // Fail-stop zombie: the simulated host is gone, but the thread keeps
      // matching the survivors' collectives so fence epochs and window
      // lifetimes stay aligned while they recover.
      if (options.fence_per_iteration) window.fence();
      continue;
    }

    const int current = shard_at(s);
    const int next = shard_at(s + 1);

    // Non-blocking request for the next iteration's shard (A2's masking):
    // issued before this iteration's computation.
    ShardFetch prefetch;
    if (options.mask && next >= 0) prefetch = fetch_shard(next, s, recv_buffer);
    if (current >= 0) {
      if (current != rank && comp_shard != current) {
        // Nothing delivered this shard under a previous step's mask (the
        // unmasked variant, or a group that starts past the own shard):
        // fetch it blocking, fully exposing the transfer.
        ShardFetch fetch = fetch_shard(current, s, comp_buffer);
        fetch.window->wait(fetch.request);
        comp_shard = current;
      }
      PackedShard fetched;
      if (current != rank) fetched = unpack_shard(comp_buffer);
      score_shard(current == rank ? nullptr : &fetched, prepared, tops);
    }

    if (options.mask && prefetch.request.active) {
      prefetch.window->wait(prefetch.request);
      std::swap(comp_buffer, recv_buffer);
      comp_shard = next;
    }
    if (options.fence_per_iteration) window.fence();
  }
  // Window close is collective (MPI_Win_free): no rank may free its
  // exposed shard while another can still read it.
  window.fence();

  // ---- A2': survivors adopt the dead ranks' query blocks ----
  if (fault_tolerant) {
    std::vector<int> alive;
    std::vector<int> dead;
    for (int r = 0; r < p; ++r)
      (crash_step_of(r) < 0 ? alive : dead).push_back(r);

    if (!dead.empty() && my_crash_step < 0) {
      comm.trace_mark("A2' recovery re-search");
      // Omniscient deterministic failure detection: the schedule is known
      // to every rank, so survivors charge the detection timeout once
      // instead of simulating a heartbeat protocol.
      comm.charge_recovery(faults.crash_detection_timeout_s,
                           "declared " + std::to_string(dead.size()) +
                               " rank(s) dead");
      const double research_start = comm.clock().now();
      const int my_index = static_cast<int>(
          std::find(alive.begin(), alive.end(), rank) - alive.begin());
      std::uint64_t adopted_total = 0;

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
            ShardFetch fetch = fetch_shard(shard, steps, recv_buffer);
            fetch.window->wait(fetch.request);
            fetched = unpack_shard(recv_buffer);
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
    // Replica windows close collectively once every survivor is done
    // re-pulling; zombies attend so their exposed buffers stay alive.
    replica_window->fence();
  }

  // ---- A3: report the top-τ lists for the local queries ----
  comm.trace_mark("A3 finalize");
  if (my_crash_step < 0) report_hits(tops, block.begin);
}

}  // namespace detail

ParallelRunResult run_algorithm_a(const sim::Runtime& runtime,
                                  const std::string& fasta_image,
                                  const std::vector<Spectrum>& queries,
                                  const SearchConfig& config,
                                  const AlgorithmAOptions& options) {
  const SearchEngine engine(config);

  // Per-query output slots; each query is owned by exactly one rank (its
  // block owner, or on a crash the surviving adopter), so the ranks write
  // disjoint elements (no synchronization needed beyond join).
  QueryHits all_hits(queries.size());

  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    if (options.memory_budget_bytes != 0)
      comm.set_memory_budget(options.memory_budget_bytes);
    comm.trace_mark("A1 load+prepare");
    detail::ring_search_body(
        comm, detail::load_ring_shard(comm, fasta_image),
        detail::RingQuerySet{
            std::span<const Spectrum>(queries.data(), queries.size()), 0},
        engine, options, all_hits);
  });

  ParallelRunResult result;
  result.candidates = report.sum_counter("candidates");
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

}  // namespace msp
