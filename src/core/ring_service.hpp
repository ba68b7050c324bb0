// Multi-batch ring transport for the online query service, over a
// mass-banded candidate-record shard layout.
//
// Algorithm A rotates the sharded database once per query *set*: a batch
// costs a full p-step rotation even when it holds a handful of spectra, so
// batch-at-a-time dispatch pays the per-batch communication floor on every
// batch. The service ring instead rotates *continuously*: one global step
// counter s advances whenever any batch is in flight, rank i scores shard
// (i + s) mod p at step s, and every admitted batch is scored against the
// current shard of the same pass — one shard fetch and one fence per step
// no matter how many batches ride it. An unrouted batch admitted at the
// boundary before step f has seen all p shards after step f + p − 1 and
// publishes at that boundary (the incremental top-τ merge makes the result
// identical to a one-shot search regardless of shard order).
//
// Shard layout (the mass-routing tentpole): instead of rotating raw
// database chunks, the service applies Algorithm B's machinery to the
// *candidates* — at construction every rank enumerates its chunk's
// candidate records inside the stream's query-mass envelope and a parallel
// counting sort redistributes them so rank j holds the j-th contiguous
// mass band of the global record array (core/candidate_record.hpp). Mass
// bands make routing communication-optimal, the shape HiCOPS and the
// communication-lower-bound analyses argue for: a query's ±δ window
// overlaps O(1) bands, so with the exchanged per-band histograms
// (core/shard_map.hpp) most (block, shard) pairs are *provably* empty and
// the ring step is skipped at a constant decision cost, while a visited
// step fetches only the byte ranges the histogram's prefix sums bound for
// each merged query window — a few records — instead of a whole shard.
// With routing off the same bands are fetched whole, one per step,
// recovering the unrouted continuous-ring baseline. Hits are bit-identical
// across all of it.
//
// Routed flights are as long as their routed work. Rank r holds band
// (r + s) mod p at step s, so admit() places each query on the live rank
// whose ring position reaches the query's needed bands soonest (a query
// needing bands [b_lo, b_hi] finishes earliest on r = b_lo − f mod p), and
// the flight publishes after step f + d, where d is the largest ring
// distance from any member to a band it needs — not after f + p − 1. A
// batch whose queries sit in one band rides one step.
//
// Determinism without control messages: the fence at the end of every step
// equalizes all ranks' virtual clocks, so any control decision taken at a
// step boundary from globally known inputs (the arrival schedule, the fault
// schedule, the exchanged shard mass map, published state) is computed
// identically by every rank. The serving layer (src/serve) exploits that by
// replicating its controller per rank; this class's step() returns the
// fence-aligned boundary time the controllers must use as "now". Placement
// and the flight's length are such decisions too, and flight_steps()
// exposes the length to the scheduler's backfill fit test.
//
// Fault compatibility: the service runs on the same transport as Algorithm
// A's ring (detail::ShardRing, core/shard_ring.hpp), with an unbounded step
// horizon — crash steps in the run's FaultModel index *service ring steps*,
// and any of them can fire. A crashing rank becomes a fail-stop zombie that
// keeps matching fences; its blocks of every in-flight batch are lost and
// the orphaned query ids are returned from step() so the serving layer
// re-admits them (they re-enter admission, get re-batched, and are
// re-scored from scratch — same hits, later). Bands stay reachable through
// the ShardRing's ring-successor replica — it holds the same bytes at the
// same offsets, so partial fetches redirect unchanged.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/candidate_record.hpp"
#include "core/hit.hpp"
#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "core/shard_map.hpp"
#include "core/shard_ring.hpp"
#include "scoring/incremental_topk.hpp"
#include "simmpi/comm.hpp"

namespace msp {

/// Default histogram bucket width for the serve ring's band exchange. Bands
/// are contiguous in mass, so the grid only has to resolve *where inside
/// its band* a window falls — a much coarser question than the pack
/// trailer's per-candidate occupancy map answers. 0.25 Da keeps each
/// exchanged histogram to a few KB while bounding partial-fetch overshoot
/// to a fraction of a dalton per side.
inline constexpr double kServeRouteBucketDa = 0.25;

/// One closed batch handed to the ring: ids into the service's global query
/// stream (not necessarily contiguous — shed gaps and crash re-admissions
/// fragment the stream).
struct ServiceBatch {
  std::size_t id = 0;
  std::vector<std::size_t> query_ids;
};

/// What one ring step produced. Every field is a function of fence-aligned
/// state plus the globally known schedules, so all ranks (zombies included)
/// return identical outcomes — the lockstep contract the per-rank
/// controllers rely on.
/// One batch leaving the ring, with the router's audit trail: how many of
/// its (member rank, shard) scoring slots the mass router visited vs
/// proved empty and skipped. Counted over members with nonempty blocks,
/// from globally known inputs — identical on every rank.
struct PublishedBatch {
  std::size_t batch_id = 0;
  /// Query ids actually published (ids orphaned by crashes excluded).
  std::vector<std::size_t> query_ids;
  std::uint64_t steps_visited = 0;
  std::uint64_t steps_skipped = 0;
};

struct ServiceStepOutcome {
  int step = 0;  ///< the step ordinal just executed
  /// Fence-aligned boundary time this step ended on (including the crash
  /// detection charge when a crash fired). Controllers must use this as
  /// "now" — a zombie's own clock lags the survivors'.
  double boundary_time = 0.0;
  /// Batches whose last shard was scored this step.
  std::vector<PublishedBatch> published;
  /// Query ids orphaned by ranks that crashed at this step; they must
  /// re-enter admission.
  std::vector<std::size_t> orphaned;
};

class RingService {
 public:
  /// Collective over `comm` (counting sort + window creation + barrier):
  /// loads the rank's chunk, enumerates its candidate records inside the
  /// stream's query-mass envelope, joins the parallel counting sort that
  /// leaves this rank holding one contiguous mass band, exposes the band's
  /// record bytes, pulls the ring predecessor's replica when the fault
  /// schedule has crashes, and aligns all clocks so the first boundary is
  /// shared. `all_hits` must have one slot per stream query; owners write
  /// disjoint slots at publication. With `mass_routing` on (the default)
  /// every rank also summarizes its band as a mass histogram at
  /// `route_bucket_da` resolution and joins a collective exchange of all p
  /// histograms; admitted batches are then routed only through bands whose
  /// histogram overlaps their query-mass windows, provably-empty ring steps
  /// are skipped at a constant routing-decision cost, and visited remote
  /// bands are fetched partially (only the matching record range). Hits are
  /// bit-identical either way.
  RingService(sim::Comm& comm, const std::string& fasta_image,
              std::span<const Spectrum> queries, const SearchEngine& engine,
              QueryHits& all_hits, bool mass_routing = true,
              double route_bucket_da = kServeRouteBucketDa);

  /// Admit a closed batch at the current boundary (before the next step()).
  /// Must be invoked with identical arguments on every rank. Routed, each
  /// query goes to the rank alive at this boundary that reaches its needed
  /// bands soonest (ties: fewest queries placed so far, then lowest rank;
  /// a query needing no band goes to the least-loaded member); unrouted,
  /// the queries are block-partitioned over those ranks. Each member
  /// gathers and prepares its block (prep compute and memory are charged
  /// here; the next fence re-aligns the clocks).
  void admit(const ServiceBatch& batch);

  /// Ring steps a batch of `query_ids` admitted at the current boundary
  /// would ride before it publishes: p unrouted; routed, one more than the
  /// largest ring distance from a member to a band it needs. Computed from
  /// global inputs only, so every rank agrees; charges nothing.
  int flight_steps(std::span<const std::size_t> query_ids) const;

  /// Advance the ring one step: make shard (rank + s) mod p resident —
  /// routed mode fetches only each needed flight's matching record ranges,
  /// unrouted mode fetches the whole band (blocking only after an idle gap;
  /// while batches keep the ring busy the previous step's masked prefetch
  /// already delivered it) — score every in-flight batch's local block
  /// against it, fence, then publish batches whose last needed step this
  /// was.
  /// `prefetch_next` is the serving layer's hint that another step is
  /// likely; a wrong hint affects time, never results.
  ServiceStepOutcome step(bool prefetch_next);

  /// Remove an in-flight batch at the current boundary (before the next
  /// step()) and return its not-yet-orphaned query ids so the caller can
  /// re-queue them — an *induced recoverable fault* riding the same
  /// orphan/re-admit contract as a crash, so re-scoring from scratch keeps
  /// hits serial-exact by construction (the scheduler's preemption path).
  /// Must be invoked with identical arguments on every rank; the returned
  /// ids are a pure function of replicated flight state, so every rank
  /// computes the same list with no communication. Partial per-shard top-τ
  /// state is discarded; members release their block allocations.
  std::vector<std::size_t> preempt(std::size_t batch_id);

  std::size_t in_flight() const { return flights_.size(); }
  int steps_done() const { return step_; }

  /// Collective teardown (window close). Every rank, zombies included,
  /// must call it after the last step.
  void finish();

 private:
  /// Where a batch admitted at the current boundary goes: the members, the
  /// ids with each member's queries contiguous, and what each member must
  /// visit. A pure function of global inputs.
  struct Placement {
    std::vector<int> ranks;          ///< members: ranks alive at admit
    std::vector<std::size_t> ids;    ///< batch ids, member blocks contiguous
    std::vector<QueryRange> blocks;  ///< blocks[m]: member m's range of ids
    /// needs[m * p + shard]: member m's block may hold a candidate in
    /// `shard` (all ones unrouted).
    std::vector<std::uint8_t> needs;
    int span = 0;  ///< last needed step − first step
    bool route = false;
  };
  Placement place(std::span<const std::size_t> query_ids) const;

  /// Per-rank state of one batch riding the ring.
  struct Flight {
    std::size_t batch_id = 0;
    /// Batch query ids (global stream), each member's block contiguous.
    std::vector<std::size_t> ids;
    std::vector<int> ranks;             ///< members: ranks alive at admit
    std::vector<QueryRange> blocks;     ///< blocks[m]: ranks[m]'s ids
    int first_step = 0;                 ///< first ring step that scores it
    int last_step = 0;                  ///< the step after which it publishes
    std::vector<std::size_t> orphaned;  ///< ids lost to crashes (all ranks)
    /// Router verdict per shard for THIS rank's block: 0 = provably no
    /// candidates, skip; 1 = must score. All-ones when routing is off or
    /// the rank holds no block.
    std::vector<std::uint8_t> my_routed;
    /// Batch-wide router audit (over all members with nonempty blocks),
    /// computed from global inputs — identical on every rank.
    std::uint64_t steps_visited = 0;
    std::uint64_t steps_skipped = 0;
    // This rank's block (empty when not a member):
    QueryRange block;                   ///< range into `ids`
    PreparedQueries prepared;
    /// The block's merged query-mass windows [m − window_below, m +
    /// window_above] over its queries' hypothesis masses, ascending and
    /// disjoint — what partial fetches of a visited band are clipped to.
    std::vector<std::pair<double, double>> windows;
    std::vector<IncrementalTopK<Hit>> tops;  ///< one per block query
    std::size_t alloc_bytes = 0;
  };

  /// Blocking-fetch `shard`'s records matching `flight`'s query windows
  /// into scratch_records_ and return the span to score (the whole resident
  /// band for the local shard / unrouted path).
  std::span<const CandidateRecord> resident_records(int shard, int at_step,
                                                    const Flight& flight);
  /// `flight`'s ids not orphaned by a crash, in batch order.
  static std::vector<std::size_t> unorphaned_ids(const Flight& flight);
  /// Score `flight`'s block against `resident` (records of `shard`),
  /// charge the kernel's cost and absorb the hits into the flight's tops.
  void score_flight(Flight& flight, int shard,
                    std::span<const CandidateRecord> resident);

  sim::Comm& comm_;
  std::span<const Spectrum> queries_;
  const SearchEngine& engine_;
  QueryHits& all_hits_;
  bool routing_ = true;
  double route_bucket_da_ = kServeRouteBucketDa;
  ShardMassMap shard_map_;  ///< empty (routes nothing out) unless routing_

  int p_ = 0;
  int rank_ = 0;

  std::vector<CandidateRecord> band_;  ///< this rank's mass band (sorted)
  detail::ShardRing ring_;             ///< exposes band_'s raw bytes
  std::vector<char> fetch_buffer_;  ///< routed: partial-fetch target
  std::vector<CandidateRecord> scratch_records_;  ///< fetched-bytes decode
  std::vector<CandidateRecord> range_records_;    ///< one range's decode

  int step_ = 0;
  std::vector<Flight> flights_;
};

}  // namespace msp
