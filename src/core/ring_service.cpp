#include "core/ring_service.hpp"

#include <algorithm>

#include "io/wire_record.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

/// Reinterpret fetched band bytes as records. The transport moves raw
/// record bytes, so a fetched range is decoded through the wire layer's
/// checked copy (the simulator's virtual clock never sees this host-side
/// copy; a torn fetch throws IoError instead of misparsing the band).
std::span<const CandidateRecord> decode_records(
    const std::vector<char>& bytes, std::vector<CandidateRecord>& out) {
  return wire::checked_array_copy(std::span<const char>(bytes), out,
                                  "ring band");
}

}  // namespace

RingService::RingService(sim::Comm& comm, const std::string& fasta_image,
                         std::span<const Spectrum> queries,
                         const SearchEngine& engine, QueryHits& all_hits,
                         bool mass_routing, double route_bucket_da)
    : comm_(comm),
      queries_(queries),
      engine_(engine),
      all_hits_(all_hits),
      routing_(mass_routing),
      route_bucket_da_(route_bucket_da),
      p_(comm.size()),
      rank_(comm.rank()),
      ring_(comm, detail::ShardRing::kUnbounded) {
  const auto& cost = comm_.compute_model();
  const SearchConfig& config = engine_.config();
  MSP_CHECK_MSG(config.candidate_mode == CandidateMode::kPrefixSuffix,
                "the banded service ring implements the paper's "
                "prefix/suffix candidate rule");

  // Band construction: load the i-th chunk (Algorithm A's A1), enumerate
  // its candidate records inside the stream's query-mass envelope, and
  // counting-sort them across ranks so this rank ends up holding one
  // contiguous mass band of the global record array. Queries are NOT
  // prepared here — they arrive over virtual time and are prepared per
  // batch at admission; only their (globally known) precursor masses bound
  // the enumeration, identically on every rank.
  comm_.trace_mark("serve setup");
  ProteinDatabase local_db = detail::load_ring_shard(comm_, fasta_image);

  double stream_lo = 0.0;
  double stream_hi = -1.0;  // empty stream → empty enumeration window
  for (const Spectrum& query : queries_) {
    for (const double mass : engine_.hypothesis_masses(query)) {
      if (stream_hi < stream_lo) {
        stream_lo = stream_hi = mass;
      } else {
        stream_lo = std::min(stream_lo, mass);
        stream_hi = std::max(stream_hi, mass);
      }
    }
  }
  // Envelope widening: in open/PTM mode a hypothesis accepts candidate
  // masses in [m − window_below, m + window_above], so the band enumeration
  // (and every routing decision below) must widen by the same amounts or
  // a modified match could be provably-"skipped" into nonexistence. Narrow
  // mode degenerates to ±tolerance_da exactly as before.
  std::vector<CandidateRecord> records =
      stream_lo <= stream_hi
          ? enumerate_candidate_records(local_db, config,
                                        stream_lo - config.window_below(),
                                        stream_hi + config.window_above())
          : std::vector<CandidateRecord>{};
  local_db = ProteinDatabase{};
  // Same per-candidate charge as CandidateIndex::build — the enumeration
  // is the same mass walk; ion generation stays a scoring-time cost.
  comm_.clock().charge_compute(static_cast<double>(records.size()) *
                               cost.seconds_per_mz);

  band_ = sort_candidate_records_by_mass(comm_, std::move(records));
  // The band's raw bytes ride the ring; with crashes scheduled, a dead
  // rank's band stays reachable at its successor's replica for the rest of
  // the service's lifetime.
  ring_.expose(std::span<const char>(
      reinterpret_cast<const char*>(band_.data()),
      band_.size() * sizeof(CandidateRecord)));

  // The map exchange is collective and runs before any crash can fire,
  // like the replica pull: routing state is frozen global input from the
  // first step on. Bands are mass-contiguous, so a coarse bucket grid
  // keeps each payload to a few KB; the prefix sums over its counts are
  // what clip visited-band fetches to the matching record range, so the
  // counts must be exact (total() == band size ⇒ nothing saturated).
  if (routing_) {
    std::vector<double> band_masses;
    band_masses.reserve(band_.size());
    for (const CandidateRecord& record : band_)
      band_masses.push_back(record.mass);
    const MassHistogram local_histogram =
        MassHistogram::build(std::span<const double>(band_masses),
                             route_bucket_da_);
    MSP_CHECK_MSG(local_histogram.total() == band_.size(),
                  "band histogram lost counts (saturated bucket?) — "
                  "record ranges would under-fetch");
    shard_map_ = ShardMassMap::exchange(comm_, local_histogram);
  }

  // Align every clock so the first service boundary is shared — all control
  // determinism derives from boundaries being fence-aligned.
  comm_.barrier();
}

std::span<const CandidateRecord> RingService::resident_records(
    int shard, int at_step, const Flight& flight) {
  if (shard == rank_) return {band_.data(), band_.size()};
  const MassHistogram* histogram = shard_map_.histogram(shard);
  if (histogram == nullptr) {
    // Route-everything fallback (no histogram for this band): fetch whole.
    ring_.pull(shard, at_step, fetch_buffer_);
    return decode_records(fetch_buffer_, scratch_records_);
  }
  // One fetch per disjoint record range the block's merged windows clip
  // the band to. The windows ascend, so the ranges do too and the
  // concatenation stays mass-sorted; overlapping ranges are merged so no
  // record is scored twice.
  scratch_records_.clear();
  constexpr std::size_t kRecord = sizeof(CandidateRecord);
  std::pair<std::uint64_t, std::uint64_t> range{0, 0};
  const auto fetch = [&] {
    if (range.first >= range.second) return;
    ring_.pull_range(shard, at_step, range.first * kRecord,
                     (range.second - range.first) * kRecord, fetch_buffer_);
    const std::span<const CandidateRecord> records =
        decode_records(fetch_buffer_, range_records_);
    scratch_records_.insert(scratch_records_.end(), records.begin(),
                            records.end());
  };
  for (const auto& [lo, hi] : flight.windows) {
    const auto [first, last] = histogram->record_range(lo, hi);
    if (first >= last) continue;
    if (range.first < range.second && first <= range.second) {
      range.second = std::max(range.second, last);
      continue;
    }
    fetch();
    range = {first, last};
  }
  fetch();
  return {scratch_records_.data(), scratch_records_.size()};
}

void RingService::score_flight(Flight& flight, int shard,
                               std::span<const CandidateRecord> resident) {
  std::vector<TopK<Hit>> shard_tops = engine_.make_tops(flight.block.count());
  detail::charge_shard_search(
      comm_, engine_.search_records(resident, flight.prepared, shard_tops),
      engine_.config());
  for (std::size_t q = 0; q < flight.block.count(); ++q)
    flight.tops[q].absorb(static_cast<std::size_t>(shard), shard_tops[q]);
}

std::vector<std::size_t> RingService::unorphaned_ids(const Flight& flight) {
  std::vector<std::size_t> ids;
  ids.reserve(flight.ids.size());
  for (const std::size_t id : flight.ids)
    if (std::find(flight.orphaned.begin(), flight.orphaned.end(), id) ==
        flight.orphaned.end())
      ids.push_back(id);
  return ids;
}

RingService::Placement RingService::place(
    std::span<const std::size_t> query_ids) const {
  Placement placement;
  // Members: ranks alive through this boundary. A rank whose crash fires at
  // the upcoming step would score nothing, so it is excluded up front; a
  // rank dying later mid-flight is included and its block is orphaned when
  // the crash fires.
  for (int r = 0; r < p_; ++r)
    if (!ring_.dead_at(r, step_)) placement.ranks.push_back(r);
  MSP_CHECK_MSG(!placement.ranks.empty(), "service batch with no live ranks");
  for (const std::size_t id : query_ids)
    MSP_CHECK_MSG(id < queries_.size(), "service batch query id out of range");
  const std::size_t members = placement.ranks.size();
  const auto p = static_cast<std::size_t>(p_);
  placement.route = routing_ && shard_map_.routes();

  if (!placement.route) {
    // Unrouted: the batch order, block-partitioned; every member visits all
    // p shards, so the flight rides p steps.
    placement.ids.assign(query_ids.begin(), query_ids.end());
    for (std::size_t m = 0; m < members; ++m)
      placement.blocks.push_back(query_block(placement.ids.size(),
                                             static_cast<int>(m),
                                             static_cast<int>(members)));
    placement.needs.assign(members * p, 1);
    placement.span = p_ - 1;
    return placement;
  }

  // Mass routing: the exchanged shard mass map says which bands each query
  // may match (a 0 is a proof it matches nothing there at the engine's
  // window). Member r holds band (r + step_ + d) mod p at step step_ + d,
  // so a query is done on r after the largest such d over its needed
  // bands; it goes to the live member where that is smallest, ties to the
  // fewest queries placed so far, then the lowest rank.
  const double below = engine_.config().window_below();
  const double above = engine_.config().window_above();
  std::vector<std::uint8_t> need(p);
  std::vector<std::size_t> owner(query_ids.size());
  std::vector<std::size_t> load(members, 0);
  placement.needs.assign(members * p, 0);
  for (std::size_t i = 0; i < query_ids.size(); ++i) {
    const std::vector<double> masses =
        engine_.hypothesis_masses(queries_[query_ids[i]]);
    for (std::size_t shard = 0; shard < p; ++shard)
      need[shard] =
          shard_map_.needed(static_cast<int>(shard), masses, below, above)
              ? 1
              : 0;
    std::size_t best = members;
    int best_reach = p_;
    for (std::size_t m = 0; m < members; ++m) {
      const int at = (placement.ranks[m] + step_) % p_;
      int reach = 0;
      for (std::size_t shard = 0; shard < p; ++shard)
        if (need[shard])
          reach = std::max(reach, (static_cast<int>(shard) - at + p_) % p_);
      if (best == members || reach < best_reach ||
          (reach == best_reach && load[m] < load[best])) {
        best = m;
        best_reach = reach;
      }
    }
    owner[i] = best;
    ++load[best];
    placement.span = std::max(placement.span, best_reach);
    for (std::size_t shard = 0; shard < p; ++shard)
      placement.needs[best * p + shard] |= need[shard];
  }

  // Each member's queries contiguous, in batch order within a member.
  placement.ids.reserve(query_ids.size());
  for (std::size_t m = 0; m < members; ++m) {
    QueryRange block;
    block.begin = placement.ids.size();
    for (std::size_t i = 0; i < query_ids.size(); ++i)
      if (owner[i] == m) placement.ids.push_back(query_ids[i]);
    block.end = placement.ids.size();
    placement.blocks.push_back(block);
  }
  return placement;
}

int RingService::flight_steps(std::span<const std::size_t> query_ids) const {
  return place(query_ids).span + 1;
}

void RingService::admit(const ServiceBatch& batch) {
  const auto& cost = comm_.compute_model();
  const auto p = static_cast<std::size_t>(p_);
  Placement placement = place(batch.query_ids);
  Flight flight;
  flight.batch_id = batch.id;
  flight.first_step = step_;
  flight.last_step = step_ + placement.span;
  flight.ids = std::move(placement.ids);
  flight.ranks = std::move(placement.ranks);
  flight.blocks = std::move(placement.blocks);

  // The batch-wide audit, over members with nonempty blocks: every rank
  // holds the full (member, shard) matrix, so the counters agree
  // everywhere. Unrouted, each such member visits all p shards (skip ratio
  // 0).
  for (std::size_t m = 0; m < flight.ranks.size(); ++m) {
    if (flight.blocks[m].count() == 0) continue;
    for (std::size_t shard = 0; shard < p; ++shard) {
      if (placement.needs[m * p + shard])
        ++flight.steps_visited;
      else
        ++flight.steps_skipped;
    }
  }
  // One routing check per (query, shard).
  if (placement.route)
    comm_.clock().charge_compute(static_cast<double>(flight.ids.size()) *
                                 static_cast<double>(p_) *
                                 cost.seconds_per_route_check);

  flight.my_routed.assign(p, 1);
  const auto member =
      std::find(flight.ranks.begin(), flight.ranks.end(), rank_);
  if (member != flight.ranks.end()) {
    const auto index = static_cast<std::size_t>(member - flight.ranks.begin());
    flight.block = flight.blocks[index];
    if (flight.block.count() > 0) {
      flight.my_routed.assign(placement.needs.begin() + index * p,
                              placement.needs.begin() + (index + 1) * p);
      std::vector<Spectrum> gathered;
      gathered.reserve(flight.block.count());
      for (std::size_t i = flight.block.begin; i < flight.block.end; ++i)
        gathered.push_back(queries_[flight.ids[i]]);
      flight.alloc_bytes = query_footprint_bytes(gathered);
      comm_.charge_alloc(flight.alloc_bytes);
      flight.prepared = engine_.prepare(gathered);
      comm_.clock().charge_compute(static_cast<double>(gathered.size()) *
                                   cost.seconds_per_query_prep);
      // The block's merged query windows: visited-band partial fetches are
      // clipped to them (the scoring merge-join re-applies the exact
      // per-query predicates, so over-fetch is only a time cost). A window
      // the map routes away from a band clips it to an empty range, so a
      // query needing no band never widens a fetch.
      if (placement.route) {
        const double below = engine_.config().window_below();
        const double above = engine_.config().window_above();
        for (std::size_t i = flight.block.begin; i < flight.block.end; ++i)
          for (const double mass :
               engine_.hypothesis_masses(queries_[flight.ids[i]]))
            flight.windows.emplace_back(mass - below, mass + above);
        std::sort(flight.windows.begin(), flight.windows.end());
        std::size_t merged = 0;
        for (const auto& window : flight.windows) {
          if (merged > 0 && window.first <= flight.windows[merged - 1].second)
            flight.windows[merged - 1].second =
                std::max(flight.windows[merged - 1].second, window.second);
          else
            flight.windows[merged++] = window;
        }
        flight.windows.resize(merged);
      }
      flight.tops.reserve(flight.block.count());
      for (std::size_t q = 0; q < flight.block.count(); ++q)
        flight.tops.emplace_back(engine_.config().tau, p);
      // Shards the router proved empty are recorded as skipped up front:
      // completion accounting stays exact while step() never touches them.
      for (std::size_t shard = 0; shard < p; ++shard)
        if (!flight.my_routed[shard])
          for (IncrementalTopK<Hit>& top : flight.tops) top.skip(shard);
    }
    comm_.trace_serve(sim::SpanKind::kServeDispatch,
                      "batch " + std::to_string(batch.id) + ": " +
                          std::to_string(flight.ids.size()) + " queries over " +
                          std::to_string(flight.ranks.size()) + " ranks");
  }
  flights_.push_back(std::move(flight));
}

ServiceStepOutcome RingService::step(bool prefetch_next) {
  const auto& cost = comm_.compute_model();
  const int s = step_;
  comm_.trace_mark("serve step " + std::to_string(s));
  const bool dead = ring_.zombie_at(s, "serve step");

  if (!dead) {
    const int shard = (rank_ + s) % p_;
    // The router's verdict for this step on this rank: the band must be
    // visited when any in-flight block may hold a candidate in it. A pure
    // function of admit-time state, so reruns and thread counts agree.
    bool need_shard = !routing_;
    if (routing_)
      for (const Flight& flight : flights_)
        if (flight.block.count() > 0 &&
            flight.my_routed[static_cast<std::size_t>(shard)])
          need_shard = true;

    if (!need_shard) {
      // Routed-away step: the constant decision cost only — no band
      // fetch, no decode, no scoring. The fence below still runs, so the
      // lockstep boundary contract is untouched.
      comm_.clock().charge_compute(cost.seconds_per_route_check);
      comm_.bump("route_steps_skipped", 1);
      comm_.trace_serve(sim::SpanKind::kServeRouteSkip,
                        "step " + std::to_string(s) + ": shard " +
                            std::to_string(shard) + " routed away");
    } else if (routing_) {
      comm_.clock().charge_compute(cost.seconds_per_route_check);
      comm_.bump("route_steps_visited", 1);
      // Routed visit: each needed flight fetches only its matching record
      // range of the band (histogram prefix sums bound it), scores it, and
      // moves on — a few KB per flight instead of the whole band, so no
      // masked prefetch chain is worth its buffer here.
      for (Flight& flight : flights_) {
        if (flight.block.count() == 0 ||
            !flight.my_routed[static_cast<std::size_t>(shard)])
          continue;  // admit() already recorded the skip in its tops
        score_flight(flight, shard, resident_records(shard, s, flight));
      }
    } else {
      // Unrouted visit: make the whole band resident. While the ring stays
      // busy the previous step's prefetch already delivered it; after an
      // idle gap or a declined prefetch hint, fetch it blocking — fully
      // exposed, exactly the cost the masked path avoids.
      const std::span<const CandidateRecord> resident =
          shard == rank_
              ? std::span<const CandidateRecord>(band_.data(), band_.size())
              : decode_records(ring_.resident(shard, s), scratch_records_);

      // Masked prefetch of the next step's band under this step's scoring
      // (Algorithm A's A2 pattern, amortized over every in-flight batch).
      // The ring knows a next step is coming whenever a flight outlives
      // this one; the hint covers dispatches only the serving layer can
      // foresee. The step counter alone decides which shard each step
      // scores, so a prefetched band is never the wrong one — it is
      // exactly step s + 1's.
      const int next_shard = (rank_ + s + 1) % p_;
      bool continues = prefetch_next;
      for (const Flight& flight : flights_)
        if (s < flight.last_step) continues = true;
      if (continues && next_shard != rank_) ring_.prefetch(next_shard, s);
      for (Flight& flight : flights_)
        if (flight.block.count() > 0) score_flight(flight, shard, resident);
      ring_.complete_prefetch();
    }
  }
  // Every rank — zombies included — attends the fence: this is both the
  // window epoch and the boundary that re-aligns all clocks, the invariant
  // the replicated controllers live on.
  ring_.fence();

  ServiceStepOutcome out;
  out.step = s;

  // Crash boundary: orphan the dead ranks' blocks of every older flight and
  // charge the survivors the (omniscient, deterministic) detection timeout.
  std::vector<int> died;
  for (int r = 0; r < p_; ++r)
    if (ring_.crash_step(r) == s) died.push_back(r);
  if (!died.empty()) {
    for (Flight& flight : flights_) {
      for (const int d : died) {
        const auto member =
            std::find(flight.ranks.begin(), flight.ranks.end(), d);
        if (member == flight.ranks.end()) continue;
        const QueryRange block =
            flight.blocks[static_cast<std::size_t>(member -
                                                   flight.ranks.begin())];
        for (std::size_t i = block.begin; i < block.end; ++i) {
          flight.orphaned.push_back(flight.ids[i]);
          out.orphaned.push_back(flight.ids[i]);
        }
      }
    }
    if (!dead) {
      comm_.charge_recovery(comm_.faults().crash_detection_timeout_s,
                            "declared " + std::to_string(died.size()) +
                                " rank(s) dead at serve step " +
                                std::to_string(s));
    }
  }
  // The shared boundary time: post-fence clocks are equal on every rank;
  // zombies add the detection charge they did not pay.
  out.boundary_time = comm_.clock().now();
  if (!died.empty() && dead)
    out.boundary_time += comm_.faults().crash_detection_timeout_s;

  // Publish flights whose last needed step this was. Owners report their
  // block's hits (charged as output I/O, after the boundary — the next
  // fence absorbs the imbalance, as with every per-rank cost).
  for (auto it = flights_.begin(); it != flights_.end();) {
    Flight& flight = *it;
    if (s != flight.last_step) {
      ++it;
      continue;
    }
    std::vector<std::size_t> published = unorphaned_ids(flight);
    if (!dead) {
      comm_.trace_serve(sim::SpanKind::kServePublish,
                        "batch " + std::to_string(flight.batch_id) +
                            " published (" + std::to_string(published.size()) +
                            " queries)");
      if (flight.block.count() > 0) {
        QueryHits hits;
        hits.reserve(flight.block.count());
        for (IncrementalTopK<Hit>& top : flight.tops)
          hits.push_back(top.finalize());
        detail::report_block_hits(
            comm_, engine_.config(), std::move(hits), all_hits_,
            [&](std::size_t q) { return flight.ids[flight.block.begin + q]; });
        comm_.release_alloc(flight.alloc_bytes);
      }
    }
    PublishedBatch record;
    record.batch_id = flight.batch_id;
    record.query_ids = std::move(published);
    record.steps_visited = flight.steps_visited;
    record.steps_skipped = flight.steps_skipped;
    out.published.push_back(std::move(record));
    it = flights_.erase(it);
  }

  ++step_;
  return out;
}

std::vector<std::size_t> RingService::preempt(std::size_t batch_id) {
  const auto it =
      std::find_if(flights_.begin(), flights_.end(), [&](const Flight& f) {
        return f.batch_id == batch_id;
      });
  MSP_CHECK_MSG(it != flights_.end(), "preempting a batch not in flight");
  Flight& flight = *it;
  // Everything not already orphaned by a crash goes back to the caller;
  // crash orphans were returned from step() and re-queued there — returning
  // them again would score them twice.
  std::vector<std::size_t> requeue = unorphaned_ids(flight);
  const bool dead = ring_.dead_at(rank_, step_ - 1);
  if (!dead && flight.block.count() > 0)
    comm_.release_alloc(flight.alloc_bytes);
  flights_.erase(it);
  return requeue;
}

void RingService::finish() {
  MSP_CHECK_MSG(flights_.empty(), "service finished with batches in flight");
  ring_.fence();
  ring_.close();
}

}  // namespace msp
