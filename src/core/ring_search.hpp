// Internal: the ring-rotation search body, shared by Algorithm A (world
// communicator), Algorithm B (world communicator, sender-group ring) and the
// sub-group hybrid (split communicators). Not part of the public API.
#pragma once

#include <span>
#include <string>

#include "core/algorithm_a.hpp"
#include "core/hit.hpp"
#include "core/search_engine.hpp"
#include "core/sortmz.hpp"
#include "simmpi/comm.hpp"

namespace msp::detail {

/// The communicator's whole query set plus where its hits land in the
/// global output array (the hybrid passes its group's slice). Every rank
/// sees the full set so that, when a rank crashes mid-ring, the survivors
/// can re-partition the dead rank's query block among themselves.
struct RingQuerySet {
  std::span<const Spectrum> queries;  ///< all queries owned by this comm
  std::size_t output_offset = 0;      ///< all_hits index of queries[0]
};

/// Step A1's load: the (comm.rank(), comm.size()) database chunk of
/// `fasta_image`, with its I/O charged to the rank's clock.
ProteinDatabase load_ring_shard(sim::Comm& comm,
                                const std::string& fasta_image);

/// Execute steps A2–A3 on `comm`: search this rank's block of
/// `query_set.queries` against the rotating shards — `local_db` is this
/// rank's — and write each query q's hits to
/// all_hits[query_set.output_offset + q]. Collective over `comm`.
///
/// With empty `sorted_bounds` (Algorithm A) every rank visits all p shards.
/// Otherwise (Algorithm B) the shards are sorted by parent m/z, rank r's
/// covering sorted_bounds[r], and each rank visits only its sender group
/// {i′, …, p−1}; the ring runs the group maximum of steps so the fences stay
/// collective.
///
/// Fault tolerance (active when comm.faults() schedules crashes): each
/// shard is replicated on its ring successor before the rotation starts; a
/// rank whose scheduled crash step fires stops contributing work but keeps
/// matching collectives (fail-stop "zombie"); after the rotation, the
/// survivors re-partition each dead rank's query block and re-search it
/// against every shard that can serve it (all p, or its sender group),
/// pulling a dead rank's shard from its replica. A crash step outside the
/// ring's steps never fires.
/// Throws FaultUnrecoverable when a shard's owner and replica holder both
/// died, or when the schedule kills every rank of the communicator.
void ring_search_body(sim::Comm& comm, ProteinDatabase local_db,
                      const RingQuerySet& query_set, const SearchEngine& engine,
                      const AlgorithmAOptions& options, QueryHits& all_hits,
                      std::span<const MzBoundary> sorted_bounds = {});

}  // namespace msp::detail
