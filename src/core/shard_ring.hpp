// Internal: the ring transport under Algorithm A's rotation (and so B, the
// hybrid and A's crash recovery) and the serving ring, plus the run frame
// and per-shard accounting every batch driver shares. Not part of the
// public API.
//
// Paper §II-B describes database and query transport as one ring carrying
// different payloads. ShardRing is that ring's transport half: the window
// over each rank's image, the crash schedule seen through the ring's step
// horizon, the ring-predecessor replica that keeps a dead rank's image
// reachable, and the fetches that redirect to it. Each engine keeps its own
// step loop and payload — A rotates plain shard images, the serving ring
// mass-banded candidate records — and calls into this one implementation of
// the fail-stop protocol (DESIGN.md §5c).
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/candidate_index.hpp"
#include "core/config.hpp"
#include "core/fragment_index.hpp"
#include "core/hit.hpp"
#include "core/search_engine.hpp"
#include "simmpi/comm.hpp"

namespace msp::detail {

/// Every batch driver's frame: run `body(comm, all_hits)` on each rank under
/// `memory_budget_bytes` (0: none), then collect the report, the hits and
/// the candidate total into a `Result` (a ParallelRunResult).
template <typename Result = ParallelRunResult, typename Body>
Result run_batch(const sim::Runtime& runtime, std::size_t query_count,
                 std::size_t memory_budget_bytes, Body&& body) {
  QueryHits all_hits(query_count);
  sim::RunReport report = runtime.run([&](sim::Comm& comm) {
    comm.set_memory_budget(memory_budget_bytes);
    body(comm, all_hits);
  });
  Result result;
  result.candidates = report.sum_counter("candidates");
  result.report = std::move(report);
  result.hits = std::move(all_hits);
  return result;
}

/// Step A1's load: the (comm.rank(), comm.size()) database chunk of
/// `fasta_image`, with its I/O charged to the rank's clock.
ProteinDatabase load_ring_shard(sim::Comm& comm,
                                const std::string& fasta_image);

/// A shard's candidate index plus, in open search on the fragment-index
/// source, its fragment index (empty otherwise; search_shard reads it only
/// in that mode).
struct ShardIndexes {
  CandidateIndex index;
  FragmentIndex fragment;
};

/// True when open search runs on the fragment-index source: the mode whose
/// shards carry a FragmentIndex next to their CandidateIndex.
bool indexed_open_search(const SearchConfig& config);

/// Build `db`'s ShardIndexes, charging one mass computation per candidate
/// entry and then one per fragment posting.
ShardIndexes build_shard_indexes(sim::Comm& comm, const ProteinDatabase& db,
                                 const SearchConfig& config);

/// Bump one shard search's kernel counters: candidates, prefiltered,
/// offers, ions, and postings in open search.
void count_shard_search(sim::Comm& comm, const ShardSearchStats& stats,
                        const SearchConfig& config);

/// Charge one shard search's kernel cost, then count it.
void charge_shard_search(sim::Comm& comm, const ShardSearchStats& stats,
                         const SearchConfig& config);

/// Report a block's finalized hits, hits[q] landing in all_hits[slot(q)]:
/// count the index-miss queries in open search (the de novo fallback lane's
/// input), charge the output I/O and bump hits_reported.
template <typename Slot>
void report_block_hits(sim::Comm& comm, const SearchConfig& config,
                       QueryHits hits, QueryHits& all_hits, Slot&& slot) {
  std::uint64_t misses = 0;
  std::size_t reported = 0;
  for (std::size_t q = 0; q < hits.size(); ++q) {
    misses += hits[q].empty() ? 1 : 0;
    reported += hits[q].size();
    all_hits[slot(q)] = std::move(hits[q]);
  }
  if (config.open_search()) comm.bump("open_index_miss_queries", misses);
  comm.clock().charge_io(static_cast<double>(reported) *
                         comm.compute_model().seconds_per_hit_output);
  comm.bump("hits_reported", reported);
}

/// One ring's transport over `comm`. Crash steps in the run's FaultModel
/// index this ring's steps; a step at or past `horizon` never fires here (it
/// names a step of a longer ring). Algorithm A's horizon is its step count,
/// B's the group maximum, and the serving ring's kUnbounded.
///
/// The ring owns D_recv and D_comp, the paper's two rotating buffers: a
/// step makes its shard resident() in D_comp, while the masked prefetch of
/// the next step's shard lands in D_recv and complete_prefetch() swaps it
/// in.
///
/// Fail-stop protocol, when the schedule has crashes: expose() pulls every
/// rank's ring-predecessor image before any crash can fire and exposes it
/// through a second window, so a dead rank's image stays reachable at its
/// successor byte-for-byte at the same offsets. A fetch issued at step s
/// whose owner is dead by s reads the replica instead (crashes are
/// step-boundary events: a transfer issued before the owner's crash step
/// completes normally).
class ShardRing {
 public:
  static constexpr int kUnbounded = std::numeric_limits<int>::max();

  /// Throws FaultUnrecoverable when the schedule kills every rank of the
  /// ring: nobody would be left to finish its queries.
  ShardRing(sim::Comm& comm, int horizon);

  /// Collective: expose `image` (charged as D_local), charge D_recv + D_comp
  /// at the largest rank's image, and pull the replica when the schedule has
  /// crashes. `image` must outlive the ShardRing.
  void expose(std::span<const char> image);

  /// Rank r's crash step inside the horizon, or -1 when it never crashes.
  int crash_step(int r) const;
  bool dead_at(int r, int step) const;
  bool fault_tolerant() const { return fault_tolerant_; }

  /// Enter ring step `step`: mark this rank crashed ("<step_name> <step>")
  /// when its crash fires there, and return true from then on — a fail-stop
  /// zombie that scores nothing but keeps matching the survivors' fences.
  bool zombie_at(int step, const char* step_name);

  /// Every get below reads `owner`'s image as of ring step `step`, and
  /// throws FaultUnrecoverable when the owner and its replica holder are
  /// both dead by then.
  ///
  /// D_comp holding `owner`'s image: pulled blocking, fully exposed, unless
  /// an earlier prefetch already delivered it.
  const std::vector<char>& resident(int owner, int step);
  /// Issue the non-blocking get of `owner`'s image into D_recv (A2's mask).
  void prefetch(int owner, int step);
  /// Wait for the prefetch issued this step, if any, and swap it into
  /// D_comp.
  void complete_prefetch();
  /// Blocking gets into `dest`: the whole image, or its bytes
  /// [offset, offset + length).
  void pull(int owner, int step, std::vector<char>& dest);
  void pull_range(int owner, int step, std::size_t offset,
                  std::size_t length, std::vector<char>& dest);

  /// Collective fence of the image window: a step's epoch end, and the
  /// close of the rotation.
  void fence() { window_->fence(); }
  /// Collective close of the replica window (a no-op without crashes), once
  /// no rank re-pulls a dead rank's image. Zombies attend too, so their
  /// exposed buffers stay alive until then.
  void close();

 private:
  /// Where a get of `owner`'s image issued at `step` reads from.
  std::pair<sim::Window*, int> source_of(int owner, int step);

  sim::Comm& comm_;
  int horizon_;
  bool fault_tolerant_;
  int pulls_ = 1;
  std::optional<sim::Window> window_;
  std::vector<char> replica_;
  std::optional<sim::Window> replica_window_;
  std::vector<char> comp_;  ///< D_comp
  std::vector<char> recv_;  ///< D_recv
  int comp_owner_ = -1;     ///< whose image D_comp holds (-1: none)
  int recv_owner_ = -1;     ///< whose image the prefetch brings
  sim::RmaRequest prefetch_;
  sim::Window* prefetch_window_ = nullptr;
};

}  // namespace msp::detail
