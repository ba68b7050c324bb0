#include "core/shard_ring.hpp"

#include <algorithm>

#include "core/partition.hpp"
#include "util/error.hpp"

namespace msp::detail {

ProteinDatabase load_ring_shard(sim::Comm& comm,
                                const std::string& fasta_image) {
  ProteinDatabase db =
      load_database_shard(fasta_image, comm.rank(), comm.size());
  comm.clock().charge_io(static_cast<double>(db.total_residues()) *
                         comm.compute_model().seconds_per_residue_load);
  return db;
}

bool indexed_open_search(const SearchConfig& config) {
  return config.open_search() &&
         config.candidate_source != CandidateSourceKind::kMassWindow;
}

ShardIndexes build_shard_indexes(sim::Comm& comm, const ProteinDatabase& db,
                                 const SearchConfig& config) {
  const double per_mz = comm.compute_model().seconds_per_mz;
  ShardIndexes out;
  out.index = CandidateIndex::build(db, config);
  comm.clock().charge_compute(static_cast<double>(out.index.size()) * per_mz);
  if (indexed_open_search(config)) {
    out.fragment = FragmentIndex::build(db, out.index, config.bin_width);
    comm.clock().charge_compute(
        static_cast<double>(out.fragment.posting_count()) * per_mz);
  }
  return out;
}

void count_shard_search(sim::Comm& comm, const ShardSearchStats& stats,
                        const SearchConfig& config) {
  comm.bump("candidates", stats.candidates_evaluated);
  comm.bump("prefiltered", stats.candidates_prefiltered);
  comm.bump("offers", stats.hits_offered);
  comm.bump("ions", stats.ions_built);
  if (config.open_search()) comm.bump("postings", stats.postings_scanned);
}

void charge_shard_search(sim::Comm& comm, const ShardSearchStats& stats,
                         const SearchConfig& config) {
  comm.clock().charge_compute(kernel_cost_seconds(stats, comm.compute_model()));
  count_shard_search(comm, stats, config);
}

ShardRing::ShardRing(sim::Comm& comm, int horizon)
    : comm_(comm),
      horizon_(horizon),
      fault_tolerant_(comm.faults().has_crashes()) {
  if (!fault_tolerant_) return;
  for (int r = 0; r < comm_.size(); ++r)
    if (crash_step(r) < 0) return;
  throw FaultUnrecoverable(
      "fault schedule kills every rank of the ring — nobody left to finish "
      "its queries");
}

void ShardRing::expose(std::span<const char> image) {
  const int p = comm_.size();
  comm_.charge_alloc(image.size());  // D_local
  window_.emplace(comm_, image);
  std::size_t max_image = 0;
  for (int r = 0; r < p; ++r)
    max_image = std::max(max_image, window_->shard_size(r));
  comm_.charge_alloc(2 * max_image);  // D_recv + D_comp
  pulls_ = comm_.network().concurrent_pulls(p);
  if (!fault_tolerant_) return;
  sim::RmaRequest pull =
      window_->rget((comm_.rank() + p - 1) % p, replica_, pulls_);
  window_->wait(pull);
  comm_.charge_alloc(replica_.size());
  replica_window_.emplace(comm_, std::span<const char>(replica_));
}

int ShardRing::crash_step(int r) const {
  const int step = comm_.faults().crash_step(comm_.global_rank_of(r));
  return step >= 0 && step < horizon_ ? step : -1;
}

bool ShardRing::dead_at(int r, int step) const {
  const int crashed = crash_step(r);
  return crashed >= 0 && crashed <= step;
}

bool ShardRing::zombie_at(int step, const char* step_name) {
  const int crashed = crash_step(comm_.rank());
  if (step == crashed)
    comm_.mark_crashed(std::string(step_name) + " " + std::to_string(step));
  return crashed >= 0 && step >= crashed;
}

std::pair<sim::Window*, int> ShardRing::source_of(int owner, int step) {
  if (!dead_at(owner, step)) return {&*window_, owner};
  const int holder = (owner + 1) % comm_.size();
  if (dead_at(holder, step))
    throw FaultUnrecoverable("shard " + std::to_string(owner) +
                             ": owner and replica holder " +
                             std::to_string(holder) + " both crashed");
  return {&*replica_window_, holder};
}

const std::vector<char>& ShardRing::resident(int owner, int step) {
  if (comp_owner_ != owner) {
    pull(owner, step, comp_);
    comp_owner_ = owner;
  }
  return comp_;
}

void ShardRing::prefetch(int owner, int step) {
  const auto [window, target] = source_of(owner, step);
  prefetch_ = window->rget(target, recv_, pulls_);
  prefetch_window_ = window;
  recv_owner_ = owner;
}

void ShardRing::complete_prefetch() {
  if (!prefetch_.active) return;
  prefetch_window_->wait(prefetch_);
  prefetch_ = sim::RmaRequest{};
  std::swap(comp_, recv_);
  comp_owner_ = recv_owner_;
}

void ShardRing::pull(int owner, int step, std::vector<char>& dest) {
  // A replica holds its owner's image byte for byte, so the owner's size
  // bounds either read.
  pull_range(owner, step, 0, window_->shard_size(owner), dest);
}

void ShardRing::pull_range(int owner, int step, std::size_t offset,
                           std::size_t length, std::vector<char>& dest) {
  const auto [window, target] = source_of(owner, step);
  sim::RmaRequest request =
      window->rget_range(target, offset, length, dest, pulls_);
  window->wait(request);
}

void ShardRing::close() {
  if (replica_window_) replica_window_->fence();
}

}  // namespace msp::detail
