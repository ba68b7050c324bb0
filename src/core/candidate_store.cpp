#include "core/candidate_store.hpp"

#include <algorithm>
#include <array>

#include "core/partition.hpp"
#include "core/search_engine.hpp"
#include "core/shard_ring.hpp"
#include "io/wire_record.hpp"
#include "mass/amino_acid.hpp"
#include "scoring/top_hits.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

/// Directory resolution: each rank publishes this many (mass → record
/// index) samples so requesters can bound partial fetches.
constexpr std::size_t kDirectoryEntries = 256;

/// Per-rank store metadata exchanged after the sort: record count, mass
/// extremes, and the (implicitly indexed) mass directory.
struct StoreMeta {
  std::uint64_t records = 0;
  double min_mass = 0.0;
  double max_mass = 0.0;
  std::array<double, kDirectoryEntries> directory{};
};
static_assert(std::is_trivially_copyable_v<StoreMeta>);

StoreMeta make_meta(const std::vector<CandidateRecord>& records) {
  StoreMeta meta;
  meta.records = records.size();
  meta.min_mass = records.empty() ? 0.0 : records.front().mass;
  meta.max_mass = records.empty() ? 0.0 : records.back().mass;
  for (std::size_t i = 0; i < kDirectoryEntries; ++i) {
    const std::size_t index =
        records.empty() ? 0 : i * records.size() / kDirectoryEntries;
    meta.directory[i] = records.empty() ? 0.0 : records[index].mass;
  }
  return meta;
}

/// Record-index range [first, last) on `meta`'s rank that could contain
/// masses in [lo, hi], using the coarse directory (over-approximates by at
/// most one directory stride per side).
std::pair<std::size_t, std::size_t> directory_range(const StoreMeta& meta,
                                                    double lo, double hi) {
  if (meta.records == 0 || hi < meta.min_mass || lo > meta.max_mass)
    return {0, 0};
  std::size_t first_sample = 0;
  while (first_sample + 1 < kDirectoryEntries &&
         meta.directory[first_sample + 1] < lo)
    ++first_sample;
  std::size_t last_sample = first_sample;
  while (last_sample + 1 < kDirectoryEntries &&
         meta.directory[last_sample] <= hi)
    ++last_sample;
  const std::size_t first =
      first_sample * meta.records / kDirectoryEntries;
  const std::size_t last =
      last_sample + 1 >= kDirectoryEntries
          ? meta.records
          : std::min<std::size_t>(
                meta.records,
                (last_sample + 1) * meta.records / kDirectoryEntries + 1);
  return {first, last};
}

}  // namespace

CandidateStoreResult run_candidate_store(const sim::Runtime& runtime,
                                         const std::string& fasta_image,
                                         const std::vector<Spectrum>& queries,
                                         const SearchConfig& config,
                                         const CandidateStoreOptions& options) {
  MSP_CHECK_MSG(config.candidate_mode == CandidateMode::kPrefixSuffix,
                "candidate store implements the paper's prefix/suffix rule");
  MSP_CHECK_MSG(config.max_candidate_length <
                    sizeof(CandidateRecord{}.peptide),
                "candidate store caps peptide length at 63 residues");
  const int p = runtime.size();
  const SearchEngine engine(config);
  // No recovery path: the store has no replica of a dead rank's records, so
  // a crash schedule is rejected up front (deterministic and typed).
  if (runtime.faults().has_crashes())
    throw FaultUnrecoverable("candidate store has no crash recovery");

  auto body = [&](sim::Comm& comm, QueryHits& all_hits) {
    const int rank = comm.rank();
    const auto& cost = comm.compute_model();

    // ---- build: load, window, enumerate, sort ----
    comm.trace_mark("store build");
    const double build_start = comm.clock().now();
    ProteinDatabase local_db = detail::load_ring_shard(comm, fasta_image);

    const QueryRange block = query_block(queries.size(), rank, p);
    const std::span<const Spectrum> local_queries(queries.data() + block.begin,
                                                  block.count());
    comm.charge_alloc(query_footprint_bytes(local_queries));
    const PreparedQueries prepared = engine.prepare(local_queries);
    comm.clock().charge_compute(static_cast<double>(block.count()) *
                                cost.seconds_per_query_prep);

    // The global hypothesis envelope, widened by the precursor window
    // (±tolerance_da in narrow mode), bounds the store.
    const double below = config.window_below();
    const double above = config.window_above();
    const double sentinel = 1e30;
    const double local_lo =
        prepared.size() == 0 ? sentinel : prepared.min_mass();
    const double local_hi =
        prepared.size() == 0 ? -sentinel : prepared.max_mass();
    const double global_lo = comm.allreduce_min(local_lo) - below;
    const double global_hi = comm.allreduce_max(local_hi) + above;

    std::vector<CandidateRecord> records =
        global_lo <= global_hi
            ? enumerate_candidate_records(local_db, config, global_lo,
                                          global_hi)
            : std::vector<CandidateRecord>{};
    local_db = ProteinDatabase{};
    // Generation cost paid ONCE per stored candidate (the strategy's
    // premise); evaluations later pay only the comparison remainder.
    comm.clock().charge_compute(static_cast<double>(records.size()) *
                                cost.seconds_per_candidate *
                                cost.candidate_generation_fraction);
    comm.bump("stored", records.size());

    records = sort_candidate_records_by_mass(comm, std::move(records));
    comm.charge_alloc(records.size() * sizeof(CandidateRecord));

    const StoreMeta my_meta = make_meta(records);
    const std::vector<StoreMeta> metas = comm.allgather(my_meta);
    comm.charge_alloc(metas.size() * sizeof(StoreMeta));
    comm.bump("build_us", static_cast<std::uint64_t>(
                              (comm.clock().now() - build_start) * 1e6));

    const std::span<const char> store_bytes(
        reinterpret_cast<const char*>(records.data()),
        records.size() * sizeof(CandidateRecord));
    sim::Window window(comm, store_bytes);

    // ---- query phase: on-demand partial gets of matching ranges ----
    // The block's hypothesis windows [m − below, m + above], merged into
    // disjoint mass intervals. Each interval fetches each rank's directory
    // range once and scores it through the engine's candidate-major kernel;
    // the directory over-covers, so records are clipped to the interval and
    // every record is scored at most once per block.
    comm.trace_mark("store query");
    std::vector<std::pair<double, double>> intervals;
    for (const double mass : prepared.sorted_masses) {
      if (!intervals.empty() && mass - below <= intervals.back().second)
        intervals.back().second = mass + above;
      else
        intervals.emplace_back(mass - below, mass + above);
    }
    std::vector<TopK<Hit>> tops = engine.make_tops(block.count());
    const double eval_cost = cost.seconds_per_candidate *
                             (1.0 - cost.candidate_generation_fraction);
    std::vector<char> fetched;
    std::vector<CandidateRecord> decoded;
    ShardSearchStats stats;
    std::uint64_t fetches = 0;
    for (const auto& [lo, hi] : intervals) {
      for (int target = 0; target < p; ++target) {
        const auto [first, last] =
            directory_range(metas[static_cast<std::size_t>(target)], lo, hi);
        if (first >= last) continue;
        sim::RmaRequest fetch = window.rget_range(
            target, first * sizeof(CandidateRecord),
            (last - first) * sizeof(CandidateRecord), fetched, 1);
        window.wait(fetch);
        ++fetches;
        const std::span<const CandidateRecord> range = wire::checked_array_copy(
            std::span<const char>(fetched), decoded, "store range");
        const auto clip_first =
            std::ranges::lower_bound(range, lo, {}, &CandidateRecord::mass);
        const auto clip_last = std::ranges::upper_bound(
            clip_first, range.end(), hi, {}, &CandidateRecord::mass);
        const ShardSearchStats fetched_stats = engine.search_records(
            std::span<const CandidateRecord>(clip_first, clip_last), prepared,
            tops);
        // The store already paid generation at build time, so only the
        // comparison remainder of each evaluation is charged here.
        comm.clock().charge_compute(
            static_cast<double>(fetched_stats.candidates_evaluated) *
                eval_cost +
            static_cast<double>(fetched_stats.candidates_prefiltered) *
                cost.seconds_per_prefilter);
        stats += fetched_stats;
      }
    }
    comm.clock().charge_compute(static_cast<double>(stats.hits_offered) *
                                cost.seconds_per_hit_update);
    detail::count_shard_search(comm, stats, config);
    comm.bump("fetches", fetches);

    // Window close is collective.
    comm.barrier();

    detail::report_block_hits(comm, config, engine.finalize(tops), all_hits,
                              [&](std::size_t q) { return block.begin + q; });
  };

  auto result = detail::run_batch<CandidateStoreResult>(
      runtime, queries.size(), options.memory_budget_bytes, body);
  result.stored_candidates = result.report.sum_counter("stored");
  for (const auto& r : result.report.ranks) {
    auto it = r.counters.find("build_us");
    if (it != r.counters.end())
      result.build_seconds = std::max(
          result.build_seconds, static_cast<double>(it->second) * 1e-6);
  }
  return result;
}

}  // namespace msp
