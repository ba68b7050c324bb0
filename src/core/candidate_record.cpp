#include "core/candidate_record.hpp"

#include <algorithm>
#include <cstring>

#include "core/candidate_index.hpp"
#include "io/wire_record.hpp"
#include "simmpi/comm.hpp"
#include "util/error.hpp"

namespace msp {
namespace {

CandidateRecord make_record(const Protein& protein,
                            const IndexedCandidate& candidate) {
  MSP_CHECK_MSG(protein.id.size() < sizeof(CandidateRecord{}.protein_id),
                "candidate records require protein ids < 24 chars, got '"
                    << protein.id << "'");
  CandidateRecord record;
  record.mass = candidate.mass;
  std::memcpy(record.protein_id, protein.id.data(), protein.id.size());
  std::memcpy(record.peptide, protein.residues.data() + candidate.offset,
              candidate.length);
  record.offset = candidate.offset;
  record.length = static_cast<std::uint16_t>(candidate.length);
  record.end = static_cast<std::uint8_t>(candidate.end);
  return record;
}

}  // namespace

std::vector<CandidateRecord> enumerate_candidate_records(
    const ProteinDatabase& db, const SearchConfig& config, double mass_floor,
    double mass_ceil) {
  MSP_CHECK_MSG(config.max_candidate_length <
                    sizeof(CandidateRecord{}.peptide),
                "candidate records cap peptide length at 63 residues");
  std::vector<CandidateRecord> records;
  for (const IndexedCandidate& candidate :
       enumerate_candidates(db, config, mass_floor, mass_ceil))
    records.push_back(make_record(db.proteins[candidate.protein], candidate));
  return records;
}

bool candidate_record_less(const CandidateRecord& a,
                           const CandidateRecord& b) {
  if (a.mass != b.mass) return a.mass < b.mass;
  const int id_cmp = std::strncmp(a.protein_id, b.protein_id,
                                  sizeof(a.protein_id));
  if (id_cmp != 0) return id_cmp < 0;
  if (a.offset != b.offset) return a.offset < b.offset;
  return a.length < b.length;
}

std::vector<CandidateRecord> sort_candidate_records_by_mass(
    sim::Comm& comm, std::vector<CandidateRecord> local) {
  const int p = comm.size();
  double local_max = 0.0;
  for (const CandidateRecord& record : local)
    local_max = std::max(local_max, record.mass);
  const double global_max = comm.allreduce_max(local_max);
  const auto array_size = static_cast<std::size_t>(global_max) + 2;

  std::vector<std::uint64_t> counts(array_size, 0);
  for (const CandidateRecord& record : local)
    ++counts[static_cast<std::size_t>(record.mass)];
  comm.allreduce_sum(counts);

  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  std::vector<std::uint32_t> owner(array_size, 0);
  {
    std::uint64_t running = 0;
    std::uint32_t rank = 0;
    for (std::size_t v = 0; v < array_size; ++v) {
      while (rank + 1 < static_cast<std::uint32_t>(p) && total > 0 &&
             running >= (static_cast<std::uint64_t>(rank) + 1) * total /
                            static_cast<std::uint64_t>(p)) {
        ++rank;
      }
      owner[v] = rank;
      running += counts[v];
    }
  }

  std::vector<std::vector<char>> send(static_cast<std::size_t>(p));
  for (const CandidateRecord& record : local) {
    auto& payload = send[owner[static_cast<std::size_t>(record.mass)]];
    const char* bytes = reinterpret_cast<const char*>(&record);
    payload.insert(payload.end(), bytes, bytes + sizeof(CandidateRecord));
  }
  const auto received = comm.alltoallv(send);

  std::vector<CandidateRecord> sorted;
  std::vector<CandidateRecord> decoded;
  for (const auto& payload : received) {
    wire::checked_array_copy(std::span<const char>(payload), decoded,
                             "exchanged candidate payload");
    sorted.insert(sorted.end(), decoded.begin(), decoded.end());
  }
  std::sort(sorted.begin(), sorted.end(), candidate_record_less);
  return sorted;
}

}  // namespace msp
