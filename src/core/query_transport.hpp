// Query-transport ablation.
//
// Section II-B weighs two designs: transport the database to the query's
// processor (chosen — Algorithms A/B), or transport the query to the data
// ("the query transport model can help, especially since m is expected to
// be much smaller than n. However ... a query can get processed in multiple
// processor locations, and the results have to be sent to one root
// processor for merging"). We implement the rejected design so the
// trade-off can be measured: static database shards, query blocks rotate
// around the ring, and a final all-to-all merge ships every rank's partial
// top-τ lists back to each query's owner.
#pragma once

#include <string>
#include <vector>

#include "core/algorithm_a.hpp"
#include "core/config.hpp"
#include "simmpi/runtime.hpp"
#include "spectra/spectrum.hpp"

namespace msp {

struct QueryTransportOptions {
  std::size_t memory_budget_bytes = 0;
};

/// Throws FaultUnrecoverable when the runtime's fault schedule has crashes:
/// a dead rank would take its query block's partial lists with it, and
/// there is no recovery path.
ParallelRunResult run_query_transport(
    const sim::Runtime& runtime, const std::string& fasta_image,
    const std::vector<Spectrum>& queries, const SearchConfig& config,
    const QueryTransportOptions& options = {});

}  // namespace msp
