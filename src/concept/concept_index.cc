#include "concept/concept_index.h"

#include <optional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ontology/ontology_partition.h"

namespace osq {

ConceptIndex ConceptIndex::Build(const Graph& g, const OntologyGraph& o,
                                 const IndexOptions& index_options,
                                 const ConceptIndexOptions& options,
                                 IndexBuildStats* stats) {
  OSQ_CHECK(options.num_concept_graphs >= 1);
  SimilarityFunction sim = MakeSimilarity(index_options);
  ConceptGraphOptions cg_options;
  cg_options.beta = options.beta;
  cg_options.edge_label_aware = options.edge_label_aware;

  // Concept-label selection stays sequential so the RNG stream (and thus
  // the built index) is identical for every thread count; the expensive
  // per-partition ConceptGraph::Build calls then fan out, and stats merge
  // in graph order.
  Rng rng(options.seed);
  size_t ng = options.num_concept_graphs;
  std::vector<std::vector<LabelId>> concepts(ng);
  for (size_t i = 0; i < ng; ++i) {
    concepts[i] = SelectConceptLabels(o, sim, options.beta,
                                      options.num_clusters, &rng);
  }
  std::vector<std::optional<ConceptGraph>> built(ng);
  std::vector<ConceptGraphStats> cg_stats(ng);
  ParallelFor(index_options.num_threads, ng, [&](size_t i) {
    built[i] = ConceptGraph::Build(g, o, sim, cg_options,
                                   std::move(concepts[i]), &cg_stats[i]);
  });

  IndexBuildStats local;
  ConceptIndex index;
  for (size_t i = 0; i < ng; ++i) {
    index.graphs_.push_back(std::move(*built[i]));
    local.total_blocks += cg_stats[i].final_blocks;
    local.total_splits += cg_stats[i].splits;
    local.per_graph.push_back(cg_stats[i]);
  }
  if (stats != nullptr) {
    *stats = local;
  }
  return index;
}

size_t ConceptIndex::TotalSize() const {
  size_t total = 0;
  for (const ConceptGraph& cg : graphs_) {
    total += cg.SizeNodesPlusEdges();
  }
  return total;
}

bool ConceptIndex::Validate() const {
  for (const ConceptGraph& cg : graphs_) {
    if (!cg.Validate()) return false;
  }
  return true;
}

void ConceptIndex::RepairAfterUpdate(const GraphUpdate& update,
                                     MaintenanceStats* stats) {
  const EdgeTriple& e = update.edge;
  for (ConceptGraph& cg : graphs_) {
    ConceptGraphStats cg_stats;
    size_t aff;
    if (update.kind == GraphUpdate::Kind::kInsertEdge) {
      aff = cg.RepairAfterEdgeInsertion(e.from, e.to, &cg_stats);
    } else {
      aff = cg.RepairAfterEdgeDeletion(e.from, e.to, &cg_stats);
    }
    if (stats != nullptr) {
      stats->aff_blocks += aff;
      stats->splits += cg_stats.splits;
      stats->merges += cg_stats.merges;
    }
  }
}

void ConceptIndex::RegisterNewNode(NodeId v) {
  for (ConceptGraph& cg : graphs_) {
    cg.RegisterNewNode(v);
  }
}

MaintenanceStats ApplyUpdates(Graph* g, ConceptIndex* index,
                              const std::vector<GraphUpdate>& updates) {
  OSQ_CHECK(g != nullptr && index != nullptr);
  MaintenanceStats stats;
  for (const GraphUpdate& u : updates) {
    if (ApplyToGraph(g, u)) {
      index->RepairAfterUpdate(u, &stats);
      ++stats.applied;
    } else {
      ++stats.skipped;
    }
  }
  return stats;
}

}  // namespace osq
