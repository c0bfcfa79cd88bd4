#include "core/ontology_index.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "ontology/ontology_partition.h"

namespace osq {

SimilarityFunction MakeSimilarity(const IndexOptions& options) {
  switch (options.similarity_model) {
    case SimilarityModel::kLinear:
      return SimilarityFunction::Linear(options.similarity_cutoff);
    case SimilarityModel::kReciprocal:
      return SimilarityFunction::Reciprocal();
    case SimilarityModel::kExponential:
      break;
  }
  return SimilarityFunction::Exponential(options.similarity_base);
}

OntologyIndex OntologyIndex::Build(const Graph& g, const OntologyGraph& o,
                                   const IndexOptions& options,
                                   IndexBuildStats* stats) {
  if (stats != nullptr) {
    *stats = IndexBuildStats();
  }
  return FromLoadedParts(g, o, options, {},
                         CandidateIndex::Build(g, {}, options.num_threads));
}

OntologyIndex OntologyIndex::BuildWithConceptGraphs(
    const Graph& g, const OntologyGraph& o, const IndexOptions& options,
    IndexBuildStats* stats) {
  OSQ_CHECK(options.num_concept_graphs >= 1);
  SimilarityFunction sim = MakeSimilarity(options);
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
  ParallelFor(options.num_threads, ng, [&](size_t i) {
    built[i] = ConceptGraph::Build(g, o, sim, cg_options,
                                   std::move(concepts[i]), &cg_stats[i]);
  });

  IndexBuildStats local;
  std::vector<ConceptGraph> graphs;
  for (size_t i = 0; i < ng; ++i) {
    graphs.push_back(std::move(*built[i]));
    local.total_blocks += cg_stats[i].final_blocks;
    local.total_splits += cg_stats[i].splits;
    local.per_graph.push_back(cg_stats[i]);
  }
  CandidateIndex candidate_index =
      CandidateIndex::Build(g, graphs, options.num_threads);
  if (stats != nullptr) {
    *stats = local;
  }
  return FromLoadedParts(g, o, options, std::move(graphs),
                         std::move(candidate_index));
}

OntologyIndex OntologyIndex::FromLoadedParts(const Graph& g,
                                             const OntologyGraph& o,
                                             const IndexOptions& options,
                                             std::vector<ConceptGraph> graphs,
                                             CandidateIndex candidate_index) {
  OSQ_CHECK(candidate_index.num_graphs() == graphs.size());
  OntologyIndex index;
  index.g_ = &g;
  index.o_ = &o;
  index.sim_ = MakeSimilarity(options);
  index.options_ = options;
  index.graphs_ = std::move(graphs);
  index.candidate_index_ = std::move(candidate_index);
  return index;
}

void OntologyIndex::RepairCandidateIndexAfterEdge(NodeId from, NodeId to) {
  candidate_index_.OnEdgeChanged(*g_, from, to);
  for (size_t i = 0; i < graphs_.size(); ++i) {
    // Even when the partition did not move, the endpoint signatures just
    // changed, so their blocks' aggregates must be refreshed too.
    std::vector<BlockId> dirty = graphs_[i].TakeDirtyBlocks();
    dirty.push_back(graphs_[i].BlockOf(from));
    dirty.push_back(graphs_[i].BlockOf(to));
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    candidate_index_.RepairBlocks(i, *g_, graphs_[i], dirty);
  }
}

void OntologyIndex::RegisterNodeInCandidateIndex(NodeId v) {
  candidate_index_.OnNodeAdded(*g_, v);
  for (size_t i = 0; i < graphs_.size(); ++i) {
    candidate_index_.RepairBlocks(i, *g_, graphs_[i],
                                  graphs_[i].TakeDirtyBlocks());
  }
}

void OntologyIndex::Rebind(const Graph* g, const OntologyGraph* o) {
  g_ = g;
  o_ = o;
  for (ConceptGraph& cg : graphs_) {
    cg.Rebind(g, o);
  }
}

size_t OntologyIndex::TotalSize() const {
  size_t total = 0;
  for (const ConceptGraph& cg : graphs_) {
    total += cg.SizeNodesPlusEdges();
  }
  return total;
}

bool OntologyIndex::Validate() const {
  for (const ConceptGraph& cg : graphs_) {
    if (!cg.Validate()) return false;
  }
  return true;
}

}  // namespace osq
