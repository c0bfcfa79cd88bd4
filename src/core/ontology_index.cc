#include "core/ontology_index.h"

#include <utility>

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
  return FromLoadedParts(g, o, options,
                         CandidateIndex::Build(g, options.num_threads));
}

OntologyIndex OntologyIndex::FromLoadedParts(const Graph& g,
                                             const OntologyGraph& o,
                                             const IndexOptions& options,
                                             CandidateIndex candidate_index) {
  OntologyIndex index;
  index.g_ = &g;
  index.o_ = &o;
  index.sim_ = MakeSimilarity(options);
  index.options_ = options;
  index.candidate_index_ = std::move(candidate_index);
  return index;
}

void OntologyIndex::RepairCandidateIndexAfterEdge(NodeId from, NodeId to) {
  candidate_index_.OnEdgeChanged(*g_, from, to);
}

void OntologyIndex::RegisterNodeInCandidateIndex(NodeId v) {
  candidate_index_.OnNodeAdded(*g_, v);
}

void OntologyIndex::Rebind(const Graph* g, const OntologyGraph* o) {
  g_ = g;
  o_ = o;
}

}  // namespace osq
