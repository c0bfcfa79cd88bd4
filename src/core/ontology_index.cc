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

OntologyIndex::OntologyIndex(Graph g, OntologyGraph o,
                             const IndexOptions& options,
                             CandidateIndex candidate_index)
    : g_(std::move(g)),
      o_(std::move(o)),
      sim_(MakeSimilarity(options)),
      options_(options),
      candidate_index_(std::move(candidate_index)) {}

OntologyIndex OntologyIndex::Build(Graph g, OntologyGraph o,
                                   const IndexOptions& options,
                                   IndexBuildStats* stats) {
  if (stats != nullptr) {
    *stats = IndexBuildStats();
  }
  CandidateIndex candidates = CandidateIndex::Build(g, options.num_threads);
  return FromParts(std::move(g), std::move(o), options, std::move(candidates));
}

OntologyIndex OntologyIndex::FromParts(Graph g, OntologyGraph o,
                                       const IndexOptions& options,
                                       CandidateIndex candidate_index) {
  return OntologyIndex(std::move(g), std::move(o), options,
                       std::move(candidate_index));
}

}  // namespace osq
