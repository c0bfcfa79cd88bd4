// The ontology similarity function (paper §II-A).
//
// The paper's default is sim(l1, l2) = base^dist_O(l1, l2) with base = 0.9
// (so two hops give 0.81), but it explicitly targets "a class of
// similarity functions": any symmetric, monotonically decreasing function
// of ontology distance works, because every algorithm reduces a similarity
// threshold to a BFS radius.  This header provides three members of the
// class:
//
//   kExponential  sim(d) = base^d                (the paper's default)
//   kLinear       sim(d) = max(0, 1 - d/(c+1))   (hard cutoff at c+1 hops)
//   kReciprocal   sim(d) = 1 / (1 + d)
//
// The key derived quantity is Radius(theta): the largest hop distance
// whose similarity still clears the threshold theta: the ontology ball of
// that radius around a query label holds every label a match may carry.

#ifndef OSQ_ONTOLOGY_SIMILARITY_H_
#define OSQ_ONTOLOGY_SIMILARITY_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "ontology/ontology_graph.h"

namespace osq {

enum class SimilarityModel {
  kExponential,
  kLinear,
  kReciprocal,
};

class SimilarityFunction {
 public:
  // The paper's exponential model; `base` must lie strictly in (0, 1).
  explicit SimilarityFunction(double base = 0.9);

  static SimilarityFunction Exponential(double base) {
    return SimilarityFunction(base);
  }
  // Linear decay hitting zero at cutoff+1 hops; cutoff >= 1.
  static SimilarityFunction Linear(uint32_t cutoff);
  // sim(d) = 1 / (1 + d).
  static SimilarityFunction Reciprocal();

  SimilarityModel model() const { return model_; }
  // Exponential base (meaningful for kExponential only).
  double base() const { return base_; }
  // Linear cutoff (meaningful for kLinear only).
  uint32_t cutoff() const { return cutoff_; }

  // Similarity at hop distance d; 0 for unreachable labels.
  double SimAtDistance(uint32_t distance) const;

  // Largest d with SimAtDistance(d) >= theta (with a small tolerance for
  // floating-point round-off).  Radius(1.0) == 0; a non-positive theta is
  // capped (kMaxRadius, or the cutoff for the linear model) to keep BFS
  // explorations bounded.
  uint32_t Radius(double theta) const;

  // sim(a, b) via bounded ontology BFS: returns the exact similarity when
  // it is >= theta_floor and 0 otherwise.
  double Similarity(const OntologyGraph& o, LabelId a, LabelId b,
                    double theta_floor) const;

  // True iff sim(a, b) >= theta.
  bool AtLeast(const OntologyGraph& o, LabelId a, LabelId b,
               double theta) const {
    return Similarity(o, a, b, theta) > 0.0;
  }

  // Distance ceiling used when a threshold is non-positive; generous enough
  // for any practical ontology while keeping explorations finite.
  static constexpr uint32_t kMaxRadius = 64;

 private:
  SimilarityFunction(SimilarityModel model, double base, uint32_t cutoff);

  SimilarityModel model_ = SimilarityModel::kExponential;
  double base_ = 0.9;
  uint32_t cutoff_ = 2;
  // pow_[d] = base_^d for d <= kMaxRadius (exponential model only).
  std::vector<double> pow_;
};

}  // namespace osq

#endif  // OSQ_ONTOLOGY_SIMILARITY_H_
