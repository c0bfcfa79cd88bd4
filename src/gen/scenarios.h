// Scenario generators standing in for the paper's real-life datasets.
//
// The paper evaluates on (a) CrossDomain — a FedBench RDF graph of 1.7M
// nodes / 3.86M edges with a 1.44M-concept ontology — and (b) Flickr — a
// 1.3M-node photo/tag/user/location graph described by a DBpedia-derived
// tag ontology.  Neither download is available offline, so these
// generators synthesize graphs with the same *structural signature*:
// heterogeneous node domains, taxonomy-shaped ontologies with cross
// links, skewed label frequencies, and relation labels correlated with
// domain pairs.  DESIGN.md documents the substitution rationale.

#ifndef OSQ_GEN_SCENARIOS_H_
#define OSQ_GEN_SCENARIOS_H_

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"
#include "graph/label_dictionary.h"
#include "ontology/ontology_graph.h"

namespace osq {
namespace gen {

// A self-contained dataset: the data graph and its ontology share `dict`.
struct Dataset {
  LabelDictionary dict;
  Graph graph;
  OntologyGraph ontology;
};

struct ScenarioParams {
  // Approximate node count of the data graph; edges scale ~4x.
  size_t scale = 2000;
  uint64_t seed = 7;
};

// CrossDomain-like: entities from six domains (person, place, org, work,
// species, music), each domain with a 3-level label taxonomy; relation
// labels determined by the (source domain, target domain) pair.
Dataset MakeCrossDomainLike(const ScenarioParams& params);

// Flickr-like: photo / tag / user / location nodes; photos point at tag
// entities ("tagged"), locations ("taken_at") and are posted by users;
// the ontology covers the tag and location taxonomies.
Dataset MakeFlickrLike(const ScenarioParams& params);

// Catalog-like: product entities tagging a small pool of shared category
// hubs and pointing at a handful of stores.  The random wiring of the two
// scenarios above makes partition refinement collapse to singleton blocks;
// the hub/spoke symmetry here keeps blocks coarse — many products share a
// refinement signature while their per-edge-label degrees differ — which
// is the regime where the degree test of the candidate index's node-level
// check (NodePasses, counted over the node's adjacency) prunes what the
// pair-bit masks cannot.
Dataset MakeCatalogLike(const ScenarioParams& params);

// Community-like: the CrossDomain label space arranged as a ring of
// id-contiguous communities (one federation member per community, domains
// round-robin), with almost all edges inside a community and the rest
// between ADJACENT communities only.  This is the federation-locality
// regime: range partitioning on node ids aligns shard boundaries with
// community boundaries, so halo replication stays thin (a few boundary
// nodes per shard) instead of flooding the whole graph the way a random
// edge distribution forces it to.  The sharded serving benchmark
// (bench/bench_shard.cc) uses it for its structural overhead claim.
Dataset MakeCommunityLike(const ScenarioParams& params);

}  // namespace gen
}  // namespace osq

#endif  // OSQ_GEN_SCENARIOS_H_
