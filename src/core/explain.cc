#include "core/explain.h"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/timer.h"
#include "core/filtering.h"
#include "core/kmatch.h"
#include "graph/query_graph.h"

namespace osq {

std::string ExplainQuery(const OntologyIndex& index, const Graph& query,
                         const QueryOptions& options,
                         const LabelDictionary& dict,
                         const ExplainOptions& eopts) {
  std::ostringstream out;
  const Graph& g = index.data_graph();
  const OntologyGraph& o = index.ontology();
  const SimilarityFunction& sim = index.sim();

  out << "query: " << query.num_nodes() << " nodes, " << query.num_edges()
      << " edges; theta=" << options.theta << " k=" << options.k
      << (options.semantics == MatchSemantics::kInduced ? " (induced)"
                                                        : " (homomorphic)")
      << "\n";
  out << "data:  " << g.num_nodes() << " nodes, " << g.num_edges()
      << " edges\n";

  // GviewFilter requires a valid query graph: report a rejected query the
  // way QueryEngine::Query does, without running the pipeline.
  Status valid = ValidateQuery(query);
  if (!valid.ok()) {
    out << "rejected: " << valid.ToString() << "\n";
    return out.str();
  }
  out << "\n";

  // Candidate labels per query node.
  uint32_t radius = sim.Radius(options.theta);
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    LabelId ql = query.NodeLabel(u);
    out << "node q" << u << " :" << dict.Name(ql)
        << "  (Radius(theta)=" << radius << ")\n";
    std::vector<LabelDistance> ball = o.BallAround(ql, radius);
    if (ball.empty()) {
      ball.push_back({ql, 0});  // label outside the ontology
    }
    size_t listed = 0;
    size_t in_data = 0;
    for (const LabelDistance& ld : ball) {
      bool present = index.LabelOccursInData(ld.label);
      if (present) ++in_data;
      if (present && listed < eopts.max_listed) {
        out << "    label " << dict.Name(ld.label)
            << "  sim=" << sim.SimAtDistance(ld.distance) << "\n";
        ++listed;
      }
    }
    out << "    " << ball.size() << " candidate label(s), " << in_data
        << " occur in the data graph\n";
  }

  // Filtering.
  WallTimer timer;
  FilterResult filter = GviewFilter(index, query, options);
  double filter_ms = timer.ElapsedMillis();
  out << "\nfiltering (Gview): " << filter_ms << " ms\n";
  out << "  signature pruning: node rejections="
      << filter.stats.sig_node_rejections
      << "; refinement pruned nodes=" << filter.stats.pruned_nodes << "\n";
  out << "  work: seed visits=" << filter.stats.seed_visits
      << ", fixpoint checks=" << filter.stats.fixpoint_checks << "\n";
  if (filter.no_match) {
    out << "  => no match possible: Q(G) is empty (Prop. 4.2)\n";
    return out.str();
  }
  out << "  G_v: " << filter.stats.gv_nodes << " nodes, "
      << filter.stats.gv_edges << " edges ("
      << (g.num_nodes() > 0
              ? 100.0 * static_cast<double>(filter.stats.gv_nodes) /
                    static_cast<double>(g.num_nodes())
              : 0.0)
      << "% of |V|)\n";
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    out << "  cand(q" << u << "): " << filter.candidates[u].size()
        << " node(s)";
    size_t listed = 0;
    for (const Candidate& c : filter.candidates[u]) {
      if (listed++ >= eopts.max_listed) {
        out << " ...";
        break;
      }
      NodeId orig = filter.gv.to_original[c.node];
      out << (listed == 1 ? ":  " : ", ") << "v" << orig << ":"
          << dict.Name(g.NodeLabel(orig)) << "(" << c.sim << ")";
    }
    out << "\n";
  }

  // Verification.
  timer.Restart();
  KMatchStats stats;
  std::vector<Match> matches = KMatch(query, filter, options, &stats);
  double verify_ms = timer.ElapsedMillis();
  out << "\nverification (KMatch): " << verify_ms << " ms; "
      << stats.search_steps << " search steps, " << stats.candidate_checks
      << " candidate checks, " << stats.matches_found
      << " matches found" << (stats.truncated ? " (truncated)" : "") << "\n";
  size_t listed = std::min(matches.size(), eopts.max_listed);
  for (size_t i = 0; i < listed; ++i) {
    out << "  #" << (i + 1) << " score=" << matches[i].score << " ";
    for (NodeId u = 0; u < query.num_nodes(); ++u) {
      NodeId v = matches[i].mapping[u];
      out << " q" << u << "->v" << v << ":" << dict.Name(g.NodeLabel(v));
    }
    out << "\n";
  }
  if (matches.size() > listed) {
    out << "  ... " << (matches.size() - listed) << " more\n";
  }
  return out.str();
}

}  // namespace osq
