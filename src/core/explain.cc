#include "core/explain.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "core/filtering.h"
#include "core/query_engine.h"

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

  // The evaluation is QueryEngine::Query's own; this function only
  // formats it.  A rejected request is reported with its status.
  std::optional<FilterResult> filter;
  QueryResult result = EvaluateQuery(index, query, options, {}, &filter);
  if (!result.status.ok()) {
    out << "rejected: " << result.status.ToString() << "\n";
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

  if (!filter.has_value()) {
    out << "\nstopped before filtering: "
        << StopReasonName(result.completeness) << "\n";
    return out.str();
  }

  // Filtering.
  const FilterStats& fstats = filter->stats;
  out << "\nfiltering (Gview): " << result.filter_ms << " ms";
  if (fstats.stopped != StopReason::kNone) {
    out << " [" << StopReasonName(fstats.stopped) << "]";
  }
  out << "\n";
  out << "  signature pruning: node rejections=" << fstats.sig_node_rejections
      << "; refinement pruned nodes=" << fstats.pruned_nodes << "\n";
  out << "  work: seed visits=" << fstats.seed_visits
      << ", fixpoint checks=" << fstats.fixpoint_checks << "\n";
  if (filter->no_match) {
    out << (fstats.stopped == StopReason::kNone
                ? "  => no match possible: Q(G) is empty (Prop. 4.2)\n"
                : "  => stopped early: a partial answer, not a proof\n");
    return out.str();
  }
  out << "  G_v: " << fstats.gv_nodes << " nodes, " << fstats.gv_edges
      << " edges ("
      << (g.num_nodes() > 0
              ? 100.0 * static_cast<double>(fstats.gv_nodes) /
                    static_cast<double>(g.num_nodes())
              : 0.0)
      << "% of |V|)\n";
  for (NodeId u = 0; u < query.num_nodes(); ++u) {
    out << "  cand(q" << u << "): " << filter->candidates[u].size()
        << " node(s)";
    size_t listed = 0;
    for (const Candidate& c : filter->candidates[u]) {
      if (listed++ >= eopts.max_listed) {
        out << " ...";
        break;
      }
      NodeId orig = filter->gv.to_original[c.node];
      out << (listed == 1 ? ":  " : ", ") << "v" << orig << ":"
          << dict.Name(g.NodeLabel(orig)) << "(" << c.sim << ")";
    }
    out << "\n";
  }

  // Verification.
  const KMatchStats& stats = result.verify_stats;
  const std::vector<Match>& matches = result.matches;
  out << "\nverification (KMatch): " << result.verify_ms << " ms; "
      << stats.search_steps << " search steps, " << stats.candidate_checks
      << " candidate checks, " << stats.matches_found
      << " matches found" << (stats.truncated ? " (truncated)" : "") << "; "
      << StopReasonName(result.completeness) << "\n";
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
