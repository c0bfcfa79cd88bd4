// Fixture: a tier-0 module reaching up into the serving tiers and into the
// paper's concept module — all three includes are back-edges in the module
// DAG (osq-layering).  The `layering_core` stem classifies this file as
// module `core`.
#include "concept/concept_index.h"
#include "serve/query_service.h"
#include "shard/partitioner.h"

#include "graph/graph.h"

namespace fixture {

int UsesNothing() { return 0; }

}  // namespace fixture
