// Workload definitions and seed-driven request streams.
//
// A workload fixes the dataset (scenario, size, data seed), the serving
// configuration and the shape of the client's request stream.  The
// benchmark's --seed then generates the whole stream over the workload's
// fixed query set: the read order (a permutation, or draws over fixed
// popularity ranks), and where update batches sit between the reads and
// what they hold.  One
// seed therefore always yields the same requests, the same cache hit/miss
// sequence and the same applied updates; only the times differ from run
// to run.

#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/index_maintenance.h"
#include "core/options.h"
#include "gen/scenarios.h"
#include "graph/graph.h"

namespace servebench {

enum class Scenario { kCrossDomain, kCommunity };

enum class ReadMix {
  // The chosen queries in one seeded order, repeated pass after pass: the
  // reuse distance equals the number of distinct queries.
  kCyclic,
  // A Zipf-skewed hot set (exponent 1 over fixed ranks): each query's
  // number of reads is fixed, the seed only orders them.
  kZipf,
};

// Settings shared by every workload: theta 0.9 and k 10, halo radius 2 on
// the sharded tier.  They are pinned here rather than taken from the
// library's defaults, so the benchmark's work does not follow a change of
// those defaults.
inline constexpr uint32_t kHalo = 2;
osq::QueryOptions BenchQueryOptions();

struct WorkloadSpec {
  std::string name;
  Scenario scenario = Scenario::kCrossDomain;
  size_t scale = 0;        // approximate |V|
  uint64_t data_seed = 0;  // fixed: the dataset does not vary with --seed
  // The generator's queries per template, and the size of the pool they
  // yield after validation and de-duplication; a run whose pool has
  // another size exits without a result (its inputs would not be the
  // recorded ones).
  size_t queries_per_template = 0;
  size_t pool_size = 0;
  // Pool positions (in generator order) of queries left out of the
  // stream.  Each has a G_v of over 1500 nodes on the initial graph and
  // costs 0.1-2.4 s of KMatch per evaluation, which would swamp the
  // layers the workload is for.  The list is fixed, so the query set does
  // not depend on the code being measured.
  std::vector<size_t> excluded;
  // Keeps only queries the sharded tier admits (pivot eccentricity within
  // the halo), so workloads on one dataset share one pool whether they are
  // sharded or not.
  bool halo_admissible = false;
  // `warmup` pool queries are read untimed before the run, the rest make
  // up the timed stream.
  size_t warmup = 0;
  ReadMix mix = ReadMix::kCyclic;
  // Reads per requested second of run time.  The stream holds
  // seconds * reads_per_second reads (at least min_reads), a count fixed
  // before the run starts; no clock ever cuts it short.
  size_t reads_per_second = 0;
  size_t min_reads = 0;
  // Writes inside the stream: every write_period reads hold one batch of
  // gen::ChurnStream steps, after a read the seed picks; 0 for none.
  size_t write_period = 0;
  // gen::ChurnStream steps per write batch (about 1.2 updates a step).
  size_t churn_steps = 0;
  // Read-only workloads measure write visibility in a separate phase
  // after every read has returned: this many batches, no reads between.
  size_t probe_batches = 0;
  // Sharded serving (ShardedQueryService, range policy) when shards > 0.
  size_t shards = 0;
  // Entries of the LRU result cache; 0 turns the cache off.
  size_t cache_capacity = 0;
  // Build-only set-ups measured beside the one of each timed pass, where
  // a short set-up needs more samples for a steady median.
  size_t extra_setups = 0;
  // Saves and reloads a v2 snapshot in the traced run.
  bool snapshot_probe = false;
};

osq::ServeOptions BenchServeOptions(const WorkloadSpec& spec);

// The workloads, by name; nullptr when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// The generated dataset plus the fixed, de-duplicated query pool.
struct Data {
  osq::gen::Dataset dataset;
  std::vector<osq::Graph> pool;  // without the excluded queries
};

Data MakeData(const WorkloadSpec& spec);

struct Op {
  bool write = false;
  uint32_t index = 0;  // query id (into Stream::queries) or batch id
};

struct Stream {
  std::vector<osq::Graph> queries;  // the distinct queries of the stream
  std::vector<osq::Graph> warmup;   // disjoint from `queries`
  std::vector<Op> ops;
  std::vector<std::vector<osq::GraphUpdate>> batches;
  // Batches of the post-read write-visibility phase (read-only workloads).
  std::vector<std::vector<osq::GraphUpdate>> probe;
  size_t reads = 0;
};

Stream MakeStream(const WorkloadSpec& spec, const Data& data, uint64_t seed,
                  size_t seconds);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
