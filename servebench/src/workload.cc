#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <set>
#include <utility>

#include "common/rng.h"
#include "gen/churn.h"
#include "gen/workload.h"
#include "graph/query_graph.h"
#include "serve/result_cache.h"
#include "shard/partitioner.h"

namespace servebench {

namespace {

// Exponent of a Zipf read mix.
constexpr double kZipfExponent = 1.0;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  // Gview-bound: a large CrossDomain-like graph, every read a cache miss.
  WorkloadSpec cd;
  cd.name = "cd_filter";
  cd.scenario = Scenario::kCrossDomain;
  cd.scale = 128000;
  cd.data_seed = 11;
  cd.queries_per_template = 250;
  cd.pool_size = 1250;
  cd.excluded = {42, 154, 344, 366, 380, 561, 622, 633, 646};
  cd.warmup = 50;
  cd.mix = ReadMix::kCyclic;
  cd.reads_per_second = 60;
  cd.min_reads = 1000;
  cd.probe_batches = 200;
  cd.churn_steps = 32;
  cd.cache_capacity = 256;
  cd.snapshot_probe = true;
  specs.push_back(cd);

  // The Community-like dataset and query pool of the next two workloads.
  WorkloadSpec community;
  community.scenario = Scenario::kCommunity;
  community.scale = 32000;
  community.data_seed = 17;
  community.queries_per_template = 30;
  community.pool_size = 120;
  community.excluded = {62, 69, 70, 76, 83};
  community.halo_admissible = true;
  community.warmup = 20;
  community.min_reads = 300;
  community.extra_setups = 2;

  // Reads and writes: a cached hot set and churn batches through the
  // ingest pipeline into one engine.  Not sharded: the sharded tier's
  // answers after halo growth differ from one engine's (DESIGN.md, Known
  // failure).
  WorkloadSpec cc = community;
  cc.name = "community_churn";
  cc.mix = ReadMix::kZipf;
  cc.reads_per_second = 250;
  cc.write_period = 20;
  // Large batches (~1.5 ms of maintenance each), so that applying a batch
  // outweighs the hand-off to the ingest worker (DESIGN.md, Workloads).
  cc.churn_steps = 128;
  cc.cache_capacity = 256;
  specs.push_back(cc);

  // Scatter/merge: every read a cache miss on two range shards.  Writes
  // only in the visibility probe, after every read has returned.
  WorkloadSpec cs = community;
  cs.name = "community_shard";
  cs.mix = ReadMix::kCyclic;
  cs.reads_per_second = 200;
  cs.probe_batches = 200;
  cs.churn_steps = 32;
  cs.shards = 2;
  specs.push_back(cs);

  // community_churn on the sharded tier of community_shard.  Not listed in
  // BENCHMARK.json: it reproduces the sharded tier's wrong answers after
  // halo growth (DESIGN.md, Known failure) and exits 1 on many seeds.
  WorkloadSpec ccs = cc;
  ccs.name = "community_churn_sharded";
  ccs.shards = cs.shards;
  specs.push_back(ccs);
  return specs;
}

// The query ids of a Zipf mix's reads, in rank order: query r gets its
// share 1/(r+1)^s of all reads, rounded by largest remainder.
std::vector<uint32_t> ZipfReads(size_t queries, size_t reads) {
  std::vector<double> share(queries);
  double total = 0.0;
  for (size_t r = 0; r < queries; ++r) {
    share[r] = 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
    total += share[r];
  }
  std::vector<size_t> count(queries);
  std::vector<std::pair<double, size_t>> remainder;
  size_t assigned = 0;
  for (size_t r = 0; r < queries; ++r) {
    const double exact = static_cast<double>(reads) * share[r] / total;
    count[r] = static_cast<size_t>(exact);
    assigned += count[r];
    remainder.emplace_back(-(exact - static_cast<double>(count[r])), r);
  }
  std::sort(remainder.begin(), remainder.end());
  for (size_t i = 0; assigned < reads; ++i, ++assigned) {
    ++count[remainder[i].second];
  }
  std::vector<uint32_t> out;
  out.reserve(reads);
  for (size_t r = 0; r < queries; ++r) {
    out.insert(out.end(), count[r], static_cast<uint32_t>(r));
  }
  return out;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

osq::QueryOptions BenchQueryOptions() {
  osq::QueryOptions options;
  options.theta = 0.9;
  options.k = 10;
  return options;
}

osq::ServeOptions BenchServeOptions(const WorkloadSpec& spec) {
  osq::ServeOptions options;
  options.cache_capacity = spec.cache_capacity;
  return options;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.push_back(spec.name);
  return names;
}

Data MakeData(const WorkloadSpec& spec) {
  osq::gen::ScenarioParams params;
  params.scale = spec.scale;
  params.seed = spec.data_seed;
  osq::gen::Workload w;
  switch (spec.scenario) {
    case Scenario::kCrossDomain:
      w = osq::gen::MakeCrossDomainWorkload(params, spec.queries_per_template);
      break;
    case Scenario::kCommunity:
      w = osq::gen::MakeCommunityWorkload(params, spec.queries_per_template);
      break;
  }
  Data data;
  data.dataset = std::move(w.data);
  // The pool keeps each query once (by cache signature), so a cyclic
  // stream's reuse distance is exactly its number of distinct queries,
  // and only queries every tier accepts.
  const osq::QueryOptions query = BenchQueryOptions();
  std::set<std::string> seen;
  size_t position = 0;
  for (osq::gen::QueryTemplate& t : w.templates) {
    for (osq::Graph& q : t.queries) {
      if (!osq::ValidateQuery(q).ok()) continue;
      if (spec.halo_admissible && osq::ChoosePivot(q).eccentricity > kHalo) {
        continue;
      }
      if (!seen.insert(osq::QuerySignature(q, query)).second) continue;
      if (std::count(spec.excluded.begin(), spec.excluded.end(),
                     position++) == 0) {
        data.pool.push_back(std::move(q));
      }
    }
  }
  if (position != spec.pool_size) {
    Die(spec.name + ": the generator yields " + std::to_string(position) +
        " distinct queries, not the recorded " +
        std::to_string(spec.pool_size));
  }
  if (data.pool.size() <= spec.warmup) {
    Die(spec.name + ": query pool holds only " +
        std::to_string(data.pool.size()) + " queries");
  }
  return data;
}

Stream MakeStream(const WorkloadSpec& spec, const Data& data, uint64_t seed,
                  size_t seconds) {
  // The split of the pool into warm-up and timed queries is fixed per
  // workload, so every seed reads the same query set: latency quantiles
  // then depend on the code, not on which queries a seed happened to draw.
  std::vector<size_t> order(data.pool.size());
  std::iota(order.begin(), order.end(), size_t{0});
  osq::Rng split_rng(spec.data_seed);
  split_rng.Shuffle(&order);
  Stream s;
  for (size_t i = 0; i < order.size(); ++i) {
    (i < spec.warmup ? s.warmup : s.queries).push_back(data.pool[order[i]]);
  }

  // Everything else comes from the seed: the read order (a cyclic mix's
  // permutation, the order of a Zipf mix's fixed read counts over ranks
  // fixed with the split), where the write batches fall and what they
  // contain.  The numbers of reads per query and of batches do not vary,
  // so the figures of different seeds stay comparable.
  osq::Rng rng(seed * 0x9E3779B97F4A7C15ULL + spec.data_seed);
  osq::gen::ChurnParams churn_params;
  churn_params.seed = seed * 1000003ULL + 7;
  osq::gen::ChurnStream churn(data.dataset.graph, churn_params);

  s.reads = std::max(spec.min_reads, seconds * spec.reads_per_second);
  std::vector<uint32_t> reads;
  if (spec.mix == ReadMix::kCyclic) {
    rng.Shuffle(&s.queries);
    for (size_t i = 0; i < s.reads; ++i) {
      reads.push_back(static_cast<uint32_t>(i % s.queries.size()));
    }
  } else {
    reads = ZipfReads(s.queries.size(), s.reads);
    rng.Shuffle(&reads);
  }
  size_t write_after = 0;
  s.ops.reserve(s.reads + s.reads / 8);
  for (size_t i = 0; i < s.reads; ++i) {
    s.ops.push_back({false, reads[i]});
    if (spec.write_period == 0) continue;
    if (i % spec.write_period == 0) {
      write_after = i + rng.Index(spec.write_period);
    }
    if (i == write_after) {
      s.ops.push_back({true, static_cast<uint32_t>(s.batches.size())});
      s.batches.push_back(churn.Next(spec.churn_steps));
    }
  }
  for (size_t i = 0; i < spec.probe_batches; ++i) {
    s.probe.push_back(churn.Next(spec.churn_steps));
  }
  return s;
}

}  // namespace servebench
