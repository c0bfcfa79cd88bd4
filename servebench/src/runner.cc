#include "runner.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "core/filtering.h"
#include "core/kmatch.h"
#include "core/query_engine.h"
#include "core/snapshot.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/update_sink.h"
#include "serve/query_service.h"
#include "shard/sharded_query_service.h"
#include "trace.h"

namespace servebench {

namespace {

using osq::GraphUpdate;
using osq::Match;

// Timed passes of an untraced run.
constexpr size_t kPasses = 5;

// ---- answers ------------------------------------------------------------

// FNV-1a over 64-bit words.
constexpr uint64_t kDigestSeed = 1469598103934665603ULL;

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ULL;
  return h;
}

uint64_t AnswerDigest(const osq::QueryResult& r) {
  uint64_t h = kDigestSeed;
  h = Mix(h, static_cast<uint64_t>(r.status.code()));
  h = Mix(h, static_cast<uint64_t>(r.completeness));
  h = Mix(h, r.verify_stats.truncated ? 1 : 0);
  for (const Match& m : r.matches) {
    h = Mix(h, m.mapping.size());
    for (osq::NodeId v : m.mapping) h = Mix(h, v);
    uint64_t bits = 0;
    std::memcpy(&bits, &m.score, sizeof(bits));
    h = Mix(h, bits);
  }
  return h;
}

// The snapshot a served read observed, as one comparable key.
uint64_t VersionKey(const osq::ServedResult& r) { return r.version; }
uint64_t VersionKey(const osq::ShardedServedResult& r) {
  uint64_t h = kDigestSeed;
  for (uint64_t v : r.version.v) h = Mix(h, v);
  return h;
}

// ---- the serving tier under test ------------------------------------------

// A service plus its write path: sink and ingest pipeline.  Batches are
// cut only by Flush or by count (the linger timer is set beyond any run).
template <class Service, class Sink>
struct Tier {
  std::unique_ptr<Service> service;
  std::unique_ptr<Sink> sink;
  std::unique_ptr<osq::IngestPipeline> pipeline;  // destroyed first
};

osq::IngestOptions PipelineOptions() {
  osq::IngestOptions o;
  o.max_batch = size_t{1} << 20;
  o.max_linger_ms = 1e9;
  o.max_pending = 0;
  return o;
}

using SingleTier = Tier<osq::QueryService, osq::QueryServiceSink>;
using ShardedTier = Tier<osq::ShardedQueryService, osq::ShardedServiceSink>;

// Builds the tier from the generated data; *setup_s covers everything from
// the in-memory dataset to a service ready to answer, excluding the copy of
// the dataset the engine takes ownership of.
void Build(const WorkloadSpec& spec, const Data& data, SingleTier* tier,
           double* setup_s, double* shard_build_s) {
  osq::Graph graph = data.dataset.graph;
  osq::OntologyGraph ontology = data.dataset.ontology;
  const Clock::time_point t0 = Clock::now();
  tier->service = std::make_unique<osq::QueryService>(
      osq::QueryEngine(std::move(graph), std::move(ontology),
                       osq::IndexOptions{}),
      BenchServeOptions(spec));
  tier->sink = std::make_unique<osq::QueryServiceSink>(tier->service.get());
  tier->pipeline = std::make_unique<osq::IngestPipeline>(tier->sink.get(),
                                                         PipelineOptions());
  *setup_s = MicrosBetween(t0, Clock::now()) * 1e-6;
  *shard_build_s = 0.0;
}

void Build(const WorkloadSpec& spec, const Data& data, ShardedTier* tier,
           double* setup_s, double* shard_build_s) {
  osq::ShardOptions shard_options;
  shard_options.num_shards = spec.shards;
  shard_options.policy = osq::ShardPolicy::kRange;
  shard_options.halo_radius = kHalo;
  const Clock::time_point t0 = Clock::now();
  tier->service = std::make_unique<osq::ShardedQueryService>(
      data.dataset.graph, data.dataset.ontology, osq::IndexOptions{},
      shard_options, BenchServeOptions(spec));
  const Clock::time_point t1 = Clock::now();
  tier->sink = std::make_unique<osq::ShardedServiceSink>(tier->service.get());
  tier->pipeline = std::make_unique<osq::IngestPipeline>(tier->sink.get(),
                                                         PipelineOptions());
  *setup_s = MicrosBetween(t0, Clock::now()) * 1e-6;
  *shard_build_s = MicrosBetween(t0, t1) * 1e-6;
}

size_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      size_t n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

// ---- the closed-loop client ---------------------------------------------

struct ReadRecord {
  double latency_us = 0.0;
  double wait_us = 0.0;
  // The engine's own phase timers (filter + verify) inside this call.
  double engine_us = 0.0;
  bool hit = false;
  bool truncated = false;
  uint64_t digest = 0;
  std::vector<Match> matches;
  osq::FilterStats filter;
  osq::KMatchStats verify;
};

struct PassResult {
  // Indexed by op position; only read ops have meaningful entries.
  std::vector<ReadRecord> reads;
  std::vector<double> visible_us;  // per write batch: first Submit -> Flush
  std::vector<double> submit_us;   // per Submit call
  size_t failed = 0;               // error status, shed, partial, hit != miss
  size_t attempted = 0;
  double read_us = 0.0;            // summed client-side read latency
  size_t num_reads = 0;
  size_t hits = 0;
  uint64_t digest = kDigestSeed;
  size_t threads_peak = 0;
  osq::IngestStats ingest;
  osq::ServeStats serve;

  double qps() const {
    return Ratio(static_cast<double>(num_reads), read_us * 1e-6);
  }
};

// Submits one batch and flushes it; returns false when the pipeline
// refused an update.
bool WriteBatch(osq::IngestPipeline* pipeline,
                const std::vector<GraphUpdate>& batch, uint32_t request,
                Tracer* tracer, PassResult* out) {
  bool ok = true;
  const Clock::time_point t0 = Clock::now();
  for (const GraphUpdate& u : batch) {
    const Clock::time_point s0 = Clock::now();
    ok = pipeline->Submit(u) && ok;
    out->submit_us.push_back(MicrosBetween(s0, Clock::now()));
  }
  pipeline->Flush();
  const Clock::time_point t1 = Clock::now();
  out->visible_us.push_back(MicrosBetween(t0, t1));
  if (tracer != nullptr) {
    tracer->Record(request, SpanName::kIngestBatch, t0, t1);
  }
  return ok;
}

template <class TierT>
void Warmup(const Stream& stream, TierT* tier) {
  const osq::QueryOptions query = BenchQueryOptions();
  for (int round = 0; round < 2; ++round) {
    for (const osq::Graph& q : stream.warmup) {
      (void)tier->service->Query(q, query);  // untimed; answer unused
    }
  }
}

// Drives the stream through `tier`, one request at a time.  `tracer`
// (optional) records a serve.query / ingest.batch span per request.
template <class TierT>
PassResult Drive(const Stream& stream, TierT* tier, Tracer* tracer) {
  const osq::QueryOptions query = BenchQueryOptions();
  PassResult r;
  r.reads.resize(stream.ops.size());
  // Per query: snapshot key and digest of its last miss, so every hit can
  // be checked against the miss that filled the cache entry.
  std::vector<uint64_t> miss_version(stream.queries.size(), 0);
  std::vector<uint64_t> miss_digest(stream.queries.size(), 0);
  std::vector<char> missed(stream.queries.size(), 0);
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    const Op& op = stream.ops[i];
    const uint32_t request = static_cast<uint32_t>(i);
    ++r.attempted;
    if (op.write) {
      if (!WriteBatch(tier->pipeline.get(), stream.batches[op.index], request,
                      tracer, &r)) {
        ++r.failed;
      }
      continue;
    }
    const osq::Graph& q = stream.queries[op.index];
    const Clock::time_point t0 = Clock::now();
    auto served = tier->service->Query(q, query);
    const Clock::time_point t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->Record(request, SpanName::kServeQuery, t0, t1);
    }

    ReadRecord& rec = r.reads[i];
    rec.latency_us = MicrosBetween(t0, t1);
    rec.wait_us = served.wait_us;
    rec.engine_us =
        (served.result.filter_ms + served.result.verify_ms) * 1e3;
    rec.hit = served.cache_hit;
    rec.truncated = served.result.verify_stats.truncated;
    rec.digest = AnswerDigest(served.result);
    rec.filter = served.result.filter_stats;
    rec.verify = served.result.verify_stats;
    rec.matches = std::move(served.result.matches);
    r.read_us += rec.latency_us;
    ++r.num_reads;
    r.digest = Mix(r.digest, rec.digest);

    bool ok = !served.shed && served.result.status.ok() &&
              served.result.complete();
    const uint64_t version = VersionKey(served);
    if (rec.hit) {
      ++r.hits;
      ok = ok && missed[op.index] != 0 &&
           miss_version[op.index] == version &&
           miss_digest[op.index] == rec.digest;
    } else {
      missed[op.index] = 1;
      miss_version[op.index] = version;
      miss_digest[op.index] = rec.digest;
    }
    if (!ok) {
      ++r.failed;
      std::fprintf(stderr,
                   "servebench: read %zu (query %u) failed: status %s, shed "
                   "%d, hit %d, complete %d\n",
                   i, op.index, served.result.status.ToString().c_str(),
                   served.shed ? 1 : 0, rec.hit ? 1 : 0,
                   served.result.complete() ? 1 : 0);
    }
  }
  r.threads_peak = ProcessThreads();
  return r;
}

// The write-visibility phase of read-only workloads: batches back to
// back after every read has returned.
template <class TierT>
void Probe(const Stream& stream, TierT* tier, Tracer* tracer, PassResult* r) {
  for (size_t b = 0; b < stream.probe.size(); ++b) {
    ++r->attempted;
    const uint32_t request = static_cast<uint32_t>(stream.ops.size() + b);
    if (!WriteBatch(tier->pipeline.get(), stream.probe[b], request, tracer,
                    r)) {
      ++r->failed;
    }
  }
}

template <class TierT>
void FinishPass(TierT* tier, PassResult* r) {
  tier->pipeline->Stop();
  r->ingest = tier->pipeline->Stats();
  r->serve = tier->service->Stats();
  if (r->ingest.rejected > 0) r->failed += r->ingest.rejected;
}

// ---- the single-engine oracle -------------------------------------------

struct ReplayResult {
  size_t mismatches = 0;
  // Aggregates over reads that were misses in the served pass (the reads
  // on which the service's engine did work).
  size_t misses = 0;
  size_t truncated = 0;
  size_t returned = 0;
  osq::FilterStats filter;
  osq::KMatchStats verify;
  osq::MaintenanceStats maint;
  std::vector<double> maint_ms;
};

struct Evaluation {
  std::vector<Match> matches;
  osq::FilterStats filter;
  osq::KMatchStats verify;
};

// QueryEngine::Query spelled out through the layers' public functions so
// each layer gets its own span.
Evaluation Evaluate(const osq::QueryEngine& engine, const osq::Graph& q,
                    const osq::QueryOptions& options, uint32_t request,
                    Tracer* tracer) {
  Evaluation e;
  const Clock::time_point t0 = Clock::now();
  osq::FilterResult filter = osq::GviewFilter(engine.index(), q, options);
  const Clock::time_point t1 = Clock::now();
  e.matches = osq::KMatch(q, filter, options, &e.verify);
  const Clock::time_point t2 = Clock::now();
  e.filter = filter.stats;
  if (tracer != nullptr) {
    tracer->Record(request, SpanName::kCoreEngine, t0, t2);
    tracer->Record(request, SpanName::kCoreGview, t0, t1);
    tracer->Record(request, SpanName::kCoreKmatch, t1, t2);
  }
  return e;
}

void Accumulate(const Evaluation& e, ReplayResult* out) {
  ++out->misses;
  out->filter.initial_blocks += e.filter.initial_blocks;
  out->filter.pruned_blocks += e.filter.pruned_blocks;
  out->filter.pruned_nodes += e.filter.pruned_nodes;
  out->filter.sig_block_rejections += e.filter.sig_block_rejections;
  out->filter.sig_node_rejections += e.filter.sig_node_rejections;
  out->filter.gv_nodes += e.filter.gv_nodes;
  out->verify.search_steps += e.verify.search_steps;
  out->verify.matches_found += e.verify.matches_found;
  if (e.verify.truncated) ++out->truncated;
  out->returned += e.matches.size();
}

void ApplyToOracle(osq::QueryEngine* oracle,
                   const std::vector<GraphUpdate>& batch, uint32_t request,
                   Tracer* tracer, ReplayResult* out) {
  const Clock::time_point t0 = Clock::now();
  osq::MaintenanceStats m = oracle->ApplyUpdates(batch);
  const Clock::time_point t1 = Clock::now();
  if (tracer != nullptr) {
    tracer->Record(request, SpanName::kCoreMaintenance, t0, t1);
  }
  out->maint_ms.push_back(MicrosBetween(t0, t1) * 1e-3);
  out->maint.applied += m.applied;
  out->maint.skipped += m.skipped;
  out->maint.aff_blocks += m.aff_blocks;
  out->maint.splits += m.splits;
  out->maint.merges += m.merges;
}

// Re-evaluates the served reads on `oracle`, a single engine built from
// the same data, at the same snapshot: the stream's write batches are
// applied to it at their positions.  Compares every answer bit for bit.
// With every_read off, each (query, snapshot) is evaluated once and later
// reads of it compare against that evaluation.
ReplayResult Replay(const Stream& stream, const PassResult& served,
                    osq::QueryEngine* oracle, bool every_read,
                    Tracer* tracer) {
  const osq::QueryOptions query = BenchQueryOptions();
  ReplayResult out;
  std::vector<Evaluation> known(stream.queries.size());
  std::vector<size_t> known_epoch(stream.queries.size(), SIZE_MAX);
  size_t epoch = 0;
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    const Op& op = stream.ops[i];
    if (op.write) {
      ApplyToOracle(oracle, stream.batches[op.index],
                    static_cast<uint32_t>(i), tracer, &out);
      ++epoch;
      continue;
    }
    const ReadRecord& rec = served.reads[i];
    if (every_read || known_epoch[op.index] != epoch) {
      known[op.index] = Evaluate(*oracle, stream.queries[op.index], query,
                                 static_cast<uint32_t>(i), tracer);
      known_epoch[op.index] = epoch;
    }
    const Evaluation& e = known[op.index];
    if (!rec.hit) Accumulate(e, &out);
    if (e.matches != rec.matches || e.verify.truncated != rec.truncated) {
      ++out.mismatches;
      std::fprintf(stderr,
                   "servebench: read %zu (query %u) differs from the oracle: "
                   "%zu vs %zu matches, truncated %d vs %d\n",
                   i, op.index, rec.matches.size(), e.matches.size(),
                   rec.truncated ? 1 : 0, e.verify.truncated ? 1 : 0);
    }
  }
  return out;
}

// ---- reporting helpers ----------------------------------------------------

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

size_t Nproc() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

// Stream-derived counts: identical for every run of one seed.
struct Counts {
  size_t reads = 0, hits = 0, truncated = 0, search_steps = 0, gv_nodes = 0;
  uint64_t batches = 0, applied = 0, coalesced = 0;
};

Counts CountsOf(const Stream& stream, const PassResult& r) {
  Counts c;
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    if (stream.ops[i].write) continue;
    const ReadRecord& rec = r.reads[i];
    ++c.reads;
    if (rec.hit) {
      ++c.hits;
      continue;
    }
    if (rec.truncated) ++c.truncated;
    c.search_steps += rec.verify.search_steps;
    c.gv_nodes += rec.filter.gv_nodes;
  }
  c.batches = r.ingest.batches;
  c.applied = r.ingest.applied;
  c.coalesced = r.ingest.coalesced;
  return c;
}

std::string DigestHex(uint64_t d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

// ---- one run ---------------------------------------------------------------

std::unique_ptr<osq::QueryEngine> BuildOracle(const Data& data) {
  return std::make_unique<osq::QueryEngine>(
      data.dataset.graph, data.dataset.ontology, osq::IndexOptions{});
}

// Saves the engine as a v2 snapshot, times loading it back, and removes
// the file.  Returns false when either step fails.
bool SnapshotRoundTrip(const osq::QueryEngine& engine,
                       const osq::LabelDictionary& dict,
                       const std::string& path, double* load_ms) {
  osq::Status saved = osq::SaveEngineSnapshot(engine, dict, path);
  if (!saved.ok()) {
    std::fprintf(stderr, "servebench: snapshot save: %s\n",
                 saved.ToString().c_str());
    return false;
  }
  osq::LabelDictionary loaded_dict;
  std::unique_ptr<osq::QueryEngine> loaded;
  const Clock::time_point t0 = Clock::now();
  osq::Status st = osq::LoadEngineSnapshot(path, &loaded_dict, &loaded);
  *load_ms = MicrosBetween(t0, Clock::now()) * 1e-3;
  loaded.reset();
  std::remove(path.c_str());
  if (!st.ok()) {
    std::fprintf(stderr, "servebench: snapshot load: %s\n",
                 st.ToString().c_str());
  }
  return st.ok();
}

// The traced run: a fresh tier serves the same stream with serve.query /
// ingest.batch spans, then the oracle replays every request with
// core.engine > core.gview / core.kmatch and core.maintenance spans and
// checks every answer.  Returns the per-layer metrics; failures and
// mismatches are added to *failed.
template <class TierT>
std::vector<Metric> TracedRun(const WorkloadSpec& spec, const Data& data,
                              const Stream& stream, const RunOptions& options,
                              const PassResult& timed,
                              const std::vector<double>& shard_build_s,
                              PassResult* traced_out, size_t* failed) {
  Tracer tracer;
  tracer.Reserve(stream.ops.size() * 4 + stream.probe.size() * 2);
  PassResult& traced = *traced_out;
  {
    TierT tier;
    double setup_s = 0.0, build_s = 0.0;
    Build(spec, data, &tier, &setup_s, &build_s);
    Warmup(stream, &tier);
    traced = Drive(stream, &tier, &tracer);
    Probe(stream, &tier, &tracer, &traced);
    FinishPass(&tier, &traced);
  }
  *failed += traced.failed;
  if (traced.digest != timed.digest) {
    std::fprintf(stderr, "servebench: traced answers differ from timed ones\n");
    ++*failed;
  }

  std::unique_ptr<osq::QueryEngine> oracle = BuildOracle(data);
  ReplayResult replay = Replay(stream, traced, oracle.get(), true, &tracer);
  *failed += replay.mismatches;
  double snapshot_load_ms = 0.0;
  if (spec.snapshot_probe &&
      !SnapshotRoundTrip(*oracle, data.dataset.dict,
                         options.work_dir + "/" + spec.name + ".snap",
                         &snapshot_load_ms)) {
    ++*failed;
  }
  for (size_t b = 0; b < stream.probe.size(); ++b) {
    ApplyToOracle(oracle.get(), stream.probe[b],
                  static_cast<uint32_t>(stream.ops.size() + b), &tracer,
                  &replay);
  }
  if (!tracer.WriteJsonLines(options.work_dir + "/trace-" + spec.name + "-" +
                             std::to_string(options.seed) + ".jsonl")) {
    std::fprintf(stderr, "servebench: could not write the span dump\n");
  }

  // Span aggregates over the reads that missed in the traced pass.
  std::vector<std::pair<uint32_t, double>> miss_serve_us;
  std::vector<double> gview_ms, kmatch_ms, hit_us;
  double gview_us = 0.0, kmatch_us = 0.0, engine_total_us = 0.0;
  double serve_miss_us = 0.0;
  for (const Span& s : tracer.spans()) {
    const bool read =
        s.request < stream.ops.size() && !stream.ops[s.request].write;
    if (!read) continue;
    const bool miss = !traced.reads[s.request].hit;
    if (s.name == SpanName::kServeQuery) {
      if (miss) {
        miss_serve_us.emplace_back(s.request, s.micros());
        serve_miss_us += s.micros();
      } else {
        hit_us.push_back(s.micros());
      }
    } else if (miss && s.name == SpanName::kCoreEngine) {
      engine_total_us += s.micros();
    } else if (miss && s.name == SpanName::kCoreGview) {
      gview_ms.push_back(s.micros() * 1e-3);
      gview_us += s.micros();
    } else if (miss && s.name == SpanName::kCoreKmatch) {
      kmatch_ms.push_back(s.micros() * 1e-3);
      kmatch_us += s.micros();
    }
  }
  // Front-end cost of a miss: the client-side span minus the engine time
  // the service reported for that same call (replayed spans are separate
  // executions, too noisy for a microsecond difference).
  std::vector<double> overhead_us;
  for (const auto& [request, us] : miss_serve_us) {
    overhead_us.push_back(us - traced.reads[request].engine_us);
  }
  double wait_us = 0.0;
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    if (!stream.ops[i].write) wait_us += traced.reads[i].wait_us;
  }
  const auto d = [](auto v) { return static_cast<double>(v); };
  const double updates = d(replay.maint.applied);
  const double qps = timed.qps();
  const double nodes_x_graphs = d(data.dataset.graph.num_nodes()) *
                                d(oracle->index().num_concept_graphs());
  const osq::FilterStats& f = replay.filter;
  const osq::KMatchStats& k = replay.verify;
  return {
      {"index.build_s", oracle->index_build_ms() * 1e-3, "s"},
      {"index.blocks_per_node",
       Ratio(d(oracle->build_stats().total_blocks), nodes_x_graphs), "ratio"},
      {"gview.ms_p50", Quantile(gview_ms, 0.5), "ms"},
      {"gview.ms_total", gview_us * 1e-3, "ms"},
      {"gview.share", Ratio(gview_us, engine_total_us), "frac"},
      {"gview.initial_blocks", d(f.initial_blocks), "count"},
      {"gview.sig_block_rejections", d(f.sig_block_rejections), "count"},
      {"gview.pruned_blocks", d(f.pruned_blocks), "count"},
      {"gview.sig_node_rejections", d(f.sig_node_rejections), "count"},
      {"gview.pruned_nodes", d(f.pruned_nodes), "count"},
      {"gview.gv_nodes", d(f.gv_nodes), "count"},
      {"gview.gv_nodes_per_match", Ratio(d(f.gv_nodes), d(replay.returned)),
       "ratio"},
      {"kmatch.ms_p50", Quantile(kmatch_ms, 0.5), "ms"},
      {"kmatch.ms_total", kmatch_us * 1e-3, "ms"},
      {"kmatch.share", Ratio(kmatch_us, engine_total_us), "frac"},
      {"kmatch.search_steps", d(k.search_steps), "count"},
      {"kmatch.matches_found", d(k.matches_found), "count"},
      {"kmatch.truncated_frac", Ratio(d(replay.truncated), d(replay.misses)),
       "frac"},
      {"kmatch.matches_per_kstep",
       Ratio(d(k.matches_found), d(k.search_steps) * 1e-3), "ratio"},
      {"serve.cache_hit_frac", Ratio(d(traced.hits), d(traced.num_reads)),
       "frac"},
      {"serve.hit_p50_us", Quantile(hit_us, 0.5), "us"},
      {"serve.miss_overhead_us_p50", Quantile(overhead_us, 0.5), "us"},
      {"serve.read_wait_us_mean", Ratio(wait_us, d(traced.num_reads)), "us"},
      {"serve.invalidations_per_batch",
       Ratio(d(traced.serve.cache_invalidations),
             d(traced.serve.update_batches)),
       "ratio"},
      {"shard.coordinator_ratio", Ratio(serve_miss_us, engine_total_us),
       "ratio"},
      {"shard.build_s", Quantile(shard_build_s, 0.5), "s"},
      {"ingest.submit_us_p50", Quantile(traced.submit_us, 0.5), "us"},
      {"ingest.apply_ms_per_batch",
       Ratio(traced.ingest.apply_ms, d(traced.ingest.batches)), "ms"},
      {"ingest.coalesced_frac",
       Ratio(d(traced.ingest.coalesced), d(traced.ingest.submitted)), "frac"},
      {"ingest.batches", d(traced.ingest.batches), "count"},
      {"maint.apply_ms_p50", Quantile(replay.maint_ms, 0.5), "ms"},
      {"maint.aff_blocks_per_update",
       Ratio(d(replay.maint.aff_blocks), updates), "ratio"},
      {"maint.splits_per_update", Ratio(d(replay.maint.splits), updates),
       "ratio"},
      {"maint.merges_per_update", Ratio(d(replay.maint.merges), updates),
       "ratio"},
      {"snapshot.load_ms", snapshot_load_ms, "ms"},
      {"trace.overhead_frac", Ratio(qps - traced.qps(), qps), "frac"},
      {"trace.unaccounted_frac",
       1.0 - Ratio(gview_us + kmatch_us, serve_miss_us), "frac"},
  };
}

// Per-request median over the passes: each read (write batch) of the
// stream, timed on every pass, contributes its median time, so a burst of
// machine noise during one pass does not move the result.
std::vector<double> MedianReadMs(const Stream& stream,
                                 const std::vector<PassResult>& runs) {
  std::vector<double> out;
  std::vector<double> samples(runs.size());
  for (size_t i = 0; i < stream.ops.size(); ++i) {
    if (stream.ops[i].write) continue;
    for (size_t p = 0; p < runs.size(); ++p) {
      samples[p] = runs[p].reads[i].latency_us;
    }
    out.push_back(Quantile(samples, 0.5) * 1e-3);
  }
  return out;
}

std::vector<double> MedianVisibleMs(const std::vector<PassResult>& runs) {
  std::vector<double> out;
  std::vector<double> samples(runs.size());
  for (size_t b = 0; b < runs.front().visible_us.size(); ++b) {
    for (size_t p = 0; p < runs.size(); ++p) {
      samples[p] = runs[p].visible_us[b];
    }
    out.push_back(Quantile(samples, 0.5) * 1e-3);
  }
  return out;
}

template <class TierT>
Outcome Run(const WorkloadSpec& spec, const RunOptions& options) {
  const Data data = MakeData(spec);
  const Stream stream = MakeStream(spec, data, options.seed, options.seconds);

  // Timed passes: each builds a fresh tier (timed as set-up), warms it up
  // and drives the whole stream through it, so every pass sees the same
  // cache hit/miss sequence and the same snapshots.  A traced run makes two
  // and compares the traced pass with the second: the first pass of a
  // process ran up to 20% slower on the sharded tier.
  const size_t passes = options.trace ? 2 : kPasses;
  std::vector<double> setup_s;
  std::vector<double> shard_build_s;
  // Set-up alone, repeated where a short set-up needs more samples than
  // there are passes for a steady median.
  for (size_t i = 0; i < spec.extra_setups && !options.trace; ++i) {
    TierT tier;
    double s = 0.0, b = 0.0;
    Build(spec, data, &tier, &s, &b);
    setup_s.push_back(s);
    shard_build_s.push_back(b);
  }
  std::vector<PassResult> runs;
  for (size_t p = 0; p < passes; ++p) {
    TierT tier;
    double s = 0.0, b = 0.0;
    Build(spec, data, &tier, &s, &b);
    setup_s.push_back(s);
    shard_build_s.push_back(b);
    Warmup(stream, &tier);
    PassResult r = Drive(stream, &tier, nullptr);
    Probe(stream, &tier, nullptr, &r);
    FinishPass(&tier, &r);
    runs.push_back(std::move(r));
  }
  const double peak_rss_mb = PeakRssMb();
  const PassResult& timed = runs.front();

  Outcome out;
  size_t failed = 0;
  for (const PassResult& r : runs) {
    out.attempted += r.attempted;
    failed += r.failed;
    if (r.digest != timed.digest) {
      std::fprintf(stderr, "servebench: passes returned different answers\n");
      ++failed;
    }
  }
  PassResult traced;
  if (!options.trace) {
    std::unique_ptr<osq::QueryEngine> oracle = BuildOracle(data);
    failed += Replay(stream, timed, oracle.get(), false, nullptr).mismatches;
    const std::vector<double> read_ms = MedianReadMs(stream, runs);
    const std::vector<double> visible_ms = MedianVisibleMs(runs);
    out.metrics = {
        {"setup_s", Quantile(setup_s, 0.5), "s"},
        {"query_p50_ms", Quantile(read_ms, 0.5), "ms"},
        {"query_p95_ms", Quantile(read_ms, 0.95), "ms"},
        {"query_qps", Ratio(static_cast<double>(read_ms.size()),
                            Sum(read_ms) * 1e-3),
         "1/s"},
        {"update_visible_p50_ms", Quantile(visible_ms, 0.5), "ms"},
        {"update_visible_p95_ms", Quantile(visible_ms, 0.95), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    out.metrics = TracedRun<TierT>(spec, data, stream, options, runs.back(),
                                   shard_build_s, &traced, &failed);
    out.attempted += traced.attempted;
  }
  out.failed = failed;

  // The traced pass replays the whole stream, probe included.
  const Counts counts = CountsOf(stream, options.trace ? traced : timed);
  std::string info = "{\"workload\": \"" + spec.name + "\"";
  info += ", \"seed\": " + std::to_string(options.seed);
  info += ", \"seconds\": " + std::to_string(options.seconds);
  info += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  info += ", \"nproc\": " + std::to_string(Nproc());
  info += ", \"threads_peak\": " + std::to_string(timed.threads_peak);
  info += ", \"nodes\": " + std::to_string(data.dataset.graph.num_nodes());
  info += ", \"edges\": " + std::to_string(data.dataset.graph.num_edges());
  info += ", \"distinct_queries\": " + std::to_string(stream.queries.size());
  info += ", \"pool_excluded\": " + std::to_string(spec.excluded.size());
  info += ", \"reads\": " + std::to_string(counts.reads);
  info += ", \"hits\": " + std::to_string(counts.hits);
  info += ", \"truncated\": " + std::to_string(counts.truncated);
  info += ", \"search_steps\": " + std::to_string(counts.search_steps);
  info += ", \"gv_nodes\": " + std::to_string(counts.gv_nodes);
  info += ", \"batches\": " + std::to_string(counts.batches);
  info += ", \"applied\": " + std::to_string(counts.applied);
  info += ", \"coalesced\": " + std::to_string(counts.coalesced);
  info += ", \"failed\": " + std::to_string(out.failed);
  info += ", \"digest\": \"" + DigestHex(timed.digest) + "\"";
  info += "}";
  out.info_json = info;
  return out;
}

}  // namespace

Outcome RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  if (spec.shards > 0) return Run<ShardedTier>(spec, options);
  return Run<SingleTier>(spec, options);
}

}  // namespace servebench
