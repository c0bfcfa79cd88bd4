// Runs one workload in this process: set-up, warm-up, the timed closed
// loop, the oracle replay and (traced runs only) the per-layer trace.

#ifndef SERVEBENCH_RUNNER_H_
#define SERVEBENCH_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace servebench {

struct RunOptions {
  uint64_t seed = 1;
  size_t seconds = 10;
  bool trace = false;
  // Directory for the span dump and the snapshot round trip.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  size_t attempted = 0;
  size_t failed = 0;
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  // One JSON object: seed, nproc, sizes and the stream-derived counts.
  std::string info_json;
};

Outcome RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace servebench

#endif  // SERVEBENCH_RUNNER_H_
