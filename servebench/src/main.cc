// servebench — closed-loop serving benchmark of the OSQ library.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>]
//
// Prints one JSON line of run information (seed, nproc, sizes and the
// stream-derived counts), then, as the last line, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  Exits 1 when any answer was wrong or any request failed,
// 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner.h"
#include "workload.h"

namespace {

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr, "servebench: %s\n", problem.c_str());
  std::fprintf(stderr,
               "usage: servebench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n");
  std::exit(2);
}

unsigned long long ParseNumber(const std::string& flag,
                               const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || end == nullptr || *end != '\0') {
    Usage(flag + " expects a whole number, got '" + text + "'");
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  servebench::RunOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = ParseNumber(flag, value);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = ParseNumber(flag, value);
    } else if (flag == "--trace") {
      const unsigned long long t = ParseNumber(flag, value);
      if (t > 1) Usage("--trace expects 0 or 1");
      options.trace = t == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  const servebench::WorkloadSpec* spec = servebench::FindWorkload(workload);
  if (spec == nullptr) {
    std::string known;
    for (const std::string& n : servebench::WorkloadNames()) known += " " + n;
    Usage("unknown workload '" + workload + "'; known:" + known);
  }
  if (!have_seed) Usage("--seed is required");
  if (options.seconds == 0) Usage("--seconds must be at least 1");

  const servebench::Outcome out = servebench::RunWorkload(*spec, options);
  std::printf("%s\n", out.info_json.c_str());
  std::string metrics;
  for (const servebench::Metric& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
      "\"metrics\": {%s}}\n",
      out.failed == 0 ? "true" : "false", out.attempted, out.failed,
      metrics.c_str());
  return out.failed == 0 ? 0 : 1;
}
