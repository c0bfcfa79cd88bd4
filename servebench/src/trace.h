// In-memory span recorder and the small statistics helpers the report
// uses.  Spans are recorded by the benchmark around its own calls into
// each layer; nothing inside the library is instrumented.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Span names.  The tree of one read is
//   serve.query > core.engine > {core.gview, core.kmatch}
// and of one write batch
//   ingest.batch > core.maintenance
// where the core.* spans come from the oracle replay of the same request
// at the same snapshot.
enum class SpanName : uint8_t {
  kServeQuery,
  kCoreEngine,
  kCoreGview,
  kCoreKmatch,
  kIngestBatch,
  kCoreMaintenance,
};

const char* SpanNameString(SpanName name);
// The parent of `name` in the span tree above, or nullptr for roots.
const char* SpanParentString(SpanName name);

struct Span {
  uint32_t request = 0;  // shared by every span of one request
  SpanName name = SpanName::kServeQuery;
  Clock::time_point start;
  Clock::time_point end;

  double micros() const { return MicrosBetween(start, end); }
};

class Tracer {
 public:
  void Record(uint32_t request, SpanName name, Clock::time_point start,
              Clock::time_point end) {
    spans_.push_back(Span{request, name, start, end});
  }
  const std::vector<Span>& spans() const { return spans_; }
  void Reserve(size_t n) { spans_.reserve(n); }

  // Writes one JSON object per span (times relative to the first span).
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Linear-interpolated quantile of `values` (copied and sorted), 0 when
// empty.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

inline double Ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
