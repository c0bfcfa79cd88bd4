#include "trace.h"

#include <cstdio>

namespace servebench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kServeQuery:
      return "serve.query";
    case SpanName::kCoreEngine:
      return "core.engine";
    case SpanName::kCoreGview:
      return "core.gview";
    case SpanName::kCoreKmatch:
      return "core.kmatch";
    case SpanName::kIngestBatch:
      return "ingest.batch";
    case SpanName::kCoreMaintenance:
      return "core.maintenance";
  }
  return "?";
}

const char* SpanParentString(SpanName name) {
  switch (name) {
    case SpanName::kCoreEngine:
      return "serve.query";
    case SpanName::kCoreGview:
    case SpanName::kCoreKmatch:
      return "core.engine";
    case SpanName::kCoreMaintenance:
      return "ingest.batch";
    case SpanName::kServeQuery:
    case SpanName::kIngestBatch:
      return nullptr;
  }
  return nullptr;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (const Span& s : spans_) {
    const char* parent = SpanParentString(s.name);
    std::fprintf(f,
                 "{\"request\": %u, \"name\": \"%s\", \"parent\": %s%s%s, "
                 "\"start_us\": %.3f, \"end_us\": %.3f}\n",
                 s.request, SpanNameString(s.name), parent ? "\"" : "",
                 parent ? parent : "null", parent ? "\"" : "",
                 MicrosBetween(origin, s.start), MicrosBetween(origin, s.end));
  }
  return std::fclose(f) == 0;
}

}  // namespace servebench
