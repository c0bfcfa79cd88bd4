// Lint fixture: direct adjacency-storage access outside the Graph
// implementation.  Both the CSR member names and legacy out_[v]/in_[v]
// subscripts must be flagged — 9 violations in total.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace osq {
namespace fixture {

// A mirrored copy of the CSR arrays, or of the anchor that keeps them
// alive, is as layout-coupled as a subscript: all three declarations are
// violations.
struct ShadowCsr {
  std::vector<size_t> out_offsets_;
  std::vector<uint32_t> out_entries_;
  std::shared_ptr<const void> csr_anchor_;
};

inline size_t Degree(const ShadowCsr& g, size_t v) {
  return g.out_offsets_[v + 1] - g.out_offsets_[v];  // 2 violations
}

inline uint32_t FirstNeighbor(const ShadowCsr& g, size_t v) {
  return g.out_entries_[g.out_offsets_[v]];  // 2 violations
}

inline size_t LegacyDegree(const std::vector<std::vector<uint32_t>>& out_,
                           size_t v) {
  return out_[v].size();  // violation: pre-CSR out_[v] subscript
}

inline size_t LegacyInDegree(const std::vector<std::vector<uint32_t>>& in_,
                             size_t v) {
  return in_[v].size();  // violation: pre-CSR in_[v] subscript
}

}  // namespace fixture
}  // namespace osq
