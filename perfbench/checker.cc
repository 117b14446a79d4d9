#include "checker.h"

#include <cstring>

#include "eval/metrics.h"

namespace perfbench {

namespace {

bool SameBits(float a, float b) {
  uint32_t x = 0;
  uint32_t y = 0;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y;
}

}  // namespace

bool CheckExact(const std::vector<float>& scores, int k,
                const std::vector<int32_t>& items,
                const std::vector<float>& got_scores, std::string* why) {
  const std::vector<int> expected = causer::eval::TopK(scores, k);
  if (items.size() != expected.size() || got_scores.size() != items.size()) {
    *why = "length " + std::to_string(items.size()) + " != " +
           std::to_string(expected.size());
    return false;
  }
  for (size_t j = 0; j < items.size(); ++j) {
    if (items[j] != expected[j]) {
      *why = "rank " + std::to_string(j) + ": item " +
             std::to_string(items[j]) + " != " + std::to_string(expected[j]);
      return false;
    }
    if (!SameBits(got_scores[j], scores[static_cast<size_t>(items[j])])) {
      *why = "rank " + std::to_string(j) + ": score bits differ";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
