// Output check of the served responses, computed apart from the serving
// path: the expected answer comes from the model's ScoreAll over the sent
// history (window replay, no sessions, batching or wire).
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The response must be exactly eval::TopK(scores, k) — the
/// same items in the same order, each carrying the bits of its fp32 score.
bool CheckExact(const std::vector<float>& scores, int k,
                const std::vector<int32_t>& items,
                const std::vector<float>& got_scores, std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
