// Tests of the benchmark itself: the response checker must reject a
// flipped score bit, a swapped pair and an out-of-range item, and the
// open-loop generator must charge a server stall to the latency of the
// requests queued behind it. Exits non-zero on the first failure.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "checker.h"
#include "common/net.h"
#include "eval/metrics.h"
#include "loadgen.h"
#include "serve/protocol.h"
#include "util.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void TestChecker() {
  Stream s(7);
  std::vector<float> scores(500);
  for (float& v : scores) v = static_cast<float>(s.Uniform() - 0.5);
  const int k = 10;
  std::vector<int32_t> items;
  std::vector<float> got;
  for (int item : causer::eval::TopK(scores, k)) {
    items.push_back(item);
    got.push_back(scores[item]);
  }
  std::string why;
  Expect(CheckExact(scores, k, items, got, &why), "exact answer accepted");

  std::vector<float> flipped = got;
  uint32_t bits = 0;
  std::memcpy(&bits, &flipped[3], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&flipped[3], &bits, sizeof(bits));
  Expect(!CheckExact(scores, k, items, flipped, &why),
         "checker rejects a flipped score bit");

  std::vector<int32_t> swapped_items = items;
  std::vector<float> swapped_scores = got;
  std::swap(swapped_items[4], swapped_items[5]);
  std::swap(swapped_scores[4], swapped_scores[5]);
  Expect(!CheckExact(scores, k, swapped_items, swapped_scores, &why),
         "checker rejects a swapped pair");

  std::vector<int32_t> out_of_range = items;
  out_of_range[k - 1] = static_cast<int32_t>(scores.size());
  Expect(!CheckExact(scores, k, out_of_range, got, &why),
         "checker rejects an out-of-range item");
}

/// A one-connection echo server that answers requests in order and stalls
/// once, before answering the request that arrives after `stall_after`.
void StallingServer(int listen_fd, int stall_after, double stall_seconds,
                    double* stall_end) {
  const int fd = causer::net::AcceptConnection(listen_fd);
  if (fd < 0) return;
  std::vector<uint8_t> payload;
  int seen = 0;
  while (causer::net::ReadFrame(fd, &payload,
                                causer::serve::wire::kMaxFrameBytes)) {
    causer::serve::wire::RequestFrame request;
    if (!causer::serve::wire::DecodeRequest(payload, &request)) break;
    if (seen++ == stall_after) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(stall_seconds));
      *stall_end = Now();
    }
    causer::serve::wire::ResponseFrame response;
    response.request_id = request.request_id;
    response.items = {1};
    response.scores = {1.0f};
    std::vector<uint8_t> out;
    causer::serve::wire::EncodeResponse(response, &out);
    if (!causer::net::WriteFrame(fd, out.data(), out.size())) break;
  }
  causer::net::CloseSocket(fd);
}

void TestOpenLoopStall() {
  int port = 0;
  const int listen_fd = causer::net::ListenTcp("127.0.0.1", 0, 4, &port);
  Expect(listen_fd >= 0, "fake server listens");
  if (listen_fd < 0) return;
  constexpr double kRate = 200.0;
  constexpr double kStall = 0.3;
  double stall_end = 0.0;
  std::thread server(StallingServer, listen_fd, 40, kStall, &stall_end);

  Traffic::Spec spec;
  // Few users: during the stall the next user drawn is soon one whose
  // request is stuck, so the generator itself falls behind its schedule
  // and sends the rest late; their latency must still run from due time.
  spec.num_users = kRepeatGap + 8;
  spec.initial_history = [](int) { return Items{0, 1}; };
  spec.next_item = [](int, long n) { return static_cast<int32_t>(n % 7); };
  Traffic traffic(spec);
  PhaseResult phase;
  {
    LoadGen gen(traffic, 1);
    Expect(gen.Connect(port), "load generator connects");
    PhaseSpec open;
    open.open_loop = true;
    open.rate = kRate;
    open.seconds = 1.0;
    phase = gen.Run(open);
  }
  server.join();
  causer::net::CloseSocket(listen_fd);

  // The server read request 40 and then stalled: every request due while
  // it stalled queued behind it and must be charged the rest of the stall,
  // timed from its due time on the open-loop schedule.
  const std::vector<double> latency_ms = LatenciesFromDueMs(phase);
  const double stall_start = stall_end - kStall;
  int behind = 0;
  bool charged = true;
  bool on_schedule = true;
  double worst_ms = 0.0;
  int sent_late = 0;
  size_t ok_index = 0;
  for (size_t i = 0; i < phase.outcomes.size(); ++i) {
    const Outcome& o = phase.outcomes[i];
    const double due = phase.start + static_cast<double>(i) / kRate;
    if (std::fabs(o.due - due) > 1e-9) on_schedule = false;
    if (o.sent > stall_end && o.due < stall_end - 2e-3) ++sent_late;
    if (!o.ok()) continue;
    const double ms = latency_ms[ok_index++];
    worst_ms = std::max(worst_ms, ms);
    if (o.due > stall_start + 2e-3 && o.due < stall_end - 2e-3) {
      ++behind;
      if (ms < (stall_end - o.due) * 1e3) charged = false;
    }
  }
  Expect(on_schedule, "every request is due on the open-loop schedule");
  Expect(sent_late > 0, "the generator fell behind during the stall (" +
                            std::to_string(sent_late) + " sent late)");
  Expect(phase.outcomes.size() >= static_cast<size_t>(kRate * 0.9),
         "open loop kept sending through the stall (" +
             std::to_string(phase.outcomes.size()) + " sent)");
  Expect(behind >= static_cast<int>(kRate * kStall * 0.8),
         "requests queued behind the stall: " + std::to_string(behind));
  Expect(charged, "each queued request is charged the rest of the stall");
  Expect(worst_ms >= kStall * 1e3 * 0.95,
         "worst latency " + std::to_string(worst_ms) + " ms covers the stall");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestChecker();
  perfbench::TestOpenLoopStall();
  std::printf("%d failure(s)\n", perfbench::g_failures);
  return perfbench::g_failures == 0 ? 0 : 1;
}
