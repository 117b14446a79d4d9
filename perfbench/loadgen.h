// The benchmark's load generator: one client thread drives a few pipelined
// TCP connections to a serving process, either open loop (requests due on a
// fixed schedule, latency timed from the due time) or closed loop (a fixed
// number of requests outstanding).
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "serve/protocol.h"
#include "util.h"

namespace perfbench {

using Items = std::vector<int32_t>;

/// Steps of history a request carries as its bootstrap: ModelConfig's
/// default window, which every served model uses.
constexpr int kMaxHistory = 12;
/// A user drawn again within this many draws is redrawn; larger than any
/// phase's outstanding count.
constexpr int kRepeatGap = 32;

/// One request of a workload: the user, the one-item step it appends and
/// the user's last kMaxHistory steps before it (replayed by the server
/// when the user has no cached session, so an evicted session rebuilds to
/// the same state).
struct Call {
  int user = 0;
  Items append;
  std::vector<Items> bootstrap;
};

/// The workload's request stream. Users and appended items are a pure
/// function of the seed and the position in the stream; the bootstrap is
/// the user's applied history at send time. A user drawn again within
/// kRepeatGap draws is redrawn, so with fewer than kRepeatGap requests
/// outstanding no user ever has two requests in flight; `num_users` must
/// exceed kRepeatGap. With `round_robin`
/// the users are visited in turn in a seeded order instead, each once per
/// `num_users` requests.
class Traffic {
 public:
  struct Spec {
    int num_users = 0;
    /// Zipf exponent of user popularity; 0 = uniform.
    double user_zipf = 0.0;
    bool round_robin = false;
    uint64_t seed = 1;
    /// The user's history before the benchmark starts (one item a step).
    std::function<Items(int user)> initial_history;
    /// The n-th item the user appends.
    std::function<int32_t(int user, long n)> next_item;
  };

  explicit Traffic(Spec spec);

  /// Next (user, item) draw of the stream.
  std::pair<int, int32_t> NextDraw();
  /// The call for `user` appending `item`, bootstrapped from its window.
  Call MakeCall(int user, int32_t item);
  /// Records that the server applied `item` to `user`'s session.
  void Applied(int user, int32_t item);

 private:
  struct UserState {
    std::deque<int32_t> window;
    long appended = 0;
  };
  UserState& StateOf(int user);

  Spec spec_;
  Stream stream_;
  Zipf user_zipf_;
  std::deque<int> recent_;
  std::vector<int> order_;  // round-robin visiting order
  long draws_ = 0;
  std::unordered_map<int, UserState> users_;
};

/// One sent request and what came back.
struct Outcome {
  Call call;
  double due = 0.0;   ///< when it was due (open loop) or sent (closed)
  double sent = 0.0;
  double done = 0.0;  ///< 0 = no response
  causer::serve::wire::ResponseFrame response;
  bool ok() const {
    return done > 0.0 && response.status == causer::serve::wire::Status::kOk;
  }
};

struct PhaseSpec {
  bool open_loop = true;
  /// Offered requests per second (open loop).
  double rate = 100.0;
  /// Requests kept outstanding (closed loop).
  int outstanding = 4;
  double seconds = 1.0;
  /// Stop issuing after this many requests (0 = only the time limit).
  long max_requests = 0;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;  ///< in send order
  double start = 0.0;
  double end = 0.0;  ///< start + seconds
};

/// Latencies (ms) of a phase's OK requests, each timed from when it was
/// due, so a stall is charged to every request queued behind it.
std::vector<double> LatenciesFromDueMs(const PhaseResult& phase);

class LoadGen {
 public:
  LoadGen(Traffic& traffic, int connections);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens the connections; false on failure.
  bool Connect(int port);
  /// Runs one phase, then waits (up to 20 s) for its stragglers; requests
  /// still unanswered then count as failed.
  PhaseResult Run(const PhaseSpec& spec);

 private:
  void Send(Outcome& outcome);
  /// Reads whatever arrived within `timeout` seconds and completes the
  /// outcomes it answers.
  void Poll(double timeout, PhaseResult& result);

  Traffic& traffic_;
  int connections_;
  std::vector<int> fds_;
  std::vector<std::vector<uint8_t>> rx_;
  std::unordered_map<uint32_t, size_t> inflight_;  // request id -> outcome
  std::unordered_map<int, int> busy_users_;        // user -> requests
  uint32_t next_id_ = 1;
  long sends_ = 0;
  bool broken_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
