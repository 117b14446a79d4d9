#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

#include "common/net.h"

namespace perfbench {

namespace wire = causer::serve::wire;

Traffic::Traffic(Spec spec)
    : spec_(std::move(spec)),
      stream_(MixSeed(spec_.seed, 0x7a11c)),
      user_zipf_(spec_.num_users, spec_.user_zipf) {
  if (spec_.round_robin) {
    for (int u = 0; u < spec_.num_users; ++u) order_.push_back(u);
    for (size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[stream_.Below(static_cast<int>(i))]);
    }
  }
}

Traffic::UserState& Traffic::StateOf(int user) {
  auto [it, inserted] = users_.try_emplace(user);
  if (inserted) {
    for (int32_t item : spec_.initial_history(user)) {
      it->second.window.push_back(item);
      if (static_cast<int>(it->second.window.size()) > kMaxHistory) {
        it->second.window.pop_front();
      }
    }
  }
  return it->second;
}

std::pair<int, int32_t> Traffic::NextDraw() {
  int user = 0;
  if (spec_.round_robin) {
    user = order_[static_cast<size_t>(draws_++ % spec_.num_users)];
    UserState& state = StateOf(user);
    return {user, spec_.next_item(user, state.appended++)};
  }
  for (;;) {
    user = user_zipf_.Draw(stream_);
    if (std::find(recent_.begin(), recent_.end(), user) == recent_.end()) {
      break;
    }
  }
  recent_.push_back(user);
  if (static_cast<int>(recent_.size()) > kRepeatGap) recent_.pop_front();
  UserState& state = StateOf(user);
  return {user, spec_.next_item(user, state.appended++)};
}

Call Traffic::MakeCall(int user, int32_t item) {
  Call call;
  call.user = user;
  call.append = {item};
  for (int32_t past : StateOf(user).window) call.bootstrap.push_back({past});
  return call;
}

void Traffic::Applied(int user, int32_t item) {
  UserState& state = StateOf(user);
  state.window.push_back(item);
  if (static_cast<int>(state.window.size()) > kMaxHistory) {
    state.window.pop_front();
  }
}

std::vector<double> LatenciesFromDueMs(const PhaseResult& phase) {
  std::vector<double> out;
  for (const Outcome& o : phase.outcomes) {
    if (o.ok()) out.push_back((o.done - o.due) * 1e3);
  }
  return out;
}

LoadGen::LoadGen(Traffic& traffic, int connections)
    : traffic_(traffic), connections_(std::max(1, connections)) {}

LoadGen::~LoadGen() {
  for (int fd : fds_) causer::net::CloseSocket(fd);
}

bool LoadGen::Connect(int port) {
  for (int c = 0; c < connections_; ++c) {
    const int fd = causer::net::ConnectTcp("127.0.0.1", port);
    if (fd < 0) return false;
    fds_.push_back(fd);
    rx_.emplace_back();
  }
  return true;
}

void LoadGen::Send(Outcome& outcome) {
  wire::RequestFrame frame;
  frame.request_id = next_id_++;
  frame.user = outcome.call.user;
  frame.append = outcome.call.append;
  frame.bootstrap = outcome.call.bootstrap;
  std::vector<uint8_t> payload;
  wire::EncodeRequest(frame, &payload);
  const int fd = fds_[static_cast<size_t>(sends_++ % connections_)];
  outcome.sent = Now();
  if (!causer::net::WriteFrame(fd, payload.data(), payload.size())) {
    broken_ = true;
    return;
  }
  outcome.response.request_id = frame.request_id;
  busy_users_[outcome.call.user]++;
}

void LoadGen::Poll(double timeout, PhaseResult& result) {
  std::vector<pollfd> pfds;
  for (int fd : fds_) pfds.push_back({fd, POLLIN, 0});
  timespec ts{};
  timeout = std::max(0.0, timeout);
  ts.tv_sec = static_cast<time_t>(timeout);
  ts.tv_nsec = static_cast<long>((timeout - std::floor(timeout)) * 1e9);
  if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
  for (size_t c = 0; c < pfds.size(); ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    uint8_t buf[65536];
    const ssize_t n = recv(fds_[c], buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
      broken_ = true;
      continue;
    }
    if (n < 0) continue;
    const double now = Now();
    std::vector<uint8_t>& rx = rx_[c];
    rx.insert(rx.end(), buf, buf + n);
    size_t off = 0;
    while (rx.size() - off >= 4) {
      uint32_t len = 0;
      std::memcpy(&len, rx.data() + off, 4);  // little-endian prefix
      if (rx.size() - off - 4 < len) break;
      std::vector<uint8_t> payload(rx.begin() + off + 4,
                                   rx.begin() + off + 4 + len);
      off += 4 + len;
      wire::ResponseFrame frame;
      if (!wire::DecodeResponse(payload, &frame)) {
        broken_ = true;
        continue;
      }
      auto it = inflight_.find(frame.request_id);
      if (it == inflight_.end()) continue;
      Outcome& outcome = result.outcomes[it->second];
      inflight_.erase(it);
      outcome.response = std::move(frame);
      outcome.done = now;
      if (--busy_users_[outcome.call.user] == 0) {
        busy_users_.erase(outcome.call.user);
      }
      if (outcome.ok()) {
        traffic_.Applied(outcome.call.user, outcome.call.append[0]);
      }
    }
    rx.erase(rx.begin(), rx.begin() + off);
  }
}

PhaseResult LoadGen::Run(const PhaseSpec& spec) {
  PhaseResult result;
  result.start = Now();
  result.end = result.start + spec.seconds;
  long scheduled = 0;
  bool have_draw = false;
  std::pair<int, int32_t> draw;
  const double drain_deadline = result.end + 20.0;
  for (;;) {
    const double now = Now();
    if (broken_) break;
    auto may_issue = [&] {
      return spec.max_requests == 0 || scheduled < spec.max_requests;
    };
    const bool issuing = now < result.end && may_issue();
    // Issue every request that is due and whose user is free.
    while (issuing && may_issue()) {
      double due = now;
      if (spec.open_loop) {
        due = result.start + static_cast<double>(scheduled) / spec.rate;
        if (due > now || due >= result.end) break;
      } else if (static_cast<int>(inflight_.size()) >= spec.outstanding) {
        break;
      }
      if (!have_draw) {
        draw = traffic_.NextDraw();
        have_draw = true;
      }
      if (busy_users_.count(draw.first) > 0) break;  // wait for its reply
      Outcome outcome;
      outcome.call = traffic_.MakeCall(draw.first, draw.second);
      outcome.due = due;
      result.outcomes.push_back(std::move(outcome));
      inflight_[next_id_] = result.outcomes.size() - 1;
      Send(result.outcomes.back());
      have_draw = false;
      ++scheduled;
      if (broken_) break;
    }
    if (!issuing && inflight_.empty()) break;
    if (now >= drain_deadline) break;
    double timeout = 0.05;
    if (spec.open_loop && now < result.end) {
      const double next_due =
          result.start + static_cast<double>(scheduled) / spec.rate;
      timeout = std::min(timeout, next_due - now);
    }
    Poll(timeout, result);
  }
  // Whatever is still unanswered failed; forget it so the next phase does
  // not wait for it. (Should the server still apply it, that user's window
  // is stale and the output check of its next answer fails.)
  inflight_.clear();
  busy_users_.clear();
  return result;
}

}  // namespace perfbench
