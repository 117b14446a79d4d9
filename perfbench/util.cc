#include "util.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int ServerThreads() {
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  return static_cast<int>(std::clamp(cores - 1, 1L, 3L));
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Stream::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Stream::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

int Stream::Below(int n) {
  return static_cast<int>(Uniform() * static_cast<double>(n));
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  Stream s(a * 0x100000001b3ULL ^ (b + 0x9e3779b97f4a7c15ULL));
  s.Next();
  Stream t(s.Next() ^ (c * 0xff51afd7ed558ccdULL));
  return t.Next();
}

Zipf::Zipf(int n, double s) : cdf_(static_cast<size_t>(n)) {
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Draw(Stream& stream) const {
  const double u = stream.Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<int>(it - cdf_.begin()),
                  static_cast<int>(cdf_.size()) - 1);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit) {
  values_[name] = {value, unit};
}

std::string Metrics::Json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    if (!first) out << ", ";
    first = false;
    const double v = std::isfinite(entry.first) ? entry.first : 0.0;
    out << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
        << entry.second << "\"}";
  }
  out << "}";
  return out.str();
}

void PrintResult(bool correct, long attempted, long failed,
                 const Metrics& metrics) {
  std::fflush(stderr);
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", attempted, failed,
              metrics.Json().c_str());
  std::fflush(stdout);
}

Child Spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path) {
  Child child;
  child.stdout_path = stdout_path;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                   stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ) ==
      0) {
    child.pid = pid;
  }
  posix_spawn_file_actions_destroy(&actions);
  return child;
}

std::string WaitForLine(const Child& child, const std::string& prefix,
                        double timeout_seconds) {
  if (child.pid <= 0) return "";
  const double deadline = Now() + timeout_seconds;
  while (Now() < deadline) {
    std::istringstream in(ReadFile(child.stdout_path));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) == 0) return line;
    }
    int status = 0;
    if (waitpid(child.pid, &status, WNOHANG) == child.pid) return "";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return "";
}

int Terminate(Child& child, double timeout_seconds, double* peak_rss_mb) {
  if (child.pid <= 0) return -1;
  kill(child.pid, SIGTERM);
  const double deadline = Now() + timeout_seconds;
  int status = 0;
  struct rusage usage {};
  pid_t done = 0;
  while ((done = wait4(child.pid, &status, WNOHANG, &usage)) == 0 &&
         Now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (done == 0) {
    kill(child.pid, SIGKILL);
    wait4(child.pid, &status, 0, &usage);
    status = -1;
  }
  child.pid = -1;
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }
  if (status == -1 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

}  // namespace perfbench
