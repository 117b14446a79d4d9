// Shared helpers of the end-to-end benchmark: clocks, order statistics,
// the benchmark's own seeded random streams, child-process control and the
// result line.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double Now();

/// Server worker threads; the client is one thread, so server and client
/// together use at most nproc threads (3 + 1 on the 4-core reference).
int ServerThreads();

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
/// Returns 0 for an empty input.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// The benchmark's own random stream (SplitMix64), kept apart from the
/// program's Rng so that a change to the program cannot move the inputs.
class Stream {
 public:
  explicit Stream(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform double in [0, 1).
  double Uniform();
  /// Uniform integer in [0, n).
  int Below(int n);

 private:
  uint64_t state_;
};

/// Mixes several values into one seed.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

/// Zipf(s) over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  int Draw(Stream& stream) const;

 private:
  std::vector<double> cdf_;
};

/// Result metrics: name -> (value, unit), printed in name order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The JSON object body {"name": {"value": v, "unit": "u"}, ...}.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Prints the run's result as one JSON line, the last line of standard
/// output: {"correct", "attempted", "failed", "metrics"}.
void PrintResult(bool correct, long attempted, long failed,
                 const Metrics& metrics);

/// A child process whose standard output goes to a file.
struct Child {
  pid_t pid = -1;
  std::string stdout_path;
};

/// Starts `argv` with stdout redirected to `stdout_path` (stderr is
/// inherited). Returns a Child with pid -1 on failure.
Child Spawn(const std::vector<std::string>& argv,
            const std::string& stdout_path);

/// Waits until the child's stdout holds a line starting with `prefix` and
/// returns that line, or "" on timeout or child exit.
std::string WaitForLine(const Child& child, const std::string& prefix,
                        double timeout_seconds);

/// Sends SIGTERM, waits up to `timeout_seconds` (then SIGKILL) and reaps
/// the child. Returns its exit status (-1 when killed or unknown) and
/// stores its peak resident set in MiB in *peak_rss_mb.
int Terminate(Child& child, double timeout_seconds, double* peak_rss_mb);

/// Reads a whole file ("" when missing).
std::string ReadFile(const std::string& path);

/// Creates `path` and its parents; false on failure.
bool MakeDirs(const std::string& path);

/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
