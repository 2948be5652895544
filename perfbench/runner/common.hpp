// Shared plumbing for the benchmark runner: options, the result record the
// runner prints, timing helpers and the percentile rule every latency
// figure uses.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace wideleak::core {
struct CampaignResult;
}

namespace perfbench {

struct LicenseFleet;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Command-line options, as passed by run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_dir;  // committed reference outputs (perfbench/reference)
};

/// One named metric value and its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `context` values are JSON literals (quoted
/// strings or numbers), printed as-is.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> context;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, const std::string& text);  // string context value
  void note(std::string key, double number);             // numeric context value
  /// Record a correctness failure (printed to stderr) and clear `correct`.
  void fail(const std::string& why);
};

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (rank ceil(p/100 * n), 1-based). `p` in (0, 100].
/// Reorders `samples`. Throws std::invalid_argument on an empty input.
template <typename T, typename Alloc>
double nearest_rank(std::vector<T, Alloc>& samples, double p) {
  if (samples.empty()) throw std::invalid_argument("nearest_rank: no samples");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("nearest_rank: p outside (0, 100]");
  const auto n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p / 100.0 * n)));
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return static_cast<double>(*nth);
}

/// Median of a small sample set (mean of the middle pair when even).
double median(std::vector<double> samples);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// The CPUs a run is pinned to (see pin_process()).
struct CpuSet {
  std::vector<int> ids;

  /// Steal so far on these CPUs: time the hypervisor held them off the
  /// processor while they were runnable (the `steal` column of their
  /// `cpuN` lines in /proc/stat). 0 where the kernel does not report it.
  /// A busy thread pinned here ran in none of it, so timed seconds
  /// subtract each busy thread's share of the steal accrued during them.
  double steal_seconds() const;
  /// The ids as text, e.g. "2,3".
  std::string text() const;
};

/// Pin this process to `count` CPUs, the highest-numbered ones it may run
/// on (the lowest usually take most device interrupts), or to all of them
/// when it may run on fewer, and return them.
/// Threads started afterwards inherit the mask, so a workload cannot drive
/// more busy threads than it has CPUs. Call before starting any thread.
CpuSet pin_process(std::size_t count);

/// JSON string literal for `text` (quotes and escapes included).
std::string json_string(const std::string& text);

/// Print the context line and the result line (the last line of stdout).
void print_result(const Result& result);

// Workload entry points (one translation unit per family).
Result run_campaign_workload(const Options& options);
Result run_license_workload(const Options& options);

/// The per-layer probe battery every traced run appends (probes.cpp).
/// The license-path probes replay `fleet`, the workload's own signed
/// requests, or a keybox fleet built from the seed when it is null.
/// `service_handle_us` is the DrmService call median when the workload's
/// own traced loop already measured it; otherwise a probe loop does.
void add_probe_metrics(const Options& options, const LicenseFleet* fleet,
                       std::optional<double> service_handle_us, Result& result);

/// The core.* and net.* per-layer rows of a traced campaign run, given its
/// makespan and process CPU time. With no campaign (license-keybox)
/// every row is a measured zero, so each traced run carries the full
/// per-layer set.
void add_campaign_layer_metrics(const wideleak::core::CampaignResult* traced, double makespan_s,
                                double cpu_s, std::uint64_t wall_us_per_tick, Result& result);

}  // namespace perfbench
