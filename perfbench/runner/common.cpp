#include "common.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <sched.h>
#include <unistd.h>

namespace perfbench {

void Result::note(std::string key, const std::string& text) {
  context.emplace_back(std::move(key), json_string(text));
}

void Result::note(std::string key, double number) {
  std::ostringstream out;
  out.precision(17);
  out << number;
  context.emplace_back(std::move(key), out.str());
}

void Result::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: FAILED: " << why << "\n";
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: no samples");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
}

double CpuSet::steal_seconds() const {
  std::ifstream stat("/proc/stat");
  std::string line;
  std::uint64_t ticks = 0;
  while (std::getline(stat, line) && line.rfind("cpu", 0) == 0) {
    std::istringstream fields(line);
    std::string label;
    fields >> label;
    if (label == "cpu") continue;  // the all-CPU total
    const int id = std::stoi(label.substr(3));
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) continue;
    std::uint64_t column[8] = {};
    for (std::uint64_t& value : column) fields >> value;
    if (fields) ticks += column[7];
  }
  return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string CpuSet::text() const {
  std::string out;
  for (const int id : ids) out += (out.empty() ? "" : ",") + std::to_string(id);
  return out;
}

CpuSet pin_process(std::size_t count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  CpuSet pinned;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int id = CPU_SETSIZE - 1; id >= 0 && pinned.ids.size() < count; --id) {
    if (!CPU_ISSET(id, &allowed)) continue;
    CPU_SET(id, &mask);
    pinned.ids.insert(pinned.ids.begin(), id);
  }
  if (sched_setaffinity(0, sizeof mask, &mask) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
  return pinned;
}

double peak_rss_mb() {
  // VmHWM belongs to this program's address space. getrusage's ru_maxrss
  // would not do: it keeps the peak of the process that exec'd the runner.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_result(const Result& result) {
  std::ostringstream out;
  out.precision(17);
  out << "context: {";
  for (std::size_t i = 0; i < result.context.size(); ++i) {
    out << (i ? ", " : "") << json_string(result.context[i].first) << ": "
        << result.context[i].second;
  }
  out << "}\n";
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": " << m.value
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}\n";
  std::cout << out.str() << std::flush;
}

}  // namespace perfbench
