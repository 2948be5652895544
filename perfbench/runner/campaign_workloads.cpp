// The campaign workloads: CampaignRunner::run() over a fixed matrix, timed
// end to end.
//
// campaign-study      the paper's matrix (10 catalog apps x 3 study
//                     profiles), rip on, no chaos, unpaced. Bignum-bound.
// campaign-cdn-paced  flaky-cdn on the first 4 catalog apps x 3 profiles,
//                     rip off, every simulated tick paced to 50 ms of wall
//                     time. Wait-bound: the scheduler's overlap decides it.
//
// Both take a fixed input: the matrix in catalog order at the campaign's
// default seed, whatever the workload seed. Each of the campaign's inputs
// changes what is measured. The campaign seed sets the amount of work:
// prime searches and fault draws differ, and flaky-cdn's paced wait ranged
// from 779 to 1041 ticks over campaign seeds 0-2. The matrix order sets
// the schedule: five orders of the paced matrix took 13.5-16.8 s where
// five runs of one order took 14.0-14.4 s, and two orders of the study
// took 37.6 and 39.8 s against 35.8-36.2 s in catalog order. So every run
// must reproduce the committed report exactly.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <sys/resource.h>
#include <thread>

#include "common.hpp"
#include "core/campaign.hpp"
#include "ott/catalog.hpp"
#include "support/crc32.hpp"

namespace perfbench {

using namespace wideleak;

namespace {

struct CampaignShape {
  const char* name;
  std::size_t apps;  // the first N catalog apps
  bool rip;
  net::FaultProfile chaos;
  std::uint64_t wall_us_per_tick;  // a workload constant, never calibrated
};

constexpr CampaignShape kShapes[] = {
    {"campaign-study", 10, true, net::FaultProfile::None, 0},
    {"campaign-cdn-paced", 4, false, net::FaultProfile::FlakyCdn, 50'000},
};

/// Campaign CPU tokens: two busy workers (paced relief workers only sleep).
constexpr std::size_t kWorkers = 2;
/// A campaign's set-up takes microseconds, too short to time one by one:
/// setup_s is the median over kSetupBatches of the mean set-up time in a
/// batch of kSetupsPerBatch. Batches start kSetupBatchGap apart: on a
/// shared 4-vCPU VM, back-to-back batches right after start-up gave
/// per-run medians that spread 0.21 over ten runs, spaced ones 0.03.
constexpr int kSetupBatches = 21;
constexpr int kSetupsPerBatch = 100;
constexpr auto kSetupBatchGap = std::chrono::milliseconds(50);

const CampaignShape& shape_for(const std::string& workload) {
  for (const CampaignShape& shape : kShapes) {
    if (workload == shape.name) return shape;
  }
  throw std::invalid_argument("unknown campaign workload: " + workload);
}

core::CampaignSpec make_spec(const CampaignShape& shape) {
  core::CampaignSpec spec;
  const std::vector<ott::OttAppProfile> catalog = ott::study_catalog();
  spec.apps.assign(catalog.begin(),
                   catalog.begin() + static_cast<std::ptrdiff_t>(shape.apps));
  spec.profiles = core::study_device_profiles();
  spec.workers = kWorkers;
  spec.attempt_rip = shape.rip;
  spec.chaos = shape.chaos;
  spec.pacing.wall_us_per_tick = shape.wall_us_per_tick;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing reference file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::uint32_t crc_of(const std::string& text) {
  return crc32(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::string hex(std::uint64_t value) {
  char text[19];
  std::snprintf(text, sizeof text, "0x%08llx", static_cast<unsigned long long>(value));
  return text;
}

/// The per-cell entries of a rendered campaign report: the lines between
/// the two dashed rules, each cell's line plus its indented fault line.
std::vector<std::string> cell_entries(const std::string& report) {
  std::vector<std::string> entries;
  std::istringstream in(report);
  std::string line;
  int rules = 0;
  while (std::getline(in, line) && rules < 2) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos) {
      ++rules;
    } else if (rules == 1) {
      if (line.rfind("    [", 0) == 0 && !entries.empty()) {
        entries.back() += "\n" + line;
      } else {
        entries.push_back(line);
      }
    }
  }
  return entries;
}

struct Check {
  bool report_matches = false;
  bool table_matches = false;
  std::uint64_t failed_cells = 0;  // Partial or differing from the reference
  std::uint32_t report_crc = 0;
  std::uint32_t reference_crc = 0;
};

/// Compare one run against the committed reference report and Table I.
Check check_against_reference(const core::CampaignResult& result, const CampaignShape& shape,
                              const Options& options, bool print) {
  const std::string report = core::render_campaign_report(result);
  const std::string table = core::render_table_one(core::campaign_to_audits(result));
  if (print) std::cout << "=== report\n" << report << "=== table1\n" << table << "=== end\n";
  const std::string dir = options.reference_dir + "/" + shape.name;
  const std::string reference = read_file(dir + ".report.txt");
  const std::string reference_table = read_file(dir + ".table1.txt");

  Check check;
  check.report_matches = report == reference;
  check.table_matches = table == reference_table;
  check.report_crc = crc_of(report);
  check.reference_crc = crc_of(reference);
  const std::vector<std::string> got = cell_entries(report);
  const std::vector<std::string> want = cell_entries(reference);
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const bool matches = i < got.size() && i < want.size() && got[i] == want[i];
    if (!matches || result.cells[i].outcome == core::CellOutcome::Partial) {
      ++check.failed_cells;
    }
  }
  return check;
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& t) { return t.tv_sec + t.tv_usec / 1e6; };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

struct Timed {
  core::CampaignResult result;
  double makespan_s = 0.0;
  double steal_s = 0.0;  // on the workers' CPUs
  double cpu_s = 0.0;
};

/// An unpaced campaign keeps both workers busy, so steal on their CPUs
/// lengthens it: its makespan is the wall time less each worker's share of
/// that steal. A paced campaign's makespan is set by its timer waits, which
/// absorb a stolen busy slice as often as not, so it stays wall time.
Timed run_once(core::CampaignSpec spec, const CpuSet& cpus) {
  const bool paced = spec.pacing.wall_us_per_tick > 0;
  core::CampaignRunner runner(std::move(spec));
  const double cpu_before = process_cpu_seconds();
  const double steal_before = cpus.steal_seconds();
  const auto start = Clock::now();
  Timed timed{runner.run(), 0.0, 0.0, 0.0};
  const double wall_s = seconds_between(start, Clock::now());
  timed.steal_s = cpus.steal_seconds() - steal_before;
  timed.makespan_s = paced ? wall_s : wall_s - timed.steal_s / static_cast<double>(kWorkers);
  timed.cpu_s = process_cpu_seconds() - cpu_before;
  return timed;
}

void record_check(const Check& check, const std::string& what, Result& result) {
  if (!check.report_matches) result.fail(what + ": campaign report differs from the reference");
  if (!check.table_matches) result.fail(what + ": Table I differs from the reference");
}

}  // namespace

void add_campaign_layer_metrics(const core::CampaignResult* traced, double makespan_s,
                                double cpu_s, std::uint64_t wall_us_per_tick, Result& result) {
  const core::PipelineStats empty_pipeline;
  const core::CellStats empty_totals;
  const core::PipelineStats& p = traced ? traced->stats.pipeline : empty_pipeline;
  const core::CellStats& t = traced ? traced->stats.totals : empty_totals;

  auto stage_ms = [&](std::initializer_list<const char*> labels) {
    double ms = 0.0;
    for (const char* label : labels) {
      const auto it = p.stage_occupancy.find(label);
      if (it != p.stage_occupancy.end()) ms += it->second.busy_ms;
    }
    return ms;
  };
  std::uint64_t tasks = 0;
  for (const auto& [label, occupancy] : p.stage_occupancy) tasks += occupancy.tasks;
  result.add("core.stage.setup.busy_ms", stage_ms({"setup"}), "ms");
  result.add("core.stage.attach.busy_ms", stage_ms({"attach"}), "ms");
  result.add("core.stage.play.busy_ms", stage_ms({"play"}), "ms");
  result.add("core.stage.audit.busy_ms", stage_ms({"audit", "keybox"}), "ms");
  result.add("core.stage.rip.busy_ms", stage_ms({"rip", "rip-finish"}), "ms");
  result.add("core.stage.flush.busy_ms", stage_ms({"flush"}), "ms");
  result.add("core.stage.tasks", static_cast<double>(tasks), "count");

  // A task's wall time includes the paced waits it parks, so a cell's
  // wall_ms is its chain's busy plus wait time.
  double critical_ms = 0.0;
  if (traced) {
    for (const core::CellResult& cell : traced->cells) {
      critical_ms = std::max(critical_ms, cell.stats.wall_ms);
    }
  }
  const double wait_s = static_cast<double>(p.wait_ticks) * wall_us_per_tick / 1e6;
  const double tokens = static_cast<double>(std::max<std::size_t>(p.cpu_tokens, 1));
  result.add("core.pipeline.cpu_busy_frac", makespan_s > 0 ? cpu_s / (makespan_s * tokens) : 0,
             "ratio");
  result.add("core.pipeline.overlap", makespan_s > 0 ? (cpu_s + wait_s) / makespan_s : 0,
             "ratio");
  result.add("core.pipeline.critical_chain_s", critical_ms / 1000.0, "s");
  result.add("core.pipeline.waits", static_cast<double>(p.waits), "count");
  result.add("core.pipeline.wait_ticks", static_cast<double>(p.wait_ticks), "count");
  result.add("core.pipeline.timer_wakeups", static_cast<double>(p.timer_wakeups), "count");
  result.add("core.pipeline.max_parked", static_cast<double>(p.max_parked), "count");
  result.add("core.pipeline.helped_tasks", static_cast<double>(p.helped_tasks), "count");
  result.add("core.pipeline.steals", static_cast<double>(p.steals), "count");
  result.add("core.pipeline.fence_stalls", static_cast<double>(p.fence_stalls), "count");

  const double attempts = static_cast<double>(t.net_attempts);
  result.add("net.attempts", attempts, "count");
  result.add("net.retries", static_cast<double>(t.net_retries), "count");
  result.add("net.giveups", static_cast<double>(t.net_giveups), "count");
  result.add("net.faults_injected", static_cast<double>(t.faults_injected), "count");
  result.add("net.useful_frac",
             attempts > 0 ? 1.0 - static_cast<double>(t.net_retries + t.net_giveups) / attempts
                          : 0.0,
             "ratio");
}

Result run_campaign_workload(const Options& options) {
  const CampaignShape& shape = shape_for(options.workload);
  Result result;
  const CpuSet cpus = pin_process(kWorkers);
  result.note("cpus", cpus.text());
  result.note("workers", static_cast<double>(kWorkers));
  result.note("wall_us_per_tick", static_cast<double>(shape.wall_us_per_tick));
  result.note("campaign_seed", hex(core::CampaignSpec{}.seed));

  if (options.trace) {
    const Timed plain = run_once(make_spec(shape), cpus);
    core::CampaignSpec spec = make_spec(shape);
    spec.record_schedule_trace = true;
    const Timed traced = run_once(std::move(spec), cpus);
    for (const Timed* run : {&plain, &traced}) {
      const Check check = check_against_reference(run->result, shape, options, false);
      record_check(check, run == &plain ? "untraced run" : "traced run", result);
    }
    const double cells = static_cast<double>(traced.result.cells.size());
    const double plain_ops = cells / plain.makespan_s;
    const double traced_ops = cells / traced.makespan_s;
    result.attempted = traced.result.cells.size();
    result.note("trace_events", static_cast<double>(traced.result.trace.size()));

    add_campaign_layer_metrics(&traced.result, traced.makespan_s, traced.cpu_s,
                               shape.wall_us_per_tick, result);
    const core::CellStats& t = traced.result.stats.totals;
    result.add("widevine.sessions_opened", static_cast<double>(t.drm_sessions), "count");
    result.add("widevine.licenses_granted", static_cast<double>(t.licenses_granted), "count");
    result.add("widevine.licenses_denied", static_cast<double>(t.licenses_denied), "count");
    result.add("widevine.keys_issued", static_cast<double>(t.keys_issued), "count");
    result.add("widevine.provisionings_granted", static_cast<double>(t.provisionings_granted),
               "count");
    result.add("hooking.calls_hooked", static_cast<double>(t.calls_hooked), "count");
    result.add("media.bytes_decrypted", static_cast<double>(t.bytes_decrypted), "bytes");
    add_probe_metrics(options, nullptr, std::nullopt, result);
    result.add("trace_overhead_frac", 1.0 - traced_ops / plain_ops, "ratio");
    return result;
  }

  // Set-up is the spec and the runner; run() itself is the timed op.
  core::CampaignSpec spec;
  std::vector<double> setups;
  for (int b = 0; b < kSetupBatches; ++b) {
    std::this_thread::sleep_for(kSetupBatchGap);
    const auto start = Clock::now();
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      spec = make_spec(shape);
      const core::CampaignRunner runner(spec);
    }
    setups.push_back(seconds_between(start, Clock::now()) / kSetupsPerBatch);
  }

  // Whole matrices: at least one, and another only if it fits in the
  // remaining seconds at the last makespan.
  std::vector<double> makespans;
  std::uint64_t cells = 0;
  double elapsed = 0.0;
  do {
    const Timed run = run_once(spec, cpus);
    const Check check = check_against_reference(run.result, shape, options, makespans.empty());
    record_check(check, "run " + std::to_string(makespans.size()), result);
    if (makespans.empty()) {
      result.note("report_crc32", hex(check.report_crc));
      result.note("reference_crc32", hex(check.reference_crc));
      result.note("steal_seconds", run.steal_s);
    }
    result.attempted += run.result.cells.size();
    result.failed += check.failed_cells;
    cells += run.result.cells.size();
    makespans.push_back(run.makespan_s);
    elapsed += run.makespan_s;
  } while (elapsed + makespans.back() <= options.seconds);

  double total_makespan = 0.0;
  for (double m : makespans) total_makespan += m;
  std::vector<double> latency_us;
  for (double m : makespans) latency_us.push_back(m * 1e6);
  result.add("ops_per_s", static_cast<double>(cells) / total_makespan, "1/s");
  result.add("p50_us", nearest_rank(latency_us, 50), "us");
  result.add("p90_us", nearest_rank(latency_us, 90), "us");
  result.add("setup_s", median(std::move(setups)), "s");
  result.add("peak_rss_mb", peak_rss_mb(), "MB");
  return result;
}

}  // namespace perfbench
