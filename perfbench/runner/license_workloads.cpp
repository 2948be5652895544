// The license workload: DrmService::handle_license under a closed loop of
// two clients.
//
// license-keybox  8 tenants x 512 devices, KeyboxCmac-signed requests: KDF,
//                 HMAC, AES key wrap, session shards and app locks. No
//                 bignum, so the per-request overhead of the serving path
//                 shows here and nowhere else.
#include <memory>
#include <optional>

#include "common.hpp"
#include "fleet.hpp"
#include "loadgen.hpp"

namespace perfbench {

using namespace wideleak;

namespace {

/// Closed-loop clients, each pinned to a CPU of its own.
constexpr std::size_t kClients = 2;

/// Full set-ups per run (a fifth of a second each); setup_s is their median.
constexpr int kSetupRepeats = 5;

struct Served {
  LicenseFleet fleet;
  std::unique_ptr<widevine::DrmService> service;
};

LicenseCall service_call(const Served& served) {
  return [&served](std::size_t index, std::uint64_t tick) {
    return served.service->handle_license(served.fleet.tenant_of[index],
                                          served.fleet.requests[index], served.fleet.policy,
                                          tick);
  };
}

void build(Served& served, std::uint64_t seed) {
  served.fleet = build_keybox_fleet(seed);
  served.service = make_service(served.fleet);
}

void record_outcome(const LoopOutcome& outcome, Result& result) {
  if (outcome.warm_failed > 0) {
    result.fail(std::to_string(outcome.warm_failed) + " warm-up responses failed their check");
  }
  if (outcome.failed > 0) {
    result.fail(std::to_string(outcome.failed) + " timed responses refused or failed their check");
  }
  if (outcome.latency_us.empty()) result.fail("no timed requests");
}

}  // namespace

Result run_license_workload(const Options& options) {
  if (options.workload != "license-keybox") {
    throw std::invalid_argument("unknown license workload: " + options.workload);
  }
  Result result;
  const CpuSet cpus = pin_process(kClients);
  result.note("cpus", cpus.text());
  result.note("clients", static_cast<double>(kClients));
  result.note("tenants", static_cast<double>(kKeyboxTenants));
  result.note("devices", static_cast<double>(kKeyboxTenants * kKeyboxDevicesPerTenant));
  LoopConfig timed{kClients, options.seconds, false, cpus};
  Served served;

  if (options.trace) {
    build(served, options.seed);
    const LoopOutcome plain = run_closed_loop(served.fleet, timed, service_call(served));
    LoopConfig traced_config = timed;
    traced_config.record_spans = true;
    const LoopOutcome traced = run_closed_loop(served.fleet, traced_config, service_call(served));
    record_outcome(plain, result);
    record_outcome(traced, result);
    result.attempted = traced.attempted;
    result.failed = traced.failed;
    result.note("spans", static_cast<double>(traced.spans.size()));

    std::vector<double> span_us;
    span_us.reserve(traced.spans.size());
    for (const Span& span : traced.spans) span_us.push_back((span.end_ns - span.start_ns) / 1e3);

    add_campaign_layer_metrics(nullptr, 0.0, 0.0, 0, result);
    const widevine::DrmServiceStats service = served.service->stats();
    const widevine::LicenseServerStats license = served.fleet.license->stats();
    result.add("widevine.sessions_opened", static_cast<double>(service.sessions_opened), "count");
    result.add("widevine.licenses_granted", static_cast<double>(license.granted), "count");
    result.add("widevine.licenses_denied", static_cast<double>(license.denied), "count");
    result.add("widevine.keys_issued", static_cast<double>(license.keys_issued), "count");
    result.add("widevine.provisionings_granted",
               static_cast<double>(served.fleet.provisioning->stats().granted), "count");
    result.add("hooking.calls_hooked", 0.0, "count");
    result.add("media.bytes_decrypted", 0.0, "bytes");
    add_probe_metrics(options, &served.fleet, span_us.empty() ? std::nullopt
                                                              : std::optional<double>(median(span_us)),
                      result);
    result.add("trace_overhead_frac", 1.0 - traced.ops_per_s() / plain.ops_per_s(), "ratio");
    return result;
  }

  // Set-up: fleet, keys, signed requests, service and the warm-up pass,
  // up to the moment the first timed request can start. Each repetition
  // builds everything again; the last one goes on into the timed loop.
  std::vector<double> setups;
  LoopOutcome outcome;
  for (int i = 0; i < kSetupRepeats; ++i) {
    served.service.reset();
    served.fleet = LicenseFleet{};
    const auto start = Clock::now();
    build(served, options.seed);
    LoopConfig config = timed;
    if (i + 1 < kSetupRepeats) config.seconds = 0.0;
    outcome = run_closed_loop(served.fleet, config, service_call(served));
    setups.push_back(seconds_between(start, outcome.warm_end));
    if (i + 1 < kSetupRepeats && outcome.warm_failed > 0) {
      result.fail(std::to_string(outcome.warm_failed) + " warm-up responses failed their check");
    }
  }
  record_outcome(outcome, result);
  result.attempted = outcome.attempted;
  result.failed = outcome.failed;
  result.note("timed_seconds", outcome.timed_seconds);
  result.note("steal_seconds", outcome.steal_seconds);
  result.note("wall_ops_per_s", outcome.verified / outcome.timed_seconds);
  result.add("ops_per_s", outcome.ops_per_s(), "1/s");
  result.add("p50_us", nearest_rank(outcome.latency_us, 50), "us");
  result.add("p90_us", nearest_rank(outcome.latency_us, 90), "us");
  result.add("setup_s", median(std::move(setups)), "s");
  result.add("peak_rss_mb", outcome.peak_rss_mb, "MB");
  return result;
}

}  // namespace perfbench
