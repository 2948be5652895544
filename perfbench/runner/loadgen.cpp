#include "loadgen.hpp"

#include <algorithm>
#include <barrier>
#include <thread>
#include <utility>

#include "fleet.hpp"

namespace perfbench {

namespace {

/// Long enough that the one-call stop skew between clients is noise, short
/// enough that a round's kept responses stay around a megabyte, so peak
/// RSS does not follow throughput.
constexpr auto kRound = std::chrono::milliseconds(50);

/// Latency room per client and timed second: enough for 1 us calls. It is
/// address space only until written; calls past it spill into a
/// per-client overflow vector.
constexpr double kSampleRoomPerSecond = 1'000'000;

/// Cache-line aligned: each client writes its own state on every request,
/// and neighbouring states must not share a line.
struct alignas(64) ClientState {
  std::vector<std::pair<std::size_t, wideleak::widevine::LicenseResponse>> pending;
  float* slice = nullptr;  // this client's part of LoopOutcome::latency_us
  std::size_t recorded = 0;
  std::vector<float> spill;  // latencies past the slice's room
  std::vector<Span> spans;
  Clock::time_point round_start;
  Clock::time_point round_end;
  std::uint64_t sent = 0;  // timed requests
  std::uint64_t verified = 0;
  std::uint64_t failed = 0;
  std::uint64_t warm_failed = 0;
};

}  // namespace

LoopOutcome run_closed_loop(const LicenseFleet& fleet, const LoopConfig& config,
                            const LicenseCall& call) {
  const std::size_t clients = config.clients;
  const std::size_t pool = fleet.size();
  std::vector<ClientState> state(clients);
  LoopOutcome outcome;
  outcome.clients = clients;
  outcome.started = Clock::now();

  bool warming = true;
  bool done = false;
  std::size_t phase = 0;
  double steal_at_round_start = 0.0;
  // Runs once per barrier phase on the last arriving client, before any is
  // released: phase 0 closes a round's requests, phase 1 its checks. Steal
  // is read here too, while every client waits, so it brackets the rounds.
  auto completion = [&]() noexcept {
    if (phase++ % 2 == 0) {
      if (!warming) {
        auto start = state[0].round_start;
        auto end = state[0].round_end;
        for (const ClientState& s : state) {
          start = std::min(start, s.round_start);
          end = std::max(end, s.round_end);
        }
        outcome.timed_seconds += seconds_between(start, end);
        outcome.steal_seconds += config.cpus.steal_seconds() - steal_at_round_start;
      }
      return;
    }
    if (warming) {
      warming = false;
      outcome.warm_end = Clock::now();
      done = config.seconds <= 0.0;
    } else {
      done = outcome.timed_seconds >= config.seconds;
    }
    steal_at_round_start = config.cpus.steal_seconds();
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(clients), completion);

  const auto room = static_cast<std::size_t>(config.seconds * kSampleRoomPerSecond);
  outcome.latency_us.resize(room * clients);
  for (std::size_t c = 0; c < clients; ++c) state[c].slice = outcome.latency_us.data() + c * room;

  auto client = [&](std::size_t c) {
    ClientState& me = state[c];
    std::size_t cursor = c;
    std::uint64_t tick = 0;
    for (;;) {
      const bool warm = warming;
      me.round_start = Clock::now();
      if (warm) {
        for (std::size_t i = c; i < pool; i += clients) me.pending.emplace_back(i, call(i, tick++));
      } else {
        const auto deadline = me.round_start + kRound;
        for (;;) {
          const std::size_t index = cursor;
          cursor = (cursor + clients) % pool;
          const auto begin = Clock::now();
          auto response = call(index, tick++);
          const auto end = Clock::now();
          const auto us =
              static_cast<float>(std::chrono::duration<double, std::micro>(end - begin).count());
          if (me.recorded < room) {
            me.slice[me.recorded] = us;
          } else {
            me.spill.push_back(us);
          }
          ++me.recorded;
          if (config.record_spans) {
            me.spans.push_back(
                {static_cast<std::uint32_t>(c), static_cast<std::uint32_t>(index),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(begin - outcome.started)
                     .count(),
                 std::chrono::duration_cast<std::chrono::nanoseconds>(end - outcome.started)
                     .count()});
          }
          me.pending.emplace_back(index, std::move(response));
          if (end >= deadline) {
            me.round_end = end;
            break;
          }
        }
      }
      sync.arrive_and_wait();

      for (const auto& [index, response] : me.pending) {
        const bool ok = verify_response(fleet, index, response);
        if (warm) {
          me.warm_failed += ok ? 0 : 1;
          continue;
        }
        ++me.sent;
        ++(ok ? me.verified : me.failed);
      }
      me.pending.clear();
      sync.arrive_and_wait();
      if (done) break;
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) threads.emplace_back(client, c);
  for (std::thread& thread : threads) thread.join();
  // Before the slices are merged: moving them together touches more pages.
  outcome.peak_rss_mb = peak_rss_mb();

  // Close the gaps between the slices in place, then append any spill.
  std::size_t kept = 0;
  for (ClientState& s : state) {
    outcome.attempted += s.sent;
    outcome.verified += s.verified;
    outcome.failed += s.failed;
    outcome.warm_failed += s.warm_failed;
    const std::size_t in_slice = std::min(s.recorded, room);
    if (s.slice != outcome.latency_us.data() + kept) {
      std::copy(s.slice, s.slice + in_slice, outcome.latency_us.begin() + kept);
    }
    kept += in_slice;
    outcome.spans.insert(outcome.spans.end(), s.spans.begin(), s.spans.end());
  }
  outcome.latency_us.resize(kept);
  for (const ClientState& s : state) {
    outcome.latency_us.insert(outcome.latency_us.end(), s.spill.begin(), s.spill.end());
  }
  return outcome;
}

}  // namespace perfbench
