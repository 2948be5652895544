// Closed-loop license load: N client threads, each sending its next
// request only after the previous response arrived.
//
// The loop runs in rounds. In a round every client sends requests until a
// fixed round length has passed on its own clock, keeping each response;
// then all clients stop at a barrier and check the round's responses
// (untimed), and meet at a second barrier before the next round. Timed
// seconds are the sum of the rounds' spans, so response checking never
// counts against throughput and every timed request ran with all clients
// busy. The first round is the warm-up: one pass over the fleet's
// requests, checked in full, neither timed nor counted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common.hpp"
#include "widevine/protocol.hpp"

namespace perfbench {

struct LicenseFleet;

/// Allocator that leaves new elements unwritten: resize() touches nothing,
/// so the pages behind a large buffer join the resident set only as samples
/// land in them.
template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

/// Serve fleet request `index`; `tick` is the client's request counter.
using LicenseCall =
    std::function<wideleak::widevine::LicenseResponse(std::size_t index, std::uint64_t tick)>;

struct LoopConfig {
  std::size_t clients = 2;
  double seconds = 0.0;  // timed seconds to accumulate; 0 = warm-up only
  bool record_spans = false;
  /// The CPUs the process is pinned to, one per client; the steal on them
  /// is taken out of the timed seconds. Empty: no correction.
  CpuSet cpus;
};

/// One traced request: which client sent which request, and when (ns from
/// the loop's start).
struct Span {
  std::uint32_t client = 0;
  std::uint32_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

struct LoopOutcome {
  std::size_t clients = 0;
  Clock::time_point started;
  Clock::time_point warm_end;  // when the first timed request could start
  double timed_seconds = 0.0;
  double steal_seconds = 0.0;   // steal on LoopConfig::cpus during the timed rounds
  std::uint64_t attempted = 0;  // timed requests
  std::uint64_t verified = 0;   // timed responses that passed their check
  std::uint64_t failed = 0;     // timed responses refused or failing their check
  std::uint64_t warm_failed = 0;
  double peak_rss_mb = 0.0;  // of the process, when the clients stopped
  /// One per timed request, all clients pooled. Each client writes its own
  /// slice; untouched room costs no memory, so peak RSS grows by 4 bytes
  /// per timed request and no more.
  std::vector<float, UninitializedAllocator<float>> latency_us;
  std::vector<Span> spans;         // when LoopConfig::record_spans

  /// Verified grants per second of client run time: the timed seconds less
  /// each client's share of the steal on its CPUs (see CpuSet).
  double ops_per_s() const {
    return static_cast<double>(verified) /
           (timed_seconds - steal_seconds / static_cast<double>(clients));
  }
};

LoopOutcome run_closed_loop(const LicenseFleet& fleet, const LoopConfig& config,
                            const LicenseCall& call);

}  // namespace perfbench
