// The HTTP edge's observable counters, split from net/server.hpp so
// consumers that only report stats (service/routes) do not depend on the
// server's threads, sockets and event-loop machinery.
#pragma once

#include <cstdint>

namespace estima::net {

/// Counters are monotonic except the gauges open_connections and
/// timers_queued. The accounting invariant `connections_accepted ==
/// connections_closed + open_connections` holds at every
/// HttpServer::stats() snapshot (all fields are updated under one lock).
/// Overflow-rejected connections count in accepted, closed and
/// overflow_rejections.
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t open_connections = 0;     ///< gauge: accepted - closed
  std::uint64_t peak_connections = 0;     ///< high-water mark of the gauge
  std::uint64_t requests_served = 0;      ///< responses written, any status
  /// Requests the event loops answered themselves through the server's
  /// LoopAnswer (cache hits), never handed to the handler pool. Counted
  /// with requests_served, so it never exceeds it at any snapshot.
  std::uint64_t requests_answered_on_loop = 0;
  std::uint64_t responses_4xx = 0;        ///< parse/route rejections
  std::uint64_t responses_5xx = 0;
  std::uint64_t connections_timed_out = 0;
  std::uint64_t overflow_rejections = 0;  ///< 503s from max_connections
  std::uint64_t parse_errors = 0;         ///< parser-level rejections
  /// Requests dropped by the handler-pool's load-shedding policy (queue
  /// overflow sheds the oldest queued request; over-age requests are shed
  /// at dequeue). Each shed request is answered 503 with Retry-After.
  std::uint64_t requests_shed = 0;
  /// Gauge: deadlines armed in the event loops' timer sets — exactly one
  /// entry per armed deadline, removed when it fires, is disarmed or its
  /// connection closes.
  std::uint64_t timers_queued = 0;
};

}  // namespace estima::net
