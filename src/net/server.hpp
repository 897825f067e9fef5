// A zero-dependency HTTP/1.1 server over POSIX sockets, built as an
// event-driven edge: N I/O event loops (epoll on Linux, poll elsewhere)
// each watch the one non-blocking listening socket, accept for
// themselves, and own their non-blocking connections as small state
// machines (reading -> handling -> writing -> lingering-close). Loops
// answer what needs no computing; the pool computes; a loop never blocks.
// A decoded request is first offered to the optional LoopAnswer on its
// loop (the service answers a cache hit there: parse, hash, look
// up, render, write — no thread handoff). Whatever the offer declines is
// dispatched to a bounded handler pool, so a slow handler (a cold
// predict() can take a while) never stalls its loop: thousands of idle
// keep-alive connections cost one fd and a timer entry each, not a
// thread. The handler runs on a pool thread, so any internal fan-out (the
// prediction service's ThreadPool) nests underneath exactly as it does
// for local callers.
//
// Robustness contract, matching the parser's: a malformed, oversized or
// over-slow client gets a 4xx/408 response (when a response can still be
// framed) and its connection closed; it can never crash the server, hold
// unbounded memory, or corrupt another connection's stream. Per-request
// deadlines live in an ordered timer set per loop, so a slowloris client
// trickling bytes cannot restart its budget and cannot delay anyone
// else's request (no head-of-line blocking). Nothing wakes on a period:
// a loop sleeps until its earliest deadline, a paused listener's resume
// time or a wake-pipe byte. Pipelined requests are served in order from
// the bytes already read; error responses use a lingering close so the
// 4xx survives the client's unread bytes. When max_connections is set,
// connections over the cap are answered 503 and closed at accept time.
// stop() is a graceful drain: the listener shuts first (no new
// connections), in-flight requests finish and are written, then idle
// connections are closed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "net/http_parser.hpp"
#include "net/server_stats.hpp"

namespace estima::obs {
class EventLog;
class Tracer;
class TraceContext;
}  // namespace estima::obs

namespace estima::net {

/// Per-request context handed to the Handler (and the LoopAnswer)
/// alongside the request.
struct RequestContext {
  /// The request's remaining edge budget as a cooperative deadline: set
  /// from the 408 timer at dispatch, cancelled by the event loop if the 408
  /// fires or the connection dies while the handler runs — so an abandoned
  /// cold predict() stops burning pool CPU. Handlers poll it and abandon
  /// work the client will never see. Null when idle_timeout_ms <= 0, and
  /// always null for the LoopAnswer, which computes nothing.
  std::shared_ptr<core::Deadline> deadline;
  /// When the request's first byte arrived, the instant the edge's 408
  /// budget counts from; a budget the handler derives from the request
  /// (an X-Estima-Deadline-Ms header) counts from here too, so time spent
  /// queued is charged against it. Default (the clock's epoch) for
  /// in-process calls and the LoopAnswer: a budget then counts from the
  /// call.
  std::chrono::steady_clock::time_point arrived{};
  /// True when the handler pool is currently shedding load, for the
  /// handler's health report (the service router answers GET /v1/health
  /// 503 "shedding"; it changes no other answer). Always false for the
  /// LoopAnswer.
  bool shedding = false;
  /// Per-request trace, created at dispatch when the server has a tracer
  /// attached (ServerConfig::tracer): carries the 64-bit trace id (from
  /// X-Estima-Trace-Id or generated) with edge.read / parse spans already
  /// recorded, and queue.wait too on the pool; handlers add their own
  /// stages through it. A request the LoopAnswer declines reaches the
  /// handler with the same trace. Null when tracing is off.
  std::shared_ptr<obs::TraceContext> trace;
};

/// Advertised in shed 503s' Retry-After header (seconds).
inline constexpr int kRetryAfterSeconds = 1;

struct ServerConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 binds an ephemeral port; read the real one back with port().
  int port = 0;
  /// Event-loop (I/O) threads. Every loop accepts from the listener, so a
  /// connection belongs to whichever loop accepts it first (each pending
  /// connection wakes every loop; the losers read EAGAIN).
  std::size_t io_threads = 2;
  /// Handler-pool threads: how many requests can be *computing* at once.
  /// (The name predates the event loop, when each worker owned one
  /// connection; it is kept so existing callers keep their meaning: the
  /// number of concurrently running handlers.)
  std::size_t worker_threads = 4;
  ParserLimits limits;
  /// Per-request time budget, started at the request's first byte: a
  /// request (head + body) that has not completed within this long is
  /// answered 408 and the connection closed, no matter how steadily the
  /// client trickles bytes. Between keep-alive requests the same value
  /// bounds idle silence (closed without a response), and it also bounds
  /// how long a stalled response write may sit unacknowledged.
  int idle_timeout_ms = 30'000;
  /// Admission cap on concurrently open connections; over the cap a new
  /// connection is answered 503 and closed at accept time. 0 = unlimited.
  std::size_t max_connections = 0;
  /// Bound on requests queued for the handler pool (not counting the ones
  /// actively running). When a dispatch would exceed it, the OLDEST queued
  /// request is shed — answered 503 with Retry-After — and the new one
  /// admitted: the oldest has burned the most of its client's patience
  /// and is the likeliest to be answered into a dead connection.
  /// 0 = unbounded (no overflow shedding).
  std::size_t max_queue_depth = 0;
  /// Observability: when set (borrowed, must outlive the server), every
  /// dispatched request gets a TraceContext recording the edge stages
  /// (edge.read, parse, edge.encode, edge.write, and queue.wait when it
  /// goes to the handler pool) and the request-duration histogram, and
  /// every response to a traced request echoes its id in exactly one
  /// X-Estima-Trace-Id header, added where the response is encoded for
  /// the wire. Null (the default) keeps the hot path untraced —
  /// one relaxed atomic load per event. Swappable at runtime via
  /// set_tracer() (benches use this to measure the overhead delta).
  obs::Tracer* tracer = nullptr;
  /// Structured JSONL event log (borrowed, must outlive the server).
  /// The edge writes one line per request it sheds — requests the
  /// handler (and its own event emission) never sees. Null = off.
  obs::EventLog* event_log = nullptr;
};

class HttpServer {
 public:
  using Handler =
      std::function<HttpResponse(const HttpRequest&, const RequestContext&)>;
  /// Answers a request on its event loop, or declines with std::nullopt.
  using LoopAnswer = std::function<std::optional<HttpResponse>(
      const HttpRequest&, const RequestContext&)>;

  /// The handler is called once per decoded request the LoopAnswer did
  /// not answer (on a handler-pool thread) with the request's
  /// RequestContext; whatever it throws is answered 500
  /// (std::invalid_argument: 400, core::DeadlineExceeded: 408) —
  /// exceptions never cross into the event loop unhandled.
  ///
  /// The LoopAnswer (optional) is offered each complete request, on the
  /// event loop thread, before any handoff. It must answer only what
  /// costs no more than a digest and a lookup — never parse a body,
  /// compute, wait on another request, or write a file — and bounds the
  /// body size it reads itself, declining a larger one unread. It must
  /// decline (nullopt) with no visible effect, since the handler then
  /// serves the same request. An exception it throws counts as a
  /// decline. Its answers are counted in
  /// ServerStats::requests_answered_on_loop. Without one, every request
  /// goes to the handler pool.
  HttpServer(ServerConfig cfg, Handler handler,
             LoopAnswer loop_answer = nullptr);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the handler pool and the event loops.
  /// Throws std::runtime_error when the socket cannot be bound.
  void start();

  /// Graceful drain; idempotent, also run by the destructor.
  void stop();

  /// The bound port (resolves ephemeral binds). Valid after start().
  int port() const { return port_; }

  bool running() const { return running_.load(); }

  /// True while the handler pool is shedding load: its queue is at the
  /// cap, or a request was shed within the last second. The
  /// /v1/health route reports 503 while this holds.
  bool shedding() const;

  ServerStats stats() const;

  /// Attach/detach the tracer at runtime (null = tracing off). Requests
  /// already dispatched keep the tracer that created their trace.
  void set_tracer(obs::Tracer* tracer) {
    tracer_.store(tracer, std::memory_order_relaxed);
  }

 private:
  struct EventLoop;
  struct HandlerPool;
  friend struct EventLoop;
  friend struct HandlerPool;

  /// Stats bookkeeping, all under stats_mu_ so snapshots are consistent.
  /// on_accept() counts the connection and returns whether it is over
  /// max_connections (counted as an overflow rejection).
  bool on_accept();
  void on_close();
  void on_timeout();
  void on_parse_error();
  void on_shed();
  void on_timers_queued(std::int64_t delta);
  void count_response(int status, bool on_loop = false);

  ServerConfig cfg_;
  Handler handler_;
  LoopAnswer loop_answer_;
  std::atomic<obs::Tracer*> tracer_{nullptr};
  int listen_fd_ = -1;
  int port_ = 0;

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> loop_threads_;
  std::unique_ptr<HandlerPool> pool_;

  mutable std::mutex stats_mu_;
  ServerStats stats_;
};

}  // namespace estima::net
