#include "net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "fault/checked_io.hpp"
#include "obs/event_log.hpp"
#include "obs/trace.hpp"

namespace estima::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Pending-connection queue length passed to listen(2).
constexpr int kListenBacklog = 128;
/// Wall-time bound on the lingering close that drains a client's unread
/// bytes after an error response, so the 4xx is not destroyed by a TCP
/// reset.
constexpr int kLingerTimeoutMs = 1'000;
/// How long the shedding signal (RequestContext::shedding) stays raised
/// after the last shed, so degraded serving covers the recovery tail
/// rather than flickering per-request.
constexpr int kShedRecoveryMs = 1'000;
/// Accepts a loop makes per readable event on the listener.
constexpr int kAcceptBatch = 64;
/// How long an accept error other than EAGAIN/EINTR/ECONNABORTED (fd
/// exhaustion, say) takes the listener out of a loop's poller:
/// level-triggered readiness would otherwise re-report it at once.
constexpr int kAcceptPauseMs = 10;
/// Poller ids reserved by every loop; connection ids start above them.
constexpr std::uint64_t kWakeId = 0;
constexpr std::uint64_t kListenerId = 1;

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

HttpResponse plain_response(int status, const std::string& reason) {
  HttpResponse resp;
  resp.status = status;
  resp.headers.emplace_back("content-type", "text/plain");
  resp.body = reason;
  if (!resp.body.empty() && resp.body.back() != '\n') resp.body += '\n';
  return resp;
}

/// The one encoder of a response for the wire, whichever path built it
/// (the handler, a thrown error, a shed, the LoopAnswer, an edge 408): a
/// traced request's response carries its trace id in exactly one
/// X-Estima-Trace-Id header, so a client can correlate every answer —
/// failures included — with /v1/trace and the event log.
std::string encode(const HttpResponse& resp, bool keep,
                   const obs::TraceContext* trace) {
  if (trace == nullptr) return serialize_response(resp, keep);
  return serialize_response(resp, keep,
                            obs::format_trace_id(trace->trace_id()));
}

/// Each fd is registered under a 64-bit id, reported back with its events.
struct PollerEvent {
  std::uint64_t id = 0;
  bool readable = false;
  bool writable = false;
};

#if defined(__linux__)

/// epoll-backed readiness notification (level-triggered). EPOLLERR/HUP
/// map onto both directions so the pending read/write surfaces the error.
class Poller {
 public:
  Poller() : epfd_(::epoll_create1(0)) {
    if (epfd_ < 0) {
      throw std::runtime_error("http server: epoll_create1 failed: " +
                               std::string(std::strerror(errno)));
    }
  }
  ~Poller() { close_quietly(epfd_); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, std::uint64_t id, bool want_read, bool want_write) {
    ctl(EPOLL_CTL_ADD, fd, id, want_read, want_write);
  }
  void mod(int fd, std::uint64_t id, bool want_read, bool want_write) {
    ctl(EPOLL_CTL_MOD, fd, id, want_read, want_write);
  }
  void del(int fd) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof ev);
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
  }

  void wait(std::vector<PollerEvent>& out, int timeout_ms) {
    struct epoll_event evs[64];
    const int n = ::epoll_wait(epfd_, evs, 64, timeout_ms);
    out.clear();
    for (int i = 0; i < n; ++i) {
      const auto bits = evs[i].events;
      const bool broken = (bits & (EPOLLERR | EPOLLHUP)) != 0;
      out.push_back(PollerEvent{evs[i].data.u64,
                                (bits & EPOLLIN) != 0 || broken,
                                (bits & EPOLLOUT) != 0 || broken});
    }
  }

 private:
  void ctl(int op, int fd, std::uint64_t id, bool want_read,
           bool want_write) {
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof ev);
    ev.data.u64 = id;
    if (want_read) ev.events |= EPOLLIN;
    if (want_write) ev.events |= EPOLLOUT;
    ::epoll_ctl(epfd_, op, fd, &ev);
  }

  int epfd_;
};

#else

/// poll(2) fallback with the same interface, for non-Linux POSIX: the ids
/// live in an array beside the pollfds.
class Poller {
 public:
  void add(int fd, std::uint64_t id, bool want_read, bool want_write) {
    index_[fd] = fds_.size();
    fds_.push_back(pollfd{fd, events_of(want_read, want_write), 0});
    ids_.push_back(id);
  }
  void mod(int fd, std::uint64_t id, bool want_read, bool want_write) {
    const auto it = index_.find(fd);
    if (it == index_.end()) return;
    fds_[it->second].events = events_of(want_read, want_write);
    ids_[it->second] = id;
  }
  void del(int fd) {
    const auto it = index_.find(fd);
    if (it == index_.end()) return;
    const std::size_t pos = it->second;
    index_.erase(it);
    fds_[pos] = fds_.back();
    ids_[pos] = ids_.back();
    fds_.pop_back();
    ids_.pop_back();
    if (pos < fds_.size()) index_[fds_[pos].fd] = pos;
  }

  void wait(std::vector<PollerEvent>& out, int timeout_ms) {
    const int n = ::poll(fds_.data(), fds_.size(), timeout_ms);
    out.clear();
    for (std::size_t i = 0; n > 0 && i < fds_.size(); ++i) {
      const short bits = fds_[i].revents;
      if (bits == 0) continue;
      const bool broken = (bits & (POLLERR | POLLHUP | POLLNVAL)) != 0;
      out.push_back(PollerEvent{ids_[i], (bits & POLLIN) != 0 || broken,
                                (bits & POLLOUT) != 0 || broken});
    }
  }

 private:
  static short events_of(bool want_read, bool want_write) {
    short ev = 0;
    if (want_read) ev |= POLLIN;
    if (want_write) ev |= POLLOUT;
    return ev;
  }

  std::vector<struct pollfd> fds_;
  std::vector<std::uint64_t> ids_;
  std::unordered_map<int, std::size_t> index_;
};

#endif

}  // namespace

// ---------------------------------------------------------------------------
// Handler pool: a bounded set of threads running the user handler, so slow
// requests consume pool slots, never event-loop time. drain_and_join()
// finishes every queued job before returning — stop() relies on that to
// guarantee each dispatched request still gets its response written.
//
// Load shedding lives here because the queue is where overload shows up
// first: a dispatch that would exceed max_queue_depth sheds the OLDEST
// queued request with 503 + Retry-After and admits the new one — the
// oldest has burned the most of its client's patience already. A queued
// request's wait is otherwise bounded by its propagated 408 deadline: an
// abandoned one costs a deadline poll (a hit is served, a miss stops at
// its first fit boundary). A shed request still gets a real response
// through the normal completion path, so every dispatched request
// remains answered-or-closed.

struct HttpServer::HandlerPool {
  struct Job {
    EventLoop* loop = nullptr;
    std::uint64_t conn_id = 0;
    HttpRequest req;
    bool keep = false;
    std::shared_ptr<core::Deadline> deadline;  ///< null when not propagated
    Clock::time_point arrived;  ///< the request's first byte
    Clock::time_point enqueued;
    std::shared_ptr<obs::TraceContext> trace;  ///< null when untraced
  };

  HandlerPool(HttpServer& srv, std::size_t threads) : srv_(srv) {
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      threads_.emplace_back([this] { run(); });
    }
  }

  ~HandlerPool() { drain_and_join(); }

  /// False once draining: a job enqueued after the workers may already
  /// have exited would never complete, wedging its connection in
  /// kHandling and stop() on the loop join. Jobs enqueued before the
  /// drain flag flips are guaranteed to run (workers only exit on
  /// draining_ AND an empty queue, both checked under mu_). Overflow
  /// never fails the new job: it sheds the oldest queued one instead.
  bool submit(Job job) {
    Job shed;
    bool have_shed = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) return false;
      if (srv_.cfg_.max_queue_depth > 0 &&
          jobs_.size() >= srv_.cfg_.max_queue_depth) {
        shed = std::move(jobs_.front());
        jobs_.pop_front();
        have_shed = true;
        last_shed_ = Clock::now();
        has_shed_ = true;
      }
      jobs_.push_back(std::move(job));
    }
    cv_.notify_one();
    // The 503 is posted outside the lock: post_completion takes the
    // target loop's inbox lock and must not nest under mu_.
    if (have_shed) respond_shed(shed);
    return true;
  }

  /// The overload gauge for RequestContext::shedding and /v1/health:
  /// queue at the cap, or a shed within the last kShedRecoveryMs.
  bool shedding() {
    std::lock_guard<std::mutex> lock(mu_);
    return shedding_locked();
  }

  void drain_and_join() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (draining_) return;
      draining_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  void run();

  /// shedding(), with mu_ held by the caller.
  bool shedding_locked() const {
    if (srv_.cfg_.max_queue_depth > 0 &&
        jobs_.size() >= srv_.cfg_.max_queue_depth) {
      return true;
    }
    return has_shed_ &&
           Clock::now() - last_shed_ <=
               std::chrono::milliseconds(kShedRecoveryMs);
  }

  /// Answers a shed job 503 + Retry-After through the normal completion
  /// path, and cancels its propagated deadline (nothing will compute it).
  /// Defined after EventLoop (it posts to the job's loop).
  void respond_shed(Job& job);

  HttpServer& srv_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool draining_ = false;
  bool has_shed_ = false;
  Clock::time_point last_shed_{};
  std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------------
// Event loop: owns its connections end to end. Only the loop thread ever
// touches a Connection; it accepts them itself from the shared listener,
// and the handler pool communicates with it exclusively through the inbox
// (a mutex-guarded completion queue + wake pipe).

struct HttpServer::EventLoop {
  enum class St { kReading, kHandling, kWriting, kLingering };

  /// Conn::deadline when no deadline is armed.
  static constexpr Clock::time_point kUnarmed = Clock::time_point::max();

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    St st = St::kReading;
    RequestParser parser;
    std::string carry;            ///< bytes read, not yet parsed
    std::string out;              ///< response bytes pending write
    std::size_t out_off = 0;
    bool close_after_write = false;
    bool linger_after_write = false;
    bool read_closed = false;     ///< peer sent FIN
    bool mid_request = false;     ///< current message has started arriving
    bool want_read = false;
    bool want_write = false;
    bool in_poller = false;
    /// The armed deadline, keyed in timers_ as (deadline, id); kUnarmed
    /// when none is.
    Clock::time_point deadline = kUnarmed;
    /// When the current request's first byte arrived (valid while
    /// mid_request); anchors the propagated deadline at dispatch.
    Clock::time_point request_start{};
    /// The deadline handed to the handler for the in-flight request;
    /// cancelled when the 408 fires or the connection dies so the
    /// abandoned compute stops. Null outside kHandling/kWriting or when
    /// propagation is off.
    std::shared_ptr<core::Deadline> active_deadline;
    /// The in-flight request's trace (null when untraced): created at
    /// dispatch, finished when its response is fully written, dropped
    /// unfinished when the connection dies first.
    std::shared_ptr<obs::TraceContext> trace;
    /// HTTP parse time accumulated for the request being read, folded
    /// into the `parse` span at dispatch. Only advanced while a tracer
    /// is attached.
    std::uint64_t parse_ns = 0;
    /// When the latest readable pass's first recv returned bytes, and
    /// the copy of it taken when the current message's first byte was
    /// parsed: the trace's origin. Both are stamped only while a tracer
    /// is attached; the 408 budget keeps its own anchor (request_start).
    Clock::time_point read_at{};
    Clock::time_point message_start{};
    /// When the in-flight response's write began (valid while st ==
    /// kWriting and trace != null); anchors the edge.write span.
    Clock::time_point write_start{};

    explicit Conn(ParserLimits limits) : parser(limits) {}
  };

  struct Completion {
    std::uint64_t conn_id;
    std::string wire;
    bool keep;
    int status;
  };

  explicit EventLoop(HttpServer& srv) : srv_(srv) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      throw std::runtime_error("http server: pipe() failed: " +
                               std::string(std::strerror(errno)));
    }
    wake_rd_ = pipe_fds[0];
    wake_wr_ = pipe_fds[1];
    set_nonblocking(wake_rd_);
    set_nonblocking(wake_wr_);
    poller_.add(wake_rd_, kWakeId, /*want_read=*/true, /*want_write=*/false);
    poller_.add(srv_.listen_fd_, kListenerId, true, false);
  }

  ~EventLoop() {
    close_quietly(wake_rd_);
    close_quietly(wake_wr_);
  }

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Handler-pool thread: a response is ready for conn_id.
  void post_completion(std::uint64_t conn_id, std::string wire, bool keep,
                       int status) {
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      completions_.push_back(
          Completion{conn_id, std::move(wire), keep, status});
    }
    wake();
  }

  void wake() {
    const char b = 1;
    // Best-effort: EAGAIN means a wake-up is already pending.
    [[maybe_unused]] const ssize_t r = ::write(wake_wr_, &b, 1);
  }

  void run() {
    std::vector<PollerEvent> events;
    for (;;) {
      poller_.wait(events, next_timeout_ms());

      for (const auto& ev : events) {
        if (ev.id == kWakeId) {
          drain_wake_pipe();
          break;
        }
      }

      process_completions();

      for (const auto& ev : events) {
        if (ev.id == kWakeId) continue;
        if (ev.id == kListenerId) {
          accept_batch();
          continue;
        }
        const auto it = conns_.find(ev.id);
        if (it == conns_.end()) continue;  // closed earlier this round
        Conn& c = it->second;
        if (ev.writable && c.st == St::kWriting) {
          try_write(c);
          continue;  // try_write may have closed/erased the conn
        }
        if (ev.readable &&
            (c.st == St::kReading || c.st == St::kLingering)) {
          on_readable(c);
        }
      }

      const bool stopping = srv_.stopping_.load(std::memory_order_acquire);
      if (listener_resume_ && !stopping && Clock::now() >= *listener_resume_) {
        poller_.add(srv_.listen_fd_, kListenerId, true, false);
        listener_resume_.reset();
      }
      fire_due_timers();

      if (stopping) {
        sweep_for_stop();
        std::lock_guard<std::mutex> lock(inbox_mu_);
        if (conns_.empty() && completions_.empty()) return;
      }
    }
  }

 private:
  /// Sleep until the earliest deadline or the paused listener's resume
  /// time; with neither, until an event or a wake-pipe byte (-1).
  int next_timeout_ms() const {
    Clock::time_point next =
        timers_.empty() ? kUnarmed : timers_.begin()->first;
    if (listener_resume_ &&
        !srv_.stopping_.load(std::memory_order_acquire)) {
      next = std::min(next, *listener_resume_);
    }
    if (next == kUnarmed) return -1;
    const auto delta = std::chrono::duration_cast<std::chrono::milliseconds>(
        next - Clock::now());
    return static_cast<int>(std::clamp<long long>(
        delta.count() + 1, 0, std::numeric_limits<int>::max()));
  }

  void drain_wake_pipe() {
    char sink[256];
    while (::read(wake_rd_, sink, sizeof sink) > 0) {
    }
  }

  void process_completions() {
    std::deque<Completion> completions;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      completions.swap(completions_);
    }
    for (auto& done : completions) {
      apply_completion(done);
    }
  }

  /// The listener is readable: accept up to kAcceptBatch connections.
  void accept_batch() {
    for (int i = 0; i < kAcceptBatch; ++i) {
      const int fd = fault::checked_accept("net.accept", srv_.listen_fd_);
      if (fd >= 0) {
        adopt(fd);
        continue;
      }
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // EAGAIN: the backlog is empty, or another loop won the race.
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Anything else — EMFILE/ENFILE/ENOBUFS/ENOMEM from a connection
      // flood, or the listener shut down by stop() — would spin under
      // level-triggered readiness: step out for kAcceptPauseMs (for good
      // once stopping), then accept again once fds have freed up.
      poller_.del(srv_.listen_fd_);
      listener_resume_ =
          Clock::now() + std::chrono::milliseconds(kAcceptPauseMs);
      return;
    }
  }

  void adopt(int fd) {
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    const bool over_cap = srv_.on_accept();
    const std::uint64_t id = ++next_conn_id_;
    Conn& c = conns_.emplace(id, Conn(srv_.cfg_.limits)).first->second;
    c.fd = fd;
    c.id = id;
    if (over_cap) {
      // Admission overflow: a real answer, through the same lingering
      // write path as every other error — closing straight after the
      // send would let the client's unread request bytes RST the 503
      // away before it is read.
      respond_error(c, 503, "server at connection capacity");
      return;
    }
    c.want_read = true;
    update_poller(c);
    arm_deadline(c, srv_.cfg_.idle_timeout_ms);
  }

  void update_poller(Conn& c) {
    const bool want = c.want_read || c.want_write;
    if (want && !c.in_poller) {
      poller_.add(c.fd, c.id, c.want_read, c.want_write);
      c.in_poller = true;
    } else if (!want && c.in_poller) {
      poller_.del(c.fd);
      c.in_poller = false;
    } else if (want) {
      poller_.mod(c.fd, c.id, c.want_read, c.want_write);
    }
  }

  void arm_deadline(Conn& c, int ms) {
    arm_deadline_at(c, Clock::now() + std::chrono::milliseconds(ms));
  }

  /// One timer-set entry per armed deadline: re-arming moves the
  /// connection's entry (reusing its node) instead of adding another.
  void arm_deadline_at(Conn& c, Clock::time_point when) {
    if (c.deadline == kUnarmed) {
      timers_.emplace(when, c.id);
      srv_.on_timers_queued(1);
    } else {
      auto node = timers_.extract({c.deadline, c.id});
      node.value().first = when;
      timers_.insert(std::move(node));
    }
    c.deadline = when;
  }

  void disarm_deadline(Conn& c) {
    if (c.deadline == kUnarmed) return;
    timers_.erase({c.deadline, c.id});
    c.deadline = kUnarmed;
    srv_.on_timers_queued(-1);
  }

  void close_conn(Conn& c) {
    const int fd = c.fd;
    // A handler may still be computing for this connection; its client is
    // gone, so expire the propagated deadline and let the fit loop stop.
    if (c.active_deadline) c.active_deadline->cancel();
    disarm_deadline(c);
    if (c.in_poller) poller_.del(fd);
    conns_.erase(c.id);  // c is dangling from here on
    close_quietly(fd);
    srv_.on_close();
  }

  void on_readable(Conn& c) {
    // Pull what the kernel has, bounded per pass so one firehose client
    // cannot monopolise the loop or starve its timers; level-triggered
    // readiness re-fires. A lingering connection's response is already
    // out: its bytes are discarded, and EOF (or the linger deadline) ends
    // it.
    const bool lingering = c.st == St::kLingering;
    const bool traced =
        srv_.tracer_.load(std::memory_order_relaxed) != nullptr;
    char buf[16 * 1024];
    std::size_t pulled = 0;
    for (;;) {
      const ssize_t r = fault::checked_recv("net.read", c.fd, buf,
                                            sizeof buf);
      if (r > 0) {
        if (traced && pulled == 0) c.read_at = Clock::now();
        if (!lingering) c.carry.append(buf, static_cast<std::size_t>(r));
        pulled += static_cast<std::size_t>(r);
        if (r < static_cast<ssize_t>(sizeof buf) || pulled >= 256 * 1024) {
          break;
        }
        continue;
      }
      if (r == 0) {
        c.read_closed = true;
        break;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_conn(c);
      return;
    }
    if (!lingering) {
      process(c);
    } else if (c.read_closed) {
      close_conn(c);
    }
  }

  /// Drives the kReading state over every request already buffered. A
  /// request the loop answers and writes at once is followed here by the
  /// next pipelined one — iterating, not recursing through try_write, so
  /// a burst of pipelined hits cannot grow the stack.
  void process(Conn& c) {
    const std::uint64_t id = c.id;
    processing_ = id;
    for (Conn* conn = &c; process_one(*conn);) {
      const auto it = conns_.find(id);
      if (it == conns_.end()) break;  // closed after its answer
      conn = &it->second;
    }
    processing_ = 0;
  }

  /// One step of the kReading state: parse buffered bytes, then either
  /// wait for more (arming the right deadline), reject, dispatch, or
  /// answer on the loop. True only after a loop answer, when the
  /// connection may hold the next request (or be gone: look it up).
  bool process_one(Conn& c) {
    if (c.st != St::kReading) return false;
    if (srv_.stopping_.load(std::memory_order_acquire)) {
      // Drain mode: requests already dispatched finish; new ones don't
      // start (matching the threaded server's stop semantics).
      close_conn(c);
      return false;
    }
    obs::Tracer* const tracer = srv_.tracer_.load(std::memory_order_relaxed);
    if (!c.carry.empty() &&
        c.parser.state() == RequestParser::State::kNeedMore) {
      // Parse time is accumulated per pass (a request's head and body can
      // arrive over many readable events) and becomes the `parse` span at
      // dispatch; untraced servers skip the clock reads entirely. A pass
      // that starts a message takes the time its bytes were read as the
      // trace's origin.
      if (tracer != nullptr && !c.parser.mid_message()) {
        c.message_start = c.read_at;
      }
      const Clock::time_point parse_begin =
          tracer != nullptr ? Clock::now() : Clock::time_point{};
      while (!c.carry.empty() &&
             c.parser.state() == RequestParser::State::kNeedMore) {
        const std::size_t used =
            c.parser.feed(c.carry.data(), c.carry.size());
        if (used == 0) break;
        c.carry.erase(0, used);
      }
      if (tracer != nullptr) {
        c.parse_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - parse_begin)
                .count());
      }
    }
    switch (c.parser.state()) {
      case RequestParser::State::kNeedMore: {
        if (c.read_closed) {
          // Peer closed mid-request (or idled out its own connection):
          // nothing to answer.
          close_conn(c);
          return false;
        }
        if (!c.want_read) {
          c.want_read = true;
          update_poller(c);
        }
        // The per-request budget starts at the message's first byte and
        // is never re-armed by later bytes: a slow-trickle client cannot
        // extend it. Idle silence between requests gets the same budget.
        if (c.parser.mid_message()) {
          if (!c.mid_request) {
            c.mid_request = true;
            c.request_start = Clock::now();
            arm_deadline(c, srv_.cfg_.idle_timeout_ms);
          }
        } else if (c.deadline == kUnarmed) {
          arm_deadline(c, srv_.cfg_.idle_timeout_ms);
        }
        return false;
      }
      case RequestParser::State::kError: {
        srv_.on_parse_error();
        // Nothing after a malformed head is a trustworthy boundary; the
        // lingering close keeps the 4xx readable past the client's
        // still-unread bytes.
        respond_error(c, c.parser.error_status(), c.parser.error_reason());
        return false;
      }
      case RequestParser::State::kComplete: {
        HttpRequest req = c.parser.take_request();
        const bool was_mid = c.mid_request;
        c.mid_request = false;
        if (tracer != nullptr) start_trace(c, req, tracer);
        c.parse_ns = 0;
        const bool keep = req.keep_alive();
        if (answer_on_loop(c, req, keep)) return true;
        c.st = St::kHandling;
        c.want_read = false;  // bound buffering while the handler runs
        c.want_write = false;
        update_poller(c);
        const Clock::time_point arrived =
            was_mid ? c.request_start : Clock::now();
        std::shared_ptr<core::Deadline> deadline;
        if (srv_.cfg_.idle_timeout_ms > 0) {
          // The handler inherits the REMAINDER of the request's 408
          // budget: the clock started at the request's first byte, and
          // the loop's timer is re-armed at the same absolute expiry so
          // the 408 can fire while the handler runs (kHandling). When it
          // does, the deadline is cancelled and the handler's late
          // completion dropped.
          const Clock::time_point expiry =
              arrived + std::chrono::milliseconds(srv_.cfg_.idle_timeout_ms);
          deadline = std::make_shared<core::Deadline>(expiry);
          c.active_deadline = deadline;
          arm_deadline_at(c, expiry);
        } else {
          disarm_deadline(c);
        }
        if (!srv_.pool_->submit(HandlerPool::Job{this, c.id, std::move(req),
                                                 keep, std::move(deadline),
                                                 arrived, Clock::now(),
                                                 c.trace})) {
          // Raced stop(): the pool is draining and this job would never
          // run. Close unanswered, like any request stop() didn't reach.
          close_conn(c);
        }
        return false;
      }
    }
    return false;
  }

  /// Starts the request's trace at dispatch. Its origin is the return of
  /// the recv that delivered the message's first byte, so a request read
  /// in one segment still has its wire time and its HTTP parse; edge.read
  /// is the time from there to dispatch minus the parsing, which is the
  /// `parse` span. (A message whose start was read before a tracer was
  /// attached starts at dispatch.)
  void start_trace(Conn& c, const HttpRequest& req, obs::Tracer* tracer) {
    std::uint64_t id = 0;
    if (const std::string* h = req.header("x-estima-trace-id")) {
      id = obs::parse_trace_id(*h).value_or(0);
    }
    const Clock::time_point dispatched = Clock::now();
    const Clock::time_point t0 =
        c.message_start != Clock::time_point{} ? c.message_start : dispatched;
    c.message_start = {};
    c.trace = tracer->start(id, t0);
    const std::uint64_t wire_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(dispatched - t0)
            .count());
    const std::uint64_t parse_ns = std::min(c.parse_ns, wire_ns);
    c.trace->add_ns(obs::Stage::kEdgeRead, 0, wire_ns - parse_ns);
    if (parse_ns > 0) c.trace->add_ns(obs::Stage::kParse, 0, parse_ns);
  }

  /// Offers a complete request to the server's LoopAnswer, on this
  /// thread. True when it answered and the response is being written;
  /// false — nothing sent, nothing counted — hands the request to the
  /// pool. Which requests it answers, and how large a body it reads, is
  /// the LoopAnswer's to decide. The answer gets no propagated deadline
  /// (it computes nothing), and the connection keeps its read interest,
  /// so a write that completes at once costs no poller update.
  bool answer_on_loop(Conn& c, const HttpRequest& req, bool keep) {
    if (!srv_.loop_answer_) return false;
    std::optional<HttpResponse> resp;
    try {
      RequestContext ctx;
      ctx.trace = c.trace;
      resp = srv_.loop_answer_(req, ctx);
    } catch (const std::exception&) {
      return false;  // the pool runs it again and maps the error
    }
    if (!resp) return false;
    keep = keep && !srv_.stopping_.load(std::memory_order_acquire);
    std::string wire;
    {
      obs::SpanTimer span(c.trace.get(), obs::Stage::kEdgeEncode);
      wire = encode(*resp, keep, c.trace.get());
    }
    begin_write(c, std::move(wire), keep, resp->status, /*on_loop=*/true);
    return true;
  }

  /// An error the edge answers itself (admission overflow, a malformed
  /// request, a 408), closed after a lingering write so the answer
  /// survives the client's still-unread bytes.
  void respond_error(Conn& c, int status, const std::string& reason) {
    begin_write(c,
                encode(plain_response(status, reason), false, c.trace.get()),
                /*keep=*/false, status, /*on_loop=*/false, /*linger=*/true);
  }

  void apply_completion(Completion& done) {
    const auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) return;  // connection died meanwhile
    Conn& c = it->second;
    if (c.st != St::kHandling) return;
    c.active_deadline.reset();  // answered: nothing left to cancel
    begin_write(c, std::move(done.wire), done.keep, done.status,
                /*on_loop=*/false);
  }

  /// The one write starter, for every response: the pool's completion,
  /// the loop's answer or the edge's own error. Answered, the request's
  /// 408 deadline is moot. `linger` drains the client's unread bytes
  /// after the write, then closes. Read interest is left as it is: a
  /// write that completes at once costs no poller update, and one that
  /// blocks drops it in try_write.
  void begin_write(Conn& c, std::string wire, bool keep, int status,
                   bool on_loop, bool linger = false) {
    disarm_deadline(c);
    srv_.count_response(status, on_loop);
    c.out = std::move(wire);
    c.out_off = 0;
    c.close_after_write = !keep;
    c.linger_after_write = linger;
    c.st = St::kWriting;
    if (c.trace) c.write_start = Clock::now();
    try_write(c);
  }

  void try_write(Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t w = fault::checked_send("net.write", c.fd,
                                            c.out.data() + c.out_off,
                                            c.out.size() - c.out_off);
      if (w >= 0) {
        c.out_off += static_cast<std::size_t>(w);
        continue;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Wait for room; stop reading meanwhile (a loop answer starts
        // its write with read interest still set).
        if (!c.want_write || c.want_read) {
          c.want_write = true;
          c.want_read = false;
          update_poller(c);
        }
        // A peer that stops reading its response gets the same budget a
        // slow sender does.
        if (c.deadline == kUnarmed) {
          arm_deadline(c, srv_.cfg_.idle_timeout_ms);
        }
        return;
      }
      close_conn(c);  // peer reset: response undeliverable
      return;
    }
    // Response fully written.
    c.out.clear();
    c.out_off = 0;
    disarm_deadline(c);
    if (c.trace) {
      // The request is answered on the wire: close its trace — record
      // edge.write, fold the total into the request histogram, retain
      // the breakdown in the slow ring when over the threshold.
      const Clock::time_point now = Clock::now();
      c.trace->add(obs::Stage::kEdgeWrite, c.write_start, now);
      c.trace->tracer()->finish(*c.trace, now);
      c.trace.reset();
    }
    if (c.want_write) {
      c.want_write = false;
      update_poller(c);
    }
    if (c.linger_after_write) {
      ::shutdown(c.fd, SHUT_WR);
      c.st = St::kLingering;
      if (!c.want_read) {
        c.want_read = true;
        update_poller(c);
      }
      arm_deadline(c, kLingerTimeoutMs);
      return;
    }
    if (c.close_after_write) {
      close_conn(c);
      return;
    }
    // Keep-alive: next message may already be buffered (pipelining).
    // Inside process() (a loop answer written at once) the caller's
    // iteration takes it.
    c.st = St::kReading;
    c.mid_request = false;
    if (c.id != processing_) process(c);
  }

  void fire_due_timers() {
    const auto now = Clock::now();
    while (!timers_.empty() && timers_.begin()->first <= now) {
      Conn& c = conns_.at(timers_.begin()->second);
      disarm_deadline(c);
      switch (c.st) {
        case St::kReading:
          srv_.on_timeout();
          if (c.mid_request) {
            respond_error(c, 408, "request timed out");
          } else {
            close_conn(c);  // idle keep-alive silence: close unanswered
          }
          break;
        case St::kWriting:    // stalled response write
        case St::kLingering:  // drain budget exhausted
          close_conn(c);
          break;
        case St::kHandling:
          // The request's 408 budget ran out while the handler owns it:
          // answer 408 now, and expire the propagated deadline so the
          // abandoned compute stops burning pool CPU. The handler's late
          // completion is dropped (the connection left kHandling).
          srv_.on_timeout();
          if (c.active_deadline) {
            c.active_deadline->cancel();
            c.active_deadline.reset();
          }
          respond_error(c, 408, "request timed out");
          break;
      }
    }
  }

  void sweep_for_stop() {
    // Close everything not owed a response; kHandling/kWriting conns
    // finish naturally (the handler pool is drained before loops are
    // asked to exit).
    std::vector<std::uint64_t> victims;
    for (const auto& [id, c] : conns_) {
      if (c.st == St::kReading || c.st == St::kLingering) {
        victims.push_back(id);
      }
    }
    for (const std::uint64_t id : victims) close_conn(conns_.at(id));
  }

  HttpServer& srv_;
  Poller poller_;
  int wake_rd_ = -1;
  int wake_wr_ = -1;
  /// While the listener is out of the poller after an accept error: when
  /// it comes back (never, once stopping).
  std::optional<Clock::time_point> listener_resume_;

  std::mutex inbox_mu_;
  std::deque<Completion> completions_;

  std::unordered_map<std::uint64_t, Conn> conns_;
  /// (deadline, connection id), one entry per armed deadline.
  std::set<std::pair<Clock::time_point, std::uint64_t>> timers_;
  std::uint64_t next_conn_id_ = kListenerId;
  /// The connection process() is iterating over (0: none).
  std::uint64_t processing_ = 0;
};

void HttpServer::HandlerPool::run() {
  for (;;) {
    Job job;
    bool shedding_now = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return draining_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // draining and nothing left
      job = std::move(jobs_.front());
      jobs_.pop_front();
      shedding_now = shedding_locked();
    }
    if (job.trace) {
      job.trace->add(obs::Stage::kQueueWait, job.enqueued, Clock::now());
    }
    RequestContext ctx;
    ctx.deadline = job.deadline;
    ctx.arrived = job.arrived;
    ctx.shedding = shedding_now;
    ctx.trace = job.trace;
    HttpResponse resp;
    try {
      resp = srv_.handler_(job.req, ctx);
    } catch (const core::DeadlineExceeded& e) {
      resp = plain_response(408, e.what());
    } catch (const std::invalid_argument& e) {
      resp = plain_response(400, e.what());
    } catch (const std::exception& e) {
      resp = plain_response(500, e.what());
    }
    const bool keep =
        job.keep && !srv_.stopping_.load(std::memory_order_acquire);
    std::string wire;
    {
      // Wire assembly is its own stage: `serialize` is the router's body
      // rendering, recorded once per request.
      obs::SpanTimer span(job.trace.get(), obs::Stage::kEdgeEncode);
      wire = encode(resp, keep, job.trace.get());
    }
    job.loop->post_completion(job.conn_id, std::move(wire), keep,
                              resp.status);
  }
}

void HttpServer::HandlerPool::respond_shed(Job& job) {
  srv_.on_shed();
  // Nothing will ever compute this request; let any propagated-deadline
  // watcher (none today, but the contract is uniform) see it as dead.
  if (job.deadline) job.deadline->cancel();
  HttpResponse resp = plain_response(503, "server overloaded, retry later");
  resp.headers.emplace_back("retry-after",
                            std::to_string(kRetryAfterSeconds));
  // A shed request never reaches the router (the usual event emitter), so
  // the edge writes its line: queue wait is the only latency it ever had.
  if (srv_.cfg_.event_log != nullptr) {
    const double waited_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - job.enqueued)
            .count();
    srv_.cfg_.event_log->emit(obs::format_request_event(
        job.trace ? obs::format_trace_id(job.trace->trace_id()) : "",
        job.req.target, 503, "", "shed", "", waited_ms));
  }
  const bool keep =
      job.keep && !srv_.stopping_.load(std::memory_order_acquire);
  job.loop->post_completion(job.conn_id,
                            encode(resp, keep, job.trace.get()), keep,
                            resp.status);
}

// ---------------------------------------------------------------------------
// HttpServer

HttpServer::HttpServer(ServerConfig cfg, Handler handler,
                       LoopAnswer loop_answer)
    : cfg_(std::move(cfg)),
      handler_(std::move(handler)),
      loop_answer_(std::move(loop_answer)),
      tracer_(cfg_.tracer) {}

bool HttpServer::shedding() const {
  return pool_ != nullptr && pool_->shedding();
}

void HttpServer::on_shed() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests_shed;
}

void HttpServer::on_timers_queued(std::int64_t delta) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.timers_queued += static_cast<std::uint64_t>(delta);
}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  if (running_.load()) return;
  // A client that disconnects mid-response must surface as a write error,
  // not kill the process with SIGPIPE. Process-wide, idempotent.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("http server: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::inet_pton(AF_INET, cfg_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("http server: bad bind address " +
                             cfg_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) <
          0 ||
      ::listen(listen_fd_, kListenBacklog) < 0) {
    const std::string err = std::strerror(errno);
    close_quietly(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("http server: cannot listen on " +
                             cfg_.bind_address + ":" +
                             std::to_string(cfg_.port) + ": " + err);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);  // every loop accepts; the losers read EAGAIN

  stopping_.store(false);
  running_.store(true);
  // The pool exists before any loop can accept and dispatch to it.
  pool_ = std::make_unique<HandlerPool>(
      *this, cfg_.worker_threads > 0 ? cfg_.worker_threads : 1);
  const std::size_t loops = cfg_.io_threads > 0 ? cfg_.io_threads : 1;
  for (std::size_t i = 0; i < loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>(*this));
  }
  for (auto& loop : loops_) {
    loop_threads_.emplace_back([l = loop.get()] { l->run(); });
  }
}

void HttpServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);
  // Shutting down the listener refuses new connections and wakes every
  // loop, whose next accept fails and drops the listener for good.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  // Finish every dispatched request so its response can still be written
  // (the loops are alive and consuming completions while this drains).
  if (pool_) pool_->drain_and_join();
  for (auto& loop : loops_) loop->wake();
  for (auto& t : loop_threads_) {
    if (t.joinable()) t.join();
  }
  // Closed only now, so its number cannot be reused under a running loop.
  close_quietly(listen_fd_);
  listen_fd_ = -1;
  loop_threads_.clear();
  loops_.clear();
  pool_.reset();
}

ServerStats HttpServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool HttpServer::on_accept() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_accepted;
  ++stats_.open_connections;
  stats_.peak_connections =
      std::max(stats_.peak_connections, stats_.open_connections);
  const bool over_cap = cfg_.max_connections > 0 &&
                        stats_.open_connections > cfg_.max_connections;
  if (over_cap) ++stats_.overflow_rejections;
  return over_cap;
}

void HttpServer::on_close() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_closed;
  --stats_.open_connections;
}

void HttpServer::on_timeout() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.connections_timed_out;
}

void HttpServer::on_parse_error() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.parse_errors;
}

void HttpServer::count_response(int status, bool on_loop) {
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.requests_served;
  if (on_loop) ++stats_.requests_answered_on_loop;
  if (status >= 500) {
    ++stats_.responses_5xx;
  } else if (status >= 400) {
    ++stats_.responses_4xx;
  }
}

}  // namespace estima::net
