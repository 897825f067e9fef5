#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "fault/checked_io.hpp"

namespace estima::net {
namespace {

/// Retry-After seconds from a 503, as milliseconds; <= 0 when absent or
/// unparsable. (Only the delta-seconds form is supported; the HTTP-date
/// form is ignored — a floor of 0 just falls back to pure jitter.)
int retry_after_ms(const HttpResponse& resp) {
  for (const auto& [name, value] : resp.headers) {
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (lower != "retry-after") continue;
    char* end = nullptr;
    const long secs = std::strtol(value.c_str(), &end, 10);
    if (end == value.c_str() || secs < 0) return 0;
    return static_cast<int>(std::min<long>(secs, 3'600) * 1'000);
  }
  return 0;
}

}  // namespace

HttpClient::HttpClient(std::string host, int port, ParserLimits limits)
    : host_(std::move(host)), port_(port), limits_(limits) {}

HttpClient::~HttpClient() { disconnect(); }

void HttpClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void HttpClient::connect() {
  ::signal(SIGPIPE, SIG_IGN);
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw std::runtime_error("http client: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    disconnect();
    throw std::runtime_error("http client: bad address " + host_);
  }
  if (fault::checked_connect("client.connect", fd_,
                             reinterpret_cast<sockaddr*>(&addr),
                             sizeof addr) < 0) {
    const std::string err = std::strerror(errno);
    disconnect();
    throw std::runtime_error("http client: cannot connect to " + host_ + ":" +
                             std::to_string(port_) + ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

bool HttpClient::send_all(const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t w = fault::checked_send("client.send", fd_,
                                          data.data() + off,
                                          data.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

bool HttpClient::read_available(ResponseParser& parser) {
  char buf[16 * 1024];
  bool got = false;
  while (parser.state() == ResponseParser::State::kNeedMore) {
    struct pollfd pfd;
    pfd.fd = fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 1000);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (rc == 0) break;  // nothing more is coming
    const ssize_t r = fault::checked_recv("client.recv", fd_, buf, sizeof buf);
    if (r <= 0) break;  // EOF or reset: we have what we have
    got = true;
    parser.feed(buf, static_cast<std::size_t>(r));
  }
  return got;
}

HttpResponse HttpClient::request(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  const std::string wire = serialize_request(method, target, body, headers);

  // One transparent retry: a kept-alive connection the server has since
  // closed (idle timeout, restart) surfaces as a send failure or an
  // immediate EOF *before any response byte* — reconnect once and resend.
  // Retrying is only safe in that no-bytes case: once response bytes
  // exist, resending would duplicate a request the server already acted
  // on, so the response is delivered (when complete) or the failure
  // surfaced instead. A no-bytes failure on a fresh connection is real
  // and propagates.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool fresh = fd_ < 0;
    if (fresh) connect();
    if (!send_all(wire)) {
      // The peer may have answered before reading everything we sent —
      // our own server's early 413/400 takes exactly this shape: respond,
      // shut down, drain. Salvage those bytes before deciding.
      ResponseParser early(limits_);
      const bool got_bytes = read_available(early);
      disconnect();
      if (early.state() == ResponseParser::State::kComplete) {
        return early.response();
      }
      if (got_bytes) {
        throw std::runtime_error(
            "http client: connection closed mid-response");
      }
      if (fresh) throw std::runtime_error("http client: send failed");
      continue;
    }

    ResponseParser parser(limits_);
    char buf[16 * 1024];
    bool got_bytes = false;
    while (parser.state() == ResponseParser::State::kNeedMore) {
      const ssize_t r = fault::checked_recv("client.recv", fd_, buf,
                                            sizeof buf);
      if (r < 0) {
        if (errno == EINTR) continue;
        disconnect();
        throw std::runtime_error("http client: recv failed: " +
                                 std::string(std::strerror(errno)));
      }
      if (r == 0) break;  // EOF
      got_bytes = true;
      parser.feed(buf, static_cast<std::size_t>(r));
    }
    if (parser.state() == ResponseParser::State::kComplete) {
      if (!parser.keep_alive()) disconnect();
      return parser.response();
    }
    disconnect();
    // EOF before any byte on a reused connection: stale keep-alive, retry.
    if (!got_bytes && !fresh && attempt == 0) continue;
    throw std::runtime_error(
        parser.state() == ResponseParser::State::kError
            ? "http client: malformed response: " + parser.error_reason()
            : "http client: connection closed mid-response");
  }
  throw std::runtime_error("http client: request failed after reconnect");
}

void HttpClient::set_retry_config(RetryConfig cfg) {
  retry_ = std::move(cfg);
  rng_.seed(retry_.seed != 0 ? retry_.seed : 0x9e3779b97f4a7c15ull);
}

int HttpClient::next_delay_ms(int prev_delay_ms, int floor_ms) {
  const int base = std::max(retry_.base_delay_ms, 1);
  const int cap = std::max(retry_.max_delay_ms, base);
  // Decorrelated jitter: uniform in [base, 3 * prev], clamped to the cap.
  const long long hi =
      std::min<long long>(3LL * std::max(prev_delay_ms, base), cap);
  std::uniform_int_distribution<long long> dist(base, std::max<long long>(
                                                          base, hi));
  long long d = dist(rng_);
  // A server-provided Retry-After may exceed the local cap: the server
  // knows its own recovery horizon, so the floor wins over the cap.
  if (floor_ms > 0) d = std::max<long long>(d, floor_ms);
  return static_cast<int>(d);
}

HttpResponse HttpClient::request_with_retry(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  const int attempts = std::max(retry_.max_attempts, 1);
  int slept_ms = 0;
  int prev_delay = retry_.base_delay_ms;

  for (int attempt = 1;; ++attempt) {
    int floor_ms = 0;
    std::exception_ptr failure;
    try {
      HttpResponse resp = request(method, target, body, headers);
      if (resp.status != 503 || attempt >= attempts) return resp;
      floor_ms = retry_after_ms(resp);
      // The shed 503 came over a healthy connection, but re-sending on it
      // would race the server's lingering close; start the retry clean.
      disconnect();
      const int delay = next_delay_ms(prev_delay, floor_ms);
      if (slept_ms + delay > std::max(retry_.budget_ms, 0)) return resp;
      prev_delay = delay;
      slept_ms += delay;
      if (retry_.sleep_fn) {
        retry_.sleep_fn(delay);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      continue;
    } catch (const std::exception&) {
      if (attempt >= attempts) throw;
      failure = std::current_exception();
    }
    // Transport failure with attempts left: back off and retry, unless
    // the delay would blow the sleep budget — then surface the failure.
    const int delay = next_delay_ms(prev_delay, 0);
    if (slept_ms + delay > std::max(retry_.budget_ms, 0)) {
      std::rethrow_exception(failure);
    }
    prev_delay = delay;
    slept_ms += delay;
    if (retry_.sleep_fn) {
      retry_.sleep_fn(delay);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
  }
}

}  // namespace estima::net
