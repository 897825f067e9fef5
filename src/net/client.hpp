// A small blocking HTTP/1.1 client over POSIX sockets — enough for the
// tests, the benches and scripted callers of the serving edge. Keep-alive
// by default: the connection is reused across request() calls and
// transparently re-established when the server closed it (or after a
// Connection: close response). Not thread-safe; one client per thread.
#pragma once

#include <cstdint>
#include <functional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "net/http_parser.hpp"

namespace estima::net {

/// Retry policy for HttpClient::request_with_retry. Delays follow
/// decorrelated jitter — each delay is drawn uniformly from
/// [base_delay_ms, 3 * previous_delay], capped at max_delay_ms — which
/// spreads a thundering herd of retrying clients apart instead of
/// synchronising them the way plain exponential backoff does. A shed
/// server's Retry-After header acts as a floor on the drawn delay (the
/// server knows its recovery horizon better than our jitter does).
struct RetryConfig {
  /// Total tries, the first included. <= 1 means no retries.
  int max_attempts = 4;
  int base_delay_ms = 50;
  int max_delay_ms = 2'000;
  /// Cumulative sleep budget across one request_with_retry call: a retry
  /// whose delay would push the total past this is not attempted —
  /// the last outcome (response or error) is returned/rethrown instead.
  int budget_ms = 10'000;
  /// Seed for the jitter RNG; fixed seeds make retry timing replayable.
  std::uint64_t seed = 0;
  /// Test seam: called instead of sleeping when set (argument: delay ms).
  std::function<void(int)> sleep_fn;
};

class HttpClient {
 public:
  /// Does not connect yet; the first request() does.
  HttpClient(std::string host, int port, ParserLimits limits = {});
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  /// Sends one request and blocks for the full response. Throws
  /// std::runtime_error on connect/IO/parse failure (an HTTP error status
  /// is a *response*, not an exception — callers check resp.status).
  HttpResponse request(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::vector<std::pair<std::string, std::string>>& headers = {});

  /// request() wrapped in the client's RetryConfig: transport failures
  /// (connect/send/recv/parse) and 503 responses (how the server sheds)
  /// are retried with decorrelated-jitter backoff until an answer arrives,
  /// attempts run out, or the sleep budget is exhausted; then the last
  /// response is returned or the last transport error rethrown.
  ///
  /// Only use for idempotent requests: a retried request may execute
  /// twice on the server (the failure can postdate the side effect). The
  /// serving edge's routes are idempotent (predictions are pure), so its
  /// clients retry freely.
  HttpResponse request_with_retry(
      const std::string& method, const std::string& target,
      const std::string& body = "",
      const std::vector<std::pair<std::string, std::string>>& headers = {});

  void set_retry_config(RetryConfig cfg);
  const RetryConfig& retry_config() const { return retry_; }

  HttpResponse get(const std::string& target) {
    return request("GET", target);
  }
  HttpResponse post(const std::string& target, const std::string& body,
                    const std::string& content_type = "text/plain") {
    return request("POST", target, body, {{"content-type", content_type}});
  }

  /// Drops the connection; the next request() reconnects.
  void disconnect();

 private:
  void connect();
  bool send_all(const std::string& data);
  /// After a send failure: salvages whatever response bytes the peer
  /// delivered before the connection broke (a server may answer — an
  /// early 413, say — and close its read side while we are still
  /// sending). Bounded by a short poll per read so a wedged peer cannot
  /// hang the client. Returns whether any byte arrived.
  bool read_available(ResponseParser& parser);

  /// One backoff delay: decorrelated jitter off prev_delay_ms, floored by
  /// retry_after_ms (from a 503's header; <= 0 when absent).
  int next_delay_ms(int prev_delay_ms, int retry_after_ms);

  std::string host_;
  int port_;
  ParserLimits limits_;
  int fd_ = -1;
  RetryConfig retry_;
  /// Persistent across calls so successive retry sequences keep drawing
  /// fresh jitter instead of replaying the first sequence.
  std::mt19937_64 rng_{0x9e3779b97f4a7c15ull};
};

}  // namespace estima::net
