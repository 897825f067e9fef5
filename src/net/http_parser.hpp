// Incremental, limit-enforcing HTTP/1.1 message parsing — the only piece
// of the network front end that ever touches untrusted bytes directly.
//
// RequestParser is a push parser: feed() it whatever the socket produced
// (a single byte at a time is fine — tests deliver requests split at every
// byte boundary) and check state(). It enforces hard limits *while*
// accumulating, so a hostile client cannot make the server buffer an
// unbounded request line, header block or body: the parser flips to
// kError with the right 4xx status the moment a limit is crossed, before
// the offending bytes are retained. Chunked transfer encoding is rejected
// (411: this edge requires Content-Length), and a parse error is sticky —
// the connection that produced it must be answered and closed, never
// resynchronized, because nothing after a malformed request head can be
// trusted as a message boundary.
//
// feed() returns how many bytes it consumed, which is the whole pipelining
// story: on kComplete the parser stops exactly at the end of the message,
// the caller handles the request, reset()s, and feeds the remainder.
//
// ResponseParser is the same machine for the client side (status line
// instead of request line); HttpResponse serialization lives here too so
// the server and the tests agree byte-for-byte on what goes on the wire.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace estima::net {

/// Hard ceilings enforced during parsing. Defaults are generous for real
/// campaigns (a CSV body is a few KB) yet small enough that one
/// connection cannot hold megabytes of half-parsed garbage.
struct ParserLimits {
  std::size_t max_start_line = 8 * 1024;    ///< request/status line bytes
  std::size_t max_header_bytes = 64 * 1024; ///< header block, terminator incl.
  std::size_t max_headers = 128;            ///< header field count
  std::size_t max_body_bytes = 8 * 1024 * 1024;
};

struct HttpRequest {
  std::string method;  ///< as sent (method tokens are case-sensitive)
  std::string target;  ///< origin-form target, e.g. "/v1/predict"
  int version_minor = 1;  ///< 0 or 1 (major is always 1 once parsed)
  /// Field names lowercased at parse time; values trimmed of optional
  /// whitespace. Order preserved.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// nullptr when absent; `name` must be lowercase.
  const std::string* header(const std::string& name) const;
  /// HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close; an explicit
  /// Connection token always wins.
  bool keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  const std::string* header(const std::string& name) const;
};

/// The reason phrase for every status this edge emits.
std::string status_reason(int status);

/// Wire form of a response: status line, caller headers, an
/// x-estima-trace-id header when `trace_id` is non-empty, then
/// Content-Length and Connection (from `keep_alive`) — the two the server
/// owns — and the body.
std::string serialize_response(const HttpResponse& resp, bool keep_alive,
                               std::string_view trace_id = {});

/// Wire form of a request, for HttpClient and the benches.
std::string serialize_request(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool keep_alive = true);

class RequestParser {
 public:
  enum class State {
    kNeedMore,  ///< message incomplete; feed more bytes
    kComplete,  ///< request() is valid; surplus bytes were not consumed
    kError,     ///< malformed or over-limit; error_status()/error_reason()
  };

  explicit RequestParser(ParserLimits limits = {});

  /// Consumes up to n bytes; returns how many were taken. Stops consuming
  /// at the end of a complete message (pipelining) and consumes nothing
  /// further once in kError (a broken connection has no next message).
  std::size_t feed(const char* data, std::size_t n);

  State state() const { return state_; }

  /// Whether any byte of the current message has been consumed — what a
  /// server's connection state machine needs to distinguish a timed-out
  /// request (answer 408) from idle keep-alive silence (close quietly).
  /// Leading blank lines, tolerated per RFC 7230 §3.5, do not start a
  /// message.
  bool mid_message() const {
    return phase_ != Phase::kStartLine || !line_.empty();
  }

  /// The 4xx (or 505) status a server should answer with: 400 malformed,
  /// 411 chunked/missing-length rejection, 413 body too large, 431 start
  /// line or header block too large, 505 wrong HTTP major version.
  int error_status() const { return error_status_; }
  const std::string& error_reason() const { return error_reason_; }

  /// Valid only in kComplete.
  const HttpRequest& request() const { return request_; }

  /// Valid only in kComplete: moves the request out and reset()s, so a
  /// server hands each request on without copying its body or headers.
  HttpRequest take_request();

  /// Back to a fresh parser (same limits) for the next keep-alive message.
  void reset();

 private:
  enum class Phase { kStartLine, kHeaders, kBody, kDone, kFailed };

  void fail(int status, const std::string& reason);
  bool parse_start_line(const std::string& line);
  bool parse_header_line(const std::string& line);
  bool finish_headers();

  ParserLimits limits_;
  Phase phase_ = Phase::kStartLine;
  State state_ = State::kNeedMore;
  std::string line_;          ///< current start/header line being assembled
  std::size_t header_bytes_ = 0;
  std::size_t body_expected_ = 0;
  int error_status_ = 0;
  std::string error_reason_;
  HttpRequest request_;
};

/// Client-side twin: parses "HTTP/1.x <status> <reason>" + headers +
/// Content-Length body with the same incremental contract. Responses with
/// neither Content-Length nor a recognisable framing are rejected rather
/// than read-to-close: every peer this client talks to (our server) always
/// sends a length.
class ResponseParser {
 public:
  enum class State { kNeedMore, kComplete, kError };

  explicit ResponseParser(ParserLimits limits = {});

  std::size_t feed(const char* data, std::size_t n);
  State state() const { return state_; }
  const std::string& error_reason() const { return error_reason_; }
  const HttpResponse& response() const { return response_; }
  /// Whether the server will keep the connection open after this response.
  bool keep_alive() const { return keep_alive_; }
  void reset();

 private:
  enum class Phase { kStatusLine, kHeaders, kBody, kDone, kFailed };

  void fail(const std::string& reason);

  ParserLimits limits_;
  Phase phase_ = Phase::kStatusLine;
  State state_ = State::kNeedMore;
  std::string line_;
  std::size_t header_bytes_ = 0;
  std::size_t body_expected_ = 0;
  bool keep_alive_ = true;
  int version_minor_ = 1;
  std::string error_reason_;
  HttpResponse response_;
};

}  // namespace estima::net
