#include "net/http_parser.hpp"

#include <algorithm>
#include <cctype>
#include <utility>

namespace estima::net {
namespace {

std::string to_lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

void trim_ows(std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t')) --e;
  s = s.substr(b, e - b);
}

// RFC 7230 token characters — what a method or header field name may
// contain. Anything else in those positions is a malformed message, not a
// message we merely don't support.
bool is_token_char(unsigned char c) {
  if (std::isalnum(c)) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

bool is_token(const std::string& s) {
  if (s.empty()) return false;
  for (unsigned char c : s) {
    if (!is_token_char(c)) return false;
  }
  return true;
}

/// Strict decimal parse for Content-Length: digits only, no sign, no
/// whitespace, no overflow. Returns false on anything else — "1x" or "-1"
/// as a length is an attack or a bug, never a request to honour.
bool parse_content_length(const std::string& s, std::size_t* out) {
  if (s.empty() || s.size() > 18) return false;
  std::size_t v = 0;
  for (unsigned char c : s) {
    if (!std::isdigit(c)) return false;
    v = v * 10 + (c - '0');
  }
  *out = v;
  return true;
}

const std::string* find_header(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& h : headers) {
    if (h.first == name) return &h.second;
  }
  return nullptr;
}

/// Whether a Connection header's comma-separated token list contains
/// `token` (already lowercase).
bool connection_has_token(const std::string& value, const std::string& token) {
  std::size_t pos = 0;
  while (pos <= value.size()) {
    std::size_t comma = value.find(',', pos);
    if (comma == std::string::npos) comma = value.size();
    std::string item = value.substr(pos, comma - pos);
    trim_ows(item);
    if (to_lower(item) == token) return true;
    pos = comma + 1;
  }
  return false;
}

bool keep_alive_of(const std::vector<std::pair<std::string, std::string>>& hs,
                   int version_minor) {
  if (const std::string* conn = find_header(hs, "connection")) {
    if (connection_has_token(*conn, "close")) return false;
    if (connection_has_token(*conn, "keep-alive")) return true;
  }
  return version_minor >= 1;
}

/// Pulls one line out of (data, n) into `line`, tolerating both CRLF and
/// bare LF. Returns bytes consumed; sets *complete when a terminator was
/// seen. `limit` caps the assembled line; *overflow reports a breach.
std::size_t take_line(std::string& line, const char* data, std::size_t n,
                      std::size_t limit, bool* complete, bool* overflow) {
  *complete = false;
  *overflow = false;
  std::size_t i = 0;
  while (i < n) {
    const char c = data[i++];
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      *complete = true;
      return i;
    }
    line.push_back(c);
    if (line.size() > limit) {
      *overflow = true;
      return i;
    }
  }
  return i;
}

}  // namespace

const std::string* HttpRequest::header(const std::string& name) const {
  return find_header(headers, name);
}

bool HttpRequest::keep_alive() const {
  return keep_alive_of(headers, version_minor);
}

const std::string* HttpResponse::header(const std::string& name) const {
  return find_header(headers, name);
}

std::string status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default:  return "Status";
  }
}

std::string serialize_response(const HttpResponse& resp, bool keep_alive,
                               std::string_view trace_id) {
  std::string out;
  out.reserve(resp.body.size() + 256);
  out += "HTTP/1.1 " + std::to_string(resp.status) + ' ' +
         status_reason(resp.status) + "\r\n";
  for (const auto& h : resp.headers) {
    out += h.first + ": " + h.second + "\r\n";
  }
  if (!trace_id.empty()) {
    out += "x-estima-trace-id: ";
    out += trace_id;
    out += "\r\n";
  }
  out += "Content-Length: " + std::to_string(resp.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += resp.body;
  return out;
}

std::string serialize_request(
    const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& headers,
    bool keep_alive) {
  std::string out;
  out.reserve(body.size() + 256);
  out += method + ' ' + target + " HTTP/1.1\r\n";
  for (const auto& h : headers) {
    out += h.first + ": " + h.second + "\r\n";
  }
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  if (!keep_alive) out += "Connection: close\r\n";
  out += "\r\n";
  out += body;
  return out;
}

// ---------------------------------------------------------------------------
// RequestParser

RequestParser::RequestParser(ParserLimits limits) : limits_(limits) {}

void RequestParser::reset() {
  phase_ = Phase::kStartLine;
  state_ = State::kNeedMore;
  line_.clear();
  header_bytes_ = 0;
  body_expected_ = 0;
  error_status_ = 0;
  error_reason_.clear();
  request_ = HttpRequest{};
}

HttpRequest RequestParser::take_request() {
  HttpRequest out = std::move(request_);
  reset();
  return out;
}

void RequestParser::fail(int status, const std::string& reason) {
  phase_ = Phase::kFailed;
  state_ = State::kError;
  error_status_ = status;
  error_reason_ = reason;
}

bool RequestParser::parse_start_line(const std::string& line) {
  // method SP request-target SP HTTP/1.x — exactly two spaces.
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) {
    fail(400, "malformed request line");
    return false;
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos ||
      line.find(' ', sp2 + 1) != std::string::npos) {
    fail(400, "malformed request line");
    return false;
  }
  request_.method = line.substr(0, sp1);
  request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string version = line.substr(sp2 + 1);
  if (!is_token(request_.method)) {
    fail(400, "malformed method token");
    return false;
  }
  if (request_.target.empty() || request_.target[0] != '/') {
    fail(400, "request target must be origin-form");
    return false;
  }
  if (version.size() != 8 || version.rfind("HTTP/", 0) != 0 ||
      version[6] != '.' || !std::isdigit(static_cast<unsigned char>(version[5])) ||
      !std::isdigit(static_cast<unsigned char>(version[7]))) {
    fail(400, "malformed HTTP version");
    return false;
  }
  if (version[5] != '1') {
    fail(505, "unsupported HTTP major version");
    return false;
  }
  request_.version_minor = version[7] - '0';
  if (request_.version_minor > 1) {
    fail(505, "unsupported HTTP minor version");
    return false;
  }
  return true;
}

bool RequestParser::parse_header_line(const std::string& line) {
  if (request_.headers.size() >= limits_.max_headers) {
    fail(431, "too many header fields");
    return false;
  }
  const std::size_t colon = line.find(':');
  if (colon == std::string::npos || colon == 0) {
    fail(400, "malformed header field");
    return false;
  }
  std::string name = line.substr(0, colon);
  if (!is_token(name)) {
    // Covers the obs-fold / "name : value" cases too: space before the
    // colon is not a token character.
    fail(400, "malformed header field name");
    return false;
  }
  std::string value = line.substr(colon + 1);
  trim_ows(value);
  request_.headers.emplace_back(to_lower(std::move(name)), std::move(value));
  return true;
}

bool RequestParser::finish_headers() {
  // This edge frames every body with Content-Length. Any Transfer-Encoding
  // (chunked or otherwise) is answered 411: send a length.
  if (request_.header("transfer-encoding") != nullptr) {
    fail(411, "transfer-encoding not supported; send Content-Length");
    return false;
  }
  body_expected_ = 0;
  bool have_length = false;
  for (const auto& h : request_.headers) {
    if (h.first != "content-length") continue;
    std::size_t value = 0;
    if (!parse_content_length(h.second, &value)) {
      fail(400, "malformed Content-Length");
      return false;
    }
    // RFC 7230 §3.3.2: differing duplicate Content-Length fields are a
    // message-framing attack (request smuggling behind a proxy that
    // picks the other one), never something to resolve silently.
    if (have_length && value != body_expected_) {
      fail(400, "conflicting Content-Length headers");
      return false;
    }
    body_expected_ = value;
    have_length = true;
  }
  if (have_length && body_expected_ > limits_.max_body_bytes) {
    fail(413, "request body exceeds limit");
    return false;
  }
  if (body_expected_ == 0) {
    phase_ = Phase::kDone;
    state_ = State::kComplete;
  } else {
    request_.body.reserve(body_expected_);
    phase_ = Phase::kBody;
  }
  return true;
}

std::size_t RequestParser::feed(const char* data, std::size_t n) {
  std::size_t consumed = 0;
  while (consumed < n && state_ == State::kNeedMore) {
    switch (phase_) {
      case Phase::kStartLine: {
        bool complete = false, overflow = false;
        consumed += take_line(line_, data + consumed, n - consumed,
                              limits_.max_start_line, &complete, &overflow);
        if (overflow) {
          fail(431, "request line exceeds limit");
          break;
        }
        if (!complete) break;
        // Tolerate (a bounded number of) blank lines before the request
        // line, as RFC 7230 §3.5 suggests.
        if (line_.empty()) break;
        if (parse_start_line(line_)) {
          phase_ = Phase::kHeaders;
          header_bytes_ = 0;
        }
        line_.clear();
        break;
      }
      case Phase::kHeaders: {
        bool complete = false, overflow = false;
        const std::size_t before = line_.size();
        const std::size_t took =
            take_line(line_, data + consumed, n - consumed,
                      limits_.max_header_bytes, &complete, &overflow);
        consumed += took;
        header_bytes_ += line_.size() - before + (complete ? 2 : 0);
        if (overflow || header_bytes_ > limits_.max_header_bytes) {
          fail(431, "header block exceeds limit");
          break;
        }
        if (!complete) break;
        if (line_.empty()) {
          finish_headers();
        } else {
          parse_header_line(line_);
        }
        line_.clear();
        break;
      }
      case Phase::kBody: {
        const std::size_t want = body_expected_ - request_.body.size();
        const std::size_t take = std::min(want, n - consumed);
        request_.body.append(data + consumed, take);
        consumed += take;
        if (request_.body.size() == body_expected_) {
          phase_ = Phase::kDone;
          state_ = State::kComplete;
        }
        break;
      }
      case Phase::kDone:
      case Phase::kFailed:
        return consumed;
    }
  }
  return consumed;
}

// ---------------------------------------------------------------------------
// ResponseParser

ResponseParser::ResponseParser(ParserLimits limits) : limits_(limits) {}

void ResponseParser::reset() {
  phase_ = Phase::kStatusLine;
  state_ = State::kNeedMore;
  line_.clear();
  header_bytes_ = 0;
  body_expected_ = 0;
  keep_alive_ = true;
  version_minor_ = 1;
  error_reason_.clear();
  response_ = HttpResponse{};
}

void ResponseParser::fail(const std::string& reason) {
  phase_ = Phase::kFailed;
  state_ = State::kError;
  error_reason_ = reason;
}

std::size_t ResponseParser::feed(const char* data, std::size_t n) {
  std::size_t consumed = 0;
  while (consumed < n && state_ == State::kNeedMore) {
    switch (phase_) {
      case Phase::kStatusLine: {
        bool complete = false, overflow = false;
        consumed += take_line(line_, data + consumed, n - consumed,
                              limits_.max_start_line, &complete, &overflow);
        if (overflow) {
          fail("status line exceeds limit");
          break;
        }
        if (!complete) break;
        // HTTP/1.x SP 3DIGIT SP reason
        if (line_.size() < 12 || line_.rfind("HTTP/1.", 0) != 0 ||
            line_[8] != ' ' ||
            !std::isdigit(static_cast<unsigned char>(line_[7])) ||
            !std::isdigit(static_cast<unsigned char>(line_[9])) ||
            !std::isdigit(static_cast<unsigned char>(line_[10])) ||
            !std::isdigit(static_cast<unsigned char>(line_[11]))) {
          fail("malformed status line");
          break;
        }
        version_minor_ = line_[7] - '0';
        response_.status = (line_[9] - '0') * 100 + (line_[10] - '0') * 10 +
                           (line_[11] - '0');
        phase_ = Phase::kHeaders;
        header_bytes_ = 0;
        line_.clear();
        break;
      }
      case Phase::kHeaders: {
        bool complete = false, overflow = false;
        const std::size_t before = line_.size();
        consumed += take_line(line_, data + consumed, n - consumed,
                              limits_.max_header_bytes, &complete, &overflow);
        header_bytes_ += line_.size() - before + (complete ? 2 : 0);
        if (overflow || header_bytes_ > limits_.max_header_bytes) {
          fail("header block exceeds limit");
          break;
        }
        if (!complete) break;
        if (!line_.empty()) {
          const std::size_t colon = line_.find(':');
          if (colon == std::string::npos || colon == 0) {
            fail("malformed header field");
            break;
          }
          std::string name = to_lower(line_.substr(0, colon));
          std::string value = line_.substr(colon + 1);
          trim_ows(value);
          response_.headers.emplace_back(std::move(name), std::move(value));
          line_.clear();
          break;
        }
        line_.clear();
        keep_alive_ = keep_alive_of(response_.headers, version_minor_);
        body_expected_ = 0;
        if (const std::string* cl = response_.header("content-length")) {
          if (!parse_content_length(*cl, &body_expected_)) {
            fail("malformed Content-Length");
            break;
          }
          if (body_expected_ > limits_.max_body_bytes) {
            fail("response body exceeds limit");
            break;
          }
        } else {
          fail("response lacks Content-Length");
          break;
        }
        if (body_expected_ == 0) {
          phase_ = Phase::kDone;
          state_ = State::kComplete;
        } else {
          response_.body.reserve(body_expected_);
          phase_ = Phase::kBody;
        }
        break;
      }
      case Phase::kBody: {
        const std::size_t want = body_expected_ - response_.body.size();
        const std::size_t take = std::min(want, n - consumed);
        response_.body.append(data + consumed, take);
        consumed += take;
        if (response_.body.size() == body_expected_) {
          phase_ = Phase::kDone;
          state_ = State::kComplete;
        }
        break;
      }
      case Phase::kDone:
      case Phase::kFailed:
        return consumed;
    }
  }
  return consumed;
}

}  // namespace estima::net
