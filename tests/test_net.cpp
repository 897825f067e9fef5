// The network front end's trust anchor. Five layers of proof:
//
//   1. Parser torture — a valid request must parse identically when split
//      at every byte boundary; malformed, oversized, truncated and
//      pipelined inputs must map to the right 4xx without ever crashing
//      or over-consuming.
//   2. Route/framing unit tests — the predict_batch length-framing
//      grammar is all-or-400; the hand-rolled stats JSON stays
//      well-formed as counters are added.
//   3. Loopback end-to-end — the HTTP answer for a campaign, parsed back
//      via read_prediction, is bit-identical to an in-process predict()
//      (write_prediction strings compare equal, which is the full
//      bit-exactness guarantee); malformed bytes over a real socket get
//      4xx and never take the server down; concurrent clients see the
//      one-hash-one-answer cache behaviour they'd see in-process.
//   4. Event-loop torture — hundreds of idle keep-alive connections held
//      open while live requests stay bit-identical; slow-trickle clients
//      408 without head-of-line blocking; pipelined bursts survive
//      half-closed sockets; admission overflow answers 503 and recovers.
//   5. Schedule fuzz — a seeded random client interleaving
//      connect/partial-write/idle/close across many sockets; stats
//      invariants (accepted = closed + open, counters never decrease)
//      and zero lost/duplicated responses, seed printed for replay.
#include "net/http_parser.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/measurement.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "net/client.hpp"
#include "net/fd_limit.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "net_support.hpp"
#include "service/prediction_service.hpp"
#include "service/routes.hpp"
#include "simmachine/synthetic.hpp"

namespace estima::net {
namespace {

namespace fs = std::filesystem;
using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

core::MeasurementSet demo_campaign(int seed = 0, int points = 10) {
  SyntheticSpec spec;
  spec.mem_rate = 0.25 + 0.03 * seed;
  spec.serial_frac = 0.005 + 0.001 * seed;
  spec.stm_rate = seed % 2 ? 1e-4 : 0.0;
  spec.noise = 0.02;
  return make_synthetic(spec, counts_up_to(points),
                        ("net-test-" + std::to_string(seed)).c_str());
}

std::string csv_of(const core::MeasurementSet& ms) {
  std::ostringstream os;
  core::write_csv(os, ms);
  return os.str();
}

std::string record_of(const core::Prediction& p) {
  std::ostringstream os;
  core::write_prediction(os, p);
  return os.str();
}

// ---------------------------------------------------------------------------
// 1. RequestParser torture

const char kSimpleRequest[] =
    "POST /v1/predict HTTP/1.1\r\n"
    "Host: localhost\r\n"
    "Content-Type: text/csv\r\n"
    "Content-Length: 5\r\n"
    "\r\n"
    "hello";

void expect_simple_request(const RequestParser& p) {
  ASSERT_EQ(p.state(), RequestParser::State::kComplete);
  const HttpRequest& req = p.request();
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.target, "/v1/predict");
  EXPECT_EQ(req.version_minor, 1);
  ASSERT_NE(req.header("host"), nullptr);
  EXPECT_EQ(*req.header("host"), "localhost");
  ASSERT_NE(req.header("content-type"), nullptr);
  EXPECT_EQ(*req.header("content-type"), "text/csv");
  EXPECT_EQ(req.body, "hello");
  EXPECT_TRUE(req.keep_alive());
}

TEST(RequestParser, ParsesWholeRequestInOneFeed) {
  RequestParser p;
  const std::string wire(kSimpleRequest);
  EXPECT_EQ(p.feed(wire.data(), wire.size()), wire.size());
  expect_simple_request(p);
}

TEST(RequestParser, SplitAtEveryByteBoundaryParsesIdentically) {
  const std::string wire(kSimpleRequest);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    RequestParser p;
    std::size_t used = p.feed(wire.data(), cut);
    EXPECT_EQ(used, cut) << "cut=" << cut;
    used = p.feed(wire.data() + cut, wire.size() - cut);
    EXPECT_EQ(used, wire.size() - cut) << "cut=" << cut;
    expect_simple_request(p);
    if (HasFatalFailure()) return;
  }
}

TEST(RequestParser, OneByteAtATimeParses) {
  const std::string wire(kSimpleRequest);
  RequestParser p;
  for (char c : wire) {
    ASSERT_EQ(p.feed(&c, 1), 1u);
  }
  expect_simple_request(p);
}

TEST(RequestParser, BareLfLineEndingsAccepted) {
  RequestParser p;
  const std::string wire =
      "GET /v1/stats HTTP/1.1\nHost: x\n\n";
  EXPECT_EQ(p.feed(wire.data(), wire.size()), wire.size());
  ASSERT_EQ(p.state(), RequestParser::State::kComplete);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_TRUE(p.request().body.empty());
}

TEST(RequestParser, PipeliningStopsAtMessageBoundary) {
  const std::string first(kSimpleRequest);
  const std::string second = "GET /v1/stats HTTP/1.1\r\n\r\n";
  const std::string wire = first + second;
  RequestParser p;
  const std::size_t used = p.feed(wire.data(), wire.size());
  EXPECT_EQ(used, first.size());  // surplus bytes not consumed
  expect_simple_request(p);
  p.reset();
  const std::size_t used2 = p.feed(wire.data() + used, wire.size() - used);
  EXPECT_EQ(used2, second.size());
  ASSERT_EQ(p.state(), RequestParser::State::kComplete);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/v1/stats");
}

struct BadCase {
  const char* wire;
  int status;
  const char* why;
};

TEST(RequestParser, MalformedRequestsMapToThe4xxFamily) {
  const BadCase cases[] = {
      {"GARBAGE\r\n\r\n", 400, "no spaces in request line"},
      {"GET /x\r\n\r\n", 400, "missing version"},
      {"GET /x HTTP/1.1 extra\r\n\r\n", 400, "three spaces"},
      {"G@T /x HTTP/1.1\r\n\r\n", 400, "non-token method"},
      {"GET x HTTP/1.1\r\n\r\n", 400, "target not origin-form"},
      {"GET /x HTTP/9z\r\n\r\n", 400, "mangled version"},
      {"GET /x HTTP/2.0\r\n\r\n", 505, "wrong major version"},
      {"GET /x HTTP/1.9\r\n\r\n", 505, "unknown minor version"},
      {"GET /x HTTP/1.1\r\nNoColonHere\r\n\r\n", 400, "header lacks colon"},
      {"GET /x HTTP/1.1\r\n: novalue\r\n\r\n", 400, "empty header name"},
      {"GET /x HTTP/1.1\r\nBad Name: v\r\n\r\n", 400, "space in header name"},
      {"POST /x HTTP/1.1\r\nContent-Length: 1x\r\n\r\n", 400,
       "garbage content-length"},
      {"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400,
       "negative content-length"},
      {"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 411,
       "chunked rejected"},
      {"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
       400, "conflicting duplicate content-length (smuggling vector)"},
  };
  for (const auto& c : cases) {
    // Whole-buffer and byte-at-a-time delivery must reach the same error.
    for (int byte_mode = 0; byte_mode < 2; ++byte_mode) {
      RequestParser p;
      const std::string wire(c.wire);
      if (byte_mode == 0) {
        p.feed(wire.data(), wire.size());
      } else {
        for (char ch : wire) {
          p.feed(&ch, 1);
          if (p.state() == RequestParser::State::kError) break;
        }
      }
      ASSERT_EQ(p.state(), RequestParser::State::kError)
          << c.why << " byte_mode=" << byte_mode;
      EXPECT_EQ(p.error_status(), c.status)
          << c.why << " byte_mode=" << byte_mode;
    }
  }
}

TEST(RequestParser, DuplicateContentLengthWithEqualValuesIsAccepted) {
  // RFC 7230 §3.3.2 lets a recipient collapse duplicates that agree;
  // only *differing* values are a framing attack.
  RequestParser p;
  const std::string wire =
      "POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi";
  EXPECT_EQ(p.feed(wire.data(), wire.size()), wire.size());
  ASSERT_EQ(p.state(), RequestParser::State::kComplete);
  EXPECT_EQ(p.request().body, "hi");
}

TEST(RequestParser, ErrorIsStickyAndStopsConsuming) {
  RequestParser p;
  const std::string bad = "GARBAGE\r\n\r\nGET / HTTP/1.1\r\n\r\n";
  const std::size_t used = p.feed(bad.data(), bad.size());
  EXPECT_LE(used, bad.size());
  ASSERT_EQ(p.state(), RequestParser::State::kError);
  // More bytes change nothing: a poisoned connection has no next message.
  EXPECT_EQ(p.feed(bad.data(), bad.size()), 0u);
  EXPECT_EQ(p.state(), RequestParser::State::kError);
}

TEST(RequestParser, LimitsAreEnforcedIncrementally) {
  ParserLimits limits;
  limits.max_start_line = 64;
  limits.max_header_bytes = 256;
  limits.max_headers = 4;
  limits.max_body_bytes = 128;

  {  // request line over limit -> 431, flagged mid-stream
    RequestParser p(limits);
    const std::string wire =
        "GET /" + std::string(200, 'a') + " HTTP/1.1\r\n\r\n";
    p.feed(wire.data(), wire.size());
    ASSERT_EQ(p.state(), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {  // header block over limit -> 431
    RequestParser p(limits);
    const std::string wire =
        "GET /x HTTP/1.1\r\nA: " + std::string(400, 'b') + "\r\n\r\n";
    p.feed(wire.data(), wire.size());
    ASSERT_EQ(p.state(), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {  // too many header fields -> 431
    RequestParser p(limits);
    std::string wire = "GET /x HTTP/1.1\r\n";
    for (int i = 0; i < 6; ++i) {
      wire += "H" + std::to_string(i) + ": v\r\n";
    }
    wire += "\r\n";
    p.feed(wire.data(), wire.size());
    ASSERT_EQ(p.state(), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 431);
  }
  {  // declared body over limit -> 413 before any body byte arrives
    RequestParser p(limits);
    const std::string wire =
        "POST /x HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
    p.feed(wire.data(), wire.size());
    ASSERT_EQ(p.state(), RequestParser::State::kError);
    EXPECT_EQ(p.error_status(), 413);
  }
}

TEST(RequestParser, KeepAliveSemantics) {
  struct KA {
    const char* wire;
    bool keep;
  };
  const KA cases[] = {
      {"GET / HTTP/1.1\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false},
      {"GET / HTTP/1.0\r\n\r\n", false},
      {"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true},
      {"GET / HTTP/1.1\r\nConnection: Keep-Alive, Upgrade\r\n\r\n", true},
  };
  for (const auto& c : cases) {
    RequestParser p;
    const std::string wire(c.wire);
    p.feed(wire.data(), wire.size());
    ASSERT_EQ(p.state(), RequestParser::State::kComplete) << c.wire;
    EXPECT_EQ(p.request().keep_alive(), c.keep) << c.wire;
  }
}

TEST(ResponseParser, RoundTripsSerializedResponses) {
  HttpResponse resp;
  resp.status = 404;
  resp.headers.emplace_back("content-type", "text/plain");
  resp.body = "no such route\n";
  const std::string wire = serialize_response(resp, /*keep_alive=*/true);
  for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
    ResponseParser p;
    p.feed(wire.data(), cut);
    p.feed(wire.data() + cut, wire.size() - cut);
    ASSERT_EQ(p.state(), ResponseParser::State::kComplete) << "cut=" << cut;
    EXPECT_EQ(p.response().status, 404);
    EXPECT_EQ(p.response().body, "no such route\n");
    EXPECT_TRUE(p.keep_alive());
  }
}

// ---------------------------------------------------------------------------
// 2. Batch framing grammar

TEST(Framing, RoundTripsBodies) {
  const std::vector<std::string> bodies = {"alpha", "", "with\nnewlines\n",
                                           "#entry lookalike\n"};
  const std::string framed = service::frame_bodies(bodies, "campaign");
  const auto back = service::parse_frames(framed, "campaign", 16);
  EXPECT_EQ(back, bodies);
}

TEST(Framing, RejectsEveryGrammarDeviation) {
  const auto reject = [](const std::string& body, const char* why) {
    EXPECT_THROW(service::parse_frames(body, "campaign", 4),
                 std::invalid_argument)
        << why;
  };
  reject("", "empty body");
  reject("#campaign len=5\nabc", "truncated payload");
  reject("#campaign len=3\nabc", "missing #end");
  reject("#campaign len=x\nabc#end\n", "non-numeric length");
  reject("#campaign len=\n#end\n", "empty length");
  reject("garbage\n#end\n", "leading garbage");
  reject("#end\nextra", "bytes after #end");
  reject("#campaign len=99999999999999999999\n#end\n", "overflowing length");
  const std::string five =
      service::frame_bodies({"a", "b", "c", "d", "e"}, "campaign");
  reject(five, "more frames than the cap");
}

// ---------------------------------------------------------------------------
// 3. Loopback end-to-end

/// One server wired to a real PredictionService, torn down per fixture.
class NetEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    snapshot_path_ =
        (fs::temp_directory_path() / "estima_test_net_snapshot.v1").string();
    fs::remove(snapshot_path_);

    pool_ = std::make_unique<parallel::ThreadPool>(2);
    service::ServiceConfig scfg;
    scfg.prediction.target_cores = core::cores_up_to(24);
    cfg_ = scfg.prediction;
    svc_ = std::make_unique<service::PredictionService>(scfg, pool_.get());
    service::RouterConfig rcfg;
    rcfg.snapshot_path = snapshot_path_;
    rcfg.max_batch_campaigns = 8;
    router_ = std::make_unique<service::ServiceRouter>(*svc_, rcfg);

    ServerConfig ncfg;
    ncfg.worker_threads = 4;
    ncfg.limits.max_body_bytes = 64 * 1024;
    ncfg.idle_timeout_ms = 2000;
    server_ = service::make_server(*router_, ncfg);
    server_->start();
  }

  void TearDown() override {
    server_->stop();
    fs::remove(snapshot_path_);
  }

  HttpClient client() { return HttpClient("127.0.0.1", server_->port()); }

  std::string snapshot_path_;
  core::PredictionConfig cfg_;
  std::unique_ptr<parallel::ThreadPool> pool_;
  std::unique_ptr<service::PredictionService> svc_;
  std::unique_ptr<service::ServiceRouter> router_;
  std::unique_ptr<HttpServer> server_;
};

/// Raw-socket peer for byte-level misbehaviour the HttpClient won't emit.
class RawConnection {
 public:
  explicit RawConnection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~RawConnection() { close(); }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// FIN without closing: "I have sent everything; answer what you have."
  void half_close() {
    if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
  }

  int fd() const { return fd_; }

  void send_bytes(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t w = ::send(fd_, data.data() + off, data.size() - off, 0);
      ASSERT_GT(w, 0);
      off += static_cast<std::size_t>(w);
    }
  }

  /// Reads until `n` responses are complete or the peer closes.
  std::vector<HttpResponse> read_responses(std::size_t n) {
    std::vector<HttpResponse> out;
    ResponseParser parser;
    std::string carry;
    char buf[4096];
    while (out.size() < n) {
      while (!carry.empty() &&
             parser.state() == ResponseParser::State::kNeedMore) {
        const std::size_t used = parser.feed(carry.data(), carry.size());
        carry.erase(0, used);
        if (used == 0) break;
      }
      if (parser.state() == ResponseParser::State::kComplete) {
        out.push_back(parser.response());
        parser.reset();
        continue;
      }
      if (parser.state() == ResponseParser::State::kError) break;
      const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r <= 0) break;
      carry.append(buf, static_cast<std::size_t>(r));
    }
    return out;
  }

 private:
  int fd_ = -1;
};

TEST_F(NetEndToEnd, PredictAnswerIsBitIdenticalToInProcessPredict) {
  const auto ms = demo_campaign(0);
  const auto expected = record_of(core::predict(ms, cfg_));

  auto c = client();
  const auto resp = c.post("/v1/predict", csv_of(ms), "text/csv");
  ASSERT_EQ(resp.status, 200);
  // The response body is one write_prediction record; string equality of
  // records is bit-exact equality of every field (prediction_io's
  // round-trip guarantee), through CSV -> hash -> predict -> serialize.
  EXPECT_EQ(resp.body, expected);
  // And it parses back into a structurally valid Prediction.
  std::istringstream is(resp.body);
  const auto parsed = core::read_prediction(is);
  EXPECT_EQ(record_of(parsed), expected);
  // Served answer == what predict_one returns in-process (cache hit now).
  EXPECT_EQ(record_of(svc_->predict_one(ms)), expected);
}

TEST_F(NetEndToEnd, RepeatRequestIsACacheHitNotARecompute) {
  const auto ms = demo_campaign(1);
  auto c = client();
  const auto r1 = c.post("/v1/predict", csv_of(ms), "text/csv");
  ASSERT_EQ(r1.status, 200);
  const auto before = svc_->stats();
  const auto r2 = c.post("/v1/predict", csv_of(ms), "text/csv");
  ASSERT_EQ(r2.status, 200);
  const auto after = svc_->stats();
  EXPECT_EQ(r1.body, r2.body);
  EXPECT_EQ(after.predictions_computed, before.predictions_computed);
  EXPECT_EQ(after.cache.hits, before.cache.hits + 1);
}

TEST_F(NetEndToEnd, RouteAndMethodErrors) {
  auto c = client();
  EXPECT_EQ(c.get("/nope").status, 404);
  const auto r405 = c.get("/v1/predict");
  EXPECT_EQ(r405.status, 405);
  ASSERT_NE(r405.header("allow"), nullptr);
  EXPECT_EQ(*r405.header("allow"), "POST");
  EXPECT_EQ(c.post("/v1/stats", "x", "text/plain").status, 405);
}

TEST_F(NetEndToEnd, MalformedCsvIs400AndNeverCached) {
  auto c = client();
  const auto before = svc_->stats();
  const auto r1 = c.post("/v1/predict", "not,a,campaign\n1,2,3\n", "text/csv");
  EXPECT_EQ(r1.status, 400);
  // A campaign the pipeline rejects (too few points) is also the
  // client's fault, and the error is never cached: both requests recompute
  // nothing and cache nothing.
  const auto tiny = demo_campaign(0).truncated(2);
  const auto r2 = c.post("/v1/predict", csv_of(tiny), "text/csv");
  EXPECT_EQ(r2.status, 400);
  EXPECT_NE(r2.body.find("at least 3 measurement points"), std::string::npos);
  const auto r3 = c.post("/v1/predict", csv_of(tiny), "text/csv");
  EXPECT_EQ(r3.status, 400);
  const auto after = svc_->stats();
  EXPECT_EQ(after.predictions_computed, before.predictions_computed);
  EXPECT_EQ(after.cache.entries, before.cache.entries);
}

TEST_F(NetEndToEnd, OversizedBodyGets413) {
  auto c = client();
  const std::string big(128 * 1024, 'x');  // over the 64 KiB test limit
  const auto resp = c.post("/v1/predict", big, "text/csv");
  EXPECT_EQ(resp.status, 413);
  // The server survives and keeps serving new connections.
  auto c2 = client();
  EXPECT_EQ(c2.get("/v1/stats").status, 200);
}

TEST_F(NetEndToEnd, MalformedBytesOverTheSocketGet4xxWithoutCrashing) {
  {
    RawConnection raw(server_->port());
    raw.send_bytes("THIS IS NOT HTTP\r\n\r\n");
    const auto resps = raw.read_responses(1);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_EQ(resps[0].status, 400);
  }
  {  // truncated request: client vanishes mid-message
    RawConnection raw(server_->port());
    raw.send_bytes("POST /v1/predict HTTP/1.1\r\nContent-Length: 100\r\n");
    raw.close();
  }
  // Server is still healthy.
  auto c = client();
  EXPECT_EQ(c.get("/v1/stats").status, 200);
}

TEST_F(NetEndToEnd, ExplainReturnsTheAuditAndRetainsItByHash) {
  const auto ms = demo_campaign(6);
  auto c = client();
  const auto pred = c.post("/v1/predict", csv_of(ms), "text/csv");
  ASSERT_EQ(pred.status, 200);
  std::istringstream is(pred.body);
  const std::string served_kernel =
      core::kernel_name(core::read_prediction(is).factor_fn.type);

  const auto before = svc_->stats();
  const auto resp = c.post("/v1/explain", csv_of(ms), "text/csv");
  ASSERT_EQ(resp.status, 200);
  for (const char* key :
       {"\"campaign_hash\": \"", "\"prediction\": {", "\"audit\": {",
        "\"categories\": [", "\"factor\": {", "\"attempts\": [",
        "\"candidates\": [", "\"winner\": {", "\"scorecard\": ["}) {
    EXPECT_NE(resp.body.find(key), std::string::npos) << key;
  }
  // The audited prediction is the served one (bit-identity): its factor
  // kernel equals what /v1/predict answered for the same campaign.
  EXPECT_NE(
      resp.body.find("\"factor_kernel\": \"" + served_kernel + "\""),
      std::string::npos);

  // Explain computes fresh but is a diagnostic: counted in its own stat,
  // never as a submitted campaign, and never cached.
  const auto after = svc_->stats();
  EXPECT_EQ(after.explains_served, before.explains_served + 1);
  EXPECT_EQ(after.campaigns_submitted, before.campaigns_submitted);
  EXPECT_EQ(after.cache.entries, before.cache.entries);

  // The rendered audit is retained by campaign hash for the GET route.
  const std::string needle = "\"campaign_hash\": \"";
  const std::size_t at = resp.body.find(needle) + needle.size();
  const std::string hash =
      resp.body.substr(at, resp.body.find('"', at) - at);
  ASSERT_EQ(hash.size(), 16u);
  const auto got = c.get("/v1/explain/" + hash);
  ASSERT_EQ(got.status, 200);
  EXPECT_EQ(got.body, resp.body);

  // Unknown hash 404; malformed hashes and wrong methods are client
  // errors, not lookups.
  const std::string other = hash[0] == '0' ? "1" + hash.substr(1)
                                           : "0" + hash.substr(1);
  EXPECT_EQ(c.get("/v1/explain/" + other).status, 404);
  EXPECT_EQ(c.get("/v1/explain/zzz").status, 400);
  EXPECT_EQ(c.get("/v1/explain/" + hash + "00").status, 400);
  EXPECT_EQ(c.get("/v1/explain").status, 405);
  EXPECT_EQ(c.post("/v1/explain", "not,a,campaign\n", "text/csv").status,
            400);
}

TEST_F(NetEndToEnd, ExplainGetHashErrorTable) {
  auto c = client();
  // Every malformed hash is a client error BEFORE any lookup happens —
  // none of these may 404 (which would leak lookup semantics for garbage)
  // or 500.
  const struct {
    const char* hash;
    const char* why;
  } kBad[] = {
      {"", "empty hash"},
      {"0123456789abcdef0", "17 hex digits (> 64 bits, would overflow)"},
      {"ffffffffffffffffff", "18 hex digits"},
      {"0x12345678", "0x prefix is not bare hex"},
      {"12345678deadbeefzz", "trailing junk"},
      {"dead-beef", "separator junk"},
      {"g123", "non-hex digit"},
  };
  for (const auto& t : kBad) {
    const auto resp = c.get(std::string("/v1/explain/") + t.hash);
    EXPECT_EQ(resp.status, 400) << t.why;
  }
  EXPECT_EQ(c.get("/v1/explain/" + std::string(200, 'a')).status, 400)
      << "absurdly long hash";
  // Well-formed but unknown hashes are real lookups: 404, in either case.
  EXPECT_EQ(c.get("/v1/explain/0123456789abcdef").status, 404);
  EXPECT_EQ(c.get("/v1/explain/0123456789ABCDEF").status, 404);
  EXPECT_EQ(c.get("/v1/explain/1").status, 404);
  // Wrong method on the hash route is 405 with Allow, not a lookup.
  const auto r405 = c.request("POST", "/v1/explain/0123456789abcdef", "x",
                              {{"content-type", "text/plain"}});
  EXPECT_EQ(r405.status, 405);
  ASSERT_NE(r405.header("allow"), nullptr);
  EXPECT_EQ(*r405.header("allow"), "GET");
}

TEST_F(NetEndToEnd, CampaignRoutesLifecycleOverHttp) {
  // A 12-point series whose first 10 points are the PUT and whose last 2
  // arrive as one POST /points append.
  const auto full = demo_campaign(7, 12);
  const auto base = full.truncated(10);
  core::MeasurementSet delta;
  delta.workload = full.workload;
  delta.machine = full.machine;
  delta.freq_ghz = full.freq_ghz;
  delta.dataset_bytes = full.dataset_bytes;
  delta.cores.assign(full.cores.begin() + 10, full.cores.end());
  delta.time_s.assign(full.time_s.begin() + 10, full.time_s.end());
  for (const auto& cat : full.categories) {
    delta.categories.push_back(
        {cat.name, cat.domain,
         std::vector<double>(cat.values.begin() + 10, cat.values.end())});
  }

  auto c = client();
  const auto csv_headers =
      std::vector<std::pair<std::string, std::string>>{
          {"content-type", "text/csv"}};

  // PUT creates (201) then replaces (200) under the same name.
  auto put1 = c.request("PUT", "/v1/campaigns/wl", csv_of(base), csv_headers);
  ASSERT_EQ(put1.status, 201);
  EXPECT_NE(put1.body.find("\"created\": true"), std::string::npos);
  EXPECT_NE(put1.body.find("\"version\": 1"), std::string::npos);
  auto put2 = c.request("PUT", "/v1/campaigns/wl", csv_of(base), csv_headers);
  ASSERT_EQ(put2.status, 200);
  EXPECT_NE(put2.body.find("\"created\": false"), std::string::npos);
  EXPECT_NE(put2.body.find("\"version\": 2"), std::string::npos);

  // GET serves the same record /v1/predict would, plus campaign headers.
  const auto got = c.get("/v1/campaigns/wl");
  ASSERT_EQ(got.status, 200);
  EXPECT_EQ(got.body, record_of(core::predict(base, cfg_)));
  ASSERT_NE(got.header("x-estima-campaign-version"), nullptr);
  EXPECT_EQ(*got.header("x-estima-campaign-version"), "2");
  ASSERT_NE(got.header("x-estima-campaign-hash"), nullptr);
  EXPECT_EQ(got.header("x-estima-campaign-hash")->size(), 16u);

  // POST /points appends and answers the append report.
  const auto post = c.post("/v1/campaigns/wl/points", csv_of(delta),
                           "text/csv");
  ASSERT_EQ(post.status, 200) << post.body;
  EXPECT_NE(post.body.find("\"version\": 3"), std::string::npos);
  EXPECT_NE(post.body.find("\"points\": 12"), std::string::npos);
  EXPECT_NE(post.body.find("\"appended\": 2"), std::string::npos);
  EXPECT_NE(post.body.find("\"winner_kernel\""), std::string::npos);
  EXPECT_NE(post.body.find("\"memo_hits\""), std::string::npos);
  EXPECT_NE(post.body.find("\"memo_bytes\""), std::string::npos);

  // The grown campaign serves the full series' prediction — byte-equal to
  // a cold in-process predict of all 12 points.
  const auto grown = c.get("/v1/campaigns/wl");
  ASSERT_EQ(grown.status, 200);
  EXPECT_EQ(grown.body, record_of(core::predict(full, cfg_)));
  EXPECT_EQ(*grown.header("x-estima-campaign-version"), "3");
  EXPECT_NE(*grown.header("x-estima-campaign-hash"),
            *got.header("x-estima-campaign-hash"));

  // Append rejections: duplicate core counts (replaying the same delta)
  // and malformed CSV are 400s that leave the campaign untouched.
  EXPECT_EQ(
      c.post("/v1/campaigns/wl/points", csv_of(delta), "text/csv").status,
      400);
  EXPECT_EQ(
      c.post("/v1/campaigns/wl/points", "not,a,campaign\n", "text/csv")
          .status,
      400);
  EXPECT_EQ(*c.get("/v1/campaigns/wl").header("x-estima-campaign-version"),
            "3");

  // Unknown names are 404 (valid CSV, so parsing is not what fails).
  EXPECT_EQ(c.get("/v1/campaigns/nope").status, 404);
  EXPECT_EQ(
      c.post("/v1/campaigns/nope/points", csv_of(delta), "text/csv").status,
      404);
  // Bad names and methods never reach the store.
  EXPECT_EQ(c.get("/v1/campaigns/").status, 400);
  EXPECT_EQ(c.get("/v1/campaigns/a/b").status, 400);
  const auto patch =
      c.request("PATCH", "/v1/campaigns/wl", "x", csv_headers);
  EXPECT_EQ(patch.status, 405);
  ASSERT_NE(patch.header("allow"), nullptr);
  EXPECT_EQ(*patch.header("allow"), "PUT, GET, DELETE");
  const auto gpoints = c.get("/v1/campaigns/wl/points");
  EXPECT_EQ(gpoints.status, 405);
  ASSERT_NE(gpoints.header("allow"), nullptr);
  EXPECT_EQ(*gpoints.header("allow"), "POST");

  // DELETE removes exactly once.
  EXPECT_EQ(c.request("DELETE", "/v1/campaigns/wl", "", {}).status, 200);
  EXPECT_EQ(c.request("DELETE", "/v1/campaigns/wl", "", {}).status, 404);
  EXPECT_EQ(c.get("/v1/campaigns/wl").status, 404);
}

TEST_F(NetEndToEnd, EventLogRecordsOneLinePerRequestWithDispositions) {
  const std::string path =
      (fs::temp_directory_path() / "estima_test_net_events.jsonl").string();
  fs::remove(path);
  obs::EventLogConfig ecfg;
  ecfg.path = path;
  ecfg.flush_interval_ms = 1;
  obs::EventLog log(ecfg);
  router_->set_event_log(&log);

  const auto ms = demo_campaign(7);
  auto c = client();
  ASSERT_EQ(c.post("/v1/predict", csv_of(ms), "text/csv").status, 200);
  ASSERT_EQ(c.post("/v1/predict", csv_of(ms), "text/csv").status, 200);
  EXPECT_EQ(c.get("/nope").status, 404);
  router_->set_event_log(nullptr);
  log.stop();

  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);
  // Cold request computed; the repeat was served from the cache; both
  // carry the same campaign hash and winner kernel.
  EXPECT_NE(lines[0].find("\"target\":\"/v1/predict\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"status\":200"), std::string::npos);
  EXPECT_NE(lines[0].find("\"disposition\":\"miss\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"disposition\":\"hit\""), std::string::npos);
  const auto hash_of = [](const std::string& l) {
    const std::string key = "\"campaign_hash\":\"";
    const std::size_t p = l.find(key) + key.size();
    return l.substr(p, l.find('"', p) - p);
  };
  EXPECT_EQ(hash_of(lines[0]), hash_of(lines[1]));
  EXPECT_EQ(hash_of(lines[0]).size(), 16u);
  EXPECT_NE(lines[0].find("\"winner_kernel\":\""), std::string::npos);
  // The 404 is an error line with no campaign attached.
  EXPECT_NE(lines[2].find("\"target\":\"/nope\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"status\":404"), std::string::npos);
  EXPECT_NE(lines[2].find("\"disposition\":\"error\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"campaign_hash\":\"\""), std::string::npos);
  fs::remove(path);
}

TEST(TraceEchoOnError, ErrorResponsesCarryTheTraceIdToo) {
  // A client that sent X-Estima-Trace-Id can correlate every answer,
  // failures included: the edge adds the echo where it encodes a
  // response, so a handler's answer, a thrown error and the loop's own
  // 408 each carry exactly one copy.
  obs::Registry reg;
  obs::Tracer tracer(reg, obs::TracerConfig{-1, 4});
  ServerConfig ncfg;
  ncfg.worker_threads = 2;
  ncfg.idle_timeout_ms = 200;
  ncfg.tracer = &tracer;
  HttpServer server(ncfg, [](const HttpRequest& req,
                             const RequestContext& ctx) -> HttpResponse {
    if (req.target == "/invalid") throw std::invalid_argument("bad input");
    if (req.target == "/boom") throw std::runtime_error("kaput");
    if (req.target == "/hang") {
      // Outlive the edge's budget: the loop answers 408 and cancels this.
      while (!ctx.deadline->cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return HttpResponse{200, {}, "ok"};
  });
  server.start();

  const std::string id = "00000000000000aa";
  const auto echoes = [&id](const HttpResponse& resp) {
    std::size_t copies = 0;
    for (const auto& [k, v] : resp.headers) {
      if (k == "x-estima-trace-id") {
        ++copies;
        EXPECT_EQ(v, id);
      }
    }
    return copies;
  };
  HttpClient c("127.0.0.1", server.port());
  const auto r200 = c.request("GET", "/ok", "", {{"x-estima-trace-id", id}});
  EXPECT_EQ(r200.status, 200);
  EXPECT_EQ(echoes(r200), 1u);

  const auto r400 = c.request("GET", "/invalid", "",
                              {{"x-estima-trace-id", id}});
  EXPECT_EQ(r400.status, 400);
  EXPECT_EQ(echoes(r400), 1u);

  const auto r500 =
      c.request("GET", "/boom", "", {{"x-estima-trace-id", id}});
  EXPECT_EQ(r500.status, 500);
  EXPECT_EQ(echoes(r500), 1u);

  HttpClient hung("127.0.0.1", server.port());
  const auto r408 =
      hung.request("GET", "/hang", "", {{"x-estima-trace-id", id}});
  EXPECT_EQ(r408.status, 408);
  EXPECT_EQ(echoes(r408), 1u);
  server.stop();
}

TEST_F(NetEndToEnd, ByteAtATimeDeliveryOverTheSocketStillServes) {
  const auto ms = demo_campaign(2, 8);
  const std::string wire = serialize_request(
      "POST", "/v1/predict", csv_of(ms), {{"content-type", "text/csv"}});
  RawConnection raw(server_->port());
  // Trickle in small chunks (pure byte-at-a-time would be thousands of
  // syscalls; 7-byte chunks still crosses every parser phase boundary).
  for (std::size_t off = 0; off < wire.size(); off += 7) {
    raw.send_bytes(wire.substr(off, 7));
  }
  const auto resps = raw.read_responses(1);
  ASSERT_EQ(resps.size(), 1u);
  EXPECT_EQ(resps[0].status, 200);
  EXPECT_EQ(resps[0].body, record_of(core::predict(ms, cfg_)));
}

TEST_F(NetEndToEnd, PipelinedRequestsAnsweredInOrder) {
  const auto ms = demo_campaign(3, 8);
  const std::string wire =
      serialize_request("POST", "/v1/predict", csv_of(ms),
                        {{"content-type", "text/csv"}}) +
      serialize_request("GET", "/v1/stats", "", {});
  RawConnection raw(server_->port());
  raw.send_bytes(wire);
  const auto resps = raw.read_responses(2);
  ASSERT_EQ(resps.size(), 2u);
  EXPECT_EQ(resps[0].status, 200);
  EXPECT_EQ(resps[0].body, record_of(core::predict(ms, cfg_)));
  EXPECT_EQ(resps[1].status, 200);
  EXPECT_NE(resps[1].body.find("\"campaigns_submitted\""), std::string::npos);
}

TEST_F(NetEndToEnd, PredictBatchRidesDedupAndAnswersInInputOrder) {
  const auto a = demo_campaign(4, 8);
  const auto b = demo_campaign(5, 8);
  // a, b, a again: the repeat folds onto one computation.
  const std::string body = service::frame_bodies(
      {csv_of(a), csv_of(b), csv_of(a)}, "campaign");
  auto c = client();
  const auto resp = c.post("/v1/predict_batch", body, "text/plain");
  ASSERT_EQ(resp.status, 200);
  const auto records = service::parse_frames(resp.body, "prediction", 8);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], record_of(core::predict(a, cfg_)));
  EXPECT_EQ(records[1], record_of(core::predict(b, cfg_)));
  EXPECT_EQ(records[2], records[0]);
  const auto stats = svc_->stats();
  EXPECT_EQ(stats.predictions_computed, 2u);
  EXPECT_EQ(stats.batch_duplicates_folded, 1u);
}

TEST_F(NetEndToEnd, PredictBatchBadFrameOrBadCampaignIs400) {
  auto c = client();
  EXPECT_EQ(c.post("/v1/predict_batch", "garbage", "text/plain").status, 400);
  const std::string bad_campaign =
      service::frame_bodies({"not,a,campaign\n"}, "campaign");
  const auto resp = c.post("/v1/predict_batch", bad_campaign, "text/plain");
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("campaign frame 0"), std::string::npos);
  // Over the frame cap (router configured with max 8).
  std::vector<std::string> many(9, csv_of(demo_campaign(0, 8)));
  EXPECT_EQ(c.post("/v1/predict_batch",
                   service::frame_bodies(many, "campaign"), "text/plain")
                .status,
            400);
}

TEST_F(NetEndToEnd, StatsEndpointReportsCounters) {
  auto c = client();
  const auto ms = demo_campaign(6, 8);
  ASSERT_EQ(c.post("/v1/predict", csv_of(ms), "text/csv").status, 200);
  const auto resp = c.get("/v1/stats");
  ASSERT_EQ(resp.status, 200);
  ASSERT_NE(resp.header("content-type"), nullptr);
  EXPECT_EQ(*resp.header("content-type"), "application/json");
  EXPECT_NE(resp.body.find("\"predictions_computed\": 1"), std::string::npos);
  EXPECT_NE(resp.body.find("\"cache\""), std::string::npos);
}

TEST_F(NetEndToEnd, SnapshotEndpointSpillsARestorableFile) {
  auto c = client();
  const auto ms = demo_campaign(7, 8);
  ASSERT_EQ(c.post("/v1/predict", csv_of(ms), "text/csv").status, 200);
  const auto resp = c.post("/v1/snapshot", "", "text/plain");
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"entries_written\": 1"), std::string::npos);
  ASSERT_TRUE(fs::exists(snapshot_path_));

  // A second service restores the spilled answer and serves it without
  // computing.
  service::ServiceConfig scfg2;
  scfg2.prediction = cfg_;
  service::PredictionService svc2(scfg2, nullptr);
  const auto report = svc2.restore_from(snapshot_path_);
  EXPECT_EQ(report.entries_loaded(), 1u);
  const auto pred = svc2.predict_one(ms);
  EXPECT_EQ(svc2.stats().predictions_computed, 0u);
  EXPECT_EQ(record_of(pred), record_of(core::predict(ms, cfg_)));
}

TEST_F(NetEndToEnd, SnapshotRouteWithoutPathIs503) {
  service::ServiceRouter bare(*svc_, service::RouterConfig{});
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/snapshot";
  EXPECT_EQ(bare.handle(req).status, 503);
}

TEST_F(NetEndToEnd, ConcurrentClientsShareOneAnswerPerCampaign) {
  constexpr int kClients = 4;
  constexpr int kRequests = 6;
  const auto ms0 = demo_campaign(8, 8);
  const auto ms1 = demo_campaign(9, 8);
  const std::string csv[2] = {csv_of(ms0), csv_of(ms1)};
  const std::string want[2] = {record_of(core::predict(ms0, cfg_)),
                               record_of(core::predict(ms1, cfg_))};

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      HttpClient c("127.0.0.1", server_->port());
      for (int i = 0; i < kRequests; ++i) {
        const int which = (t + i) % 2;
        try {
          const auto resp = c.post("/v1/predict", csv[which], "text/csv");
          if (resp.status != 200 || resp.body != want[which]) {
            failures.fetch_add(1);
          }
        } catch (const std::exception&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Two campaigns -> exactly two computations, everything else cache hits
  // or in-flight joins; 22 of the 24 lookups must be warm.
  const auto stats = svc_->stats();
  EXPECT_EQ(stats.predictions_computed, 2u);
  EXPECT_EQ(stats.campaigns_submitted,
            static_cast<std::uint64_t>(kClients * kRequests));
  EXPECT_GE(stats.cache.hits + stats.inflight_joins,
            static_cast<std::uint64_t>(kClients * kRequests - 2));
}

TEST_F(NetEndToEnd, GracefulStopAnswersInFlightThenRefusesNew) {
  auto c = client();
  const auto ms = demo_campaign(0);
  ASSERT_EQ(c.post("/v1/predict", csv_of(ms), "text/csv").status, 200);
  server_->stop();
  EXPECT_FALSE(server_->running());
  EXPECT_THROW(client().get("/v1/stats"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Parser hook for the connection state machine

TEST(RequestParser, MidMessageTracksConsumedBytes) {
  RequestParser p;
  EXPECT_FALSE(p.mid_message());
  // Leading blank lines (RFC 7230 §3.5 tolerance) do not start a message:
  // idle keep-alive silence after stray CRLFs still closes quietly.
  const std::string blank = "\r\n\r\n";
  p.feed(blank.data(), blank.size());
  EXPECT_FALSE(p.mid_message());
  const std::string first = "G";
  p.feed(first.data(), first.size());
  EXPECT_TRUE(p.mid_message());
  const std::string rest = "ET /v1/stats HTTP/1.1\r\n\r\n";
  p.feed(rest.data(), rest.size());
  ASSERT_EQ(p.state(), RequestParser::State::kComplete);
  p.reset();
  EXPECT_FALSE(p.mid_message());
}

// ---------------------------------------------------------------------------
// Stats JSON shape

/// Minimal structural checker for the hand-rolled stats JSON: balanced
/// braces outside strings, every expected key present, every expected
/// key's value numeric or an object. Enough to catch a missing comma, an
/// unquoted key or a dropped counter when new fields land.
void expect_stats_json_shape(const std::string& body,
                             const std::vector<std::string>& keys) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char ch : body) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (ch == '\\') {
        escaped = true;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') {
      in_string = true;
    } else if (ch == '{') {
      ++depth;
    } else if (ch == '}') {
      --depth;
      ASSERT_GE(depth, 0) << "unbalanced '}' in:\n" << body;
    }
  }
  EXPECT_EQ(depth, 0) << "unbalanced '{' in:\n" << body;
  EXPECT_FALSE(in_string) << "unterminated string in:\n" << body;
  for (const auto& key : keys) {
    const std::string needle = "\"" + key + "\":";
    const std::size_t pos = body.find(needle);
    ASSERT_NE(pos, std::string::npos) << "missing key " << key << " in:\n"
                                      << body;
    std::size_t v = pos + needle.size();
    while (v < body.size() && (body[v] == ' ' || body[v] == '\n')) ++v;
    ASSERT_LT(v, body.size()) << key;
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(body[v])) ||
                body[v] == '{')
        << key << ": value starts with '" << body[v] << "'";
  }
}

TEST_F(NetEndToEnd, StatsJsonStaysWellFormedWithServerCounters) {
  auto c = client();
  ASSERT_EQ(c.post("/v1/predict", csv_of(demo_campaign(0, 8)), "text/csv")
                .status,
            200);
  const auto resp = c.get("/v1/stats");
  ASSERT_EQ(resp.status, 200);
  expect_stats_json_shape(
      resp.body,
      {"campaigns_submitted", "predictions_computed",
       "batch_duplicates_folded", "inflight_joins",
       "snapshot_entries_restored", "snapshot_entries_skipped",
       "predictions_cancelled",
       "cache", "hits", "misses", "evictions", "entries", "record_bytes",
       "body_bytes",
       "server",
       "connections_accepted", "connections_closed",
       "open_connections", "peak_connections", "requests_served",
       "responses_4xx", "responses_5xx", "connections_timed_out",
       "overflow_rejections", "parse_errors", "requests_shed"});
}

TEST_F(NetEndToEnd, MetricsEndpointIsValidPrometheusText) {
  auto c = client();
  ASSERT_EQ(c.post("/v1/predict", csv_of(demo_campaign(3, 8)), "text/csv")
                .status,
            200);
  const auto resp = c.get("/v1/metrics");
  ASSERT_EQ(resp.status, 200);
  ASSERT_NE(resp.header("content-type"), nullptr);
  EXPECT_EQ(*resp.header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const auto err = obs::validate_prometheus_text(resp.body);
  EXPECT_FALSE(err.has_value()) << *err;
  // Service, cache, and server families are all present even without a
  // wired registry (the fixture's router has none).
  EXPECT_NE(resp.body.find("estima_service_campaigns_submitted_total 1"),
            std::string::npos);
  EXPECT_NE(resp.body.find("estima_cache_misses_total 1"), std::string::npos);
  EXPECT_NE(resp.body.find("estima_server_requests_served_total"),
            std::string::npos);
  // Wrong method maps to 405 with Allow, like every other route.
  HttpRequest req;
  req.method = "POST";
  req.target = "/v1/metrics";
  EXPECT_EQ(router_->handle(req).status, 405);
}

TEST_F(NetEndToEnd, MetricsAndStatsComeFromOneConsistentSnapshot) {
  auto c = client();
  ASSERT_EQ(c.post("/v1/predict", csv_of(demo_campaign(4, 8)), "text/csv")
                .status,
            200);
  // The same counter through both expositions: field-by-field reads of
  // live atomics could disagree; one StatsSnapshot per request cannot.
  const auto stats = c.get("/v1/stats");
  const auto metrics = c.get("/v1/metrics");
  ASSERT_EQ(stats.status, 200);
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(stats.body.find("\"predictions_computed\": 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("estima_service_predictions_computed_total 1"),
            std::string::npos);
}

TEST_F(NetEndToEnd, TraceRouteWithoutTracerIs503) {
  EXPECT_EQ(client().get("/v1/trace").status, 503);
}

TEST_F(NetEndToEnd, TracedServerEchoesTraceIdAndExposesSlowRing) {
  // A separate stack wired for tracing: registry + tracer on the router,
  // tracer on the server (context-handler form), threshold 0 so every
  // request lands in the ring.
  obs::Registry registry;
  obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = 0;
  tcfg.ring_capacity = 8;
  obs::Tracer tracer(registry, tcfg);

  parallel::ThreadPool pool(2);
  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(24);
  service::PredictionService svc(scfg, &pool);
  service::ServiceRouter router(svc, service::RouterConfig{});
  router.set_observability(&registry, &tracer);

  ServerConfig ncfg;
  ncfg.worker_threads = 2;
  ncfg.tracer = &tracer;
  HttpServer server(ncfg,
                    [&router](const HttpRequest& req,
                              const RequestContext& ctx) {
                      return router.handle(req, ctx);
                    });
  router.set_server_stats_source([&server] { return server.stats(); });
  server.start();

  HttpClient c("127.0.0.1", server.port());
  // A caller-chosen id is echoed back verbatim (lowercase 16-hex form).
  const std::string id = obs::format_trace_id(0xabcdef0123456789ull);
  const auto resp =
      c.request("POST", "/v1/predict", csv_of(demo_campaign(5, 8)),
                {{"content-type", "text/csv"}, {"x-estima-trace-id", id}});
  ASSERT_EQ(resp.status, 200);
  ASSERT_NE(resp.header("x-estima-trace-id"), nullptr);
  EXPECT_EQ(*resp.header("x-estima-trace-id"), id);

  // Without the header the server generates a non-zero id.
  const auto resp2 = c.post("/v1/predict", csv_of(demo_campaign(5, 8)),
                            "text/csv");
  ASSERT_EQ(resp2.status, 200);
  ASSERT_NE(resp2.header("x-estima-trace-id"), nullptr);
  EXPECT_NE(*resp2.header("x-estima-trace-id"), std::string(16, '0'));

  // The ring retained both requests; the caller's id is findable.
  const auto trace_resp = c.get("/v1/trace");
  ASSERT_EQ(trace_resp.status, 200);
  EXPECT_NE(trace_resp.body.find("\"traces\""), std::string::npos);
  EXPECT_NE(trace_resp.body.find(id), std::string::npos);
  EXPECT_NE(trace_resp.body.find("\"parse\""), std::string::npos);

  // The registry's stage histograms flow into /v1/metrics and the whole
  // document still validates.
  const auto metrics = c.get("/v1/metrics");
  ASSERT_EQ(metrics.status, 200);
  const auto err = obs::validate_prometheus_text(metrics.body);
  EXPECT_FALSE(err.has_value()) << *err;
  EXPECT_NE(metrics.body.find(
                "estima_stage_duration_seconds_count{stage=\"parse\"}"),
            std::string::npos);
  // Every request through the traced server counts — including the
  // /v1/trace scrape above — so the total is at least the two predicts.
  const std::string count_key = "estima_request_duration_seconds_count ";
  const std::size_t at = metrics.body.find(count_key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GE(std::stoull(metrics.body.substr(at + count_key.size())), 2u);

  server.stop();
}

TEST(TraceStages, WarmPredictRecordsOneSerializeAndOneEdgeEncodeSpan) {
  // `serialize` is the router rendering the body and `edge.encode` the
  // HTTP layer assembling the wire bytes: one occurrence each per request,
  // never one stage recorded from both layers.
  obs::Registry registry;
  obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = 0;  // retain every request
  tcfg.ring_capacity = 8;
  obs::Tracer tracer(registry, tcfg);

  parallel::ThreadPool pool(2);
  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(24);
  service::PredictionService svc(scfg, &pool);
  service::ServiceRouter router(svc, service::RouterConfig{});
  router.set_observability(&registry, &tracer);

  ServerConfig ncfg;
  ncfg.worker_threads = 2;
  ncfg.tracer = &tracer;
  HttpServer server(ncfg,
                    [&router](const HttpRequest& req,
                              const RequestContext& ctx) {
                      return router.handle(req, ctx);
                    });
  server.start();

  HttpClient c("127.0.0.1", server.port());
  const std::string csv = csv_of(demo_campaign(6, 8));
  ASSERT_EQ(c.post("/v1/predict", csv, "text/csv").status, 200);  // cold
  const std::uint64_t id = 0x5e71a112e0000001ull;
  const auto warm =
      c.request("POST", "/v1/predict", csv,
                {{"content-type", "text/csv"},
                 {"x-estima-trace-id", obs::format_trace_id(id)}});
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(svc.stats().cache.hits, 1u);

  // The trace closes after its last byte is written, which may land just
  // after the client has read the response.
  std::vector<obs::TraceContext::SpanSnapshot> spans;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5);
  while (spans.empty() && std::chrono::steady_clock::now() < give_up) {
    for (const auto& t : tracer.slow_traces()) {
      if (t.trace_id == id) spans = t.spans;
    }
    if (spans.empty()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  ASSERT_FALSE(spans.empty()) << "warm request never reached the ring";
  std::uint64_t serialize = 0, encode = 0, enumerate = 0;
  for (const auto& sp : spans) {
    if (sp.stage == obs::Stage::kSerialize) serialize = sp.count;
    if (sp.stage == obs::Stage::kEdgeEncode) encode = sp.count;
    if (sp.stage == obs::Stage::kFitEnumerate) enumerate = sp.count;
  }
  EXPECT_EQ(serialize, 1u);
  EXPECT_EQ(encode, 1u);
  EXPECT_EQ(enumerate, 0u) << "a warm hit must not enter the fit pipeline";

  server.stop();
}

// A request read in one segment still has its wire time: the trace's
// origin is the recv that delivered its first byte, not its dispatch, so
// the edge's own HTTP parse is a `parse` span (the health route parses no
// body of its own), and the non-nested spans still fit inside the total.
TEST(TraceStages, OneSegmentRequestRecordsTheEdgeParse) {
  obs::Registry registry;
  obs::TracerConfig tcfg;
  tcfg.slow_threshold_ms = 0;  // retain every request
  tcfg.ring_capacity = 8;
  obs::Tracer tracer(registry, tcfg);

  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(24);
  service::PredictionService svc(scfg);
  service::ServiceRouter router(svc);

  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  ncfg.tracer = &tracer;
  HttpServer server(ncfg,
                    [&router](const HttpRequest& req,
                              const RequestContext& ctx) {
                      return router.handle(req, ctx);
                    });
  server.start();

  // HttpClient writes a request with one send(); a head this small is one
  // segment on loopback.
  HttpClient c("127.0.0.1", server.port());
  const std::uint64_t id = 0x0e5e6e170000001ull;
  const auto resp = c.request("GET", "/v1/health", "",
                              {{"x-estima-trace-id", obs::format_trace_id(id)}});
  ASSERT_EQ(resp.status, 200);

  // The trace closes after its last byte is written, which may land just
  // after the client has read the response.
  std::optional<obs::SlowTrace> trace;
  const auto give_up = std::chrono::steady_clock::now() +
                       std::chrono::seconds(5);
  while (!trace && std::chrono::steady_clock::now() < give_up) {
    for (const auto& t : tracer.slow_traces()) {
      if (t.trace_id == id) trace = t;
    }
    if (!trace) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(trace.has_value()) << "the request never reached the ring";
  std::uint64_t parse_ns = 0, non_nested_ns = 0;
  for (const auto& sp : trace->spans) {
    if (sp.stage == obs::Stage::kParse) parse_ns = sp.total_ns;
    if (!sp.nested) non_nested_ns += sp.total_ns;
  }
  EXPECT_GT(parse_ns, 0u) << "the edge's HTTP parse was dropped";
  EXPECT_LE(non_nested_ns, trace->total_ns);

  server.stop();
}

// ---------------------------------------------------------------------------
// 4. Event-loop torture

using estima::net::raise_fd_limit;
using estima::testing::raw_connect;

/// Spin-waits (bounded) until the server's stats satisfy `pred` — accept
/// and close bookkeeping is asynchronous to the client's syscalls.
template <typename Pred>
bool wait_for_stats(const HttpServer& server, Pred pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (pred(server.stats())) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// A full serving stack (pool -> service -> router -> server) with a
/// caller-chosen server config, for the torture tests that need timeouts
/// and caps the shared fixture doesn't use.
struct ServedStack {
  explicit ServedStack(ServerConfig ncfg) {
    pool = std::make_unique<parallel::ThreadPool>(2);
    service::ServiceConfig scfg;
    scfg.prediction.target_cores = core::cores_up_to(24);
    cfg = scfg.prediction;
    svc = std::make_unique<service::PredictionService>(scfg, pool.get());
    router = std::make_unique<service::ServiceRouter>(
        *svc, service::RouterConfig{});
    server = service::make_server(*router, std::move(ncfg));
    server->start();
  }
  ~ServedStack() { server->stop(); }

  core::PredictionConfig cfg;
  std::unique_ptr<parallel::ThreadPool> pool;
  std::unique_ptr<service::PredictionService> svc;
  std::unique_ptr<service::ServiceRouter> router;
  std::unique_ptr<HttpServer> server;
};

TEST(EventLoopTorture, IdleHordeHeldOpenWhileLiveRequestsStayBitIdentical) {
  constexpr int kIdle = 512;
  raise_fd_limit(4 * kIdle);

  ServerConfig ncfg;
  ncfg.io_threads = 4;
  ncfg.worker_threads = 4;
  ncfg.idle_timeout_ms = 30'000;  // the horde must not time out mid-test
  ServedStack stack(std::move(ncfg));

  std::vector<int> horde;
  horde.reserve(kIdle);
  for (int i = 0; i < kIdle; ++i) {
    const int fd = raw_connect(stack.server->port());
    ASSERT_GE(fd, 0) << "idle connection " << i << " failed";
    horde.push_back(fd);
  }
  ASSERT_TRUE(wait_for_stats(
      *stack.server,
      [](const ServerStats& s) { return s.open_connections >= kIdle; },
      10'000))
      << "horde never fully admitted";

  // Live traffic must be unaffected: full accuracy, no starvation. Under
  // the old thread-per-connection server these requests would wait
  // forever behind 512 parked workers.
  HttpClient c("127.0.0.1", stack.server->port());
  for (int i = 0; i < 3; ++i) {
    const auto ms = demo_campaign(20 + i, 8);
    const auto resp = c.post("/v1/predict", csv_of(ms), "text/csv");
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, record_of(core::predict(ms, stack.cfg)));
  }

  const auto s = stack.server->stats();
  EXPECT_GE(s.open_connections, static_cast<std::uint64_t>(kIdle));
  EXPECT_GE(s.peak_connections, static_cast<std::uint64_t>(kIdle + 1));
  EXPECT_EQ(s.connections_accepted, s.connections_closed + s.open_connections);

  for (int fd : horde) ::close(fd);
  EXPECT_TRUE(wait_for_stats(
      *stack.server,
      [](const ServerStats& s2) { return s2.open_connections <= 1; },
      10'000))
      << "horde teardown not observed";
}

TEST(EventLoopTorture, SlowTricklersGet408WithoutHeadOfLineBlocking) {
  constexpr int kTricklers = 8;
  ServerConfig ncfg;
  ncfg.io_threads = 2;
  ncfg.worker_threads = 2;  // fewer handlers than tricklers, on purpose
  ncfg.idle_timeout_ms = 700;
  ServedStack stack(std::move(ncfg));

  // Warm one campaign so the live requests below are cache hits whose
  // latency is pure edge latency.
  const auto ms = demo_campaign(30, 8);
  const auto want = record_of(core::predict(ms, stack.cfg));
  HttpClient warmup("127.0.0.1", stack.server->port());
  ASSERT_EQ(warmup.post("/v1/predict", csv_of(ms), "text/csv").status, 200);

  // Each trickler keeps feeding header bytes long past the per-request
  // deadline: the budget must not restart per byte, and the 408 must
  // arrive while the trickle is still flowing.
  std::atomic<int> got_408{0};
  std::atomic<int> trickler_failures{0};
  std::vector<std::thread> tricklers;
  tricklers.reserve(kTricklers);
  for (int t = 0; t < kTricklers; ++t) {
    tricklers.emplace_back([&, t] {
      RawConnection raw(stack.server->port());
      raw.send_bytes("POST /v1/predict HTTP/1.1\r\nX-Trickle: ");
      for (int i = 0; i < 40; ++i) {  // ~1.2s of trickle vs a 700ms budget
        const ssize_t w = ::send(raw.fd(), "a", 1, MSG_NOSIGNAL);
        if (w <= 0) break;  // server already answered and closed: fine
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
      const auto resps = raw.read_responses(1);
      if (resps.size() == 1 && resps[0].status == 408) {
        got_408.fetch_add(1);
      } else {
        trickler_failures.fetch_add(1);
      }
      (void)t;
    });
  }

  // While every trickler is mid-request, warm requests must sail through:
  // with the old design 8 tricklers would park both workers for the full
  // 700ms budget; event-loop reading costs no handler thread.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto live_start = std::chrono::steady_clock::now();
  HttpClient live("127.0.0.1", stack.server->port());
  for (int i = 0; i < 3; ++i) {
    const auto resp = live.post("/v1/predict", csv_of(ms), "text/csv");
    ASSERT_EQ(resp.status, 200);
    EXPECT_EQ(resp.body, want);
  }
  const auto live_elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - live_start);
  EXPECT_LT(live_elapsed.count(), 650)
      << "warm requests waited behind slow tricklers";

  for (auto& t : tricklers) t.join();
  EXPECT_EQ(got_408.load(), kTricklers);
  EXPECT_EQ(trickler_failures.load(), 0);
  const auto s = stack.server->stats();
  EXPECT_GE(s.connections_timed_out, static_cast<std::uint64_t>(kTricklers));
}

TEST(EventLoopTorture, PipelinedBurstSurvivesHalfClosedNeighbours) {
  ServerConfig ncfg;
  ncfg.io_threads = 2;
  ncfg.worker_threads = 4;
  ncfg.idle_timeout_ms = 2'000;
  ServedStack stack(std::move(ncfg));

  const auto a = demo_campaign(40, 8);
  const auto b = demo_campaign(41, 8);
  const auto want_a = record_of(core::predict(a, stack.cfg));
  const auto want_b = record_of(core::predict(b, stack.cfg));

  // Neighbours that die mid-request: a half-closed socket (FIN after a
  // partial head) must be reaped silently without disturbing anyone.
  std::vector<std::unique_ptr<RawConnection>> corpses;
  for (int i = 0; i < 4; ++i) {
    corpses.push_back(
        std::make_unique<RawConnection>(stack.server->port()));
    corpses.back()->send_bytes("POST /v1/predict HTTP/1.1\r\nContent-Le");
    corpses.back()->half_close();
  }

  // One burst: five pipelined requests in a single write, then FIN. All
  // five answers must come back, in order, before the connection closes.
  const std::string wire =
      serialize_request("POST", "/v1/predict", csv_of(a),
                        {{"content-type", "text/csv"}}) +
      serialize_request("GET", "/v1/stats", "", {}) +
      serialize_request("POST", "/v1/predict", csv_of(b),
                        {{"content-type", "text/csv"}}) +
      serialize_request("GET", "/v1/stats", "", {}) +
      serialize_request("POST", "/v1/predict", csv_of(a),
                        {{"content-type", "text/csv"}});
  RawConnection raw(stack.server->port());
  raw.send_bytes(wire);
  raw.half_close();
  const auto resps = raw.read_responses(5);
  ASSERT_EQ(resps.size(), 5u);
  EXPECT_EQ(resps[0].status, 200);
  EXPECT_EQ(resps[0].body, want_a);
  EXPECT_EQ(resps[1].status, 200);
  EXPECT_EQ(resps[2].status, 200);
  EXPECT_EQ(resps[2].body, want_b);
  EXPECT_EQ(resps[3].status, 200);
  EXPECT_EQ(resps[4].status, 200);
  EXPECT_EQ(resps[4].body, want_a);

  // The corpses produced no responses and the server is still healthy.
  EXPECT_TRUE(wait_for_stats(
      *stack.server,
      [](const ServerStats& s) {
        return s.connections_accepted == s.connections_closed +
                                             s.open_connections &&
               s.open_connections <= 1;
      },
      5'000));
  HttpClient c("127.0.0.1", stack.server->port());
  EXPECT_EQ(c.get("/v1/stats").status, 200);
}

TEST(EventLoopTorture, AdmissionOverflowAnswers503ThenRecovers) {
  constexpr std::size_t kCap = 6;
  ServerConfig ncfg;
  ncfg.io_threads = 2;
  ncfg.worker_threads = 2;
  ncfg.idle_timeout_ms = 30'000;
  ncfg.max_connections = kCap;
  HttpServer server(ncfg, [](const HttpRequest& req, const RequestContext&) {
    HttpResponse resp;
    resp.body = req.body;
    return resp;
  });
  server.start();

  std::vector<int> held;
  for (std::size_t i = 0; i < kCap; ++i) {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    held.push_back(fd);
  }
  ASSERT_TRUE(wait_for_stats(
      server,
      [](const ServerStats& s) { return s.open_connections == kCap; },
      5'000));

  {  // over the cap: 503, then the connection is gone. The request bytes
     // sent before reading prove the 503 survives unread input (lingering
     // close) instead of being destroyed by a reset.
    RawConnection over(server.port());
    over.send_bytes(serialize_request("POST", "/echo", "rejected anyway", {}));
    const auto resps = over.read_responses(1);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_EQ(resps[0].status, 503);
    // read_responses returns after EOF; a second read sees the close.
    EXPECT_EQ(over.read_responses(1).size(), 0u);
  }
  // The rejected connection lingers briefly while it drains; once it is
  // reaped the gauge is back at the cap and the books balance.
  ASSERT_TRUE(wait_for_stats(
      server,
      [](const ServerStats& s2) {
        return s2.open_connections == kCap &&
               s2.connections_accepted ==
                   s2.connections_closed + s2.open_connections;
      },
      5'000));
  auto s = server.stats();
  EXPECT_EQ(s.overflow_rejections, 1u);

  // Recovery: free half the slots and a new client is admitted + served.
  for (std::size_t i = 0; i < kCap / 2; ++i) {
    ::close(held[i]);
    held[i] = -1;
  }
  ASSERT_TRUE(wait_for_stats(
      server,
      [](const ServerStats& s2) { return s2.open_connections <= kCap / 2; },
      5'000));
  {
    RawConnection fresh(server.port());
    fresh.send_bytes(serialize_request("POST", "/echo", "hello", {}));
    const auto resps = fresh.read_responses(1);
    ASSERT_EQ(resps.size(), 1u);
    EXPECT_EQ(resps[0].status, 200);
    EXPECT_EQ(resps[0].body, "hello");
  }
  for (int fd : held) {
    if (fd >= 0) ::close(fd);
  }
  server.stop();
  s = server.stats();
  EXPECT_EQ(s.connections_accepted, s.connections_closed);
}

// A keep-alive connection re-arms its deadline at every dispatch and every
// return to idle. The loop's timer set must still hold exactly one entry
// per armed deadline — not two per request until the idle timeout passes
// — and none once the connection closes.
TEST(EventLoopTorture, KeepAliveRequestsQueueAtMostOneTimerPerConnection) {
  constexpr int kRequests = 10'000;
  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 2;
  ncfg.idle_timeout_ms = 30'000;
  HttpServer server(ncfg, [](const HttpRequest& req, const RequestContext&) {
    HttpResponse resp;
    resp.body = req.body;
    return resp;
  });
  server.start();

  HttpClient client("127.0.0.1", server.port());
  for (int i = 0; i < kRequests; ++i) {
    const std::string body = "req-" + std::to_string(i);
    const auto resp = client.post("/echo", body);
    ASSERT_EQ(resp.status, 200);
    ASSERT_EQ(resp.body, body);
  }
  ServerStats s = server.stats();
  EXPECT_EQ(s.connections_accepted, 1u) << "every request on one connection";
  EXPECT_EQ(s.requests_served, static_cast<std::uint64_t>(kRequests));
  EXPECT_LE(s.timers_queued, 1u);

  // Closing a connection removes its deadline at once: the gauge reads 0
  // while the server still runs, not after the 30 s expiry passes.
  client.disconnect();
  ASSERT_TRUE(wait_for_stats(
      server, [](const ServerStats& s2) { return s2.open_connections == 0; },
      5'000));
  EXPECT_EQ(server.stats().timers_queued, 0u);
  server.stop();
  s = server.stats();
  EXPECT_EQ(s.timers_queued, 0u);
}

// ---------------------------------------------------------------------------
// 5. Deterministic schedule fuzz

namespace fuzz {

struct FuzzConn {
  int fd = -1;
  std::string out;                ///< queued request bytes (whole requests)
  std::size_t off = 0;            ///< bytes of `out` already sent
  /// (absolute end offset in `out`, token) per queued request.
  std::deque<std::pair<std::size_t, std::string>> boundaries;
  std::deque<std::string> expect; ///< tokens of fully-sent requests
  ResponseParser parser;
  std::string inbuf;
};

/// Requests whose bytes have now been fully sent owe us a response.
void advance_expected(FuzzConn& c) {
  while (!c.boundaries.empty() && c.off >= c.boundaries.front().first) {
    c.expect.push_back(std::move(c.boundaries.front().second));
    c.boundaries.pop_front();
  }
}

/// Parses whatever is in `inbuf`; every completed response must match the
/// oldest outstanding token, in order — anything else is a lost,
/// duplicated or cross-wired response.
void match_responses(FuzzConn& c) {
  for (;;) {
    while (!c.inbuf.empty() &&
           c.parser.state() == ResponseParser::State::kNeedMore) {
      const std::size_t used = c.parser.feed(c.inbuf.data(), c.inbuf.size());
      c.inbuf.erase(0, used);
      if (used == 0) break;
    }
    if (c.parser.state() != ResponseParser::State::kComplete) {
      ASSERT_NE(c.parser.state(), ResponseParser::State::kError);
      return;
    }
    ASSERT_FALSE(c.expect.empty())
        << "response nobody asked for (duplicate): "
        << c.parser.response().body;
    EXPECT_EQ(c.parser.response().status, 200);
    EXPECT_EQ(c.parser.response().body, c.expect.front());
    c.expect.pop_front();
    c.parser.reset();
  }
}

void read_available(FuzzConn& c) {
  char buf[8 * 1024];
  for (;;) {
    const ssize_t r = ::recv(c.fd, buf, sizeof buf, MSG_DONTWAIT);
    if (r <= 0) break;
    c.inbuf.append(buf, static_cast<std::size_t>(r));
  }
  match_responses(c);
}

/// Flush + FIN + drain-to-EOF: afterwards every fully-sent request must
/// have produced exactly one matching response.
void finish(FuzzConn& c) {
  while (c.off < c.out.size()) {
    const ssize_t w = ::send(c.fd, c.out.data() + c.off,
                             c.out.size() - c.off, MSG_NOSIGNAL);
    if (w <= 0) break;  // reset mid-flush: treated like an abort
    c.off += static_cast<std::size_t>(w);
  }
  advance_expected(c);
  ::shutdown(c.fd, SHUT_WR);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  char buf[8 * 1024];
  for (;;) {
    struct pollfd pfd;
    pfd.fd = c.fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 100);
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "server never closed a finished connection";
      break;
    }
    if (rc <= 0) continue;
    const ssize_t r = ::recv(c.fd, buf, sizeof buf, 0);
    if (r > 0) {
      c.inbuf.append(buf, static_cast<std::size_t>(r));
      continue;
    }
    break;  // EOF (or reset after everything was delivered)
  }
  match_responses(c);
  EXPECT_TRUE(c.expect.empty())
      << "lost " << c.expect.size() << " response(s), first: "
      << (c.expect.empty() ? "" : c.expect.front());
  ::close(c.fd);
  c = FuzzConn();
}

void run_schedule_fuzz(std::uint32_t seed) {
  SCOPED_TRACE(::testing::Message() << "replay with seed=" << seed);
  ServerConfig ncfg;
  ncfg.io_threads = 2;
  ncfg.worker_threads = 4;
  ncfg.idle_timeout_ms = 60'000;  // the schedule must drive every close
  // Odd tokens are answered on the loop, even ones by the pool, so the
  // pipelined runs interleave both paths.
  HttpServer server(
      ncfg,
      [](const HttpRequest& req, const RequestContext&) {
        HttpResponse resp;
        resp.body = req.body;
        return resp;
      },
      [](const HttpRequest& req,
         const RequestContext&) -> std::optional<HttpResponse> {
        if (req.body.empty() || (req.body.back() - '0') % 2 == 0) {
          return std::nullopt;
        }
        HttpResponse resp;
        resp.body = req.body;
        return resp;
      });
  server.start();

  constexpr int kConns = 24;
  constexpr int kSteps = 1500;
  std::vector<FuzzConn> conns(kConns);
  std::mt19937 rng(seed);
  int next_token = 0;

  ServerStats prev{};
  const auto check_stats = [&] {
    const ServerStats s = server.stats();
    EXPECT_GE(s.connections_accepted, prev.connections_accepted);
    EXPECT_GE(s.connections_closed, prev.connections_closed);
    EXPECT_GE(s.peak_connections, prev.peak_connections);
    EXPECT_GE(s.requests_served, prev.requests_served);
    EXPECT_GE(s.responses_4xx, prev.responses_4xx);
    EXPECT_GE(s.responses_5xx, prev.responses_5xx);
    EXPECT_GE(s.connections_timed_out, prev.connections_timed_out);
    EXPECT_GE(s.overflow_rejections, prev.overflow_rejections);
    EXPECT_GE(s.parse_errors, prev.parse_errors);
    EXPECT_GE(s.requests_answered_on_loop, prev.requests_answered_on_loop);
    EXPECT_LE(s.requests_answered_on_loop, s.requests_served);
    EXPECT_EQ(s.connections_accepted,
              s.connections_closed + s.open_connections);
    prev = s;
  };

  for (int step = 0; step < kSteps; ++step) {
    FuzzConn& c = conns[rng() % kConns];
    if (c.fd < 0) {
      c.fd = raw_connect(server.port());
      ASSERT_GE(c.fd, 0);
      continue;
    }
    const std::uint32_t action = rng() % 100;
    if (action < 25) {  // queue another pipelined request
      const std::string token = "tok-" + std::to_string(next_token++);
      c.out += serialize_request("POST", "/echo", token, {});
      c.boundaries.emplace_back(c.out.size(), token);
    } else if (action < 60) {  // partial write
      if (c.off < c.out.size()) {
        const std::size_t k = std::min<std::size_t>(
            1 + rng() % 200, c.out.size() - c.off);
        const ssize_t w = ::send(c.fd, c.out.data() + c.off, k, MSG_NOSIGNAL);
        if (w > 0) c.off += static_cast<std::size_t>(w);
        advance_expected(c);
      }
    } else if (action < 75) {  // read whatever has arrived
      read_available(c);
    } else if (action < 85) {  // idle tick
    } else if (action < 95) {  // orderly finish: nothing may be lost
      finish(c);
    } else {  // abort, possibly mid-request; reads so far already matched
      ::close(c.fd);
      c = FuzzConn();
    }
    if (step % 50 == 0) check_stats();
    if (::testing::Test::HasFatalFailure()) break;
  }

  for (auto& c : conns) {
    if (c.fd >= 0) finish(c);
  }
  EXPECT_TRUE(wait_for_stats(
      server,
      [](const ServerStats& s) { return s.open_connections == 0; },
      10'000))
      << "connections leaked after the schedule drained";
  check_stats();
  const ServerStats s = server.stats();
  EXPECT_EQ(s.connections_accepted, s.connections_closed);
  EXPECT_EQ(s.connections_timed_out, 0u);
  EXPECT_EQ(s.parse_errors, 0u);
  server.stop();
}

}  // namespace fuzz

TEST(EventLoopFuzz, SeededSchedulesKeepInvariantsAndLoseNothing) {
  for (const std::uint32_t seed : {0xC0FFEEu, 20260731u, 77u}) {
    fuzz::run_schedule_fuzz(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// 6. Loop answers: what the LoopAnswer takes never waits for a handler
// thread, what it declines reaches the handler exactly once, and the
// stats invariants hold across both paths.

/// One-shot latch: wait() returns once count_down() ran `n` times.
class Latch {
 public:
  explicit Latch(int n) : n_(n) {}
  void count_down() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--n_ <= 0) cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return n_ <= 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int n_;
};

HttpResponse body_response(std::string body) {
  HttpResponse resp;
  resp.body = std::move(body);
  return resp;
}

TEST(LoopAnswer, HitIsAnsweredWhileEveryHandlerThreadIsHeld) {
  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 2;
  Latch held(2), release(1);
  HttpServer server(
      ncfg,
      [&](const HttpRequest& req, const RequestContext&) {
        held.count_down();
        release.wait();
        return body_response("computed " + req.body);
      },
      [](const HttpRequest& req,
         const RequestContext& ctx) -> std::optional<HttpResponse> {
        if (req.target != "/hit") return std::nullopt;
        EXPECT_EQ(ctx.deadline, nullptr) << "a loop answer computes nothing";
        EXPECT_FALSE(ctx.shedding);
        return body_response("hit " + req.body);
      });
  server.start();
  std::vector<std::thread> fits;
  for (int i = 0; i < 2; ++i) {
    fits.emplace_back([&, i] {
      HttpClient c("127.0.0.1", server.port());
      const auto resp = c.post("/fit", std::to_string(i), "text/plain");
      EXPECT_EQ(resp.body, "computed " + std::to_string(i));
    });
  }
  held.wait();  // every handler thread is inside the handler

  HttpClient c("127.0.0.1", server.port());
  const auto hit = c.post("/hit", "k", "text/plain");
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(hit.body, "hit k");
  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests_answered_on_loop, 1u);
  EXPECT_EQ(s.requests_served, 1u);

  release.count_down();
  for (auto& t : fits) t.join();
  EXPECT_EQ(server.stats().requests_served, 3u);
  server.stop();
}

TEST(LoopAnswer, DeclinedOrThrowingOffersReachTheHandlerOnce) {
  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  std::atomic<int> handled{0};
  HttpServer server(
      ncfg,
      [&](const HttpRequest& req, const RequestContext& ctx) {
        ++handled;
        EXPECT_NE(ctx.deadline, nullptr) << "the pool path keeps its 408";
        return body_response("pool " + req.target);
      },
      [](const HttpRequest& req,
         const RequestContext&) -> std::optional<HttpResponse> {
        if (req.target == "/throw") throw std::runtime_error("boom");
        if (req.target == "/decline") return std::nullopt;
        return body_response("loop " + req.target);
      });
  server.start();
  HttpClient c("127.0.0.1", server.port());
  EXPECT_EQ(c.post("/throw", "x", "text/plain").body, "pool /throw");
  EXPECT_EQ(c.post("/decline", "x", "text/plain").body, "pool /decline");
  EXPECT_EQ(c.post("/hit", "x", "text/plain").body, "loop /hit");
  EXPECT_EQ(handled.load(), 2);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.requests_served, 3u);
  EXPECT_EQ(s.requests_answered_on_loop, 1u);
  server.stop();
}

// The edge offers every complete request, whatever its body size: how
// large a body a loop reads is the LoopAnswer's own bound (the router's
// ServiceRouter::kMaxKeptBodyBytes), not the header limit's.
TEST(LoopAnswer, EveryCompleteRequestIsOffered) {
  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  ncfg.limits.max_header_bytes = 1024;
  std::atomic<std::size_t> largest{0};
  HttpServer server(
      ncfg,
      [](const HttpRequest&, const RequestContext&) {
        return body_response("pool");
      },
      [&](const HttpRequest& req,
          const RequestContext&) -> std::optional<HttpResponse> {
        largest = std::max(largest.load(), req.body.size());
        return body_response("loop");
      });
  server.start();
  HttpClient c("127.0.0.1", server.port());
  for (const std::size_t n : {0u, 1024u, 1025u, 64u * 1024 + 1}) {
    EXPECT_EQ(c.post("/x", std::string(n, 'b'), "text/plain").body, "loop")
        << n;
  }
  EXPECT_EQ(largest.load(), 64u * 1024 + 1);
  EXPECT_EQ(server.stats().requests_answered_on_loop, 4u);
  server.stop();
}

// Thousands of pipelined requests in one burst, long runs answered on the
// loop and a tail alternating with the pool: every answer arrives once,
// in order. The loop takes each next pipelined request by iterating, so a
// burst cannot grow its stack (the sanitizer jobs run this too).
TEST(LoopAnswer, PipelinedBurstIsAnsweredInOrderAcrossBothPaths) {
  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 2;
  HttpServer server(
      ncfg,
      [](const HttpRequest& req, const RequestContext&) {
        return body_response("pool " + req.body);
      },
      [](const HttpRequest& req,
         const RequestContext&) -> std::optional<HttpResponse> {
        if (req.body[0] != 'L') return std::nullopt;
        return body_response("loop " + req.body);
      });
  server.start();
  constexpr int kRequests = 4000;
  std::vector<std::string> tokens;
  std::string burst;
  int on_loop = 0;
  for (int i = 0; i < kRequests; ++i) {
    const bool loop = i < 3000 || i % 3 != 0;
    on_loop += loop;
    tokens.push_back((loop ? "L" : "P") + std::to_string(i));
    burst += serialize_request("POST", "/echo", tokens.back(), {});
  }
  RawConnection conn(server.port());
  // Sent from a second thread: the server's answers fill this side's
  // receive buffer while the burst is still going out.
  std::thread sender([&] { conn.send_bytes(burst); });
  const std::vector<HttpResponse> responses = conn.read_responses(kRequests);
  sender.join();
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(kRequests));
  for (int i = 0; i < kRequests; ++i) {
    const std::string want =
        (tokens[i][0] == 'L' ? "loop " : "pool ") + tokens[i];
    ASSERT_EQ(responses[i].body, want) << "response " << i;
  }
  EXPECT_EQ(server.stats().requests_answered_on_loop,
            static_cast<std::uint64_t>(on_loop));
  server.stop();
}

// stop() while clients are mid-stream with cache hits (answered on the
// loop) and misses (computing on the pool): every answer that arrives is
// right, and the connection books balance.
TEST(LoopAnswer, StopWithHitsAndMissesInFlightKeepsTheBooks) {
  ServerConfig ncfg;
  ncfg.io_threads = 2;
  ncfg.worker_threads = 2;
  ServedStack stack(std::move(ncfg));
  const core::MeasurementSet warm = demo_campaign(0, 8);
  const std::string warm_body = csv_of(warm);
  const std::string warm_record = record_of(core::predict(warm, stack.cfg));
  {
    // A miss, then a hit on the pool that keeps the body for the loop.
    HttpClient c("127.0.0.1", stack.server->port());
    ASSERT_EQ(c.post("/v1/predict", warm_body, "text/csv").body, warm_record);
    ASSERT_EQ(c.post("/v1/predict", warm_body, "text/csv").body, warm_record);
  }

  Latch answered(4);  // every client has had one answer
  std::vector<std::thread> clients;
  for (int k = 0; k < 4; ++k) {
    clients.emplace_back([&, k] {
      const bool hits = k < 2;
      HttpClient c("127.0.0.1", stack.server->port());
      bool counted = false;
      for (int i = 0; i < 100'000; ++i) {
        const std::string body =
            hits ? warm_body : csv_of(demo_campaign(10 + 4 * i + k, 8));
        HttpResponse resp;
        try {
          resp = c.post("/v1/predict", body, "text/csv");
        } catch (const std::runtime_error&) {
          break;  // stop() closed the connection
        }
        EXPECT_EQ(resp.status, 200);
        if (hits) EXPECT_EQ(resp.body, warm_record);
        if (!counted) {
          counted = true;
          answered.count_down();
        }
      }
      if (!counted) answered.count_down();
    });
  }
  answered.wait();
  stack.server->stop();
  for (auto& t : clients) t.join();

  const ServerStats s = stack.server->stats();
  EXPECT_EQ(s.connections_accepted, s.connections_closed + s.open_connections);
  EXPECT_EQ(s.open_connections, 0u);
  EXPECT_GT(s.requests_answered_on_loop, 0u);
  EXPECT_LE(s.requests_answered_on_loop, s.requests_served);
  EXPECT_EQ(s.responses_5xx, 0u);
}

// ---------------------------------------------------------------------------
// HttpClient retry semantics: reconnect-and-resend is only safe while the
// connection has produced zero response bytes.

/// A scripted raw-socket server: runs `on_conn` for every accepted
/// connection and counts accepts, so a test can prove the client did (or
/// did not) retry.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::function<void(int)> on_conn, int rcvbuf = 0) {
    lfd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(lfd_, 0);
    const int one = 1;
    ::setsockopt(lfd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (rcvbuf > 0) {
      // Set before listen() so accepted sockets inherit it and autotuning
      // cannot swallow a test's deliberately oversized request.
      ::setsockopt(lfd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    }
    sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = 0;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::bind(lfd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
    EXPECT_EQ(::listen(lfd_, 4), 0);
    socklen_t len = sizeof addr;
    ::getsockname(lfd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this, on_conn = std::move(on_conn)] {
      for (;;) {
        const int fd = ::accept(lfd_, nullptr, nullptr);
        if (fd < 0) return;  // listener shut down
        accepts_.fetch_add(1);
        on_conn(fd);  // on_conn owns and closes fd
      }
    });
  }

  ~ScriptedServer() {
    ::shutdown(lfd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    ::close(lfd_);
  }

  int port() const { return port_; }
  int accepts() const { return accepts_.load(); }

 private:
  int lfd_ = -1;
  int port_ = 0;
  std::atomic<int> accepts_{0};
  std::thread thread_;
};

TEST(HttpClientRetry, StaleKeepAliveRetriesOnlyWhenNoBytesArrived) {
  ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  ncfg.idle_timeout_ms = 250;  // server hangs up between our requests
  HttpServer server(ncfg, [](const HttpRequest& req, const RequestContext&) {
    HttpResponse resp;
    resp.body = req.body;
    return resp;
  });
  server.start();

  HttpClient c("127.0.0.1", server.port());
  EXPECT_EQ(c.post("/echo", "one").body, "one");
  // Let the idle timeout reap the kept-alive connection server-side.
  ASSERT_TRUE(wait_for_stats(
      server,
      [](const ServerStats& s) { return s.connections_timed_out >= 1; },
      5'000));
  // No response byte was ever received on the dead connection, so the
  // one transparent retry is allowed — and must succeed.
  EXPECT_EQ(c.post("/echo", "two").body, "two");
  EXPECT_EQ(server.stats().connections_accepted, 2u);
  server.stop();
}

TEST(HttpClientRetry, EarlyResponseIsDeliveredInsteadOfARetry) {
  const std::string early_wire = serialize_response(
      [] {
        HttpResponse resp;
        resp.status = 413;
        resp.headers.emplace_back("content-type", "text/plain");
        resp.body = "too big, stopped reading\n";
        return resp;
      }(),
      /*keep_alive=*/false);
  // Read a little, answer, close with the rest unread: the client's
  // still-in-flight body bytes then draw a reset, so its send fails
  // *after* response bytes exist. Resending would duplicate the request.
  ScriptedServer server(
      [&early_wire](int fd) {
        char buf[1024];
        (void)::recv(fd, buf, sizeof buf, 0);
        (void)::send(fd, early_wire.data(), early_wire.size(), MSG_NOSIGNAL);
        ::close(fd);
      },
      /*rcvbuf=*/4096);

  HttpClient c("127.0.0.1", server.port());
  const std::string big(32 << 20, 'x');  // cannot fit in-flight buffers
  const auto resp = c.post("/x", big);
  EXPECT_EQ(resp.status, 413);
  EXPECT_EQ(resp.body, "too big, stopped reading\n");
  // Give an (incorrect) retry a moment to show up, then prove it didn't.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server.accepts(), 1);
}

TEST(HttpClientRetry, EofMidResponseIsNotRetried) {
  ScriptedServer server([](int fd) {
    char buf[1024];
    (void)::recv(fd, buf, sizeof buf, 0);
    const std::string half = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhel";
    (void)::send(fd, half.data(), half.size(), MSG_NOSIGNAL);
    ::close(fd);
  });

  HttpClient c("127.0.0.1", server.port());
  EXPECT_THROW(c.post("/x", "tiny"), std::runtime_error);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(server.accepts(), 1);
}

// ---------------------------------------------------------------------------
// request_with_retry: decorrelated-jitter backoff against scripted
// failures. sleep_fn replaces real sleeping, so these tests assert on the
// exact delays the policy chose without spending wall-clock time.

namespace {

/// Answers every connection's first request with `wire`, then closes.
std::function<void(int)> answer_with(std::string wire) {
  return [wire = std::move(wire)](int fd) {
    char buf[4096];
    (void)::recv(fd, buf, sizeof buf, 0);
    (void)::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
    ::close(fd);
  };
}

std::string wire_503(int retry_after_s = -1) {
  HttpResponse resp;
  resp.status = 503;
  resp.headers.emplace_back("content-type", "text/plain");
  if (retry_after_s >= 0) {
    resp.headers.emplace_back("retry-after", std::to_string(retry_after_s));
  }
  resp.body = "overloaded\n";
  return serialize_response(resp, /*keep_alive=*/false);
}

}  // namespace

TEST(HttpClientBackoff, RetriesTransportFailureUntilAttemptsExhaust) {
  // Every connection dies before a response byte: all attempts fail, the
  // last failure propagates, and the client slept between attempts.
  ScriptedServer server([](int fd) {
    char buf[256];
    (void)::recv(fd, buf, sizeof buf, 0);
    ::close(fd);
  });

  HttpClient c("127.0.0.1", server.port());
  RetryConfig rc;
  rc.max_attempts = 3;
  rc.base_delay_ms = 10;
  rc.max_delay_ms = 100;
  rc.budget_ms = 10'000;
  rc.seed = 42;
  std::vector<int> delays;
  rc.sleep_fn = [&delays](int ms) { delays.push_back(ms); };
  c.set_retry_config(rc);

  EXPECT_THROW(c.request_with_retry("POST", "/x", "body"),
               std::runtime_error);
  // Each failed attempt except the last is followed by one backoff sleep.
  ASSERT_EQ(delays.size(), 2u);
  for (const int d : delays) {
    EXPECT_GE(d, rc.base_delay_ms);
    EXPECT_LE(d, rc.max_delay_ms);
  }
  // NOTE: request() itself makes a stale-keep-alive reconnect attempt,
  // so accepts >= attempts; what matters is that all 3 attempts ran.
  EXPECT_GE(server.accepts(), 3);
}

TEST(HttpClientBackoff, JitterIsSeededAndReplayable) {
  auto run_once = [](int port, std::uint64_t seed) {
    HttpClient c("127.0.0.1", port);
    RetryConfig rc;
    rc.max_attempts = 4;
    rc.base_delay_ms = 10;
    rc.max_delay_ms = 2'000;
    rc.seed = seed;
    std::vector<int> delays;
    rc.sleep_fn = [&delays](int ms) { delays.push_back(ms); };
    c.set_retry_config(rc);
    const auto resp = c.request_with_retry("GET", "/x");
    EXPECT_EQ(resp.status, 503);
    return delays;
  };

  ScriptedServer server(answer_with(wire_503()));
  const auto a = run_once(server.port(), 7);
  const auto b = run_once(server.port(), 7);
  const auto c = run_once(server.port(), 8);
  ASSERT_EQ(a.size(), 3u);  // 4 attempts -> 3 sleeps
  EXPECT_EQ(a, b) << "same seed must replay the same delays";
  EXPECT_NE(a, c) << "different seeds should (overwhelmingly) diverge";
  // Decorrelated jitter: every delay within [base, cap], and each delay
  // at most 3x the previous one.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_GE(a[i], 10);
    EXPECT_LE(a[i], 2'000);
    if (i > 0) EXPECT_LE(a[i], 3 * std::max(a[i - 1], 10));
  }
}

TEST(HttpClientBackoff, RetryAfterIsAFloorOnTheNextDelay) {
  // The server sheds with Retry-After: 2 (2000 ms), far above the cap the
  // client would jitter to on its own.
  ScriptedServer server(answer_with(wire_503(/*retry_after_s=*/2)));

  HttpClient c("127.0.0.1", server.port());
  RetryConfig rc;
  rc.max_attempts = 2;
  rc.base_delay_ms = 10;
  rc.max_delay_ms = 50;  // local cap below the server's floor
  rc.budget_ms = 60'000;
  rc.seed = 1;
  std::vector<int> delays;
  rc.sleep_fn = [&delays](int ms) { delays.push_back(ms); };
  c.set_retry_config(rc);

  const auto resp = c.request_with_retry("GET", "/x");
  EXPECT_EQ(resp.status, 503);  // still shedding after the retries
  ASSERT_EQ(delays.size(), 1u);
  EXPECT_GE(delays[0], 2'000) << "Retry-After must floor the delay";
}

TEST(HttpClientBackoff, SleepBudgetCutsRetriesShort) {
  ScriptedServer server(answer_with(wire_503()));

  HttpClient c("127.0.0.1", server.port());
  RetryConfig rc;
  rc.max_attempts = 10;
  rc.base_delay_ms = 40;
  rc.max_delay_ms = 40;  // deterministic 40 ms delays
  rc.budget_ms = 100;    // room for 2 sleeps, never 3
  rc.seed = 3;
  std::vector<int> delays;
  rc.sleep_fn = [&delays](int ms) { delays.push_back(ms); };
  c.set_retry_config(rc);

  const auto resp = c.request_with_retry("GET", "/x");
  EXPECT_EQ(resp.status, 503) << "budget exhaustion returns the last 503";
  EXPECT_EQ(delays.size(), 2u);
}

TEST(HttpClientBackoff, A503IsReturnedVerbatimWhenRetriesAreOff) {
  ScriptedServer server(answer_with(wire_503(/*retry_after_s=*/1)));

  HttpClient c("127.0.0.1", server.port());
  RetryConfig rc;
  rc.max_attempts = 1;
  std::vector<int> delays;
  rc.sleep_fn = [&delays](int ms) { delays.push_back(ms); };
  c.set_retry_config(rc);

  const auto resp = c.request_with_retry("GET", "/x");
  EXPECT_EQ(resp.status, 503);
  ASSERT_NE(resp.header("retry-after"), nullptr);
  EXPECT_TRUE(delays.empty());
  EXPECT_EQ(server.accepts(), 1);
}

}  // namespace
}  // namespace estima::net
