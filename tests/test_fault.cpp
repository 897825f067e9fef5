// The resilience suite: proves the serving stack degrades, sheds and
// cancels instead of crashing, lying or leaking when the world around it
// fails. Five layers:
//
//   1. FaultInjector unit tests — triggers (always / nth / probabilistic),
//      fire caps, seeded replay, disarm/reset. Gated on
//      fault::compiled_in() so the file builds and passes in production
//      configurations too.
//   2. Deadline propagation — an exhausted client budget answers 408 and
//      stops the fit loop (predictions_cancelled moves), including the
//      trickle case where the edge's 408 fires while the handler is
//      mid-compute; a deadline can only replace an answer with an
//      exception, never alter it.
//   3. Load shedding — queue overflow sheds the oldest request 503 +
//      Retry-After, /v1/health flips under drain/shed, and a /v1/predict
//      that reaches the router while shedding is served and counted
//      exactly as without shedding.
//   4. Snapshot I/O faults — injected ENOSPC / short writes / rename
//      failures surface as SnapshotIoError with the temp file unlinked
//      (no *.tmp litter), and short writes are resumed.
//   5. Chaos — seeded randomized fault schedules (seeds printed for
//      replay) over a live server with retrying clients: zero crashes,
//      zero wrong answers (every 200 is bit-identical to a clean
//      recompute), stats invariants hold at every snapshot, and after
//      disarm the stack serves every campaign perfectly.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/deadline.hpp"
#include "core/prediction_io.hpp"
#include "core/predictor.hpp"
#include "fault/fault_injection.hpp"
#include "net/client.hpp"
#include "net/fd_limit.hpp"
#include "net/server.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "service/prediction_service.hpp"
#include "service/routes.hpp"
#include "service/snapshot.hpp"
#include "simmachine/synthetic.hpp"

namespace estima {
namespace {

namespace fs = std::filesystem;
using estima::sim::counts_up_to;
using estima::sim::make_synthetic;
using estima::sim::SyntheticSpec;

/// Disarms every fault site when a test exits, however it exits: an armed
/// site leaking into the next test would poison its syscalls.
struct FaultGuard {
  FaultGuard() { fault::reset(); }
  ~FaultGuard() { fault::reset(); }
};

core::MeasurementSet demo_campaign(int seed = 0, int points = 10) {
  SyntheticSpec spec;
  spec.mem_rate = 0.25 + 0.03 * seed;
  spec.serial_frac = 0.005 + 0.001 * seed;
  spec.stm_rate = seed % 2 ? 1e-4 : 0.0;
  spec.noise = 0.02;
  return make_synthetic(spec, counts_up_to(points),
                        ("fault-test-" + std::to_string(seed)).c_str());
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

bool tmp_litter_in(const fs::path& dir) {
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.path().filename().string().find(".tmp") != std::string::npos) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// 1. FaultInjector registry

TEST(FaultInjector, UnarmedSiteNeverFires) {
  // Valid in both builds: with injection compiled out this is the
  // constant-false inline, compiled in it is the fast path.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(fault::fault_point("fault-test.unarmed"));
  }
}

TEST(FaultInjector, AlwaysTriggerFiresEveryCallWithConfiguredErrno) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.error_errno = ENOSPC;
  fault::arm("fault-test.a", spec);
  for (int i = 0; i < 5; ++i) {
    fault::FaultFire fire;
    ASSERT_TRUE(fault::fault_point("fault-test.a", &fire));
    EXPECT_EQ(fire.error_errno, ENOSPC);
    EXPECT_FALSE(fire.short_io);
  }
  const auto stats = fault::site_stats("fault-test.a");
  EXPECT_EQ(stats.calls, 5u);
  EXPECT_EQ(stats.fires, 5u);
}

TEST(FaultInjector, NthTriggerFiresExactlyTheNthCall) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kNth;
  spec.nth = 3;
  fault::arm("fault-test.nth", spec);
  EXPECT_FALSE(fault::fault_point("fault-test.nth"));
  EXPECT_FALSE(fault::fault_point("fault-test.nth"));
  EXPECT_TRUE(fault::fault_point("fault-test.nth"));
  EXPECT_FALSE(fault::fault_point("fault-test.nth"));
  EXPECT_EQ(fault::site_stats("fault-test.nth").fires, 1u);
}

TEST(FaultInjector, MaxFiresCapsAnAlwaysTrigger) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.max_fires = 2;
  fault::arm("fault-test.cap", spec);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fault::fault_point("fault-test.cap")) ++fired;
  }
  EXPECT_EQ(fired, 2);
}

TEST(FaultInjector, ProbabilisticTriggerIsSeededAndReplayable) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.trigger = fault::FaultSpec::Trigger::kProbability;
  spec.probability = 0.5;

  auto draw = [&spec](std::uint64_t seed) {
    fault::reset();
    fault::seed_rng(seed);
    fault::arm("fault-test.p", spec);
    std::vector<bool> fires;
    for (int i = 0; i < 64; ++i) {
      fires.push_back(fault::fault_point("fault-test.p"));
    }
    return fires;
  };

  const auto a = draw(11);
  const auto b = draw(11);
  const auto c = draw(12);
  EXPECT_EQ(a, b) << "same seed must replay the same schedule";
  EXPECT_NE(a, c) << "different seeds should diverge";
  // p=0.5 over 64 draws: some fired, some did not (P[degenerate] = 2^-63).
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultInjector, DisarmAndResetStopTheFiring) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  fault::arm("fault-test.d1", {});
  fault::arm("fault-test.d2", {});
  EXPECT_TRUE(fault::fault_point("fault-test.d1"));
  fault::disarm("fault-test.d1");
  EXPECT_FALSE(fault::fault_point("fault-test.d1"));
  EXPECT_TRUE(fault::fault_point("fault-test.d2"));
  fault::reset();
  EXPECT_FALSE(fault::fault_point("fault-test.d2"));
  EXPECT_TRUE(fault::all_site_stats().empty());
}

// ---------------------------------------------------------------------------
// 2. Deadlines: the core object, then propagation end to end

TEST(Deadline, DefaultIsUnlimitedAndTightenOnlyShrinks) {
  using std::chrono::milliseconds;
  const auto now = core::Deadline::Clock::now();
  core::Deadline d;
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  // Budgets past the clock's range (10^13 ms overflows int64 nanoseconds)
  // cannot shrink anything: no overflow, still unlimited.
  d.tighten(now, milliseconds(10'000'000'000'000));
  d.tighten(now, milliseconds::max());
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  d.tighten(now, milliseconds(10'000));
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  // A budget counts from its anchor: 10 s from an instant 20 s ago is
  // already spent.
  core::Deadline spent;
  spent.tighten(now - milliseconds(20'000), milliseconds(10'000));
  EXPECT_TRUE(spent.expired());
  d.tighten(now, milliseconds(0));
  EXPECT_TRUE(d.expired());
  // Tightening with a longer budget must not resurrect it.
  d.tighten(now, milliseconds(60'000));
  EXPECT_TRUE(d.expired());
}

TEST(Deadline, CancelExpiresImmediately) {
  core::Deadline d;
  EXPECT_FALSE(d.expired());
  d.cancel();
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(d.cancelled());
}

TEST(Deadline, ExpiredDeadlineMakesPredictThrowNotAnswer) {
  const auto ms = demo_campaign(0);
  core::Deadline expired;
  expired.tighten(core::Deadline::Clock::now(), std::chrono::milliseconds(0));
  core::PredictionConfig cfg;
  cfg.target_cores = core::cores_up_to(24);
  core::ExecContext ctx;
  ctx.deadline = &expired;
  EXPECT_THROW(core::predict(ms, cfg, ctx), core::DeadlineExceeded);
  // And without the deadline the same call still answers identically to a
  // context that never saw one — the deadline lives in the execution
  // context, outside the config signature, precisely because it cannot
  // change produced values.
  ctx.deadline = nullptr;
  EXPECT_EQ(record_of(core::predict(ms, cfg)),
            record_of(core::predict(ms, cfg, ctx)));
}

TEST(Deadline, ServiceCountsCancelledPredictionsAndCachesNothing) {
  parallel::ThreadPool pool(2);
  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(24);
  service::PredictionService svc(scfg, &pool);

  const auto ms = demo_campaign(1);
  core::Deadline expired;
  expired.cancel();
  EXPECT_THROW(svc.predict_one(ms, &expired), core::DeadlineExceeded);
  EXPECT_EQ(svc.stats().predictions_cancelled, 1u);
  EXPECT_EQ(svc.stats().cache.entries, 0u) << "a cancellation must not cache";

  // The same campaign afterwards computes fine and is cached.
  const auto p = svc.predict_one(ms);
  EXPECT_EQ(svc.stats().cache.entries, 1u);
  EXPECT_EQ(record_of(p), record_of(core::predict(ms, scfg.prediction)));
}

TEST(Deadline, CacheHitIsServedEvenWithAnExpiredDeadline) {
  parallel::ThreadPool pool(2);
  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(24);
  service::PredictionService svc(scfg, &pool);
  const auto ms = demo_campaign(2);
  const auto warm = svc.predict_one(ms);

  core::Deadline expired;
  expired.cancel();
  // Serving a cached answer costs nothing, so the budget does not apply.
  EXPECT_EQ(record_of(svc.predict_one(ms, &expired)), record_of(warm));
}

// ---------------------------------------------------------------------------
// End-to-end serving stack used by the propagation / shedding / chaos
// tests below.

struct Stack {
  explicit Stack(net::ServerConfig ncfg,
                 const std::string& snapshot_path = "") {
    pool = std::make_unique<parallel::ThreadPool>(2);
    service::ServiceConfig scfg;
    scfg.prediction.target_cores = core::cores_up_to(24);
    cfg = scfg.prediction;
    svc = std::make_unique<service::PredictionService>(scfg, pool.get());
    service::RouterConfig rcfg;
    rcfg.snapshot_path = snapshot_path;
    router = std::make_unique<service::ServiceRouter>(*svc, rcfg);
    server = service::make_server(*router, std::move(ncfg));
    server->start();
  }
  ~Stack() { server->stop(); }

  net::HttpClient client() {
    return net::HttpClient("127.0.0.1", server->port());
  }

  core::PredictionConfig cfg;
  std::unique_ptr<parallel::ThreadPool> pool;
  std::unique_ptr<service::PredictionService> svc;
  std::unique_ptr<service::ServiceRouter> router;
  std::unique_ptr<net::HttpServer> server;
};

template <typename Pred>
bool wait_until(Pred pred, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (pred()) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

TEST(DeadlinePropagation, ClientDeadlineHeaderAnswers408AndCountsCancelled) {
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 2;
  Stack stack(std::move(ncfg));

  auto c = stack.client();
  const auto ms = demo_campaign(3, 16);  // cold: must actually compute
  const auto resp = c.request("POST", "/v1/predict", csv_of(ms),
                              {{"content-type", "text/csv"},
                               {"x-estima-deadline-ms", "0"}});
  EXPECT_EQ(resp.status, 408);
  EXPECT_EQ(stack.svc->stats().predictions_cancelled, 1u);
  EXPECT_EQ(stack.svc->stats().cache.entries, 0u);

  // A budget past the clock's range (10^13 ms) is no budget: the same
  // campaign computes, and bit-identically.
  const auto huge = c.request("POST", "/v1/predict", csv_of(ms),
                              {{"content-type", "text/csv"},
                               {"x-estima-deadline-ms", "10000000000000"}});
  ASSERT_EQ(huge.status, 200);
  EXPECT_EQ(huge.body, record_of(core::predict(ms, stack.cfg)));
  EXPECT_EQ(stack.svc->stats().predictions_cancelled, 1u);

  // Without the header the answer is the same.
  const auto ok = c.request("POST", "/v1/predict", csv_of(ms),
                            {{"content-type", "text/csv"}});
  ASSERT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, record_of(core::predict(ms, stack.cfg)));
}

TEST(DeadlinePropagation, BadDeadlineHeaderIs400) {
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  Stack stack(std::move(ncfg));
  auto c = stack.client();
  const auto resp = c.request("POST", "/v1/predict", csv_of(demo_campaign(0)),
                              {{"content-type", "text/csv"},
                               {"x-estima-deadline-ms", "soon"}});
  EXPECT_EQ(resp.status, 400);
  // Out of strtol's range: rejected, not clamped to LONG_MAX.
  const auto big =
      c.request("POST", "/v1/predict", csv_of(demo_campaign(0)),
                {{"content-type", "text/csv"},
                 {"x-estima-deadline-ms", "99999999999999999999"}});
  EXPECT_EQ(big.status, 400);
}

TEST(DeadlinePropagation, Edge408MidComputeCancelsTheAbandonedFit) {
  // A 50 ms edge budget against a campaign whose cold predict takes
  // hundreds of ms (a 48-point campaign already computes in ~45 ms on a
  // 4-core x86 host, which races the budget): the loop's 408 fires while
  // the handler is mid-fit.
  // The propagated deadline must stop that fit (predictions_cancelled
  // moves) instead of leaving the pool thread computing an answer nobody
  // will read.
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  ncfg.idle_timeout_ms = 50;
  Stack stack(std::move(ncfg));

  auto c = stack.client();
  const auto ms = demo_campaign(4, 128);  // ~350 ms cold, >> the 50 ms budget
  net::HttpResponse resp;
  try {
    resp = c.post("/v1/predict", csv_of(ms), "text/csv");
  } catch (const std::exception&) {
    // The loop may close the connection right after the lingering 408;
    // both shapes are acceptable, the invariant under test is below.
    resp.status = 408;
  }
  EXPECT_EQ(resp.status, 408);
  const auto t408 = std::chrono::steady_clock::now();

  // The cooperative cancel lands at the next fit boundary — well within
  // the acceptance bound, but allow scheduler slack before failing.
  EXPECT_TRUE(wait_until(
      [&] { return stack.svc->stats().predictions_cancelled >= 1; }, 2'000))
      << "pool thread kept computing an abandoned answer";
  const auto lag = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t408);
  EXPECT_LE(lag.count(), 1'000) << "cancellation took too long after the 408";
  EXPECT_EQ(stack.svc->stats().cache.entries, 0u)
      << "an abandoned computation must not cache a partial answer";

  // The stack is healthy afterwards: a fresh server-timeout-free request
  // (warm budget, tiny campaign) answers bit-identically.
  net::HttpClient c2 = stack.client();
  const auto small = demo_campaign(5, 8);
  const auto ok = c2.post("/v1/predict", csv_of(small), "text/csv");
  ASSERT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, record_of(core::predict(small, stack.cfg)));
}

// ---------------------------------------------------------------------------
// 3. Load shedding + health

TEST(LoadShedding, QueueOverflowShedsTheOldestWith503RetryAfter) {
  std::atomic<int> release{0};
  obs::Registry registry;
  obs::Tracer tracer(registry, obs::TracerConfig{-1, 4});
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  ncfg.max_queue_depth = 1;
  ncfg.tracer = &tracer;
  net::HttpServer server(
      ncfg, [&release](const net::HttpRequest& req, const net::RequestContext&) {
        if (req.target == "/slow") {
          while (release.load() == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }
        net::HttpResponse resp;
        resp.body = req.target;
        return resp;
      });
  server.start();

  // A: occupies the single worker. B: queued. C: overflows the depth-1
  // queue, shedding B (the oldest) while C itself is admitted.
  net::HttpClient a("127.0.0.1", server.port());
  net::HttpClient b("127.0.0.1", server.port());
  net::HttpClient cc("127.0.0.1", server.port());
  std::thread ta([&a] { EXPECT_EQ(a.get("/slow").status, 200); });
  // B must be *queued* (not running) before C arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net::HttpResponse b_resp;
  const std::string id = "00000000000000bb";
  std::thread tb([&] {
    b_resp = b.request("GET", "/queued", "", {{"x-estima-trace-id", id}});
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  net::HttpResponse c_resp;
  std::thread tc([&cc, &c_resp] { c_resp = cc.get("/fresh"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  release.store(1);
  ta.join();
  tb.join();
  tc.join();

  EXPECT_EQ(b_resp.status, 503) << "the oldest queued request is shed";
  ASSERT_NE(b_resp.header("retry-after"), nullptr);
  EXPECT_EQ(*b_resp.header("retry-after"),
            std::to_string(net::kRetryAfterSeconds));
  // The shed 503 never reached a handler; the edge still echoes the
  // trace id, once.
  EXPECT_EQ(std::count(b_resp.headers.begin(), b_resp.headers.end(),
                       std::make_pair(std::string("x-estima-trace-id"), id)),
            1);
  EXPECT_EQ(c_resp.status, 200) << "the new request is admitted";
  EXPECT_EQ(c_resp.body, "/fresh");
  EXPECT_EQ(server.stats().requests_shed, 1u);
  EXPECT_TRUE(server.shedding()) << "gauge sticky after the shed";
  server.stop();
}

TEST(Health, ReportsServingDrainingAndShedding) {
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  Stack stack(std::move(ncfg));

  auto c = stack.client();
  const auto ok = c.get("/v1/health");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.body, "ok\n");
  EXPECT_EQ(c.post("/v1/health", "x", "text/plain").status, 405);

  stack.router->set_draining(true);
  EXPECT_EQ(c.get("/v1/health").status, 503);
  EXPECT_EQ(c.get("/v1/health").body, "draining\n");
  stack.router->set_draining(false);
  EXPECT_EQ(c.get("/v1/health").status, 200);

  // The shedding leg, driven directly (no need to manufacture a real
  // overload): a shedding context flips health to 503 "shedding".
  net::HttpRequest req;
  req.method = "GET";
  req.target = "/v1/health";
  net::RequestContext shedding_ctx;
  shedding_ctx.shedding = true;
  const auto shed = stack.router->handle(req, shedding_ctx);
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.body, "shedding\n");
}

/// The counters one /v1/predict request moves.
struct Counts {
  std::uint64_t submitted, hits, misses, computed;
  bool operator==(const Counts& o) const {
    return submitted == o.submitted && hits == o.hits &&
           misses == o.misses && computed == o.computed;
  }
};

std::ostream& operator<<(std::ostream& os, const Counts& c) {
  return os << "{submitted " << c.submitted << ", hits " << c.hits
            << ", misses " << c.misses << ", computed " << c.computed << "}";
}

// Shedding is the edge's business: a /v1/predict that reaches the router
// while the pool sheds is served, and counted, exactly as one that
// arrives while it does not — a resident key is one submitted campaign
// and one hit, an absent key one submitted campaign, one miss and one
// computed prediction.
TEST(LoadShedding, SheddingPredictCountsAsWithoutShedding) {
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 2;
  Stack stack(std::move(ncfg));

  const auto counts = [&] {
    const service::ServiceStats s = stack.svc->stats();
    return Counts{s.campaigns_submitted, s.cache.hits, s.cache.misses,
                  s.predictions_computed};
  };
  // POSTs `ms` through the router under `ctx`, stores the 200's body in
  // `body` and returns the counters the request moved.
  const auto predict = [&](const core::MeasurementSet& ms,
                           const net::RequestContext& ctx,
                           std::string* body) {
    net::HttpRequest req;
    req.method = "POST";
    req.target = "/v1/predict";
    req.body = csv_of(ms);
    const Counts before = counts();
    const net::HttpResponse resp = stack.router->handle(req, ctx);
    EXPECT_EQ(resp.status, 200);
    *body = resp.body;
    const Counts after = counts();
    return Counts{after.submitted - before.submitted,
                  after.hits - before.hits, after.misses - before.misses,
                  after.computed - before.computed};
  };
  net::RequestContext shedding;
  shedding.shedding = true;
  const net::RequestContext calm;

  for (const bool shed : {false, true}) {
    SCOPED_TRACE(shed ? "shedding" : "not shedding");
    const net::RequestContext& ctx = shed ? shedding : calm;
    const core::MeasurementSet ms = demo_campaign(shed ? 6 : 7, 8);
    std::string computed, served;
    EXPECT_EQ(predict(ms, ctx, &computed), (Counts{1, 0, 1, 1}))
        << "an absent key: one submitted, one miss, one computed";
    EXPECT_EQ(predict(ms, ctx, &served), (Counts{1, 1, 0, 0}))
        << "a resident key: one submitted, one hit";
    EXPECT_EQ(served, computed);
    EXPECT_EQ(computed, record_of(core::predict(ms, stack.cfg)));
  }
}

// ---------------------------------------------------------------------------
// 4. Snapshot I/O faults

class SnapshotFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
    cfg_.target_cores = core::cores_up_to(24);
    dir_ = fs::temp_directory_path() / "estima_fault_snap";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    path_ = (dir_ / "cache.v1").string();
  }
  void TearDown() override {
    fault::reset();
    if (!dir_.empty()) fs::remove_all(dir_);
  }

  std::vector<service::SnapshotEntry> entries() {
    auto p = std::make_shared<const core::Prediction>(
        core::predict(demo_campaign(0), cfg_));
    return {{0x1234u, p}};
  }

  core::PredictionConfig cfg_;
  fs::path dir_;
  std::string path_;
};

TEST_F(SnapshotFaults, WriteFailureThrowsIoErrorAndUnlinksTmp) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.error_errno = ENOSPC;
  fault::arm("snapshot.write", spec);
  EXPECT_THROW(service::save_snapshot(path_, 1, entries()),
               service::SnapshotIoError);
  EXPECT_FALSE(tmp_litter_in(dir_)) << "failed write must unlink its temp";
  EXPECT_FALSE(fs::exists(path_));
}

TEST_F(SnapshotFaults, OpenFailureThrowsIoError) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.error_errno = EACCES;
  fault::arm("snapshot.open", spec);
  try {
    service::save_snapshot(path_, 1, entries());
    FAIL() << "expected SnapshotIoError";
  } catch (const service::SnapshotIoError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot create"), std::string::npos);
  }
  EXPECT_FALSE(tmp_litter_in(dir_));
}

TEST_F(SnapshotFaults, RenameFailureThrowsIoErrorAndUnlinksTmp) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.error_errno = EXDEV;
  fault::arm("snapshot.rename", spec);
  EXPECT_THROW(service::save_snapshot(path_, 1, entries()),
               service::SnapshotIoError);
  EXPECT_FALSE(tmp_litter_in(dir_));
  EXPECT_FALSE(fs::exists(path_));
}

TEST_F(SnapshotFaults, ShortWritesAreResumedAndTheSnapshotLoadsIntact) {
  FaultGuard guard;
  fault::FaultSpec spec;
  spec.short_io = true;  // every write(2) delivers a truncated count
  fault::arm("snapshot.write", spec);
  const auto want = entries();
  const auto report = service::save_snapshot(path_, 1, want);
  EXPECT_EQ(report.entries_written, 1u);
  EXPECT_GT(fault::site_stats("snapshot.write").fires, 1u)
      << "the writer should have resumed across many short writes";
  fault::reset();

  const auto loaded = service::load_snapshot(path_, 1);
  ASSERT_EQ(loaded.entries_loaded(), 1u);
  EXPECT_TRUE(loaded.skipped.empty());
  EXPECT_FALSE(loaded.truncated);
  EXPECT_EQ(record_of(*loaded.entries[0].prediction),
            record_of(*want[0].prediction));
}

// ---------------------------------------------------------------------------
// Pool-submit refusal and fit-workspace allocation failure

TEST(PoolFaults, SubmitRefusalFallsBackToCallerAndStaysBitIdentical) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  parallel::ThreadPool pool(4);
  const auto ms = demo_campaign(3, 12);
  core::PredictionConfig cfg;
  cfg.target_cores = core::cores_up_to(24);
  const auto serial = record_of(core::predict(ms, cfg));

  fault::arm("pool.submit", {});  // every helper submission refused
  const auto under_fault = record_of(core::predict(ms, cfg, &pool));
  fault::reset();
  const auto pooled = record_of(core::predict(ms, cfg, &pool));

  EXPECT_EQ(under_fault, serial)
      << "caller-drains fallback must not change the answer";
  EXPECT_EQ(pooled, serial);
}

TEST(PoolFaults, WorkspaceAllocFailureIsAnErrorNeverAWrongAnswer) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  parallel::ThreadPool pool(2);
  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(24);
  service::PredictionService svc(scfg, &pool);
  const auto ms = demo_campaign(5, 10);

  fault::arm("alloc.workspace", {});
  try {
    svc.predict_one(ms);
    FAIL() << "allocation failure must surface, not fall back silently";
  } catch (const core::DeadlineExceeded&) {
    FAIL() << "alloc failure must not masquerade as a deadline";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("allocation"), std::string::npos);
  }
  EXPECT_EQ(svc.stats().cache.entries, 0u) << "nothing cached on abort";

  fault::reset();
  const auto p = svc.predict_one(ms);
  EXPECT_EQ(record_of(p), record_of(core::predict(ms, scfg.prediction)));
}

// ---------------------------------------------------------------------------
// Accept failure: fd exhaustion at the listener

TEST(AcceptFaults, EmfileAtAcceptPausesTheListenerThenServes) {
  if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  FaultGuard guard;
  net::ServerConfig ncfg;
  ncfg.io_threads = 1;
  ncfg.worker_threads = 1;
  net::HttpServer server(
      ncfg, [](const net::HttpRequest& req, const net::RequestContext&) {
        net::HttpResponse resp;
        resp.body = req.body;
        return resp;
      });
  server.start();

  // The loop's first accept fails EMFILE: the listener leaves its poller
  // for a moment, and the still-pending connection is accepted after.
  fault::FaultSpec emfile;
  emfile.trigger = fault::FaultSpec::Trigger::kNth;
  emfile.nth = 1;
  emfile.error_errno = EMFILE;
  fault::arm("net.accept", emfile);
  net::HttpClient c("127.0.0.1", server.port());
  const auto resp = c.post("/echo", "after the pause");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "after the pause");
  EXPECT_EQ(fault::site_stats("net.accept").fires, 1u);

  const auto s = server.stats();
  EXPECT_EQ(s.connections_accepted, 1u);
  EXPECT_EQ(s.connections_accepted, s.connections_closed + s.open_connections);
  server.stop();
}

// ---------------------------------------------------------------------------
// 5. Chaos: seeded randomized fault schedules over the live stack

struct ChaosOutcome {
  std::atomic<int> ok{0};
  std::atomic<int> shed_503{0};
  std::atomic<int> timeout_408{0};
  std::atomic<int> server_5xx{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> wrong_answers{0};
  std::atomic<int> other_status{0};
};

void chaos_round(std::uint64_t seed) {
  std::printf("[chaos] seed=0x%llx (replay: arm the same schedule)\n",
              static_cast<unsigned long long>(seed));
  estima::net::raise_fd_limit(4096);

  const fs::path dir = fs::temp_directory_path() / "estima_chaos_snap";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string snap_path = (dir / "cache.v1").string();

  net::ServerConfig ncfg;
  ncfg.io_threads = 2;
  ncfg.worker_threads = 3;
  ncfg.idle_timeout_ms = 5'000;
  ncfg.max_queue_depth = 16;
  Stack stack(std::move(ncfg), snap_path);

  // Ground truth, computed clean before any fault is armed.
  constexpr int kCampaigns = 6;
  std::vector<core::MeasurementSet> campaigns;
  std::vector<std::string> expected;
  for (int i = 0; i < kCampaigns; ++i) {
    campaigns.push_back(demo_campaign(i, 8));
    expected.push_back(record_of(core::predict(campaigns.back(), stack.cfg)));
  }

  fault::reset();
  fault::seed_rng(seed);
  {
    fault::FaultSpec p;
    p.trigger = fault::FaultSpec::Trigger::kProbability;
    p.probability = 0.01;
    p.error_errno = EIO;
    fault::arm("net.read", p);
    fault::arm("client.send", p);
    fault::arm("client.recv", p);

    fault::FaultSpec shortw = p;
    shortw.probability = 0.05;
    shortw.short_io = true;  // partial sends: the server must resume them
    fault::arm("net.write", shortw);

    fault::FaultSpec accept_p = p;
    accept_p.probability = 0.05;
    accept_p.error_errno = EMFILE;  // transient fd exhaustion at accept
    fault::arm("net.accept", accept_p);

    fault::FaultSpec submit_p = p;
    submit_p.probability = 0.05;
    fault::arm("pool.submit", submit_p);

    fault::FaultSpec alloc_p = p;
    alloc_p.probability = 0.02;
    fault::arm("alloc.workspace", alloc_p);

    fault::FaultSpec snap_p = p;
    snap_p.probability = 0.2;
    snap_p.error_errno = ENOSPC;
    fault::arm("snapshot.write", snap_p);
  }

  ChaosOutcome outcome;
  std::atomic<bool> invariants_ok{true};
  std::atomic<bool> done{false};

  // Stats-invariant watcher: at every snapshot, accounting must balance
  // and counters must never move backwards.
  std::thread watcher([&] {
    net::ServerStats prev{};
    while (!done.load()) {
      const auto s = stack.server->stats();
      if (s.connections_accepted != s.connections_closed + s.open_connections)
        invariants_ok.store(false);
      if (s.connections_accepted < prev.connections_accepted ||
          s.requests_served < prev.requests_served ||
          s.requests_shed < prev.requests_shed)
        invariants_ok.store(false);
      prev = s;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 30;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      net::HttpClient c("127.0.0.1", stack.server->port());
      net::RetryConfig rc;
      rc.max_attempts = 5;
      rc.base_delay_ms = 2;
      rc.max_delay_ms = 40;
      rc.budget_ms = 2'000;
      rc.seed = seed + static_cast<std::uint64_t>(t) + 1;
      c.set_retry_config(rc);
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const int which = (t * kRequestsPerThread + i) % kCampaigns;
        try {
          if (i % 10 == 9) {
            // Occasional snapshot spill, racing the injected ENOSPC.
            const auto r = c.request_with_retry("POST", "/v1/snapshot");
            if (r.status != 200 && r.status != 500) outcome.other_status++;
            continue;
          }
          const auto r = c.request_with_retry(
              "POST", "/v1/predict", csv_of(campaigns[which]),
              {{"content-type", "text/csv"}});
          switch (r.status) {
            case 200:
              // THE invariant: a delivered answer is never wrong.
              if (r.body != expected[which]) {
                outcome.wrong_answers++;
              } else {
                outcome.ok++;
              }
              break;
            case 503: outcome.shed_503++; break;
            case 408: outcome.timeout_408++; break;
            default:
              if (r.status >= 500) outcome.server_5xx++;
              else outcome.other_status++;
          }
        } catch (const std::exception&) {
          outcome.transport_errors++;  // retries exhausted: acceptable
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  done.store(true);
  watcher.join();

  // However the schedule went, nothing may have been answered wrongly and
  // the books must balance.
  EXPECT_EQ(outcome.wrong_answers.load(), 0)
      << "seed 0x" << std::hex << seed << ": a 200 diverged from recompute";
  EXPECT_EQ(outcome.other_status.load(), 0);
  EXPECT_TRUE(invariants_ok.load())
      << "seed 0x" << std::hex << seed << ": stats invariants violated";
  EXPECT_GT(outcome.ok.load(), 0)
      << "the schedule should not have killed every request";

  // Disarm: the stack must serve every campaign perfectly again.
  fault::reset();
  net::HttpClient verify("127.0.0.1", stack.server->port());
  net::RetryConfig rc;
  rc.max_attempts = 3;
  rc.seed = 1;
  verify.set_retry_config(rc);
  for (int i = 0; i < kCampaigns; ++i) {
    const auto r = verify.request_with_retry(
        "POST", "/v1/predict", csv_of(campaigns[i]),
        {{"content-type", "text/csv"}});
    ASSERT_EQ(r.status, 200) << "campaign " << i << " after disarm";
    EXPECT_EQ(r.body, expected[i]) << "campaign " << i << " after disarm";
  }

  // The snapshot file, whatever the injected ENOSPC left behind, must be
  // absent or loadable — and the loader must never crash on it.
  EXPECT_FALSE(tmp_litter_in(dir)) << "failed snapshots left *.tmp litter";
  if (fs::exists(snap_path)) {
    try {
      const auto report = service::load_snapshot(snap_path);
      for (const auto& e : report.entries) {
        ASSERT_NE(e.prediction, nullptr);
      }
    } catch (const std::exception&) {
      // A rejected file is fine; crashing is not (caught = no crash).
    }
  }

  const auto final_stats = stack.server->stats();
  EXPECT_EQ(final_stats.connections_accepted,
            final_stats.connections_closed + final_stats.open_connections);
  std::printf(
      "[chaos] seed=0x%llx: ok=%d shed=%d 408=%d 5xx=%d transport=%d\n",
      static_cast<unsigned long long>(seed), outcome.ok.load(),
      outcome.shed_503.load(), outcome.timeout_408.load(),
      outcome.server_5xx.load(), outcome.transport_errors.load());
  fs::remove_all(dir);
}

class Chaos : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!fault::compiled_in()) GTEST_SKIP() << "fault injection compiled out";
  }
  void TearDown() override { fault::reset(); }
};

TEST_F(Chaos, SeededScheduleCoffee) { chaos_round(0xC0FFEEull); }
TEST_F(Chaos, SeededSchedule42) { chaos_round(42ull); }
TEST_F(Chaos, SeededSchedule7) { chaos_round(7ull); }

}  // namespace
}  // namespace estima
