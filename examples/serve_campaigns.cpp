// The serving-layer experience: ingest a directory of measurement
// campaigns (*.csv), submit them as one predict_many() batch, and ask
// again to show the campaign-hash cache at work.
//
//   ./example_serve_campaigns [campaign_dir] [target_cores] [snapshot_file]
//
// With no arguments, a demo directory of synthetic campaigns is written
// next to the working directory first, so the example runs out of the box.
// Prints one line per campaign (best core count, predicted time at the
// target) plus serving throughput and the cache hit rate of the repeated
// submission.
//
// With a snapshot_file, the example demonstrates warm restarts: an
// existing snapshot is restored before serving (a second run answers every
// repeat campaign without recomputing — watch "computed" drop to 0), and
// the cache is spilled back to the snapshot on exit.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/measurement.hpp"
#include "core/predictor.hpp"
#include "parallel/thread_pool.hpp"
#include "service/ingest.hpp"
#include "service/prediction_service.hpp"
#include "simmachine/synthetic.hpp"

namespace {

std::string write_demo_dir() {
  const std::string dir = "serve_demo_campaigns";
  std::filesystem::create_directories(dir);
  for (int i = 0; i < 6; ++i) {
    estima::sim::SyntheticSpec spec;
    spec.mem_rate = 0.25 + 0.03 * i;
    spec.serial_frac = 0.004 + 0.002 * i;
    spec.stm_rate = i % 2 ? 1e-4 : 0.0;
    spec.noise = 0.02;
    const auto ms = estima::sim::make_synthetic(
        spec, estima::sim::counts_up_to(12),
        ("demo-workload-" + std::to_string(i)).c_str());
    estima::core::save_csv(dir + "/campaign_" + std::to_string(i) + ".csv",
                           ms);
  }
  return dir;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace estima;

  std::string dir;
  if (argc > 1) {
    dir = argv[1];
  } else {
    dir = write_demo_dir();
    std::printf("(no directory given: wrote demo campaigns to %s/)\n",
                dir.c_str());
  }
  const int target = argc > 2 ? std::atoi(argv[2]) : 48;
  const std::string snapshot_path = argc > 3 ? argv[3] : "";

  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "%s is not a readable directory\n", dir.c_str());
    return 1;
  }
  service::IngestReport report;
  try {
    report = service::ingest_directory(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  for (const auto& err : report.errors) {
    std::fprintf(stderr, "skipped %s: %s\n", err.path.c_str(),
                 err.message.c_str());
  }
  if (report.campaigns.empty()) {
    std::fprintf(stderr, "no loadable *.csv campaigns under %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf("ingested %zu campaigns (%zu rejected)\n",
              report.campaigns.size(), report.errors.size());

  parallel::ThreadPool pool(parallel::ThreadPool::hardware_threads());
  service::ServiceConfig scfg;
  scfg.prediction.target_cores = core::cores_up_to(target);
  service::PredictionService svc(scfg, &pool);

  // Warm restart: reload answers a previous run spilled to disk. Damage
  // is non-fatal (skipped entries are recomputed below); a missing file
  // just means a cold start.
  if (!snapshot_path.empty() && std::filesystem::exists(snapshot_path)) {
    try {
      const auto restored = svc.restore_from(snapshot_path);
      std::printf("restored %zu cached predictions from %s (%zu skipped)\n",
                  restored.entries_loaded(), snapshot_path.c_str(),
                  restored.skipped.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "snapshot not restored: %s\n", e.what());
    }
  }

  const auto batch = report.sets();
  const auto cold_start = std::chrono::steady_clock::now();
  const auto preds = svc.predict_many(batch);
  const double cold_s = seconds_since(cold_start);

  for (std::size_t i = 0; i < preds.size(); ++i) {
    std::printf("%-40s best %2d cores, %.4gs at %d cores\n",
                report.campaigns[i].path.c_str(),
                preds[i].best_core_count(), preds[i].time_s.back(), target);
  }

  // The same batch again: everything is served from the campaign cache.
  const auto before = svc.stats();
  const auto warm_start = std::chrono::steady_clock::now();
  svc.predict_many(batch);
  const double warm_s = seconds_since(warm_start);
  const auto after = svc.stats();
  const auto hits = after.cache.hits - before.cache.hits;
  const auto lookups = hits + (after.cache.misses - before.cache.misses);

  std::printf("cold: %.1f campaigns/s, warm: %.1f campaigns/s, "
              "repeat hit rate %.0f%% (%llu/%llu)\n",
              batch.size() / cold_s, batch.size() / warm_s,
              lookups ? 100.0 * static_cast<double>(hits) /
                            static_cast<double>(lookups)
                      : 0.0,
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(lookups));
  std::printf("computed %llu predictions this run\n",
              static_cast<unsigned long long>(after.predictions_computed));

  // Spill the cache so the next run of this process starts warm. The
  // campaigns were already served; a failed spill is a warning, not an
  // abort.
  if (!snapshot_path.empty()) {
    try {
      const auto written = svc.snapshot_to(snapshot_path);
      std::printf("snapshotted %zu cached predictions to %s\n",
                  written.entries_written, snapshot_path.c_str());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "snapshot not written: %s\n", e.what());
    }
  }

  // Scripted callers must be able to tell "served everything" from
  // "served a subset": a partially failed ingestion exits non-zero even
  // though the loadable campaigns were served above.
  if (!report.errors.empty()) {
    std::fprintf(stderr,
                 "%zu of %zu campaign files failed to ingest; exiting "
                 "non-zero (partial ingestion)\n",
                 report.errors.size(),
                 report.errors.size() + report.campaigns.size());
    return 1;
  }
  return 0;
}
