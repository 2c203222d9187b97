// Serving throughput benchmark: quantifies what the irf::serve engine's
// per-design cache and cross-request batching buy over the naive baseline
// (a cold IrFusionPipeline::analyze call per request). Trains a tiny
// pipeline, then serves the same request mix three ways:
//
//   cold_direct   per-request pipeline.analyze() — re-assembles the MNA
//                 system, AMG hierarchy and features every time
//   cold_engine   engine with an empty cache (first round pays the build)
//   warm_engine   engine with a warmed cache at batch sizes 1/4/16 — the
//                 steady-state serving configuration
//
// Every configuration is timed in each of kRepetitions interleaved rounds,
// and each entry reports the median pass; the bar compares warm and cold
// per round and gates on the median ratio, so one host hiccup cannot decide
// it. Writes BENCH_serve_throughput.json with one entry per configuration
// plus the engine's obs metrics snapshot (cache hit/miss counters, queue
// gauge). Pass --quick for CI-sized inputs (the ctest artifact check uses
// it).

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "irf.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {

using namespace irf;

/// Interleaved timing rounds per run; odd, so the median is one round.
constexpr int kRepetitions = 7;

/// Nearest-rank quantile of raw samples (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// One configuration's timed passes over every repetition.
struct Entry {
  std::string mode;
  int batch = 1;
  int requests = 0;  ///< per pass
  bool cache_warm = false;
  std::vector<double> pass_seconds;  ///< one per repetition
  // Per-request latencies over every pass, for exact quantiles. Empty for
  // cold_direct, which never goes through the engine.
  std::vector<double> queue_wait;
  std::vector<double> e2e;

  double seconds() const { return quantile(pass_seconds, 0.5); }
  double rps() const { return requests / seconds(); }
};

struct Sizes {
  int image_px = 32;
  int num_designs = 4;
  int rounds = 4;  ///< each design is requested this many times
  int epochs = 1;
};

std::vector<std::shared_ptr<const pg::PgDesign>> make_designs(const Sizes& sz) {
  std::vector<std::shared_ptr<const pg::PgDesign>> designs;
  for (int i = 0; i < sz.num_designs; ++i) {
    Rng rng(900 + i);
    designs.push_back(std::make_shared<pg::PgDesign>(
        pg::generate_fake_design(sz.image_px, rng, "serve_" + std::to_string(i))));
  }
  return designs;
}

IrFusionPipeline train_pipeline(
    const Sizes& sz, const std::vector<std::shared_ptr<const pg::PgDesign>>& designs) {
  std::vector<train::PreparedDesign> prepared;
  for (const auto& d : designs) {
    train::PreparedDesign p;
    p.design = std::make_unique<pg::PgDesign>(*d);
    p.solver = std::make_unique<pg::PgSolver>(*p.design);
    p.golden = p.solver->solve_golden();
    prepared.push_back(std::move(p));
  }
  PipelineConfig pc;
  pc.image_size = sz.image_px;
  pc.base_channels = 4;
  pc.epochs = sz.epochs;
  pc.rough_iterations = 3;
  pc.seed = 42;
  IrFusionPipeline pipeline(pc);
  pipeline.fit(prepared);
  return pipeline;
}

/// Serve `rounds` passes over the design list through `engine`, async, and
/// record the pass time and every request's latencies into `entry`.
void serve_rounds(Engine& engine,
                  const std::vector<std::shared_ptr<const pg::PgDesign>>& designs,
                  int rounds, Entry* entry = nullptr) {
  Stopwatch sw;
  std::vector<Engine::Ticket> tickets;
  tickets.reserve(designs.size() * static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (const auto& d : designs) {
      AnalysisRequest request;
      request.design = d;
      tickets.push_back(engine.submit(std::move(request)));
    }
  }
  std::vector<AnalysisResult> results;
  for (Engine::Ticket& t : tickets) {
    results.push_back(t.result.get());
    if (!results.back().has_map()) std::abort();  // keep the serve observable
  }
  const double seconds = sw.seconds();
  if (!entry) return;
  entry->pass_seconds.push_back(seconds);
  for (const AnalysisResult& r : results) {
    entry->queue_wait.push_back(r.stages.queue_wait_seconds);
    entry->e2e.push_back(r.stages.total_seconds);
  }
}

void write_json(const std::vector<Entry>& entries) {
  std::ofstream f("BENCH_serve_throughput.json");
  f << "{\n  \"bench\": \"serve_throughput\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    f << "    {\"mode\": \"" << obs::json_escape(e.mode) << "\""
      << ", \"batch\": " << e.batch << ", \"requests\": " << e.requests
      << ", \"cache_warm\": " << (e.cache_warm ? "true" : "false")
      << ", \"repetitions\": " << e.pass_seconds.size()
      << ", \"seconds\": " << obs::json_number(e.seconds())
      << ", \"rps\": " << obs::json_number(e.rps())
      << ", \"queue_p50_seconds\": " << obs::json_number(quantile(e.queue_wait, 0.50))
      << ", \"queue_p99_seconds\": " << obs::json_number(quantile(e.queue_wait, 0.99))
      << ", \"e2e_p50_seconds\": " << obs::json_number(quantile(e.e2e, 0.50))
      << ", \"e2e_p99_seconds\": " << obs::json_number(quantile(e.e2e, 0.99)) << "}"
      << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"metrics\": " << obs::metrics_json() << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Sizes sz;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sz = Sizes{32, 3, 3, 1};
    } else {
      std::cerr << "usage: bench_serve_throughput [--quick]\n";
      return 1;
    }
  }
  obs::set_metrics_enabled(true);  // serve.* instruments go into the artifact

  const auto designs = make_designs(sz);
  IrFusionPipeline pipeline = train_pipeline(sz, designs);
  const int requests = static_cast<int>(designs.size()) * sz.rounds;
  const std::string checkpoint = "serve_throughput_model.irf";
  save_checkpoint(pipeline, checkpoint);

  // One engine per batch size, its cache warmed once; the batch-1 engine
  // also times a cold pass (the engine-overhead datapoint) after clearing.
  std::vector<std::unique_ptr<Engine>> engines;
  Entry cold_direct{"cold_direct", 1, requests, false, {}, {}, {}};
  Entry cold_engine{"cold_engine", 1, requests, false, {}, {}, {}};
  std::vector<Entry> warm;
  for (int batch : {1, 4, 16}) {
    EngineOptions opts;
    opts.max_batch = batch;
    opts.queue_capacity = std::max(64, requests);
    engines.push_back(Engine::from_checkpoint(checkpoint, opts));
    warm.push_back({"warm_engine", batch, requests, true, {}, {}, {}});
  }

  // Interleaved rounds: per round the cold per-request loop and every
  // engine configuration run back to back, so a slow spell of the host
  // hits the modes of the round it falls in together.
  std::vector<double> ratios;  ///< per round: cold seconds / best warm seconds
  for (int k = 0; k < kRepetitions; ++k) {
    // Baseline: a fresh end-to-end analyze per request, nothing shared.
    Stopwatch sw;
    for (int r = 0; r < sz.rounds; ++r) {
      for (const auto& d : designs) {
        GridF map = pipeline.analyze(*d);
        if (map.data().empty()) std::abort();
      }
    }
    cold_direct.pass_seconds.push_back(sw.seconds());

    engines.front()->clear_cache();
    serve_rounds(*engines.front(), designs, sz.rounds, &cold_engine);
    double best_warm_seconds = 0.0;
    for (std::size_t b = 0; b < engines.size(); ++b) {
      serve_rounds(*engines[b], designs, 1);  // fill the cache (all hits once warm)
      serve_rounds(*engines[b], designs, sz.rounds, &warm[b]);
      const double s = warm[b].pass_seconds.back();
      if (b == 0 || s < best_warm_seconds) best_warm_seconds = s;
    }
    ratios.push_back(cold_direct.pass_seconds.back() / best_warm_seconds);
  }
  const double speedup = quantile(ratios, 0.5);

  std::vector<Entry> entries = {cold_direct, cold_engine};
  entries.insert(entries.end(), warm.begin(), warm.end());
  write_json(entries);

  std::cout << "mode          batch   requests   seconds      req/s   queue_p99   e2e_p99\n";
  bool quantiles_ok = true;
  for (const Entry& e : entries) {
    const double queue_p99 = quantile(e.queue_wait, 0.99);
    const double e2e_p99 = quantile(e.e2e, 0.99);
    std::printf("%-13s %5d %10d %9.4f %10.1f %11.6f %9.6f\n", e.mode.c_str(),
                e.batch, e.requests, e.seconds(), e.rps(), queue_p99, e2e_p99);
    // Every engine-served mode must report real latency quantiles.
    if (e.mode != "cold_direct") {
      quantiles_ok = quantiles_ok && queue_p99 > 0.0 && e2e_p99 > 0.0;
    }
  }
  std::cout << "warm/cold speedup (median of " << kRepetitions << " rounds): " << speedup
            << "x\n"
            << "wrote BENCH_serve_throughput.json\n";
  // The acceptance bar: warm-cache batched serving must beat the cold
  // per-request loop outright, and the latency quantiles must be live.
  if (!quantiles_ok) {
    std::cerr << "FAIL: an engine mode reported zero queue/e2e p99\n";
    return 1;
  }
  return speedup > 1.0 ? 0 : 1;
}
