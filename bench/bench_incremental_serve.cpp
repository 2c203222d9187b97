// Incremental re-analysis benchmark: quantifies what the serve engine's
// warm-start path (frozen AMG hierarchy + seeded PCG + dirty-channel feature
// refresh) buys over a cold rebuild on an ECO-style workload: one large
// design followed by a chain of current-map perturbations of it.
//
// Two engines serve the identical request sequence:
//
//   cold   enable_warm_start = false — every perturbation pays MNA assembly,
//          AMG setup, the full rough solve and full feature extraction
//   warm   enable_warm_start = true  — every perturbation rides the cached
//          hierarchy and rough solution of its predecessor
//
// Per round the served map is scored against a golden solve of that exact
// perturbed design; the fusion contract is that warm serving must not move
// this accuracy (the warm PCG targets the same residual the cold rough solve
// reached). The cold and warm passes are timed as kRepetitions interleaved
// pairs (a fresh engine each), and the speedup is the median of the per-pair
// cold/warm ratios, so one host hiccup cannot decide the bar. Writes
// BENCH_incremental_serve.json and exits non-zero unless
//   median speedup >= 2  AND  max |mae_warm - mae_cold| <= 1e-8  AND  every
// perturbation of every warm pass was actually served warm. Pass --quick for
// CI-sized inputs.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"

namespace {

using namespace irf;

/// Interleaved cold/warm pass pairs per run; odd, so the median is one pair.
constexpr int kRepetitions = 7;

struct Sizes {
  int design_px = 128;       ///< PDN grid resolution (the MNA/AMG cost driver)
  int image_px = 32;         ///< pipeline raster resolution
  int rounds = 4;            ///< ECO perturbations chained after the base
  int rough_iterations = 50; ///< fully converges the rough solve (fixed count)
};

struct Round {
  int index = 0;
  double cold_seconds = 0.0;  ///< median over the repetitions
  double warm_seconds = 0.0;
  double mae_cold = 0.0;
  double mae_warm = 0.0;
};

/// Nearest-rank quantile of raw samples (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

double mae(const GridF& a, const GridF& b) {
  if (a.data().size() != b.data().size() || a.data().empty()) std::abort();
  double sum = 0.0;
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    sum += std::abs(static_cast<double>(a.data()[i]) - b.data()[i]);
  }
  return sum / static_cast<double>(a.data().size());
}

IrFusionPipeline train_pipeline(const Sizes& sz, const pg::PgDesign& base) {
  std::vector<train::PreparedDesign> prepared;
  train::PreparedDesign p;
  p.design = std::make_unique<pg::PgDesign>(base);
  p.solver = std::make_unique<pg::PgSolver>(*p.design);
  p.golden = p.solver->solve_golden();
  prepared.push_back(std::move(p));
  PipelineConfig pc;
  pc.image_size = sz.image_px;
  pc.base_channels = 2;  // model quality is irrelevant here; keep forwards cheap
  pc.epochs = 1;
  pc.rough_iterations = sz.rough_iterations;
  pc.seed = 42;
  IrFusionPipeline pipeline(pc);
  pipeline.fit(prepared);
  return pipeline;
}

/// One engine pass: serve the base design (uncounted cache fill), then time
/// each perturbation.
struct Pass {
  std::vector<double> seconds;          ///< per perturbation, client side
  std::vector<AnalysisResult> results;  ///< per perturbation
  EngineStats stats;
};

Pass timed_pass(const std::string& checkpoint, bool warm_start,
                const std::shared_ptr<const pg::PgDesign>& base,
                const std::vector<std::shared_ptr<const pg::PgDesign>>& perturbed) {
  EngineOptions opts;
  opts.enable_warm_start = warm_start;
  auto engine = Engine::from_checkpoint(checkpoint, opts);
  if (!engine->analyze(*base).ok()) std::abort();
  Pass pass;
  for (const auto& d : perturbed) {
    Stopwatch sw;
    AnalysisResult r = engine->analyze(*d);
    pass.seconds.push_back(sw.seconds());
    if (!r.ok()) std::abort();
    pass.results.push_back(std::move(r));
  }
  pass.stats = engine->stats();
  return pass;
}

/// End-to-end (submit -> fulfil) latency quantiles of one mode's
/// perturbation requests over every repetition.
struct PassQuantiles {
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
};

PassQuantiles e2e_quantiles(const std::vector<Pass>& passes) {
  std::vector<double> e2e;
  for (const Pass& p : passes) {
    for (const AnalysisResult& r : p.results) e2e.push_back(r.stages.total_seconds);
  }
  return {quantile(e2e, 0.50), quantile(e2e, 0.99)};
}

void write_json(const std::vector<Round>& rounds, const std::vector<double>& speedups,
                double speedup, double mae_diff_max, const EngineStats& warm_stats,
                const PassQuantiles& cold_q, const PassQuantiles& warm_q) {
  std::ofstream f("BENCH_incremental_serve.json");
  f << "{\n  \"bench\": \"incremental_serve\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    f << "    {\"round\": " << r.index
      << ", \"cold_seconds\": " << obs::json_number(r.cold_seconds)
      << ", \"warm_seconds\": " << obs::json_number(r.warm_seconds)
      << ", \"mae_cold\": " << obs::json_number(r.mae_cold)
      << ", \"mae_warm\": " << obs::json_number(r.mae_warm) << "}"
      << (i + 1 < rounds.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"summary\": {\"speedup\": " << obs::json_number(speedup)
    << ", \"repetitions\": " << speedups.size() << ", \"speedups\": [";
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    f << (i ? ", " : "") << obs::json_number(speedups[i]);
  }
  f << "]"
    << ", \"mae_diff_max\": " << obs::json_number(mae_diff_max)
    << ", \"warm_hits\": " << warm_stats.warm_hits
    << ", \"warm_fallbacks\": " << warm_stats.warm_fallbacks
    << ", \"cold_e2e_p50_seconds\": " << obs::json_number(cold_q.p50_seconds)
    << ", \"cold_e2e_p99_seconds\": " << obs::json_number(cold_q.p99_seconds)
    << ", \"warm_e2e_p50_seconds\": " << obs::json_number(warm_q.p50_seconds)
    << ", \"warm_e2e_p99_seconds\": " << obs::json_number(warm_q.p99_seconds) << "},\n"
    << "  \"metrics\": " << obs::metrics_json() << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Sizes sz;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      sz = Sizes{96, 32, 3, 50};
    } else {
      std::cerr << "usage: bench_incremental_serve [--quick]\n";
      return 1;
    }
  }
  obs::set_metrics_enabled(true);

  Rng rng(1234);
  auto base = std::make_shared<const pg::PgDesign>(
      pg::generate_fake_design(sz.design_px, rng, "eco_base"));

  // The ECO chain: each round rescales every current source slightly —
  // topology untouched, content hash new, exactly the bounded delta the warm
  // path is built for. The edit is small (an incremental activity update),
  // so the seeded PCG starts close and converges in a fraction of the cold
  // solve's fixed iteration budget.
  std::vector<std::shared_ptr<const pg::PgDesign>> perturbed;
  for (int r = 0; r < sz.rounds; ++r) {
    pg::PgDesign d = *base;
    d.name = "eco_round_" + std::to_string(r);
    d.netlist.scale_current_sources(1.0 + 0.0005 * (r + 1));
    perturbed.push_back(std::make_shared<const pg::PgDesign>(std::move(d)));
  }

  IrFusionPipeline pipeline = train_pipeline(sz, *base);
  const std::string checkpoint = "incremental_serve_model.irf";
  save_checkpoint(pipeline, checkpoint);

  // Interleaved cold/warm pairs: a slow spell of the host hits both modes
  // of the pair it falls in, and the median pair decides the bar.
  std::vector<Pass> cold, warm;
  std::vector<double> speedups;
  for (int k = 0; k < kRepetitions; ++k) {
    cold.push_back(timed_pass(checkpoint, /*warm_start=*/false, base, perturbed));
    warm.push_back(timed_pass(checkpoint, /*warm_start=*/true, base, perturbed));
    double cold_total = 0.0, warm_total = 0.0;
    for (int r = 0; r < sz.rounds; ++r) {
      cold_total += cold.back().seconds[static_cast<std::size_t>(r)];
      warm_total += warm.back().seconds[static_cast<std::size_t>(r)];
    }
    speedups.push_back(warm_total > 0.0 ? cold_total / warm_total : 0.0);
  }
  const double speedup = quantile(speedups, 0.5);

  // Score every served map against a golden solve of its perturbation.
  std::vector<Round> rounds;
  double mae_diff_max = 0.0;
  bool all_warm = true;
  for (int r = 0; r < sz.rounds; ++r) {
    const auto ri = static_cast<std::size_t>(r);
    pg::PgSolver solver(*perturbed[ri]);
    const GridF golden =
        features::label_map(*perturbed[ri], solver.solve_golden(), sz.image_px);
    Round round;
    round.index = r;
    std::vector<double> cold_s, warm_s;
    for (int k = 0; k < kRepetitions; ++k) {
      const auto ki = static_cast<std::size_t>(k);
      cold_s.push_back(cold[ki].seconds[ri]);
      warm_s.push_back(warm[ki].seconds[ri]);
      const double mae_cold = mae(cold[ki].results[ri].ir_drop, golden);
      const double mae_warm = mae(warm[ki].results[ri].ir_drop, golden);
      mae_diff_max = std::max(mae_diff_max, std::abs(mae_warm - mae_cold));
      all_warm = all_warm && warm[ki].results[ri].warm_start;
      if (k == 0) {
        round.mae_cold = mae_cold;
        round.mae_warm = mae_warm;
      }
    }
    round.cold_seconds = quantile(cold_s, 0.5);
    round.warm_seconds = quantile(warm_s, 0.5);
    rounds.push_back(round);
  }
  for (const Pass& p : warm) {
    all_warm = all_warm && p.stats.warm_hits == static_cast<std::uint64_t>(sz.rounds);
  }
  const EngineStats& warm_stats = warm.front().stats;

  write_json(rounds, speedups, speedup, mae_diff_max, warm_stats, e2e_quantiles(cold),
             e2e_quantiles(warm));

  std::cout << "round   cold_s     warm_s     mae_cold      mae_warm\n";
  for (const Round& r : rounds) {
    std::printf("%5d %8.4f %10.4f %12.3e %13.3e\n", r.index, r.cold_seconds,
                r.warm_seconds, r.mae_cold, r.mae_warm);
  }
  std::cout << "warm speedup (median of " << kRepetitions << " pairs): " << speedup
            << "x, mae_diff_max: " << mae_diff_max
            << ", warm_hits: " << warm_stats.warm_hits
            << "/" << sz.rounds << "\n"
            << "wrote BENCH_incremental_serve.json\n";

  // Acceptance bars: warm serving at least 2x faster at unchanged accuracy,
  // with every perturbation actually served through the warm path.
  const bool pass = speedup >= 2.0 && mae_diff_max <= 1e-8 && all_warm;
  return pass ? 0 : 1;
}
