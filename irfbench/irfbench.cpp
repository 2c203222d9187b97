// The repository benchmark: two workloads driven through the public API,
// each printing its end-to-end metrics (untraced) or per-layer metrics
// (traced), with ops attempted, ops failed and a correctness verdict. See
// README.md in this directory for why each workload exists and which
// end-to-end metric each layer metric should move.
//
//   irfbench --workload deck_analyze|signoff_solve --seed N
//            --seconds S --trace 0|1 --workdir DIR [--commit ID]
//            [--perturb-reference]
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_support.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "par/par.hpp"
#include "pg/mna.hpp"
#include "solver/amg_pcg.hpp"
#include "spice/parser.hpp"
#include "spice/writer.hpp"
#include "train/trainer.hpp"

#ifndef IRFBENCH_BUILD_TYPE
#define IRFBENCH_BUILD_TYPE "unknown"
#endif

namespace irfbench {
namespace {

namespace fs = std::filesystem;
using irf::GridF;
using irf::IrFusionPipeline;
using irf::Router;
using irf::pg::PgDesign;
using DesignPtr = std::shared_ptr<const PgDesign>;

// ---- fixed configuration --------------------------------------------------
// Every constant below is part of the benchmark's definition: changing one
// changes what is measured, so it happens only in a benchmark change.

constexpr int kImage = 64;        ///< NN raster of every workload
constexpr int kRoughIters = 3;    ///< rough AMG-PCG iterations of the pipeline
constexpr int kSetupReps = 3;     ///< set-ups per run; setup_s is their median
constexpr double kGoldenTol = 1e-10;
/// Threads of the parallel side of par.solver_speedup (the product default,
/// all cores, up to this many). The workloads themselves run at the thread
/// count run.py pins.
constexpr int kParallelThreads = 4;

// deck_analyze: distinct real-family decks of about 19.5k nodes / 2.4 MB.
constexpr int kDecks = 16;
constexpr int kDeckPx = 256;

// signoff_solve: large real-family designs of about 77k nodes, cycled. The
// knobs are fixed and rails are left undamaged: damaged rails took 33-35
// golden iterations instead of 16-18 on 2 of 12 seeds, which would make the
// seed, not the code, set the run's median (README "Known findings").
constexpr int kSignoffPx = 512;
constexpr int kSignoffDesigns = 6;

// The serve probe of traced runs: a router at its defaults (work stealing
// on) except for a fixed shard count, batch limit and total cache budget.
constexpr int kShards = 2;
constexpr int kMaxBatch = 8;
constexpr std::size_t kCacheBudgetBytes = std::size_t{192} << 20;  ///< total, split per shard
/// Current scale of the eco (value-delta) variant of a probe design.
constexpr double kEcoFactor = 1.0005;
/// A warm-started rough map must reach the relative residual of the cold
/// rough solve of the same design ("the same residual quality the cold rough
/// solve reached", docs/API.md "Incremental serving"). The engine targets its
/// donor entry's residual, which differs from the request's own cold
/// residual by well under this slack.
constexpr double kWarmResidualSlack = 1.01;

// ---- run state ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string commit = "unknown";
  bool perturb_reference = false;
};

struct Run {
  Args args;
  Tracer tracer;
  Metrics e2e;
  Metrics layers;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  int pinned_threads = 1;
  fs::path checkpoint;
  std::vector<double> fit_seconds;

  Clock::time_point phase_start = Clock::now();

  explicit Run(Args a) : args(std::move(a)), tracer(args.trace) {}

  /// Log the wall time of the phase that just ended (stderr, for sizing runs).
  void phase(const char* name) {
    std::cerr << "irfbench: phase " << name << " " << seconds_since(phase_start) << " s\n";
    phase_start = Clock::now();
  }

  void fail(const std::string& what) {
    ++failed;
    std::cerr << "irfbench: FAILED " << what << "\n";
  }
};

void set_time(Metrics& m, const std::string& name, const std::vector<double>& v, double q) {
  if (v.empty()) throw std::runtime_error("no samples for " + name);
  m[name] = {quantile(v, q), "s", v.size()};
}

bool same_bits(const GridF& a, const GridF& b) {
  return a.height() == b.height() && a.width() == b.width() &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(float)) == 0;
}

/// Mean |a - b| in microvolts.
double mae_uv(const GridF& a, const GridF& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    s += std::fabs(static_cast<double>(a.data()[i]) - static_cast<double>(b.data()[i]));
  }
  return s / static_cast<double>(a.size()) * 1e6;
}

// ---- set-up: the fitted model every workload serves -----------------------

irf::PipelineConfig model_config() {
  irf::PipelineConfig pc;
  pc.image_size = kImage;
  pc.rough_iterations = kRoughIters;
  pc.base_channels = 8;
  pc.epochs = 1;
  pc.use_augmentation = false;
  pc.seed = 42;
  return pc;
}

/// The training set is fixed (independent of the workload seed): the model
/// is a product artifact, the seed only varies what it is asked to analyze.
std::vector<irf::train::PreparedDesign> training_designs() {
  std::vector<irf::train::PreparedDesign> out;
  for (int i = 0; i < 2; ++i) {
    irf::Rng rng(9001 + i);
    irf::train::PreparedDesign p;
    p.design = std::make_unique<PgDesign>(
        irf::pg::generate_real_design(64, rng, "train" + std::to_string(i)));
    p.solver = std::make_unique<irf::pg::PgSolver>(*p.design);
    p.golden = p.solver->solve_golden(kGoldenTol);
    out.push_back(std::move(p));
  }
  return out;
}

/// Fit the model and write the checkpoint every workload restores from.
void fit_and_save(Run& run, const std::vector<irf::train::PreparedDesign>& designs) {
  const auto t0 = Clock::now();
  IrFusionPipeline pipeline(model_config());
  pipeline.fit(designs);
  run.fit_seconds.push_back(seconds_since(t0));
  irf::save_checkpoint(pipeline, run.checkpoint.string());
}

/// Run the workload's set-up kSetupReps times (fit, save, restore the
/// pipeline); setup_s is the median. Returns the last restored pipeline.
std::unique_ptr<IrFusionPipeline> measure_setup(Run& run) {
  const auto designs = training_designs();
  std::unique_ptr<IrFusionPipeline> pipeline;
  std::vector<double> t;
  for (int r = 0; r < kSetupReps; ++r) {
    const auto t0 = Clock::now();
    fit_and_save(run, designs);
    pipeline = std::make_unique<IrFusionPipeline>(irf::load_checkpoint(run.checkpoint.string()));
    t.push_back(seconds_since(t0));
  }
  run.e2e["setup_s"] = {median(t), "s", t.size()};
  run.layers["train.fit_s"] = {median(run.fit_seconds), "s", run.fit_seconds.size()};
  return pipeline;
}

// ---- traced replay of IrFusionPipeline::analyze ---------------------------

/// analyze() as the sequence of public calls it makes, each in a span:
/// PgSolver, solve_rough, two extract_features (hierarchical, flat),
/// label_map, predict_volts plus the rough map. Must be bit-identical to
/// analyze(); callers check that against their reference maps.
GridF replay_analyze(IrFusionPipeline& pipeline, const PgDesign& design, Tracer& tr) {
  namespace features = irf::features;
  const irf::PipelineConfig& cfg = pipeline.config();
  std::unique_ptr<irf::pg::PgSolver> solver;
  {
    Tracer::Scope s(tr, "pg.solver_setup");
    solver = std::make_unique<irf::pg::PgSolver>(design);
  }
  irf::pg::PgSolution rough;
  {
    Tracer::Scope s(tr, "solver.rough");
    rough = solver->solve_rough(cfg.rough_iterations);
  }
  irf::train::Sample sample;
  sample.design_name = design.name;
  sample.kind = design.kind;
  features::FeatureOptions opts;
  opts.image_size = cfg.image_size;
  opts.include_numerical = true;
  opts.hierarchical = true;
  {
    Tracer::Scope s(tr, "features.extract");
    sample.hier = features::extract_features(design, &rough, opts);
  }
  opts.hierarchical = false;
  {
    Tracer::Scope s(tr, "features.extract");
    sample.flat = features::extract_features(design, &rough, opts);
  }
  sample.label = GridF(cfg.image_size, cfg.image_size, 0.0f);
  {
    Tracer::Scope s(tr, "features.label_map");
    sample.rough_bottom = features::label_map(design, rough, cfg.image_size);
  }
  GridF out;
  {
    Tracer::Scope s(tr, "nn.predict");
    out = irf::train::predict_volts(pipeline.model(), sample, pipeline.view(),
                                    pipeline.normalizer());
  }
  if (pipeline.refines_rough_solution()) {
    for (std::size_t i = 0; i < out.size(); ++i) out.data()[i] += sample.rough_bottom.data()[i];
  }
  return out;
}

/// Per-layer medians of the replay spans recorded so far.
Metrics replay_layers(const Tracer& tr, std::size_t analyses) {
  Metrics m;
  set_time(m, "pg.solver_setup_s", tr.durations("pg.solver_setup"), 0.5);
  set_time(m, "solver.rough_s", tr.durations("solver.rough"), 0.5);
  set_time(m, "features.extract_s", tr.durations("features.extract"), 0.5);
  set_time(m, "features.label_map_s", tr.durations("features.label_map"), 0.5);
  set_time(m, "nn.predict_s", tr.durations("nn.predict"), 0.5);
  m["features.extract_calls"] = {static_cast<double>(tr.durations("features.extract").size()) /
                                     static_cast<double>(analyses),
                                 "count", analyses};
  return m;
}

/// Add the metrics a workload's own ops did not already give. Sweeps run
/// after the measured window, so the window's numbers take precedence.
void fill(Run& run, const Metrics& m) { run.layers.insert(m.begin(), m.end()); }

// ---- layer sweeps: one direct call per layer, each in a span ---------------
// They measure the layers a workload's own op does not reach, on that
// workload's inputs, so every traced run reports every layer. Each sweep has
// its own tracer, so its spans never mix with the workload's.

struct Probe {
  DesignPtr design;
  std::string deck_path;  ///< a SPICE file of the design
};

/// spice parse (from the deck text) and pg::load_design (from the file).
void sweep_frontend(Run& run, const std::vector<Probe>& probes) {
  Tracer tr(true);
  std::vector<double> megabytes;
  for (const Probe& p : probes) {
    std::ifstream in(p.deck_path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    megabytes.push_back(static_cast<double>(text.size()) / 1e6);
    int parsed_nodes = 0;
    {
      Tracer::Scope s(tr, "spice.parse");
      parsed_nodes = irf::spice::parse_string(text).num_nodes();
    }
    if (parsed_nodes != p.design->netlist.num_nodes()) {
      run.fail("parse_string node count of " + p.deck_path);
    }
    int loaded_nodes = 0;
    {
      Tracer::Scope s(tr, "pg.load_design");
      loaded_nodes = irf::load_design(p.deck_path).netlist.num_nodes();
    }
    if (loaded_nodes != p.design->netlist.num_nodes()) {
      run.fail("load_design node count of " + p.deck_path);
    }
  }
  const std::vector<double> parse = tr.durations("spice.parse");
  std::vector<double> rate;
  for (std::size_t i = 0; i < parse.size(); ++i) rate.push_back(megabytes[i] / parse[i]);
  Metrics m;
  set_time(m, "spice.parse_s", parse, 0.5);
  m["spice.parse_mb_per_s"] = {median(rate), "MB/s", rate.size()};
  set_time(m, "pg.load_design_s", tr.durations("pg.load_design"), 0.5);
  fill(run, m);
}

/// pg::assemble_mna and solver::AmgPcgSolver construction on its matrix.
void sweep_setup(Run& run, const std::vector<Probe>& probes) {
  Tracer tr(true);
  for (const Probe& p : probes) {
    std::unique_ptr<irf::pg::MnaSystem> system;
    {
      Tracer::Scope s(tr, "pg.mna");
      system = std::make_unique<irf::pg::MnaSystem>(irf::pg::assemble_mna(p.design->netlist));
    }
    Tracer::Scope s(tr, "solver.amg_setup");
    const irf::solver::AmgPcgSolver solver(system->conductance);
  }
  Metrics m;
  set_time(m, "pg.mna_s", tr.durations("pg.mna"), 0.5);
  set_time(m, "solver.amg_setup_s", tr.durations("solver.amg_setup"), 0.5);
  fill(run, m);
}

/// Bytes one PCG iteration moves, COMPUTED from sizes (not measured): the
/// fine SpMV (12 B per nonzero: value + column; 20 B per row: row pointer,
/// x gather, y write), 13 fine vector streams of the dots and updates, and
/// per AMG level one matrix pass per smoothing sweep in each direction plus
/// the residual. A lower bound: it counts every level once per cycle.
double bytes_per_iteration(const irf::pg::PgSolver& solver) {
  const auto& h = solver.amg_pcg().hierarchy();
  auto pass = [](const irf::linalg::CsrMatrix& a) {
    return 12.0 * static_cast<double>(a.nnz()) + 20.0 * static_cast<double>(a.rows());
  };
  const auto& fine = h.level(0).matrix;
  double bytes = pass(fine) + 13.0 * 8.0 * static_cast<double>(fine.rows());
  const double sweeps = 2.0 * (h.options().pre_smooth + h.options().post_smooth) + 1.0;
  for (int l = 0; l < h.num_levels(); ++l) bytes += sweeps * pass(h.level(l).matrix);
  return bytes;
}

/// Golden solves at the pinned thread count, then at one thread and at
/// kParallelThreads (capped at the hardware's count) for par.solver_speedup.
void sweep_golden(Run& run, const std::vector<Probe>& probes) {
  Tracer tr(true);
  std::vector<double> iters, bytes;
  for (const Probe& p : probes) {
    const irf::pg::PgSolver solver(*p.design);
    irf::pg::PgSolution g;
    {
      Tracer::Scope s(tr, "solver.golden");
      g = solver.solve_golden(kGoldenTol);
    }
    if (!g.converged || !(g.final_relative_residual <= kGoldenTol)) {
      run.fail("golden solve of " + p.design->name + " did not reach 1e-10");
    }
    iters.push_back(g.iterations);
    bytes.push_back(bytes_per_iteration(solver));
  }
  const int parallel = std::min(kParallelThreads, irf::par::hardware_threads());
  for (const auto& [threads, span] : {std::pair{1, "solver.golden_1thread"},
                                      std::pair{parallel, "solver.golden_parallel"}}) {
    irf::par::set_num_threads(threads);
    for (const Probe& p : probes) {
      const irf::pg::PgSolver solver(*p.design);
      Tracer::Scope s(tr, span);
      (void)solver.solve_golden(kGoldenTol);
    }
  }
  irf::par::set_num_threads(run.pinned_threads);
  const std::vector<double> pinned = tr.durations("solver.golden");
  const std::vector<double> single = tr.durations("solver.golden_1thread");
  std::vector<double> iter_s, gbps;
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    iter_s.push_back(pinned[i] / iters[i]);
    gbps.push_back(bytes[i] * iters[i] / pinned[i] / 1e9);
  }
  Metrics m;
  set_time(m, "solver.golden_s", pinned, 0.5);
  m["solver.golden_iters"] = {median(iters), "count", iters.size()};
  set_time(m, "solver.iter_s", iter_s, 0.5);
  m["solver.bytes_per_iter"] = {median(bytes), "B_computed", bytes.size()};
  m["solver.gb_per_s"] = {median(gbps), "GB/s_computed", gbps.size()};
  m["par.solver_speedup"] = {median(single) / median(tr.durations("solver.golden_parallel")),
                             "ratio", single.size()};
  fill(run, m);
}

/// Replays analyze() on each probe and checks it against analyze() itself.
void sweep_fusion(Run& run, IrFusionPipeline& pipeline, const std::vector<Probe>& probes) {
  Tracer tr(true);
  for (const Probe& p : probes) {
    const GridF direct = pipeline.analyze(*p.design);
    const GridF replayed = replay_analyze(pipeline, *p.design, tr);
    ++run.attempted;
    if (!same_bits(direct, replayed)) run.fail("replayed analyze differs from analyze()");
  }
  fill(run, replay_layers(tr, probes.size()));
}

// ---- the serve probe ---------------------------------------------------------

irf::RouterOptions router_options() {
  irf::RouterOptions opts;
  opts.num_shards = kShards;
  opts.engine.max_batch = kMaxBatch;
  opts.engine.cache_budget_bytes = kCacheBudgetBytes / kShards;
  return opts;
}

/// Submits every design of a wave at once, then waits for every map.
std::vector<irf::AnalysisResult> serve_wave(Router& router, const std::vector<DesignPtr>& wave) {
  std::vector<std::future<irf::AnalysisResult>> futures;
  for (const DesignPtr& d : wave) {
    irf::AnalysisRequest request;
    request.design = d;
    futures.push_back(router.submit(std::move(request)).result);
  }
  std::vector<irf::AnalysisResult> out;
  for (auto& f : futures) out.push_back(f.get());
  return out;
}

/// Counts every request as an attempted op; a request fails when it has no
/// kOk/kDegraded map, or when its map breaks the serving contract: a map
/// served from cache or the cold path is bit-identical to a direct analyze;
/// a warm-started map reaches the residual quality of the cold rough solve
/// of its design (docs/API.md "Incremental serving"). Returns, per warm map,
/// |its golden MAE - the direct map's golden MAE| in uV.
std::vector<double> verify_serve(Run& run, const std::vector<DesignPtr>& designs,
                                 const std::vector<irf::AnalysisResult>& results,
                                 IrFusionPipeline& pipeline) {
  std::vector<double> eco_gap;
  std::map<const PgDesign*, GridF> direct_maps;
  for (std::size_t i = 0; i < designs.size(); ++i) {
    ++run.attempted;
    const irf::AnalysisResult& r = results[i];
    const PgDesign& d = *designs[i];
    if (!r.has_map()) {
      run.fail("request " + std::to_string(i) + " ended " + irf::status_name(r.status) + ": " +
               r.error);
      continue;
    }
    auto it = direct_maps.find(&d);
    if (it == direct_maps.end()) it = direct_maps.emplace(&d, pipeline.analyze(d)).first;
    const GridF& direct = it->second;
    if (!r.warm_start) {
      if (!same_bits(r.ir_drop, direct)) {
        run.fail("request " + std::to_string(i) + " map differs from a direct analyze");
      }
      continue;
    }
    const double target =
        kWarmResidualSlack * irf::pg::PgSolver(d).solve_rough(kRoughIters).final_relative_residual;
    if (!(r.solver_final_residual <= target)) {
      run.fail("warm request " + std::to_string(i) + " stopped at residual " +
               std::to_string(r.solver_final_residual) + " above the cold rough " +
               std::to_string(target));
    }
    const GridF golden = irf::features::label_map(d, irf::pg::golden_solve(d, kGoldenTol), kImage);
    eco_gap.push_back(std::fabs(mae_uv(r.ir_drop, golden) - mae_uv(direct, golden)));
  }
  return eco_gap;
}

/// Serve-layer metrics from the engine's own per-request stage timings.
Metrics serve_layers(const std::vector<irf::AnalysisResult>& results,
                     const irf::RouterStats& stats, const std::vector<double>& eco_gap) {
  Metrics m;
  std::vector<double> wait, batch, infer, cold_num, warm_num;
  double respond = 0.0, total = 0.0;
  std::size_t hits = 0, warms = 0, colds = 0, maps = 0;
  for (const irf::AnalysisResult& r : results) {
    if (!r.has_map()) continue;
    ++maps;
    wait.push_back(r.stages.queue_wait_seconds);
    batch.push_back(r.batch_size);
    infer.push_back(r.stages.inference_seconds / std::max(1, r.batch_size));
    respond += r.stages.respond_seconds;
    total += r.stages.total_seconds;
    if (r.cache_hit) {
      ++hits;
    } else if (r.warm_start) {
      ++warms;
      warm_num.push_back(r.numerical_seconds);
    } else {
      ++colds;
      cold_num.push_back(r.numerical_seconds);
    }
  }
  const double offered = static_cast<double>(results.size());
  set_time(m, "serve.queue_wait_p50_s", wait, 0.5);
  set_time(m, "serve.queue_wait_p95_s", wait, 0.95);
  m["serve.batch_mean"] = {mean(batch), "count", batch.size()};
  m["serve.infer_per_map_s"] = {mean(infer), "s", infer.size()};
  set_time(m, "serve.cold_numerical_s", cold_num, 0.5);
  set_time(m, "serve.warm_numerical_s", warm_num, 0.5);
  m["serve.hit_frac"] = {static_cast<double>(hits) / offered, "frac", results.size()};
  m["serve.warm_frac"] = {static_cast<double>(warms) / offered, "frac", results.size()};
  m["serve.cold_frac"] = {static_cast<double>(colds) / offered, "frac", results.size()};
  m["serve.warm_fallbacks"] = {static_cast<double>(stats.total.warm_fallbacks), "count", 1};
  m["serve.evictions"] = {static_cast<double>(stats.total.cache_evictions), "count", 1};
  m["serve.stolen_requests"] = {static_cast<double>(stats.stolen_requests), "count", 1};
  m["serve.unattributed_frac"] = {respond / total, "frac", maps};
  if (eco_gap.empty()) throw std::runtime_error("no warm-started request to measure");
  m["serve.eco_mae_gap_uv"] = {median(eco_gap), "uV", eco_gap.size()};
  return m;
}

/// The serve layer, reached by no workload's own op: three waves through a
/// fresh router. The first sight of each design takes the cold path, its
/// repeat the cache, and a current-scaled variant the warm-start path. The
/// waves are a probe of each path, not a model of real traffic.
void serve_probe(Run& run, IrFusionPipeline& pipeline, const std::vector<Probe>& probes) {
  auto router = Router::from_checkpoint(run.checkpoint.string(), router_options());
  std::vector<DesignPtr> cold, eco;
  for (const Probe& p : probes) {
    cold.push_back(p.design);
    auto variant = std::make_shared<PgDesign>(*p.design);
    variant->name += "_eco";
    variant->netlist.scale_current_sources(kEcoFactor);
    eco.push_back(std::move(variant));
  }
  std::vector<DesignPtr> designs;
  std::vector<irf::AnalysisResult> results;
  for (const auto* wave : {&cold, &cold, &eco}) {
    std::vector<irf::AnalysisResult> out = serve_wave(*router, *wave);
    designs.insert(designs.end(), wave->begin(), wave->end());
    results.insert(results.end(), out.begin(), out.end());
  }
  const irf::RouterStats stats = router->router_stats();
  router.reset();
  const std::vector<double> eco_gap = verify_serve(run, designs, results, pipeline);
  fill(run, serve_layers(results, stats, eco_gap));
}

// ---- workloads ------------------------------------------------------------

/// Closed loop: one op after another until `seconds` have passed (at least
/// `min_ops`).
template <class Op>
void closed_loop(const Run& run, std::size_t min_ops, Op&& op) {
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < min_ops || seconds_since(t0) < run.args.seconds; ++k) op(k);
}

/// The end-to-end metrics that depend on the workload's op samples.
void report_e2e(Run& run, const std::vector<double>& lat, const std::vector<double>& mae) {
  run.e2e["p50_s"] = {quantile(lat, 0.5), "s", lat.size()};
  run.e2e["p75_s"] = {quantile(lat, 0.75), "s", lat.size()};
  run.e2e["mae_uv"] = {mean(mae), "uV", mae.size()};
}

/// SPICE deck on disk -> IR map, one caller: irf::load_design + analyze on a
/// checkpoint-restored pipeline, cycling over distinct decks.
void run_deck_analyze(Run& run) {
  struct Deck {
    std::string path;
    DesignPtr design;  ///< loaded from `path`, as every op sees it
    GridF golden;      ///< label map of a 1e-10 solve
    GridF reference;   ///< analyze() made in set-up
  };
  std::vector<Deck> decks;
  irf::Rng rng(run.args.seed);
  for (int i = 0; i < kDecks; ++i) {
    const std::string name = "deck" + std::to_string(i);
    const PgDesign d = irf::pg::generate_real_design(kDeckPx, rng, name);
    fs::create_directories(fs::path(run.args.workdir) / name);
    Deck deck;
    deck.path = (fs::path(run.args.workdir) / name / "netlist.sp").string();
    irf::spice::write_file(d.netlist, deck.path);
    deck.design = std::make_shared<PgDesign>(irf::load_design(deck.path));
    const irf::pg::PgSolution g = irf::pg::golden_solve(*deck.design, kGoldenTol);
    deck.golden = irf::features::label_map(*deck.design, g, kImage);
    decks.push_back(std::move(deck));
  }

  run.phase("inputs");
  const std::unique_ptr<IrFusionPipeline> pipeline = measure_setup(run);
  run.phase("setup");
  for (Deck& deck : decks) deck.reference = pipeline->analyze(*deck.design);
  run.phase("references");
  if (run.args.perturb_reference) decks[0].reference.data()[0] += 1e-6f;

  // Traced runs alternate whole rounds over the decks: untraced analyze(),
  // then the traced replay, so both see every deck and the same machine.
  // Every op must reproduce its deck's reference map, so the accuracy of
  // the run is that of the references: one MAE per deck.
  std::vector<double> lat, traced_lat, mae;
  for (const Deck& deck : decks) mae.push_back(mae_uv(deck.reference, deck.golden));
  reset_peak_rss();
  closed_loop(run, run.args.trace ? 2 * kDecks : kDecks, [&](std::size_t k) {
    const Deck& deck = decks[k % kDecks];
    const bool traced = run.args.trace && (k / kDecks) % 2 == 1;
    const auto t0 = Clock::now();
    GridF map;
    if (traced) {
      std::unique_ptr<PgDesign> design;
      {
        Tracer::Scope s(run.tracer, "pg.load_design");
        design = std::make_unique<PgDesign>(irf::load_design(deck.path));
      }
      map = replay_analyze(*pipeline, *design, run.tracer);
    } else {
      map = pipeline->analyze(irf::load_design(deck.path));
    }
    const double t = seconds_since(t0);
    ++run.attempted;
    if (!same_bits(map, deck.reference)) {
      run.fail(std::string(traced ? "traced replay" : "analyze") + " of " + deck.path +
               " differs from the set-up reference");
      return;
    }
    (traced ? traced_lat : lat).push_back(t);
  });
  run.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  run.phase("window");

  if (!run.args.trace) {
    report_e2e(run, lat, mae);
    return;
  }
  Metrics own = replay_layers(run.tracer, traced_lat.size());
  set_time(own, "pg.load_design_s", run.tracer.durations("pg.load_design"), 0.5);
  own["obs.trace_overhead_frac"] = {median(traced_lat) / median(lat) - 1.0, "frac",
                                    traced_lat.size() + lat.size()};
  fill(run, own);
  std::vector<Probe> probes;
  for (const Deck& deck : decks) probes.push_back({deck.design, deck.path});
  sweep_frontend(run, probes);
  sweep_setup(run, probes);
  sweep_golden(run, probes);
  serve_probe(run, *pipeline, probes);
}

/// The full-accuracy baseline: PgSolver + solve_golden(1e-10) + label_map on
/// in-memory netlists, one caller, cycling over a few designs.
void run_signoff_solve(Run& run) {
  irf::pg::GeneratorConfig cfg = irf::pg::real_design_config(kSignoffPx);
  cfg.num_hotspots = 4;
  cfg.num_blockages = 2;
  cfg.rail_damage_prob = 0.0;
  irf::Rng rng(run.args.seed);
  std::vector<DesignPtr> designs;
  std::vector<GridF> references;
  for (int i = 0; i < kSignoffDesigns; ++i) {
    designs.push_back(std::make_shared<PgDesign>(irf::pg::generate_design(
        cfg, rng, "signoff" + std::to_string(i), irf::pg::DesignKind::kReal)));
    const irf::pg::PgSolution g = irf::pg::golden_solve(*designs.back(), kGoldenTol);
    references.push_back(irf::features::label_map(*designs.back(), g, kImage));
  }
  if (run.args.perturb_reference) references[0].data()[0] += 1e-6f;
  run.phase("inputs");

  const std::unique_ptr<IrFusionPipeline> pipeline = measure_setup(run);
  run.phase("setup");

  std::vector<double> lat, traced_lat;
  reset_peak_rss();
  closed_loop(run, run.args.trace ? 2 * kSignoffDesigns : kSignoffDesigns, [&](std::size_t k) {
    const PgDesign& design = *designs[k % kSignoffDesigns];
    const GridF& reference = references[k % kSignoffDesigns];
    const bool traced = run.args.trace && (k / kSignoffDesigns) % 2 == 1;
    Tracer tr_off(false);
    Tracer& tr = traced ? run.tracer : tr_off;
    const auto t0 = Clock::now();
    GridF map;
    irf::pg::PgSolution g;
    {
      std::unique_ptr<irf::pg::PgSolver> solver;
      {
        Tracer::Scope s(tr, "pg.solver_setup");
        solver = std::make_unique<irf::pg::PgSolver>(design);
      }
      {
        Tracer::Scope s(tr, "solver.golden");
        g = solver->solve_golden(kGoldenTol);
      }
      Tracer::Scope s(tr, "features.label_map");
      map = irf::features::label_map(design, g, kImage);
    }
    const double t = seconds_since(t0);
    ++run.attempted;
    if (!g.converged || !(g.final_relative_residual <= kGoldenTol)) {
      run.fail("sign-off solve stopped at relative residual " +
               std::to_string(g.final_relative_residual));
      return;
    }
    if (!same_bits(map, reference)) {
      run.fail("sign-off map differs from the set-up reference");
      return;
    }
    (traced ? traced_lat : lat).push_back(t);
  });
  run.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", 1};
  run.phase("window");

  // What IR-Fusion would lose against these sign-off maps (the Fig. 7 trade).
  std::vector<double> mae;
  for (int i = 0; i < kSignoffDesigns; ++i) {
    mae.push_back(mae_uv(pipeline->analyze(*designs[i]), references[i]));
  }

  if (!run.args.trace) {
    report_e2e(run, lat, mae);
    return;
  }
  Metrics own;
  set_time(own, "pg.solver_setup_s", run.tracer.durations("pg.solver_setup"), 0.5);
  set_time(own, "solver.golden_s", run.tracer.durations("solver.golden"), 0.5);
  set_time(own, "features.label_map_s", run.tracer.durations("features.label_map"), 0.5);
  own["obs.trace_overhead_frac"] = {median(traced_lat) / median(lat) - 1.0, "frac",
                                    traced_lat.size() + lat.size()};
  fill(run, own);
  const fs::path deck = fs::path(run.args.workdir) / "signoff.sp";
  irf::spice::write_file(designs[0]->netlist, deck.string());
  const std::vector<Probe> probes{{designs[0], deck.string()}};
  sweep_frontend(run, probes);
  sweep_setup(run, probes);
  sweep_golden(run, probes);
  sweep_fusion(run, *pipeline, probes);
  serve_probe(run, *pipeline, probes);
}

// ---- entry ----------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value after " + key);
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = value() == "1";
    else if (key == "--workdir") a.workdir = value();
    else if (key == "--commit") a.commit = value();
    else if (key == "--perturb-reference") a.perturb_reference = true;
    else throw std::runtime_error("unknown argument " + key);
  }
  if (a.workdir.empty()) throw std::runtime_error("--workdir is required");
  if (!(a.seconds > 0.0)) throw std::runtime_error("--seconds must be positive");
  return a;
}

void print_result(const Run& run, bool correct) {
  const Metrics& metrics = run.args.trace ? run.layers : run.e2e;
  for (const auto& [name, m] : metrics) {
    std::cout << "metric " << name << " = " << json_number(m.value) << " " << m.unit
              << " (n=" << m.n << ")\n";
  }
  std::cout << "{\"record\":{\"workload\":" << json_string(run.args.workload)
            << ",\"trace\":" << (run.args.trace ? 1 : 0) << ",\"env\":{";
  const auto env = fingerprint(IRFBENCH_BUILD_TYPE, run.args.commit, run.args.seed);
  for (std::size_t i = 0; i < env.size(); ++i) {
    std::cout << (i ? "," : "") << json_string(env[i].first) << ":" << json_string(env[i].second);
  }
  std::cout << "},\"samples\":{";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ",") << json_string(name) << ":" << m.n;
    first = false;
  }
  std::cout << "},\"spans\":" << run.tracer.size() << "}}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
            << ", \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics) {
    std::cout << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
              << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int main_impl(int argc, char** argv) {
  Run run(parse_args(argc, argv));
  run.pinned_threads = irf::par::num_threads();
  fs::create_directories(run.args.workdir);
  run.checkpoint = fs::path(run.args.workdir) / "model.irf";

  if (run.args.workload == "deck_analyze") run_deck_analyze(run);
  else if (run.args.workload == "signoff_solve") run_signoff_solve(run);
  else throw std::runtime_error("unknown workload '" + run.args.workload + "'");

  const bool correct = run.failed == 0 && run.attempted > 0;
  print_result(run, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace irfbench

int main(int argc, char** argv) {
  try {
    return irfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "irfbench: " << e.what() << "\n";
    return 2;
  }
}
