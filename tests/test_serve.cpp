// Tests for the serving layer (src/serve): checkpoint save/load round-trips
// bit-identically, the engine's cached + batched path matches a direct
// IrFusionPipeline::analyze() call exactly, the per-design cache hits and
// LRU-evicts under a byte budget, and the robustness paths (degraded
// fallback, timeout, cancellation) resolve with the right status. The
// test_serve_threads4 ctest entry re-runs this suite with IRF_THREADS=4 to
// pin the "bit-identical for any pool width" half of the contract.

#include <gtest/gtest.h>

#include <memory>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "features/extractor.hpp"
#include "irf.hpp"
#include "obs/obs.hpp"
#include "serve_fixture.hpp"

namespace irf::serve {
namespace {

namespace fs = std::filesystem;

/// Per-process temp path: test_serve and test_serve_threads4 run the same
/// binary concurrently under ctest -j and must not clobber each other.
std::string temp_path(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".irf"))
      .string();
}

using testing_support::tiny_pipeline_config;

/// One tiny design set + one fitted pipeline + one saved checkpoint, shared
/// across the suite (training is the expensive part). Under ctest the
/// pipeline is loaded from the checkpoint that tests/serve_fixture_model.cpp
/// trained once for the whole run (fixture `serve_model`); a direct run of
/// this binary trains it here.
class ServeFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = std::make_unique<train::DesignSet>(
        train::build_design_set(testing_support::serve_fixture_scale()));
    if (fs::exists(IRF_SERVE_FIXTURE_MODEL)) {
      pipeline_ = std::make_unique<core::IrFusionPipeline>(
          load_checkpoint(IRF_SERVE_FIXTURE_MODEL));
    } else {
      pipeline_ = std::make_unique<core::IrFusionPipeline>(tiny_pipeline_config());
      pipeline_->fit(set_->train);
    }
    checkpoint_path_ = std::make_unique<std::string>(temp_path("serve_fixture_model"));
    save_checkpoint(*pipeline_, *checkpoint_path_);
  }
  static void TearDownTestSuite() {
    fs::remove(*checkpoint_path_);
    checkpoint_path_.reset();
    pipeline_.reset();
    set_.reset();
  }

  static const pg::PgDesign& test_design() { return *set_->test.front().design; }

  static std::unique_ptr<train::DesignSet> set_;
  static std::unique_ptr<core::IrFusionPipeline> pipeline_;
  static std::unique_ptr<std::string> checkpoint_path_;
};

std::unique_ptr<train::DesignSet> ServeFixture::set_;
std::unique_ptr<core::IrFusionPipeline> ServeFixture::pipeline_;
std::unique_ptr<std::string> ServeFixture::checkpoint_path_;

// --- design content hash ---------------------------------------------------

TEST(DesignContentHash, NameIndependentAndContentSensitive) {
  Rng rng(7);
  pg::PgDesign a = pg::generate_fake_design(32, rng, "alpha");
  pg::PgDesign b = a;
  b.name = "beta";  // re-parsed copies of one deck must share a cache entry
  EXPECT_EQ(design_content_hash(a), design_content_hash(b));

  Rng rng2(8);
  pg::PgDesign c = pg::generate_fake_design(32, rng2, "gamma");
  EXPECT_NE(design_content_hash(a), design_content_hash(c));

  pg::PgDesign d = a;
  d.vdd += 0.1;
  EXPECT_NE(design_content_hash(a), design_content_hash(d));
}

// --- checkpoint format -----------------------------------------------------

TEST_F(ServeFixture, CheckpointRoundTripIsBitIdentical) {
  core::IrFusionPipeline restored = load_checkpoint(*checkpoint_path_);
  EXPECT_TRUE(restored.is_fitted());
  EXPECT_EQ(restored.config().image_size, pipeline_->config().image_size);
  EXPECT_EQ(restored.config().seed, pipeline_->config().seed);
  EXPECT_EQ(restored.view(), pipeline_->view());

  const GridF direct = pipeline_->analyze(test_design());
  const GridF reloaded = restored.analyze(test_design());
  ASSERT_EQ(direct.data().size(), reloaded.data().size());
  EXPECT_EQ(direct.data(), reloaded.data());  // exact, not approximate
}

TEST_F(ServeFixture, CheckpointSurvivesASecondGeneration) {
  // save(load(save(p))) must also be stable — no drift through re-encoding.
  core::IrFusionPipeline restored = load_checkpoint(*checkpoint_path_);
  const std::string second = temp_path("serve_second_gen");
  save_checkpoint(restored, second);
  core::IrFusionPipeline restored2 = load_checkpoint(second);
  fs::remove(second);
  EXPECT_EQ(pipeline_->analyze(test_design()).data(),
            restored2.analyze(test_design()).data());
}

TEST_F(ServeFixture, CheckpointDetectsCorruption) {
  const std::string path = temp_path("serve_corrupt");
  fs::copy_file(*checkpoint_path_, path, fs::copy_options::overwrite_existing);
  const auto size = fs::file_size(path);
  {
    // Flip one payload byte; the header checksum must catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  EXPECT_THROW(load_checkpoint(path), ParseError);
  fs::remove(path);
}

TEST_F(ServeFixture, CheckpointDetectsTruncation) {
  const std::string path = temp_path("serve_truncated");
  std::ifstream in(*checkpoint_path_, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(load_checkpoint(path), ParseError);
  fs::remove(path);
}

TEST_F(ServeFixture, IsCheckpointFileProbes) {
  EXPECT_TRUE(is_checkpoint_file(*checkpoint_path_));
  EXPECT_FALSE(is_checkpoint_file("/nonexistent/model.irf"));
  const std::string path = temp_path("serve_not_a_checkpoint");
  std::ofstream(path) << "definitely not a checkpoint";
  EXPECT_FALSE(is_checkpoint_file(path));
  fs::remove(path);
}

TEST(Checkpoint, RejectsUnfittedPipeline) {
  core::IrFusionPipeline pipeline(tiny_pipeline_config());
  EXPECT_THROW(save_checkpoint(pipeline, temp_path("serve_unfitted")), ConfigError);
}

// --- config validation (satellite: validate at construction) ---------------

TEST(PipelineConfigValidation, RejectsBadTrainingParams) {
  core::PipelineConfig pc = tiny_pipeline_config();
  pc.epochs = 0;
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.learning_rate = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.learning_rate = -1e-3;
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
  pc = tiny_pipeline_config();
  pc.base_channels = 0;
  EXPECT_THROW(core::IrFusionPipeline{pc}, ConfigError);
}

TEST(EngineOptionsValidation, RejectsBadOptions) {
  EngineOptions opts;
  opts.max_batch = 0;
  EXPECT_THROW(Engine{opts}, ConfigError);
  opts = EngineOptions{};
  opts.queue_capacity = 0;
  EXPECT_THROW(Engine{opts}, ConfigError);
}

// --- engine: correctness ---------------------------------------------------

TEST_F(ServeFixture, EngineMatchesDirectAnalyzeAcrossABatch) {
  EngineOptions opts;
  // Generated fake designs of one size share a topology, so incremental
  // re-analysis would engage between them; this test pins the cold path's
  // bit-identity contract, so warm starts are off.
  opts.enable_warm_start = false;
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  engine->pause();  // force all requests into one dispatch batch
  ASSERT_TRUE(engine->has_model());

  std::vector<Engine::Ticket> tickets;
  std::vector<const pg::PgDesign*> designs;
  for (const train::PreparedDesign& p : set_->train) designs.push_back(p.design.get());
  designs.push_back(&test_design());
  for (const pg::PgDesign* d : designs) {
    AnalysisRequest request;
    request.design = std::make_shared<pg::PgDesign>(*d);
    tickets.push_back(engine->submit(std::move(request)));
  }
  EXPECT_EQ(engine->queue_depth(), static_cast<int>(designs.size()));
  engine->resume();

  for (std::size_t i = 0; i < tickets.size(); ++i) {
    AnalysisResult r = tickets[i].result.get();
    ASSERT_TRUE(r.ok()) << status_name(r.status) << ": " << r.error;
    EXPECT_FALSE(r.degraded);
    EXPECT_EQ(r.batch_size, static_cast<int>(designs.size()));
    EXPECT_EQ(r.design_hash, design_content_hash(*designs[i]));
    // The batched forward must be bit-identical to the serial pipeline.
    const GridF direct = pipeline_->analyze(*designs[i]);
    EXPECT_EQ(r.ir_drop.data(), direct.data()) << designs[i]->name;
  }
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.submitted, designs.size());
  EXPECT_EQ(stats.served_ok, designs.size());
  EXPECT_EQ(stats.batches, 1u);
}

TEST_F(ServeFixture, EngineCachesPerDesignState) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  AnalysisResult first = engine->analyze(test_design());
  AnalysisResult second = engine->analyze(test_design());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.ir_drop.data(), second.ir_drop.data());
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_entries, 1);
  EXPECT_GT(stats.cache_bytes, 0u);

  engine->clear_cache();
  EXPECT_EQ(engine->stats().cache_entries, 0);
  AnalysisResult third = engine->analyze(test_design());
  EXPECT_FALSE(third.cache_hit);
  EXPECT_EQ(third.ir_drop.data(), first.ir_drop.data());
}

TEST_F(ServeFixture, EngineEvictsLeastRecentlyUsedUnderBudget) {
  EngineOptions opts;
  opts.cache_budget_bytes = 1;  // every second distinct design must evict
  opts.enable_warm_start = false;  // pin the cold rebuild's bit-identity
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  ASSERT_GE(set_->train.size(), 2u);
  const pg::PgDesign& a = *set_->train[0].design;
  const pg::PgDesign& b = *set_->train[1].design;
  EXPECT_TRUE(engine->analyze(a).ok());
  EXPECT_TRUE(engine->analyze(b).ok());
  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.cache_evictions, 1u);
  EXPECT_EQ(stats.cache_entries, 1);  // only the oversized newest entry stays
  // The evicted design is rebuilt, and identically so.
  AnalysisResult again = engine->analyze(a);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(again.ir_drop.data(), pipeline_->analyze(a).data());
}

// --- engine: incremental re-analysis (warm start) --------------------------

/// Copy of `base` with every current source scaled: the canonical bounded
/// delta — identical topology, new current map.
pg::PgDesign scaled_current_copy(const pg::PgDesign& base, double factor) {
  pg::PgDesign d = base;
  d.netlist.scale_current_sources(factor);
  return d;
}

TEST(DesignTopologyHash, InvariantToValuesSensitiveToStructure) {
  Rng rng(7);
  pg::PgDesign a = pg::generate_fake_design(32, rng, "alpha");
  pg::PgDesign scaled = a;
  scaled.netlist.scale_current_sources(3.0);
  scaled.netlist.scale_voltage_sources(1.1);
  scaled.netlist.set_resistor_ohms(0, a.netlist.resistors()[0].ohms * 2.0);
  EXPECT_EQ(design_topology_hash(a), design_topology_hash(scaled));
  EXPECT_NE(design_content_hash(a), design_content_hash(scaled));

  pg::PgDesign grown = a;
  grown.netlist.add_resistor("Rextra", 0, 1, 1.0);
  EXPECT_NE(design_topology_hash(a), design_topology_hash(grown));

  // Two generated fakes of one size differ only in source values — the warm
  // path's canonical candidate pair.
  Rng rng2(8);
  pg::PgDesign c = pg::generate_fake_design(32, rng2, "gamma");
  EXPECT_EQ(design_topology_hash(a), design_topology_hash(c));
}

TEST_F(ServeFixture, WarmStartServesCurrentOnlyDelta) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());

  const pg::PgDesign eco = scaled_current_copy(base, 1.07);
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.cache_hit);
  EXPECT_TRUE(r.warm_start);
  EXPECT_EQ(r.ir_drop.data().size(), std::size_t{32 * 32});
  EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.warm_fallbacks, 0u);
  EXPECT_EQ(stats.cache_misses, 2u);

  // The warm entry is a first-class cache entry: the same deck now hits,
  // bit-identically.
  AnalysisResult again = engine->analyze(eco);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.ir_drop.data(), r.ir_drop.data());
  // And the base entry survived donating its solver: exact hits still work.
  AnalysisResult base_again = engine->analyze(base);
  EXPECT_TRUE(base_again.cache_hit);
  stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_entries, 2);
}

TEST_F(ServeFixture, WarmStartServesSupplyOnlyDelta) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign corner = base;
  corner.vdd *= 1.05;
  corner.netlist.scale_voltage_sources(1.05);
  AnalysisResult r = engine->analyze(corner);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.warm_start);
  EXPECT_EQ(engine->stats().warm_hits, 1u);
}

TEST_F(ServeFixture, WarmStartAcceptsBoundedResistorEdits) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);  // up to 8 edits stay warm
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign eco = base;
  for (std::size_t i = 0; i < 3; ++i) {
    eco.netlist.set_resistor_ohms(i, base.netlist.resistors()[i].ohms * 2.0);
  }
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.warm_start);
  EXPECT_EQ(engine->stats().warm_hits, 1u);
}

TEST_F(ServeFixture, WarmStartFallsBackWhenDeltaTooLarge) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign eco = base;
  for (std::size_t i = 0; i < 9; ++i) {  // one past the 8 edits a warm delta may carry
    eco.netlist.set_resistor_ohms(i, base.netlist.resistors()[i].ohms * 1.5);
  }
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.warm_start);
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_fallbacks, 1u);
  // The rejected candidate fell back to the cold path, whose bit-identity
  // contract holds.
  EXPECT_EQ(r.ir_drop.data(), pipeline_->analyze(eco).data());
}

TEST_F(ServeFixture, WarmStartIgnoresTopologyChanges) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  pg::PgDesign grown = base;
  grown.netlist.add_resistor("Rextra", 0, 1, 1.0);
  AnalysisResult r = engine->analyze(grown);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.warm_start);
  // A different topology hash is never even a candidate — no fallback counted.
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.warm_hits, 0u);
  EXPECT_EQ(stats.warm_fallbacks, 0u);
  EXPECT_EQ(r.ir_drop.data(), pipeline_->analyze(grown).data());
}

TEST_F(ServeFixture, WarmStartCanBeDisabled) {
  EngineOptions opts;
  opts.enable_warm_start = false;
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  AnalysisResult r = engine->analyze(scaled_current_copy(base, 1.07));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.warm_start);
  EXPECT_EQ(engine->stats().warm_hits, 0u);
}

TEST_F(ServeFixture, WarmBuildSurvivesEvictionPressure) {
  EngineOptions opts;
  opts.cache_budget_bytes = 1;  // every insertion evicts the older entry
  auto engine = Engine::from_checkpoint(*checkpoint_path_, opts);
  const pg::PgDesign& base = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(base).ok());
  const pg::PgDesign eco = scaled_current_copy(base, 1.1);
  AnalysisResult r = engine->analyze(eco);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.warm_start);  // the base was still cached when the miss hit
  EngineStats stats = engine->stats();
  EXPECT_EQ(stats.cache_entries, 1);  // budget keeps only the newest entry
  EXPECT_GE(stats.cache_evictions, 1u);
  // The survivor serves content hits; the evicted base comes back through a
  // warm build seeded by the survivor's solver (the handoff chains).
  EXPECT_TRUE(engine->analyze(eco).cache_hit);
  AnalysisResult rebuilt = engine->analyze(base);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt.cache_hit);
  EXPECT_TRUE(rebuilt.warm_start);
}

TEST_F(ServeFixture, CacheBytesAccountAllRetainedState) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  const pg::PgDesign& d = *set_->train[0].design;
  ASSERT_TRUE(engine->analyze(d).ok());
  // The cached entry retains the full MNA + AMG solver, the rough solution
  // and both feature stacks. The byte accounting must therefore be at least
  // the solver's own footprint — the old grids-only estimate sat far below
  // this floor and let the LRU budget overshoot.
  pg::PgSolver reference(d);
  const EngineStats stats = engine->stats();
  EXPECT_GE(stats.cache_bytes, reference.memory_bytes());
}

// --- engine: robustness ----------------------------------------------------

TEST(EngineDegraded, ModelLessEngineServesRoughMap) {
  Rng rng(11);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "degraded");
  Engine engine{EngineOptions{}};
  EXPECT_FALSE(engine.has_model());
  AnalysisResult r = engine.analyze(design);
  EXPECT_EQ(r.status, ResultStatus::kDegraded);
  EXPECT_TRUE(r.degraded);
  EXPECT_TRUE(r.has_map());
  EXPECT_FALSE(r.ok());
  // Degraded output IS the rough numerical map at the fallback budget:
  // 3 rough iterations at 64 px.
  pg::PgSolver solver(design);
  const GridF expected = features::label_map(design, solver.solve_rough(3), 64);
  EXPECT_EQ(r.ir_drop.data(), expected.data());
  EXPECT_EQ(r.ir_drop.data(), r.rough.data());
  EXPECT_EQ(engine.stats().degraded, 1u);
}

TEST(EngineDegraded, RequestMayRefuseDegradedService) {
  Rng rng(12);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "strict"));
  Engine engine{EngineOptions{}};
  AnalysisRequest request;
  request.design = design;
  request.allow_degraded = false;
  AnalysisResult r = engine.submit(std::move(request)).result.get();
  EXPECT_EQ(r.status, ResultStatus::kFailed);
  EXPECT_FALSE(r.has_map());
  EXPECT_NE(r.error.find("no model"), std::string::npos);
}

TEST(EngineDegraded, EngineWideSwitchDisablesFallback) {
  Rng rng(13);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "nofallback");
  EngineOptions opts;
  opts.allow_degraded = false;
  Engine engine(opts);
  AnalysisResult r = engine.analyze(design);
  EXPECT_EQ(r.status, ResultStatus::kFailed);
}

TEST(EngineRobustness, QueuedRequestTimesOut) {
  Rng rng(14);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "timeout"));
  Engine engine{EngineOptions{}};
  engine.pause();  // deadlines keep ticking while paused
  AnalysisRequest request;
  request.design = design;
  request.timeout_seconds = 0.01;
  Engine::Ticket ticket = engine.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.resume();
  AnalysisResult r = ticket.result.get();
  EXPECT_EQ(r.status, ResultStatus::kTimedOut);
  EXPECT_FALSE(r.has_map());
  EXPECT_EQ(engine.stats().timeouts, 1u);
}

TEST(EngineRobustness, QueuedRequestCanBeCancelled) {
  Rng rng(15);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "cancel"));
  Engine engine{EngineOptions{}};
  engine.pause();
  AnalysisRequest request;
  request.design = design;
  Engine::Ticket ticket = engine.submit(std::move(request));
  EXPECT_TRUE(engine.cancel(ticket.id));
  EXPECT_FALSE(engine.cancel(ticket.id + 999));  // unknown id
  engine.resume();
  AnalysisResult r = ticket.result.get();
  EXPECT_EQ(r.status, ResultStatus::kCancelled);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(EngineRobustness, ShutdownResolvesQueuedRequestsAsCancelled) {
  Rng rng(16);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "shutdown"));
  std::future<AnalysisResult> orphan;
  {
    Engine engine{EngineOptions{}};
    engine.pause();
    AnalysisRequest request;
    request.design = design;
    orphan = engine.submit(std::move(request)).result;
  }  // dtor: paused queue drains as cancelled, never hangs a waiter
  AnalysisResult r = orphan.get();
  EXPECT_EQ(r.status, ResultStatus::kCancelled);
}

TEST(EngineRobustness, TrySubmitReportsBackpressure) {
  Rng rng(17);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "backpressure"));
  EngineOptions opts;
  opts.queue_capacity = 1;
  Engine engine(opts);
  engine.pause();
  AnalysisRequest request;
  request.design = design;
  std::optional<Engine::Ticket> first = engine.try_submit(request);
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(engine.try_submit(request).has_value());  // queue full
  EXPECT_TRUE(engine.cancel(first->id));
  engine.resume();
  first->result.get();
}

TEST(EngineRobustness, NullDesignRejectedAtSubmit) {
  Engine engine{EngineOptions{}};
  EXPECT_THROW(engine.submit(AnalysisRequest{}), ConfigError);
  EXPECT_THROW(engine.try_submit(AnalysisRequest{}), ConfigError);
}

// --- request-scoped telemetry ----------------------------------------------

/// RAII guard: enables metrics + tracing with clean buffers, restores the
/// defaults on exit so the other suites stay telemetry-free.
struct TelemetryOn {
  TelemetryOn() {
    obs::MetricsRegistry::instance().clear();
    obs::clear_trace_events();
    obs::set_metrics_enabled(true);
    obs::set_trace_enabled(true);
  }
  ~TelemetryOn() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::MetricsRegistry::instance().clear();
    obs::clear_trace_events();
  }
};

double span_arg(const obs::TraceEvent& e, const std::string& key, double missing) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return v;
  }
  return missing;
}

TEST_F(ServeFixture, RequestSpansShareOneReqId) {
  TelemetryOn telemetry;
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  AnalysisResult r = engine->analyze(test_design());
  ASSERT_TRUE(r.ok()) << r.error;

  EXPECT_GT(r.req_id, 0u);
  EXPECT_GT(r.submit_unix_seconds, 0.0);
  EXPECT_GE(r.queue_depth_at_admission, 1);
  EXPECT_GT(r.solver_iterations, 0);
  EXPECT_GT(r.solver_final_residual, 0.0);
  EXPECT_GT(r.stages.total_seconds, 0.0);
  EXPECT_GT(r.stages.queue_wait_seconds, 0.0);
  EXPECT_GT(r.stages.solve_seconds, 0.0);
  EXPECT_GT(r.stages.inference_seconds, 0.0);
  EXPECT_GE(r.stages.respond_seconds, 0.0);

  // Every per-request span of this request — queue wait, the numerical
  // stage, its inference share and the end-to-end envelope — carries the
  // result's req_id as a span arg.
  const std::vector<obs::TraceEvent> events = obs::trace_events();
  const double id = static_cast<double>(r.req_id);
  for (const char* name :
       {"serve_queue_wait", "serve_numerical", "serve_infer_share", "serve_request"}) {
    bool found = false;
    for (const obs::TraceEvent& e : events) {
      if (e.name == name && span_arg(e, "req_id", -1.0) == id) found = true;
    }
    EXPECT_TRUE(found) << "no span named " << name << " with req_id " << r.req_id;
  }
  // The envelope span also carries admission-time queue depth and batch.
  for (const obs::TraceEvent& e : events) {
    if (e.name == "serve_request") {
      EXPECT_GE(span_arg(e, "queue_depth", -1.0), 1.0);
      EXPECT_GE(span_arg(e, "batch", -1.0), 1.0);
    }
  }
}

TEST_F(ServeFixture, ReqIdsAreMonotonicAcrossRequests) {
  auto engine = Engine::from_checkpoint(*checkpoint_path_);
  AnalysisResult a = engine->analyze(test_design());
  AnalysisResult b = engine->analyze(test_design());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b.req_id, a.req_id);
  EXPECT_TRUE(b.cache_hit);
  // A cache hit reports the cached solve's convergence telemetry.
  EXPECT_EQ(b.solver_iterations, a.solver_iterations);
  EXPECT_DOUBLE_EQ(b.solver_final_residual, a.solver_final_residual);
}

TEST(EngineFlight, DegradedRequestDumpsParseableFlightRecord) {
  const std::string dump = temp_path("serve_flight_degraded");
  Rng rng(21);
  pg::PgDesign design = pg::generate_fake_design(32, rng, "flight");
  EngineOptions opts;
  opts.flight_dump_path = dump;
  Engine engine(opts);  // model-less: every request degrades
  AnalysisResult r = engine.analyze(design);
  EXPECT_EQ(r.status, ResultStatus::kDegraded);

  // The auto-dump landed and is valid JSON with the degradation on record.
  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump missing: " << dump;
  std::stringstream buf;
  buf << f.rdbuf();
  const obs::JsonValue doc = obs::parse_json(buf.str());
  const obs::JsonValue& body = doc.at("flight_recorder");
  EXPECT_GT(body.at("capacity").number, 0.0);
  bool saw_submit = false, saw_degraded = false;
  for (const obs::JsonValue& rec : body.at("records").array) {
    if (rec.at("event").string == "submit") saw_submit = true;
    if (rec.at("event").string == "degraded" &&
        rec.at("req_id").number == static_cast<double>(r.req_id)) {
      saw_degraded = true;
    }
  }
  EXPECT_TRUE(saw_submit);
  EXPECT_TRUE(saw_degraded);
  fs::remove(dump);

  // On-demand dump still works and parses.
  const obs::JsonValue live = obs::parse_json(engine.dump_flight_recorder());
  EXPECT_FALSE(live.at("flight_recorder").at("records").array.empty());
}

TEST(EngineFlight, DeadlineMissDumpsFlightRecord) {
  const std::string dump = temp_path("serve_flight_deadline");
  Rng rng(22);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "flight_deadline"));
  EngineOptions opts;
  opts.flight_dump_path = dump;
  Engine engine(opts);
  engine.pause();
  AnalysisRequest request;
  request.design = design;
  request.timeout_seconds = 0.01;
  Engine::Ticket ticket = engine.submit(std::move(request));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.resume();
  AnalysisResult r = ticket.result.get();
  ASSERT_EQ(r.status, ResultStatus::kTimedOut);
  EXPECT_GT(r.req_id, 0u);

  std::ifstream f(dump);
  ASSERT_TRUE(f.good()) << "flight dump missing: " << dump;
  std::stringstream buf;
  buf << f.rdbuf();
  const obs::JsonValue doc = obs::parse_json(buf.str());
  bool saw_miss = false;
  for (const obs::JsonValue& rec : doc.at("flight_recorder").at("records").array) {
    if (rec.at("event").string == "deadline_missed" &&
        rec.at("req_id").number == static_cast<double>(r.req_id)) {
      saw_miss = true;
    }
  }
  EXPECT_TRUE(saw_miss);
  fs::remove(dump);
}

TEST_F(ServeFixture, TelemetryOnOffIsBitIdentical) {
  // The whole observability layer is read-only: enabling metrics + tracing
  // (and the residual-curve capture) must not move a single output bit.
  GridF with_telemetry, without_telemetry;
  {
    TelemetryOn telemetry;
    obs::set_residual_curve_capture(true);
    auto engine = Engine::from_checkpoint(*checkpoint_path_);
    AnalysisResult r = engine->analyze(test_design());
    ASSERT_TRUE(r.ok()) << r.error;
    with_telemetry = r.ir_drop;
    obs::set_residual_curve_capture(false);
  }
  {
    auto engine = Engine::from_checkpoint(*checkpoint_path_);
    AnalysisResult r = engine->analyze(test_design());
    ASSERT_TRUE(r.ok()) << r.error;
    without_telemetry = r.ir_drop;
  }
  EXPECT_EQ(with_telemetry.data(), without_telemetry.data());
}

TEST(EngineCheckpoint, MissingFileDegradesOrThrows) {
  auto engine = Engine::from_checkpoint("/nonexistent/model.irf");
  EXPECT_FALSE(engine->has_model());
  EXPECT_EQ(engine->pipeline(), nullptr);
  EngineOptions strict;
  strict.allow_degraded = false;
  EXPECT_THROW(Engine::from_checkpoint("/nonexistent/model.irf", strict), Error);
}

// --- submit-path regressions (admission, stats accounting, deadlines) ------

TEST(EngineAdmission, RejectsBadPriorityOptions) {
  EngineOptions opts;
  opts.priority_quotas[0] = -1;
  EXPECT_THROW(Engine{opts}, ConfigError);
  opts = EngineOptions{};
  opts.debug_batch_delay_seconds = -0.1;
  EXPECT_THROW(Engine{opts}, ConfigError);
}

TEST(EngineAdmission, TrySubmitNeverBlocksUnderContention) {
  // Regression: try_submit used to check capacity under the lock, drop it,
  // and delegate to submit() — a racing producer could take the last slot
  // in the gap and leave try_submit blocked on space forever. Admission is
  // now decided inside one critical section: with a full, paused queue,
  // every concurrent try_submit must come back promptly, and exactly the
  // queue's capacity may succeed.
  Rng rng(41);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "toctou"));
  EngineOptions opts;
  opts.queue_capacity = 1;
  Engine engine(opts);
  engine.pause();

  constexpr int kProducers = 8;
  std::vector<std::future<bool>> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.push_back(std::async(std::launch::async, [&engine, design] {
      AnalysisRequest request;
      request.design = design;
      return engine.try_submit(std::move(request)).has_value();
    }));
  }
  int admitted = 0;
  for (std::future<bool>& f : producers) {
    // A blocked try_submit shows up as a timeout here instead of hanging
    // the whole suite.
    ASSERT_EQ(f.wait_for(std::chrono::seconds(10)), std::future_status::ready)
        << "try_submit blocked";
    admitted += f.get() ? 1 : 0;
  }
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(engine.queue_depth(), 1);
  engine.resume();  // drain the one admitted request through the dtor
}

TEST(EngineAdmission, ShedsLowestPriorityFirstUnderSaturation) {
  Rng rng(42);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "shed"));
  EngineOptions opts;
  opts.queue_capacity = 2;
  Engine engine(opts);
  engine.pause();

  const auto submit_with = [&](Priority p) {
    AnalysisRequest request;
    request.design = design;
    request.priority = p;
    return engine.submit(std::move(request));
  };
  Engine::Ticket batch_t = submit_with(Priority::kBatch);
  Engine::Ticket normal_t = submit_with(Priority::kNormal);
  EXPECT_EQ(engine.queue_depth(), 2);

  // A saturated queue sheds the oldest request of the LOWEST class that is
  // strictly below the arrival — first the batch request, then the normal.
  Engine::Ticket first_i = submit_with(Priority::kInteractive);
  AnalysisResult shed_batch = batch_t.result.get();
  EXPECT_EQ(shed_batch.status, ResultStatus::kShed);
  EXPECT_FALSE(shed_batch.has_map());
  Engine::Ticket second_i = submit_with(Priority::kInteractive);
  EXPECT_EQ(normal_t.result.get().status, ResultStatus::kShed);

  // With only interactive work queued, an equal-or-lower arrival has no
  // victim: plain backpressure applies, exactly as before priorities.
  AnalysisRequest request;
  request.design = design;
  request.priority = Priority::kNormal;
  EXPECT_FALSE(engine.try_submit(std::move(request)).has_value());

  engine.resume();
  EXPECT_EQ(first_i.result.get().status, ResultStatus::kDegraded);
  EXPECT_EQ(second_i.result.get().status, ResultStatus::kDegraded);

  // Shed results are terminal results: counted as completed exactly once,
  // and the submit that got shed still counts as submitted (the old
  // shutdown-path bug let completed overtake submitted).
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_LE(s.completed, s.submitted);
  EXPECT_EQ(s.served_ok + s.degraded + s.timeouts + s.cancelled + s.failures +
                s.shed,
            s.completed);
}

TEST(EngineAdmission, ClassQuotaRejectsAtAdmission) {
  Rng rng(43);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "quota"));
  EngineOptions opts;
  opts.queue_capacity = 8;
  opts.priority_quotas[static_cast<int>(Priority::kInteractive)] = 1;
  Engine engine(opts);
  engine.pause();

  AnalysisRequest request;
  request.design = design;
  request.priority = Priority::kInteractive;
  Engine::Ticket admitted = engine.submit(request);
  // Quota exhausted: both submit flavours resolve the ticket as kShed
  // immediately instead of blocking or taking shared capacity.
  AnalysisResult over = engine.submit(request).result.get();
  EXPECT_EQ(over.status, ResultStatus::kShed);
  EXPECT_NE(over.error.find("quota"), std::string::npos);
  std::optional<Engine::Ticket> try_over = engine.try_submit(request);
  ASSERT_TRUE(try_over.has_value());
  EXPECT_EQ(try_over->result.get().status, ResultStatus::kShed);

  engine.resume();
  EXPECT_EQ(admitted.result.get().status, ResultStatus::kDegraded);
  const EngineStats s = engine.stats();
  EXPECT_EQ(s.submitted, 3u);  // quota rejections still count as submitted
  EXPECT_EQ(s.shed, 2u);
  EXPECT_LE(s.completed, s.submitted);
}

TEST(EngineStats, TimedOutResultCarriesDispatchBatchSize) {
  // Regression: a timed-out request used to leave batch_size at 0; every
  // terminal result now reports the dispatch batch it rode in.
  Rng rng(44);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "batchsize"));
  Engine engine{EngineOptions{}};
  engine.pause();
  AnalysisRequest normal;
  normal.design = design;
  Engine::Ticket served = engine.submit(std::move(normal));
  AnalysisRequest doomed;
  doomed.design = design;
  doomed.timeout_seconds = 0.01;
  Engine::Ticket timed_out = engine.submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  engine.resume();

  AnalysisResult late = timed_out.result.get();
  ASSERT_EQ(late.status, ResultStatus::kTimedOut);
  EXPECT_EQ(late.batch_size, 2);
  AnalysisResult ok = served.result.get();
  ASSERT_EQ(ok.status, ResultStatus::kDegraded);
  EXPECT_EQ(ok.batch_size, 1);  // surviving cohort after the timeout
}

TEST(EngineDeadline, CompletedWorkWinsAfterLastDeadlineCheck) {
  // A deadline that expires after the final pre-inference check does NOT
  // discard the finished map — the result is served with deadline_exceeded
  // set (docs/API.md "Deadlines"). debug_batch_delay_seconds makes the
  // "expired inside stage B" window deterministic.
  Rng rng(45);
  auto design = std::make_shared<pg::PgDesign>(
      pg::generate_fake_design(32, rng, "overrun"));
  EngineOptions opts;
  opts.debug_batch_delay_seconds = 0.4;
  Engine engine(opts);

  AnalysisRequest request;
  request.design = design;
  request.timeout_seconds = 0.2;
  AnalysisResult r = engine.submit(std::move(request)).result.get();
  EXPECT_EQ(r.status, ResultStatus::kDegraded);  // served, not kTimedOut
  EXPECT_TRUE(r.has_map());
  EXPECT_TRUE(r.deadline_exceeded);

  AnalysisRequest relaxed;
  relaxed.design = design;
  AnalysisResult r2 = engine.submit(std::move(relaxed)).result.get();
  EXPECT_EQ(r2.status, ResultStatus::kDegraded);
  EXPECT_FALSE(r2.deadline_exceeded);
}

// --- router: sharded serving ------------------------------------------------

/// Distinct-topology designs (random blockages perturb the grid), so the
/// router actually spreads them: fake designs of one size all share a
/// topology hash and would collapse onto a single shard.
std::vector<std::shared_ptr<pg::PgDesign>> distinct_topology_designs(int n) {
  std::vector<std::shared_ptr<pg::PgDesign>> designs;
  std::vector<std::uint64_t> seen;
  for (int seed = 0; static_cast<int>(designs.size()) < n && seed < 200; ++seed) {
    Rng rng(500 + seed);
    auto d = std::make_shared<pg::PgDesign>(
        pg::generate_real_design(32, rng, "router_" + std::to_string(seed)));
    const std::uint64_t h = design_topology_hash(*d);
    if (std::find(seen.begin(), seen.end(), h) != seen.end()) continue;
    seen.push_back(h);
    designs.push_back(std::move(d));
  }
  return designs;
}

TEST(RouterValidation, RejectsBadOptions) {
  RouterOptions opts;
  opts.num_shards = 0;
  EXPECT_THROW(Router{opts}, ConfigError);
}

TEST_F(ServeFixture, RouterShardAffinityAndBitIdentity) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  ropts.engine.enable_warm_start = false;
  auto router = Router::from_checkpoint(*checkpoint_path_, ropts);
  ASSERT_TRUE(router->has_model());
  EXPECT_EQ(router->num_shards(), 2);

  EngineOptions eopts;
  eopts.enable_warm_start = false;
  auto reference = Engine::from_checkpoint(*checkpoint_path_, eopts);

  const auto designs = distinct_topology_designs(4);
  ASSERT_GE(designs.size(), 2u);
  for (const auto& d : designs) {
    const int expected_shard = router->shard_for(*d);
    AnalysisResult first = router->analyze(*d);
    ASSERT_TRUE(first.ok()) << first.error;
    EXPECT_EQ(first.shard, expected_shard);
    // Re-submission sticks to the same shard and hits its LRU entry.
    AnalysisResult again = router->analyze(*d);
    EXPECT_EQ(again.shard, expected_shard);
    EXPECT_TRUE(again.cache_hit);
    // Any shard serves bit-identically to a standalone engine: the clones
    // carry the same weights.
    AnalysisResult direct = reference->analyze(*d);
    EXPECT_EQ(first.ir_drop.data(), direct.ir_drop.data());
  }
  // Ticket ids stay globally unique across shards (strided per shard).
  const RouterStats rs = router->router_stats();
  EXPECT_EQ(rs.total.submitted, 2u * designs.size());
  EXPECT_GE(rs.total.cache_hits, designs.size());
}

TEST_F(ServeFixture, RouterServesRepeatAfterEcoOnOwnerBitIdentically) {
  // A repeat of a design after a warm-served eco variant of it must come
  // back from the owner's exact cache entry: bit-identical to a direct
  // analyze, never warm-served off the variant. Shard 0 is held paused for
  // 100 ms while each wave queues on it and shard 1 drains its own share
  // and sits idle, so a request that could leave its shard would.
  RouterOptions ropts;
  ropts.num_shards = 2;
  auto router = Router::from_checkpoint(*checkpoint_path_, ropts);

  const auto originals = distinct_topology_designs(6);
  ASSERT_GE(std::count_if(originals.begin(), originals.end(),
                          [&](const auto& d) { return router->shard_for(*d) == 0; }),
            2);
  std::vector<std::shared_ptr<pg::PgDesign>> variants;
  for (const auto& d : originals) {
    auto v = std::make_shared<pg::PgDesign>(*d);
    v->name += "_eco";
    v->netlist.scale_current_sources(1.001);
    variants.push_back(std::move(v));
  }

  std::vector<std::shared_ptr<pg::PgDesign>> sent;
  std::vector<AnalysisResult> served;
  using Wave = std::vector<std::shared_ptr<pg::PgDesign>>;
  for (const Wave* wave : {&originals, &std::as_const(variants), &originals}) {
    router->shard(0).pause();
    std::vector<Engine::Ticket> tickets;
    for (const auto& d : *wave) {
      AnalysisRequest request;
      request.design = d;
      tickets.push_back(router->submit(std::move(request)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    router->shard(0).resume();
    for (Engine::Ticket& t : tickets) served.push_back(t.result.get());
    sent.insert(sent.end(), wave->begin(), wave->end());
  }

  std::size_t warm = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const AnalysisResult& r = served[i];
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.shard, router->shard_for(*sent[i])) << "request " << i;
    if (r.warm_start) {
      ++warm;
      continue;
    }
    EXPECT_EQ(r.ir_drop.data(), pipeline_->analyze(*sent[i]).data())
        << "request " << i << " (" << sent[i]->name << ")";
  }
  EXPECT_GE(warm, 1u);  // the eco wave exercised the warm path
  // The last wave repeats the first: every one of its requests is a hit.
  for (std::size_t i = 2 * originals.size(); i < sent.size(); ++i) {
    EXPECT_TRUE(served[i].cache_hit) << "request " << i;
    EXPECT_FALSE(served[i].warm_start) << "request " << i;
  }
}

TEST(RouterStats, AggregateMatchesPerShardBreakdown) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  Router router(ropts);  // model-less: every request degrades, cheaply

  const auto designs = distinct_topology_designs(4);
  std::vector<Engine::Ticket> tickets;
  for (int round = 0; round < 3; ++round) {
    for (const auto& d : designs) {
      AnalysisRequest request;
      request.design = d;
      tickets.push_back(router.submit(std::move(request)));
    }
  }
  std::vector<std::uint64_t> ids;
  for (Engine::Ticket& t : tickets) {
    EXPECT_EQ(t.result.get().status, ResultStatus::kDegraded);
    ids.push_back(t.id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end())
      << "ticket ids must be globally unique across shards";

  const RouterStats rs = router.router_stats();
  ASSERT_EQ(rs.shards.size(), 2u);
  EngineStats sum;
  for (const EngineStats& s : rs.shards) {
    sum.submitted += s.submitted;
    sum.completed += s.completed;
    sum.degraded += s.degraded;
    sum.cache_hits += s.cache_hits;
    sum.cache_misses += s.cache_misses;
  }
  EXPECT_EQ(rs.total.submitted, sum.submitted);
  EXPECT_EQ(rs.total.completed, sum.completed);
  EXPECT_EQ(rs.total.degraded, sum.degraded);
  EXPECT_EQ(rs.total.cache_hits, sum.cache_hits);
  EXPECT_EQ(rs.total.cache_misses, sum.cache_misses);
  // Work never leaves the shard that admitted it.
  for (const EngineStats& s : rs.shards) EXPECT_EQ(s.completed, s.submitted);
  EXPECT_EQ(rs.total.submitted, tickets.size());
  EXPECT_EQ(rs.total.completed, tickets.size());
  EXPECT_LE(rs.total.completed, rs.total.submitted);
  // The plain stats() view is the aggregate, and queue_depth() sums shards.
  EXPECT_EQ(router.stats().completed, rs.total.completed);
  EXPECT_EQ(router.queue_depth(), 0);
}

TEST(RouterRobustness, CancelReachesOwningShard) {
  RouterOptions ropts;
  ropts.num_shards = 2;
  Router router(ropts);
  router.pause();
  const auto designs = distinct_topology_designs(2);
  ASSERT_GE(designs.size(), 1u);
  AnalysisRequest request;
  request.design = designs.front();
  const int owner = router.shard_for(*request.design);
  Engine::Ticket ticket = router.submit(std::move(request));
  // The strided id names the owner, which holds the queued request.
  EXPECT_EQ(static_cast<int>((ticket.id - 1) % 2), owner);
  EXPECT_EQ(router.shard(owner).queue_depth(), 1);
  EXPECT_TRUE(router.cancel(ticket.id));
  EXPECT_FALSE(router.cancel(ticket.id + 12345));
  router.resume();
  EXPECT_EQ(ticket.result.get().status, ResultStatus::kCancelled);
}

}  // namespace
}  // namespace irf::serve
