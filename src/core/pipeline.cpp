#include "core/pipeline.hpp"

#include <cmath>
#include <memory>

#include "check/check.hpp"
#include "common/error.hpp"
#include "models/unet.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::core {

using train::FeatureView;
using train::PreparedDesign;
using train::Sample;

void validate_config(const PipelineConfig& config) {
  if (config.image_size <= 0 || config.image_size % 16 != 0) {
    throw ConfigError("pipeline image_size must be positive and divisible by 16, got " +
                      std::to_string(config.image_size));
  }
  if (config.rough_iterations < 1) {
    throw ConfigError("pipeline needs >= 1 rough iteration, got " +
                      std::to_string(config.rough_iterations));
  }
  if (config.epochs < 1) {
    throw ConfigError("pipeline needs >= 1 training epoch, got " +
                      std::to_string(config.epochs));
  }
  if (config.base_channels < 1) {
    throw ConfigError("pipeline needs >= 1 base channel, got " +
                      std::to_string(config.base_channels));
  }
  if (!std::isfinite(config.learning_rate) || config.learning_rate <= 0.0) {
    throw ConfigError("pipeline learning_rate must be finite and positive, got " +
                      std::to_string(config.learning_rate));
  }
}

IrFusionPipeline::IrFusionPipeline(PipelineConfig config) : config_(config) {
  validate_config(config_);
}

std::unique_ptr<models::IrModel> IrFusionPipeline::build_model(const PipelineConfig& config,
                                                               int channels) {
  Rng rng(config.seed);
  return models::make_ir_fusion_net(channels, config.base_channels, rng,
                                    config.use_inception, config.use_cbam);
}

IrFusionPipeline IrFusionPipeline::restore(PipelineConfig config,
                                           train::Normalizer normalizer, int channels,
                                           std::istream& state) {
  IrFusionPipeline pipeline(config);
  pipeline.normalizer_ = std::move(normalizer);
  pipeline.model_ = build_model(pipeline.config_, channels);
  nn::load_state(*pipeline.model_, state);
  pipeline.model_->set_training(false);
  pipeline.fitted_ = true;
  return pipeline;
}

FeatureView IrFusionPipeline::view() const {
  if (!config_.use_numerical) {
    // Without the numerical solution the hierarchy flag still applies; the
    // non-hierarchical no-numerical view equals the baselines' structural one.
    return config_.use_hierarchical ? FeatureView::kFusionNoNum
                                    : FeatureView::kStructuralFlat;
  }
  return config_.use_hierarchical ? FeatureView::kFusionHier : FeatureView::kFusionFlat;
}

Sample IrFusionPipeline::sample_for(const PreparedDesign& prepared) const {
  return train::make_sample(prepared, config_.rough_iterations, config_.image_size);
}

train::TrainHistory IrFusionPipeline::fit(
    const std::vector<PreparedDesign>& train_designs) {
  if (train_designs.empty()) throw ConfigError("fit: no training designs");
  obs::ScopedSpan fit_span("pipeline_fit", "pipeline");
  fit_span.add_arg("designs", static_cast<double>(train_designs.size()));
  std::vector<Sample> samples = train::make_samples(
      train_designs, config_.rough_iterations, config_.image_size);
  if (config_.use_augmentation) samples = train::augment_rotations(samples);
  if (refines_rough_solution()) {
    // Retarget to the residual the refinement network must learn.
    for (Sample& s : samples) {
      for (std::size_t i = 0; i < s.label.size(); ++i) {
        s.label.data()[i] -= s.rough_bottom.data()[i];
      }
    }
  }
  normalizer_ = train::Normalizer::fit(samples);

  const int channels = train::view_channel_count(samples.front(), view());
  model_ = build_model(config_, channels);

  train::TrainOptions options;
  options.epochs = config_.epochs;
  options.learning_rate = config_.learning_rate;
  options.seed = config_.seed + 1;
  options.curriculum.enabled = config_.use_curriculum;
  // Converge the refinement head cleanly: gentle cosine LR decay plus a
  // little decoupled weight decay keep the learned correction's noise floor
  // low at large iteration budgets. The decay floor stays moderate because
  // the curriculum admits the hard (real) designs in later epochs — they
  // still need a workable learning rate when they arrive.
  options.lr_min_ratio = 0.4;
  options.weight_decay = 1e-4;
  train::TrainHistory history =
      train::train_model(*model_, samples, view(), normalizer_, options);
  fitted_ = true;
  return history;
}

GridF IrFusionPipeline::analyze(const pg::PgDesign& design) const {
  return analyze_with_diagnostics(design).prediction;
}

IrFusionPipeline::Diagnostics IrFusionPipeline::analyze_with_diagnostics(
    const pg::PgDesign& design) const {
  if (!fitted_) throw ConfigError("analyze: pipeline not fitted");
  obs::ScopedSpan analyze_span("analyze", "pipeline");
  obs::count("pipeline.analyses");
  Diagnostics diag;
  diag.rough_iterations = config_.rough_iterations;

  // Numerical stage: MNA assembly + AMG setup + rough PCG iterations.
  // (unique_ptr so the span closes at the stage boundary; amg_setup and
  // rough_solve nest inside it.)
  auto solve_span = std::make_unique<obs::ScopedSpan>("numerical_stage", "pipeline");
  pg::PgSolver solver(design);
  const pg::PgSolution rough = solver.solve_rough(config_.rough_iterations);
  diag.solve_seconds = solve_span->seconds();
  solve_span.reset();

  // Fusion stage: hierarchical numerical-structural features + inference;
  // feature_extract and infer spans nest inside it.
  obs::ScopedSpan fusion_span("fusion_stage", "pipeline");
  const Sample sample = train::make_inference_sample(design, rough, config_.image_size);
  diag.rough = sample.rough_bottom;
  diag.prediction = std::move(predict({&sample}).front());
  IRF_CHECK_FINITE(diag.prediction.data(), "fusion-stage prediction");
  diag.inference_seconds = fusion_span.seconds();

  diag.correction = diag.prediction;
  for (std::size_t i = 0; i < diag.correction.size(); ++i) {
    diag.correction.data()[i] -= diag.rough.data()[i];
  }
  return diag;
}

GridF IrFusionPipeline::analyze_tiled(const pg::PgDesign& design, int native_size,
                                      int overlap) const {
  if (!fitted_) throw ConfigError("analyze_tiled: pipeline not fitted");
  const int tile = config_.image_size;
  if (native_size < tile) {
    throw ConfigError("analyze_tiled: native size smaller than the training tile");
  }
  if (native_size % 16 != 0) {
    throw ConfigError("analyze_tiled: native size must be divisible by 16");
  }
  if (overlap < 0) overlap = tile / 4;
  if (overlap >= tile) throw ConfigError("analyze_tiled: overlap must be < tile size");

  // Numerical stage + features once, at the native resolution.
  pg::PgSolver solver(design);
  const Sample native =
      train::make_inference_sample(design, solver.solve_rough(config_.rough_iterations),
                                   native_size);

  auto crop = [](const GridF& src, int y0, int x0, int size) {
    GridF out(size, size);
    for (int y = 0; y < size; ++y)
      for (int x = 0; x < size; ++x) out(y, x) = src(y0 + y, x0 + x);
    return out;
  };

  GridF accum(native_size, native_size, 0.0f);
  GridF weight(native_size, native_size, 0.0f);
  const int stride = tile - overlap;
  for (int y0 = 0; y0 < native_size; y0 += stride) {
    const int ty = std::min(y0, native_size - tile);
    for (int x0 = 0; x0 < native_size; x0 += stride) {
      const int tx = std::min(x0, native_size - tile);
      Sample s;
      s.design_name = design.name;
      s.kind = design.kind;
      s.hier.names = native.hier.names;
      s.flat.names = native.flat.names;
      for (const GridF& ch : native.hier.channels) {
        s.hier.channels.push_back(crop(ch, ty, tx, tile));
      }
      for (const GridF& ch : native.flat.channels) {
        s.flat.channels.push_back(crop(ch, ty, tx, tile));
      }
      s.label = GridF(tile, tile, 0.0f);
      s.rough_bottom = crop(native.rough_bottom, ty, tx, tile);
      const GridF pred = std::move(predict({&s}).front());
      // Triangular blending weight peaks at the tile centre so overlaps
      // fade smoothly.
      for (int y = 0; y < tile; ++y) {
        const float wy = 1.0f + std::min(y, tile - 1 - y);
        for (int x = 0; x < tile; ++x) {
          const float wx = 1.0f + std::min(x, tile - 1 - x);
          accum(ty + y, tx + x) += pred(y, x) * wy * wx;
          weight(ty + y, tx + x) += wy * wx;
        }
      }
      if (tx >= native_size - tile) break;
    }
    if (ty >= native_size - tile) break;
  }
  for (std::size_t i = 0; i < accum.size(); ++i) accum.data()[i] /= weight.data()[i];
  return accum;
}

std::vector<GridF> IrFusionPipeline::predict(const std::vector<const Sample*>& samples) const {
  if (!fitted_) throw ConfigError("predict: pipeline not fitted");
  std::vector<GridF> maps = train::predict_volts(*model_, samples, view(), normalizer_);
  if (refines_rough_solution()) {
    for (std::size_t k = 0; k < maps.size(); ++k) {
      const GridF& rough = samples[k]->rough_bottom;
      for (std::size_t i = 0; i < maps[k].size(); ++i) maps[k].data()[i] += rough.data()[i];
    }
  }
  return maps;
}

train::AggregateMetrics IrFusionPipeline::evaluate(
    const std::vector<PreparedDesign>& test_designs) const {
  if (!fitted_) throw ConfigError("evaluate: pipeline not fitted");
  if (test_designs.empty()) throw ConfigError("evaluate: no test designs");
  std::vector<train::MapMetrics> per_design;
  double runtime = 0.0;
  for (const PreparedDesign& prepared : test_designs) {
    obs::ScopedSpan span("evaluate_design", "pipeline");
    const Sample sample = sample_for(prepared);  // rough solve + feature fusion
    const GridF pred = std::move(predict({&sample}).front());
    runtime += span.seconds();
    per_design.push_back(train::evaluate_map(pred, sample.label));
  }
  train::AggregateMetrics agg = train::aggregate(per_design);
  agg.runtime_seconds = runtime / static_cast<double>(test_designs.size());
  return agg;
}

}  // namespace irf::core
