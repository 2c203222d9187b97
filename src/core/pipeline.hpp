#pragma once

/// \file pipeline.hpp
/// The paper's primary contribution as a library API: IrFusionPipeline
/// couples the AMG-PCG rough solve, hierarchical numerical-structural
/// feature fusion, the Inception Attention U-Net, and augmented curriculum
/// training (Fig. 2). Every ablation switch of Fig. 8 is a config flag.

#include <iosfwd>
#include <memory>
#include <vector>

#include "models/ir_model.hpp"
#include "train/dataset.hpp"
#include "train/trainer.hpp"

namespace irf::core {

struct PipelineConfig {
  int image_size = 32;
  int rough_iterations = 3;  ///< AMG-PCG iterations for the rough solution
  int base_channels = 8;
  int epochs = 6;
  double learning_rate = 2e-3;
  std::uint64_t seed = 7;

  // Fig. 8 ablation switches (all true == full IR-Fusion).
  bool use_numerical = true;
  bool use_hierarchical = true;
  bool use_inception = true;
  bool use_cbam = true;
  bool use_augmentation = true;
  bool use_curriculum = true;

  /// Our own design choice (see README): learn the residual on top of the
  /// rough bottom-layer map instead of predicting volts directly. Exposed so
  /// bench_residual_ablation can quantify it; ignored when use_numerical is
  /// false (there is no rough map to refine).
  bool use_residual = true;
};

/// Structural validation of a config, applied at pipeline construction (and
/// by the serve checkpoint reader before trusting an on-disk config).
/// Throws irf::ConfigError naming the offending field; catching a bad
/// image_size or NaN learning rate here beats failing deep inside
/// fit()/analyze_tiled().
void validate_config(const PipelineConfig& config);

class IrFusionPipeline {
 public:
  explicit IrFusionPipeline(PipelineConfig config);

  /// Train the refinement model on prepared designs (builds samples at the
  /// configured rough-iteration budget, fits normalization, runs augmented
  /// curriculum training).
  train::TrainHistory fit(const std::vector<train::PreparedDesign>& train_designs);

  /// End-to-end static IR analysis of one unseen design: assemble MNA, AMG
  /// setup, rough solve, feature fusion, model inference. Returns the
  /// bottom-layer IR-drop image in volts.
  GridF analyze(const pg::PgDesign& design) const;

  /// Breakdown of one analysis: where the answer came from and how much the
  /// ML stage changed it. `correction` is prediction − rough (the learned
  /// refinement); large |correction| marks regions where the rough solution
  /// was least trustworthy — a practical confidence signal.
  struct Diagnostics {
    GridF rough;        ///< rough numerical bottom-layer map (volts)
    GridF prediction;   ///< final fused prediction (volts)
    GridF correction;   ///< prediction − rough (volts)
    int rough_iterations = 0;
    double solve_seconds = 0.0;      ///< AMG setup + rough PCG time
    double inference_seconds = 0.0;  ///< feature fusion + model forward time
  };
  Diagnostics analyze_with_diagnostics(const pg::PgDesign& design) const;

  /// Scalability path: analyze a design at a native resolution larger than
  /// the training resolution by running the model over overlapping tiles
  /// and blending the overlaps. `native_size` is the full-map resolution
  /// (must be >= the training image size and divisible by 16); overlap is
  /// in pixels (defaults to a quarter tile).
  GridF analyze_tiled(const pg::PgDesign& design, int native_size,
                      int overlap = -1) const;

  /// Evaluate on held-out designs; runtime includes the numerical stage.
  train::AggregateMetrics evaluate(
      const std::vector<train::PreparedDesign>& test_designs) const;

  /// The feature view implied by the ablation flags.
  train::FeatureView view() const;

  const PipelineConfig& config() const { return config_; }
  models::IrModel& model() { return *model_; }
  const train::Normalizer& normalizer() const { return normalizer_; }
  bool is_fitted() const { return fitted_; }

  /// Reassemble a fitted pipeline from persisted parts (the serve checkpoint
  /// loader, the Router's per-shard clones): builds the config's model over
  /// `channels` inputs exactly as fit() does, then reads its weights from
  /// `state` (nn::load_state). The result is immediately analyzable.
  static IrFusionPipeline restore(PipelineConfig config, train::Normalizer normalizer,
                                  int channels, std::istream& state);

  /// Refined bottom-layer maps (volts) of samples built by
  /// train::make_inference_sample: one batched forward (train::predict_volts)
  /// plus each sample's rough map when refines_rough_solution(). The samples
  /// must share one shape. analyze(), analyze_tiled() and the serving engine
  /// all infer here.
  std::vector<GridF> predict(const std::vector<const train::Sample*>& samples) const;

  /// With the numerical solution enabled, the model is trained on the
  /// *residual* between the golden label and the rough bottom-layer map —
  /// the "begin training from a point much closer to the target label"
  /// effect of Section IV-B — and predictions add the rough map back.
  bool refines_rough_solution() const {
    return config_.use_numerical && config_.use_residual;
  }

 private:
  train::Sample sample_for(const train::PreparedDesign& prepared) const;
  static std::unique_ptr<models::IrModel> build_model(const PipelineConfig& config,
                                                      int channels);

  PipelineConfig config_;
  std::unique_ptr<models::IrModel> model_;
  train::Normalizer normalizer_;
  bool fitted_ = false;
};

}  // namespace irf::core
