#pragma once

/// \file trainer.hpp
/// Training and evaluation drivers shared by all experiments. Training uses
/// Adam, per-sample steps (batch 1), gradient clipping, and optionally the
/// curriculum scheduler; evaluation reports the Table-I metrics plus
/// per-design inference runtime.

#include <functional>
#include <vector>

#include "models/ir_model.hpp"
#include "train/curriculum.hpp"
#include "train/metrics.hpp"
#include "train/normalizer.hpp"
#include "train/sample.hpp"

namespace irf::train {

struct TrainOptions {
  int epochs = 6;
  double learning_rate = 2e-3;
  double grad_clip = 5.0;
  /// Decoupled (AdamW) weight decay; 0 disables.
  double weight_decay = 0.0;
  /// Cosine learning-rate decay floor as a fraction of learning_rate
  /// (1.0 == constant LR).
  double lr_min_ratio = 1.0;
  /// Gaussian sigma (pixels) for label smoothing during training — the
  /// label-distribution-smoothing idea of PGAU. 0 disables. Evaluation
  /// always uses the raw labels.
  double label_blur_sigma = 0.0;
  CurriculumOptions curriculum;
  std::uint64_t seed = 1;
  /// Optional per-epoch callback (epoch, mean train loss).
  std::function<void(int, double)> on_epoch;
};

struct TrainHistory {
  std::vector<double> epoch_loss;
  double seconds = 0.0;
};

/// Train `model` on `samples` (already augmented/oversampled upstream of the
/// curriculum multipliers) using the channels of `view`.
TrainHistory train_model(models::IrModel& model, const std::vector<Sample>& samples,
                         FeatureView view, const Normalizer& normalizer,
                         const TrainOptions& options);

/// Batched prediction in volts: the inputs of every sample are stacked to
/// [N,C,H,W], run through one forward, and each output plane is converted
/// to volts. Throws irf::DimensionError when the inputs differ in shape or
/// the model returns anything but [N,1,H,W]; the output must be finite.
std::vector<GridF> predict_volts(models::IrModel& model,
                                 const std::vector<const Sample*>& samples,
                                 FeatureView view, const Normalizer& normalizer);

/// Per-design prediction in volts (the batched form at N = 1).
GridF predict_volts(models::IrModel& model, const Sample& sample, FeatureView view,
                    const Normalizer& normalizer);

/// Evaluate on held-out samples; `extra_runtime_per_design` accounts for the
/// numerical stage of fusion methods (solver + feature time).
AggregateMetrics evaluate_model(models::IrModel& model, const std::vector<Sample>& samples,
                                FeatureView view, const Normalizer& normalizer,
                                double extra_runtime_per_design = 0.0);

}  // namespace irf::train
