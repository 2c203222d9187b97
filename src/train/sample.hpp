#pragma once

/// \file sample.hpp
/// One training/eval sample: the feature stacks extracted from a design
/// (hierarchical and collapsed variants), the golden label, and the rough
/// numerical bottom-layer map. FeatureView selects the channel subset each
/// evaluated method consumes — the input-feature axis of Table I.

#include <string>
#include <vector>

#include "common/grid2d.hpp"
#include "features/extractor.hpp"
#include "nn/tensor.hpp"
#include "pg/design.hpp"
#include "pg/solve.hpp"

namespace irf::train {

/// Which input channels a model sees.
enum class FeatureView {
  kIccadTriplet,   ///< current/eff-dist/density (IREDGe's input images)
  kStructuralFlat, ///< all collapsed structural maps, no numerical solution
  kFusionHier,     ///< full hierarchical numerical + structural (IR-Fusion)
  kFusionNoNum,    ///< hierarchical structural only (ablation w/o Num. Solu.)
  kFusionFlat,     ///< collapsed maps incl. numerical (ablation w/o hierarchy)
};

std::string view_name(FeatureView view);

struct Sample {
  std::string design_name;
  pg::DesignKind kind = pg::DesignKind::kFake;
  int rotation_quarter_turns = 0;  ///< augmentation bookkeeping
  features::FeatureStack hier;     ///< hierarchical stack (includes num_ir_* maps)
  features::FeatureStack flat;     ///< collapsed stack (includes num_ir_bottom)
  GridF label;                     ///< golden bottom-layer IR drop (volts)
  GridF rough_bottom;              ///< rough-solution bottom map (volts)
};

/// Channel names of a view, in input order.
std::vector<std::string> view_channels(const Sample& sample, FeatureView view);

/// Number of channels a model built for `view` must accept.
int view_channel_count(const Sample& sample, FeatureView view);

/// Rotate everything in the sample clockwise by `quarter_turns` x 90 degrees
/// (the paper's data augmentation).
Sample rotated(const Sample& sample, int quarter_turns);

/// The fusion recipe of Fig. 2 for one design: both feature stacks
/// (hierarchical and flat, numerical maps included, so any view can select
/// its channels) and the rough bottom-layer map from `rough`, all at
/// image_size x image_size. The label is zero; training callers set their
/// own. Training, analyze() and the serving engine all build samples here.
Sample make_inference_sample(const pg::PgDesign& design, const pg::PgSolution& rough,
                             int image_size);

/// Warm-path refresh of a sample built by make_inference_sample on a
/// topology-identical design: rebuilds only the channel groups `dirty`
/// marks in both stacks, and the rough map when the numerical maps changed.
void refresh_inference_sample(Sample& sample, const pg::PgDesign& design,
                              const pg::PgSolution& rough, int image_size,
                              const features::DirtyChannels& dirty);

}  // namespace irf::train
