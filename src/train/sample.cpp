#include "train/sample.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace irf::train {

std::string view_name(FeatureView view) {
  switch (view) {
    case FeatureView::kIccadTriplet: return "iccad-triplet";
    case FeatureView::kStructuralFlat: return "structural-flat";
    case FeatureView::kFusionHier: return "fusion-hier";
    case FeatureView::kFusionNoNum: return "fusion-no-num";
    case FeatureView::kFusionFlat: return "fusion-flat";
  }
  throw ConfigError("unknown FeatureView");
}

namespace {
bool is_numerical(const std::string& name) { return name.rfind("num_ir", 0) == 0; }
}  // namespace

std::vector<std::string> view_channels(const Sample& sample, FeatureView view) {
  std::vector<std::string> out;
  switch (view) {
    case FeatureView::kIccadTriplet:
      out = {"current_all", "eff_dist", "pdn_density_all"};
      break;
    case FeatureView::kStructuralFlat:
      for (const std::string& n : sample.flat.names) {
        if (!is_numerical(n)) out.push_back(n);
      }
      break;
    case FeatureView::kFusionHier:
      out = sample.hier.names;
      break;
    case FeatureView::kFusionNoNum:
      for (const std::string& n : sample.hier.names) {
        if (!is_numerical(n)) out.push_back(n);
      }
      break;
    case FeatureView::kFusionFlat:
      out = sample.flat.names;
      break;
  }
  return out;
}

int view_channel_count(const Sample& sample, FeatureView view) {
  return static_cast<int>(view_channels(sample, view).size());
}

Sample rotated(const Sample& sample, int quarter_turns) {
  Sample out;
  out.design_name = sample.design_name;
  out.kind = sample.kind;
  out.rotation_quarter_turns = (sample.rotation_quarter_turns + quarter_turns) % 4;
  out.hier.names = sample.hier.names;
  out.flat.names = sample.flat.names;
  for (const GridF& g : sample.hier.channels) out.hier.channels.push_back(g.rotated90(quarter_turns));
  for (const GridF& g : sample.flat.channels) out.flat.channels.push_back(g.rotated90(quarter_turns));
  out.label = sample.label.rotated90(quarter_turns);
  out.rough_bottom = sample.rough_bottom.rotated90(quarter_turns);
  return out;
}

Sample make_inference_sample(const pg::PgDesign& design, const pg::PgSolution& rough,
                             int image_size) {
  Sample s;
  s.design_name = design.name;
  s.kind = design.kind;
  features::FeatureOptions opts;
  opts.image_size = image_size;
  opts.hierarchical = true;
  opts.include_numerical = true;
  s.hier = features::extract_features(design, &rough, opts);
  opts.hierarchical = false;
  s.flat = features::extract_features(design, &rough, opts);
  s.label = GridF(image_size, image_size, 0.0f);
  s.rough_bottom = features::label_map(design, rough, image_size);
  return s;
}

void refresh_inference_sample(Sample& sample, const pg::PgDesign& design,
                              const pg::PgSolution& rough, int image_size,
                              const features::DirtyChannels& dirty) {
  features::FeatureOptions opts;
  opts.image_size = image_size;
  opts.hierarchical = true;
  opts.include_numerical = true;
  features::refresh_features(sample.hier, design, &rough, opts, dirty);
  opts.hierarchical = false;
  features::refresh_features(sample.flat, design, &rough, opts, dirty);
  if (dirty.numerical) sample.rough_bottom = features::label_map(design, rough, image_size);
}

}  // namespace irf::train
