#pragma once

// The ServeFixture model of tests/test_serve.cpp: its design set and
// pipeline config, shared with tests/serve_fixture_model.cpp, which trains
// it once per ctest run so the per-case test processes can load it.

#include "common/env.hpp"
#include "core/pipeline.hpp"

namespace irf::testing_support {

inline ScaleConfig serve_fixture_scale() {
  ScaleConfig cfg = make_scale_config(Scale::kCi);
  cfg.image_size = 32;
  cfg.num_fake_designs = 3;
  cfg.num_real_designs = 2;
  cfg.epochs = 2;
  cfg.base_channels = 4;
  cfg.seed = 321;
  return cfg;
}

inline core::PipelineConfig tiny_pipeline_config() {
  core::PipelineConfig pc;
  pc.image_size = 32;
  pc.rough_iterations = 3;
  pc.base_channels = 4;
  pc.epochs = 2;
  pc.seed = 5;
  return pc;
}

}  // namespace irf::testing_support
