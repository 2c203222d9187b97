#include "train/dynamic.hpp"

#include "common/error.hpp"
#include "features/extractor.hpp"

namespace irf::train {

namespace {

DynamicDesign prepare_dynamic(pg::PgDesign design, Rng& rng,
                              const DynamicDatasetConfig& dyn) {
  pg::add_transient_activity(design, rng, dyn.activity);
  DynamicDesign out;
  out.design = std::make_unique<pg::PgDesign>(std::move(design));
  out.solver = std::make_unique<pg::PgSolver>(*out.design);
  pg::TransientSolver transient(*out.design, dyn.transient);
  out.worst_ir_drop = transient.run().worst_ir_drop;
  return out;
}

}  // namespace

DynamicDesignSet build_dynamic_design_set(const ScaleConfig& config,
                                          const DynamicDatasetConfig& dyn) {
  if (config.num_real_designs < 2) {
    throw ConfigError("dynamic set needs at least 2 real designs");
  }
  DynamicDesignSet set;
  set.image_size = config.image_size;
  Rng rng(config.seed ^ 0xD1A2ull);

  for (int i = 0; i < config.num_fake_designs; ++i) {
    Rng design_rng = rng.fork();
    pg::PgDesign d = pg::generate_fake_design(config.image_size, design_rng,
                                              "dynfake_" + std::to_string(i));
    set.train.push_back(prepare_dynamic(std::move(d), design_rng, dyn));
  }
  const int num_real_train = config.num_real_designs / 2;
  for (int i = 0; i < config.num_real_designs; ++i) {
    Rng design_rng = rng.fork();
    pg::PgDesign d = pg::generate_real_design(config.image_size, design_rng,
                                              "dynreal_" + std::to_string(i));
    DynamicDesign p = prepare_dynamic(std::move(d), design_rng, dyn);
    if (i < num_real_train) {
      set.train.push_back(std::move(p));
    } else {
      set.test.push_back(std::move(p));
    }
  }
  return set;
}

Sample make_dynamic_sample(const DynamicDesign& prepared, int rough_iterations,
                           int image_size) {
  if (rough_iterations < 1) throw ConfigError("rough_iterations must be >= 1");
  // The static rough map is the (under-estimating) basis the fusion model
  // amplifies; the label is the transient worst-case envelope.
  const pg::PgSolution rough = prepared.solver->solve_rough(rough_iterations);
  Sample s = make_inference_sample(*prepared.design, rough, image_size);
  s.label = features::bottom_layer_map(*prepared.design, prepared.worst_ir_drop,
                                       image_size);
  return s;
}

std::vector<Sample> make_dynamic_samples(const std::vector<DynamicDesign>& designs,
                                         int rough_iterations, int image_size) {
  std::vector<Sample> out;
  out.reserve(designs.size());
  for (const DynamicDesign& d : designs) {
    out.push_back(make_dynamic_sample(d, rough_iterations, image_size));
  }
  return out;
}

}  // namespace irf::train
