#include "train/dataset.hpp"

#include "common/error.hpp"
#include "features/extractor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace irf::train {

namespace {

PreparedDesign prepare(pg::PgDesign design) {
  PreparedDesign p;
  p.design = std::make_unique<pg::PgDesign>(std::move(design));
  p.solver = std::make_unique<pg::PgSolver>(*p.design);
  p.golden = p.solver->solve_golden();
  return p;
}

}  // namespace

DesignSet build_design_set(const ScaleConfig& config) {
  if (config.num_real_designs < 2) {
    throw ConfigError("need at least 2 real designs (train/test split)");
  }
  obs::ScopedSpan span("generate", "train");
  span.add_arg("fake", config.num_fake_designs);
  span.add_arg("real", config.num_real_designs);
  DesignSet set;
  set.image_size = config.image_size;
  Rng rng(config.seed);

  for (int i = 0; i < config.num_fake_designs; ++i) {
    Rng design_rng = rng.fork();
    set.train.push_back(prepare(pg::generate_fake_design(
        config.image_size, design_rng, "fake_" + std::to_string(i))));
  }
  // Contest split: half the real designs train, half are held out for test.
  const int num_real_train = config.num_real_designs / 2;
  for (int i = 0; i < config.num_real_designs; ++i) {
    Rng design_rng = rng.fork();
    PreparedDesign p = prepare(pg::generate_real_design(
        config.image_size, design_rng, "real_" + std::to_string(i)));
    if (i < num_real_train) {
      set.train.push_back(std::move(p));
    } else {
      set.test.push_back(std::move(p));
    }
  }
  return set;
}

Sample make_sample(const PreparedDesign& prepared, int rough_iterations, int image_size) {
  if (rough_iterations < 1) throw ConfigError("rough_iterations must be >= 1");
  obs::count("train.samples_built");
  const pg::PgSolution rough = prepared.solver->solve_rough(rough_iterations);
  Sample s = make_inference_sample(*prepared.design, rough, image_size);
  s.label = features::label_map(*prepared.design, prepared.golden, image_size);
  return s;
}

std::vector<Sample> make_samples(const std::vector<PreparedDesign>& designs,
                                 int rough_iterations, int image_size) {
  std::vector<Sample> out;
  out.reserve(designs.size());
  for (const PreparedDesign& p : designs) {
    out.push_back(make_sample(p, rough_iterations, image_size));
  }
  return out;
}

std::vector<Sample> augment_rotations(const std::vector<Sample>& samples) {
  std::vector<Sample> out;
  out.reserve(samples.size() * 4);
  for (const Sample& s : samples) {
    for (int q = 0; q < 4; ++q) out.push_back(q == 0 ? s : rotated(s, q));
  }
  return out;
}

}  // namespace irf::train
