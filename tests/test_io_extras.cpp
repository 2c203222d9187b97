// Tests for the ICCAD-2023-style dataset import/export layer and for
// pipeline checkpointing through serve::save_checkpoint/load_checkpoint
// (save a fitted pipeline, reload, identical predictions without
// retraining).

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/env.hpp"
#include "core/pipeline.hpp"
#include "models/unet.hpp"
#include "serve/checkpoint.hpp"
#include "train/iccad_io.hpp"

namespace irf::train {
namespace {

namespace fs = std::filesystem;

ScaleConfig tiny_config() {
  ScaleConfig cfg = make_scale_config(Scale::kCi);
  cfg.image_size = 32;
  cfg.num_fake_designs = 2;
  cfg.num_real_designs = 2;
  cfg.epochs = 2;
  cfg.base_channels = 4;
  cfg.seed = 555;
  return cfg;
}

class IoFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = std::make_unique<DesignSet>(build_design_set(tiny_config()));
  }
  static void TearDownTestSuite() { set_.reset(); }
  static std::unique_ptr<DesignSet> set_;
};

std::unique_ptr<DesignSet> IoFixture::set_;

TEST_F(IoFixture, ExportImportRoundTrip) {
  const fs::path root = fs::temp_directory_path() / "irf_iccad_export";
  fs::remove_all(root);
  const std::string dir = export_design(set_->train.front(), root.string(), 32);

  for (const char* file : {"netlist.sp", "current_map.csv", "eff_dist_map.csv",
                           "pdn_density.csv", "ir_drop_map.csv"}) {
    EXPECT_TRUE(fs::exists(fs::path(dir) / file)) << file;
  }

  ImportedDesign imported = import_design(dir);
  EXPECT_EQ(imported.name, set_->train.front().design->name);
  EXPECT_TRUE(imported.has_netlist);
  EXPECT_EQ(imported.netlist.num_nodes(), set_->train.front().design->netlist.num_nodes());
  EXPECT_EQ(imported.ir_drop.height(), 32);

  // The exported golden map matches a fresh label extraction.
  const GridF fresh = features::label_map(*set_->train.front().design,
                                          set_->train.front().golden, 32);
  EXPECT_LT(mean_abs_diff(imported.ir_drop, fresh), 1e-6);
  fs::remove_all(root);
}

TEST_F(IoFixture, ExportDesignSetWritesAllDesigns) {
  const fs::path root = fs::temp_directory_path() / "irf_iccad_export_all";
  fs::remove_all(root);
  std::vector<std::string> dirs = export_design_set(*set_, root.string());
  EXPECT_EQ(dirs.size(), set_->train.size() + set_->test.size());
  for (const std::string& d : dirs) EXPECT_TRUE(fs::is_directory(d));
  fs::remove_all(root);
}

TEST_F(IoFixture, ImageOnlySampleSupportsTripletView) {
  const fs::path root = fs::temp_directory_path() / "irf_iccad_sample";
  fs::remove_all(root);
  const std::string dir = export_design(set_->test.front(), root.string(), 32);
  ImportedDesign imported = import_design(dir);
  Sample sample = make_image_only_sample(imported);
  EXPECT_EQ(view_channel_count(sample, FeatureView::kIccadTriplet), 3);
  Normalizer norm = Normalizer::fit({sample});
  nn::Tensor t = norm.input_tensor(sample, FeatureView::kIccadTriplet);
  EXPECT_EQ(t.shape().c, 3);
  for (float v : t.data()) EXPECT_TRUE(std::isfinite(v));
  fs::remove_all(root);
}

TEST_F(IoFixture, TrainOnImportedImageData) {
  // The external-data path end-to-end: export designs, re-import the image
  // layout, train the image-based baseline on them.
  const fs::path root = fs::temp_directory_path() / "irf_iccad_train";
  fs::remove_all(root);
  std::vector<Sample> samples;
  for (const PreparedDesign& p : set_->train) {
    const std::string dir = export_design(p, root.string(), 32);
    samples.push_back(make_image_only_sample(import_design(dir)));
  }
  Normalizer norm = Normalizer::fit(samples);
  Rng rng(31);
  auto model = models::make_iredge(3, 4, rng);
  TrainOptions opt;
  opt.epochs = 2;
  opt.curriculum.enabled = false;
  TrainHistory hist =
      train_model(*model, samples, FeatureView::kIccadTriplet, norm, opt);
  EXPECT_EQ(hist.epoch_loss.size(), 2u);
  EXPECT_LT(hist.epoch_loss.back(), hist.epoch_loss.front());
  fs::remove_all(root);
}

TEST(IccadIo, ImportRejectsMissingDirectory) {
  EXPECT_THROW(import_design("/nonexistent/irf_dir"), ParseError);
}

TEST_F(IoFixture, PipelineCheckpointRoundTrip) {
  core::PipelineConfig pc;
  pc.image_size = 32;
  pc.rough_iterations = 2;
  pc.base_channels = 4;
  pc.epochs = 2;
  pc.seed = 9;
  core::IrFusionPipeline pipeline(pc);
  pipeline.fit(set_->train);

  const GridF before = pipeline.analyze(*set_->test.front().design);

  const std::string path =
      (fs::temp_directory_path() / "irf_pipeline_ckpt.bin").string();
  serve::save_checkpoint(pipeline, path);
  core::IrFusionPipeline restored = serve::load_checkpoint(path);
  EXPECT_TRUE(restored.is_fitted());
  EXPECT_EQ(restored.config().rough_iterations, 2);

  const GridF after = restored.analyze(*set_->test.front().design);
  ASSERT_TRUE(before.same_shape(after));
  EXPECT_EQ(before.data(), after.data());
  fs::remove(path);
}

TEST(PipelineCheckpoint, UnfittedSaveRejected) {
  core::PipelineConfig pc;
  pc.image_size = 32;
  core::IrFusionPipeline pipeline(pc);
  EXPECT_THROW(serve::save_checkpoint(pipeline, "/tmp/never_written.bin"), ConfigError);
}

TEST(PipelineCheckpoint, BogusFileRejected) {
  const std::string path =
      (fs::temp_directory_path() / "irf_bogus_ckpt.bin").string();
  std::ofstream(path) << "not a checkpoint";
  EXPECT_THROW(serve::load_checkpoint(path), ParseError);
  fs::remove(path);
}

}  // namespace
}  // namespace irf::train
