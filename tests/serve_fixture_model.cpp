// Trains the ServeFixture pipeline of tests/test_serve.cpp and writes its
// checkpoint to argv[1]. ctest runs this once per test run (fixture
// `serve_model`), and every ServeFixture process loads the file instead of
// training again. Before writing, it checks that the checkpoint restores to
// bit-identical analyze() maps on every design, so the fit -> save -> load
// contract stays tested when the cases only see the loaded pipeline.
//
//   serve_fixture_model OUT.irf

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "serve/checkpoint.hpp"
#include "serve_fixture.hpp"

int main(int argc, char** argv) {
  using namespace irf;
  if (argc != 2) {
    std::fprintf(stderr, "usage: serve_fixture_model OUT.irf\n");
    return 2;
  }
  try {
    const std::string out = argv[1];
    const std::string staged = out + ".partial";
    const train::DesignSet set =
        train::build_design_set(testing_support::serve_fixture_scale());
    core::IrFusionPipeline pipeline(testing_support::tiny_pipeline_config());
    pipeline.fit(set.train);
    serve::save_checkpoint(pipeline, staged);
    const core::IrFusionPipeline restored = serve::load_checkpoint(staged);
    for (const auto* designs : {&set.train, &set.test}) {
      for (const train::PreparedDesign& p : *designs) {
        if (pipeline.analyze(*p.design).data() != restored.analyze(*p.design).data()) {
          std::fprintf(stderr, "restored pipeline differs on %s\n", p.design->name.c_str());
          return 1;
        }
      }
    }
    std::filesystem::rename(staged, out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve_fixture_model: %s\n", e.what());
    return 1;
  }
  return 0;
}
