// Seeded, bounded mutational fuzz of the serve checkpoint reader. A valid
// checkpoint is mutated three ways: raw damage (byte flips, truncation,
// inserted bytes, extreme integers anywhere), lies in the header's size and
// version fields, and payload damage re-sealed with a fresh size and
// checksum so the parser behind the checksum sees it. Every mutant must
// load or throw an irf::Error; a size claim the file cannot back must never
// reach an allocation. The seed and the mutant count are fixed, so every
// run checks the same mutants; a wall-clock cap keeps sanitizer builds
// bounded.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/pipeline.hpp"
#include "models/unet.hpp"
#include "nn/serialize.hpp"
#include "serve/checkpoint.hpp"

namespace irf::serve {
namespace {

constexpr std::uint64_t kSeed = 20261020;
constexpr int kMutants = 900;
constexpr double kBudgetSeconds = 60.0;
constexpr int kChannels = 6;

// Header: magic u32 | version u32 | payload_bytes u64 | checksum u64.
constexpr std::size_t kSizeOffset = 8;
constexpr std::size_t kChecksumOffset = 16;
constexpr std::size_t kHeaderBytes = 24;
// Payload: config (4 x i32, f64, u64, 7 flag bytes) | channels i32 |
// scale count u32 | scales | model state.
constexpr std::size_t kChannelsOffset = 39;
constexpr std::size_t kScaleCountOffset = 43;
constexpr std::size_t kFirstNameOffset = 47;

std::string temp_path(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + ".irf"))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void put(std::string& bytes, std::size_t offset, T value) {
  if (offset + sizeof(T) > bytes.size()) return;
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

/// A checkpoint of an untrained IR-Fusion model: training changes the
/// weight values, not the format.
std::string base_checkpoint() {
  core::PipelineConfig pc;
  pc.image_size = 16;
  pc.base_channels = 4;
  pc.seed = 3;
  Rng rng(pc.seed);
  std::unique_ptr<models::IrModel> model =
      models::make_ir_fusion_net(kChannels, pc.base_channels, rng);
  std::stringstream state(std::ios::in | std::ios::out | std::ios::binary);
  nn::save_state(*model, state);
  core::IrFusionPipeline pipeline = core::IrFusionPipeline::restore(
      pc, train::Normalizer::from_scales({{"current_all", 0.5f}, {"eff_dist", 0.25f}}),
      kChannels, state);
  const std::string path = temp_path("irf_fuzz_ckpt_base");
  save_checkpoint(pipeline, path);
  std::string bytes = read_file(path);
  std::filesystem::remove(path);
  return bytes;
}

/// Rewrite the header's size and checksum so they match the payload.
void reseal(std::string& bytes) {
  if (bytes.size() < kHeaderBytes) return;
  const std::uint64_t size = bytes.size() - kHeaderBytes;
  put(bytes, kSizeOffset, size);
  put(bytes, kChecksumOffset, fnv1a64(bytes.data() + kHeaderBytes, size));
}

std::uint32_t extreme_u32(Rng& rng) {
  static const std::uint32_t kValues[] = {0u, 1u, 2u, 0x7fffffffu, 0x80000000u,
                                          0xffffffffu, 1u << 20, 1u << 28};
  if (rng.bernoulli(0.25)) return static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 30));
  return kValues[rng.uniform_int(0, 7)];
}

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
}

/// Damage somewhere in [lo, bytes.size()); the sized fields near `lo` are
/// hit more often than the weight blob.
void damage(std::string& bytes, std::size_t lo, Rng& rng) {
  if (bytes.size() <= lo) {
    bytes.push_back(static_cast<char>(rng.uniform_int(0, 255)));
    return;
  }
  const std::size_t span = bytes.size() - lo;
  const std::size_t at =
      lo + (rng.bernoulli(0.5) ? pick(rng, std::min<std::size_t>(span, 96)) : pick(rng, span));
  switch (rng.uniform_int(0, 3)) {
    case 0:  // byte flip
      bytes[at] = static_cast<char>(rng.uniform_int(0, 255));
      break;
    case 1:  // truncation
      bytes.resize(at);
      break;
    case 2:  // inserted bytes
      bytes.insert(at, static_cast<std::size_t>(rng.uniform_int(1, 8)),
                   static_cast<char>(rng.uniform_int(0, 255)));
      break;
    default:  // extreme integer
      put(bytes, at, extreme_u32(rng));
      break;
  }
}

void mutate(std::string& bytes, Rng& rng) {
  const int mutations = rng.uniform_int(1, 3);
  switch (rng.uniform_int(0, 2)) {
    case 0:  // raw damage: the checksum or the header checks must catch it
      for (int k = 0; k < mutations; ++k) damage(bytes, 0, rng);
      break;
    case 1: {  // header lies about the payload size or the version
      static const std::uint64_t kSizes[] = {~0ull, 1ull << 63, 1ull << 40, 1ull << 32};
      if (rng.bernoulli(0.3)) {
        put(bytes, 4, extreme_u32(rng));
      } else if (rng.bernoulli(0.5)) {
        put(bytes, kSizeOffset, kSizes[rng.uniform_int(0, 3)]);
      } else {
        const std::uint64_t real = bytes.size() - kHeaderBytes;
        put(bytes, kSizeOffset, real + static_cast<std::uint64_t>(rng.uniform_int(1, 4096)));
      }
      break;
    }
    default:  // payload damage behind a valid checksum: the parser must cope
      for (int k = 0; k < mutations; ++k) damage(bytes, kHeaderBytes, rng);
      reseal(bytes);
      break;
  }
}

/// True when `bytes` loads; false when it is rejected with an irf::Error.
/// Any other exception fails the test.
bool loads(const std::string& path, const std::string& bytes, const std::string& what) {
  write_file(path, bytes);
  try {
    const core::IrFusionPipeline pipeline = load_checkpoint(path);
    EXPECT_TRUE(pipeline.is_fitted()) << what;
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-irf exception from load_checkpoint: " << e.what();
    return false;
  }
}

TEST(CheckpointFuzz, HostileSizeClaimsAreParseErrors) {
  const std::string base = base_checkpoint();
  const std::string path = temp_path("irf_fuzz_ckpt_claims");
  ASSERT_TRUE(loads(path, base, "unmutated"));

  // A bare header claiming 2^63 payload bytes: rejected before anything is
  // allocated for the claim (std::string(payload_bytes) throws
  // std::length_error, not an irf::Error).
  std::string header = base.substr(0, kHeaderBytes);
  put(header, kSizeOffset, std::uint64_t{1} << 63);
  write_file(path, header);
  EXPECT_THROW(load_checkpoint(path), ParseError);

  // Behind a valid checksum: a scale count, a name length and a channel
  // count the payload cannot hold.
  const auto resealed = [&](std::size_t offset, std::uint32_t value) {
    std::string bytes = base;
    put(bytes, kHeaderBytes + offset, value);
    reseal(bytes);
    write_file(path, bytes);
  };
  resealed(kScaleCountOffset, 0xffffffffu);
  EXPECT_THROW(load_checkpoint(path), ParseError);
  resealed(kFirstNameOffset, 0xfffffff0u);
  EXPECT_THROW(load_checkpoint(path), ParseError);
  resealed(kChannelsOffset, 0x7fffffffu);
  EXPECT_THROW(load_checkpoint(path), ParseError);
  resealed(kChannelsOffset, 0u);
  EXPECT_THROW(load_checkpoint(path), ParseError);
  std::filesystem::remove(path);
}

TEST(CheckpointFuzz, OnlyIrfErrorsEscape) {
  const std::string base = base_checkpoint();
  const std::string path = temp_path("irf_fuzz_ckpt");
  Rng rng(kSeed);
  const auto start = std::chrono::steady_clock::now();
  int loaded = 0;
  int rejected = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::string bytes = base;
    mutate(bytes, rng);
    const std::string what = "mutant " + std::to_string(m);
    (loads(path, bytes, what) ? loaded : rejected) += 1;
    if (HasFailure()) FAIL() << "stopping at " << what;
    const std::chrono::duration<double> spent = std::chrono::steady_clock::now() - start;
    if (spent.count() > kBudgetSeconds) break;
  }
  std::filesystem::remove(path);
  // Some mutants (weight bytes behind a resealed checksum) still load; most
  // are rejected. Both outcomes must occur, or the fuzz tests little.
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, loaded);
}

}  // namespace
}  // namespace irf::serve
