#include "serve/checkpoint.hpp"

#include <fstream>
#include <map>
#include <sstream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/hash.hpp"
#include "nn/serialize.hpp"

namespace irf::serve {

namespace {

void write_string(std::ostream& out, const std::string& s) {
  write_pod(out, static_cast<std::uint32_t>(s.size()));
  out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

/// Payload bytes `in` has not consumed yet (0 once it has failed).
std::uint64_t unread(std::istream& in, std::size_t payload_bytes) {
  const std::streamoff pos = in.tellg();
  return pos < 0 ? 0 : payload_bytes - static_cast<std::uint64_t>(pos);
}

/// Length-prefixed string; a length past the end of the payload is
/// rejected before anything is allocated for it.
std::string read_string(std::istream& in, std::size_t payload_bytes) {
  std::uint32_t n = 0;
  read_pod(in, n);
  if (n > unread(in, payload_bytes)) throw ParseError("checkpoint string overruns payload");
  std::string s(n, '\0');
  in.read(s.data(), static_cast<std::streamsize>(n));
  return s;
}

void write_config(std::ostream& out, const core::PipelineConfig& c) {
  write_pod(out, static_cast<std::int32_t>(c.image_size));
  write_pod(out, static_cast<std::int32_t>(c.rough_iterations));
  write_pod(out, static_cast<std::int32_t>(c.base_channels));
  write_pod(out, static_cast<std::int32_t>(c.epochs));
  write_pod(out, c.learning_rate);
  write_pod(out, c.seed);
  const std::uint8_t flags[7] = {
      c.use_numerical, c.use_hierarchical, c.use_inception, c.use_cbam,
      c.use_augmentation, c.use_curriculum, c.use_residual};
  write_bytes(out, flags, sizeof(flags));
}

core::PipelineConfig read_config(std::istream& in) {
  core::PipelineConfig c;
  std::int32_t v = 0;
  read_pod(in, v);
  c.image_size = v;
  read_pod(in, v);
  c.rough_iterations = v;
  read_pod(in, v);
  c.base_channels = v;
  read_pod(in, v);
  c.epochs = v;
  read_pod(in, c.learning_rate);
  read_pod(in, c.seed);
  std::uint8_t flags[7] = {};
  read_bytes(in, flags, sizeof(flags));
  c.use_numerical = flags[0];
  c.use_hierarchical = flags[1];
  c.use_inception = flags[2];
  c.use_cbam = flags[3];
  c.use_augmentation = flags[4];
  c.use_curriculum = flags[5];
  c.use_residual = flags[6];
  return c;
}

}  // namespace

void save_checkpoint(core::IrFusionPipeline& pipeline, const std::string& path) {
  if (!pipeline.is_fitted()) {
    throw ConfigError("save_checkpoint: pipeline not fitted");
  }
  // Serialize the payload first so the header can carry its size + digest.
  std::ostringstream payload_out(std::ios::binary);
  write_config(payload_out, pipeline.config());
  write_pod(payload_out, static_cast<std::int32_t>(pipeline.model().in_channels()));
  const auto& scales = pipeline.normalizer().scales();
  write_pod(payload_out, static_cast<std::uint32_t>(scales.size()));
  for (const auto& [name, scale] : scales) {
    write_string(payload_out, name);
    write_pod(payload_out, scale);
  }
  nn::save_state(pipeline.model(), payload_out);
  const std::string payload = payload_out.str();

  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open checkpoint for write: " + path);
  write_pod(out, kCheckpointMagic);
  write_pod(out, kCheckpointVersion);
  write_pod(out, static_cast<std::uint64_t>(payload.size()));
  write_pod(out, fnv1a64(payload.data(), payload.size()));
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw Error("checkpoint write failed: " + path);
}

core::IrFusionPipeline load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for read: " + path);
  std::uint32_t magic = 0;
  read_pod(in, magic);
  if (!in) throw ParseError("checkpoint too short: " + path);
  if (magic != kCheckpointMagic) {
    throw ParseError("not an IR-Fusion checkpoint: " + path);
  }
  std::uint32_t version = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;
  read_pod(in, version);
  read_pod(in, payload_bytes);
  read_pod(in, checksum);
  if (!in) throw ParseError("checkpoint header truncated: " + path);
  if (version > kCheckpointVersion) {
    throw ParseError("checkpoint " + path + " has version " + std::to_string(version) +
                     "; this build reads <= " + std::to_string(kCheckpointVersion));
  }
  // The header's size claim is checked against the file before anything is
  // allocated for it.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const std::uint64_t file_rest = static_cast<std::uint64_t>(in.tellg() - body);
  in.seekg(body);
  if (payload_bytes > file_rest) {
    throw ParseError("checkpoint payload truncated: " + path);
  }
  std::string payload(static_cast<std::size_t>(payload_bytes), '\0');
  in.read(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (in.gcount() != static_cast<std::streamsize>(payload.size())) {
    throw ParseError("checkpoint payload truncated: " + path);
  }
  if (fnv1a64(payload.data(), payload.size()) != checksum) {
    throw ParseError("checkpoint checksum mismatch (corrupt file): " + path);
  }

  std::istringstream payload_in(payload, std::ios::binary);
  core::PipelineConfig config = read_config(payload_in);
  core::validate_config(config);  // never trust on-disk bytes blindly
  std::int32_t channels = 0;
  read_pod(payload_in, channels);
  std::uint32_t num_scales = 0;
  read_pod(payload_in, num_scales);
  if (!payload_in) throw ParseError("checkpoint payload malformed: " + path);
  // A scale is at least a 4-byte length and a 4-byte value.
  if (num_scales > unread(payload_in, payload.size()) / 8) {
    throw ParseError("checkpoint scale count overruns payload: " + path);
  }
  std::map<std::string, float> scales;
  for (std::uint32_t i = 0; i < num_scales; ++i) {
    std::string name = read_string(payload_in, payload.size());
    float scale = 0.0f;
    read_pod(payload_in, scale);
    scales.emplace(std::move(name), scale);
  }
  if (!payload_in) throw ParseError("checkpoint payload malformed: " + path);
  // Every model of this config holds at least the 3x3 weights of its stem
  // (channels -> b -> b) and of its deepest up-projection (8b -> 4b):
  // 9 b (channels + 33 b) floats. Channel counts whose weights the rest of
  // the payload cannot hold are rejected before the model is built.
  const std::uint64_t base = static_cast<std::uint64_t>(config.base_channels);
  const std::uint64_t budget = unread(payload_in, payload.size()) / (9 * sizeof(float));
  if (channels < 1 ||
      static_cast<std::uint64_t>(channels) + 33 * base > budget / base) {
    throw ParseError("checkpoint has invalid channel count: " + path);
  }
  return core::IrFusionPipeline::restore(
      config, train::Normalizer::from_scales(std::move(scales)), channels, payload_in);
}

bool is_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::uint32_t magic = 0;
  read_pod(in, magic);
  return in && magic == kCheckpointMagic;
}

}  // namespace irf::serve
