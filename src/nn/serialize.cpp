#include "nn/serialize.hpp"

#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "nn/module.hpp"

namespace irf::nn {

namespace {
constexpr std::uint32_t kMagic = 0x49524E4E;  // "IRNN"
}  // namespace

void save_parameters(const std::vector<Tensor>& params, std::ostream& out) {
  write_pod(out, kMagic);
  write_pod(out, static_cast<std::uint32_t>(params.size()));
  for (const Tensor& p : params) {
    const Shape& s = p.shape();
    write_pod(out, s.n);
    write_pod(out, s.c);
    write_pod(out, s.h);
    write_pod(out, s.w);
    write_bytes(out, p.data().data(), p.data().size() * sizeof(float));
  }
  if (!out) throw Error("checkpoint stream write failed");
}

void save_parameters(const std::vector<Tensor>& params, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open checkpoint for write: " + path);
  save_parameters(params, out);
  if (!out) throw Error("checkpoint write failed: " + path);
}

void load_parameters(std::vector<Tensor>& params, std::istream& in) {
  std::uint32_t magic = 0;
  std::uint32_t count = 0;
  read_pod(in, magic);
  read_pod(in, count);
  if (magic != kMagic) throw ParseError("stream is not an irf checkpoint");
  if (count != params.size()) {
    throw DimensionError("checkpoint has " + std::to_string(count) + " tensors, model has " +
                         std::to_string(params.size()));
  }
  for (Tensor& p : params) {
    Shape s;
    read_pod(in, s.n);
    read_pod(in, s.c);
    read_pod(in, s.h);
    read_pod(in, s.w);
    if (!(s == p.shape())) {
      throw DimensionError("checkpoint tensor shape " + s.str() + " != model " +
                           p.shape().str());
    }
    read_bytes(in, p.data().data(), p.data().size() * sizeof(float));
    if (!in) throw ParseError("checkpoint stream truncated");
  }
}

void save_buffers(const std::vector<std::vector<float>*>& buffers, std::ostream& out) {
  write_pod(out, static_cast<std::uint32_t>(buffers.size()));
  for (const std::vector<float>* buf : buffers) {
    write_pod(out, static_cast<std::uint32_t>(buf->size()));
    write_bytes(out, buf->data(), buf->size() * sizeof(float));
  }
  if (!out) throw Error("buffer stream write failed");
}

void load_buffers(const std::vector<std::vector<float>*>& buffers, std::istream& in) {
  std::uint32_t count = 0;
  read_pod(in, count);
  if (count != buffers.size()) {
    throw DimensionError("checkpoint has " + std::to_string(count) + " buffers, model has " +
                         std::to_string(buffers.size()));
  }
  for (std::vector<float>* buf : buffers) {
    std::uint32_t size = 0;
    read_pod(in, size);
    if (size != buf->size()) {
      throw DimensionError("checkpoint buffer size " + std::to_string(size) +
                           " != model buffer size " + std::to_string(buf->size()));
    }
    read_bytes(in, buf->data(), buf->size() * sizeof(float));
    if (!in) throw ParseError("buffer stream truncated");
  }
}

void load_parameters(std::vector<Tensor>& params, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for read: " + path);
  load_parameters(params, in);
}

void save_state(Module& module, std::ostream& out) {
  save_parameters(module.parameters(), out);
  save_buffers(module.buffers(), out);
}

void load_state(Module& module, std::istream& in) {
  std::vector<Tensor> params = module.parameters();
  load_parameters(params, in);
  load_buffers(module.buffers(), in);
}

}  // namespace irf::nn
