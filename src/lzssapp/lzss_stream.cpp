#include "lzssapp/lzss_stream.hpp"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/bytes.hpp"
#include "kernels/sha1.hpp"
#include "spar/gpu_stage.hpp"
#include "spar/spar.hpp"

namespace hs::lzssapp {

namespace {

constexpr char kMagic[8] = {'H', 'S', 'L', 'Z', 'S', 'S', '0', '1'};

/// Cap on the up-front reserve from the header's untrusted original size;
/// larger outputs still decode (the vector grows on demand).
constexpr std::size_t kMaxPrealloc = std::size_t{64} << 20;

struct Block {
  std::uint64_t index = 0;
  std::vector<std::uint8_t> raw;
  std::vector<std::uint8_t> compressed;
  std::vector<kernels::LzssMatch> matches;  ///< FindMatch pass -> encode

  [[nodiscard]] bool empty() const { return raw.empty(); }
};

/// Ordered container writer shared by all variants.
class Writer {
 public:
  explicit Writer(const LzssStreamConfig& config) {
    // (push_back loop: GCC 12 -Wstringop-overflow false positive)
    for (char ch : kMagic) out_.push_back(static_cast<std::uint8_t>(ch));
    put_u32(out_, config.block_size);
    put_u32(out_, config.lzss.window_size);
    put_u32(out_, config.lzss.min_match);
    put_u64(out_, 0);  // original size, patched
    put_u64(out_, 0);  // block count, patched
  }

  Status append(const Block& block) {
    if (block.index != next_index_) {
      return FailedPrecondition("blocks out of order");
    }
    ++next_index_;
    put_u32(out_, static_cast<std::uint32_t>(block.raw.size()));
    put_u32(out_, static_cast<std::uint32_t>(block.compressed.size()));
    out_.insert(out_.end(), block.compressed.begin(), block.compressed.end());
    original_ += block.raw.size();
    return OkStatus();
  }

  std::vector<std::uint8_t> finish(const kernels::Sha1Digest& digest) {
    patch_u64(out_, 20, original_);
    patch_u64(out_, 28, next_index_);
    out_.insert(out_.end(), digest.begin(), digest.end());
    return std::move(out_);
  }

 private:
  std::vector<std::uint8_t> out_;
  std::uint64_t next_index_ = 0;
  std::uint64_t original_ = 0;
};

std::function<std::optional<Block>()> block_source(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config) {
  return [input, bs = std::max<std::uint32_t>(1, config.block_size),
          offset = std::size_t{0}, index = std::uint64_t{0}]() mutable
             -> std::optional<Block> {
    if (offset >= input.size()) return std::nullopt;
    std::size_t n = std::min<std::size_t>(bs, input.size() - offset);
    Block block;
    block.index = index++;
    block.raw.assign(input.begin() + static_cast<long>(offset),
                     input.begin() + static_cast<long>(offset + n));
    offset += n;
    return block;
  };
}

void compress_block_cpu(Block& block, const LzssStreamConfig& config) {
  block.compressed = kernels::lzss_encode(block.raw, config.lzss);
}

}  // namespace

Result<std::vector<std::uint8_t>> compress_sequential(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config) {
  if (!config.lzss.valid()) return InvalidArgument("bad LZSS parameters");
  Writer writer(config);
  auto source = block_source(input, config);
  while (auto block = source()) {
    compress_block_cpu(*block, config);
    if (Status s = writer.append(*block); !s.ok()) return s;
  }
  return writer.finish(kernels::Sha1::hash(input));
}

Result<std::vector<std::uint8_t>> compress_spar(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config,
    int replicas) {
  if (!config.lzss.valid()) return InvalidArgument("bad LZSS parameters");
  Writer writer(config);
  Status append_status;
  spar::ToStream region("lzss-stream");
  region.source<Block>(block_source(input, config));
  region.stage<Block, Block>(spar::Replicate(replicas),
                             [config](Block block) {
                               compress_block_cpu(block, config);
                               return block;
                             });
  region.last_stage<Block>([&](Block block) {
    Status s = writer.append(block);
    if (!s.ok() && append_status.ok()) append_status = s;
  });
  if (Status s = region.run(); !s.ok()) return s;
  if (!append_status.ok()) return append_status;
  return writer.finish(kernels::Sha1::hash(input));
}

namespace {

/// GPU pass of the [24] structure: FindMatch on the device (one thread per
/// position) into block.matches; the stage then runs the encode walk on the
/// CPU. Idempotent.
Status find_match_pass(const LzssStreamConfig& config, spar::CudaDevice& dev,
                       Block& block) {
  const std::size_t n = block.raw.size();
  const std::size_t bytes = n * sizeof(kernels::LzssMatch);
  auto data = dev.upload(0, block.raw.data(), n, "lzss.h2d");
  if (!data.ok()) return data.status();
  auto match_buf = dev.scratch(1, bytes);
  if (!match_buf.ok()) return match_buf.status();
  const auto* in = static_cast<const std::uint8_t*>(data.value());
  auto* out = static_cast<kernels::LzssMatch*>(match_buf.value());
  const kernels::LzssParams lzss = config.lzss;
  HS_RETURN_IF_ERROR(dev.launch(
      n, 256, "lzss.kernel", [in, out, n, lzss](std::uint64_t pos) {
        out[pos] = kernels::lzss_longest_match(
            std::span<const std::uint8_t>(in, n), 0, n, pos, lzss);
        return kernels::lzss_match_cost(0, pos, lzss);
      }));
  std::uint8_t* host = dev.staging(bytes);
  HS_RETURN_IF_ERROR(dev.download(host, out, bytes, "lzss.d2h"));
  HS_RETURN_IF_ERROR(dev.sync("lzss.sync"));
  block.matches.resize(n);
  std::memcpy(block.matches.data(), host, bytes);
  return OkStatus();
}

}  // namespace

Result<std::vector<std::uint8_t>> compress_spar_cuda(
    std::span<const std::uint8_t> input, const LzssStreamConfig& config,
    int replicas, gpusim::Machine& machine) {
  if (!config.lzss.valid()) return InvalidArgument("bad LZSS parameters");
  if (machine.device_count() == 0) {
    return InvalidArgument("machine has no devices");
  }
  Writer writer(config);
  Status append_status;
  spar::ToStream region("lzss-stream-cuda");
  region.source<Block>(block_source(input, config));
  spar::GpuStage stage;
  stage.machine = &machine;
  stage.replicas = replicas;
  stage.ladder.label = "lzss.findmatch";
  stage.ladder.setup_label = "lzss.setup";
  spar::gpu_stage<Block>(
      region, stage,
      [config](spar::CudaDevice& dev, Block& block) {
        return find_match_pass(config, dev, block);
      },
      [config](Block& block) { compress_block_cpu(block, config); },
      [config](Block& block) {
        block.compressed = kernels::lzss_encode_from_matches(
            block.raw, 0, block.raw.size(), block.matches, config.lzss);
        block.matches = std::vector<kernels::LzssMatch>();  // free it now
      });
  region.last_stage<Block>([&](Block block) {
    Status s = writer.append(block);
    if (!s.ok() && append_status.ok()) append_status = s;
  });
  if (Status s = region.run(); !s.ok()) return s;
  if (!append_status.ok()) return append_status;
  return writer.finish(kernels::Sha1::hash(input));
}

namespace {

struct ParsedHeader {
  kernels::LzssParams lzss;
  std::uint64_t original_size = 0;
  std::uint64_t block_count = 0;
};

Result<ParsedHeader> parse_header(ByteReader& r) {
  std::span<const std::uint8_t> magic;
  if (!r.bytes(8, magic) || std::memcmp(magic.data(), kMagic, 8) != 0) {
    return DataLoss("bad LZSS container magic");
  }
  ParsedHeader hdr;
  std::uint32_t block_size = 0, window = 0, min_match = 0;
  if (!r.u32(block_size) || !r.u32(window) || !r.u32(min_match) ||
      !r.u64(hdr.original_size) || !r.u64(hdr.block_count)) {
    return DataLoss("truncated LZSS container header");
  }
  hdr.lzss.window_size = window;
  hdr.lzss.min_match = min_match;
  hdr.lzss.max_match = min_match + 15;
  if (!hdr.lzss.valid()) return DataLoss("invalid LZSS parameters");
  return hdr;
}

}  // namespace

Result<std::vector<std::uint8_t>> decompress(
    std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  HS_ASSIGN_OR_RETURN(const ParsedHeader hdr, parse_header(r));
  std::vector<std::uint8_t> out;
  out.reserve(std::min<std::uint64_t>(hdr.original_size, kMaxPrealloc));
  for (std::uint64_t b = 0; b < hdr.block_count; ++b) {
    std::uint32_t raw_len = 0, comp_len = 0;
    std::span<const std::uint8_t> payload;
    if (!r.u32(raw_len) || !r.u32(comp_len) || !r.bytes(comp_len, payload)) {
      return DataLoss("truncated LZSS container block");
    }
    HS_ASSIGN_OR_RETURN(const auto block,
                        kernels::lzss_decode(payload, raw_len, hdr.lzss));
    out.insert(out.end(), block.begin(), block.end());
  }
  if (out.size() != hdr.original_size) {
    return DataLoss("decoded size mismatch");
  }
  std::span<const std::uint8_t> trailer;
  if (!r.bytes(20, trailer)) return DataLoss("missing integrity trailer");
  kernels::Sha1Digest expect{};
  std::memcpy(expect.data(), trailer.data(), 20);
  if (kernels::Sha1::hash(out) != expect) {
    return DataLoss("integrity check failed: SHA-1 mismatch");
  }
  return out;
}

Result<LzssStreamInfo> inspect(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  HS_ASSIGN_OR_RETURN(const ParsedHeader hdr, parse_header(r));
  LzssStreamInfo info;
  info.original_size = hdr.original_size;
  info.block_count = hdr.block_count;
  for (std::uint64_t b = 0; b < hdr.block_count; ++b) {
    std::uint32_t raw_len = 0, comp_len = 0;
    std::span<const std::uint8_t> payload;
    if (!r.u32(raw_len) || !r.u32(comp_len) || !r.bytes(comp_len, payload)) {
      return DataLoss("truncated LZSS container block");
    }
    info.compressed_payload += comp_len;
  }
  return info;
}

}  // namespace hs::lzssapp
