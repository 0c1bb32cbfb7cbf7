#include "dedup/container.hpp"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>

#include "common/bytes.hpp"
#include "flow/adapters.hpp"
#include "flow/pipeline.hpp"

#include "kernels/huffman.hpp"

namespace hs::dedup {

namespace {

constexpr char kMagic[8] = {'H', 'S', 'D', 'E', 'D', 'U', 'P', '1'};
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 4 + 4;

/// Cap on allocations driven by untrusted header fields. Sizes above this
/// are still decoded correctly (vectors grow on demand); the cap only stops
/// a corrupted length field from triggering a huge up-front reserve.
constexpr std::size_t kMaxPrealloc = std::size_t{64} << 20;

struct Header {
  std::uint64_t original_size = 0;
  std::uint64_t batch_count = 0;
  kernels::LzssParams lzss;
  DedupCodec codec = DedupCodec::kLzss;
};

Result<Header> read_header(ByteReader& r) {
  std::span<const std::uint8_t> magic;
  if (!r.bytes(8, magic) ||
      std::memcmp(magic.data(), kMagic, 8) != 0) {
    return DataLoss("bad archive magic");
  }
  std::uint32_t version = 0, codec = 0;
  Header hdr;
  std::uint32_t window = 0, min_match = 0;
  if (!r.u32(version) || !r.u32(codec) || !r.u64(hdr.original_size) ||
      !r.u64(hdr.batch_count) || !r.u32(window) || !r.u32(min_match)) {
    return DataLoss("truncated archive header");
  }
  // Anything unreadable is data loss from the reader's point of view: a
  // flipped version or codec byte is indistinguishable from corruption.
  if (version != kVersion) {
    return DataLoss("unsupported archive version " + std::to_string(version));
  }
  if (codec > static_cast<std::uint32_t>(DedupCodec::kLzssHuffman)) {
    return DataLoss("unknown archive codec " + std::to_string(codec));
  }
  hdr.codec = static_cast<DedupCodec>(codec);
  if (min_match > (1u << kernels::LzssParams::kOffsetBits)) {
    return DataLoss("implausible LZSS min_match in header");
  }
  hdr.lzss.window_size = window;
  hdr.lzss.min_match = min_match;
  hdr.lzss.max_match = min_match + 15;
  if (!hdr.lzss.valid()) return DataLoss("invalid LZSS parameters in header");
  return hdr;
}

/// Validates one unique block's untrusted lengths before anything is
/// allocated from them: the block must fit its batch, and an entropy-coded
/// payload's LZSS length must be plausible for the raw length (LZSS adds at
/// most one flag byte per 8 items plus slack).
Status check_block_lengths(std::uint32_t raw_len, std::uint64_t decoded,
                           std::uint32_t original_len) {
  if (raw_len > original_len || decoded + raw_len > original_len) {
    return DataLoss("unique block exceeds its batch size");
  }
  return OkStatus();
}

Status check_lzss_len(std::uint32_t lzss_len, std::uint32_t raw_len) {
  if (lzss_len > std::uint64_t{raw_len} + raw_len / 8 + 16) {
    return DataLoss("implausible entropy-coded block length");
  }
  return OkStatus();
}

/// One parsed block record.
struct ParsedBlock {
  bool duplicate = false;
  bool entropy = false;
  std::uint32_t raw_len = 0;
  std::uint64_t ref = 0;
  std::span<const std::uint8_t> payload;  // view into the archive
};

struct ParsedBatch {
  std::uint32_t original_len = 0;
  std::vector<ParsedBlock> blocks;
  // Filled by decode_batch: decoded payloads of unique blocks, in block
  // order (empty vectors for duplicates).
  std::vector<std::vector<std::uint8_t>> decoded;
};

/// Reads batch `b`'s header and block records. Unique blocks are bounded
/// by the batch before decode_batch allocates from their lengths.
Result<ParsedBatch> parse_batch(ByteReader& r, std::uint64_t b) {
  ParsedBatch batch;
  std::uint64_t index = 0;
  std::uint32_t block_count = 0;
  if (!r.u64(index) || !r.u32(batch.original_len) || !r.u32(block_count)) {
    return DataLoss("truncated batch header");
  }
  if (index != b) return DataLoss("batch indices out of order");
  std::uint64_t claimed = 0;  // unique raw bytes declared so far
  for (std::uint32_t k = 0; k < block_count; ++k) {
    std::uint8_t tag = 0;
    if (!r.u8(tag)) return DataLoss("truncated block tag");
    ParsedBlock block;
    if (tag == 1) {
      block.duplicate = true;
      if (!r.u64(block.ref)) return DataLoss("truncated duplicate reference");
    } else if (tag == 0 || tag == 2) {
      block.entropy = tag == 2;
      std::uint32_t comp_len = 0;
      if (!r.u32(block.raw_len) || !r.u32(comp_len) ||
          !r.bytes(comp_len, block.payload)) {
        return DataLoss("truncated unique block");
      }
      HS_RETURN_IF_ERROR(
          check_block_lengths(block.raw_len, claimed, batch.original_len));
      claimed += block.raw_len;
    } else {
      return DataLoss("unknown block tag");
    }
    batch.blocks.push_back(block);
  }
  return batch;
}

/// Decodes the batch's unique payloads into `batch.decoded`.
Status decode_batch(ParsedBatch& batch, const kernels::LzssParams& lzss) {
  batch.decoded.resize(batch.blocks.size());
  for (std::size_t k = 0; k < batch.blocks.size(); ++k) {
    const ParsedBlock& block = batch.blocks[k];
    if (block.duplicate) continue;
    std::span<const std::uint8_t> payload = block.payload;
    if (block.entropy) {
      // Entropy-coded block: u32 lzss_len | huffman(lzss(block)).
      ByteReader prefix(payload);
      std::uint32_t lzss_len = 0;
      if (!prefix.u32(lzss_len)) return DataLoss("truncated codec prefix");
      HS_RETURN_IF_ERROR(check_lzss_len(lzss_len, block.raw_len));
      HS_ASSIGN_OR_RETURN(
          auto lz, kernels::huffman_decode(payload.subspan(4), lzss_len));
      HS_ASSIGN_OR_RETURN(batch.decoded[k],
                          kernels::lzss_decode(lz, block.raw_len, lzss));
    } else {
      HS_ASSIGN_OR_RETURN(batch.decoded[k],
                          kernels::lzss_decode(payload, block.raw_len, lzss));
    }
  }
  return OkStatus();
}

/// An archive's output as its decoded batches are appended in order.
struct Assembly {
  explicit Assembly(std::uint64_t original_size) {
    out.reserve(std::min<std::uint64_t>(original_size, kMaxPrealloc));
  }
  std::vector<std::uint8_t> out;
  std::vector<std::pair<std::size_t, std::uint32_t>> unique_blocks;  // (pos,len)
};

/// Appends one decoded batch, resolving duplicate references against the
/// unique blocks before them. Every block is bounded by its batch before
/// the output grows, so a reference-heavy batch cannot inflate it.
Status assemble_batch(const ParsedBatch& batch, Assembly& a) {
  std::uint64_t decoded = 0;
  for (std::size_t k = 0; k < batch.blocks.size(); ++k) {
    const ParsedBlock& block = batch.blocks[k];
    if (block.duplicate) {
      if (block.ref >= a.unique_blocks.size()) {
        return DataLoss("duplicate references a future block (id " +
                        std::to_string(block.ref) + ")");
      }
      auto [pos, len] = a.unique_blocks[block.ref];
      HS_RETURN_IF_ERROR(check_block_lengths(len, decoded, batch.original_len));
      // Self-copy from already-decoded output. Grow first, then copy by
      // index: a self-range insert may reallocate mid-insert (the reserve
      // is capped at kMaxPrealloc) and invalidate its own source iterators.
      const std::size_t old_size = a.out.size();
      a.out.resize(old_size + len);
      std::copy(a.out.begin() + static_cast<long>(pos),
                a.out.begin() + static_cast<long>(pos + len),
                a.out.begin() + static_cast<long>(old_size));
      decoded += len;
    } else {
      HS_RETURN_IF_ERROR(
          check_block_lengths(block.raw_len, decoded, batch.original_len));
      a.unique_blocks.emplace_back(a.out.size(), block.raw_len);
      a.out.insert(a.out.end(), batch.decoded[k].begin(),
                   batch.decoded[k].end());
      decoded += block.raw_len;
    }
  }
  if (decoded != batch.original_len) {
    return DataLoss("batch decoded size mismatch");
  }
  return OkStatus();
}

/// Checks the assembled output against the header's size and the
/// archive's SHA-1 trailer.
Result<std::vector<std::uint8_t>> verify_output(ByteReader& r,
                                                const Header& hdr,
                                                std::vector<std::uint8_t> out) {
  if (out.size() != hdr.original_size) {
    return DataLoss("archive decoded size mismatch");
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

}  // namespace

ArchiveWriter::ArchiveWriter(const DedupConfig& config) : config_(config) {
  // push_back loop instead of range-insert: sidesteps a GCC 12
  // -Wstringop-overflow false positive on fresh vectors.
  for (char ch : kMagic) out_.push_back(static_cast<std::uint8_t>(ch));
  put_u32(out_, kVersion);
  put_u32(out_, static_cast<std::uint32_t>(config.codec));
  put_u64(out_, 0);  // original size (patched in finish)
  put_u64(out_, 0);  // batch count (patched in finish)
  put_u32(out_, config_.lzss.window_size);
  put_u32(out_, config_.lzss.min_match);
}

Status ArchiveWriter::append(const Batch& batch) {
  if (finished_) return FailedPrecondition("archive already finished");
  if (batch.index != next_batch_index_) {
    return FailedPrecondition(
        "batches must be appended in order: expected " +
        std::to_string(next_batch_index_) + ", got " +
        std::to_string(batch.index));
  }
  ++next_batch_index_;
  put_u64(out_, batch.index);
  put_u32(out_, static_cast<std::uint32_t>(batch.data.size()));
  put_u32(out_, static_cast<std::uint32_t>(batch.blocks.size()));
  for (const BlockInfo& block : batch.blocks) {
    if (block.duplicate) {
      out_.push_back(1);
      put_u64(out_, block.global_id);
    } else {
      out_.push_back(block.entropy_coded ? 2 : 0);
      put_u32(out_, block.len);
      put_u32(out_, static_cast<std::uint32_t>(block.compressed.size()));
      out_.insert(out_.end(), block.compressed.begin(),
                  block.compressed.end());
    }
  }
  original_size_ += batch.data.size();
  ++batch_count_;
  return OkStatus();
}

std::vector<std::uint8_t> ArchiveWriter::finish(
    const kernels::Sha1Digest& input_digest) {
  finished_ = true;
  patch_u64(out_, 16, original_size_);
  patch_u64(out_, 24, batch_count_);
  out_.insert(out_.end(), input_digest.begin(), input_digest.end());
  return std::move(out_);
}

Result<std::vector<std::uint8_t>> extract(
    std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  HS_ASSIGN_OR_RETURN(const Header hdr, read_header(r));
  Assembly a(hdr.original_size);
  for (std::uint64_t b = 0; b < hdr.batch_count; ++b) {
    HS_ASSIGN_OR_RETURN(ParsedBatch batch, parse_batch(r, b));
    HS_RETURN_IF_ERROR(decode_batch(batch, hdr.lzss));
    HS_RETURN_IF_ERROR(assemble_batch(batch, a));
  }
  return verify_output(r, hdr, std::move(a.out));
}

Result<ArchiveInfo> inspect(std::span<const std::uint8_t> archive) {
  ByteReader r(archive);
  HS_ASSIGN_OR_RETURN(const Header hdr, read_header(r));
  ArchiveInfo info;
  info.original_size = hdr.original_size;
  info.batch_count = hdr.batch_count;
  for (std::uint64_t b = 0; b < hdr.batch_count; ++b) {
    HS_ASSIGN_OR_RETURN(const ParsedBatch batch, parse_batch(r, b));
    for (const ParsedBlock& block : batch.blocks) {
      if (block.duplicate) {
        ++info.duplicate_blocks;
        continue;
      }
      ++info.unique_blocks;
      if (block.entropy) ++info.entropy_blocks;
      info.compressed_payload_bytes += block.payload.size();
    }
  }
  return info;
}

Result<std::vector<std::uint8_t>> extract_parallel(
    std::span<const std::uint8_t> archive, int replicas) {
  ByteReader r(archive);
  HS_ASSIGN_OR_RETURN(const Header header, read_header(r));
  Assembly a(header.original_size);
  // Each stage reports corruption by throwing; the pipeline surfaces it.
  const auto check = [](const Status& s) {
    if (!s.ok()) throw std::runtime_error(s.message());
  };

  flow::Pipeline pipe;
  // Source: parse one batch per service call (serial, cheap).
  pipe.add_stage(
      flow::make_source<ParsedBatch>(
          [&r, &header, &check, b = std::uint64_t{0}]() mutable
              -> std::optional<ParsedBatch> {
            if (b >= header.batch_count) return std::nullopt;
            Result<ParsedBatch> batch = parse_batch(r, b++);
            check(batch.status());
            return std::move(batch).value();
          }),
      "parse");
  // Farm: decompress the unique payloads of each batch.
  pipe.add_farm(
      [&header, &check] {
        return flow::make_stage<ParsedBatch, ParsedBatch>(
            [&header, &check](ParsedBatch batch) {
              check(decode_batch(batch, header.lzss));
              return batch;
            });
      },
      std::max(1, replicas), "decode");
  // Sink: assemble in order, resolving duplicate references.
  pipe.add_stage(flow::make_sink<ParsedBatch>([&a, &check](ParsedBatch batch) {
                   check(assemble_batch(batch, a));
                 }),
                 "assemble");

  if (Status s = pipe.run_and_wait(); !s.ok()) {
    // Stage exceptions surface as INTERNAL; re-tag as data loss (they all
    // describe archive corruption).
    return DataLoss(s.message());
  }
  return verify_output(r, header, std::move(a.out));
}

}  // namespace hs::dedup
