// Byte serialization for work shipped between workers (external work
// stealing, §4.2). The paper's point that inter-process stealing "involves
// serializing, sending, receiving and deserializing data structures" is
// preserved faithfully: stolen work crosses the simulated worker boundary
// only as bytes produced/consumed by this codec.
#ifndef FRACTAL_RUNTIME_CODEC_H_
#define FRACTAL_RUNTIME_CODEC_H_

#include <cstdint>
#include <span>
#include <vector>

#include "enumerate/enumerator.h"
#include "enumerate/subgraph.h"

namespace fractal {

/// Append-only little-endian byte buffer.
class ByteWriter {
 public:
  void PutU32(uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      bytes_.push_back(static_cast<uint8_t>(value >> shift));
    }
  }
  void PutU8(uint8_t value) { bytes_.push_back(value); }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> Take() && { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
};

/// Sequential reader over a byte buffer; out-of-bounds reads set !ok().
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& bytes) : bytes_(bytes) {}

  uint32_t GetU32() {
    if (position_ + 4 > bytes_.size()) {
      ok_ = false;
      return 0;
    }
    uint32_t value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<uint32_t>(bytes_[position_++]) << shift;
    }
    return value;
  }
  uint8_t GetU8() {
    if (position_ >= bytes_.size()) {
      ok_ = false;
      return 0;
    }
    return bytes_[position_++];
  }

  bool ok() const { return ok_; }
  bool AtEnd() const { return position_ == bytes_.size(); }
  /// Bytes not yet read: the bound a decoder checks claimed counts against
  /// before sizing anything by them.
  size_t remaining() const { return bytes_.size() - position_; }

 private:
  const std::vector<uint8_t>& bytes_;
  size_t position_ = 0;
  bool ok_ = true;
};

/// Id ranges a StolenWork received from another worker must fall in: the
/// step's graph and plan. The thief checks them before anything is sized or
/// searched by the payload's ids.
struct StolenWorkBounds {
  uint32_t num_vertices = 0;  // prefix vertex ids
  uint32_t num_edges = 0;     // prefix edge ids
  /// `extension` of ordinary work: a vertex or an edge id, by strategy.
  uint32_t num_extensions = 0;
  /// expansions_before[p]: E primitives before primitive p of the step's
  /// plan (p up to the plan's end). Work at `primitive_index` p carries a
  /// prefix one push short of that, as the frame it was claimed from did,
  /// so its DFS stays within the step's frames.
  std::span<const uint32_t> expansions_before;
  /// Replay roots of the current salvage pass: a replay root
  /// (kReplayRootPrimitive, empty prefix) names one by `extension`.
  uint32_t num_replay_roots = 0;
};

/// Encodes/decodes Subgraph and StolenWork values.
class SubgraphCodec {
 public:
  static void EncodeSubgraph(const Subgraph& subgraph, ByteWriter* writer);
  static bool DecodeSubgraph(ByteReader* reader, Subgraph* subgraph);

  static std::vector<uint8_t> EncodeStolenWork(
      const SubgraphEnumerator::StolenWork& work);
  /// Decodes `bytes` into `*work`, or returns false when they are malformed
  /// or, given `bounds`, outside them. A rejected payload leaves `*work`
  /// reusable with an empty prefix, and grows nothing beyond the payload's
  /// own size. Null `bounds` is for descriptors this process encoded itself
  /// (the lineage ledger's records).
  static bool DecodeStolenWork(const std::vector<uint8_t>& bytes,
                               const StolenWorkBounds* bounds,
                               SubgraphEnumerator::StolenWork* work);

 private:
  /// Reads the words and push records of a subgraph without rebuilding its
  /// bitsets; checks that the records account for every word.
  static bool DecodeWords(ByteReader* reader, Subgraph* subgraph);
  /// Whether every id of decoded `work` falls inside `bounds`.
  static bool WithinBounds(const SubgraphEnumerator::StolenWork& work,
                           const StolenWorkBounds& bounds);
  /// Restores the bitsets of decoded words (the quick code stays stale:
  /// consumers call RebuildQuickCode).
  static void FinishDecode(Subgraph* subgraph);
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_CODEC_H_
