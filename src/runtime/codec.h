// Byte serialization for work shipped between workers (external work
// stealing, §4.2). The paper's point that inter-process stealing "involves
// serializing, sending, receiving and deserializing data structures" is
// preserved faithfully: stolen work crosses the simulated worker boundary
// only as bytes produced/consumed by this codec.
#ifndef FRACTAL_RUNTIME_CODEC_H_
#define FRACTAL_RUNTIME_CODEC_H_

#include <cstdint>
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

/// Encodes/decodes Subgraph and StolenWork values.
class SubgraphCodec {
 public:
  static void EncodeSubgraph(const Subgraph& subgraph, ByteWriter* writer);
  static bool DecodeSubgraph(ByteReader* reader, Subgraph* subgraph);

  static std::vector<uint8_t> EncodeStolenWork(
      const SubgraphEnumerator::StolenWork& work);
  static bool DecodeStolenWork(const std::vector<uint8_t>& bytes,
                               SubgraphEnumerator::StolenWork* work);
};

}  // namespace fractal

#endif  // FRACTAL_RUNTIME_CODEC_H_
