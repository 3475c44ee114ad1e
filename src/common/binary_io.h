#ifndef GRAFT_COMMON_BINARY_IO_H_
#define GRAFT_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace graft {

/// Append-only binary encoder used for vertex/master trace records and the
/// binary graph format. Integers use LEB128 varints (signed values are
/// zigzag-encoded) so that the trace files Graft writes stay small — the
/// paper stresses that captured traces are "often in the kilobytes".
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteVarint(uint64_t v);
  void WriteSignedVarint(int64_t v);
  void WriteFixed32(uint32_t v);
  void WriteFixed64(uint64_t v);
  void WriteDouble(double v);
  void WriteFloat(float v);
  /// Length-prefixed byte string.
  void WriteString(std::string_view s);
  /// Raw bytes, no length prefix.
  void WriteRaw(const void* data, size_t size);
  /// Replaces bytes already written at [offset, offset + bytes.size()), so an
  /// encoder can fill room it reserved before the values were known.
  void Overwrite(size_t offset, std::string_view bytes) {
    std::memcpy(buffer_.data() + offset, bytes.data(), bytes.size());
  }

  const std::string& buffer() const { return buffer_; }
  std::string&& TakeBuffer() { return std::move(buffer_); }
  size_t size() const { return buffer_.size(); }
  void Clear() { buffer_.clear(); }

 private:
  std::string buffer_;
};

/// Decoder over a byte span; every read is bounds-checked and returns a
/// Status/Result so corrupt trace files surface as errors, never UB.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<bool> ReadBool();
  Result<uint64_t> ReadVarint();
  Result<int64_t> ReadSignedVarint();
  Result<uint32_t> ReadFixed32();
  Result<uint64_t> ReadFixed64();
  Result<double> ReadDouble();
  Result<float> ReadFloat();
  Result<std::string> ReadString();

  /// Advances past `n` bytes without decoding them.
  Status Skip(size_t n);

  size_t position() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status CheckAvailable(size_t n) const;

  std::string_view data_;
  size_t pos_ = 0;
};

/// Number of bytes WriteVarint(v) emits.
inline size_t VarintSize(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Zigzag mapping for signed varints.
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace graft

#endif  // GRAFT_COMMON_BINARY_IO_H_
