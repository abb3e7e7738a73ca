// Binary serialization used by the RPC layer, the DewDB wire protocol and
// the WAL. Fixed-width little-endian primitives plus length-prefixed strings;
// the Reader throws CodecError on any malformed input (tests fuzz this).
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace bitdew::rpc {

class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only binary writer.
class Writer {
 public:
  void u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v) { raw(&v, sizeof(v)); }
  void u32(std::uint32_t v) { raw(&v, sizeof(v)); }
  void u64(std::uint64_t v) { raw(&v, sizeof(v)); }
  void i64(std::int64_t v) { raw(&v, sizeof(v)); }
  void f64(double v) { raw(&v, sizeof(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v) {
    u32(static_cast<std::uint32_t>(v.size()));
    raw(v.data(), v.size());
  }
  /// Appends bytes verbatim (no length prefix) — used to splice an
  /// already-encoded message body behind a frame header.
  void append_raw(std::string_view v) { raw(v.data(), v.size()); }

  const std::string& buffer() const { return buffer_; }
  std::string take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }
  void clear() { buffer_.clear(); }

 private:
  void raw(const void* data, std::size_t size) {
    buffer_.append(static_cast<const char*>(data), size);
  }

  std::string buffer_;
};

/// Sequential reader over a buffer; throws CodecError on underflow.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}
  // A Reader only views its buffer; constructing one over a temporary
  // string (w.take(), s.substr(...)) leaves it reading freed stack the
  // moment the full-expression ends. Reject that at compile time — bind
  // the buffer to a named local first.
  explicit Reader(std::string&&) = delete;
  explicit Reader(const std::string&&) = delete;

  std::uint8_t u8() { return static_cast<std::uint8_t>(take(1)[0]); }
  std::uint16_t u16() { return scalar<std::uint16_t>(); }
  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  bool boolean() { return u8() != 0; }
  std::string str() { return std::string(str_view()); }
  /// A length-prefixed string viewed in place: valid while the buffer is.
  std::string_view str_view() {
    const std::uint32_t size = u32();
    return take(size);
  }

  bool exhausted() const { return offset_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - offset_; }
  std::size_t offset() const { return offset_; }

  /// The bytes not yet consumed, without consuming them. The ring router
  /// uses this to splice a request body it is about to apply locally into a
  /// replication frame for the successor list.
  std::string_view rest() const { return data_.substr(offset_); }

  /// Consumes `size` bytes without decoding them (CodecError on underflow).
  void skip(std::size_t size) { take(size); }

 private:
  template <typename T>
  T scalar() {
    T value;
    std::memcpy(&value, take(sizeof(T)).data(), sizeof(T));
    return value;
  }

  std::string_view take(std::size_t size) {
    if (data_.size() - offset_ < size) {
      throw CodecError("codec underflow: need " + std::to_string(size) + " bytes, have " +
                       std::to_string(data_.size() - offset_));
    }
    const std::string_view view = data_.substr(offset_, size);
    offset_ += size;
    return view;
  }

  std::string_view data_;
  std::size_t offset_ = 0;
};

}  // namespace bitdew::rpc
