// ChunkRef: the result of a chunk read on the serving side of the data
// plane. Content travels as an owned file descriptor plus a
// [offset, offset+length) slice — the transport layer ships it with
// sendfile/pread straight into the socket, so the bytes never materialize
// in a std::string on the way out. An end-of-content marker (or a reader
// that holds no file, such as a test's fake peer) rides inline.
// DataRepository::read_chunk_ref and ChunkServer's ReadFn both speak this
// type.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "rpc/fd.hpp"

namespace bitdew::rpc {

struct ChunkRef {
  ChunkRef() = default;
  /// Inline payload (end-of-content markers, readers without a file).
  explicit ChunkRef(std::string inline_bytes) : bytes(std::move(inline_bytes)) {}
  /// File-backed slice: `length` bytes at `offset` of the (owned) fd.
  ChunkRef(Fd content_file, std::int64_t slice_offset, std::int64_t slice_length)
      : file(std::move(content_file)), offset(slice_offset), length(slice_length) {}

  std::string bytes;        ///< inline payload when !file.valid()
  Fd file;                  ///< owned content-file descriptor (slice mode)
  std::int64_t offset = 0;  ///< slice start within the file
  std::int64_t length = 0;  ///< slice byte count (slice mode only)

  bool file_backed() const { return file.valid(); }
  std::int64_t size() const {
    return file_backed() ? length : static_cast<std::int64_t>(bytes.size());
  }
};

}  // namespace bitdew::rpc
