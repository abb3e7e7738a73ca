#include "transfer/chunk_source.hpp"

#include <memory>
#include <optional>

#include "rpc/wire.hpp"

namespace bitdew::transfer {

using api::Errc;
using api::Error;
using api::Expected;

ChunkFetch BusChunkSource::fetch(const util::Auid& uid, std::int64_t offset,
                                 std::int64_t max_bytes) {
  auto slot = std::make_shared<std::optional<Expected<std::string>>>();
  bus_.dr_get_chunk(uid, offset, max_bytes,
                    [slot](Expected<std::string> reply) { *slot = std::move(reply); });
  return ChunkFetch([slot, &bus = bus_, pump = pump_]() -> Expected<std::string> {
    while (!slot->has_value()) {
      if (!(pump ? pump() : bus.pump())) {
        return Error{Errc::kUnavailable, "chunk", "stalled waiting for a repository chunk"};
      }
    }
    return std::move(**slot);
  });
}

ChunkFetch PeerChunkSource::fetch(const util::Auid& uid, std::int64_t offset,
                                  std::int64_t max_bytes) {
  rpc::ClientChannel::PendingReply reply =
      channel_.send(rpc::wire::Endpoint::kDrGetChunk, [&](rpc::Writer& w) {
        rpc::wire::write_auid(w, uid);
        w.i64(offset);
        w.i64(max_bytes);
      });
  rpc::ClientChannel* channel = &channel_;
  return ChunkFetch([channel, reply = std::move(reply)]() mutable -> Expected<std::string> {
    Expected<std::string> frame = reply.wait();
    if (!frame.ok()) return frame.error();
    try {
      rpc::Reader r(*frame);
      Expected<std::string> bytes =
          rpc::wire::read_expected<std::string>(r, [](rpc::Reader& rd) { return rd.str(); });
      if (!r.exhausted()) throw rpc::CodecError("trailing bytes in chunk reply");
      return bytes;
    } catch (const rpc::CodecError& error) {
      channel->close();
      return Error{Errc::kTransport, "chunk",
                   std::string("malformed chunk reply: ") + error.what()};
    }
  });
}

}  // namespace bitdew::transfer
