#include "transfer/chunk_source.hpp"

#include "rpc/wire.hpp"
#include "transfer/progress.hpp"

namespace bitdew::transfer {

using api::Errc;
using api::Error;
using api::Expected;

ChunkFetch BusChunkSource::fetch(const util::Auid& uid, std::int64_t offset,
                                 std::int64_t max_bytes) {
  ReplySlot<std::string> slot =
      issue_call<std::string>([&](api::Reply<Expected<std::string>> done) {
        bus_.dr_get_chunk(uid, offset, max_bytes, std::move(done));
      });
  return ChunkFetch([slot = std::move(slot), &bus = bus_, pump = pump_] {
    return wait_reply(bus, pump, slot);
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
