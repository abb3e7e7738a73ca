#include "probes.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "api/bitdew.hpp"
#include "api/pull_core.hpp"
#include "api/remote_service_bus.hpp"
#include "api/service_ops.hpp"
#include "api/session.hpp"
#include "db/database.hpp"
#include "rpc/wire.hpp"
#include "util/md5.hpp"

namespace perfbench {
namespace {

using namespace bitdew;
namespace fs = std::filesystem;
namespace wire = rpc::wire;

/// The operations the per-op metrics are keyed by.
constexpr const char* kOps[] = {"dc_register", "dc_get",      "dc_search",   "dc_remove",
                                "dc_add_locator", "dc_locators", "ddc_publish", "ddc_search",
                                "ds_schedule", "ds_sync",     "dr_put_chunk", "dr_get_chunk"};
constexpr int kCatalogOps = 9;  ///< the first nine entries of kOps
/// The catalog_mix weights of the first nine ops (for the closure sum).
constexpr double kMixWeight[kCatalogOps] = {8, 30, 10, 8, 6, 20, 5, 10, 3};

constexpr int kApiReps = 300;
constexpr int kHandlerReps = 500;
constexpr int kCodecReps = 2000;
constexpr std::int64_t kChunk = 256 << 10;
constexpr int kProbeChunks = 64;  ///< a 16 MiB probe object
constexpr int kFleetHosts = 1000;

std::string random_bytes(std::int64_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::string out(static_cast<std::size_t>(size), '\0');
  for (std::size_t i = 0; i + 8 <= out.size(); i += 8) {
    const std::uint64_t word = rng();
    std::memcpy(out.data() + i, &word, 8);
  }
  return out;
}

core::Data probe_datum(const std::string& name, const std::string& content) {
  core::Data data;
  data.uid = util::next_auid();
  data.name = name;
  data.size = static_cast<std::int64_t>(content.size());
  data.checksum = util::Md5::of(content).hex();
  return data;
}

/// p50/p99 of one op, as measured at some layer.
struct Dist {
  double p50 = 0;
  double p99 = 0;
};

Dist dist(const Samples& samples) { return {samples.median(), samples.quantile(0.99)}; }

/// The values the probes reuse across layers, so every layer sees the same
/// keys and frames.
struct Values {
  std::vector<core::Data> live;
  std::vector<std::string> keys;
  core::Data datum;
  std::vector<core::Locator> locators;
  std::vector<std::string> ddc_values;
  services::SyncRequest sync_request;
  services::SyncReply sync_reply;
  std::string chunk;
};

/// Client-observed depth-1 latency of every op against a live daemon.
std::map<std::string, Samples> probe_api(std::uint16_t port, const Values& values,
                                         const std::string& tag, int reps) {
  std::map<std::string, Samples> out;
  api::RemoteServiceBus bus("127.0.0.1", port);
  std::vector<core::Data> fresh;
  for (int i = 0; i < reps; ++i) {
    core::Data data = probe_datum(tag + "-" + std::to_string(i), std::to_string(i));
    fresh.push_back(data);
  }
  auto time_op = [&](const char* op, int count, const std::function<void(int)>& call) {
    Samples& samples = out[op];
    for (int i = 0; i < count; ++i) {
      const double start = now_s();
      call(i);
      samples.add((now_s() - start) * 1e6);
    }
  };
  const auto pick = [&](int i) -> const core::Data& {
    return values.live[static_cast<std::size_t>(i) % values.live.size()];
  };
  const auto key = [&](int i) -> const std::string& {
    return values.keys[static_cast<std::size_t>(i) % values.keys.size()];
  };
  time_op("dc_register", reps, [&](int i) { bus.dc_register(fresh[i], [](api::Status) {}); });
  time_op("dc_add_locator", reps, [&](int i) {
    bus.dc_add_locator(core::Locator{fresh[i].uid, "ftp", "bitdewd", "/probe", ""},
                       [](api::Status) {});
  });
  time_op("dc_get", reps, [&](int i) { bus.dc_get(pick(i).uid, [](auto) {}); });
  time_op("dc_locators", reps, [&](int i) { bus.dc_locators(pick(i).uid, [](auto) {}); });
  time_op("dc_search", reps, [&](int i) { bus.dc_search(pick(i).name, [](auto) {}); });
  time_op("ddc_publish", reps, [&](int i) {
    bus.ddc_publish(key(i), tag + "-" + std::to_string(i % 4), [](api::Status) {});
  });
  time_op("ddc_search", reps, [&](int i) { bus.ddc_search(key(i), [](auto) {}); });
  core::DataAttributes attributes;
  attributes.replica = 1;
  time_op("ds_schedule", reps,
          [&](int i) { bus.ds_schedule(fresh[i], attributes, [](api::Status) {}); });
  time_op("dc_remove", reps, [&](int i) { bus.dc_remove(fresh[i].uid, [](api::Status) {}); });
  return out;
}

/// ds_sync, dr_put_chunk and dr_get_chunk at depth 1 against a live
/// daemon; fills the sync and chunk values the other layers reuse.
void probe_api_data_plane(std::uint16_t port, Values& values,
                          std::map<std::string, Samples>& out) {
  api::RemoteServiceBus bus("127.0.0.1", port);
  api::ActiveData events(bus, "probe");
  api::PullCore core(events);
  const std::string host = "probe-host-" + std::to_string(port);
  for (int beat = 0; beat < kApiReps + 3; ++beat) {
    const api::PullCore::SyncDelta delta = core.build_sync();
    services::SyncRequest request{host,          delta.epoch, delta.full, delta.added,
                                  delta.removed, core.downloading_list(), ""};
    const double start = now_s();
    api::Expected<services::SyncReply> reply = services::SyncReply{};
    bus.ds_sync(request, [&](api::Expected<services::SyncReply> r) { reply = std::move(r); });
    const double us = (now_s() - start) * 1e6;
    if (!reply.ok()) continue;
    if (beat >= 3) out["ds_sync"].add(us);
    values.sync_request = request;
    values.sync_reply = *reply;
    if (reply->resync) {
      core.force_resync();
      continue;
    }
    core.ack_sync(delta, reply->epoch);
    core.apply_drops(*reply);
    for (const auto& item : reply->download) {
      if (core.begin_download(item) == api::PullCore::Admission::kStarted) {
        core.fail_download(item.data.uid);
      }
    }
  }

  const std::string content = random_bytes(kChunk * kProbeChunks, port);
  const core::Data blob = probe_datum("probe-blob-" + std::to_string(port), content);
  bus.dc_register(blob, [](api::Status) {});
  bus.dr_put_start(blob, [](auto) {});
  for (int c = 0; c < kProbeChunks; ++c) {
    const std::string bytes = content.substr(static_cast<std::size_t>(c * kChunk), kChunk);
    const double start = now_s();
    bus.dr_put_chunk(blob.uid, c * kChunk, bytes, [](api::Status) {});
    out["dr_put_chunk"].add((now_s() - start) * 1e6);
  }
  bus.dr_put_commit(blob.uid, "tcp", [](auto) {});
  for (int c = 0; c < kProbeChunks; ++c) {
    const double start = now_s();
    bus.dr_get_chunk(blob.uid, c * kChunk, kChunk, [&](api::Expected<std::string> got) {
      if (got.ok() && c == 0) values.chunk = *got;
    });
    out["dr_get_chunk"].add((now_s() - start) * 1e6);
  }
  if (values.chunk.empty()) values.chunk = content.substr(0, kChunk);
}

/// Encode + decode of one op's request and reply on real values.
struct CodecCase {
  std::function<void(rpc::Writer&)> request;
  std::function<void(rpc::Reader&)> read_request;
  std::function<void(rpc::Writer&)> reply;
  std::function<void(rpc::Reader&)> read_reply;
};

std::pair<double, double> time_codec(const CodecCase& codec, int reps) {
  rpc::Writer header;
  wire::write_frame_header(header, {wire::Endpoint::kPing, 1});
  double bytes = 0;
  Samples us;
  for (int i = 0; i < reps; ++i) {
    const double start = now_s();
    rpc::Writer request;
    codec.request(request);
    const std::string request_bytes = request.take();
    rpc::Reader request_reader(request_bytes);
    codec.read_request(request_reader);
    rpc::Writer reply;
    codec.reply(reply);
    const std::string reply_bytes = reply.take();
    rpc::Reader reply_reader(reply_bytes);
    codec.read_reply(reply_reader);
    us.add((now_s() - start) * 1e6);
    bytes = static_cast<double>(request_bytes.size() + reply_bytes.size() + 2 * header.size());
  }
  return {us.median(), bytes};
}

std::map<std::string, std::pair<double, double>> probe_codecs(const Values& values) {
  const core::Data& d = values.datum;
  const api::Status ok = api::ok_status();
  const auto status = [ok](rpc::Writer& w) { wire::write_status(w, ok); };
  const auto read_status = [](rpc::Reader& r) { wire::read_status(r); };
  core::Locator locator{d.uid, "ftp", "bitdewd", "/probe", ""};
  core::DataAttributes attributes;
  std::map<std::string, CodecCase> cases;
  cases["dc_register"] = {[&](rpc::Writer& w) { wire::write_data(w, d); },
                          [](rpc::Reader& r) { wire::read_data(r); }, status, read_status};
  cases["dc_get"] = {
      [&](rpc::Writer& w) { wire::write_auid(w, d.uid); },
      [](rpc::Reader& r) { wire::read_auid(r); },
      [&](rpc::Writer& w) { wire::write_expected(w, api::Expected<core::Data>(d), wire::write_data); },
      [](rpc::Reader& r) { wire::read_expected<core::Data>(r, wire::read_data); }};
  cases["dc_search"] = {
      [&](rpc::Writer& w) { w.str(d.name); }, [](rpc::Reader& r) { r.str(); },
      [&](rpc::Writer& w) {
        wire::write_expected(w, api::Expected<std::vector<core::Data>>(std::vector{d}),
                             wire::write_data_list);
      },
      [](rpc::Reader& r) { wire::read_expected<std::vector<core::Data>>(r, wire::read_data_list); }};
  cases["dc_remove"] = {[&](rpc::Writer& w) { wire::write_auid(w, d.uid); },
                        [](rpc::Reader& r) { wire::read_auid(r); }, status, read_status};
  cases["dc_add_locator"] = {[&](rpc::Writer& w) { wire::write_locator(w, locator); },
                             [](rpc::Reader& r) { wire::read_locator(r); }, status, read_status};
  cases["dc_locators"] = {
      [&](rpc::Writer& w) { wire::write_auid(w, d.uid); },
      [](rpc::Reader& r) { wire::read_auid(r); },
      [&](rpc::Writer& w) {
        wire::write_expected(w, api::Expected<std::vector<core::Locator>>(values.locators),
                             wire::write_locator_list);
      },
      [](rpc::Reader& r) {
        wire::read_expected<std::vector<core::Locator>>(r, wire::read_locator_list);
      }};
  cases["ddc_publish"] = {[&](rpc::Writer& w) {
                            w.str(values.keys.front());
                            w.str("v-probe");
                          },
                          [](rpc::Reader& r) {
                            r.str();
                            r.str();
                          },
                          status, read_status};
  cases["ddc_search"] = {
      [&](rpc::Writer& w) { w.str(values.keys.front()); }, [](rpc::Reader& r) { r.str(); },
      [&](rpc::Writer& w) {
        wire::write_expected(w, api::Expected<std::vector<std::string>>(values.ddc_values),
                             wire::write_string_list);
      },
      [](rpc::Reader& r) {
        wire::read_expected<std::vector<std::string>>(r, wire::read_string_list);
      }};
  cases["ds_schedule"] = {[&](rpc::Writer& w) {
                            wire::write_data(w, d);
                            wire::write_attributes(w, attributes);
                          },
                          [](rpc::Reader& r) {
                            wire::read_data(r);
                            wire::read_attributes(r);
                          },
                          status, read_status};
  cases["ds_sync"] = {
      [&](rpc::Writer& w) { wire::write_sync_request(w, values.sync_request); },
      [](rpc::Reader& r) { wire::read_sync_request(r); },
      [&](rpc::Writer& w) {
        wire::write_expected(w, api::Expected<services::SyncReply>(values.sync_reply),
                             wire::write_sync_reply);
      },
      [](rpc::Reader& r) { wire::read_expected<services::SyncReply>(r, wire::read_sync_reply); }};
  cases["dr_put_chunk"] = {[&](rpc::Writer& w) {
                             wire::write_auid(w, d.uid);
                             w.i64(0);
                             w.str(values.chunk);
                           },
                           [](rpc::Reader& r) {
                             wire::read_auid(r);
                             r.i64();
                             r.str();
                           },
                           status, read_status};
  cases["dr_get_chunk"] = {[&](rpc::Writer& w) {
                             wire::write_auid(w, d.uid);
                             w.i64(0);
                             w.i64(kChunk);
                           },
                           [](rpc::Reader& r) {
                             wire::read_auid(r);
                             r.i64();
                             r.i64();
                           },
                           [&](rpc::Writer& w) {
                             wire::write_expected(w, api::Expected<std::string>(values.chunk),
                                                  [](rpc::Writer& wr, const std::string& s) {
                                                    wr.str(s);
                                                  });
                           },
                           [](rpc::Reader& r) {
                             wire::read_expected<std::string>(
                                 r, [](rpc::Reader& rr) { return rr.str(); });
                           }};
  std::map<std::string, std::pair<double, double>> out;
  for (const auto& [op, codec] : cases) {
    const bool bulky = op == "dr_put_chunk" || op == "dr_get_chunk";
    out[op] = time_codec(codec, bulky ? kCodecReps / 10 : kCodecReps);
  }
  return out;
}

/// Handler replay: the same ops through api::ops on an in-process
/// container with the workload's WAL and preload.
struct HandlerReport {
  std::map<std::string, Samples> us;
  Samples stage_chunk_us;
  Samples get_chunk_ref_us;
  Samples full_sync_us;
  Samples delta_sync_us;
  Samples detect_failures_ms;
  double wal_bytes_per_op = 0;
  double wal_bytes_per_put_MB = 0;
  double compact_ms = 0;
};

HandlerReport probe_handlers(ProbeContext& context, const Values& values,
                             const std::string& dir) {
  HandlerReport report;
  fs::create_directories(dir);
  static util::WallClock clock;
  services::ServiceContainer container("bitdewd", clock, dir + "/replay.wal");
  dht::LocalDht ddc;
  if (context.preload) context.preload(container, ddc);

  // Hosts for the scheduler probes: H = 1000 in every workload (fleet_sync's
  // preload already synced its own).
  std::vector<std::pair<std::string, std::uint64_t>> hosts;
  std::vector<util::Auid> cache;
  if (context.kind == "fleet") {
    for (const core::Data& data : values.live) cache.push_back(data.uid);
  }
  for (int h = 0; h < kFleetHosts; ++h) {
    services::SyncRequest request;
    request.host = "replay-host-" + std::to_string(h);
    request.added = cache;
    const double start = now_s();
    const auto reply = api::ops::ds_sync(container, request);
    report.full_sync_us.add((now_s() - start) * 1e6);
    hosts.push_back({request.host, reply.ok() ? reply->epoch : 0});
  }
  for (auto& [host, epoch] : hosts) {
    services::SyncRequest request;
    request.host = host;
    request.epoch = epoch;
    request.full = false;
    const double start = now_s();
    api::ops::ds_sync(container, request);
    report.delta_sync_us.add((now_s() - start) * 1e6);
  }
  report.us["ds_sync"] = report.delta_sync_us;
  for (int i = 0; i < 20; ++i) {
    const double start = now_s();
    container.ds().detect_failures();
    report.detect_failures_ms.add((now_s() - start) * 1e3);
  }

  auto time_op = [&](const char* op, const std::function<void(int)>& call) {
    Samples& samples = report.us[op];
    for (int i = 0; i < kHandlerReps; ++i) {
      const double start = now_s();
      call(i);
      samples.add((now_s() - start) * 1e6);
    }
  };
  std::vector<core::Data> fresh;
  for (int i = 0; i < kHandlerReps; ++i) {
    fresh.push_back(probe_datum("replay-" + std::to_string(i), std::to_string(i)));
  }
  const auto pick = [&](int i) -> const core::Data& {
    return values.live[static_cast<std::size_t>(i) % values.live.size()];
  };
  const auto key = [&](int i) -> const std::string& {
    return values.keys[static_cast<std::size_t>(i) % values.keys.size()];
  };
  core::DataAttributes attributes;
  attributes.replica = 1;
  const std::uint64_t wal_before = container.database().wal_bytes();
  time_op("dc_register", [&](int i) { api::ops::dc_register(container, fresh[i]); });
  time_op("dc_add_locator", [&](int i) {
    api::ops::dc_add_locator(container, core::Locator{fresh[i].uid, "ftp", "bitdewd", "/r", ""});
  });
  time_op("ds_schedule",
          [&](int i) { api::ops::ds_schedule(container, fresh[i], attributes); });
  time_op("dc_remove", [&](int i) { api::ops::dc_remove(container, fresh[i].uid); });
  report.wal_bytes_per_op =
      static_cast<double>(container.database().wal_bytes() - wal_before) / (4.0 * kHandlerReps);
  time_op("dc_get", [&](int i) { api::ops::dc_get(container, pick(i).uid); });
  time_op("dc_locators", [&](int i) { api::ops::dc_locators(container, pick(i).uid); });
  time_op("dc_search", [&](int i) { api::ops::dc_search(container, pick(i).name); });
  time_op("ddc_publish",
          [&](int i) { api::ops::ddc_publish(ddc, key(i), "v-replay-" + std::to_string(i % 4)); });
  time_op("ddc_search", [&](int i) { api::ops::ddc_search(ddc, key(i)); });

  // The data plane: stage a 16 MiB object chunk by chunk, then read it back
  // as fd slices.
  const std::string content = random_bytes(kChunk * kProbeChunks, 0x5e);
  const core::Data blob = probe_datum("replay-blob", content);
  api::ops::dc_register(container, blob);
  const std::uint64_t wal_stage = container.database().wal_bytes();
  api::ops::dr_put_start(container, blob);
  for (int c = 0; c < kProbeChunks; ++c) {
    const std::string bytes = content.substr(static_cast<std::size_t>(c * kChunk), kChunk);
    const double start = now_s();
    api::ops::dr_put_chunk(container, blob.uid, c * kChunk, bytes);
    report.stage_chunk_us.add((now_s() - start) * 1e6);
  }
  api::ops::dr_put_commit(container, blob.uid, "tcp");
  report.wal_bytes_per_put_MB = static_cast<double>(container.database().wal_bytes() - wal_stage) /
                                (static_cast<double>(content.size()) / 1e6);
  for (int c = 0; c < kProbeChunks; ++c) {
    const double start = now_s();
    api::ops::dr_get_chunk_ref(container, blob.uid, c * kChunk, kChunk);
    report.get_chunk_ref_us.add((now_s() - start) * 1e6);
  }
  report.us["dr_put_chunk"] = report.stage_chunk_us;
  report.us["dr_get_chunk"] = report.get_chunk_ref_us;

  const double start = now_s();
  container.database().compact();
  report.compact_ms = (now_s() - start) * 1e3;
  return report;
}

/// Database::insert/update on the workload's row shape, on a fresh WAL.
Samples probe_db(const std::string& shape, const std::string& dir) {
  fs::create_directories(dir);
  db::Database database(dir + "/append.wal");
  database.create_table({"probe", "uid", {}});
  util::Rng rng(0xdb);
  auto row_for = [&](int i) {
    db::Row row;
    row["uid"] = util::next_auid().str();
    if (shape == "catalog") {
      row["name"] = "cat-probe-" + std::to_string(i);
      row["checksum"] = util::Md5::of(std::to_string(i)).hex();
      row["size"] = static_cast<std::int64_t>(rng.below(1 << 20));
      row["flags"] = static_cast<std::int64_t>(0);
    } else if (shape == "stage") {
      row["received"] = static_cast<std::int64_t>(i) * kChunk;
      row["size"] = static_cast<std::int64_t>(64) << 20;
      row["path"] = dir + "/content/" + std::to_string(i);
    } else {
      row["blob"] = std::string(120, static_cast<char>('a' + i % 26));
    }
    return row;
  };
  Samples us;
  std::vector<db::RowId> ids;
  for (int i = 0; i < 2000; ++i) {
    db::Row row = row_for(i);
    const double start = now_s();
    const auto id = database.insert("probe", std::move(row));
    us.add((now_s() - start) * 1e6);
    if (id.has_value()) ids.push_back(*id);
  }
  for (std::size_t i = 0; i < ids.size() && i < 1000; ++i) {
    db::Row row = row_for(static_cast<int>(i));
    const double start = now_s();
    database.update("probe", ids[i], std::move(row));
    us.add((now_s() - start) * 1e6);
  }
  return us;
}

double md5_MBps() {
  const std::string block = random_bytes(kChunk, 0x3d5);
  const int blocks = 256;  // 64 MiB
  util::Md5 md5;
  const double start = now_s();
  for (int i = 0; i < blocks; ++i) md5.update(block);
  md5.finish();
  return blocks * static_cast<double>(kChunk) / 1e6 / (now_s() - start);
}

struct TransferReport {
  double prehash_ms_per_MB = 0;
  double put_chunk_us = 0;
  double get_chunk_wait_us = 0;
  double put_unaccounted = 0;
  double get_unaccounted = 0;
  double rpcs_per_chunk = 0;
  double put_ms = 0;
  double get_ms = 0;
};

/// One 16 MiB put_file/get_file through the Session facade, split into the
/// parts the generator can time from outside.
TransferReport probe_transfer(std::uint16_t port, const std::string& dir, double md5_rate,
                              const Dist& put_call_us, const Dist& get_call_us) {
  TransferReport report;
  fs::create_directories(dir);
  const std::string in = dir + "/xfer.in";
  const std::string out = dir + "/xfer.out";
  write_random_file(in, kChunk * kProbeChunks, port + 17);
  const double mb = kChunk * kProbeChunks / 1e6;
  double start = now_s();
  core::file_content(in);
  const double prehash_ms = (now_s() - start) * 1e3;
  report.prehash_ms_per_MB = prehash_ms / mb;

  api::RemoteServiceBus bus("127.0.0.1", port);
  api::BitDew bitdew(bus, "probe");
  api::ActiveData active_data(bus, "probe");
  api::Session session(bitdew, active_data);
  const std::uint64_t rpcs_before = bus.rpc_count();
  start = now_s();
  const auto stored = session.put_file("probe-xfer-" + std::to_string(port), in);
  report.put_ms = (now_s() - start) * 1e3;
  if (!stored.ok()) return report;
  start = now_s();
  session.get_file(*stored, out);
  report.get_ms = (now_s() - start) * 1e3;
  report.rpcs_per_chunk =
      static_cast<double>(bus.rpc_count() - rpcs_before) / (2.0 * kProbeChunks);
  const double verify_ms = mb / md5_rate * 1e3;
  report.put_chunk_us = (report.put_ms - prehash_ms) * 1e3 / kProbeChunks;
  report.get_chunk_wait_us = (report.get_ms - verify_ms) * 1e3 / kProbeChunks;
  report.put_unaccounted =
      1 - (prehash_ms + kProbeChunks * put_call_us.p50 / 1e3) / report.put_ms;
  report.get_unaccounted =
      1 - (verify_ms + kProbeChunks * get_call_us.p50 / 1e3) / report.get_ms;
  std::error_code ec;
  fs::remove(in, ec);
  fs::remove(out, ec);
  return report;
}

/// dc_get frames/s at pipeline depth `depth` for `seconds`.
double frames_per_s(std::uint16_t port, const Values& values, int depth, double seconds) {
  api::RemoteServiceBus bus("127.0.0.1", port);
  bus.set_pipeline_depth(depth);
  std::int64_t done = 0;
  const double start = now_s();
  const double end = start + seconds;
  for (std::size_t i = 0; now_s() < end; ++i) {
    bus.dc_get(values.live[i % values.live.size()].uid, [&](auto) { ++done; });
  }
  bus.drain();
  return done / (now_s() - start);
}

struct DhtReport {
  std::map<std::string, double> overhead_us;
  double key_share_max = 0;
  double redirects_per_op = 0;
};

/// True once every member of the ring has a live predecessor and a
/// successor other than itself, and no two share a predecessor.
bool ring_stable(const std::vector<std::uint16_t>& ports) {
  std::set<std::string> preds;
  for (const std::uint16_t port : ports) {
    api::RemoteServiceBus bus("127.0.0.1", port);
    const auto info = bus.ring_info();
    if (!info.ok() || !info->has_pred || info->successors.empty()) return false;
    if (info->pred.endpoint == info->self.endpoint ||
        info->successors.front().endpoint == info->self.endpoint) {
      return false;
    }
    preds.insert(info->pred.endpoint);
  }
  return preds.size() == ports.size();
}

/// A three-member ring and one plain daemon, both preloaded with the same
/// small catalog: the ring's per-op overhead and its key spread.
DhtReport probe_dht(const Config& config, const std::string& dir) {
  DhtReport report;
  std::vector<std::unique_ptr<Daemon>> members;
  auto launch = [&](const std::string& name, std::vector<std::string> extra) {
    const std::string member_dir = dir + "/" + name;
    fs::create_directories(member_dir);
    std::vector<std::string> args = {"--port", "0", "--loopback", "--wal", member_dir + "/wal"};
    args.insert(args.end(), extra.begin(), extra.end());
    auto daemon = std::make_unique<Daemon>();
    if (!daemon->start(config.daemon, args, member_dir)) return std::unique_ptr<Daemon>();
    return daemon;
  };
  members.push_back(
      launch("a", {"--ring", "--ring-stabilize", "0.5", "--ring-id", "1555555555555555"}));
  if (!members[0]) return report;
  const std::string join = "127.0.0.1:" + std::to_string(members[0]->port());
  members.push_back(launch(
      "b", {"--ring-join", join, "--ring-stabilize", "0.5", "--ring-id", "6aaaaaaaaaaaaaaa"}));
  members.push_back(launch(
      "c", {"--ring-join", join, "--ring-stabilize", "0.5", "--ring-id", "c000000000000000"}));
  auto single = launch("single", {});
  std::vector<std::uint16_t> ports;
  for (auto& member : members) {
    if (!member) return report;
    ports.push_back(member->port());
  }
  if (!single) return report;
  const double deadline = now_s() + 30;
  while (!ring_stable(ports) && now_s() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  Values small;
  for (int i = 0; i < 500; ++i) {
    small.live.push_back(probe_datum("dht-" + std::to_string(i), std::to_string(i)));
    small.keys.push_back("dht-key-" + std::to_string(i));
  }
  for (const std::uint16_t port : {ports[0], single->port()}) {
    api::RemoteServiceBus bus("127.0.0.1", port);
    bus.dc_register_batch(small.live, [](auto) {});
    bus.set_pipeline_depth(16);
    for (const core::Data& data : small.live) {
      bus.dc_add_locator(core::Locator{data.uid, "ftp", "bitdewd", "/dht", ""}, [](auto) {});
      bus.ddc_publish("dht-key-" + data.name.substr(4), "v", [](auto) {});
    }
    bus.drain();
  }
  const auto flat = probe_api(single->port(), small, "dht-flat", 150);
  api::RemoteServiceBus counter("127.0.0.1", ports[0]);
  const auto ring = probe_api(ports[0], small, "dht-ring", 150);
  for (int op = 0; op < kCatalogOps; ++op) {
    report.overhead_us[kOps[op]] = ring.at(kOps[op]).median() - flat.at(kOps[op]).median();
  }

  // Redirects chased per op, on one bus through member A.
  int calls = 0;
  for (int i = 0; i < 300; ++i, ++calls) {
    counter.dc_get(small.live[static_cast<std::size_t>(i) % small.live.size()].uid,
                   [](auto) {});
  }
  report.redirects_per_op = static_cast<double>(counter.redirects_followed()) / calls;

  double total = 0;
  double busiest = 0;
  for (const std::uint16_t port : ports) {
    api::RemoteServiceBus bus("127.0.0.1", port);
    const auto info = bus.ring_info();
    if (!info.ok()) continue;
    const double keys = static_cast<double>(info->dc_keys + info->ddc_keys);
    total += keys;
    busiest = std::max(busiest, keys);
  }
  report.key_share_max = total > 0 ? busiest / total : 0;
  for (auto& member : members) member->stop();
  single->stop();
  return report;
}

}  // namespace

void probe_layers(ProbeContext& context, Result& result) {
  const Config& config = *context.config;
  const std::uint16_t port = context.daemon->port();
  const std::string dir = config.workdir + "/probes";
  fs::create_directories(dir);

  Values values;
  values.live = context.live;
  values.keys = context.ddc_keys;
  if (values.keys.empty()) {
    for (int i = 0; i < 100; ++i) values.keys.push_back("probe-key-" + std::to_string(i));
  }
  values.datum = values.live.front();
  {
    api::RemoteServiceBus bus("127.0.0.1", port);
    bus.dc_locators(values.datum.uid, [&](api::Expected<std::vector<core::Locator>> got) {
      if (got.ok()) values.locators = *got;
    });
    bus.ddc_search(values.keys.front(), [&](api::Expected<std::vector<std::string>> got) {
      if (got.ok()) values.ddc_values = *got;
    });
  }

  // Layer by layer.
  const double ping_us = [&] {
    api::RemoteServiceBus bus("127.0.0.1", port);
    return time_calls_us(1000, [&] { bus.ping(); }).median();
  }();
  std::map<std::string, Samples> call = probe_api(port, values, "probe", kApiReps);
  probe_api_data_plane(port, values, call);
  const double depth1 = frames_per_s(port, values, 1, 0.3);
  const double depth16 = frames_per_s(port, values, 16, 0.3);
  const auto codecs = probe_codecs(values);
  const HandlerReport handlers = probe_handlers(context, values, dir + "/replay");
  const Samples append_us = probe_db(context.row_shape, dir + "/db");
  const double md5_rate = md5_MBps();
  const TransferReport transfer = probe_transfer(port, dir + "/xfer", md5_rate,
                                                 dist(call["dr_put_chunk"]),
                                                 dist(call["dr_get_chunk"]));
  api::RemoteServiceBus idle("127.0.0.1", port);  // never called: PullCore only fires events
  api::ActiveData events(idle, "probe-core");
  api::PullCore core(events);
  for (const core::Data& data : values.live) {
    if (core.cache().size() >= 16) break;
    core.adopt_local(data, core::DataAttributes{}, false);
  }
  core.ack_sync(core.build_sync(), 7);
  const Samples build_us = time_calls_us(20000, [&] { (void)core.build_sync(); });
  const api::PullCore::SyncDelta empty = core.build_sync();
  const Samples ack_us = time_calls_us(20000, [&] { core.ack_sync(empty, 7); });
  const DhtReport dht_report = probe_dht(config, dir + "/dht");

  // --- api ---
  for (const char* op : kOps) {
    const Dist d = dist(call[op]);
    result.metric(std::string("api.call_us.") + op + ".p50", d.p50, "us");
    result.metric(std::string("api.call_us.") + op + ".p99", d.p99, "us");
  }
  result.metric("api.rpcs_per_op", transfer.rpcs_per_chunk, "count");
  result.metric("api.redirects_per_op", dht_report.redirects_per_op, "count");
  // --- rpc ---
  for (const char* op : kOps) {
    result.metric(std::string("rpc.codec_us.") + op, codecs.at(op).first, "us");
    result.metric(std::string("rpc.frame_bytes.") + op, codecs.at(op).second, "B");
    const auto handler = handlers.us.find(op);
    const double handler_p50 = handler == handlers.us.end() ? 0 : handler->second.median();
    result.metric(std::string("rpc.transport_us.") + op, call[op].median() - handler_p50, "us");
  }
  result.metric("rpc.ping_us", ping_us, "us");
  result.metric("rpc.depth_gain", depth1 > 0 ? depth16 / depth1 : 0, "ratio");
  // --- services ---
  for (int op = 0; op < kCatalogOps + 1; ++op) {
    const Dist d = dist(handlers.us.at(kOps[op]));
    result.metric(std::string("services.handler_us.") + kOps[op] + ".p50", d.p50, "us");
    result.metric(std::string("services.handler_us.") + kOps[op] + ".p99", d.p99, "us");
  }
  result.metric("services.stage_chunk_us", handlers.stage_chunk_us.median(), "us");
  result.metric("services.get_chunk_ref_us", handlers.get_chunk_ref_us.median(), "us");
  result.metric("services.full_sync_us", handlers.full_sync_us.median(), "us");
  result.metric("services.delta_sync_us", handlers.delta_sync_us.median(), "us");
  result.metric("services.detect_failures_ms", handlers.detect_failures_ms.median(), "ms");
  // --- db ---
  result.metric("db.append_us.p50", append_us.median(), "us");
  result.metric("db.append_us.p99", append_us.quantile(0.99), "us");
  result.metric("db.compact_ms", handlers.compact_ms, "ms");
  result.metric("db.wal_bytes_per_op", handlers.wal_bytes_per_op, "B");
  result.metric("db.wal_bytes_per_put_MB", handlers.wal_bytes_per_put_MB, "B/MB");
  // --- transfer ---
  result.metric("transfer.prehash_ms_per_MB", transfer.prehash_ms_per_MB, "ms/MB");
  result.metric("transfer.put_chunk_us", transfer.put_chunk_us, "us");
  result.metric("transfer.get_chunk_wait_us", transfer.get_chunk_wait_us, "us");
  result.metric("transfer.unaccounted_frac.put", transfer.put_unaccounted, "frac");
  result.metric("transfer.unaccounted_frac.get", transfer.get_unaccounted, "frac");
  // --- util, runtime, dht ---
  result.metric("util.md5_MBps", md5_rate, "MB/s");
  result.metric("runtime.build_sync_us", build_us.median(), "us");
  result.metric("runtime.ack_sync_us", ack_us.median(), "us");
  result.metric("dht.key_share_max", dht_report.key_share_max, "frac");
  for (int op = 0; op < kCatalogOps; ++op) {
    const auto it = dht_report.overhead_us.find(kOps[op]);
    result.metric(std::string("dht.ring_overhead_us.") + kOps[op],
                  it == dht_report.overhead_us.end() ? 0 : it->second, "us");
  }
  // --- processes ---
  const double wall = std::max(1e-9, context.load_wall_s);
  result.metric("daemon.cpu_util", context.daemon_cpu_s / wall, "frac");
  result.metric("daemon.cpu_us_per_op",
                context.work_units > 0 ? context.daemon_cpu_s * 1e6 / context.work_units : 0,
                "us");
  result.metric("gen.cpu_util", context.gen_cpu_s / wall, "frac");
  result.metric("gen.late_p99_ms", context.late_p99_ms, "ms");

  // --- closure: the blocking-path layers against the end-to-end median ---
  double e2e = 0;
  double layers = 0;
  if (context.kind == "catalog") {
    for (int op = 0; op < kCatalogOps; ++op) {
      const double handler = handlers.us.at(kOps[op]).median();
      e2e += kMixWeight[op] * call[kOps[op]].median();
      layers += kMixWeight[op] * (codecs.at(kOps[op]).first + handler + ping_us);
    }
  } else if (context.kind == "fleet") {
    e2e = call["ds_sync"].median();
    layers = build_us.median() + codecs.at("ds_sync").first +
             handlers.delta_sync_us.median() + ping_us + ack_us.median();
  } else {
    e2e = (transfer.put_ms + transfer.get_ms) * 1e3;
    layers = transfer.prehash_ms_per_MB * (kChunk * kProbeChunks / 1e6) * 1e3 +
             kProbeChunks * (call["dr_put_chunk"].median() + call["dr_get_chunk"].median()) +
             (kChunk * kProbeChunks / 1e6) / md5_rate * 1e6;
  }
  result.metric("trace.unaccounted_frac", e2e > 0 ? 1 - layers / e2e : 0, "frac");
  // The load runs uninstrumented in traced runs too; tracing overhead is this
  // figure less the untraced run's read_p50_ms for the same seed.
  result.metric("trace.load_read_p50_ms", context.load_read_p50_ms, "ms");
}

}  // namespace perfbench
