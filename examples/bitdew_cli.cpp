// bitdew_cli — the paper's Fig. 1 "Command-line Tool": a scriptable front
// end to a BitDew deployment. Commands (one per line, from arguments or
// stdin) drive a simulated grid:
//
//   nodes N                 add N reservoir hosts
//   create NAME SIZE        create a data slot and put SIZE of content
//   attr NAME DSL...        schedule NAME with a DSL attribute string
//   run SECONDS             advance virtual time
//   status                  print scheduler/data placement state
//   delete NAME             remove a datum everywhere
//
// Example:
//   ./build/bitdew_cli <<'EOF'
//   nodes 6
//   create genome 50MB
//   attr genome replica=3, ft=true, oob=ftp
//   run 30
//   status
//   EOF
//
// With `connect HOST:PORT` as the first argument the same tool drives a
// live bitdewd deployment over TCP instead of the simulator:
//
//   ./build/bitdewd --port 9328 --wal /var/lib/bitdew &
//   ./build/bitdew_cli connect 127.0.0.1:9328 <<'EOF'
//   create genome 50MB
//   attr genome replica=3, ft=true
//   locate genome
//   delete genome
//   EOF
//
// Remote commands: create NAME SIZE | attr NAME DSL | search NAME |
// locate NAME | delete NAME | publish KEY VALUE | lookup KEY |
// put NAME PATH | get NAME PATH | chunk BYTES | status | ring |
// job submit NAME INPUTS COLLECTOR CMD... | job status UID
//
// `job submit` runs CMD over every input (compute-to-data): INPUTS is a
// comma-separated list of data names, COLLECTOR the datum results flow to,
// and CMD may use {input}/{output} placeholders. One task per input is
// placed on workers that already hold the input replica. `job status UID`
// prints completion and the data-local fraction.
//
// `ring` walks the live DHT ring starting at the connected member and
// prints every member's id, predecessor, successor list, finger health and
// per-node key counts — the metadata plane's shard map.
//
// `status` prints the scheduler's host table (worker name, seconds since
// the last ds_sync, alive/DEAD, cached count) — the failure detector's
// live view of the worker tier.
//
// `put`/`get` move real file content in chunks (the out-of-band data
// plane): `put` uploads PATH into the daemon's Data Repository (resuming a
// previous interrupted upload of the same content), `get` downloads it
// MD5-verified, and `chunk` sets the chunk size for subsequent transfers
// (e.g. "chunk 1MB").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <random>
#include <set>
#include <sstream>

#include "api/remote_service_bus.hpp"
#include "api/session.hpp"
#include "jobs/job_types.hpp"
#include "runtime/sim_runtime.hpp"
#include "testbed/topologies.hpp"
#include "util/bytes.hpp"
#include "util/strings.hpp"

using namespace bitdew;

namespace {

struct Cli {
  Cli() : net(sim) {
    cluster = testbed::make_cluster(net, testbed::ClusterSpec{"cli", 2});
    runtime = std::make_unique<runtime::SimRuntime>(sim, net, cluster.hosts[0]);
    client = &runtime->add_node(cluster.hosts[1], /*reservoir=*/false);
  }

  void add_nodes(int count) {
    for (int i = 0; i < count; ++i) {
      net::HostSpec spec;
      spec.name = "node-" + std::to_string(reservoirs.size());
      const auto host = net.add_host(cluster.zone, spec);
      reservoirs.push_back(&runtime->add_node(host));
    }
    std::printf("grid: %zu reservoir node(s)\n", reservoirs.size());
  }

  void create(const std::string& name, const std::string& size_text) {
    const std::int64_t size = util::parse_bytes(size_text);
    if (size < 0) {
      std::printf("error: bad size '%s'\n", size_text.c_str());
      return;
    }
    const core::Content content =
        core::synthetic_content(std::hash<std::string>{}(name), size);
    const core::Data data = client->bitdew().create_data(name, content);
    client->bitdew().put(data, content);
    sim.run_until(sim.now() + 1);
    std::printf("created %s (%s), uid %s\n", name.c_str(), util::human_bytes(size).c_str(),
                data.uid.str().c_str());
  }

  void attr(const std::string& name, const std::string& dsl_body) {
    const auto data = client->bitdew().known(name);
    if (!data.has_value()) {
      std::printf("error: unknown data '%s'\n", name.c_str());
      return;
    }
    try {
      const core::DataAttributes attributes = client->bitdew().create_attribute(
          "attr " + name + " = {" + dsl_body + "}");
      client->active_data().schedule(*data, attributes);
      std::printf("scheduled %s with {%s}\n", name.c_str(), dsl_body.c_str());
    } catch (const core::AttributeError& error) {
      std::printf("error: %s\n", error.what());
    }
  }

  void remove(const std::string& name) {
    const auto data = client->bitdew().known(name);
    if (!data.has_value()) {
      std::printf("error: unknown data '%s'\n", name.c_str());
      return;
    }
    client->bitdew().remove(*data);
    std::printf("deleted %s\n", name.c_str());
  }

  void run_for(double seconds) {
    sim.run_until(sim.now() + seconds);
    std::printf("t = %.1fs\n", sim.now());
  }

  void status() {
    auto& ds = runtime->container().ds();
    std::printf("t=%.1fs | scheduled=%zu | dt: %llu ok / %llu rejects\n", sim.now(),
                ds.scheduled_count(),
                static_cast<unsigned long long>(runtime->container().dt().stats().completed),
                static_cast<unsigned long long>(
                    runtime->container().dt().stats().checksum_rejects));
    for (auto* node : reservoirs) {
      std::printf("  %-8s:", node->name().c_str());
      for (const auto& uid : node->cache()) {
        const auto data = runtime->container().dc().get(uid);
        std::printf(" %s", data.has_value() ? data->name.c_str() : uid.str().c_str());
      }
      std::printf("\n");
    }
  }

  bool dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb.empty()) return true;
    if (verb == "nodes") {
      int n = 0;
      in >> n;
      add_nodes(n);
    } else if (verb == "create") {
      std::string name, size;
      in >> name >> size;
      create(name, size);
    } else if (verb == "attr") {
      std::string name;
      in >> name;
      std::string rest;
      std::getline(in, rest);
      attr(name, std::string(util::trim(rest)));
    } else if (verb == "delete") {
      std::string name;
      in >> name;
      remove(name);
    } else if (verb == "run") {
      double seconds = 0;
      in >> seconds;
      run_for(seconds);
    } else if (verb == "status") {
      status();
    } else if (verb == "help") {
      std::printf("commands: nodes N | create NAME SIZE | attr NAME DSL |"
                  " delete NAME | run SECONDS | status\n");
    } else {
      std::printf("error: unknown command '%s' (try help)\n", verb.c_str());
      return false;
    }
    return true;
  }

  sim::Simulator sim{99};
  net::Network net;
  testbed::Cluster cluster;
  std::unique_ptr<runtime::SimRuntime> runtime;
  runtime::SimNode* client = nullptr;
  std::vector<runtime::SimNode*> reservoirs;
};

/// The same command set against a live bitdewd over RemoteServiceBus: every
/// operation is a blocking RPC through the Session facade, and transport
/// failures print the typed error instead of hanging.
struct RemoteCli {
  RemoteCli(const std::string& host, std::uint16_t port)
      : bus(host, port), bitdew(bus, "cli"), active_data(bus, "cli"),
        session(bitdew, active_data) {
    // Unlike the deterministic simulator, a live deployment has many CLI
    // processes minting AUIDs against one daemon: give this process a
    // unique prefix so ids never collide across invocations.
    std::random_device entropy;
    util::reseed_auid(
        (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy() ^
        static_cast<std::uint64_t>(
            std::chrono::steady_clock::now().time_since_epoch().count()) ^
        (static_cast<std::uint64_t>(::getpid()) << 16));
  }

  bool connect() {
    const api::Status up = bus.ping();
    if (!up.ok()) {
      std::fprintf(stderr, "error: %s\n", up.error().to_string().c_str());
      return false;
    }
    std::printf("connected\n");
    return true;
  }

  /// Data known to this CLI run, or searched from the daemon (so `delete`
  /// works on data created by a previous invocation).
  std::optional<core::Data> resolve(const std::string& name) {
    if (const auto known = bitdew.known(name); known.has_value()) return known;
    const api::Expected<core::Data> found = session.search(name);
    if (found.ok()) return *found;
    std::fprintf(stderr, "error: %s: %s\n", name.c_str(), found.error().to_string().c_str());
    return std::nullopt;
  }

  bool create(const std::string& name, const std::string& size_text) {
    const std::int64_t size = util::parse_bytes(size_text);
    if (size < 0) {
      std::fprintf(stderr, "error: bad size '%s'\n", size_text.c_str());
      return false;
    }
    const core::Content content =
        core::synthetic_content(std::hash<std::string>{}(name), size);
    const api::Expected<core::Data> data = session.create_data(name, content);
    if (!data.ok()) {
      std::fprintf(stderr, "error: %s\n", data.error().to_string().c_str());
      return false;
    }
    const api::Status put = session.put(*data, content);
    if (!put.ok()) {
      std::fprintf(stderr, "error: put: %s\n", put.error().to_string().c_str());
      return false;
    }
    std::printf("created %s (%s), uid %s\n", name.c_str(), util::human_bytes(size).c_str(),
                data->uid.str().c_str());
    return true;
  }

  bool attr(const std::string& name, const std::string& dsl_body) {
    const auto data = resolve(name);
    if (!data.has_value()) return false;
    try {
      const core::DataAttributes attributes =
          bitdew.create_attribute("attr " + name + " = {" + dsl_body + "}");
      const api::Status scheduled = session.schedule(*data, attributes);
      if (!scheduled.ok()) {
        std::fprintf(stderr, "error: %s\n", scheduled.error().to_string().c_str());
        return false;
      }
      std::printf("scheduled %s with {%s}\n", name.c_str(), dsl_body.c_str());
      return true;
    } catch (const core::AttributeError& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return false;
    }
  }

  bool search(const std::string& name) {
    const api::Expected<core::Data> found = session.search(name);
    if (!found.ok()) {
      std::fprintf(stderr, "error: %s\n", found.error().to_string().c_str());
      return false;
    }
    std::printf("%s: uid %s, %s\n", found->name.c_str(), found->uid.str().c_str(),
                util::human_bytes(found->size).c_str());
    return true;
  }

  bool locate(const std::string& name) {
    const auto data = resolve(name);
    if (!data.has_value()) return false;
    const auto locators = session.locate(data->uid);
    if (!locators.ok()) {
      std::fprintf(stderr, "error: %s\n", locators.error().to_string().c_str());
      return false;
    }
    std::printf("%s: %zu locator(s)\n", name.c_str(), locators->size());
    for (const core::Locator& locator : *locators) {
      std::printf("  %s://%s/%s\n", locator.protocol.c_str(), locator.host.c_str(),
                  locator.path.c_str());
    }
    return true;
  }

  bool remove(const std::string& name) {
    const auto data = resolve(name);
    if (!data.has_value()) return false;
    const api::Status removed = session.remove(*data);
    if (!removed.ok()) {
      std::fprintf(stderr, "error: %s\n", removed.error().to_string().c_str());
      return false;
    }
    std::printf("deleted %s\n", name.c_str());
    return true;
  }

  bool put(const std::string& name, const std::string& path) {
    const api::Expected<core::Data> data = session.put_file(name, path);
    if (!data.ok()) {
      std::fprintf(stderr, "error: put: %s\n", data.error().to_string().c_str());
      return false;
    }
    std::printf("put %s (%s, md5 %s), uid %s\n", name.c_str(),
                util::human_bytes(data->size).c_str(), data->checksum.c_str(),
                data->uid.str().c_str());
    return true;
  }

  bool get(const std::string& name, const std::string& path) {
    const auto data = resolve(name);
    if (!data.has_value()) return false;
    const api::Status fetched = session.get_file(*data, path);
    if (!fetched.ok()) {
      std::fprintf(stderr, "error: get: %s\n", fetched.error().to_string().c_str());
      return false;
    }
    std::printf("got %s -> %s (%s, md5 %s verified)\n", name.c_str(), path.c_str(),
                util::human_bytes(data->size).c_str(), data->checksum.c_str());
    return true;
  }

  bool chunk(const std::string& size_text) {
    const std::int64_t bytes = util::parse_bytes(size_text);
    if (bytes <= 0) {
      std::fprintf(stderr, "error: bad chunk size '%s'\n", size_text.c_str());
      return false;
    }
    session.set_chunk_bytes(bytes);
    std::printf("chunk size %s\n", util::human_bytes(bytes).c_str());
    return true;
  }

  /// The scheduler's host table: the failure detector made visible, so an
  /// operator (or the live-fault-tolerance CI job) can see a worker declared
  /// dead instead of inferring it from replica movement.
  bool status() {
    std::optional<api::Expected<std::vector<services::HostInfo>>> table;
    bus.ds_hosts([&](api::Expected<std::vector<services::HostInfo>> reply) {
      table = std::move(reply);
    });
    if (!table.has_value() || !table->ok()) {
      std::fprintf(stderr, "error: %s\n",
                   table.has_value() ? (*table).error().to_string().c_str()
                                     : "no reply");
      return false;
    }
    std::printf("%zu worker(s) known to the scheduler\n", (*table)->size());
    for (const services::HostInfo& info : **table) {
      // Sync protocol v2 counters: full vs delta beats and the last delta's
      // size — a healthy steady-state worker shows deltas climbing while
      // fulls stay at the join/resync count.
      std::printf("  %-16s %-5s last sync %6.1fs ago, %u cached, peer %s, "
                  "sync %llu full / %llu delta (last delta %u item(s))\n",
                  info.name.c_str(), info.alive ? "alive" : "DEAD", info.last_sync_age_s,
                  info.cached, info.endpoint.empty() ? "-" : info.endpoint.c_str(),
                  static_cast<unsigned long long>(info.full_syncs),
                  static_cast<unsigned long long>(info.delta_syncs),
                  info.last_delta_items);
    }
    // Repository egress: how many content bytes the central store actually
    // shipped. The live-collective CI job asserts this stays ~one file copy
    // when a swarm distributes over the peer plane.
    std::optional<api::Expected<services::RepoStats>> repo;
    bus.dr_stats([&](api::Expected<services::RepoStats> reply) { repo = std::move(reply); });
    if (repo.has_value() && repo->ok()) {
      std::printf("repository: %llu object(s), %lld bytes stored, %llu chunk read(s), "
                  "%lld bytes served\n",
                  static_cast<unsigned long long>((*repo)->objects),
                  static_cast<long long>((*repo)->stored_bytes),
                  static_cast<unsigned long long>((*repo)->chunk_reads),
                  static_cast<long long>((*repo)->chunk_read_bytes));
    }
    return true;
  }

  /// Walks the ring's successor pointers from the connected member,
  /// querying each member's kRingInfo through its own short-timeout bus,
  /// and prints the shard map. Unreachable members are reported, not fatal
  /// (the walk continues through whatever the others point at).
  bool ring() {
    std::vector<rpc::wire::RingStatusInfo> members;
    std::set<std::string> seen;
    std::set<std::string> unreachable;
    std::vector<std::string> frontier;

    const api::Expected<rpc::wire::RingStatusInfo> home = bus.ring_info();
    if (!home.ok()) {
      std::fprintf(stderr, "error: %s\n", home.error().to_string().c_str());
      return false;
    }
    members.push_back(*home);
    seen.insert(home->self.endpoint);
    for (const rpc::wire::RingNode& s : home->successors) frontier.push_back(s.endpoint);

    api::RemoteBusConfig probe_config;
    probe_config.connect_timeout_s = 2.0;
    probe_config.call_deadline_s = 2.0;
    while (!frontier.empty() && seen.size() < 64) {
      const std::string endpoint = frontier.back();
      frontier.pop_back();
      if (!seen.insert(endpoint).second) continue;
      const std::size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos) continue;
      api::RemoteServiceBus probe(
          endpoint.substr(0, colon),
          static_cast<std::uint16_t>(std::strtol(endpoint.c_str() + colon + 1, nullptr, 10)),
          probe_config);
      const api::Expected<rpc::wire::RingStatusInfo> info = probe.ring_info();
      if (!info.ok()) {
        unreachable.insert(endpoint);
        continue;
      }
      members.push_back(*info);
      for (const rpc::wire::RingNode& s : info->successors) {
        if (seen.count(s.endpoint) == 0) frontier.push_back(s.endpoint);
      }
    }

    std::sort(members.begin(), members.end(),
              [](const rpc::wire::RingStatusInfo& a, const rpc::wire::RingStatusInfo& b) {
                return a.self.id < b.self.id;
              });
    std::printf("ring: %zu member(s), %zu unreachable\n", members.size(), unreachable.size());
    for (const rpc::wire::RingStatusInfo& m : members) {
      std::printf("  %016llx %-21s pred %-21s fingers %u/%u  dc %llu  ddc %llu\n",
                  static_cast<unsigned long long>(m.self.id), m.self.endpoint.c_str(),
                  m.has_pred ? m.pred.endpoint.c_str() : "-", m.fingers_resolved,
                  m.fingers_total, static_cast<unsigned long long>(m.dc_keys),
                  static_cast<unsigned long long>(m.ddc_keys));
      std::string successors;
      for (const rpc::wire::RingNode& s : m.successors) {
        successors += (successors.empty() ? "" : " ") + s.endpoint;
      }
      std::printf("    successors: %s\n", successors.empty() ? "-" : successors.c_str());
    }
    for (const std::string& endpoint : unreachable) {
      std::printf("  ????????????????  %-21s (no reply)\n", endpoint.c_str());
    }
    return true;
  }

  /// Submits one job: a command template over a comma-separated input list,
  /// results converging on COLLECTOR. Prints the job uid for scripts.
  bool job_submit(const std::string& name, const std::string& inputs_csv,
                  const std::string& collector_name, const std::string& command) {
    if (name.empty() || inputs_csv.empty() || collector_name.empty() || command.empty()) {
      std::fprintf(stderr, "usage: job submit NAME INPUT[,INPUT...] COLLECTOR CMD...\n");
      return false;
    }
    jobs::JobSpec spec;
    spec.uid = util::next_auid();
    spec.name = name;
    // Shell-style split: a '...'/"..." group is ONE argv element, so
    //   job submit count c0 coll /bin/sh -c 'wc -l < "$0" > "$1"' {input} {output}
    // hands sh the whole script as a single -c argument.
    {
      std::string token;
      bool in_token = false;
      char quote = '\0';
      for (char c : command) {
        if (quote != '\0') {
          if (c == quote) {
            quote = '\0';
          } else {
            token += c;
          }
        } else if (c == '\'' || c == '"') {
          quote = c;
          in_token = true;
        } else if (c == ' ' || c == '\t') {
          if (in_token) spec.argv.push_back(token);
          token.clear();
          in_token = false;
        } else {
          token += c;
          in_token = true;
        }
      }
      if (quote != '\0') {
        std::fprintf(stderr, "error: unterminated %c quote in command\n", quote);
        return false;
      }
      if (in_token) spec.argv.push_back(token);
    }
    std::istringstream inputs(inputs_csv);
    std::string input_name;
    while (std::getline(inputs, input_name, ',')) {
      const auto input = resolve(input_name);
      if (!input.has_value()) return false;
      spec.inputs.push_back(input->uid);
    }
    const auto collector = resolve(collector_name);
    if (!collector.has_value()) return false;
    spec.collector = collector->uid;
    std::optional<api::Expected<util::Auid>> submitted;
    bus.job_submit(spec, [&](api::Expected<util::Auid> reply) { submitted = std::move(reply); });
    if (!submitted.has_value() || !submitted->ok()) {
      std::fprintf(stderr, "error: %s\n",
                   submitted.has_value() ? (*submitted).error().to_string().c_str()
                                         : "no reply");
      return false;
    }
    std::printf("job %s submitted, uid %s, %zu task(s)\n", name.c_str(),
                (*submitted)->str().c_str(), spec.inputs.size());
    return true;
  }

  bool job_status(const std::string& uid_text) {
    const util::Auid uid = util::Auid::parse(uid_text);
    if (uid.is_nil()) {
      std::fprintf(stderr, "error: bad job uid '%s'\n", uid_text.c_str());
      return false;
    }
    std::optional<api::Expected<jobs::JobStatusInfo>> status;
    bus.job_status(uid, [&](api::Expected<jobs::JobStatusInfo> reply) {
      status = std::move(reply);
    });
    if (!status.has_value() || !status->ok()) {
      std::fprintf(stderr, "error: %s\n",
                   status.has_value() ? (*status).error().to_string().c_str() : "no reply");
      return false;
    }
    const jobs::JobStatusInfo& info = **status;
    std::printf("job %s (%s): %d/%d done, %d waiting, %d running, %d failed, "
                "%d re-placed, data-local %d/%d (%.0f%%)%s\n",
                info.name.c_str(), info.job.str().c_str(), info.done, info.total,
                info.waiting, info.running, info.failed, info.replaced, info.data_local,
                info.done, 100.0 * info.data_local_fraction(),
                info.complete() ? " COMPLETE" : "");
    for (const jobs::TaskInfo& task : info.tasks) {
      std::printf("  task %-3d %-8s attempt %d%s%s%s\n", task.index,
                  jobs::task_phase_name(task.phase), task.attempts,
                  task.runner.empty() ? "" : (" on " + task.runner).c_str(),
                  task.phase == jobs::TaskPhase::kDone
                      ? (task.data_local ? ", data-local" : ", fetched")
                      : "",
                  task.result.is_nil() ? "" : (", result " + task.result.str()).c_str());
    }
    return true;
  }

  bool publish(const std::string& key, const std::string& value) {
    const api::Status published = session.publish(key, value);
    if (!published.ok()) {
      std::fprintf(stderr, "error: %s\n", published.error().to_string().c_str());
      return false;
    }
    std::printf("published %s\n", key.c_str());
    return true;
  }

  bool lookup(const std::string& key) {
    const auto values = session.lookup(key);
    if (!values.ok()) {
      std::fprintf(stderr, "error: %s\n", values.error().to_string().c_str());
      return false;
    }
    std::printf("%s: %zu value(s)\n", key.c_str(), values->size());
    for (const std::string& value : *values) std::printf("  %s\n", value.c_str());
    return true;
  }

  bool dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string verb;
    in >> verb;
    if (verb.empty()) return true;
    if (verb == "create") {
      std::string name, size;
      in >> name >> size;
      return create(name, size);
    } else if (verb == "attr") {
      std::string name;
      in >> name;
      std::string rest;
      std::getline(in, rest);
      return attr(name, std::string(util::trim(rest)));
    } else if (verb == "search") {
      std::string name;
      in >> name;
      return search(name);
    } else if (verb == "locate") {
      std::string name;
      in >> name;
      return locate(name);
    } else if (verb == "delete") {
      std::string name;
      in >> name;
      return remove(name);
    } else if (verb == "put") {
      std::string name, path;
      in >> name >> path;
      return put(name, path);
    } else if (verb == "get") {
      std::string name, path;
      in >> name >> path;
      return get(name, path);
    } else if (verb == "chunk") {
      std::string size;
      in >> size;
      return chunk(size);
    } else if (verb == "publish") {
      std::string key, value;
      in >> key >> value;
      return publish(key, value);
    } else if (verb == "lookup") {
      std::string key;
      in >> key;
      return lookup(key);
    } else if (verb == "status") {
      return status();
    } else if (verb == "ring") {
      return ring();
    } else if (verb == "job") {
      std::string sub;
      in >> sub;
      if (sub == "submit") {
        std::string name, inputs_csv, collector_name;
        in >> name >> inputs_csv >> collector_name;
        std::string command;
        std::getline(in, command);
        return job_submit(name, inputs_csv, collector_name,
                          std::string(util::trim(command)));
      }
      if (sub == "status") {
        std::string uid_text;
        in >> uid_text;
        return job_status(uid_text);
      }
      std::fprintf(stderr, "usage: job submit NAME INPUTS COLLECTOR CMD... | job status UID\n");
      return false;
    } else if (verb == "help") {
      std::printf("commands: create NAME SIZE | attr NAME DSL | search NAME |"
                  " locate NAME | delete NAME | put NAME PATH | get NAME PATH |"
                  " chunk BYTES | publish KEY VALUE | lookup KEY | status | ring |"
                  " job submit NAME INPUTS COLLECTOR CMD... | job status UID\n");
    } else {
      std::fprintf(stderr, "error: unknown command '%s' (try help)\n", verb.c_str());
      return false;
    }
    return true;
  }

  api::RemoteServiceBus bus;
  api::BitDew bitdew;
  api::ActiveData active_data;
  api::Session session;
};

template <typename AnyCli>
int run_commands(AnyCli& cli, int argc, char** argv, int first) {
  bool ok = true;
  if (first < argc) {
    for (int i = first; i < argc; ++i) ok = cli.dispatch(argv[i]) && ok;
    return ok ? 0 : 1;
  }
  // Interactive / piped mode.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    ok = cli.dispatch(line) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "connect") {
    if (argc < 3) {
      std::fprintf(stderr, "usage: %s connect HOST:PORT [COMMAND...]\n", argv[0]);
      return 2;
    }
    const std::string target = argv[2];
    const std::size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "error: expected HOST:PORT, got '%s'\n", target.c_str());
      return 2;
    }
    const std::string host = target.substr(0, colon);
    const int port = std::atoi(target.c_str() + colon + 1);
    if (port <= 0 || port > 65535) {
      std::fprintf(stderr, "error: bad port in '%s'\n", target.c_str());
      return 2;
    }
    RemoteCli cli(host, static_cast<std::uint16_t>(port));
    if (!cli.connect()) return 1;
    return run_commands(cli, argc, argv, 3);
  }

  Cli cli;
  return run_commands(cli, argc, argv, 1);
}
