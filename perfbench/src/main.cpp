// perfgen: the benchmark's load generator. It starts bitdewd children,
// drives one workload against them, checks every reply, and prints one
// JSON result line. perfbench/run.py builds it and wraps its output.
//
//   perfgen --workload NAME --seed N --seconds S --trace 0|1
//           --daemon PATH/bitdewd --workdir DIR [--inject bad-checksum|kill]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--daemon") {
      config.daemon = value;
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--inject") {
      config.inject_bad_checksum = value == "bad-checksum";
      config.inject_kill = value == "kill";
    } else {
      std::fprintf(stderr, "perfgen: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (config.daemon.empty() || config.workdir.empty() || config.seconds <= 0) {
    std::fprintf(stderr, "perfgen: --daemon, --workdir and --seconds > 0 are required\n");
    return 2;
  }
  if (config.trace) config.setup_reps = 1;
  std::filesystem::create_directories(config.workdir);

  perfbench::Result result;
  if (config.workload == "bulk_transfer") {
    result = perfbench::run_bulk_transfer(config);
  } else if (config.workload == "catalog_mix") {
    result = perfbench::run_catalog_mix(config);
  } else if (config.workload == "fleet_sync") {
    result = perfbench::run_fleet_sync(config);
  } else {
    std::fprintf(stderr, "perfgen: unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  result.notes["wal_fs"] = perfbench::filesystem_of(config.workdir);
  result.print();
  return 0;
}
