// Shared helpers for the benchmark harness: flag parsing, table output and
// the machine-readable JSON emitter. Every binary runs a
// reduced-but-shape-preserving sweep by default and the full paper-scale
// sweep under --full; `--json PATH` additionally writes the sweep's rows as
// a BENCH_*.json document for the perf trajectory.
#pragma once

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

namespace bitdew::bench {

inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Value of `--flag VALUE`; nullptr when absent. A missing value (end of
/// argv or another --flag following) is reported, not swallowed.
inline const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      return nullptr;
    }
    return argv[i + 1];
  }
  return nullptr;
}

inline int int_flag(int argc, char** argv, const char* flag, int fallback) {
  const char* value = flag_value(argc, argv, flag);
  return value != nullptr ? std::atoi(value) : fallback;
}

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n=== %s ===\n", title);
  std::printf("reproduces: %s\n\n", paper_ref);
}

inline void rule(int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Where a trajectory row came from: the source commit (`git rev-parse
/// HEAD` in the source tree, "unknown" outside a repository), the cores
/// online and the CMake build type, as one JSON object.
inline std::string provenance_json() {
  std::string commit;
  if (std::FILE* git = ::popen("git -C '" BITDEW_SOURCE_DIR "' rev-parse HEAD 2>/dev/null", "r")) {
    char line[128] = {};
    if (std::fgets(line, sizeof(line), git) != nullptr) commit = line;
    if (::pclose(git) != 0) commit.clear();
    while (!commit.empty() && (commit.back() == '\n' || commit.back() == '\r')) commit.pop_back();
  }
  return "{\"commit\": \"" + (commit.empty() ? std::string("unknown") : commit) +
         "\", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"build_type\": \"" BITDEW_BUILD_TYPE "\"}";
}

/// Accumulates benchmark rows and writes them as one JSON document:
///   {"bench": "<name>", "provenance": {...}, "rows": [{"k": v, ...}, ...]}
/// Constructed from argv: inert (all calls no-ops) unless --json PATH was
/// given, so benches emit unconditionally.
class JsonEmitter {
 public:
  /// A cell is a name plus either a numeric or a string value.
  struct Cell {
    Cell(const char* key, double value) : key(key), number(value), is_number(true) {}
    Cell(const char* key, int value) : key(key), number(value), is_number(true) {}
    Cell(const char* key, const char* value) : key(key), text(value) {}
    Cell(const char* key, const std::string& value) : key(key), text(value) {}

    std::string key;
    double number = 0;
    std::string text;
    bool is_number = false;
  };

  JsonEmitter(const char* bench_name, int argc, char** argv)
      : bench_(bench_name), path_(flag_value(argc, argv, "--json") != nullptr
                                      ? flag_value(argc, argv, "--json")
                                      : "") {}

  ~JsonEmitter() { flush(); }

  bool enabled() const { return !path_.empty(); }

  void row(std::initializer_list<Cell> cells) {
    if (!enabled()) return;
    std::string out = "{";
    bool first = true;
    for (const Cell& cell : cells) {
      if (!first) out += ", ";
      first = false;
      out += "\"" + escape(cell.key) + "\": ";
      if (cell.is_number) {
        char buffer[64];
        std::snprintf(buffer, sizeof(buffer), "%.6g", cell.number);
        out += buffer;
      } else {
        out += "\"" + escape(cell.text) + "\"";
      }
    }
    out += "}";
    rows_.push_back(std::move(out));
  }

  void flush() {
    if (!enabled() || flushed_) return;
    flushed_ = true;
    std::FILE* file = std::fopen(path_.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "json emitter: cannot open %s\n", path_.c_str());
      return;
    }
    std::fprintf(file, "{\"bench\": \"%s\", \"provenance\": %s, \"rows\": [",
                 escape(bench_).c_str(), provenance_json().c_str());
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(file, "%s%s", i == 0 ? "" : ", ", rows_[i].c_str());
    }
    std::fprintf(file, "]}\n");
    std::fclose(file);
    std::printf("\nwrote %zu rows to %s\n", rows_.size(), path_.c_str());
  }

 private:
  static std::string escape(const std::string& in) {
    std::string out;
    out.reserve(in.size());
    for (const char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string bench_;
  std::string path_;
  std::vector<std::string> rows_;
  bool flushed_ = false;
};

}  // namespace bitdew::bench
