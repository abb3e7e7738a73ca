// DewDB value and row model.
//
// DewDB is the "traditional SQL database" back-end of the paper's Fig. 1:
// the Data Catalog/Repository/Scheduler serialize their object state into
// it. Rows are schema-less named-column maps over a small typed Value.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "rpc/codec.hpp"

namespace bitdew::db {

/// Column value: null, integer, real, boolean or text.
using Value = std::variant<std::monostate, std::int64_t, double, bool, std::string>;

/// A row: ordered column name -> value map (ordered so WAL bytes and index
/// iteration are deterministic).
using Row = std::map<std::string, Value, std::less<>>;

/// Row id assigned by a table on insert; 0 is never a valid id.
using RowId = std::uint64_t;

/// Canonical string encoding used as index key (type-tagged so that
/// int64(1) and "1" never collide).
std::string index_key(const Value& value);

void encode_value(rpc::Writer& writer, const Value& value);
Value decode_value(rpc::Reader& reader);

void encode_row(rpc::Writer& writer, const Row& row);
Row decode_row(rpc::Reader& reader);

// Typed accessors with defaults; wrong-type columns yield the default.
std::int64_t get_int(const Row& row, std::string_view column, std::int64_t fallback = 0);
double get_real(const Row& row, std::string_view column, double fallback = 0);
std::string get_text(const Row& row, std::string_view column, std::string fallback = {});

}  // namespace bitdew::db
