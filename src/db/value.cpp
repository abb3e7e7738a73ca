#include "db/value.hpp"

#include "util/strf.hpp"

namespace bitdew::db {
namespace {

enum class Tag : std::uint8_t { kNull = 0, kInt = 1, kReal = 2, kBool = 3, kText = 4 };

}  // namespace

std::string index_key(const Value& value) {
  return std::visit(
      [](const auto& v) -> std::string {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          return "n:";
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          return "i:" + std::to_string(v);
        } else if constexpr (std::is_same_v<T, double>) {
          return "r:" + util::strf("%.17g", v);
        } else if constexpr (std::is_same_v<T, bool>) {
          return v ? "b:1" : "b:0";
        } else {
          return "t:" + v;
        }
      },
      value);
}

void encode_value(rpc::Writer& writer, const Value& value) {
  std::visit(
      [&writer](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::monostate>) {
          writer.u8(static_cast<std::uint8_t>(Tag::kNull));
        } else if constexpr (std::is_same_v<T, std::int64_t>) {
          writer.u8(static_cast<std::uint8_t>(Tag::kInt));
          writer.i64(v);
        } else if constexpr (std::is_same_v<T, double>) {
          writer.u8(static_cast<std::uint8_t>(Tag::kReal));
          writer.f64(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          writer.u8(static_cast<std::uint8_t>(Tag::kBool));
          writer.boolean(v);
        } else {
          writer.u8(static_cast<std::uint8_t>(Tag::kText));
          writer.str(v);
        }
      },
      value);
}

Value decode_value(rpc::Reader& reader) {
  switch (static_cast<Tag>(reader.u8())) {
    case Tag::kNull: return std::monostate{};
    case Tag::kInt: return reader.i64();
    case Tag::kReal: return reader.f64();
    case Tag::kBool: return reader.boolean();
    case Tag::kText: return reader.str();
  }
  throw rpc::CodecError("unknown value tag");
}

void encode_row(rpc::Writer& writer, const Row& row) {
  writer.u32(static_cast<std::uint32_t>(row.size()));
  for (const auto& [column, value] : row) {
    writer.str(column);
    encode_value(writer, value);
  }
}

Row decode_row(rpc::Reader& reader) {
  Row row;
  const std::uint32_t count = reader.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string column = reader.str();
    row.emplace(std::move(column), decode_value(reader));
  }
  return row;
}

std::int64_t get_int(const Row& row, std::string_view column, std::int64_t fallback) {
  const auto it = row.find(column);
  if (it == row.end()) return fallback;
  if (const auto* v = std::get_if<std::int64_t>(&it->second)) return *v;
  return fallback;
}

double get_real(const Row& row, std::string_view column, double fallback) {
  const auto it = row.find(column);
  if (it == row.end()) return fallback;
  if (const auto* v = std::get_if<double>(&it->second)) return *v;
  if (const auto* v = std::get_if<std::int64_t>(&it->second)) return static_cast<double>(*v);
  return fallback;
}

std::string get_text(const Row& row, std::string_view column, std::string fallback) {
  const auto it = row.find(column);
  if (it == row.end()) return fallback;
  if (const auto* v = std::get_if<std::string>(&it->second)) return *v;
  return fallback;
}

}  // namespace bitdew::db
