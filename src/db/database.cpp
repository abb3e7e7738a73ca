#include "db/database.hpp"

#include <algorithm>
#include <filesystem>

#include "rpc/codec.hpp"
#include "util/log.hpp"

namespace bitdew::db {
namespace {

const util::Logger& logger() {
  static const util::Logger instance("dewdb");
  return instance;
}

}  // namespace

Database::Database(std::string wal_path) : wal_path_(std::move(wal_path)) {
  if (std::filesystem::exists(wal_path_)) {
    replay();
    wal_bytes_ = std::filesystem::file_size(wal_path_);
  }
  wal_.open(wal_path_, std::ios::binary | std::ios::app);
  if (!wal_) throw std::runtime_error("cannot open WAL: " + wal_path_);
}

Database::~Database() = default;

Table& Database::create_table(const TableSchema& schema) {
  const auto it = tables_.find(schema.name);
  if (it != tables_.end()) return *it->second;

  auto table = std::make_unique<Table>(schema.name);
  if (!schema.primary.empty()) table->set_primary(schema.primary);
  for (const std::string& column : schema.indexes) table->add_index(column);
  Table& ref = *table;
  tables_.emplace(schema.name, std::move(table));
  if (!replaying_) wal_create_table(schema);
  return ref;
}

Table* Database::table(std::string_view name) {
  const auto it = tables_.find(name);
  return it != tables_.end() ? it->second.get() : nullptr;
}

const Table* Database::table(std::string_view name) const {
  const auto it = tables_.find(name);
  return it != tables_.end() ? it->second.get() : nullptr;
}

std::optional<RowId> Database::insert(std::string_view table_name, Row row) {
  Table* t = table(table_name);
  if (t == nullptr) return std::nullopt;
  const auto id = t->insert(row);
  if (id.has_value()) {
    ++stats_.inserts;
    if (!replaying_) wal_insert(table_name, *id, row);
  }
  return id;
}

bool Database::update(std::string_view table_name, RowId id, Row row) {
  Table* t = table(table_name);
  if (t == nullptr) return false;
  const Row copy = row;
  if (!t->update(id, std::move(row))) return false;
  ++stats_.updates;
  if (!replaying_) wal_update(table_name, id, copy);
  return true;
}

bool Database::patch(std::string_view table_name, RowId id, const Row& columns) {
  Table* t = table(table_name);
  if (t == nullptr) return false;
  if (!t->patch(id, columns)) return false;
  ++stats_.updates;
  if (!replaying_) wal_update(table_name, id, *t->get(id));
  return true;
}

bool Database::erase(std::string_view table_name, RowId id) {
  Table* t = table(table_name);
  if (t == nullptr || !t->erase(id)) return false;
  ++stats_.erases;
  if (!replaying_) wal_erase(table_name, id);
  return true;
}

const Row* Database::get(std::string_view table_name, RowId id) {
  Table* t = table(table_name);
  if (t == nullptr) return nullptr;
  ++stats_.reads;
  return t->get(id);
}

std::vector<RowId> Database::find(std::string_view table_name, std::string_view column,
                                  const Value& value) {
  Table* t = table(table_name);
  if (t == nullptr) return {};
  ++stats_.finds;
  return t->find(column, value);
}

// --- WAL ---------------------------------------------------------------

void Database::wal_append(const std::string& record) {
  if (wal_path_.empty() || !wal_.is_open()) return;
  rpc::Writer frame;
  frame.u32(static_cast<std::uint32_t>(record.size()));
  wal_.write(frame.buffer().data(), static_cast<std::streamsize>(frame.size()));
  wal_.write(record.data(), static_cast<std::streamsize>(record.size()));
  wal_.flush();
  wal_bytes_ += frame.size() + record.size();
  // The record above is already durable and reflected in the tables, so
  // compacting here rewrites a state that includes it. Trigger on growth
  // past the last snapshot, not absolute size: once live state itself
  // exceeds the threshold (a large catalog does), an absolute check would
  // compact on every append.
  if (compact_threshold_ > 0 &&
      wal_bytes_ >= std::max(compact_threshold_, 2 * snapshot_bytes_)) {
    compact();
  }
}

void Database::wal_create_table(const TableSchema& schema) {
  if (wal_path_.empty()) return;
  rpc::Writer w;
  w.u8(static_cast<std::uint8_t>(WalOp::kCreateTable));
  w.str(schema.name);
  w.str(schema.primary);
  w.u32(static_cast<std::uint32_t>(schema.indexes.size()));
  for (const std::string& column : schema.indexes) w.str(column);
  wal_append(w.buffer());
}

void Database::wal_insert(std::string_view table_name, RowId id, const Row& row) {
  if (wal_path_.empty()) return;
  rpc::Writer w;
  w.u8(static_cast<std::uint8_t>(WalOp::kInsert));
  w.str(table_name);
  w.u64(id);
  encode_row(w, row);
  wal_append(w.buffer());
}

void Database::wal_update(std::string_view table_name, RowId id, const Row& row) {
  if (wal_path_.empty()) return;
  rpc::Writer w;
  w.u8(static_cast<std::uint8_t>(WalOp::kUpdate));
  w.str(table_name);
  w.u64(id);
  encode_row(w, row);
  wal_append(w.buffer());
}

void Database::wal_erase(std::string_view table_name, RowId id) {
  if (wal_path_.empty()) return;
  rpc::Writer w;
  w.u8(static_cast<std::uint8_t>(WalOp::kErase));
  w.str(table_name);
  w.u64(id);
  wal_append(w.buffer());
}

void Database::replay() {
  std::ifstream in(wal_path_, std::ios::binary);
  if (!in) return;
  std::string content((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());

  replaying_ = true;
  std::size_t offset = 0;
  std::uint64_t records = 0;
  try {
    while (offset + 4 <= content.size()) {
      rpc::Reader frame(std::string_view(content).substr(offset, 4));
      const std::uint32_t length = frame.u32();
      if (offset + 4 + length > content.size()) break;  // torn tail record
      rpc::Reader r(std::string_view(content).substr(offset + 4, length));
      offset += 4 + length;
      ++records;

      switch (static_cast<WalOp>(r.u8())) {
        case WalOp::kCreateTable: {
          TableSchema schema;
          schema.name = r.str();
          schema.primary = r.str();
          const std::uint32_t count = r.u32();
          for (std::uint32_t i = 0; i < count; ++i) schema.indexes.push_back(r.str());
          create_table(schema);
          break;
        }
        case WalOp::kInsert: {
          const std::string table_name = r.str();
          const RowId id = r.u64();
          Row row = decode_row(r);
          if (Table* t = table(table_name)) t->insert_with_id(id, std::move(row));
          break;
        }
        case WalOp::kUpdate: {
          const std::string table_name = r.str();
          const RowId id = r.u64();
          Row row = decode_row(r);
          if (Table* t = table(table_name)) t->update(id, std::move(row));
          break;
        }
        case WalOp::kErase: {
          const std::string table_name = r.str();
          const RowId id = r.u64();
          if (Table* t = table(table_name)) t->erase(id);
          break;
        }
      }
    }
  } catch (const rpc::CodecError& error) {
    logger().warn("WAL replay stopped on corrupt record %llu: %s",
                  static_cast<unsigned long long>(records), error.what());
  }
  replaying_ = false;
  logger().debug("replayed %llu WAL records from %s",
                 static_cast<unsigned long long>(records), wal_path_.c_str());
}

void Database::compact() {
  if (wal_path_.empty()) return;
  wal_.close();

  const std::string temp_path = wal_path_ + ".compact";
  {
    std::ofstream out(temp_path, std::ios::binary | std::ios::trunc);
    auto append = [&out](const std::string& record) {
      rpc::Writer frame;
      frame.u32(static_cast<std::uint32_t>(record.size()));
      out.write(frame.buffer().data(), static_cast<std::streamsize>(frame.size()));
      out.write(record.data(), static_cast<std::streamsize>(record.size()));
    };
    for (const auto& [name, table] : tables_) {
      rpc::Writer w;
      w.u8(static_cast<std::uint8_t>(WalOp::kCreateTable));
      w.str(name);
      w.str(table->primary().value_or(""));
      const std::vector<std::string> indexes = table->index_columns();
      w.u32(static_cast<std::uint32_t>(indexes.size()));
      for (const std::string& column : indexes) w.str(column);
      append(w.buffer());
      table->scan([&](RowId id, const Row& row) {
        rpc::Writer rec;
        rec.u8(static_cast<std::uint8_t>(WalOp::kInsert));
        rec.str(name);
        rec.u64(id);
        encode_row(rec, row);
        append(rec.buffer());
        return true;
      });
    }
  }
  std::filesystem::rename(temp_path, wal_path_);
  wal_.open(wal_path_, std::ios::binary | std::ios::app);
  wal_bytes_ = std::filesystem::file_size(wal_path_);
  snapshot_bytes_ = wal_bytes_;
  ++compactions_;
}

}  // namespace bitdew::db
