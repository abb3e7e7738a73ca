#include "services/data_catalog.hpp"

namespace bitdew::services {
namespace {

constexpr const char* kDataTable = "dc_data";
constexpr const char* kLocatorTable = "dc_locator";

db::Row data_to_row(const core::Data& data) {
  db::Row row;
  row["uid"] = data.uid.str();
  row["name"] = data.name;
  row["checksum"] = data.checksum;
  row["size"] = data.size;
  row["flags"] = static_cast<std::int64_t>(data.flags);
  return row;
}

core::Data row_to_data(const db::Row& row) {
  core::Data data;
  data.uid = util::Auid::parse(db::get_text(row, "uid"));
  data.name = db::get_text(row, "name");
  data.checksum = db::get_text(row, "checksum");
  data.size = db::get_int(row, "size");
  data.flags = static_cast<std::uint32_t>(db::get_int(row, "flags"));
  return data;
}

db::Row locator_to_row(const core::Locator& locator) {
  db::Row row;
  row["data_uid"] = locator.data_uid.str();
  row["protocol"] = locator.protocol;
  row["host"] = locator.host;
  row["path"] = locator.path;
  row["credentials"] = locator.credentials;
  return row;
}

core::Locator row_to_locator(const db::Row& row) {
  core::Locator locator;
  locator.data_uid = util::Auid::parse(db::get_text(row, "data_uid"));
  locator.protocol = db::get_text(row, "protocol");
  locator.host = db::get_text(row, "host");
  locator.path = db::get_text(row, "path");
  locator.credentials = db::get_text(row, "credentials");
  return locator;
}

}  // namespace

DataCatalog::DataCatalog(db::Database& database) : database_(database) {
  database_.create_table(db::TableSchema{kDataTable, "uid", {"name"}});
  database_.create_table(db::TableSchema{kLocatorTable, "", {"data_uid"}});
}

bool DataCatalog::register_data(const core::Data& data) {
  if (database_.insert(kDataTable, data_to_row(data)).has_value()) return true;
  // The uid is taken. Completing its pending row is the one register that
  // may land on it.
  db::Table* table = database_.table(kDataTable);
  const auto id = table->by_primary(db::Value{data.uid.str()});
  if (!id.has_value() || data.checksum.empty()) return false;
  const core::Data held = row_to_data(*table->get(*id));
  if (!held.checksum.empty() || held.name != data.name || held.size != data.size) return false;
  database_.update(kDataTable, *id, data_to_row(data));
  return true;
}

std::vector<bool> DataCatalog::register_batch(const std::vector<core::Data>& items) {
  std::vector<bool> out;
  out.reserve(items.size());
  for (const core::Data& data : items) out.push_back(register_data(data));
  return out;
}

std::optional<core::Data> DataCatalog::get(const util::Auid& uid) const {
  const db::Table* table = database_.table(kDataTable);
  const auto id = table->by_primary(db::Value{uid.str()});
  if (!id.has_value()) return std::nullopt;
  return row_to_data(*table->get(*id));
}

std::vector<core::Data> DataCatalog::search(const std::string& name) const {
  const db::Table* table = database_.table(kDataTable);
  std::vector<core::Data> out;
  for (const db::RowId id : table->find("name", db::Value{name})) {
    out.push_back(row_to_data(*table->get(id)));
  }
  return out;
}

std::optional<core::Data> DataCatalog::search_one(const std::string& name) const {
  const std::vector<core::Data> all = search(name);
  if (all.empty()) return std::nullopt;
  return all.front();
}

bool DataCatalog::remove(const util::Auid& uid) {
  db::Table* data_table = database_.table(kDataTable);
  const auto id = data_table->by_primary(db::Value{uid.str()});
  if (!id.has_value()) return false;
  database_.erase(kDataTable, *id);
  for (const db::RowId locator_id : database_.find(kLocatorTable, "data_uid",
                                                   db::Value{uid.str()})) {
    database_.erase(kLocatorTable, locator_id);
  }
  return true;
}

bool DataCatalog::add_locator(const core::Locator& locator) {
  if (!get(locator.data_uid).has_value()) return false;
  return database_.insert(kLocatorTable, locator_to_row(locator)).has_value();
}

std::vector<core::Locator> DataCatalog::locators(const util::Auid& uid) const {
  const db::Table* table = database_.table(kLocatorTable);
  std::vector<core::Locator> out;
  for (const db::RowId id : table->find("data_uid", db::Value{uid.str()})) {
    out.push_back(row_to_locator(*table->get(id)));
  }
  return out;
}

std::vector<std::vector<core::Locator>> DataCatalog::locators_batch(
    const std::vector<util::Auid>& uids) const {
  std::vector<std::vector<core::Locator>> out;
  out.reserve(uids.size());
  for (const util::Auid& uid : uids) out.push_back(locators(uid));
  return out;
}

std::size_t DataCatalog::size() const { return database_.table(kDataTable)->size(); }

}  // namespace bitdew::services
