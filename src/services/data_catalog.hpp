// Data Catalog (DC): the persistent index of data meta-information and
// locators (paper §3.4.1). Backed by DewDB so every mutation exercises the
// SQL-serialization path Table 2 measures. Replica locations of volatile
// hosts are NOT kept here — that is the Distributed Data Catalog's job
// (dht/), by design.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/data.hpp"
#include "core/locator.hpp"
#include "db/database.hpp"

namespace bitdew::services {

class DataCatalog {
 public:
  /// Uses (and creates its tables in) the given database.
  explicit DataCatalog(db::Database& database);

  /// Registers a datum; fails (returns false) on duplicate uid. A row with
  /// an empty checksum is *pending* (an upload in progress): a register of
  /// the same uid, name and size that carries a checksum completes it in
  /// place, once.
  bool register_data(const core::Data& data);

  /// Bulk registration: one call for N data, per-item outcomes aligned with
  /// the input (a duplicate does not poison the rest of the batch). The
  /// native back-end of the bus's dc_register_batch endpoint.
  std::vector<bool> register_batch(const std::vector<core::Data>& items);

  /// Full metadata for a uid.
  std::optional<core::Data> get(const util::Auid& uid) const;

  /// All data registered under a name (names are not unique).
  std::vector<core::Data> search(const std::string& name) const;

  /// First datum with the given name, if any (the paper's searchData).
  std::optional<core::Data> search_one(const std::string& name) const;

  /// Removes the datum and its locators. True if it existed.
  bool remove(const util::Auid& uid);

  /// Attaches a remote-access locator to a datum.
  bool add_locator(const core::Locator& locator);

  /// Locators registered for a datum.
  std::vector<core::Locator> locators(const util::Auid& uid) const;

  /// Bulk locator lookup, index-aligned with `uids`.
  std::vector<std::vector<core::Locator>> locators_batch(
      const std::vector<util::Auid>& uids) const;

  std::size_t size() const;

 private:
  db::Database& database_;
};

}  // namespace bitdew::services
