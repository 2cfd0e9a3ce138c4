#include "core/history/store.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/atomic_write.hpp"
#include "util/parallel.hpp"

namespace balbench::history {

namespace {

constexpr const char* kIndexSchema = "balbench-perf-history-index/1";

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

/// Parses one on-disk history document, prefixing every diagnostic
/// with the file's path.  A truncated or corrupt shard must fail as
/// one clean per-file error naming path, line and column (the
/// obs::parse_json diagnostics carry line/column/key-path), never as
/// a context-free message halfway through a multi-shard load.
History parse_history_file(const std::string& path) {
  const std::string text = util::read_file(path);
  try {
    return parse_history(text);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

/// Directory of `path` ("" for a bare file name).
std::string dir_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string join(const std::string& dir, const std::string& file) {
  return dir.empty() ? file : dir + "/" + file;
}

StoreIndex parse_index_doc(const obs::JsonValue& doc) {
  StoreIndex idx;
  for (const auto& s : doc.at("shards").as_array()) {
    ShardRef shard;
    shard.host = s.at("host").as_string();
    shard.file = s.at("file").as_string();
    shard.entries = static_cast<std::size_t>(s.at("entries").as_number());
    if (shard.file.find("..") != std::string::npos ||
        (!shard.file.empty() && shard.file.front() == '/')) {
      throw std::runtime_error("history index: shard file '" + shard.file +
                               "' must be a plain relative path");
    }
    idx.shards.push_back(std::move(shard));
  }
  for (std::size_t i = 1; i < idx.shards.size(); ++i) {
    if (!(idx.shards[i - 1].host < idx.shards[i].host)) {
      throw std::runtime_error(
          "history index: shards must be sorted by host with unique hosts "
          "('" + idx.shards[i - 1].host + "' then '" + idx.shards[i].host +
          "')");
    }
  }
  return idx;
}

/// Loads one shard and checks its closed-world invariant: every entry
/// belongs to the shard's host.
History load_shard(const std::string& path, const std::string& host) {
  History h = parse_history_file(path);
  for (const auto& e : h.entries) {
    if (e.host != host) {
      throw std::runtime_error("history shard " + path + " claims host '" +
                               host + "' but holds an entry for '" + e.host +
                               "'");
    }
  }
  return h;
}

void write_store_file(const std::string& path, const History& h) {
  std::ostringstream out;
  write_history(out, h);
  util::atomic_write(path, out.str());
}

}  // namespace

StoreIndex parse_index(std::string_view text) {
  const obs::JsonValue doc = obs::parse_json(text);
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kIndexSchema) {
    throw std::runtime_error("history index schema is '" + schema +
                             "', want '" + kIndexSchema + "'");
  }
  return parse_index_doc(doc);
}

void write_index(std::ostream& os, const StoreIndex& idx) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.field("schema", kIndexSchema);
  w.key("shards").begin_array();
  for (const auto& s : idx.shards) {
    w.begin_object();
    w.field("host", s.host);
    w.field("file", s.file);
    w.field("entries", static_cast<std::int64_t>(s.entries));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string shard_file_name(const std::string& host,
                            const std::vector<std::string>& taken) {
  std::string base;
  for (char c : host) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    base += ok ? c : '_';
  }
  if (base.empty()) base = "host";
  std::string name = base + ".json";
  for (int n = 2; std::find(taken.begin(), taken.end(), name) != taken.end();
       ++n) {
    name = base + "-" + std::to_string(n) + ".json";
  }
  return name;
}

HistoryStore HistoryStore::open(const std::string& path) {
  HistoryStore store;
  store.path_ = path;
  if (!file_exists(path)) {
    store.kind_ = Kind::Missing;
    return store;
  }
  const std::string text = util::read_file(path);
  try {
    const obs::JsonValue doc = obs::parse_json(text);
    const std::string& schema = doc.at("schema").as_string();
    if (schema == kIndexSchema) {
      store.kind_ = Kind::Sharded;
      store.index_ = parse_index_doc(doc);
    } else {
      // Let parse_history produce the pointed error for foreign schemas.
      store.kind_ = Kind::SingleFile;
      parse_history(text);
    }
  } catch (const std::exception& e) {
    // A torn store file (truncated mid-write, disk-level corruption)
    // fails with one per-file error naming path, line and column.
    throw std::runtime_error(path + ": " + e.what());
  }
  return store;
}

std::size_t HistoryStore::entry_count() const {
  switch (kind_) {
    case Kind::Missing:
      return 0;
    case Kind::Sharded: {
      std::size_t n = 0;
      for (const auto& s : index_.shards) n += s.entries;
      return n;
    }
    case Kind::SingleFile:
      return parse_history_file(path_).entries.size();
  }
  return 0;
}

std::string HistoryStore::shard_path(const ShardRef& shard) const {
  return join(dir_of(path_), shard.file);
}

History HistoryStore::load_all(int jobs) const {
  switch (kind_) {
    case Kind::Missing:
      return History{};
    case Kind::SingleFile:
      return parse_history_file(path_);
    case Kind::Sharded:
      break;
  }
  // Parse shards into index-ordered slots: the concatenation below is
  // independent of which thread finished first, so the assembled
  // History is identical for every jobs value.
  const std::size_t n = index_.shards.size();
  std::vector<History> slots(n);
  std::vector<std::string> errors(n);
  util::parallel_for(util::resolve_jobs(jobs), n, [&](std::size_t i) {
    try {
      slots[i] = load_shard(shard_path(index_.shards[i]),
                            index_.shards[i].host);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  for (const auto& err : errors) {
    if (!err.empty()) throw std::runtime_error(err);
  }
  History all;
  for (auto& shard : slots) {
    for (auto& e : shard.entries) all.entries.push_back(std::move(e));
  }
  return all;
}

History HistoryStore::load_host(const std::string& host) const {
  switch (kind_) {
    case Kind::Missing:
      return History{};
    case Kind::Sharded:
      for (const auto& s : index_.shards) {
        if (s.host == host) return load_shard(shard_path(s), host);
      }
      return History{};
    case Kind::SingleFile:
      break;
  }
  History all = parse_history_file(path_);
  History mine;
  for (auto& e : all.entries) {
    if (e.host == host) mine.entries.push_back(std::move(e));
  }
  return mine;
}

HistoryStore::IngestResult HistoryStore::ingest(const obs::JsonValue& record,
                                                std::string host,
                                                bool replace) {
  IngestResult result;
  result.host = host;
  if (kind_ == Kind::Sharded) {
    // The whole point of the sharded layout: only this host's shard
    // is parsed and rewritten; every other shard stays untouched
    // bytes on disk.
    ShardRef* mine = nullptr;
    for (auto& s : index_.shards) {
      if (s.host == host) mine = &s;
    }
    History shard =
        mine != nullptr ? load_shard(shard_path(*mine), host) : History{};
    const std::size_t before = shard.entries.size();
    const HistoryEntry& entry =
        ingest_record(shard, record, std::move(host), replace);
    result.git_rev = entry.git_rev;
    result.config_hash = entry.config_hash;
    result.cells = entry.cells.size();
    result.replaced = shard.entries.size() == before;
    if (mine == nullptr) {
      std::vector<std::string> taken;
      for (const auto& s : index_.shards) taken.push_back(s.file);
      ShardRef fresh;
      fresh.host = result.host;
      fresh.file = shard_file_name(result.host, taken);
      const auto at = std::lower_bound(
          index_.shards.begin(), index_.shards.end(), fresh,
          [](const ShardRef& a, const ShardRef& b) { return a.host < b.host; });
      mine = &*index_.shards.insert(at, std::move(fresh));
    }
    mine->entries = shard.entries.size();
    write_store_file(shard_path(*mine), shard);
    save_index();
    result.store_entries = entry_count();
    return result;
  }
  // Single-file (or missing: bootstrap a single-file v2 store).
  History all = kind_ == Kind::Missing ? History{}
                                       : parse_history_file(path_);
  const std::size_t before = all.entries.size();
  const HistoryEntry& entry =
      ingest_record(all, record, std::move(host), replace);
  result.git_rev = entry.git_rev;
  result.config_hash = entry.config_hash;
  result.cells = entry.cells.size();
  result.replaced = all.entries.size() == before;
  result.store_entries = all.entries.size();
  write_store_file(path_, all);
  kind_ = Kind::SingleFile;
  return result;
}

std::size_t HistoryStore::compact(int keep_revisions) {
  if (kind_ == Kind::Missing) {
    throw std::runtime_error("cannot compact: no store at " + path_);
  }
  if (kind_ == Kind::SingleFile) {
    History all = parse_history_file(path_);
    const std::size_t n = compact_history(all, keep_revisions);
    // Rewrite even when nothing compacted: compact doubles as the
    // v1 -> v2 single-file rewrite.
    write_store_file(path_, all);
    return n;
  }
  // Sharded: every (config hash, host) group lives inside one shard,
  // so compaction streams -- one shard in memory at a time, rewritten
  // only when it changed.
  std::size_t total = 0;
  for (const auto& s : index_.shards) {
    History shard = load_shard(shard_path(s), s.host);
    const std::size_t n = compact_history(shard, keep_revisions);
    if (n > 0) write_store_file(shard_path(s), shard);
    total += n;
  }
  return total;
}

void HistoryStore::save_index() const {
  std::ostringstream out;
  write_index(out, index_);
  util::atomic_write(path_, out.str());
}

void HistoryStore::write_sharded(const History& h,
                                 const std::string& index_path) {
  // Group entries per host, preserving each host's relative order
  // (the revision axis); shards sorted by host in the index.
  std::vector<std::string> hosts;
  for (const auto& e : h.entries) {
    if (std::find(hosts.begin(), hosts.end(), e.host) == hosts.end()) {
      hosts.push_back(e.host);
    }
  }
  std::sort(hosts.begin(), hosts.end());

  const std::string shards_dir_name =
      std::filesystem::path(index_path).filename().string() + ".shards";
  const std::string dir = dir_of(index_path);
  std::filesystem::create_directories(join(dir, shards_dir_name));

  StoreIndex idx;
  std::vector<std::string> taken;
  for (const auto& host : hosts) {
    History shard;
    for (const auto& e : h.entries) {
      if (e.host == host) shard.entries.push_back(e);
    }
    const std::string fname = shard_file_name(host, taken);
    taken.push_back(fname);
    ShardRef ref;
    ref.host = host;
    ref.file = shards_dir_name + "/" + fname;
    ref.entries = shard.entries.size();
    write_store_file(join(dir, ref.file), shard);
    idx.shards.push_back(std::move(ref));
  }
  std::ostringstream out;
  write_index(out, idx);
  util::atomic_write(index_path, out.str());
}

}  // namespace balbench::history
