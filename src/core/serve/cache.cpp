#include "core/serve/cache.hpp"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "obs/journal.hpp"
#include "util/atomic_write.hpp"
#include "util/hash.hpp"

namespace balbench::serve {

namespace {

constexpr const char* kKind = "serve-cache";

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

/// Renames a damaged entry file aside (best effort: the file may have
/// vanished, which is just as quarantined).
void quarantine_file(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
}

/// The entry file a key lands in: the key with every character outside
/// [A-Za-z0-9._-] -- in practice the ':' separators -- replaced by '_',
/// plus ".json".  The key alphabet (hex digests, "unknown", "-", ':')
/// makes the mapping injective, and the name is a pure function of the
/// key -- which is what lets checkpoint_path() survive a server
/// restart.
std::string entry_file_name(const std::string& key) {
  std::string name;
  for (char c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    name += ok ? c : '_';
  }
  return name + ".json";
}

}  // namespace

ResultCache::ResultCache(std::string index_path)
    : path_(std::move(index_path)) {}

std::string ResultCache::entries_dir() const { return path_ + ".entries"; }

std::string ResultCache::entry_path(const std::string& file) const {
  return entries_dir() + "/" + file;
}

std::string ResultCache::checkpoint_path(const std::string& key) const {
  std::filesystem::create_directories(entries_dir());
  std::string base = entry_file_name(key);
  // "K.json" -> "K.checkpoint.json": keeps the journal next to (and
  // clearly paired with) the entry it is building.
  base.resize(base.size() - 5);  // strip ".json"
  return entry_path(base + ".checkpoint.json");
}

void ResultCache::remove_checkpoint(const std::string& key) const {
  std::error_code ec;
  std::filesystem::remove(checkpoint_path(key), ec);
}

ResultCache::OpenStats ResultCache::open() {
  std::lock_guard<std::mutex> lock(mutex_);
  OpenStats stats;
  entries_.clear();

  bool dirty = false;  // journal no longer matches disk -> rewrite it
  obs::read_journal(path_, kKind, "", [&](const std::string& key,
                                          const obs::JsonValue& v) {
    const std::string& file = v.at("file").as_string();
    const std::string& hash = v.at("hash").as_string();
    if (file.find("..") != std::string::npos ||
        (!file.empty() && file.front() == '/')) {
      throw std::runtime_error("entry file '" + file +
                               "' must be a plain relative path");
    }
    const std::string full = entry_path(file);
    const bool present = file_exists(full);
    std::string bytes = present ? util::read_file(full) : std::string();
    if (!present || util::fnv1a_hex(bytes) != hash) {
      // Missing or torn entry: quarantine and drop the binding.  The
      // next request for this key is a plain miss -- recomputation,
      // not data loss, because sweeps are deterministic.
      quarantine_file(full);
      ++stats.quarantined;
      dirty = true;
      return;
    }
    entries_[key] = Entry{file, std::move(bytes)};
  });

  // Sweep the entries directory for orphans: entry files no journal
  // line references (a crash between "write entry" and "append to
  // journal").  Checkpoint journals are legitimate residents -- they
  // are how an interrupted sweep resumes -- so only plain ".json"
  // files are candidates.
  if (file_exists(entries_dir())) {
    std::vector<std::string> referenced;
    for (const auto& [key, e] : entries_) referenced.push_back(e.file);
    std::vector<std::string> orphans;
    for (const auto& de : std::filesystem::directory_iterator(entries_dir())) {
      const std::string name = de.path().filename().string();
      if (name.size() < 5 || name.compare(name.size() - 5, 5, ".json") != 0) {
        continue;  // .quarantined, partial tmp files, ...
      }
      if (name.size() > 16 &&
          name.compare(name.size() - 16, 16, ".checkpoint.json") == 0) {
        continue;
      }
      if (std::find(referenced.begin(), referenced.end(), name) ==
          referenced.end()) {
        orphans.push_back(de.path().string());
      }
    }
    std::sort(orphans.begin(), orphans.end());  // deterministic order
    for (const auto& path : orphans) {
      quarantine_file(path);
      ++stats.orphans;
    }
  }

  if (dirty) save_journal_locked();
  stats.entries = entries_.size();
  return stats;
}

std::optional<std::string> ResultCache::lookup(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second.bytes;
}

void ResultCache::store(const std::string& key, std::string_view record) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::filesystem::create_directories(entries_dir());
  const std::string file = entry_file_name(key);
  // Commit order matters: entry file first, journal second.  A crash
  // between the two leaves an orphan file the next open() quarantines;
  // the reverse order could journal a binding to bytes that never hit
  // the disk.
  util::atomic_write(entry_path(file), record);
  entries_[key] = Entry{file, std::string(record)};
  save_journal_locked();
}

void ResultCache::save_journal_locked() const {
  obs::JournalWriter journal(kKind, "");
  for (const auto& [key, e] : entries_) {  // std::map: sorted by key
    std::ostringstream os;
    {
      obs::JsonWriter w(os, 0);
      w.begin_object();
      w.field("file", e.file);
      w.field("bytes", static_cast<std::int64_t>(e.bytes.size()));
      w.field("hash", util::fnv1a_hex(e.bytes));
      w.end_object();
    }
    journal.add(key, os.str());
  }
  journal.commit(path_);
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace balbench::serve
