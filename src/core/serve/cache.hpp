// Durable result cache of balbench-serve (DESIGN.md Sec. 17.2).
//
// Layout: a small JSON index over opaque per-entry files, each named
// after its key with every character outside [A-Za-z0-9._-] replaced
// by '_':
//
//   CACHE.json                the "serve-cache" journal
//                             (obs/journal.hpp):
//                             key -> {file, bytes, fnv1a hash}
//   CACHE.entries/K.json      verbatim balbench-run-record/1 bytes of
//                             one cached sweep (opaque to the cache)
//   CACHE.entries/K.checkpoint.json
//                             in-flight sweep-checkpoint journal of a
//                             sweep being computed for key K
//   CACHE.entries/K.json.quarantined
//                             a damaged entry, kept for autopsy
//
// Crash-safety argument (the serve_kill_recover ctest proves it end to
// end): every file goes through util::atomic_write, and an entry is
// committed in two ordered steps -- entry file first, journal second.
// SIGKILL between the steps leaves an orphan entry file that the next
// open() quarantines (its key binding was never journaled, and
// recomputing is always correct because sweeps are deterministic).
// SIGKILL *during* a sweep leaves only the checkpoint journal, which
// the recomputation resumes, so the post-crash record is byte-
// identical to a never-crashed run.  The journal additionally stores
// an FNV-1a hash of each entry's bytes; open() re-hashes every entry
// and quarantines mismatches, catching disk-level truncation that
// rename atomicity cannot (see the guarantee note in
// util/atomic_write.hpp).
//
// Keys are "(git rev):(config hash):(scenario hash)" -- see
// serve::CacheKey.  The cache never interprets entry bytes; a hit is
// returned verbatim, which is the whole byte-identity contract.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace balbench::serve {

/// The content address of one sweep result.  `scenario_hash` is "-"
/// for the built-in sweep so the key shape is stable; the config hash
/// deliberately excludes host-side knobs (--jobs, verbosity), which is
/// why records computed at any --jobs N share one cache line.
struct CacheKey {
  std::string git_rev;
  std::string config_hash;
  std::string scenario_hash;
  [[nodiscard]] std::string str() const {
    return git_rev + ":" + config_hash + ":" + scenario_hash;
  }
};

class ResultCache {
 public:
  /// What journal replay found on disk.  `quarantined` counts journal
  /// entries whose file was missing or failed the hash check;
  /// `orphans` counts unreferenced entry files (a crash between the
  /// two commit steps).  Both are recomputation work, never data loss.
  struct OpenStats {
    std::size_t entries = 0;
    std::size_t quarantined = 0;
    std::size_t orphans = 0;
  };

  /// Binds the cache to `index_path` ("CACHE.json" above) without
  /// touching the disk; call open() before anything else.
  explicit ResultCache(std::string index_path);

  /// Replays the journal: loads and verifies every entry, quarantines
  /// damaged or orphaned files, and rewrites the journal if repairs
  /// were made.  A missing journal is an empty cache, not an error; a
  /// corrupt journal throws with a path-qualified diagnostic.
  OpenStats open();

  /// Entry bytes for `key`, or nullopt.  Thread-safe.
  [[nodiscard]] std::optional<std::string> lookup(const std::string& key) const;

  /// Commits (key -> record): entry file, then journal, both atomic.
  /// Overwrites an existing key in place.  Thread-safe.
  void store(const std::string& key, std::string_view record);

  /// Stable path of the in-flight checkpoint journal for `key` (the
  /// sweep executor passes it to report::Checkpoint).  Pure function
  /// of (index_path, key) so a restarted server resumes the exact
  /// journal its predecessor was writing.  Creates the entries
  /// directory on first use.
  [[nodiscard]] std::string checkpoint_path(const std::string& key) const;
  /// Removes the checkpoint journal after a successful commit.
  void remove_checkpoint(const std::string& key) const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  struct Entry {
    std::string file;   // relative to the entries directory
    std::string bytes;  // verbatim record
  };

  [[nodiscard]] std::string entries_dir() const;
  [[nodiscard]] std::string entry_path(const std::string& file) const;
  void save_journal_locked() const;

  std::string path_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;
};

}  // namespace balbench::serve
