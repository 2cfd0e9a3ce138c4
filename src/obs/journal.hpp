// The one on-disk format of crash-safe keyed state (DESIGN.md
// Sec. 12.3, docs/FORMATS.md "balbench-journal/1"):
//
//   {"schema":"balbench-journal/1","kind":K,"config":C,"records":[
//   [key, value],
//   ...
//   ]}
//
// `kind` names the user (sweep-checkpoint, perf-checkpoint,
// serve-cache, serve-queue), `config` the configuration the records
// are valid for ("" when the user has none).  A journal is rewritten
// whole through util::atomic_write, so a reader sees the old or the
// new document, never a torn one; a damaged file from outside that
// protocol is still one std::runtime_error whose message starts with
// the path.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace balbench::obs {

/// Thrown by read_journal for a well-formed journal of another config:
/// the checkpoints discard such a journal, everyone else refuses it.
struct JournalConfigMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

using JournalVisitor =
    std::function<void(const std::string& key, const JsonValue& value)>;

/// Passes every record of the `kind` journal at `path` to `visit`, in
/// file order, and returns their number; nullopt if no file exists.
/// Throws std::runtime_error("<path>: ...") if the file is unreadable,
/// malformed, of another schema or kind, or has a record that is not
/// a [key, value] pair or that `visit` throws on; a config mismatch
/// throws JournalConfigMismatch before any record is visited.
std::optional<std::size_t> read_journal(const std::string& path,
                                        std::string_view kind,
                                        std::string_view config,
                                        const JournalVisitor& visit);

/// Builds one journal document; commit() replaces the file with it.
class JournalWriter {
 public:
  JournalWriter(std::string_view kind, std::string_view config);

  /// Appends a record; `value_json` must be one complete JSON value.
  void add(std::string_view key, std::string_view value_json);

  /// Closes the document and util::atomic_write()s it to `path`.
  /// Call once.
  void commit(const std::string& path);

 private:
  std::string text_;
  bool empty_ = true;
};

}  // namespace balbench::obs
