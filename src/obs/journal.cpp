#include "obs/journal.hpp"

#include <filesystem>

#include "util/atomic_write.hpp"

namespace balbench::obs {

namespace {

constexpr std::string_view kSchema = "balbench-journal/1";

std::string quoted(std::string_view s) {
  return '"' + json_escape(s) + '"';
}

void expect(const JsonValue& doc, const char* field, std::string_view want) {
  const std::string& got = doc.at(field).as_string();
  if (got != want) {
    throw std::runtime_error(std::string(field) + " is '" + got +
                             "', want '" + std::string(want) + "'");
  }
}

}  // namespace

std::optional<std::size_t> read_journal(const std::string& path,
                                        std::string_view kind,
                                        std::string_view config,
                                        const JournalVisitor& visit) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return std::nullopt;
  std::size_t n = 0;
  std::string where = ": ";
  try {
    const JsonValue doc = parse_json(util::read_file(path));
    expect(doc, "schema", kSchema);
    expect(doc, "kind", kind);
    if (doc.at("config").as_string() != config) {
      throw JournalConfigMismatch(path +
                                  ": written for a different configuration");
    }
    for (const JsonValue& record : doc.at("records").as_array()) {
      where = ": record " + std::to_string(n) + ": ";
      const auto& pair = record.as_array();
      if (pair.size() != 2) throw std::runtime_error("not a [key, value] pair");
      visit(pair[0].as_string(), pair[1]);
      ++n;
    }
  } catch (const JournalConfigMismatch&) {
    throw;
  } catch (const std::exception& e) {
    throw std::runtime_error(path + where + e.what());
  }
  return n;
}

JournalWriter::JournalWriter(std::string_view kind, std::string_view config)
    : text_("{\"schema\":" + quoted(kSchema) + ",\"kind\":" + quoted(kind) +
            ",\"config\":" + quoted(config) + ",\"records\":[") {}

void JournalWriter::add(std::string_view key, std::string_view value_json) {
  text_ += empty_ ? "\n[" : ",\n[";
  empty_ = false;
  text_ += quoted(key);
  text_ += ',';
  text_ += value_json;
  text_ += ']';
}

void JournalWriter::commit(const std::string& path) {
  text_ += empty_ ? "]}\n" : "\n]}\n";
  util::atomic_write(path, text_);
}

}  // namespace balbench::obs
