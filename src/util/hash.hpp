// FNV-1a 64-bit hashing, shared by every config-hash producer.
//
// Both run records ("balbench-run-record/1") and perf-history entries
// ("balbench-perf-history/2") stamp an FNV-1a hash of their canonical
// configuration description so a record can be matched to the exact
// configuration that produced it (DESIGN.md Sec. 10.4/11).  The
// algorithm lives here once so the two schemas can never drift apart.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace balbench::util {

/// FNV-1a, 64 bit, over the raw bytes of `text`.
constexpr std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// The 16-digit lowercase-hex form stamped into records.
inline std::string fnv1a_hex(std::string_view text) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a(text)));
  return buf;
}

}  // namespace balbench::util
