// Crash-safe whole-file writes: tmp + fsync + rename.
//
// Every JSON artifact this repo emits (run records, perf records,
// Chrome traces, wall profiles, checkpoint journals) is either byte-
// compared by tests or read back by a later invocation, so a Ctrl-C or
// SIGKILL mid-write must never leave a truncated file behind.  The
// bytes land in a temporary file in the target's directory, are
// fsync'd, and the temporary is rename(2)d over the target -- readers
// observe either the old complete file or the new complete file,
// never a prefix (DESIGN.md Sec. 12.3).
//
// Guarantee actually provided (be precise -- the serve result cache
// journals through this):
//
//   * Atomicity, always: any reader, before or after any crash, sees
//     a complete old file or a complete new file, never a mix or a
//     prefix.  This needs only rename(2) semantics.
//   * Durability, on ext4-like filesystems: the parent directory is
//     fsync'd after the rename, so once atomic_write returns, the NEW
//     content survives a power failure.  Without that directory sync a
//     crash immediately after commit can revert the rename -- the file
//     silently reads as its previous version again.
//   * On filesystems that refuse O_DIRECTORY opens for fsync (some
//     network/FUSE mounts), the directory sync is skipped: atomicity
//     holds, but the rename may be reverted by a crash.  Callers that
//     must detect this (the serve cache) pair the write with a
//     content hash in a separately-journaled index.
#pragma once

#include <string>
#include <string_view>

namespace balbench::util {

/// Atomically replaces `path` with `content`.  The temporary file is
/// created next to `path` (rename is only atomic within one
/// filesystem) and removed on failure.  Throws std::runtime_error
/// with errno context if any syscall fails.
void atomic_write(const std::string& path, std::string_view content);

/// A tool's output file: "-" = stdout, any other path through
/// atomic_write.  Throws std::runtime_error on failure; the caller
/// adds its own prefix.
void write_output(const std::string& path, std::string_view content);

/// The read side: the whole of `path`.  Throws std::runtime_error
/// ("cannot read <path>") if it cannot be opened.
std::string read_file(const std::string& path);

}  // namespace balbench::util
