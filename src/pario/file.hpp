// pario: an MPI-I/O-style parallel file interface over pfsim.
//
// Implements the slice of MPI-2 I/O that b_eff_io exercises (paper
// Sec. 3.2 item 4): the three access methods (first write / rewrite /
// read), individual and shared file pointers, collective and
// non-collective coordination, blocking calls only, unique+nonatomic
// files.  Pattern types map to:
//
//   type 0  set_view_strided + write_all/read_all   (two-phase I/O)
//   type 1  write_ordered/read_ordered              (shared pointer)
//   type 2  open_private + write/read               (file per process)
//   type 3  write_at/read_at in per-rank segments   (individual ptr)
//   type 4  write_at_all/read_at_all in segments    (collective)
//
// This layer simulates timing; payload bytes are never stored, so all
// operations take byte counts instead of buffers.  It requires the
// simulation transport (a rank must be able to block in virtual time).
//
// Extension beyond the paper's release (its Sec. 5.3 "future" note):
// per-open Hints can force two-phase aggregation on or off, like an
// MPI_Info object.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "parmsg/comm.hpp"
#include "pfsim/filesystem.hpp"

namespace balbench::pario {

/// Shared I/O state for one SPMD run: the filesystem plus per-file
/// shared data (shared file pointers, open bookkeeping).  Create one
/// in SimTransport::run_with_setup and share it across ranks.
class IoContext {
 public:
  IoContext(simt::Engine& engine, const pfsim::IoSystemConfig& config,
            int num_clients)
      : fs_(engine, config, num_clients) {}

  [[nodiscard]] pfsim::FileSystem& fs() { return fs_; }
  [[nodiscard]] const pfsim::IoSystemConfig& config() const { return fs_.config(); }

 private:
  friend class File;
  struct SharedFile {
    pfsim::FileId id = 0;
    std::int64_t shared_pointer = 0;
    int open_count = 0;
  };
  std::shared_ptr<SharedFile> acquire(const std::string& name);
  void release(const std::shared_ptr<SharedFile>& sf);

  pfsim::FileSystem fs_;
  std::map<std::string, std::shared_ptr<SharedFile>> shared_;
};

enum class OpenMode { Create, ReadWrite, ReadOnly };

/// MPI_Info-style hints (paper Sec. 5.3: pattern-specific hints).
struct Hints {
  /// Override the platform default for collective two-phase buffering.
  std::optional<bool> two_phase;
};

class File {
 public:
  /// Collective open: every rank of `comm` participates.
  static File open(parmsg::Comm& comm, IoContext& ctx, const std::string& name,
                   OpenMode mode, Hints hints = {});
  /// Non-collective open of a rank-private file (pattern type 2).
  static File open_private(parmsg::Comm& comm, IoContext& ctx,
                           const std::string& name, OpenMode mode,
                           Hints hints = {});

  File(File&&) noexcept;
  File& operator=(File&&) = delete;
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// Collective close (non-collective for private files).
  void close();

  // --- individual file pointer (non-collective) ----------------------
  void seek(std::int64_t offset);
  [[nodiscard]] std::int64_t tell() const { return pos_; }
  /// Write `bytes` at the individual pointer as `chunks` back-to-back
  /// accesses (chunks > 1 is the batched loop of DESIGN.md Sec. 6).
  void write(std::int64_t bytes, std::int64_t chunks = 1);
  void read(std::int64_t bytes, std::int64_t chunks = 1);

  // --- explicit offsets (non-collective; pattern type 3) -------------
  void write_at(std::int64_t offset, std::int64_t bytes, std::int64_t chunks = 1);
  void read_at(std::int64_t offset, std::int64_t bytes, std::int64_t chunks = 1);

  // --- shared file pointer, collective ordered (pattern type 1) ------
  /// All ranks write `bytes` each, in rank order, at the shared
  /// pointer.  The paper's implementations serialize the pointer
  /// update (a token circulates), which is what makes this pattern
  /// slow for small chunks.
  /// `calls` batches that many consecutive ordered library calls of
  /// bytes/calls each (deterministic fast-forward): the per-call token
  /// sweep of all ranks is charged for every batched call.
  void write_ordered(std::int64_t bytes, std::int64_t calls = 1);
  void read_ordered(std::int64_t bytes, std::int64_t calls = 1);
  /// Shared file pointer position / collective repositioning.
  [[nodiscard]] std::int64_t shared_position() const;
  void seek_shared(std::int64_t pos);

  // --- strided fileview, collective (pattern type 0) -----------------
  /// Each rank sees chunks of `disk_chunk` bytes at stride
  /// nprocs*disk_chunk, starting at rank*disk_chunk: the scatter view
  /// of Fig. 2 (left).
  void set_view_strided(std::int64_t disk_chunk);
  /// Current collective round base offset / reposition it (all ranks
  /// must pass the same value; used to re-read a file from the start).
  [[nodiscard]] std::int64_t view_position() const { return view_pos_; }
  void seek_view(std::int64_t pos);
  /// Collectively transfer `mem_bytes` per rank through the view.
  /// With two-phase enabled this becomes one large aggregated request
  /// per rank; otherwise every disk chunk is its own access.
  /// `calls` batches that many collective calls of mem_bytes/calls.
  void write_all(std::int64_t mem_bytes, std::int64_t calls = 1);
  void read_all(std::int64_t mem_bytes, std::int64_t calls = 1);

  // --- explicit offsets, collective (pattern type 4) ------------------
  /// `chunks` doubles as the batched call count (one call per chunk,
  /// as in the segmented patterns where L := l).
  void write_at_all(std::int64_t offset, std::int64_t bytes, std::int64_t chunks = 1);
  void read_at_all(std::int64_t offset, std::int64_t bytes, std::int64_t chunks = 1);

  /// MPI_File_sync, collective: all dirty data of this file reaches
  /// disk before any rank returns.
  void sync();

  [[nodiscard]] std::int64_t size() const;

 private:
  File(parmsg::Comm& comm, IoContext& ctx, std::shared_ptr<IoContext::SharedFile> sf,
       bool collective, bool two_phase);

  /// Block the calling rank until the filesystem request completes.
  void submit_blocking(const pfsim::FileSystem::Request& req);
  void transfer_view(std::int64_t mem_bytes, std::int64_t calls, bool write);
  void transfer_ordered(std::int64_t bytes, std::int64_t calls, bool write);
  void transfer_at_all(std::int64_t offset, std::int64_t bytes, std::int64_t chunks,
                       bool write);
  void charge_call_overhead(std::int64_t chunks);

  parmsg::Comm* comm_ = nullptr;
  IoContext* ctx_ = nullptr;
  std::shared_ptr<IoContext::SharedFile> shared_;
  bool collective_ = true;
  bool two_phase_ = true;
  std::int64_t pos_ = 0;        // individual file pointer
  std::int64_t view_chunk_ = 0; // 0 = contiguous view
  std::int64_t view_pos_ = 0;   // next collective round base offset
};

}  // namespace balbench::pario
