// Write-ahead log + snapshot generations for the persistent store.
//
// Both the live WAL and snapshot files share one on-disk framing: a
// sequence of CRC32-framed, length-prefixed records
//
//   u32 payload_len | u32 crc32(payload) | payload
//
// where the payload is LEB128/varint-encoded (kind, key, hybrid-clock
// version, value bytes). A snapshot is simply a compacted log — the same
// records a replay would produce, ending in a `seal` record carrying the
// record count — written to a `.tmp` file, fsynced, and atomically renamed
// into place. Sharing the framing means one reader, one checksum story,
// and one corruption model for both files.
//
// DurableLog manages generations:
//
//   <prefix>.wal.<g>    records applied after snapshot generation g
//   <prefix>.snap.<g>   sealed state as of the start of wal.<g>
//
// Compaction writes snap.<g+1>, rotates appends to wal.<g+1>, and keeps
// generation g as a fallback: recovery picks the newest snapshot whose
// every record checks out AND that ends in a matching seal; a bit-rotted
// snapshot falls back to the previous generation, whose WAL chain replays
// the difference (last-writer-wins makes double replay harmless). A torn
// WAL tail (power loss mid-append) is detected by the frame CRC, counted,
// and truncated off the file.
//
// Group commit: append() under the log's own mutex assigns an LSN;
// sync(lsn) elects the first waiter as leader, which issues one fsync
// covering every record appended so far — concurrent writers ride the
// same flush, mirroring the coalescing window of a replication lane
// (daemon/outbox.hpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/sim_disk.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ace::store {

struct WalRecord {
  enum Kind : std::uint8_t {
    kPut = 1,          // key, version, data
    kDelete = 2,       // key, version (tombstone)
    kHint = 3,         // key, version, owner — hinted-handoff obligation
    kHintDrained = 4,  // key, owner — obligation delivered
    kErase = 5,        // key — non-owned copy shed after handoff
    kSeal = 6,         // version = record count; terminates a snapshot
  };
  std::uint8_t kind = kPut;
  std::string key;
  std::uint64_t version = 0;
  util::Bytes data;
  std::string owner;
};

util::Bytes encode_wal_record(const WalRecord& r);

// Counters the daemon shares with its log (any pointer may be null).
struct WalCounters {
  obs::Counter* appends = nullptr;
  obs::Counter* fsyncs = nullptr;
  obs::Counter* torn_tail_dropped = nullptr;
};

// Single-writer framed log over one SimDisk file with group-commit fsync.
class Wal {
 public:
  // resume_records/resume_bytes seed the counters when reopening a file
  // that already holds recovered records.
  Wal(io::SimDisk& disk, std::string file, WalCounters counters,
      std::uint64_t resume_records = 0, std::size_t resume_bytes = 0);

  // Appends one framed record; returns its LSN (1-based), 0 after close().
  std::uint64_t append(const WalRecord& r);
  // Blocks until every record up to `lsn` is durable. One leader fsync
  // covers all concurrent callers. Returns false if the log was closed or
  // the disk rejected the flush. sync(0) is a no-op returning true.
  bool sync(std::uint64_t lsn);
  // Flushes everything appended so far.
  bool sync_all();
  void close();

  const std::string& file() const { return file_; }
  std::uint64_t records() const;
  std::size_t bytes() const;

  // Decodes framed records from `data`, invoking `fn` per record. Stops at
  // the first short or CRC-failing frame and returns the byte offset of
  // the valid prefix (== data.size() when the log is clean).
  static std::size_t scan(util::BytesView data,
                          const std::function<void(const WalRecord&)>& fn);

 private:
  io::SimDisk& disk_;
  const std::string file_;
  WalCounters counters_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t appended_ = 0;
  std::uint64_t synced_ = 0;
  bool sync_inflight_ = false;
  bool closed_ = false;
  std::size_t bytes_ = 0;
};

// An append's receipt: the WAL incarnation it landed in plus its LSN.
// Sync through the ticket, not the log — compaction may rotate the live
// WAL between an append and its sync, and records already rotated out are
// durable via the published snapshot, so flushing the old file is both
// safe and sufficient.
struct WalTicket {
  std::shared_ptr<Wal> wal;
  std::uint64_t lsn = 0;

  explicit operator bool() const { return wal != nullptr && lsn != 0; }
};

// Snapshot + WAL generation manager for one replica. Thread-safety: append
// and sync may race freely; compact() must be externally serialized with
// appenders (the store calls it under its own state mutex, which every
// appender also holds — giving the snapshot a consistent cut for free).
class DurableLog {
 public:
  struct RecoveryStats {
    int generation = 0;            // generation appends resume on
    std::uint64_t snapshot_records = 0;
    std::uint64_t wal_records = 0;
    std::size_t torn_bytes = 0;    // bytes truncated off torn WAL tails
    int torn_tails = 0;            // WAL files that needed truncation
    int snapshot_fallbacks = 0;    // corrupt snapshots skipped
  };

  DurableLog(io::SimDisk& disk, std::string prefix, WalCounters counters);

  // Loads the newest valid snapshot, replays every newer WAL (torn tails
  // truncated), and opens the live WAL. `fn` receives each surviving
  // record in apply order. Call once, before append/sync.
  RecoveryStats recover(const std::function<void(const WalRecord&)>& fn);

  WalTicket append(const WalRecord& r);
  static bool sync(const WalTicket& t);
  bool sync_all();
  void close();

  // Writes `records` (+ seal) as the next snapshot generation, atomically
  // publishes it, rotates the live WAL, and prunes generations older than
  // the previous one. Caller must hold the store state lock (see above).
  util::Status compact(const std::vector<WalRecord>& records);

  int generation() const;
  std::uint64_t wal_records() const;
  std::size_t wal_bytes() const;

 private:
  std::string wal_file(int gen) const;
  std::string snap_file(int gen) const;
  std::shared_ptr<Wal> current() const;

  io::SimDisk& disk_;
  const std::string prefix_;
  WalCounters counters_;

  mutable std::mutex mu_;  // guards gen_/wal_ swaps, not record appends
  int gen_ = 0;
  std::shared_ptr<Wal> wal_;
};

}  // namespace ace::store
