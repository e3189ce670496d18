// Durable control-plane state: a snapshot/journal pair under one state
// directory (docs/resilience.md). The StateStore owns the file layout and
// the crash-recovery policy; what the bytes *mean* is the protocol layer's
// business (svc/protocol.hpp replays the restored lines through its own
// parsers).
//
// File layout inside `dir` (sequence numbers pair a snapshot with the
// journal of everything after it):
//
//   snapshot-<seq>.snap   compacted state at rotation: a record stream
//                         (dur/journal.hpp framing) of "#SNAPSHOT seq=<n>",
//                         one record per state line, then "#ENDSNAP
//                         lines=<n>" sealed with the state digest. A
//                         snapshot without its #ENDSNAP record is torn and
//                         ignored — recovery falls back one generation.
//   journal-<seq>.wal     every mutation since snapshot <seq>, one sealed
//                         record each, appended before the response leaves
//
// Rotation order makes every crash window safe: the new snapshot is written
// to a .tmp, fsynced, renamed, and the directory fsynced *before* the new
// journal opens — recovery either sees the old pair intact or the new pair
// complete, never a state that applies a journal twice. The previous
// generation is kept until the next rotation; older files are garbage-
// collected.
//
// Torn tails are expected: recovery truncates the journal at the first bad
// seal (never refusing to start) and reports what it dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "dur/journal.hpp"

namespace lama::dur {

struct DurConfig {
  // State directory (created if missing). Empty disables persistence.
  std::string dir;
  // Mutations between compacting snapshots (0 = rotate only on shutdown).
  std::size_t snapshot_every = 64;
  // Journal fsync batching: 1 = every record durable before the response
  // (the default; the kill-and-restart guarantee), N amortizes the sync.
  std::size_t fsync_every = 1;
  // Re-run the restored allocations' last mappings after recovery so the
  // tree/plan caches are warm before the first client request.
  bool prewarm = true;
};

struct RestoreResult {
  // State lines from the newest valid snapshot, in write order.
  std::vector<std::string> snapshot_lines;
  // Mutation lines replayed from the paired journal, in append order.
  std::vector<std::string> journal_lines;
  // The last sealed record's state digest — the recovery self-check target.
  std::uint64_t expected_digest = 0;
  bool have_digest = false;
  std::uint64_t snapshot_seq = 0;
  bool torn_tail = false;          // the journal lost an unsealed tail
  std::size_t truncated_bytes = 0; // bytes the torn tail dropped
  // Bounded notes on anything recovery had to tolerate (torn snapshot
  // generations skipped, truncations, unreadable files).
  std::vector<std::string> warnings;
};

struct StoreStats {
  JournalStats journal;
  std::uint64_t snapshots = 0;        // rotations completed
  std::uint64_t snapshot_errors = 0;  // rotations that failed (state kept)
  std::uint64_t recovered_records = 0;
  std::uint64_t torn_tails = 0;       // journals truncated at recovery
  std::uint64_t snapshots_skipped = 0;  // torn/invalid generations passed over
};

// Every method locks the store: one session writes it, while STATS, METRICS,
// WATCH and HEALTH read its counters from any shard's thread. journal() is
// the exception — an unlocked hook for fault injection and tests.
class StateStore {
 public:
  explicit StateStore(DurConfig config);

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  [[nodiscard]] const DurConfig& config() const { return config_; }

  // Loads the newest valid snapshot + journal pair, truncates any torn
  // journal tail on disk, and opens the journal for append. Never throws
  // and never refuses: an empty or damaged directory restores to genesis
  // with warnings. Call exactly once, before the first record().
  RestoreResult restore();

  // Seals and appends one mutation line. False when the record was lost
  // (write failure, oversized line) — counted, never thrown.
  bool record(std::string_view line, std::uint64_t state_digest);

  // True when enough mutations accumulated that the caller should compact
  // (write_snapshot with its current state lines).
  [[nodiscard]] bool should_snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return config_.snapshot_every > 0 &&
           mutations_since_snapshot_ >= config_.snapshot_every;
  }

  // Writes a compacting snapshot of `lines` sealed with `state_digest` and
  // rotates to a fresh journal. False when the rotation failed — the old
  // snapshot/journal pair stays authoritative and serving continues.
  bool write_snapshot(const std::vector<std::string>& lines,
                      std::uint64_t state_digest);

  // Fsyncs any batched journal records (drain and shutdown call this).
  bool flush() {
    const std::lock_guard<std::mutex> lock(mu_);
    return journal_.flush();
  }

  [[nodiscard]] std::uint64_t journal_lag() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return journal_.lag();
  }
  [[nodiscard]] std::uint64_t snapshot_seq() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }
  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] std::string last_error() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return last_error_;
  }

  // The underlying journal, exposed for fault injection and tests.
  [[nodiscard]] Journal& journal() { return journal_; }

 private:
  [[nodiscard]] std::string snapshot_path(std::uint64_t seq) const;
  [[nodiscard]] std::string journal_path(std::uint64_t seq) const;
  void collect_generations(std::vector<std::uint64_t>& snapshots,
                           std::vector<std::uint64_t>& journals,
                           RestoreResult* result) const;
  void gc_below(std::uint64_t keep_from);

  DurConfig config_;
  mutable std::mutex mu_;
  Journal journal_;
  std::uint64_t seq_ = 0;
  std::size_t mutations_since_snapshot_ = 0;
  StoreStats stats_;
  std::string last_error_;
};

}  // namespace lama::dur
