// lama::dur — the write-ahead journal under the mapping service's control
// plane (docs/resilience.md). Every state mutation the protocol layer
// accepts (NODE, OFFLINE/ONLINE, REMAP, the MAP lines that move the remap
// baseline) is sealed into one length-framed record and appended here before
// the response leaves the process; a restarted server replays the journal on
// top of the newest snapshot and recovers the exact pre-crash state.
//
// Record framing (little-endian, 16-byte header):
//
//   [u32 payload-len][u32 crc32c][u64 state-digest][payload bytes]
//
// The CRC-32C seals the digest and the payload together, so recovery can
// trust both or neither. `state-digest` is the writer's fingerprint of the
// full control-plane state *after* the mutation applied — the last sealed
// record's digest is the recovery self-check target.
//
// Torn-tail contract: decode_records() never throws and never returns a
// record past the first bad seal. A crash mid-append leaves a torn tail
// (short header, short payload, or a CRC mismatch); recovery truncates the
// file at `clean_bytes` and starts — a torn journal is an expected artifact
// of a crash, never a reason to refuse startup. Oversized length fields are
// rejected at parse time (kMaxRecordPayload) with a bounded reason string,
// mirroring the wire protocol's hardening: a corrupt length byte must not
// size an allocation.
//
// The codec is pure (string in, records out) so the fuzz harness
// (tests/fuzz/journal_fuzzer.cpp) drives it without a filesystem; Journal
// adds the file, fsync batching, and the fault hooks the injector uses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lama::dur {

// Largest payload one record may carry. Snapshot lines embed a serialized
// topology per node (a few KiB each); 1 MiB is generous for any real
// mutation and small enough that a corrupt length field cannot drive
// allocation.
inline constexpr std::size_t kMaxRecordPayload = 1u << 20;
// Bytes of framing before the payload: len(4) + crc(4) + digest(8).
inline constexpr std::size_t kRecordHeaderBytes = 16;

struct Record {
  std::string payload;
  std::uint64_t state_digest = 0;
};

// One sealed record, ready to append. Throws ParseError when the payload
// exceeds kMaxRecordPayload (the error string excerpts, never echoes, the
// payload).
std::string encode_record(std::string_view payload,
                          std::uint64_t state_digest);

struct DecodeResult {
  std::vector<Record> records;
  // Bytes of the clean prefix: the offset just past the last sealed record.
  // Recovery truncates the journal here.
  std::size_t clean_bytes = 0;
  // True when bytes remain past clean_bytes — a torn tail or corruption.
  bool torn = false;
  // Why decoding stopped early (bounded, human-readable); empty when the
  // buffer decoded cleanly to its end.
  std::string torn_reason;
};

// Decodes records from the front of `buffer` until it ends or a seal fails.
// Never throws, never loads a record past a bad CRC, never allocates more
// than the clean prefix describes.
DecodeResult decode_records(std::string_view buffer);

struct JournalStats {
  std::uint64_t appended = 0;      // records accepted by append()
  std::uint64_t bytes = 0;         // bytes written (framing included)
  std::uint64_t fsyncs = 0;        // fsync() calls issued
  std::uint64_t write_errors = 0;  // failed appends (record lost)
  std::uint64_t fsync_errors = 0;
};

// Append-only journal over one file. Not synchronized itself: the owning
// StateStore's mutex serializes every call, whichever shard's thread the
// protocol session records a mutation from.
// Durability is batched: fsync_every=1 syncs every record before append()
// returns (the default — the kill-and-restart harness relies on it);
// fsync_every=N amortizes the sync over N records and reports the
// not-yet-durable count as lag().
class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  // Opens (creating or appending) the journal file. Returns false and sets
  // last_error() on failure; the journal stays closed and append() becomes
  // a counted no-op — persistence degrades, serving never stops.
  bool open(const std::string& path, std::size_t fsync_every = 1);
  void close();

  // Seals and appends one record, fsyncing per the batching policy. Returns
  // false (and counts a write error) when the payload is oversized, the
  // journal is closed, or the write failed — the caller keeps serving.
  bool append(std::string_view payload, std::uint64_t state_digest);

  // Fsyncs any batched records. True when everything appended is durable.
  bool flush();

  // Records appended but not yet fsynced — the journal lag HEALTH reports.
  [[nodiscard]] std::uint64_t lag() const { return pending_; }
  [[nodiscard]] const JournalStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& last_error() const { return last_error_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  // Fault hooks (fault_injector.hpp): fail the next `n` appends at the
  // write() layer, stall every fsync by `ms`, and corrupt one byte of the
  // next sealed record before it reaches the file.
  void fail_next_writes(std::size_t n) { fail_writes_ = n; }
  void stall_fsync_ms(std::uint32_t ms) { fsync_stall_ms_ = ms; }
  void corrupt_next_record() { corrupt_next_ = true; }

 private:
  bool sync_now();

  int fd_ = -1;
  std::string path_;
  std::size_t fsync_every_ = 1;
  std::uint64_t pending_ = 0;  // records appended since the last fsync
  JournalStats stats_;
  std::string last_error_;

  std::size_t fail_writes_ = 0;
  std::uint32_t fsync_stall_ms_ = 0;
  bool corrupt_next_ = false;
};

}  // namespace lama::dur
