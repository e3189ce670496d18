#include "dur/state_store.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/strings.hpp"

namespace lama::dur {

namespace {

constexpr const char* kSnapshotPrefix = "snapshot-";
constexpr const char* kSnapshotSuffix = ".snap";
constexpr const char* kJournalPrefix = "journal-";
constexpr const char* kJournalSuffix = ".wal";

std::string seq_name(const char* prefix, std::uint64_t seq,
                     const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%010llu%s", prefix,
                static_cast<unsigned long long>(seq), suffix);
  return buf;
}

// Parses "<prefix><digits><suffix>" into a sequence number. Strict: any
// other shape (including overlong digit runs) is rejected, so a hostile or
// accidental file in the state directory can never be opened as state.
bool parse_seq_name(const std::string& name, const char* prefix,
                    const char* suffix, std::uint64_t& seq) {
  const std::size_t prefix_len = std::strlen(prefix);
  const std::size_t suffix_len = std::strlen(suffix);
  if (name.size() <= prefix_len + suffix_len) return false;
  if (name.compare(0, prefix_len, prefix) != 0) return false;
  if (name.compare(name.size() - suffix_len, suffix_len, suffix) != 0) {
    return false;
  }
  const std::string digits =
      name.substr(prefix_len, name.size() - prefix_len - suffix_len);
  if (digits.empty() || digits.size() > 19) return false;
  seq = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  out.clear();
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

bool write_file_durably(const std::string& path, const std::string& data) {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(fd, data.data() + written,
                              data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return false;
    }
    written += static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  return synced;
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);  // best effort; a failure here degrades, never aborts
  ::close(fd);
}

}  // namespace

StateStore::StateStore(DurConfig config) : config_(std::move(config)) {}

std::string StateStore::snapshot_path(std::uint64_t seq) const {
  return config_.dir + "/" + seq_name(kSnapshotPrefix, seq, kSnapshotSuffix);
}

std::string StateStore::journal_path(std::uint64_t seq) const {
  return config_.dir + "/" + seq_name(kJournalPrefix, seq, kJournalSuffix);
}

void StateStore::collect_generations(std::vector<std::uint64_t>& snapshots,
                                     std::vector<std::uint64_t>& journals,
                                     RestoreResult* result) const {
  DIR* dir = ::opendir(config_.dir.c_str());
  if (dir == nullptr) {
    if (result != nullptr) {
      result->warnings.push_back("cannot scan state directory " +
                                 config_.dir + ": " + std::strerror(errno));
    }
    return;
  }
  while (const dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    std::uint64_t seq = 0;
    if (parse_seq_name(name, kSnapshotPrefix, kSnapshotSuffix, seq)) {
      snapshots.push_back(seq);
    } else if (parse_seq_name(name, kJournalPrefix, kJournalSuffix, seq)) {
      journals.push_back(seq);
    }
  }
  ::closedir(dir);
}

RestoreResult StateStore::restore() {
  const std::lock_guard<std::mutex> lock(mu_);
  RestoreResult result;
  if (config_.dir.empty()) {
    last_error_ = "no state directory configured";
    return result;
  }
  if (::mkdir(config_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    last_error_ = "cannot create state directory " + config_.dir + ": " +
                  std::strerror(errno);
    result.warnings.push_back(last_error_);
    return result;
  }

  std::vector<std::uint64_t> snapshots, journals;
  collect_generations(snapshots, journals, &result);
  std::sort(snapshots.rbegin(), snapshots.rend());

  // Newest snapshot that decodes cleanly to its #ENDSNAP seal wins; torn or
  // damaged generations are skipped (counted), never fatal.
  bool found = false;
  for (const std::uint64_t seq : snapshots) {
    std::string raw;
    if (!read_file(snapshot_path(seq), raw)) {
      ++stats_.snapshots_skipped;
      result.warnings.push_back("unreadable snapshot generation " +
                                std::to_string(seq));
      continue;
    }
    const DecodeResult decoded = decode_records(raw);
    const bool sealed =
        !decoded.torn && decoded.records.size() >= 2 &&
        starts_with(decoded.records.front().payload, "#SNAPSHOT") &&
        starts_with(decoded.records.back().payload, "#ENDSNAP");
    if (!sealed) {
      ++stats_.snapshots_skipped;
      result.warnings.push_back(
          "skipping torn snapshot generation " + std::to_string(seq) +
          (decoded.torn_reason.empty() ? "" : ": " + decoded.torn_reason));
      continue;
    }
    result.snapshot_lines.reserve(decoded.records.size() - 2);
    for (std::size_t i = 1; i + 1 < decoded.records.size(); ++i) {
      result.snapshot_lines.push_back(std::move(decoded.records[i].payload));
    }
    result.expected_digest = decoded.records.back().state_digest;
    result.have_digest = true;
    result.snapshot_seq = seq;
    seq_ = seq;
    found = true;
    break;
  }
  if (!found) {
    seq_ = 0;
    result.snapshot_seq = 0;
  }

  // Replay the paired journal, truncating any torn tail in place so the
  // next append lands after the last sealed record.
  const std::string jpath = journal_path(seq_);
  std::string raw;
  if (read_file(jpath, raw)) {
    DecodeResult decoded = decode_records(raw);
    result.journal_lines.reserve(decoded.records.size());
    for (Record& record : decoded.records) {
      result.journal_lines.push_back(std::move(record.payload));
    }
    if (!decoded.records.empty()) {
      result.expected_digest = decoded.records.back().state_digest;
      result.have_digest = true;
    }
    stats_.recovered_records += decoded.records.size();
    if (decoded.torn) {
      result.torn_tail = true;
      result.truncated_bytes = raw.size() - decoded.clean_bytes;
      ++stats_.torn_tails;
      result.warnings.push_back(
          "truncated torn journal tail (" +
          std::to_string(result.truncated_bytes) + " bytes): " +
          decoded.torn_reason);
      const int fd = ::open(jpath.c_str(), O_WRONLY | O_CLOEXEC);
      if (fd >= 0) {
        if (::ftruncate(fd, static_cast<off_t>(decoded.clean_bytes)) == 0) {
          ::fsync(fd);
        }
        ::close(fd);
      }
    }
  }

  if (!journal_.open(jpath, config_.fsync_every)) {
    last_error_ = journal_.last_error();
    result.warnings.push_back(last_error_);
  }
  return result;
}

bool StateStore::record(std::string_view line, std::uint64_t state_digest) {
  const std::lock_guard<std::mutex> lock(mu_);
  // The compaction clock ticks even when the append fails: a journal in
  // trouble should reach its next snapshot (which re-seals the full state)
  // sooner, not never.
  ++mutations_since_snapshot_;
  if (!journal_.append(line, state_digest)) {
    last_error_ = journal_.last_error();
    return false;
  }
  return true;
}

bool StateStore::write_snapshot(const std::vector<std::string>& lines,
                                std::uint64_t state_digest) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (config_.dir.empty()) return false;
  const std::uint64_t next = seq_ + 1;
  std::string buffer;
  try {
    buffer += encode_record("#SNAPSHOT seq=" + std::to_string(next),
                            state_digest);
    for (const std::string& line : lines) {
      buffer += encode_record(line, 0);
    }
    buffer += encode_record("#ENDSNAP lines=" + std::to_string(lines.size()),
                            state_digest);
  } catch (const std::exception& e) {
    ++stats_.snapshot_errors;
    last_error_ = e.what();
    return false;
  }

  const std::string final_path = snapshot_path(next);
  const std::string tmp_path = final_path + ".tmp";
  if (!write_file_durably(tmp_path, buffer)) {
    ::unlink(tmp_path.c_str());
    ++stats_.snapshot_errors;
    last_error_ = "cannot write snapshot " + tmp_path + ": " +
                  std::strerror(errno);
    return false;
  }
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    ++stats_.snapshot_errors;
    last_error_ = "cannot publish snapshot " + final_path + ": " +
                  std::strerror(errno);
    return false;
  }
  fsync_dir(config_.dir);

  // Rotate to the paired journal. On failure the new snapshot is withdrawn
  // and the old pair stays authoritative — mutations keep appending to the
  // old journal, so no crash window can apply a journal twice.
  journal_.close();
  ::unlink(journal_path(next).c_str());
  if (!journal_.open(journal_path(next), config_.fsync_every)) {
    last_error_ = journal_.last_error();
    ::unlink(final_path.c_str());
    fsync_dir(config_.dir);
    journal_.open(journal_path(seq_), config_.fsync_every);
    ++stats_.snapshot_errors;
    return false;
  }
  fsync_dir(config_.dir);

  const std::uint64_t previous = seq_;
  seq_ = next;
  mutations_since_snapshot_ = 0;
  ++stats_.snapshots;
  gc_below(previous);
  return true;
}

void StateStore::gc_below(std::uint64_t keep_from) {
  std::vector<std::uint64_t> snapshots, journals;
  collect_generations(snapshots, journals, nullptr);
  for (const std::uint64_t seq : snapshots) {
    if (seq < keep_from) ::unlink(snapshot_path(seq).c_str());
  }
  for (const std::uint64_t seq : journals) {
    if (seq < keep_from) ::unlink(journal_path(seq).c_str());
  }
}

StoreStats StateStore::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  StoreStats out = stats_;
  out.journal = journal_.stats();
  return out;
}

}  // namespace lama::dur
