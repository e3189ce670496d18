#include "ledger.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

std::uint64_t SpanLog::add(const char* name, std::uint64_t start_ns,
                           std::uint64_t end_ns, std::uint64_t parent) {
  const std::uint64_t id = next_id_++;
  if (spans_.size() >= cap_) {
    ++dropped_;
  } else {
    spans_.push_back(Span{name, start_ns, end_ns, parent == 0 ? id : parent, parent, id});
  }
  return id;
}

bool SpanLog::write_chrome(const std::string& path) const {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Request spans on track 1 (the socket client), inner layers on track 2.
    std::fprintf(f.get(),
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"request\":%llu,\"parent\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.parent == 0 ? 1 : 2,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.parent));
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

std::vector<double> self_times(const std::vector<double>& inclusive) {
  std::vector<double> out(inclusive.size());
  for (std::size_t i = 0; i < inclusive.size(); ++i) {
    out[i] = i + 1 < inclusive.size() ? inclusive[i] - inclusive[i + 1]
                                      : inclusive[i];
  }
  return out;
}

}  // namespace perfbench
