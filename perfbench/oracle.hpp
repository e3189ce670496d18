// Correctness of every reply the benchmark receives.
//
// MAP and MAPBATCH replies are compared byte for byte with the replies of a
// compile_plans=false service, which serves every request from the
// reference lama_map walk (the paper's Fig. 1, the repository's oracle).
// REMAP and OPTIMIZE replies are checked by property: survivors keep their
// node and PU and nothing lands on a failed resource; an optimized placement
// has np ranks on existing PUs and costs no more than the static layout.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "gen.hpp"

namespace perfbench {

// Fills w.expected by feeding the oracle service the run's NODE, OFFLINE,
// ONLINE, MAP and MAPBATCH lines in stream order: set-up, preparation, then
// one pass over the rounds. Every round leaves the allocations as it found
// them, so later passes expect the same bytes. REMAP and OPTIMIZE change no
// state a MAP reply depends on and are skipped. Throws std::runtime_error
// when the oracle itself answers ERR (a generator bug).
void compute_expected(Workload& w);

// Per-rank node and representative PU of a reply's nodes=/pus= fields.
struct Placements {
  std::vector<std::size_t> node;
  std::vector<std::size_t> pu;
};
bool parse_placements(std::string_view reply, Placements& out);

class ReplyChecker {
 public:
  explicit ReplyChecker(const Workload& w);

  // True when `reply` is a correct answer to `op`; otherwise `why` says what
  // is wrong. Tracks each allocation's REMAP baseline (its last MAP or
  // REMAP placement) and the improvement= of every OPTIMIZE case.
  bool check(const Op& op, std::string_view reply, std::string& why);

  // A fresh service starts without baselines.
  void forget_baselines() { baseline_.clear(); }

  // improvement= per OPTIMIZE case; negative until the case is answered.
  [[nodiscard]] const std::vector<double>& gains() const { return gains_; }

 private:
  bool check_remap(const Op& op, std::string_view reply, std::string& why);
  bool check_optimize(const Op& op, std::string_view reply, std::string& why);

  const Workload& w_;
  std::unordered_map<std::string, Placements> baseline_;
  std::vector<double> gains_;
};

}  // namespace perfbench
