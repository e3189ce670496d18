// Mapping validation: checks a MappingResult against an Allocation and
// reports every violated invariant as text. Used by tests, by the RTE before
// launch, and by users debugging custom rmaps components.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "lama/mapping.hpp"

namespace lama {

struct ValidationReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  [[nodiscard]] std::string to_string() const;
};

// Invariants checked (ranks are 0..N-1 by construction: the rank is the
// column index):
//  - every rank names an allocated node;
//  - every target PU set is non-empty and within the node's online PUs;
//  - procs_per_node agrees with the node column;
//  - the oversubscription flags agree with actual PU occupancy and slots.
ValidationReport validate_mapping(const Allocation& alloc,
                                  const MappingResult& mapping);

}  // namespace lama
