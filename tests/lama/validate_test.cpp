#include "lama/validate.hpp"

#include <gtest/gtest.h>

#include "lama/baselines.hpp"
#include "lama/mapper.hpp"
#include "lama/rankfile.hpp"

namespace lama {
namespace {

Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

TEST(Validate, AcceptsEveryBuiltinMapper) {
  const Allocation alloc = figure2_allocation();
  for (const char* layout : {"scbnh", "hcsbn", "nhcsb", "Nn", "csbn"}) {
    const MappingResult m = lama_map(alloc, layout, {.np = 20});
    EXPECT_TRUE(validate_mapping(alloc, m).ok())
        << layout << "\n" << validate_mapping(alloc, m).to_string();
  }
  EXPECT_TRUE(validate_mapping(alloc, map_by_slot(alloc, {.np = 20})).ok());
  EXPECT_TRUE(validate_mapping(alloc, map_by_node(alloc, {.np = 20})).ok());
  const RankfilePlacement rf = parse_rankfile(alloc,
                                              "rank 0=node0 slot=0:0\n"
                                              "rank 1=node1 slot=1:0-3\n");
  EXPECT_TRUE(validate_mapping(alloc, rf.mapping).ok());
}

TEST(Validate, AcceptsOversubscribedMappings) {
  const Allocation alloc = figure2_allocation(1);
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 40});
  EXPECT_TRUE(validate_mapping(alloc, m).ok())
      << validate_mapping(alloc, m).to_string();
}

TEST(Validate, DetectsForeignNode) {
  const Allocation alloc = figure2_allocation(1);
  MappingResult m = lama_map(alloc, "hcsbn", {.np = 4});
  m.set_node(1, 9);
  const ValidationReport r = validate_mapping(alloc, m);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("outside the allocation"), std::string::npos);
}

TEST(Validate, DetectsOfflineTarget) {
  Cluster c = Cluster::homogeneous(1, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  MappingResult m = lama_map(alloc, "hcsbn", {.np = 4});
  alloc.mutable_node(0).topo.restrict_pus(Bitmap::parse("4-15"));
  const ValidationReport r = validate_mapping(alloc, m);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.to_string().find("offline"), std::string::npos);
}

TEST(Validate, DetectsEmptyTarget) {
  const Allocation alloc = figure2_allocation(1);
  MappingResult m = lama_map(alloc, "hcsbn", {.np = 2});
  m.set_pus(0, Bitmap());
  EXPECT_FALSE(validate_mapping(alloc, m).ok());
}

TEST(Validate, DetectsBadBookkeeping) {
  const Allocation alloc = figure2_allocation(2);
  MappingResult m = lama_map(alloc, "scbnh", {.np = 8});
  m.procs_per_node[0] += 1;
  EXPECT_FALSE(validate_mapping(alloc, m).ok());
}

TEST(Validate, DetectsMissingOversubscriptionFlag) {
  const Allocation alloc = figure2_allocation(1);
  MappingResult m = lama_map(alloc, "hcsbn", {.np = 20});
  ASSERT_TRUE(m.pu_oversubscribed);
  m.pu_oversubscribed = false;
  EXPECT_FALSE(validate_mapping(alloc, m).ok());
}

TEST(Validate, ReportRendering) {
  const Allocation alloc = figure2_allocation(1);
  const MappingResult good = lama_map(alloc, "hcsbn", {.np = 2});
  EXPECT_EQ(validate_mapping(alloc, good).to_string(), "mapping valid\n");
}

}  // namespace
}  // namespace lama
