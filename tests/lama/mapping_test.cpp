// MappingResult's column form: a PU set wider than the column's stride
// widens it for every rank, copies carry node, PU set and coordinate, and
// nodes with more than 64 PUs map identically on the reference walk (which
// widens as it goes) and the compiled plan (which sizes the stride up front).
#include "lama/mapping.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "lama/map_plan.hpp"
#include "lama/mapper.hpp"
#include "lama/maximal_tree.hpp"

namespace lama {
namespace {

TEST(MappingResult, SetPusWidensTheColumnForEveryRank) {
  MappingResult m;
  m.reset_ranks(3, 1, 0);
  m.set_node(0, 2);
  m.set_pus(0, Bitmap::parse("3,63"));
  m.set_pus(1, Bitmap::parse("64,130"));
  EXPECT_EQ(m.pu_stride(), 3u);
  EXPECT_EQ(m.node(0), 2u);
  EXPECT_EQ(m.pus(0).to_string(), "3,63");
  EXPECT_EQ(m.pus(1).to_string(), "64,130");
  EXPECT_TRUE(m.pus(2).empty());
  EXPECT_EQ(m.representative_pu(2), Bitmap::npos);
  // A narrower set clears the words it does not use.
  m.set_pus(1, Bitmap::single(5));
  EXPECT_EQ(m.pus(1).to_string(), "5");
  EXPECT_EQ(m.pu_stride(), 3u);
}

TEST(MappingResult, CopyRankCarriesNodePusAndCoordinate) {
  const Allocation alloc = test::figure2_allocation();
  const MappingResult from = lama_map(alloc, "scbnh", {.np = 24});
  MappingResult to = from;
  to.copy_rank(0, from, 23);
  EXPECT_EQ(to.node(0), from.node(23));
  EXPECT_EQ(to.pus(0).to_string(), from.pus(23).to_string());
  EXPECT_EQ(test::coord_vector(to, 0), test::coord_vector(from, 23));
  // A result without coordinates takes node and PU set only.
  MappingResult bare;
  bare.reset_ranks(1, 1, 0);
  bare.copy_rank(0, from, 23);
  EXPECT_EQ(bare.pus(0).to_string(), from.pus(23).to_string());
  EXPECT_TRUE(bare.coord(0).empty());
}

TEST(MappingResult, WideNodesMapIdenticallyOnBothWalks) {
  // 128 PUs per node: PU sets need two words.
  const Allocation alloc =
      allocate_all(Cluster::homogeneous(2, "socket:2 core:32 pu:2"));
  const ProcessLayout layout = ProcessLayout::parse("scbnh");
  const MaximalTree mtree(alloc, layout);
  const MapPlan plan = compile_map_plan(mtree, layout, IterationPolicy{});
  for (const std::size_t np : {8u, 200u, 300u}) {
    const MapOptions opts{.np = np};
    const MappingResult reference = lama_map(alloc, layout, opts, mtree);
    const MappingResult compiled = lama_map_compiled(alloc, opts, plan);
    test::expect_identical_mappings(reference, compiled,
                                    "np=" + std::to_string(np));
    EXPECT_EQ(compiled.pu_stride(), 2u);
  }
  const MappingResult m = lama_map(alloc, layout, {.np = 200});
  EXPECT_EQ(m.representative_pu(1), 64u);  // socket 1's first PU
}

}  // namespace
}  // namespace lama
