// Parameterized binding sweep: for every bind level on several hardware
// shapes, the binding width must equal the number of online PUs under the
// bound ancestor — the paper's definition, checked exhaustively rather than
// by example.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "lama/binding.hpp"
#include "lama/mapper.hpp"

namespace lama {
namespace {

struct SweepCase {
  const char* desc;       // synthetic topology
  BindTarget target;
  std::size_t expected_width;  // PUs under one object of that level
};

// Printed as the case itself. gtest's default printer dumps the struct's
// bytes — the desc pointer and the padding after target — into the listed
// test names, so they changed with every relink and, under ASLR, per build.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.desc << " bind " << bind_target_name(c.target) << " width "
      << c.expected_width;
}

class BindingSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BindingSweepTest, WidthEqualsPusUnderBoundAncestor) {
  const SweepCase& c = GetParam();
  const Allocation alloc = allocate_all(Cluster::homogeneous(2, c.desc));
  const std::size_t np = std::min<std::size_t>(4, alloc.total_online_pus());
  const MappingResult m =
      lama_map(alloc, ProcessLayout::full_pack(), {.np = np});
  const BindingResult b = bind_processes(alloc, m, {.target = c.target});
  for (const ProcessBinding& pb : b.bindings) {
    EXPECT_EQ(pb.width, c.expected_width)
        << c.desc << " bind " << bind_target_name(c.target);
    // The process's mapped PU is inside its binding.
    EXPECT_TRUE(
        m.pus(static_cast<std::size_t>(pb.rank)).is_subset_of(
            pb.cpuset));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BindingSweepTest,
    ::testing::Values(
        // 2 sockets x 4 cores x 2 threads = 16 PUs.
        SweepCase{"socket:2 core:4 pu:2", BindTarget::kHwThread, 1},
        SweepCase{"socket:2 core:4 pu:2", BindTarget::kCore, 2},
        SweepCase{"socket:2 core:4 pu:2", BindTarget::kSocket, 8},
        SweepCase{"socket:2 core:4 pu:2", BindTarget::kNode, 16},
        SweepCase{"socket:2 core:4 pu:2", BindTarget::kNone, 16},
        // NUMA/cache tree: 2s x 2N x 1L3 x 4L2 x 1L1 x 1c x 2pu = 32 PUs.
        SweepCase{"socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2",
                  BindTarget::kL1, 2},
        SweepCase{"socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2",
                  BindTarget::kL2, 2},
        SweepCase{"socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2",
                  BindTarget::kL3, 8},
        SweepCase{"socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2",
                  BindTarget::kNuma, 8},
        SweepCase{"socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2",
                  BindTarget::kSocket, 16},
        // Boards without SMT: 4b x 2s x 8c = 64 PUs (core leaves).
        SweepCase{"board:4 socket:2 core:8", BindTarget::kCore, 1},
        SweepCase{"board:4 socket:2 core:8", BindTarget::kSocket, 8},
        SweepCase{"board:4 socket:2 core:8", BindTarget::kBoard, 16},
        SweepCase{"board:4 socket:2 core:8", BindTarget::kNode, 64}),
    [](const auto& info) {
      return bind_target_name(info.param.target) + std::string("_w") +
             std::to_string(info.param.expected_width) + "_" +
             std::to_string(info.index);
    });

// Width > 1 sweep: "2X" must double the single-object width when siblings
// are available.
class BindingWidthTest
    : public ::testing::TestWithParam<std::tuple<BindTarget, std::size_t>> {};

TEST_P(BindingWidthTest, DoubleWidthDoublesPus) {
  const auto [target, single] = GetParam();
  const Allocation alloc = allocate_all(
      Cluster::homogeneous(1, "socket:2 numa:2 l3:1 l2:4 l1:1 core:1 pu:2"));
  const MappingResult m =
      lama_map(alloc, ProcessLayout::full_pack(), {.np = 1});
  const BindingResult one =
      bind_processes(alloc, m, {.target = target, .width = 1});
  const BindingResult two =
      bind_processes(alloc, m, {.target = target, .width = 2});
  EXPECT_EQ(one.bindings[0].width, single);
  EXPECT_EQ(two.bindings[0].width, single * 2);
}

INSTANTIATE_TEST_SUITE_P(
    Widths, BindingWidthTest,
    ::testing::Values(std::make_tuple(BindTarget::kHwThread, 1u),
                      std::make_tuple(BindTarget::kL2, 2u),
                      std::make_tuple(BindTarget::kNuma, 8u),
                      std::make_tuple(BindTarget::kSocket, 16u)));

}  // namespace
}  // namespace lama
