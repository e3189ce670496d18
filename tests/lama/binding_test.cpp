#include "lama/binding.hpp"

#include <gtest/gtest.h>

#include "common/fixtures.hpp"
#include "lama/mapper.hpp"
#include "support/error.hpp"
#include "topo/presets.hpp"

namespace lama {
namespace {

using test::figure2_allocation;

TEST(BindTarget, ParseTableIAbbrevsCaseSensitively) {
  EXPECT_EQ(parse_bind_target("n"), BindTarget::kNode);
  EXPECT_EQ(parse_bind_target("N"), BindTarget::kNuma);
  EXPECT_EQ(parse_bind_target("c"), BindTarget::kCore);
  EXPECT_EQ(parse_bind_target("h"), BindTarget::kHwThread);
  EXPECT_EQ(parse_bind_target("s"), BindTarget::kSocket);
  EXPECT_EQ(parse_bind_target("b"), BindTarget::kBoard);
  EXPECT_EQ(parse_bind_target("L2"), BindTarget::kL2);
}

TEST(BindTarget, ParseWords) {
  EXPECT_EQ(parse_bind_target("none"), BindTarget::kNone);
  EXPECT_EQ(parse_bind_target("CORE"), BindTarget::kCore);
  EXPECT_EQ(parse_bind_target("hwthread"), BindTarget::kHwThread);
  EXPECT_EQ(parse_bind_target("socket"), BindTarget::kSocket);
  EXPECT_EQ(parse_bind_target("numa"), BindTarget::kNuma);
  EXPECT_EQ(parse_bind_target("l3cache"), BindTarget::kL3);
  EXPECT_EQ(parse_bind_target("machine"), BindTarget::kNode);
  EXPECT_THROW(parse_bind_target("gpu"), ParseError);
  EXPECT_THROW(parse_bind_target(""), ParseError);
}

TEST(BindTarget, NameRoundTrip) {
  for (BindTarget t :
       {BindTarget::kNone, BindTarget::kHwThread, BindTarget::kCore,
        BindTarget::kL1, BindTarget::kL2, BindTarget::kL3, BindTarget::kNuma,
        BindTarget::kSocket, BindTarget::kBoard, BindTarget::kNode}) {
    EXPECT_EQ(parse_bind_target(bind_target_name(t)), t);
  }
}

TEST(Binding, NoneBindsToWholeNode) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 4});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kNone});
  for (const ProcessBinding& pb : b.bindings) {
    EXPECT_EQ(pb.cpuset.count(), 16u);
    EXPECT_EQ(pb.width, 16u);
  }
  EXPECT_FALSE(b.overloaded);
}

TEST(Binding, CoreBindingWidthIsTwoThreads) {
  // The paper: "a process bound to an entire processor socket has a binding
  // width of the N smallest processing units in that socket". Core binding
  // on a 2-way SMT machine has width 2.
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 8});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kCore});
  for (const ProcessBinding& pb : b.bindings) {
    EXPECT_EQ(pb.width, 2u);
  }
  // Rank 0: socket 0 core 0 -> PUs 0-1. Rank 1: socket 1 core 4 -> PUs 8-9.
  EXPECT_EQ(b.bindings[0].cpuset.to_string(), "0-1");
  EXPECT_EQ(b.bindings[1].cpuset.to_string(), "8-9");
}

TEST(Binding, SocketBindingWidthIsEight) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 4});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kSocket});
  for (const ProcessBinding& pb : b.bindings) EXPECT_EQ(pb.width, 8u);
  EXPECT_EQ(b.bindings[0].cpuset.to_string(), "0-7");
  EXPECT_EQ(b.bindings[1].cpuset.to_string(), "8-15");
}

TEST(Binding, HwThreadBindingIsSpecificResourceRestriction) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 6});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kHwThread});
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(b.bindings[static_cast<std::size_t>(r)].cpuset.to_string(),
              std::to_string(r));
    EXPECT_EQ(b.bindings[static_cast<std::size_t>(r)].width, 1u);
  }
}

TEST(Binding, WidthTwoCoresSpansFourThreads) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "csbnh", {.np = 2});
  const BindingResult b = bind_processes(
      alloc, m, {.target = BindTarget::kCore, .width = 2});
  EXPECT_EQ(b.bindings[0].cpuset.to_string(), "0-3");  // cores 0 and 1
  EXPECT_EQ(b.bindings[0].width, 4u);
}

TEST(Binding, WidthBeyondSiblingsThrows) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "csbnh", {.np = 8});
  // Rank 6 maps to core 3 of socket 0; width 2 would need a core 4 in the
  // same socket, which does not exist.
  EXPECT_THROW(bind_processes(alloc, m,
                              {.target = BindTarget::kCore, .width = 2}),
               MappingError);
}

TEST(Binding, ZeroWidthThrows) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 2});
  EXPECT_THROW(
      bind_processes(alloc, m, {.target = BindTarget::kCore, .width = 0}),
      MappingError);
}

TEST(Binding, MissingLevelThrowsUnlessWidening) {
  const Allocation alloc = figure2_allocation();  // no NUMA level
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 2});
  EXPECT_THROW(bind_processes(alloc, m, {.target = BindTarget::kNuma}),
               MappingError);
  const BindingResult b = bind_processes(
      alloc, m, {.target = BindTarget::kNuma, .widen_if_missing = true});
  // Widens to the nearest containing level: the socket.
  EXPECT_EQ(b.bindings[0].cpuset.to_string(), "0-7");
}

TEST(Binding, BindingExcludesOfflinePus) {
  Cluster c = Cluster::homogeneous(1, "socket:2 core:4 pu:2");
  Allocation alloc = allocate_all(c);
  alloc.mutable_node(0).topo.restrict_pus(Bitmap::parse("0,2-15"));
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 2});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kCore});
  // Core 0 has one offline thread: binding covers only the online PU.
  EXPECT_EQ(b.bindings[0].cpuset.to_string(), "0");
  EXPECT_EQ(b.bindings[0].width, 1u);
}

TEST(Binding, MappedTargetBindsExactlyTheAssignedPus) {
  const Allocation alloc = figure2_allocation(1);
  const MappingResult m =
      lama_map(alloc, "hcsbn", {.np = 4, .pus_per_proc = 4});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kMapped});
  for (std::size_t i = 0; i < b.bindings.size(); ++i) {
    EXPECT_EQ(b.bindings[i].cpuset, Bitmap(m.pus(i)));
    EXPECT_EQ(b.bindings[i].width, 4u);
  }
}

TEST(Binding, MappedTargetParsesFromCli) {
  EXPECT_EQ(parse_bind_target("mapped"), BindTarget::kMapped);
  EXPECT_EQ(parse_bind_target("cpus"), BindTarget::kMapped);
  EXPECT_EQ(bind_target_name(BindTarget::kMapped), "mapped");
}

TEST(Binding, OverloadDetectionAndPolicy) {
  const Allocation alloc = figure2_allocation(1);
  // 24 procs on a 16-PU node, bound to cores: cores carry 3 procs for 2 PUs.
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 24});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kCore});
  EXPECT_TRUE(b.overloaded);
  EXPECT_THROW(
      bind_processes(alloc, m,
                     {.target = BindTarget::kCore, .allow_overload = false}),
      OversubscribeError);
}

TEST(Binding, SocketBindingOfManyProcsIsNotOverloadUntilFull) {
  const Allocation alloc = figure2_allocation(1);
  const MappingResult m = lama_map(alloc, "hcsbn", {.np = 8});
  // 8 procs all bound within socket 0's 8 PUs: at capacity, not overloaded.
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kSocket});
  EXPECT_FALSE(b.overloaded);
}

TEST(Binding, NodeTargetIsLimitedSetRestriction) {
  const Allocation alloc = figure2_allocation();
  const MappingResult m = lama_map(alloc, "scbnh", {.np = 4});
  const BindingResult b =
      bind_processes(alloc, m, {.target = BindTarget::kNode});
  for (const ProcessBinding& pb : b.bindings) {
    EXPECT_EQ(pb.cpuset, alloc.node(pb.node).topo.online_pus());
  }
}

}  // namespace
}  // namespace lama
