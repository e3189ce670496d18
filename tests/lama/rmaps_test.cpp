#include "lama/rmaps.hpp"

#include <gtest/gtest.h>

#include "lama/baselines.hpp"
#include "net/xyzt.hpp"
#include "support/error.hpp"

namespace lama {
namespace {

Allocation figure2_allocation(std::size_t nodes = 2) {
  return allocate_all(Cluster::homogeneous(nodes, "socket:2 core:4 pu:2"));
}

TEST(Rmaps, BuiltinsRegisteredWithLamaHighestPriority) {
  const RmapsRegistry registry;
  EXPECT_NE(registry.find("lama"), nullptr);
  EXPECT_NE(registry.find("byslot"), nullptr);
  EXPECT_NE(registry.find("bynode"), nullptr);
  EXPECT_EQ(registry.find("ghost"), nullptr);
  EXPECT_EQ(registry.component_names().front(), "lama");
  EXPECT_EQ(registry.default_component().name(), "lama");
}

TEST(Rmaps, DispatchLamaSpec) {
  const RmapsRegistry registry;
  const Allocation alloc = figure2_allocation();
  const MappingResult m = registry.map("lama:scbnh", alloc, {.np = 24});
  EXPECT_EQ(m.layout, "scbnh");
  EXPECT_EQ(m.num_procs(), 24u);
  // Matches a direct LAMA call.
  const MappingResult direct = lama_map(alloc, "scbnh", {.np = 24});
  for (std::size_t i = 0; i < 24; ++i) {
    EXPECT_EQ(m.representative_pu(i), direct.representative_pu(i));
  }
}

TEST(Rmaps, LamaDefaultLayoutIsFullPack) {
  const RmapsRegistry registry;
  const Allocation alloc = figure2_allocation();
  const MappingResult m = registry.map("lama", alloc, {.np = 8});
  const MappingResult slot = map_by_slot(alloc, {.np = 8});
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(m.representative_pu(i), slot.representative_pu(i));
  }
}

TEST(Rmaps, DispatchBaselines) {
  const RmapsRegistry registry;
  const Allocation alloc = figure2_allocation();
  EXPECT_EQ(registry.map("byslot", alloc, {.np = 4}).layout, "by-slot");
  EXPECT_EQ(registry.map("bynode", alloc, {.np = 4}).layout, "by-node");
  EXPECT_THROW(registry.map("byslot:junk", alloc, {.np = 4}), ParseError);
}

TEST(Rmaps, UnknownComponentThrows) {
  const RmapsRegistry registry;
  EXPECT_THROW(registry.map("treematch:x", figure2_allocation(), {.np = 2}),
               MappingError);
  EXPECT_THROW(registry.map("LAMA", figure2_allocation(), {.np = 2}),
               MappingError);  // names are case-sensitive
}

TEST(Rmaps, MalformedSpecThrowsParseError) {
  const RmapsRegistry registry;
  const Allocation alloc = figure2_allocation();
  // An empty spec or a spec with no component name before the colon is
  // malformed, not merely unknown.
  EXPECT_THROW(registry.map("", alloc, {.np = 2}), ParseError);
  EXPECT_THROW(registry.map(":scbnh", alloc, {.np = 2}), ParseError);
  EXPECT_THROW(registry.map(":", alloc, {.np = 2}), ParseError);
}

TEST(Rmaps, SplitSpecSeparatesNameAndArgs) {
  EXPECT_EQ(split_rmaps_spec("lama:scbnh"),
            (std::pair<std::string, std::string>{"lama", "scbnh"}));
  EXPECT_EQ(split_rmaps_spec("byslot"),
            (std::pair<std::string, std::string>{"byslot", ""}));
  // Only the first colon splits; the rest belongs to the args.
  EXPECT_EQ(split_rmaps_spec("xyzt:a:b"),
            (std::pair<std::string, std::string>{"xyzt", "a:b"}));
  // A trailing colon means "explicitly empty args".
  EXPECT_EQ(split_rmaps_spec("lama:"),
            (std::pair<std::string, std::string>{"lama", ""}));
  EXPECT_THROW(split_rmaps_spec(""), ParseError);
  EXPECT_THROW(split_rmaps_spec(":x"), ParseError);
}

TEST(Rmaps, ArgsReachComponentVerbatim) {
  RmapsRegistry registry;
  class Echo final : public RmapsComponent {
   public:
    [[nodiscard]] std::string name() const override { return "echo"; }
    [[nodiscard]] MappingResult map(const Allocation&, const std::string& args,
                                    const MapOptions&) const override {
      MappingResult r;
      r.layout = args;
      return r;
    }
  };
  registry.register_component(std::make_unique<Echo>());
  const Allocation alloc = figure2_allocation();
  EXPECT_EQ(registry.map("echo:a b", alloc, {.np = 1}).layout, "a b");
  EXPECT_EQ(registry.map("echo::::", alloc, {.np = 1}).layout, ":::");
  EXPECT_EQ(registry.map("echo", alloc, {.np = 1}).layout, "");
}

TEST(Rmaps, LamaComponentRejectsBadLayouts) {
  const RmapsRegistry registry;
  const Allocation alloc = figure2_allocation();
  EXPECT_THROW(registry.map("lama:zz", alloc, {.np = 2}), ParseError);
  EXPECT_THROW(registry.map("lama:ss", alloc, {.np = 2}), ParseError);
  EXPECT_THROW(registry.map("lama:L9", alloc, {.np = 2}), ParseError);
}

TEST(Rmaps, DuplicateRegistrationRejected) {
  RmapsRegistry registry;
  class Fake final : public RmapsComponent {
   public:
    [[nodiscard]] std::string name() const override { return "lama"; }
    [[nodiscard]] MappingResult map(const Allocation&, const std::string&,
                                    const MapOptions&) const override {
      return {};
    }
  };
  EXPECT_THROW(registry.register_component(std::make_unique<Fake>()),
               MappingError);
}

TEST(Rmaps, CustomComponentParticipates) {
  RmapsRegistry registry;
  // A user component that pins everything to the last node.
  class LastNode final : public RmapsComponent {
   public:
    [[nodiscard]] std::string name() const override { return "lastnode"; }
    [[nodiscard]] int priority() const override { return 99; }
    [[nodiscard]] MappingResult map(const Allocation& alloc,
                                    const std::string&,
                                    const MapOptions& opts) const override {
      MappingResult r;
      r.layout = "lastnode";
      r.procs_per_node.assign(alloc.num_nodes(), 0);
      const std::size_t last = alloc.num_nodes() - 1;
      r.reset_ranks(opts.np, 1, 0);
      for (std::size_t i = 0; i < opts.np; ++i) {
        r.set_node(i, last);
        r.set_pus(i, alloc.node(last).topo.online_pus());
        ++r.procs_per_node[last];
      }
      r.sweeps = 1;
      return r;
    }
  };
  registry.register_component(std::make_unique<LastNode>());
  EXPECT_EQ(registry.default_component().name(), "lastnode");
  const Allocation alloc = figure2_allocation(3);
  const MappingResult m = registry.map("lastnode", alloc, {.np = 5});
  for (std::size_t r = 0; r < m.num_procs(); ++r) EXPECT_EQ(m.node(r), 2u);
}

TEST(Rmaps, XyztComponentRegistersAndMaps) {
  RmapsRegistry registry;
  register_xyzt_component(registry, TorusNetwork(2, 1, 1));
  const Allocation alloc = figure2_allocation(2);
  const MappingResult m = registry.map("xyzt:TXYZ", alloc, {.np = 20});
  EXPECT_EQ(m.layout, "xyzt:TXYZ");
  EXPECT_EQ(m.procs_per_node[0], 16u);
  EXPECT_EQ(m.procs_per_node[1], 4u);
  // Defaults to XYZT when no args.
  EXPECT_EQ(registry.map("xyzt", alloc, {.np = 4}).layout, "xyzt:XYZT");
  // Names sorted by priority: lama > xyzt > baselines.
  const std::vector<std::string> names = registry.component_names();
  EXPECT_EQ(names[0], "lama");
  EXPECT_EQ(names[1], "xyzt");
}

}  // namespace
}  // namespace lama
