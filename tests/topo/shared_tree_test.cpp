// Copies of a NodeTopology share one tree, and a write clones it first when
// another copy holds it (topo/node_topology.hpp). These tests pin both
// halves: what a copy shares, that no write on one copy shows in another,
// and that the hash and online set cached with the tree always equal what
// a fresh walk of the tree computes. The last test runs copies and
// fingerprints on several threads while another thread writes its own copy;
// the sanitizer gates run this suite.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "support/hash.hpp"
#include "topo/fingerprint.hpp"
#include "topo/presets.hpp"
#include "topo/serialize.hpp"

namespace lama {
namespace {

// The online set as a walk of the objects computes it, ignoring the cache.
Bitmap walked_online(const NodeTopology& topo) {
  Bitmap online;
  std::function<void(const TopoObject&)> walk = [&](const TopoObject& obj) {
    if (obj.disabled()) return;
    if (obj.is_leaf()) online |= obj.cpuset();
    for (std::size_t i = 0; i < obj.num_children(); ++i) walk(obj.child(i));
  };
  walk(topo.root());
  return online;
}

void expect_cache_fresh(const NodeTopology& topo, const std::string& context) {
  EXPECT_EQ(topo.content_hash(), fnv1a64(serialize_topology(topo))) << context;
  EXPECT_TRUE(topo.online_pus() == walked_online(topo)) << context;
}

// What another copy must keep seeing after a write elsewhere.
struct Seen {
  explicit Seen(const NodeTopology& topo)
      : text(serialize_topology(topo)),
        fingerprint(topology_fingerprint(topo)),
        online(topo.online_pus()) {}
  std::string text;
  std::uint64_t fingerprint;
  Bitmap online;

  void expect_unchanged(const NodeTopology& topo,
                        const std::string& context) const {
    EXPECT_EQ(serialize_topology(topo), text) << context;
    EXPECT_EQ(topology_fingerprint(topo), fingerprint) << context;
    EXPECT_TRUE(topo.online_pus() == online) << context;
  }
};

// Each kind of write, applied to `topo`.
struct Mutation {
  const char* name;
  std::function<void(NodeTopology&)> apply;
};

std::vector<Mutation> mutations() {
  Bitmap even;
  for (std::size_t pu = 0; pu < 16; pu += 2) even.set(pu);
  return {
      {"disable node",
       [](NodeTopology& t) {
         t.set_object_disabled(ResourceType::kNode, 0, true);
       }},
      {"disable core",
       [](NodeTopology& t) {
         t.set_object_disabled(ResourceType::kCore, 5, true);
       }},
      {"disable pu",
       [](NodeTopology& t) {
         t.set_object_disabled(ResourceType::kHwThread, 3, true);
       }},
      {"restrict pus", [even](NodeTopology& t) { t.restrict_pus(even); }},
      {"re-enable socket",
       [](NodeTopology& t) {
         t.set_object_disabled(ResourceType::kSocket, 1, false);
       }},
      {"clear restrictions", [](NodeTopology& t) { t.clear_restrictions(); }},
  };
}

// A Figure 2 node with socket 1 and PU 0 off-lined, so every mutation
// (including the re-enabling ones) changes something.
NodeTopology restricted_node() {
  NodeTopology topo = presets::figure2_node();
  topo.set_object_disabled(ResourceType::kSocket, 1, true);
  topo.set_object_disabled(ResourceType::kHwThread, 0, true);
  return topo;
}

TEST(SharedTree, ACopySharesItsTree) {
  const NodeTopology original = presets::dual_socket_numa("a");
  const NodeTopology copy = original;
  EXPECT_TRUE(copy.shares_tree_with(original));
  EXPECT_EQ(&copy.root(), &original.root());
  NodeTopology assigned = presets::figure2_node();
  assigned = original;
  EXPECT_TRUE(assigned.shares_tree_with(original));
  EXPECT_EQ(assigned.name(), "a");
  // Separately built trees of equal content are equal, but not shared.
  const NodeTopology rebuilt = presets::dual_socket_numa("b");
  EXPECT_FALSE(rebuilt.shares_tree_with(original));
  EXPECT_TRUE(rebuilt.same_content(original));
}

TEST(SharedTree, EveryMutatorLeavesTheOtherCopyUnchanged) {
  for (const Mutation& m : mutations()) {
    const NodeTopology original = restricted_node();
    const Seen before(original);
    NodeTopology copy = original;
    m.apply(copy);
    EXPECT_FALSE(copy.shares_tree_with(original)) << m.name;
    EXPECT_FALSE(copy.same_content(original)) << m.name;
    before.expect_unchanged(original, m.name);
    expect_cache_fresh(copy, m.name);
    expect_cache_fresh(original, m.name);

    // And the other way round: writing the original spares the copy.
    NodeTopology writer = restricted_node();
    const NodeTopology reader = writer;
    const Seen seen(reader);
    m.apply(writer);
    seen.expect_unchanged(reader, std::string(m.name) + " (original)");
  }
}

TEST(SharedTree, CachedValuesFollowEveryMutation) {
  NodeTopology topo = restricted_node();
  expect_cache_fresh(topo, "built");
  for (const Mutation& m : mutations()) {
    m.apply(topo);  // sole holder: written in place
    expect_cache_fresh(topo, m.name);
  }
  for (const Mutation& m : mutations()) {
    const NodeTopology held = topo;
    m.apply(topo);  // shared: cloned first
    expect_cache_fresh(topo, std::string(m.name) + " after clone");
  }
}

TEST(SharedTree, WritesThatChangeNothingKeepSharing) {
  const NodeTopology original = restricted_node();
  NodeTopology copy = original;
  copy.set_object_disabled(ResourceType::kSocket, 1, true);
  copy.set_object_disabled(ResourceType::kCore, 0, false);
  Bitmap all;
  for (std::size_t pu = 0; pu < 16; ++pu) all.set(pu);
  copy.restrict_pus(all);
  EXPECT_TRUE(copy.shares_tree_with(original));
  NodeTopology clean = presets::figure2_node();
  const NodeTopology clean_copy = clean;
  clean.clear_restrictions();
  EXPECT_TRUE(clean.shares_tree_with(clean_copy));
}

TEST(SharedTree, SameContentComparesEveryField) {
  const NodeTopology a = presets::figure2_node();
  NodeTopology disabled = a;
  disabled.set_object_disabled(ResourceType::kCore, 2, true);
  EXPECT_FALSE(a.same_content(disabled));
  const NodeTopology renumbered = parse_topology(
      "(node@0 (socket@2 (core@0 (pu@0) (pu@1)) (core@1 (pu@2) (pu@3)) "
      "(core@2 (pu@4) (pu@5)) (core@3 (pu@6) (pu@7))) (socket@1 (core@4 "
      "(pu@8) (pu@9)) (core@5 (pu@10) (pu@11)) (core@6 (pu@12) (pu@13)) "
      "(core@7 (pu@14) (pu@15))))");
  EXPECT_FALSE(a.same_content(renumbered));
  EXPECT_TRUE(a.same_content(parse_topology(serialize_topology(a), "other")));
}

// Readers copy the shared topology and read its cached values while a
// writer flips PUs of its own copies of it: no reader may see a write, and
// every value a thread reads must be the one its copy was made with.
TEST(SharedTree, ConcurrentCopiesAndFingerprintsWhileAnotherCopyIsWritten) {
  const NodeTopology shared = presets::dual_socket_numa();
  const std::uint64_t fingerprint = topology_fingerprint(shared);
  const std::size_t online = shared.online_pus().count();
  constexpr int kReaders = 3;
  constexpr int kRounds = 300;
  std::atomic<int> bad{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const NodeTopology copy = shared;
        if (topology_fingerprint(copy) != fingerprint ||
            copy.online_pus().count() != online ||
            !copy.shares_tree_with(shared)) {
          bad.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      NodeTopology own = shared;
      const std::size_t pu = static_cast<std::size_t>(i) % own.pu_count();
      own.set_object_disabled(own.leaf_type(), pu, true);
      own.set_object_disabled(own.leaf_type(), (pu + 1) % own.pu_count(),
                              true);
      if (own.online_pus().count() != online - 2 ||
          own.content_hash() != fnv1a64(serialize_topology(own))) {
        bad.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(topology_fingerprint(shared), fingerprint);
}

}  // namespace
}  // namespace lama
