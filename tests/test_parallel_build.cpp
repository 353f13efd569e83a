// Determinism contract of the parallel component build (CompileService):
// every build-pool width must produce the same store entries, byte for
// byte. Seeds derive from each component's content hash alone, so
// scheduling order cannot leak into the output.
#include <gtest/gtest.h>

#include <map>

#include "flow/build.h"
#include "flow/service.h"

namespace fpgasim {
namespace {

struct ParallelBuildFixture {
  Device device = make_xcku5p_sim();
  CnnModel model;
  ModelImpl impl;
  std::vector<std::vector<int>> groups;

  ParallelBuildFixture() {
    // Four distinct components (both convs differ in input channels; the
    // pools differ in fused relu), so width > 1 actually overlaps work.
    // Spatial sizes: 14 -> 12 (c1) -> 6 (p1) -> 4 (c2) -> 2 (p2).
    model = parse_arch_def(R"(network par
input 2 14 14
conv c1 out=4 k=3
pool p1 k=2 relu
conv c2 out=4 k=3
pool p2 k=2
)");
    impl = choose_implementation(model, 12);
    groups = default_grouping(model);
  }

  /// Compiles the model into a fresh memory-only store on `width` build
  /// workers and returns every entry's `.fdcp` bytes by store key.
  std::map<std::string, std::string> build(std::size_t width) {
    ThreadPool pool(width);
    CheckpointStore store;
    CompileService service(device, store, &pool);
    const CompileService::SessionResult session = service.compile(model, impl, groups);
    EXPECT_EQ(session.built, session.components) << "width " << width;

    std::map<std::string, std::string> entries;
    for (const ComponentRequest& request : component_requests(model, impl, groups)) {
      const auto checkpoint = store.get(request.key, device);
      if (checkpoint == nullptr) {
        ADD_FAILURE() << "missing " << request.key << " at width " << width;
        continue;
      }
      entries[request.key] = encode_checkpoint(*checkpoint);
    }
    return entries;
  }

  void expect_identical_across_widths(std::size_t components) {
    const auto serial = build(1);
    ASSERT_EQ(serial.size(), components);
    for (const std::size_t width : {std::size_t{2}, std::size_t{8}}) {
      const auto parallel = build(width);
      ASSERT_EQ(parallel.size(), serial.size()) << "width " << width;
      for (const auto& [key, bytes] : serial) {
        const auto it = parallel.find(key);
        ASSERT_NE(it, parallel.end()) << "missing " << key << " at width " << width;
        EXPECT_EQ(it->second, bytes) << "checkpoint " << key << " differs at width " << width;
      }
    }
  }
};

TEST(ParallelBuild, DatabaseIsByteIdenticalAcrossThreadCounts) {
  ParallelBuildFixture fixture;
  fixture.expect_identical_across_widths(4);
}

TEST(ParallelBuild, BranchingModelDatabaseIsByteIdenticalAcrossThreadCounts) {
  // The resblock adds join components and a stream fork to the work list;
  // pool width must still not leak into any checkpoint.
  ParallelBuildFixture fixture;
  fixture.model = make_resblock_net();
  fixture.impl = choose_implementation(fixture.model, 16);
  fixture.groups = default_grouping(fixture.model);
  fixture.expect_identical_across_widths(7);  // 6 groups + the 2-way fork
}

}  // namespace
}  // namespace fpgasim
