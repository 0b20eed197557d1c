#include "common/stats_registry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace xar {
namespace {

StatsSection CounterSection(const std::string& name, std::uint64_t value) {
  StatsSection section;
  section.name = name;
  section.AddRow({StatsMetric::Counter("value", value)});
  return section;
}

TEST(StatsMetricTest, FactoriesRenderValues) {
  StatsMetric c = StatsMetric::Counter("requests", 42);
  EXPECT_EQ(c.kind, StatsMetric::Kind::kCounter);
  EXPECT_EQ(c.value, "42");
  StatsMetric g = StatsMetric::Gauge("rate", 0.5, 2);
  EXPECT_EQ(g.kind, StatsMetric::Kind::kGauge);
  EXPECT_EQ(g.value, "0.50");
  StatsMetric t = StatsMetric::Text("backend", "ch");
  EXPECT_EQ(t.kind, StatsMetric::Kind::kText);
  EXPECT_EQ(t.value, "ch");
}

TEST(StatsRegistryTest, SnapshotsReflectLiveState) {
  StatsRegistry registry;
  std::uint64_t counter = 0;
  registry.Register("live", [&] { return CounterSection("live", counter); });
  EXPECT_EQ(registry.Snapshot("live")->rows[0][0].value, "0");
  counter = 7;
  EXPECT_EQ(registry.Snapshot("live")->rows[0][0].value, "7");
  EXPECT_FALSE(registry.Snapshot("missing").has_value());
}

TEST(StatsRegistryTest, SectionsRenderInRegistrationOrder) {
  StatsRegistry registry;
  registry.Register("beta", [] { return CounterSection("beta", 2); });
  registry.Register("alpha", [] { return CounterSection("alpha", 1); });
  std::vector<std::string> names = registry.SectionNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "beta");
  EXPECT_EQ(names[1], "alpha");

  std::string rendered = registry.RenderTables();
  EXPECT_LT(rendered.find("[beta]"), rendered.find("[alpha]"));
}

TEST(StatsRegistryTest, ReRegisterReplacesInPlace) {
  StatsRegistry registry;
  registry.Register("s", [] { return CounterSection("s", 1); });
  registry.Register("s", [] { return CounterSection("s", 2); });
  EXPECT_EQ(registry.SectionNames().size(), 1u);
  EXPECT_EQ(registry.Snapshot("s")->rows[0][0].value, "2");
  registry.Unregister("s");
  EXPECT_TRUE(registry.SectionNames().empty());
}

TEST(StatsRegistryTest, MultiRowSectionRendersOneLinePerRow) {
  StatsSection section;
  section.name = "preprocess";
  section.AddRow({StatsMetric::Text("metric", "drive_m"),
                  StatsMetric::Gauge("build_ms", 12.5, 1)});
  section.AddRow({StatsMetric::Text("metric", "walk_m"),
                  StatsMetric::Gauge("build_ms", 9.0, 1)});
  std::string table = StatsSectionTable(section).ToString();
  EXPECT_NE(table.find("drive_m"), std::string::npos);
  EXPECT_NE(table.find("walk_m"), std::string::npos);
  EXPECT_NE(table.find("build_ms"), std::string::npos);
}

TEST(StatsRegistryTest, ConcurrentRegisterAndSnapshot) {
  StatsRegistry registry;
  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load()) {
      (void)registry.SnapshotAll();
      (void)registry.RenderTables();
    }
  });
  for (int i = 0; i < 200; ++i) {
    std::string name = "s";
    name += std::to_string(i % 8);
    registry.Register(name, [i] {
      return CounterSection("s", static_cast<std::uint64_t>(i));
    });
  }
  stop.store(true);
  snapshotter.join();
  EXPECT_EQ(registry.SectionNames().size(), 8u);
}

}  // namespace
}  // namespace xar
