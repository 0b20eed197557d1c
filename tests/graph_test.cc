#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "common/rng.h"
#include "graph/astar.h"
#include "graph/dijkstra.h"
#include "graph/floyd_warshall.h"
#include "graph/generator.h"
#include "graph/oracle.h"
#include "graph/road_graph.h"
#include "graph/spatial_index.h"

namespace xar {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A tiny diamond with a one-way shortcut: 0 -> 1 -> 3 (two-way streets),
/// 0 -> 2 -> 3 where 2 -> 3 is one-way (walkable both ways).
RoadGraph Diamond() {
  GraphBuilder b;
  NodeId n0 = b.AddNode({40.700, -74.000});
  NodeId n1 = b.AddNode(OffsetMeters({40.700, -74.000}, 1000, 0));
  NodeId n2 = b.AddNode(OffsetMeters({40.700, -74.000}, 0, 1000));
  NodeId n3 = b.AddNode(OffsetMeters({40.700, -74.000}, 1000, 1000));
  b.AddTwoWayStreet(n0, n1, 10.0);
  b.AddTwoWayStreet(n1, n3, 10.0);
  b.AddTwoWayStreet(n0, n2, 10.0);
  b.AddOneWayStreet(n2, n3, 20.0);
  return b.Build();
}

TEST(GraphBuilderTest, CsrShape) {
  RoadGraph g = Diamond();
  EXPECT_EQ(g.NumNodes(), 4u);
  // 3 two-way streets (2 arcs each) + 1 one-way (drive arc + reverse walk).
  EXPECT_EQ(g.NumEdges(), 8u);
  EXPECT_EQ(g.OutEdges(NodeId(0)).size(), 2u);
  EXPECT_DOUBLE_EQ(g.MaxSpeedMps(), 20.0);
}

TEST(GraphBuilderTest, OneWayIsDrivableOneDirectionWalkableBoth) {
  RoadGraph g = Diamond();
  bool fwd_drivable = false, bwd_drivable = false;
  bool fwd_walkable = false, bwd_walkable = false;
  for (const RoadEdge& e : g.OutEdges(NodeId(2))) {
    if (e.to == NodeId(3)) {
      fwd_drivable |= e.drivable;
      fwd_walkable |= e.walkable;
    }
  }
  for (const RoadEdge& e : g.OutEdges(NodeId(3))) {
    if (e.to == NodeId(2)) {
      bwd_drivable |= e.drivable;
      bwd_walkable |= e.walkable;
    }
  }
  EXPECT_TRUE(fwd_drivable);
  EXPECT_TRUE(fwd_walkable);
  EXPECT_FALSE(bwd_drivable);
  EXPECT_TRUE(bwd_walkable);
}

TEST(GraphBuilderTest, EdgeWeightByMetric) {
  RoadEdge e;
  e.length_m = 100;
  e.time_s = 10;
  e.drivable = true;
  e.walkable = false;
  EXPECT_DOUBLE_EQ(RoadGraph::EdgeWeight(e, Metric::kDriveDistance), 100);
  EXPECT_DOUBLE_EQ(RoadGraph::EdgeWeight(e, Metric::kDriveTime), 10);
  EXPECT_EQ(RoadGraph::EdgeWeight(e, Metric::kWalkDistance), kInf);
}

TEST(GraphBuilderTest, BoundsCoverNodes) {
  RoadGraph g = Diamond();
  for (std::size_t i = 0; i < g.NumNodes(); ++i) {
    EXPECT_TRUE(g.bounds().Contains(
        g.PositionOf(NodeId(static_cast<NodeId::underlying_type>(i)))));
  }
}

TEST(DijkstraTest, DiamondDistances) {
  RoadGraph g = Diamond();
  DijkstraEngine engine(g);
  // Driving 0->3 via either side: ~2000 m.
  EXPECT_NEAR(engine.Distance(NodeId(0), NodeId(3), Metric::kDriveDistance),
              2000, 5);
  // Driving 3->2 cannot use the one-way: must go 3->1->0->2 (~3000 m).
  EXPECT_NEAR(engine.Distance(NodeId(3), NodeId(2), Metric::kDriveDistance),
              3000, 10);
  // Walking 3->2 ignores the one-way (~1000 m).
  EXPECT_NEAR(engine.Distance(NodeId(3), NodeId(2), Metric::kWalkDistance),
              1000, 5);
  // Time prefers the fast one-way leg for 0->3: 0->2 (100s) + 2->3 (50s).
  EXPECT_NEAR(engine.Distance(NodeId(0), NodeId(3), Metric::kDriveTime), 150,
              1);
}

TEST(DijkstraTest, PathReconstruction) {
  RoadGraph g = Diamond();
  DijkstraEngine engine(g);
  Path p = engine.ShortestPath(NodeId(0), NodeId(3), Metric::kDriveTime);
  ASSERT_TRUE(p.Found());
  EXPECT_EQ(p.nodes.front(), NodeId(0));
  EXPECT_EQ(p.nodes.back(), NodeId(3));
  EXPECT_EQ(p.nodes.size(), 3u);
  EXPECT_EQ(p.nodes[1], NodeId(2));  // via the fast one-way
  EXPECT_NEAR(p.time_s, 150, 1);
  EXPECT_NEAR(p.length_m, 2000, 5);
}

TEST(DijkstraTest, SourceEqualsDestination) {
  RoadGraph g = Diamond();
  DijkstraEngine engine(g);
  EXPECT_DOUBLE_EQ(
      engine.Distance(NodeId(1), NodeId(1), Metric::kDriveDistance), 0.0);
  Path p = engine.ShortestPath(NodeId(1), NodeId(1), Metric::kDriveDistance);
  EXPECT_TRUE(p.Found());
  EXPECT_EQ(p.nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(p.length_m, 0.0);
}

TEST(DijkstraTest, DistancesToManyMatchesSingles) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 5;
  RoadGraph g = GenerateCity(opt);
  DijkstraEngine engine(g);
  std::vector<NodeId> targets;
  Rng rng(9);
  for (int i = 0; i < 12; ++i) {
    targets.push_back(NodeId(
        static_cast<NodeId::underlying_type>(rng.NextIndex(g.NumNodes()))));
  }
  std::vector<double> many =
      engine.DistancesToMany(NodeId(0), targets, Metric::kDriveDistance);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        many[i],
        engine.Distance(NodeId(0), targets[i], Metric::kDriveDistance));
  }
}

TEST(DijkstraTest, NodesWithinIsExactFrontier) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 5;
  RoadGraph g = GenerateCity(opt);
  DijkstraEngine engine(g);
  double bound = 900.0;
  auto settled = engine.NodesWithin(NodeId(3), bound, Metric::kDriveDistance);
  // Every settled node is within the bound, distances are nondecreasing.
  double prev = 0;
  std::vector<bool> in_set(g.NumNodes(), false);
  for (auto [node, dist] : settled) {
    EXPECT_LE(dist, bound);
    EXPECT_GE(dist, prev);
    prev = dist;
    in_set[node.value()] = true;
    EXPECT_DOUBLE_EQ(
        dist, engine.Distance(NodeId(3), node, Metric::kDriveDistance));
  }
  // And every node not settled is beyond the bound.
  for (std::size_t i = 0; i < g.NumNodes(); ++i) {
    if (in_set[i]) continue;
    EXPECT_GT(engine.Distance(NodeId(3),
                              NodeId(static_cast<NodeId::underlying_type>(i)),
                              Metric::kDriveDistance),
              bound);
  }
}

/// Property sweep: all four engines agree with Floyd-Warshall on random
/// synthetic cities, for all metrics.
class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, Metric>> {};

TEST_P(EngineEquivalenceTest, AllEnginesMatchFloydWarshall) {
  auto [seed, metric] = GetParam();
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  opt.seed = seed;
  RoadGraph g = GenerateCity(opt);
  std::vector<double> fw = FloydWarshallDistances(g, metric);
  DijkstraEngine dijkstra(g);
  AStarEngine astar(g);
  BidirectionalDijkstra bidir(g);
  std::size_t n = g.NumNodes();
  Rng rng(seed + 1);
  for (int probe = 0; probe < 60; ++probe) {
    NodeId a(static_cast<NodeId::underlying_type>(rng.NextIndex(n)));
    NodeId b(static_cast<NodeId::underlying_type>(rng.NextIndex(n)));
    double expect = fw[a.value() * n + b.value()];
    EXPECT_NEAR(dijkstra.Distance(a, b, metric), expect, 1e-6);
    EXPECT_NEAR(astar.Distance(a, b, metric), expect, 1e-6);
    EXPECT_NEAR(bidir.Distance(a, b, metric), expect, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndMetrics, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(Metric::kDriveDistance,
                                         Metric::kDriveTime,
                                         Metric::kWalkDistance)));

TEST(AStarTest, PathMatchesDijkstra) {
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 11;
  RoadGraph g = GenerateCity(opt);
  AStarEngine astar(g);
  DijkstraEngine dijkstra(g);
  Rng rng(12);
  for (int i = 0; i < 30; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    Path pa = astar.ShortestPath(a, b, Metric::kDriveDistance);
    Path pd = dijkstra.ShortestPath(a, b, Metric::kDriveDistance);
    ASSERT_EQ(pa.Found(), pd.Found());
    if (pa.Found()) {
      EXPECT_NEAR(pa.length_m, pd.length_m, 1e-6);
    }
  }
}

TEST(AStarTest, SettlesFewerNodesThanDijkstra) {
  CityOptions opt;
  opt.rows = 16;
  opt.cols = 16;
  opt.seed = 13;
  RoadGraph g = GenerateCity(opt);
  AStarEngine astar(g);
  DijkstraEngine dijkstra(g);
  std::size_t astar_total = 0, dijkstra_total = 0;
  Rng rng(14);
  for (int i = 0; i < 40; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    astar.Distance(a, b, Metric::kDriveDistance);
    dijkstra.Distance(a, b, Metric::kDriveDistance);
    astar_total += astar.last_settled_count();
    dijkstra_total += dijkstra.last_settled_count();
  }
  EXPECT_LT(astar_total, dijkstra_total);
}

TEST(OracleTest, CacheHitsOnRepeatedQueries) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 15;
  RoadGraph g = GenerateCity(opt);
  GraphOracle oracle(g, 1024);
  double d1 = oracle.DriveDistance(NodeId(0), NodeId(10));
  std::size_t after_first = oracle.computation_count();
  double d2 = oracle.DriveDistance(NodeId(0), NodeId(10));
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_EQ(oracle.computation_count(), after_first);
  EXPECT_EQ(oracle.cache_hit_count(), 1u);
}

// The CLOCK cache evicts approximately (tests/oracle_cache_test.cc pins its
// victim choice), but an 8-slot table cannot hold 10 keys: at least two of
// them must be recomputed on the second pass.
TEST(OracleTest, CacheEvictsAtCapacity) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 15;
  RoadGraph g = GenerateCity(opt);
  GraphOracle oracle(g, 8, RoutingBackendKind::kCh);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    oracle.DriveDistance(NodeId(0), NodeId(i));
  }
  EXPECT_EQ(oracle.computation_count(), 10u);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    oracle.DriveDistance(NodeId(0), NodeId(i));
  }
  EXPECT_GE(oracle.computation_count(), 12u);
  EXPECT_GT(oracle.cache_counters().evictions, 0u);
}

TEST(OracleTest, RouteMatchesDistance) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 15;
  RoadGraph g = GenerateCity(opt);
  GraphOracle oracle(g);
  Path p = oracle.DriveRoute(NodeId(2), NodeId(40));
  ASSERT_TRUE(p.Found());
  EXPECT_NEAR(p.length_m, oracle.DriveDistance(NodeId(2), NodeId(40)), 1e-6);
}

TEST(OracleTest, HaversineLowerBoundsGraphDistance) {
  CityOptions opt;
  opt.rows = 8;
  opt.cols = 8;
  opt.seed = 15;
  RoadGraph g = GenerateCity(opt);
  GraphOracle exact(g);
  HaversineOracle approx(g);
  Rng rng(16);
  for (int i = 0; i < 40; ++i) {
    NodeId a(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    NodeId b(static_cast<NodeId::underlying_type>(
        rng.NextIndex(g.NumNodes())));
    EXPECT_LE(approx.DriveDistance(a, b), exact.DriveDistance(a, b) + 1.0);
  }
}

TEST(SpatialIndexTest, NearestMatchesBruteForce) {
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 17;
  RoadGraph g = GenerateCity(opt);
  SpatialNodeIndex index(g);
  Rng rng(18);
  const BoundingBox& b = g.bounds();
  for (int i = 0; i < 100; ++i) {
    LatLng p{rng.Uniform(b.min_lat, b.max_lat),
             rng.Uniform(b.min_lng, b.max_lng)};
    NodeId got = index.NearestNode(p);
    double best = kInf;
    for (std::size_t n = 0; n < g.NumNodes(); ++n) {
      best = std::min(
          best, EquirectangularMeters(
                    p, g.PositionOf(
                           NodeId(static_cast<NodeId::underlying_type>(n)))));
    }
    EXPECT_NEAR(EquirectangularMeters(p, g.PositionOf(got)), best, 1e-6);
  }
}

TEST(SpatialIndexTest, NodesWithinRadius) {
  CityOptions opt;
  opt.rows = 10;
  opt.cols = 10;
  opt.seed = 17;
  RoadGraph g = GenerateCity(opt);
  SpatialNodeIndex index(g);
  LatLng center = g.bounds().Center();
  std::vector<NodeId> close = index.NodesWithin(center, 600.0);
  std::size_t brute = 0;
  for (std::size_t n = 0; n < g.NumNodes(); ++n) {
    if (EquirectangularMeters(
            center, g.PositionOf(NodeId(
                        static_cast<NodeId::underlying_type>(n)))) <= 600.0) {
      ++brute;
    }
  }
  EXPECT_EQ(close.size(), brute);
}

/// Generated cities must be strongly connected for driving.
class GeneratorConnectivityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorConnectivityTest, DrivableStronglyConnected) {
  CityOptions opt;
  opt.rows = 9;
  opt.cols = 9;
  opt.removed_fraction = 0.12;  // aggressive removal to stress the SCC pass
  opt.seed = GetParam();
  RoadGraph g = GenerateCity(opt);
  ASSERT_GT(g.NumNodes(), 20u);
  DijkstraEngine engine(g);
  auto reachable =
      engine.NodesWithin(NodeId(0), kInf, Metric::kDriveDistance);
  EXPECT_EQ(reachable.size(), g.NumNodes());
  // And back to node 0 from an arbitrary far node.
  NodeId far(static_cast<NodeId::underlying_type>(g.NumNodes() - 1));
  EXPECT_LT(engine.Distance(far, NodeId(0), Metric::kDriveDistance), kInf);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorConnectivityTest,
                         ::testing::Values(1, 7, 42, 99, 123));

TEST(GeneratorTest, DeterministicForSeed) {
  CityOptions opt;
  opt.rows = 7;
  opt.cols = 7;
  opt.seed = 21;
  RoadGraph a = GenerateCity(opt);
  RoadGraph b = GenerateCity(opt);
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (std::size_t i = 0; i < a.NumNodes(); ++i) {
    NodeId n(static_cast<NodeId::underlying_type>(i));
    EXPECT_EQ(a.PositionOf(n), b.PositionOf(n));
  }
}

TEST(GeneratorTest, MemoryFootprintPositive) {
  CityOptions opt;
  opt.rows = 6;
  opt.cols = 6;
  RoadGraph g = GenerateCity(opt);
  EXPECT_GT(g.MemoryFootprint(), g.NumNodes() * sizeof(LatLng));
}

}  // namespace
}  // namespace xar
