// Tests for graph/edge_list_io.h: parsing, validation, save/load round trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "graph/edge_list_io.h"
#include "graph/graph_builder.h"

namespace asti {
namespace {

TEST(EdgeListIoTest, ParsesWeightedEdges) {
  auto file = ParseEdgeList("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->num_nodes, 3u);
  ASSERT_EQ(file->edges.size(), 2u);
  EXPECT_TRUE(file->has_probabilities);
  EXPECT_DOUBLE_EQ(file->edges[0].probability, 0.5);
}

TEST(EdgeListIoTest, ParsesUnweightedEdges) {
  auto file = ParseEdgeList("0 1\n2 0\n");
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(file->has_probabilities);
  EXPECT_EQ(file->num_nodes, 3u);
}

TEST(EdgeListIoTest, SkipsCommentsAndBlankLines) {
  auto file = ParseEdgeList("# header\n\n% other comment\n0 1 0.5\n");
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(file->edges.size(), 1u);
}

TEST(EdgeListIoTest, UndirectedHeaderDetected) {
  auto file = ParseEdgeList("# undirected\n0 1 0.5\n");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(file->undirected);
}

TEST(EdgeListIoTest, RejectsMalformedLine) {
  auto file = ParseEdgeList("0 x 0.5\n");
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeListIoTest, RejectsNegativeIds) {
  EXPECT_FALSE(ParseEdgeList("-1 2 0.5\n").ok());
}

TEST(EdgeListIoTest, RejectsBadProbability) {
  EXPECT_FALSE(ParseEdgeList("0 1 1.5\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 1 0\n").ok());
}

TEST(EdgeListIoTest, RejectsMixedWeightedUnweighted) {
  auto file = ParseEdgeList("0 1 0.5\n1 2\n");
  EXPECT_FALSE(file.ok());
}

// The tokenizer must keep the accept/reject outcome of `std::istream >>`
// field extraction (the format's original definition) on every input.

TEST(EdgeListIoTest, TabsAndCrlfAreWhitespace) {
  auto file = ParseEdgeList("0\t1\t0.5\r\n1 2 0.25\r\n");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->edges.size(), 2u);
  EXPECT_TRUE(file->has_probabilities);
  EXPECT_EQ(file->edges[0].target, 1u);
  EXPECT_EQ(file->edges[0].probability, 0.5);
  EXPECT_EQ(file->edges[1].probability, 0.25);

  auto bare = ParseEdgeList("0 1\r\n1 2\r\n");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_FALSE(bare->has_probabilities);
  EXPECT_EQ(bare->edges[1].probability, 1.0);
}

TEST(EdgeListIoTest, LeadingPlusAndExponentsParse) {
  auto file = ParseEdgeList("+0 +1 +0.5\n1 2 25e-2\n2 0 1E0\n");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->edges.size(), 3u);
  EXPECT_EQ(file->edges[0].source, 0u);
  EXPECT_EQ(file->edges[0].probability, 0.5);
  EXPECT_EQ(file->edges[1].probability, 0.25);
  EXPECT_EQ(file->edges[2].probability, 1.0);
  // A sign must be followed by a digit.
  EXPECT_FALSE(ParseEdgeList("+-1 2 0.5\n").ok());
}

TEST(EdgeListIoTest, TrailingTokensAreIgnored) {
  auto file = ParseEdgeList("0 1 0.5 extra tokens\n1 2 0.25x\n");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_EQ(file->edges.size(), 2u);
  EXPECT_EQ(file->edges[0].probability, 0.5);
  EXPECT_EQ(file->edges[1].probability, 0.25);
}

TEST(EdgeListIoTest, NonNumericThirdTokenIsABareEdge) {
  auto file = ParseEdgeList("0 1 abc\n1 2 1e\n");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_FALSE(file->has_probabilities);
  EXPECT_EQ(file->edges.size(), 2u);
  // ...so beside a weighted line it makes a mixed file.
  EXPECT_FALSE(ParseEdgeList("0 1 abc\n1 2 0.5\n").ok());
}

TEST(EdgeListIoTest, ErrorMessagesNameTheLine) {
  EXPECT_EQ(ParseEdgeList("0 1 0.5\n0 x 0.5\n").status().ToString(),
            "InvalidArgument: malformed edge at line 2: '0 x 0.5'");
  EXPECT_EQ(ParseEdgeList("99999999999999999999 1\n").status().ToString(),
            "InvalidArgument: malformed edge at line 1: '99999999999999999999 1'");
  EXPECT_EQ(ParseEdgeList("# c\n4294967295 1 0.5\n").status().ToString(),
            "InvalidArgument: node id out of range at line 2");
  EXPECT_EQ(ParseEdgeList("0 1 -0.5\n").status().ToString(),
            "InvalidArgument: probability out of (0,1] at line 1");
  EXPECT_EQ(ParseEdgeList("0 1 0.5\n1 2\n").status().ToString(),
            "InvalidArgument: mixed weighted and unweighted edge lines");
}

TEST(EdgeListIoTest, BuildGraphDirected) {
  auto file = ParseEdgeList("0 1 0.5\n1 2 0.25\n");
  ASSERT_TRUE(file.ok());
  auto graph = BuildGraphFromEdgeList(*file);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumNodes(), 3u);
  EXPECT_EQ(graph->NumEdges(), 2u);
}

TEST(EdgeListIoTest, BuildGraphUndirectedDoubles) {
  auto file = ParseEdgeList("# undirected\n0 1 0.5\n");
  ASSERT_TRUE(file.ok());
  auto graph = BuildGraphFromEdgeList(*file);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->NumEdges(), 2u);
}

TEST(EdgeListIoTest, LoadMissingFileIsIOError) {
  auto file = LoadEdgeList("/nonexistent/path/to/edges.txt");
  EXPECT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), StatusCode::kIOError);
}

TEST(EdgeListIoTest, SaveLoadRoundTrip) {
  GraphBuilder builder(3);
  ASSERT_TRUE(builder.AddEdge(0, 1, 0.5).ok());
  ASSERT_TRUE(builder.AddEdge(1, 2, 0.125).ok());
  ASSERT_TRUE(builder.AddEdge(2, 0, 1.0).ok());
  auto graph = builder.Build();
  ASSERT_TRUE(graph.ok());

  const std::string path = testing::TempDir() + "/asti_edge_list_test.txt";
  ASSERT_TRUE(SaveEdgeList(*graph, path).ok());
  auto reloaded_file = LoadEdgeList(path);
  ASSERT_TRUE(reloaded_file.ok());
  auto reloaded = BuildGraphFromEdgeList(*reloaded_file);
  ASSERT_TRUE(reloaded.ok());

  EXPECT_EQ(reloaded->NumNodes(), graph->NumNodes());
  EXPECT_EQ(reloaded->NumEdges(), graph->NumEdges());
  const auto original_edges = graph->ToEdgeList();
  const auto reloaded_edges = reloaded->ToEdgeList();
  for (size_t i = 0; i < original_edges.size(); ++i) {
    EXPECT_EQ(original_edges[i].source, reloaded_edges[i].source);
    EXPECT_EQ(original_edges[i].target, reloaded_edges[i].target);
    EXPECT_NEAR(original_edges[i].probability, reloaded_edges[i].probability, 1e-9);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace asti
