// ScoreGraph: the SCoRe DAG registry.
//
// Owns Fact and Insight vertices in one topic-keyed map, validates
// acyclicity when vertices are registered, computes graph properties
// (height h, Hamming distance from sources — the paper's §3.2 complexity
// model O(p*h)), and deploys/undeploys vertices on an EventLoop at runtime
// (§3.1: "users can register/unregister custom Fact and Insight vertices
// during the runtime of their application").
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/expected.h"
#include "eventloop/event_loop.h"
#include "score/fact_vertex.h"
#include "score/insight_vertex.h"

namespace apollo {

// Registry operations are mutex-guarded so the vertex supervisor (running
// on the event-loop thread) can walk the graph while clients register and
// unregister vertices from other threads. Returned vertex pointers stay
// valid until Remove(): callers coordinate teardown as before.
class ScoreGraph {
 public:
  explicit ScoreGraph(Broker& broker) : broker_(broker) {}

  ScoreGraph(const ScoreGraph&) = delete;
  ScoreGraph& operator=(const ScoreGraph&) = delete;

  // Registers (and optionally deploys) vertices. Topic names must be
  // unique across both kinds. Insight registration fails if it would close
  // a cycle.
  Expected<FactVertex*> AddFact(std::unique_ptr<FactVertex> vertex,
                                EventLoop* deploy_on = nullptr);
  Expected<InsightVertex*> AddInsight(std::unique_ptr<InsightVertex> vertex,
                                      EventLoop* deploy_on = nullptr);

  // Undeploys and removes a vertex (runtime unregister).
  Status Remove(const std::string& topic);

  // A vertex of either kind; FindFact/FindInsight also check the kind.
  Expected<Vertex*> Find(const std::string& topic) const;
  Expected<FactVertex*> FindFact(const std::string& topic) const;
  Expected<InsightVertex*> FindInsight(const std::string& topic) const;
  bool Has(const std::string& topic) const;

  std::vector<std::string> FactTopics() const;
  std::vector<std::string> InsightTopics() const;
  // Every registered topic, sorted. The recovery path uses this to decide
  // which archives belong to live vertices.
  std::vector<std::string> AllTopics() const;
  std::size_t NumVertices() const;

  // Deploys every registered vertex on `loop`; undeploys all.
  Status DeployAll(EventLoop& loop);
  void UndeployAll();

  // Longest upstream path from any Fact source to `topic` (0 for facts) —
  // the Hamming distance of §3.2. Unknown topic -> error.
  Expected<int> HammingDistance(const std::string& topic) const;

  // Height h of the DAG: max Hamming distance over all vertices.
  int Height() const;

  // Graphviz export of the SCoRe topology (facts as boxes, insights as
  // ellipses, edges following information flow) for debugging/ops.
  std::string ToDot() const;

  Broker& broker() { return broker_; }

 private:
  // The one registration path: rejects a duplicate topic or a cycle, then
  // deploys (when `deploy_on` is set) and stores the vertex.
  Status Add(std::unique_ptr<Vertex> vertex, EventLoop* deploy_on);
  // Sorted topics of the registered facts (or of the insights).
  std::vector<std::string> TopicsOfKind(bool facts) const;

  // Internal helpers assume mu_ is held by the caller.
  bool WouldCreateCycle(const std::string& topic,
                        const std::vector<std::string>& upstream) const;
  Expected<int> DistanceInternal(const std::string& topic,
                                 std::map<std::string, int>& memo,
                                 int depth) const;

  Broker& broker_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Vertex>> vertices_;
};

}  // namespace apollo
