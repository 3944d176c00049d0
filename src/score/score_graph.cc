#include "score/score_graph.h"

#include <algorithm>

namespace apollo {

namespace {

bool IsFact(const Vertex& vertex) {
  return dynamic_cast<const FactVertex*>(&vertex) != nullptr;
}

}  // namespace

// Lock ordering note: methods take mu_ and may then touch the event loop
// (Deploy/Undeploy register or cancel timers). The loop never calls back
// into the graph while holding its own lock, so graph-then-loop is the one
// ordering in the program and cannot deadlock.

Status ScoreGraph::Add(std::unique_ptr<Vertex> vertex, EventLoop* deploy_on) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string topic = vertex->topic();
  if (vertices_.count(topic) > 0) {
    return Status(ErrorCode::kAlreadyExists, "vertex exists: " + topic);
  }
  if (WouldCreateCycle(topic, vertex->upstream())) {
    return Status(ErrorCode::kInvalidArgument,
                  "registering " + topic + " would create a cycle");
  }
  if (deploy_on != nullptr) {
    Status status = vertex->Deploy(*deploy_on);
    if (!status.ok()) return status;
  }
  vertices_.emplace(topic, std::move(vertex));
  return Status::Ok();
}

Expected<FactVertex*> ScoreGraph::AddFact(std::unique_ptr<FactVertex> vertex,
                                          EventLoop* deploy_on) {
  FactVertex* raw = vertex.get();
  Status added = Add(std::move(vertex), deploy_on);
  if (!added.ok()) return Error(added.code(), added.message());
  return raw;
}

Expected<InsightVertex*> ScoreGraph::AddInsight(
    std::unique_ptr<InsightVertex> vertex, EventLoop* deploy_on) {
  InsightVertex* raw = vertex.get();
  Status added = Add(std::move(vertex), deploy_on);
  if (!added.ok()) return Error(added.code(), added.message());
  return raw;
}

Status ScoreGraph::Remove(const std::string& topic) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = vertices_.find(topic);
  if (it == vertices_.end()) {
    return Status(ErrorCode::kNotFound, "no vertex: " + topic);
  }
  it->second->Undeploy();
  vertices_.erase(it);
  return Status::Ok();
}

Expected<Vertex*> ScoreGraph::Find(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = vertices_.find(topic);
  if (it == vertices_.end()) {
    return Error(ErrorCode::kNotFound, "no vertex: " + topic);
  }
  return it->second.get();
}

Expected<FactVertex*> ScoreGraph::FindFact(const std::string& topic) const {
  auto vertex = Find(topic);
  auto* fact = vertex.ok() ? dynamic_cast<FactVertex*>(*vertex) : nullptr;
  if (fact == nullptr) {
    return Error(ErrorCode::kNotFound, "no fact vertex: " + topic);
  }
  return fact;
}

Expected<InsightVertex*> ScoreGraph::FindInsight(
    const std::string& topic) const {
  auto vertex = Find(topic);
  auto* insight =
      vertex.ok() ? dynamic_cast<InsightVertex*>(*vertex) : nullptr;
  if (insight == nullptr) {
    return Error(ErrorCode::kNotFound, "no insight vertex: " + topic);
  }
  return insight;
}

bool ScoreGraph::Has(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  return vertices_.count(topic) > 0;
}

std::vector<std::string> ScoreGraph::TopicsOfKind(bool facts) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [topic, vertex] : vertices_) {
    if (IsFact(*vertex) == facts) out.push_back(topic);
  }
  return out;
}

std::vector<std::string> ScoreGraph::FactTopics() const {
  return TopicsOfKind(/*facts=*/true);
}

std::vector<std::string> ScoreGraph::InsightTopics() const {
  return TopicsOfKind(/*facts=*/false);
}

std::vector<std::string> ScoreGraph::AllTopics() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(vertices_.size());
  for (const auto& [topic, vertex] : vertices_) out.push_back(topic);
  return out;
}

std::size_t ScoreGraph::NumVertices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return vertices_.size();
}

Status ScoreGraph::DeployAll(EventLoop& loop) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [topic, vertex] : vertices_) {
    Status status = vertex->Deploy(loop);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

void ScoreGraph::UndeployAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [topic, vertex] : vertices_) vertex->Undeploy();
}

bool ScoreGraph::WouldCreateCycle(
    const std::string& topic, const std::vector<std::string>& upstream) const {
  // DFS from each upstream following existing edges; a path back to
  // `topic` means the new vertex closes a cycle. (Facts have no upstream.)
  std::vector<std::string> stack(upstream.begin(), upstream.end());
  std::vector<std::string> visited;
  while (!stack.empty()) {
    const std::string current = stack.back();
    stack.pop_back();
    if (current == topic) return true;
    if (std::find(visited.begin(), visited.end(), current) != visited.end()) {
      continue;
    }
    visited.push_back(current);
    auto it = vertices_.find(current);
    if (it != vertices_.end()) {
      for (const std::string& up : it->second->upstream()) {
        stack.push_back(up);
      }
    }
  }
  return false;
}

Expected<int> ScoreGraph::DistanceInternal(const std::string& topic,
                                           std::map<std::string, int>& memo,
                                           int depth) const {
  const int vertex_count = static_cast<int>(vertices_.size());
  if (depth > vertex_count + 1) {
    return Error(ErrorCode::kInternal, "cycle detected at " + topic);
  }
  if (auto it = memo.find(topic); it != memo.end()) return it->second;
  auto it = vertices_.find(topic);
  if (it == vertices_.end()) {
    return Error(ErrorCode::kNotFound, "no vertex: " + topic);
  }
  const std::vector<std::string>& upstream = it->second->upstream();
  if (upstream.empty()) {  // a fact: a source
    memo[topic] = 0;
    return 0;
  }
  int best = 0;
  for (const std::string& up : upstream) {
    auto d = DistanceInternal(up, memo, depth + 1);
    // Upstream topics that are not SCoRe vertices (external streams) count
    // as distance 0 sources.
    const int upstream_distance = d.ok() ? *d : 0;
    best = std::max(best, upstream_distance);
  }
  memo[topic] = best + 1;
  return best + 1;
}

Expected<int> ScoreGraph::HammingDistance(const std::string& topic) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int> memo;
  return DistanceInternal(topic, memo, 0);
}

std::string ScoreGraph::ToDot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "digraph score {\n  rankdir=LR;\n";
  for (const auto& [topic, vertex] : vertices_) {
    out += "  \"" + topic + "\" [shape=" +
           (IsFact(*vertex) ? "box" : "ellipse") + "];\n";
    for (const std::string& up : vertex->upstream()) {
      out += "  \"" + up + "\" -> \"" + topic + "\";\n";
    }
  }
  out += "}\n";
  return out;
}

int ScoreGraph::Height() const {
  std::lock_guard<std::mutex> lock(mu_);
  int height = 0;
  std::map<std::string, int> memo;
  for (const auto& [topic, vertex] : vertices_) {
    auto d = DistanceInternal(topic, memo, 0);
    if (d.ok()) height = std::max(height, *d);
  }
  return height;
}

}  // namespace apollo
