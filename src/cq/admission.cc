#include "cq/admission.h"

#include <algorithm>
#include <utility>

namespace apollo::cq {

namespace {

TenantQuota Normalize(TenantQuota q) {
  if (q.rate_per_sec > 0.0 && q.burst <= 0.0) {
    q.burst = std::max(q.rate_per_sec, 1.0);
  }
  return q;
}

}  // namespace

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(std::move(options)) {
  options_.default_quota = Normalize(options_.default_quota);
  for (auto& [name, quota] : options_.tenant_quotas) quota = Normalize(quota);
}

AdmissionController::Tenant& AdmissionController::TenantFor(
    const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  Tenant t;
  auto qit = options_.tenant_quotas.find(name);
  t.quota =
      qit != options_.tenant_quotas.end() ? qit->second : options_.default_quota;
  t.tokens = t.quota.burst;
  auto& registry = obs::MetricsRegistry::Global();
  const obs::Labels labels{{"tenant", name}};
  t.admitted_total = registry.GetCounter(
      "apollo_admission_admitted_total",
      "Queries and CQ evaluations admitted, by tenant", labels);
  t.shed_total = registry.GetCounter(
      "apollo_admission_shed_total",
      "Queries and CQ evaluations shed by quota, by tenant", labels);
  return tenants_.emplace(name, std::move(t)).first->second;
}

void AdmissionController::Refill(Tenant& t, TimeNs now) {
  if (t.quota.rate_per_sec <= 0.0) return;  // unlimited
  if (t.refilled_at == 0) {
    t.refilled_at = now;
    return;
  }
  const TimeNs dt = now - t.refilled_at;
  if (dt <= 0) return;
  t.tokens = std::min(
      t.quota.burst,
      t.tokens + t.quota.rate_per_sec * static_cast<double>(dt) * 1e-9);
  t.refilled_at = now;
}

bool AdmissionController::Admit(const std::string& tenant, TimeNs now,
                                double cost) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = TenantFor(tenant);
  Refill(t, now);
  if (t.quota.rate_per_sec > 0.0 && t.tokens < cost) {
    ++t.shed;
    t.shed_total.Inc();
    return false;
  }
  if (t.quota.rate_per_sec > 0.0) t.tokens -= cost;
  ++t.admitted;
  t.admitted_total.Inc();
  return true;
}

void AdmissionController::SetQuota(const std::string& tenant,
                                   const TenantQuota& quota) {
  std::lock_guard<std::mutex> lock(mu_);
  options_.tenant_quotas[tenant] = Normalize(quota);
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) {
    it->second.quota = options_.tenant_quotas[tenant];
    it->second.tokens = it->second.quota.burst;
  }
}

TenantAdmissionStats AdmissionController::Stats(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& t = TenantFor(tenant);
  TenantAdmissionStats stats;
  stats.admitted = t.admitted;
  stats.shed = t.shed;
  stats.tokens = t.tokens;
  stats.rate_per_sec = t.quota.rate_per_sec;
  return stats;
}

}  // namespace apollo::cq
