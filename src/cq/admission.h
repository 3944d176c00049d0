// Per-tenant admission control for query evaluation.
//
// Every tenant (wire handshakes carry a tenant id; empty maps to
// "default") gets a token bucket sized by its quota: Admit() spends
// `cost` tokens when available and refuses otherwise, which the daemon
// turns into load-shedding — a refused one-shot query degrades to the
// cached last-known-good answer, a refused CQ evaluation stays dirty and
// retries next pump. Buckets refill continuously at rate_per_sec up to
// `burst`, so a tenant that stays under its rate never notices the
// controller.
//
// Thread-safe (one mutex); callers are the daemon loop thread plus
// tests. Per-tenant accounting is exported as
// apollo_admission_admitted_total{tenant=...} /
// apollo_admission_shed_total{tenant=...}.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/clock.h"
#include "obs/metrics.h"

namespace apollo::cq {

struct TenantQuota {
  // Sustained admissions per second. <= 0 means unlimited (Admit always
  // succeeds).
  double rate_per_sec = 0.0;
  // Bucket capacity (peak burst). <= 0 defaults to max(rate_per_sec, 1).
  double burst = 0.0;
};

struct AdmissionOptions {
  // Quota applied to tenants with no explicit entry.
  TenantQuota default_quota;
  std::unordered_map<std::string, TenantQuota> tenant_quotas;
};

// Point-in-time accounting for one tenant (EXPLAIN ANALYZE surface).
struct TenantAdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t shed = 0;
  double tokens = 0.0;        // tokens currently in the bucket
  double rate_per_sec = 0.0;  // 0 = unlimited
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options = {});

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  // Spends `cost` tokens from `tenant`'s bucket (refilled to `now`
  // first). True = admitted; false = shed. Unlimited tenants always admit.
  bool Admit(const std::string& tenant, TimeNs now, double cost = 1.0);

  // Replaces one tenant's quota (token balance resets to the new burst).
  void SetQuota(const std::string& tenant, const TenantQuota& quota);

  TenantAdmissionStats Stats(const std::string& tenant);

 private:
  struct Tenant {
    TenantQuota quota;
    double tokens = 0.0;
    TimeNs refilled_at = 0;
    std::uint64_t admitted = 0;
    std::uint64_t shed = 0;
    obs::Counter admitted_total;
    obs::Counter shed_total;
  };

  Tenant& TenantFor(const std::string& name);
  void Refill(Tenant& t, TimeNs now);

  std::mutex mu_;
  AdmissionOptions options_;
  std::unordered_map<std::string, Tenant> tenants_;
};

}  // namespace apollo::cq
