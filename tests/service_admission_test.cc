// Copyright 2026 The EFind Reproduction Authors.
// Licensed under the Apache License, Version 2.0.
//
// Unit tests of the job service's building blocks (DESIGN.md §14):
// per-tenant admission control (admit / defer / reject against quotas),
// weighted fair-share virtual time, Jain's fairness index, the percentile
// helper, and the seeded arrival generator's determinism and stream
// independence.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "service/admission.h"
#include "service/arrival.h"
#include "service/fair_share.h"
#include "service/job_service.h"

namespace efind {
namespace service {
namespace {

// --- admission control -----------------------------------------------------

TEST(AdmissionControllerTest, UnlimitedQuotaAlwaysAdmits) {
  AdmissionController adm;
  adm.AddTenant(TenantQuota{});  // Non-positive caps = unlimited.
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(adm.Offer(0), AdmissionDecision::kAdmit);
    adm.OnAdmit(0);
  }
  EXPECT_EQ(adm.in_system(0), 100);
  EXPECT_EQ(adm.stats(0).admitted, 100u);
  EXPECT_EQ(adm.stats(0).deferred, 0u);
  EXPECT_EQ(adm.stats(0).rejected, 0u);
}

TEST(AdmissionControllerTest, OverQuotaDefersThenRejects) {
  AdmissionController adm;
  adm.AddTenant(TenantQuota{/*max_in_system=*/2, /*max_backlog=*/1});

  ASSERT_EQ(adm.Offer(0), AdmissionDecision::kAdmit);
  adm.OnAdmit(0);
  ASSERT_EQ(adm.Offer(0), AdmissionDecision::kAdmit);
  adm.OnAdmit(0);
  // In-system full: the third submission parks in the backlog.
  ASSERT_EQ(adm.Offer(0), AdmissionDecision::kDefer);
  adm.OnDefer(0);
  EXPECT_EQ(adm.backlog(0), 1);
  // Backlog full too: the fourth is refused outright.
  ASSERT_EQ(adm.Offer(0), AdmissionDecision::kReject);
  adm.OnReject(0);

  EXPECT_EQ(adm.stats(0).admitted, 2u);
  EXPECT_EQ(adm.stats(0).deferred, 1u);
  EXPECT_EQ(adm.stats(0).rejected, 1u);
}

TEST(AdmissionControllerTest, FinishFreesQuotaForPromotion) {
  AdmissionController adm;
  adm.AddTenant(TenantQuota{1, 4});
  adm.OnAdmit(0);
  adm.OnDefer(0);
  EXPECT_FALSE(adm.CanAdmit(0));

  adm.OnFinish(0);
  EXPECT_TRUE(adm.CanAdmit(0));
  adm.OnPromote(0);
  EXPECT_EQ(adm.in_system(0), 1);
  EXPECT_EQ(adm.backlog(0), 0);
  EXPECT_EQ(adm.stats(0).promoted, 1u);
  // The slot is taken again; a new submission defers.
  EXPECT_EQ(adm.Offer(0), AdmissionDecision::kDefer);
}

TEST(AdmissionControllerTest, TenantsAreIsolated) {
  AdmissionController adm;
  adm.AddTenant(TenantQuota{1, 1});  // Tight: 1 in system, 1 deferred.
  adm.AddTenant(TenantQuota{});      // Unlimited.
  adm.OnAdmit(0);
  adm.OnDefer(0);
  EXPECT_EQ(adm.Offer(0), AdmissionDecision::kReject);
  // Tenant 0's saturation never leaks into tenant 1's decisions.
  EXPECT_EQ(adm.Offer(1), AdmissionDecision::kAdmit);
}

TEST(AdmissionControllerTest, OfferIsConstAndRepeatable) {
  AdmissionController adm;
  adm.AddTenant(TenantQuota{1, 1});
  adm.OnAdmit(0);
  // Offer must not commit anything: asking twice gives the same answer.
  EXPECT_EQ(adm.Offer(0), AdmissionDecision::kDefer);
  EXPECT_EQ(adm.Offer(0), AdmissionDecision::kDefer);
  EXPECT_EQ(adm.backlog(0), 0);
}

// --- fair share ------------------------------------------------------------

TEST(FairShareSchedulerTest, ChargeAdvancesByInverseWeight) {
  FairShareScheduler fair;
  fair.AddTenant(1.0);
  fair.AddTenant(2.0);
  fair.Charge(0, 10.0);
  fair.Charge(1, 10.0);
  // Equal work, double weight => half the virtual-time advance.
  EXPECT_DOUBLE_EQ(fair.vtime(0), 10.0);
  EXPECT_DOUBLE_EQ(fair.vtime(1), 5.0);
}

TEST(FairShareSchedulerTest, PickServesSmallestVirtualTime) {
  FairShareScheduler fair;
  fair.AddTenant(1.0);
  fair.AddTenant(1.0);
  fair.AddTenant(1.0);
  fair.Charge(0, 5.0);
  fair.Charge(2, 1.0);
  EXPECT_EQ(fair.Pick({0, 1, 2}), 1);  // vtime 0.
  fair.Charge(1, 9.0);
  EXPECT_EQ(fair.Pick({0, 1, 2}), 2);  // vtime 1.
  // Restricting the candidate set respects it.
  EXPECT_EQ(fair.Pick({0, 1}), 0);
  EXPECT_EQ(fair.Pick({}), -1);
}

TEST(FairShareSchedulerTest, TieBreaksOnLowestIndex) {
  FairShareScheduler fair;
  fair.AddTenant(1.0);
  fair.AddTenant(1.0);
  EXPECT_EQ(fair.Pick({1, 0}), 0);
}

TEST(FairShareSchedulerTest, RefundUndoesCharge) {
  FairShareScheduler fair;
  fair.AddTenant(2.0);
  fair.Charge(0, 8.0);
  fair.Refund(0, 8.0);
  EXPECT_DOUBLE_EQ(fair.vtime(0), 0.0);
}

TEST(FairShareSchedulerTest, RaiseToOnlyMovesForward) {
  FairShareScheduler fair;
  fair.AddTenant(1.0);
  fair.Charge(0, 3.0);
  fair.RaiseTo(0, 1.0);  // Below current vtime: no-op.
  EXPECT_DOUBLE_EQ(fair.vtime(0), 3.0);
  fair.RaiseTo(0, 7.0);  // Idle tenant re-enters at the busy frontier.
  EXPECT_DOUBLE_EQ(fair.vtime(0), 7.0);
}

TEST(FairShareSchedulerTest, NonPositiveWeightClampsToOne) {
  FairShareScheduler fair;
  fair.AddTenant(0.0);
  fair.AddTenant(-3.0);
  fair.Charge(0, 4.0);
  fair.Charge(1, 4.0);
  EXPECT_DOUBLE_EQ(fair.vtime(0), 4.0);
  EXPECT_DOUBLE_EQ(fair.vtime(1), 4.0);
}

// --- Jain index ------------------------------------------------------------

TEST(JainIndexTest, PerfectlyEvenIsOne) {
  EXPECT_DOUBLE_EQ(JainIndex({3.0, 3.0, 3.0, 3.0}), 1.0);
}

TEST(JainIndexTest, SingleHogApproachesOneOverN) {
  EXPECT_DOUBLE_EQ(JainIndex({1.0, 0.0, 0.0, 0.0}), 0.25);
}

TEST(JainIndexTest, DegenerateInputsCountAsFair) {
  EXPECT_DOUBLE_EQ(JainIndex({}), 1.0);
  EXPECT_DOUBLE_EQ(JainIndex({0.0, 0.0}), 1.0);  // Nothing was contended.
}

TEST(JainIndexTest, MildImbalanceScoresBetween) {
  const double j = JainIndex({1.0, 2.0});
  EXPECT_GT(j, 0.5);
  EXPECT_LT(j, 1.0);
  EXPECT_NEAR(j, 9.0 / 10.0, 1e-12);
}

// --- percentile ------------------------------------------------------------

TEST(PercentileTest, NearestRankOnUnsortedInput) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

// --- arrivals --------------------------------------------------------------

std::vector<TenantArrivalSpec> ThreeTenants() {
  std::vector<TenantArrivalSpec> specs(3);
  specs[0] = {/*rate=*/2.0, /*count=*/20, /*templates=*/{0, 1}};
  specs[1] = {/*rate=*/1.0, /*count=*/15, /*templates=*/{1}};
  specs[2] = {/*rate=*/0.5, /*count=*/10, /*templates=*/{}};
  return specs;
}

TEST(GenerateArrivalsTest, FixedSeedIsBitIdentical) {
  const auto a = GenerateArrivals(ThreeTenants(), 42);
  const auto b = GenerateArrivals(ThreeTenants(), 42);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.size(), 45u);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
    EXPECT_EQ(a[i].job_template, b[i].job_template) << i;
  }
}

TEST(GenerateArrivalsTest, SortedWithValidFields) {
  const auto specs = ThreeTenants();
  const auto arrivals = GenerateArrivals(specs, 7);
  double prev = 0.0;
  std::vector<int> per_tenant(3, 0);
  for (const Arrival& a : arrivals) {
    EXPECT_GE(a.time, prev);
    prev = a.time;
    ASSERT_GE(a.tenant, 0);
    ASSERT_LT(a.tenant, 3);
    ++per_tenant[a.tenant];
    if (a.tenant == 1) {
      EXPECT_EQ(a.job_template, 1);
    }
    if (a.tenant == 2) {
      EXPECT_EQ(a.job_template, 0);  // Empty list => 0.
    }
  }
  EXPECT_EQ(per_tenant[0], 20);
  EXPECT_EQ(per_tenant[1], 15);
  EXPECT_EQ(per_tenant[2], 10);
}

TEST(GenerateArrivalsTest, TenantStreamsAreIndependent) {
  // Adding a tenant must not perturb existing tenants' schedules — each
  // draws from its own seeded stream.
  auto specs = ThreeTenants();
  const auto before = GenerateArrivals(specs, 11);
  specs.push_back({/*rate=*/3.0, /*count=*/25, /*templates=*/{0}});
  const auto after = GenerateArrivals(specs, 11);

  std::vector<Arrival> before01, after01;
  for (const Arrival& a : before) {
    if (a.tenant <= 2) before01.push_back(a);
  }
  for (const Arrival& a : after) {
    if (a.tenant <= 2) after01.push_back(a);
  }
  ASSERT_EQ(before01.size(), after01.size());
  for (size_t i = 0; i < before01.size(); ++i) {
    EXPECT_EQ(before01[i].time, after01[i].time) << i;
    EXPECT_EQ(before01[i].tenant, after01[i].tenant) << i;
    EXPECT_EQ(before01[i].job_template, after01[i].job_template) << i;
  }
}

TEST(GenerateArrivalsTest, DifferentSeedsDiffer) {
  const auto a = GenerateArrivals(ThreeTenants(), 1);
  const auto b = GenerateArrivals(ThreeTenants(), 2);
  ASSERT_EQ(a.size(), b.size());
  bool any_diff = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].time != b[i].time) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(GenerateArrivalsTest, HigherRateArrivesFaster) {
  std::vector<TenantArrivalSpec> specs(2);
  specs[0] = {/*rate=*/10.0, /*count=*/200, {}};
  specs[1] = {/*rate=*/0.1, /*count=*/200, {}};
  const auto arrivals = GenerateArrivals(specs, 3);
  double last0 = 0.0, last1 = 0.0;
  for (const Arrival& a : arrivals) {
    (a.tenant == 0 ? last0 : last1) = a.time;
  }
  // 200 draws at 100x the rate finish far sooner.
  EXPECT_LT(last0, last1 / 10.0);
}

}  // namespace
}  // namespace service
}  // namespace efind
