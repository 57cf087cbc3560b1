// Stripe table geometry, versioned-lock encoding, read-mask publication,
// and the abort injector's ratio mapping.

#include "core/htm_sim.h"
#include "core/stats.h"
#include "core/stripe.h"
#include "test_common.h"

namespace rhtm {
namespace {

void index_stability_and_range() {
  StripeTable table;
  std::uint64_t data[256];
  for (auto& d : data) d = 0;
  for (int i = 0; i < 256; ++i) {
    const std::size_t s1 = table.index_of(&data[i]);
    const std::size_t s2 = table.index_of(&data[i]);
    CHECK_EQ(s1, s2);           // deterministic
    CHECK(s1 < table.count());  // in range
  }
  // Words inside one granule share a stripe.
  StripeConfig cfg;
  cfg.granularity_log2 = 5;  // 32-byte granules = 4 words
  StripeTable g(cfg);
  alignas(32) std::uint64_t granule[4];
  CHECK_EQ(g.index_of(&granule[0]), g.index_of(&granule[3]));
}

void versioned_lock_roundtrip() {
  StripeTable table;
  const std::size_t s = 7;
  CHECK(!StripeTable::is_locked(table.word(s).unsafe_load()));
  CHECK(table.try_lock(s));
  CHECK(StripeTable::is_locked(table.word(s).unsafe_load()));
  CHECK(!table.try_lock(s));  // second lock fails
  table.unlock_to(s, 42);
  const TmWord w = table.word(s).unsafe_load();
  CHECK(!StripeTable::is_locked(w));
  CHECK_EQ(StripeTable::version_of(w), 42u);
  CHECK(table.try_lock(s));
  table.unlock_restore(s);  // abort path: version unchanged
  CHECK_EQ(StripeTable::version_of(table.word(s).unsafe_load()), 42u);
}

void read_mask_publication() {
  for (const MaskRmw mode : {MaskRmw::kFetchAdd, MaskRmw::kCasLoop}) {
    StripeConfig cfg;
    cfg.mask_rmw = mode;
    StripeTable table(cfg);
    HtmSim htm;
    CHECK_EQ(table.readers(3), 0u);
    table.publish_read(htm, 3);
    table.publish_read(htm, 3);
    CHECK_EQ(table.readers(3), 2u);
    table.unpublish_read(htm, 3);
    CHECK_EQ(table.readers(3), 1u);
    table.unpublish_read(htm, 3);
    CHECK_EQ(table.readers(3), 0u);
  }
}

void abort_injector_mapping() {
  CHECK_EQ(AbortInjector::from_ratio(0.0).rate_bp(), 0u);
  CHECK_EQ(AbortInjector::from_ratio(0.05).rate_bp(), 500u);
  CHECK_EQ(AbortInjector::from_ratio(0.5).rate_bp(), 5000u);
  CHECK_EQ(AbortInjector::from_ratio(1.5).rate_bp(), 9800u);  // clamped for progress
  CHECK_EQ(AbortInjector::from_ratio(-1.0).rate_bp(), 0u);

  // fire() frequency tracks the rate.
  Xoshiro256 rng(123);
  const AbortInjector inj = AbortInjector::from_ratio(0.3);
  int fired = 0;
  for (int i = 0; i < 100000; ++i) fired += inj.fire(rng) ? 1 : 0;
  CHECK(fired > 28000 && fired < 32000);
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"index_stability_and_range", rhtm::index_stability_and_range},
      TestCase{"versioned_lock_roundtrip", rhtm::versioned_lock_roundtrip},
      TestCase{"read_mask_publication", rhtm::read_mask_publication},
      TestCase{"abort_injector_mapping", rhtm::abort_injector_mapping},
  });
}
