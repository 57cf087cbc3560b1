// Cross-protocol serializability smoke tests, parametrized over the
// substrates that guarantee atomic commits: concurrent bank transfers must
// conserve the total, and concurrent readers must never observe a torn
// snapshot — for every protocol the benches run.
//
// Substrate coverage: the full suite runs on HtmSim (software-validated
// commits) and on HtmRtm (real hardware transactions when the host has
// usable TSX; the software fallback paths otherwise — the invariants must
// hold either way). HtmEmul is deliberately excluded: it has no conflict
// detection or rollback (SubstrateTraits<HtmEmul>::kAtomic is false), so
// concurrent executions on it are a modelling device, not serializable
// histories; its whole-stack coverage lives in substrate_conformance_test.

#include <algorithm>
#include <atomic>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/rhtm.h"
#include "test_common.h"

namespace rhtm {
namespace {

constexpr std::size_t kAccounts = 64;
constexpr TmWord kInitialEach = 100;
constexpr TmWord kTotal = kAccounts * kInitialEach;

template <class Tm>
void bank_test(Tm& tm, unsigned writers) {
  std::vector<TVar<TmWord>> accounts(kAccounts);
  for (auto& a : accounts) a.unsafe_write(kInitialEach);

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      typename Tm::ThreadCtx ctx(tm);
      Xoshiro256 rng(1000 + t);
      for (int i = 0; i < 4000; ++i) {
        const std::size_t from = rng.below(kAccounts);
        const std::size_t to = rng.below(kAccounts);
        const TmWord amount = rng.below(5);
        tm.atomically(ctx, [&](auto& tx) {
          const TmWord f = accounts[from].read(tx);
          if (f >= amount) {
            accounts[from].write(tx, f - amount);
            accounts[to].write(tx, accounts[to].read(tx) + amount);
          }
        });
      }
    });
  }
  // A reader thread summing all accounts transactionally.
  threads.emplace_back([&] {
    typename Tm::ThreadCtx ctx(tm);
    while (!stop.load(std::memory_order_acquire)) {
      TmWord sum = 0;
      tm.atomically(ctx, [&](auto& tx) {
        TmWord s = 0;
        for (const auto& a : accounts) s += a.read(tx);
        sum = s;
      });
      if (sum != kTotal) torn.store(true);
    }
  });
  for (unsigned t = 0; t < writers; ++t) threads[t].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  CHECK(!torn.load());
  TmWord final_total = 0;
  for (const auto& a : accounts) final_total += a.unsafe_read();
  CHECK_EQ(final_total, kTotal);
}

template <class H>
void tl2_bank() {
  TmUniverse<H> u;
  Tl2<H> tm(u);
  bank_test(tm, 4);
}

template <class H>
void htm_only_bank() {
  TmUniverse<H> u;
  HtmOnly<H> tm(u);
  bank_test(tm, 4);
}

template <class H>
void standard_hytm_bank() {
  TmUniverse<H> u;
  StandardHytm<H> tm(u);  // with software fallback enabled
  bank_test(tm, 4);
}

template <class H>
void rh1_fast_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 0;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh1_mixed_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  cfg.inject_abort_bp = 2000;  // force plenty of slow-path traffic
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh1_forced_slow_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.force_slow_path = true;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh2_forced_bank() {
  TmUniverse<H> u;
  typename HybridTm<H>::Config cfg;
  cfg.force_rh2 = true;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void rh1_adaptive_bank() {
  UniverseConfig ucfg;
  ucfg.cm.policy = CmPolicy::kAdaptive;
  TmUniverse<H> u(ucfg);
  typename HybridTm<H>::Config cfg;
  cfg.inject_abort_bp = 5000;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void hybrid_norec_bank() {
  TmUniverse<H> u;
  typename HybridNorec<H>::Config cfg;
  cfg.inject_abort_bp = 2000;  // push traffic onto the software path too
  HybridNorec<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void phased_bank() {
  TmUniverse<H> u;
  typename PhasedTm<H>::Config cfg;
  cfg.inject_abort_bp = 2000;  // force phase transitions
  PhasedTm<H> tm(u, cfg);
  bank_test(tm, 4);
  CHECK_EQ(tm.software_pending(), 0u);  // phases drained
}

/// Shared fake 2-socket topology for the numa legs (the universe keeps a
/// pointer to it, so it must outlive every universe built from it).
const Topology& two_socket_topology() {
  static const Topology topo = Topology::fake({{0, 1, 2, 3}, {4, 5, 6, 7}});
  return topo;
}

UniverseConfig numa_config(NumaMode mode) {
  UniverseConfig ucfg;
  ucfg.numa = mode;
  ucfg.topology = &two_socket_topology();
  return ucfg;
}

/// numa parametrization: the same bank invariants must hold with the stripe
/// table sharded per socket (numa=shard) — the façade may not change any
/// lock/validate decision — and with the per-socket cached clock stacked on
/// top (numa=shard+clock), whose lagging replicas may only ever cause
/// spurious revalidation, never admit a torn snapshot.
template <class H>
void numa_shard_tl2_bank() {
  TmUniverse<H> u(numa_config(NumaMode::kShard));
  Tl2<H> tm(u);
  bank_test(tm, 4);
}

template <class H>
void numa_shard_rh1_mixed_bank() {
  TmUniverse<H> u(numa_config(NumaMode::kShard));
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  cfg.inject_abort_bp = 2000;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void numa_shard_rh2_forced_bank() {
  TmUniverse<H> u(numa_config(NumaMode::kShard));
  typename HybridTm<H>::Config cfg;
  cfg.force_rh2 = true;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void numa_shard_clock_mixed_bank() {
  TmUniverse<H> u(numa_config(NumaMode::kShardClock));
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  cfg.inject_abort_bp = 2000;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

template <class H>
void gv6_mixed_bank() {
  UniverseConfig ucfg;
  ucfg.gv_mode = GvMode::kGv6;
  TmUniverse<H> u(ucfg);
  typename HybridTm<H>::Config cfg;
  cfg.slow_retry_percent = 100;
  cfg.inject_abort_bp = 2000;
  HybridTm<H> tm(u, cfg);
  bank_test(tm, 4);
}

/// RH1 fast-path writers beside transactions that commit through the
/// slow-slow (stripe-locked, all-software) commit, on one universe. In a
/// non-durable universe the fast and reduced commits test their write
/// stripes for locks only while the RH2 word is raised — which it is for
/// as long as a slow-slow commit can hold a lock; in a durable one they
/// always test, and hardware commits also hold locks until they persist.
/// This is where a missing test would show.
///
/// The slow-slow side is a second HybridTm, forced onto RH2, whose batches
/// always overflow the universe's write budget, so every one of its
/// commits escalates to slow-slow. Each batch moves money (its reads
/// publish read masks, which also guard those stripes) and writes every
/// tag cell blind: the tag stripes are guarded by the lock test alone.
/// Fast writers (one fast-only, one mixed, so the reduced commit runs too)
/// move money and write one tag each.
///
/// A stamp over a held lock shows as a stripe version going backwards: the
/// slow-slow commit later unlocks to its own, older version. The window
/// for that is the commit's locked span after its clock fetch. A durable
/// commit holds its locks across the whole persist sequence; a non-durable
/// one only across its write-back, so there the batch also blind-writes a
/// ballast of cells whose stripes sort below the tags' — locks are
/// released in ascending order, so the tags stay locked while the ballast
/// unlocks.
///
/// Checks: conservation, torn audits (software reads, which trust stripe
/// versions), tag stripe versions never going backwards and, when durable,
/// that replaying the redo log in marker order gives the memory state.
template <class H>
void rh1_fast_beside_slow_slow(bool durable) {
  constexpr std::size_t kTags = 8;
  UniverseConfig ucfg;
  ucfg.durable = durable;
  ucfg.htm.max_write_set = 12;  // a fast transfer + tag (<= 7 lines) fits; a batch never does
  TmUniverse<H> u(ucfg);
  StripeTable& st = u.stripes();
  typename HybridTm<H>::Config fast_cfg;
  fast_cfg.slow_retry_percent = 0;
  HybridTm<H> fast_tm(u, fast_cfg);
  typename HybridTm<H>::Config mixed_cfg;
  mixed_cfg.inject_abort_bp = 3000;  // plenty of reduced commits
  HybridTm<H> mixed_tm(u, mixed_cfg);
  typename HybridTm<H>::Config ss_cfg;
  ss_cfg.force_rh2 = true;
  HybridTm<H> ss_tm(u, ss_cfg);
  typename HybridTm<H>::Config audit_cfg;
  audit_cfg.force_slow_path = true;
  HybridTm<H> audit_tm(u, audit_cfg);

  std::vector<TVar<TmWord>> accounts(kAccounts);
  for (auto& a : accounts) a.unsafe_write(kInitialEach);
  // Tags: one cell on each of the kTags highest stripes of a pool. Ballast:
  // the pool cells on lower stripes (non-durable only; durable batches would
  // overflow the redo log).
  std::vector<TVar<TmWord>> pool(1024);
  std::vector<std::size_t> order(pool.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto stripe_of = [&](std::size_t i) { return st.index_of(&pool[i].cell()); };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return stripe_of(a) > stripe_of(b); });
  std::vector<const TVar<TmWord>*> tags;
  std::vector<std::size_t> tag_stripes;
  std::size_t next = 0;
  for (; tags.size() < kTags; ++next) {
    const std::size_t s = stripe_of(order[next]);
    if (tag_stripes.empty() || tag_stripes.back() != s) {
      tags.push_back(&pool[order[next]]);
      tag_stripes.push_back(s);
    }
  }
  std::vector<const TVar<TmWord>*> ballast;
  for (; !durable && next < order.size(); ++next) {
    if (stripe_of(order[next]) < tag_stripes.back()) ballast.push_back(&pool[order[next]]);
  }

  // Durable commits are redo-logged: fewer of them keep the log
  // (PmemConfig::log_words) from overflowing on a slow or loaded host.
  const int fast_ops = durable ? 3000 : 30000;
  const TmWord max_batches = durable ? 10000 : ~TmWord{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<bool> regressed{false};
  std::atomic<std::uint64_t> ss_commits{0};

  const auto transfer = [&](auto& tx, std::size_t from, std::size_t to, TmWord amount) {
    const TmWord f = accounts[from].read(tx);
    if (f >= amount) {
      accounts[from].write(tx, f - amount);
      accounts[to].write(tx, accounts[to].read(tx) + amount);
    }
  };
  const auto fast_writer = [&](HybridTm<H>& tm, std::uint64_t seed) {
    typename HybridTm<H>::ThreadCtx ctx(tm);
    Xoshiro256 rng(seed);
    for (int i = 0; i < fast_ops; ++i) {
      const std::size_t from = rng.below(kAccounts);
      const std::size_t to = rng.below(kAccounts);
      const TmWord amount = rng.below(5);
      const std::size_t tag = rng.below(kTags);
      tm.atomically(ctx, [&](auto& tx) {
        transfer(tx, from, to, amount);
        tags[tag]->write(tx, seed + i);
      });
    }
  };

  std::vector<std::thread> writers;
  writers.emplace_back([&] { fast_writer(fast_tm, 2000); });
  writers.emplace_back([&] { fast_writer(mixed_tm, 3000); });
  std::vector<std::thread> others;
  others.emplace_back([&] {  // slow-slow batches until the fast writers finish
    typename HybridTm<H>::ThreadCtx ctx(ss_tm);
    Xoshiro256 rng(4000);
    for (TmWord n = 1; n <= max_batches && !stop.load(std::memory_order_acquire); ++n) {
      ss_tm.atomically(ctx, [&](auto& tx) {
        for (int k = 0; k < 2; ++k) {
          transfer(tx, rng.below(kAccounts), rng.below(kAccounts), rng.below(5));
        }
        for (const auto* b : ballast) b->write(tx, n);
        for (const auto* t : tags) t->write(tx, n);
      });
    }
    ss_commits.store(ctx.stats.commits_by_path[static_cast<std::size_t>(ExecPath::kRh2SlowSlow)]);
  });
  others.emplace_back([&] {  // software audits
    typename HybridTm<H>::ThreadCtx ctx(audit_tm);
    while (!stop.load(std::memory_order_acquire)) {
      TmWord sum = 0;
      audit_tm.atomically(ctx, [&](auto& tx) {
        TmWord s = 0;
        for (const auto& a : accounts) s += a.read(tx);
        sum = s;
      });
      if (sum != kTotal) torn.store(true);
    }
  });
  others.emplace_back([&] {  // tag stripe versions only move forward
    std::vector<TmWord> last(tag_stripes.size(), 0);
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t i = 0; i < tag_stripes.size(); ++i) {
        const TmWord v = StripeTable::version_of(st.word(tag_stripes[i]).word.load());
        if (v < last[i]) regressed.store(true);
        last[i] = std::max(last[i], v);
      }
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (auto& t : others) t.join();

  CHECK(ss_commits.load() > 0);  // the slow-slow commit really ran
  CHECK(!torn.load());
  CHECK(!regressed.load());
  TmWord final_total = 0;
  for (const auto& a : accounts) final_total += a.unsafe_read();
  CHECK_EQ(final_total, kTotal);
  CHECK_EQ(u.rh2_word().unsafe_load(), 0u);
  for (const std::size_t s : tag_stripes) CHECK(!StripeTable::is_locked(st.word(s).unsafe_load()));
  if (!durable) return;
  // Marker order is serialization order: replaying the log must give the
  // memory state of every account and tag.
  PersistentDomain& pd = u.pmem();
  CHECK(!pd.log_overflowed());
  std::unordered_map<std::uintptr_t, TmWord> replay;
  for (const auto& t : pd.recover_log()) {
    for (const auto& e : t.entries) replay[e.addr] = e.value;
  }
  const auto replayed = [&](const TVar<TmWord>& v, TmWord initial) {
    const auto it = replay.find(reinterpret_cast<std::uintptr_t>(&v.cell()));
    return it != replay.end() ? it->second : initial;
  };
  for (const auto& a : accounts) CHECK_EQ(replayed(a, kInitialEach), a.unsafe_read());
  for (const auto* t : tags) CHECK_EQ(replayed(*t, 0), t->unsafe_read());
}

/// The rtm leg announces whether it exercised real hardware transactions or
/// the graceful software fallback — both must satisfy the invariants.
void rtm_banner() {
  std::printf("    rtm substrate: available=%d hardware_viable=%d (%s)\n",
              HtmRtm::available() ? 1 : 0, HtmRtm::hardware_viable() ? 1 : 0,
              HtmRtm::hardware_viable() ? "real hardware transactions"
                                        : "software fallback paths");
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::HtmRtm;
  using rhtm::HtmSim;
  using rhtm::test::TestCase;
  return rhtm::test::run_tests({
      TestCase{"tl2_bank", rhtm::tl2_bank<HtmSim>},
      TestCase{"htm_only_bank", rhtm::htm_only_bank<HtmSim>},
      TestCase{"standard_hytm_bank", rhtm::standard_hytm_bank<HtmSim>},
      TestCase{"rh1_fast_bank", rhtm::rh1_fast_bank<HtmSim>},
      TestCase{"rh1_mixed_bank", rhtm::rh1_mixed_bank<HtmSim>},
      TestCase{"rh1_forced_slow_bank", rhtm::rh1_forced_slow_bank<HtmSim>},
      TestCase{"rh2_forced_bank", rhtm::rh2_forced_bank<HtmSim>},
      TestCase{"rh1_adaptive_bank", rhtm::rh1_adaptive_bank<HtmSim>},
      TestCase{"hybrid_norec_bank", rhtm::hybrid_norec_bank<HtmSim>},
      TestCase{"phased_bank", rhtm::phased_bank<HtmSim>},
      TestCase{"gv6_mixed_bank", rhtm::gv6_mixed_bank<HtmSim>},
      TestCase{"rh1_fast_beside_slow_slow",
               [] { rhtm::rh1_fast_beside_slow_slow<HtmSim>(false); }},
      TestCase{"rh1_fast_beside_slow_slow_durable",
               [] { rhtm::rh1_fast_beside_slow_slow<HtmSim>(true); }},
      TestCase{"numa_shard_tl2_bank", rhtm::numa_shard_tl2_bank<HtmSim>},
      TestCase{"numa_shard_rh1_mixed_bank", rhtm::numa_shard_rh1_mixed_bank<HtmSim>},
      TestCase{"numa_shard_rh2_forced_bank", rhtm::numa_shard_rh2_forced_bank<HtmSim>},
      TestCase{"numa_shard_clock_mixed_bank", rhtm::numa_shard_clock_mixed_bank<HtmSim>},
      TestCase{"rtm_banner", rhtm::rtm_banner},
      TestCase{"rtm_tl2_bank", rhtm::tl2_bank<HtmRtm>},
      TestCase{"rtm_htm_only_bank", rhtm::htm_only_bank<HtmRtm>},
      TestCase{"rtm_standard_hytm_bank", rhtm::standard_hytm_bank<HtmRtm>},
      TestCase{"rtm_rh1_fast_bank", rhtm::rh1_fast_bank<HtmRtm>},
      TestCase{"rtm_rh1_mixed_bank", rhtm::rh1_mixed_bank<HtmRtm>},
      TestCase{"rtm_rh2_forced_bank", rhtm::rh2_forced_bank<HtmRtm>},
      TestCase{"rtm_hybrid_norec_bank", rhtm::hybrid_norec_bank<HtmRtm>},
      TestCase{"rtm_phased_bank", rhtm::phased_bank<HtmRtm>},
      TestCase{"rtm_numa_shard_rh1_mixed_bank", rhtm::numa_shard_rh1_mixed_bank<HtmRtm>},
      TestCase{"rtm_numa_shard_clock_mixed_bank",
               rhtm::numa_shard_clock_mixed_bank<HtmRtm>},
  });
}
