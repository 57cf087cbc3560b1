// The deduped commit pipeline, end to end:
//  * a huge-write-set TL2 commit completes in sorted-deduped time (the old
//    per-entry is_self linear scan was O(W^2) and made this size hang for
//    seconds — this is the canary that reverting the dedup trips);
//  * the RH1 reduced commit's hardware footprint follows the DISTINCT
//    stripe count, not the raw read count: zipfian re-reads of a hot set
//    stay on the RH1-slow tier instead of spuriously escalating to RH2;
//  * the RH2 slow-slow commit honors its own published read masks through
//    the O(1) self-mask view and leaves no mask behind;
//  * the RH1 fast path stamps each distinct written stripe once, so a
//    256-write transaction fits the emulated 512-store budget;
//  * neither RH1 hardware commit stamps over a stripe lock where one can
//    exist: in a durable universe, or while an RH2 transaction is live;
//  * a non-durable universe refuses to host HybridTm contexts and contexts
//    of a stripe-locking protocol at once, the rule that makes skipping the
//    lock test outside RH2 sound.
//  * the fast commit stamps clock + 1 without storing the clock, and a
//    stamp above the clock starves no software attempt: the abort step
//    lifts the clock past it.

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/rhtm.h"
#include "workloads/driver.h"
#include "test_common.h"

namespace rhtm {
namespace {

std::uint64_t commits_on(const TxStats& s, ExecPath p) {
  return s.commits_by_path[static_cast<std::size_t>(p)];
}

/// Every test below runs twice: numa=off (flat stripe table, the historical
/// layout) and numa=shard (per-socket shards behind the same façade). The
/// pipeline observables — commit path, footprint, mask hygiene — must be
/// identical, because sharding only relocates storage; it never changes a
/// lock or validation decision.
UniverseConfig with_numa(UniverseConfig ucfg, NumaMode mode) {
  static const Topology topo = Topology::fake({{0, 1, 2, 3}, {4, 5, 6, 7}});
  ucfg.numa = mode;
  ucfg.topology = &topo;
  return ucfg;
}

/// One TL2 transaction reading 20k cells and writing 40k more. Under the
/// old per-entry `is_self` linear scan this commit was O(W x locked) ~ 1e9
/// stripe compares (seconds of wall clock); deduped + sorted it is O(W log
/// W). The suite-level observable is this test finishing instantly.
void large_write_set_tl2_commit(NumaMode numa) {
  constexpr std::size_t kReads = 20000;
  constexpr std::size_t kWrites = 40000;
  UniverseConfig ucfg;
  ucfg.stripe.granularity_log2 = 3;  // 1 word per stripe: maximal lock count
  TmUniverse<HtmSim> u(with_numa(ucfg, numa));
  Tl2<HtmSim> tm(u);
  Tl2<HtmSim>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> reads(kReads);
  std::vector<TVar<TmWord>> writes(kWrites);
  for (std::size_t i = 0; i < kReads; ++i) reads[i].unsafe_write(i);

  tm.atomically(ctx, [&](auto& tx) {
    TmWord sum = 0;
    for (std::size_t i = 0; i < kReads; ++i) sum += reads[i].read(tx);
    for (std::size_t i = 0; i < kWrites; ++i) writes[i].write(tx, sum + i);
  });
  CHECK_EQ(ctx.stats.commits, 1u);
  const TmWord expect_base = kReads * (kReads - 1) / 2;
  CHECK_EQ(writes[0].unsafe_read(), expect_base);
  CHECK_EQ(writes[kWrites - 1].unsafe_read(), expect_base + kWrites - 1);
  // Every lock released back to an unlocked word.
  for (std::size_t s = 0; s < u.stripes().count(); ++s) {
    CHECK(!StripeTable::is_locked(u.stripes().word(s).unsafe_load()));
  }
}

/// Zipfian-style re-reads: the body reads 8 hot cells 300 times each, so
/// the raw read count (2400) dwarfs the distinct stripe count (<= 8). The
/// reduced commit must fit the 64-entry hardware budget — under the old
/// duplicate-logging ReadSet it overflowed and escalated to RH2.
void reduced_commit_footprint_is_distinct_stripes(NumaMode numa) {
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  ucfg.htm.line_shift = 3;
  TmUniverse<HtmEmul> u(with_numa(ucfg, numa));
  HybridTm<HtmEmul>::Config cfg;
  cfg.force_slow_path = true;  // software body + reduced hardware commit
  HybridTm<HtmEmul> tm(u, cfg);
  HybridTm<HtmEmul>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> data(4096);
  const TxStats delta =
      run_capacity_pressure(tm, ctx, 20, [&](auto& m, auto& c, Xoshiro256&, unsigned) {
        m.atomically(c, [&](auto& tx) {
          TmWord sum = 0;
          for (int round = 0; round < 300; ++round) {
            for (std::size_t i = 0; i < 8; ++i) sum += data[i * 512].read(tx);
          }
          for (std::size_t i = 0; i < 4; ++i) data[1 + i * 512].write(tx, sum);
        });
      });
  CHECK_EQ(delta.commits, 20u);
  CHECK_EQ(commits_on(delta, ExecPath::kRh1Slow), 20u);  // never escalated
  CHECK_EQ(delta.aborts_by_cause[static_cast<std::size_t>(AbortCause::kHtmCapacity)], 0u);
}

/// Same shape under the simulator's real distinct-line accounting: the
/// transaction commits on the RH1-slow tier and the published values are
/// correct (the reduced commit stamped each unique stripe exactly once).
void reduced_commit_dedup_sim(NumaMode numa) {
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  ucfg.htm.line_shift = 3;
  TmUniverse<HtmSim> u(with_numa(ucfg, numa));
  HybridTm<HtmSim>::Config cfg;
  cfg.force_slow_path = true;
  HybridTm<HtmSim> tm(u, cfg);
  HybridTm<HtmSim>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> data(64);
  tm.atomically(ctx, [&](auto& tx) {
    TmWord sum = 0;
    for (int round = 0; round < 100; ++round) {
      for (std::size_t i = 0; i < 16; ++i) sum += data[i].read(tx);
    }
    for (std::size_t i = 0; i < 16; ++i) data[32 + i].write(tx, sum + i);
  });
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh1Slow), 1u);
  for (std::size_t i = 0; i < 16; ++i) CHECK_EQ(data[32 + i].unsafe_read(), i);
}

/// RH2 whose write-set-only hardware commit overflows: the all-software
/// slow-slow commit must admit the transaction's own published read masks
/// (via the O(1) self-mask set), commit, and unpublish every mask.
void rh2_slow_slow_respects_own_masks(NumaMode numa) {
  constexpr std::size_t kCells = 4000;
  UniverseConfig ucfg;
  ucfg.htm.max_read_set = 64;
  ucfg.htm.max_write_set = 64;
  ucfg.htm.line_shift = 3;
  TmUniverse<HtmSim> u(with_numa(ucfg, numa));
  HybridTm<HtmSim>::Config cfg;
  cfg.force_rh2 = true;
  HybridTm<HtmSim> tm(u, cfg);
  HybridTm<HtmSim>::ThreadCtx ctx(tm);

  std::vector<TVar<TmWord>> cells(kCells);
  for (std::size_t i = 0; i < kCells; ++i) cells[i].unsafe_write(i);
  // Read-modify-write of every cell: every written stripe also carries this
  // transaction's own visible-read mask, so a commit that miscounted self
  // masks would deadlock-abort forever.
  tm.atomically(ctx, [&](auto& tx) {
    for (std::size_t i = 0; i < kCells; ++i) cells[i].write(tx, cells[i].read(tx) + 1);
  });
  CHECK_EQ(ctx.stats.commits, 1u);
  CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh2SlowSlow), 1u);
  for (std::size_t i = 0; i < kCells; ++i) CHECK_EQ(cells[i].unsafe_read(), i + 1);
  CHECK_EQ(tm.rh2_active(), 0u);
  for (std::size_t s = 0; s < u.stripes().count(); ++s) {
    CHECK_EQ(u.stripes().readers(s), 0u);  // every mask unpublished
    CHECK(!StripeTable::is_locked(u.stripes().word(s).unsafe_load()));
  }
}

/// micro_barriers' write shape: 256 stores to consecutive cells in one
/// fast-path transaction on emul. The fast path stamps each distinct stripe
/// once (about 64 stamps), so store count stays well inside the 512-store
/// budget and every transaction commits on the fast path. A record that
/// stamped once per store would need 513 stores and fall to the slow path.
void fast_path_stamps_distinct_stripes(NumaMode numa) {
  constexpr std::size_t kCells = 1024;
  constexpr std::size_t kWrites = 256;
  TmUniverse<HtmEmul> u(with_numa(UniverseConfig{}, numa));
  HybridTm<HtmEmul> tm(u);
  HybridTm<HtmEmul>::ThreadCtx ctx(tm);
  std::vector<TVar<TmWord>> cells(kCells);
  for (std::size_t round = 0; round < 8; ++round) {
    tm.atomically(ctx, [&](auto& tx) {
      for (std::size_t i = 0; i < kWrites; ++i) {
        cells[(round * kWrites + i) & (kCells - 1)].write(tx, round + i);
      }
    });
  }
  CHECK_EQ(ctx.stats.commits, 8u);
  CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh1Fast), 8u);
  CHECK_EQ(ctx.stats.aborts_by_cause[static_cast<std::size_t>(AbortCause::kHtmCapacity)], 0u);
  CHECK_EQ(cells[kCells - 1].unsafe_read(), 7u + kWrites - 1);
}

/// A blind write of one cell whose stripe is locked by hand, by `tm` on a
/// second thread. The lock stands in for a slow-slow commit (RH2 word
/// raised) or a durable commit still persisting. The write must not commit
/// while the lock is held: attempt after attempt, the stripe word stays
/// exactly as locked and the cell keeps its value. Once released, the same
/// transaction commits and stamps a newer version.
template <class H>
void blind_write_waits_for_lock(TmUniverse<H>& u, const typename HybridTm<H>::Config& cfg) {
  HybridTm<H> tm(u, cfg);
  StripeTable& st = u.stripes();
  TVar<TmWord> cell(1);
  const std::size_t s = st.index_of(&cell.cell());
  CHECK(st.try_lock(s));
  const TmWord locked = st.word(s).unsafe_load();
  std::atomic<unsigned> attempts{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    typename HybridTm<H>::ThreadCtx ctx(tm);
    tm.atomically(ctx, [&](auto& tx) {
      attempts.fetch_add(1, std::memory_order_relaxed);
      cell.write(tx, 2);
    });
    done.store(true);
  });
  while (attempts.load() < 64 && !done.load()) std::this_thread::yield();
  CHECK(!done.load());
  CHECK_EQ(st.word(s).unsafe_load(), locked);
  CHECK_EQ(cell.unsafe_read(), 1u);
  st.unlock_restore(s);
  writer.join();
  CHECK_EQ(cell.unsafe_read(), 2u);
  const TmWord after = st.word(s).unsafe_load();
  CHECK(!StripeTable::is_locked(after));
  CHECK(StripeTable::version_of(after) > StripeTable::version_of(locked));
}

/// The fast path (fast-only config) and the reduced commit (forced slow
/// path), each against a hand-held lock: in a durable universe, and in a
/// non-durable one with the RH2 word raised.
void hand_locked_stripe_is_not_stamped_over(NumaMode numa) {
  HybridTm<HtmSim>::Config fast;
  fast.slow_retry_percent = 0;
  HybridTm<HtmSim>::Config reduced;
  reduced.force_slow_path = true;
  for (const auto* cfg : {&fast, &reduced}) {
    {
      UniverseConfig ucfg;
      ucfg.durable = true;
      TmUniverse<HtmSim> u(with_numa(ucfg, numa));
      blind_write_waits_for_lock(u, *cfg);
    }
    {
      TmUniverse<HtmSim> u(with_numa(UniverseConfig{}, numa));
      u.htm().nontx_fetch_add(u.rh2_word(), 1);  // an RH2 transaction is live
      blind_write_waits_for_lock(u, *cfg);
      u.htm().nontx_fetch_add(u.rh2_word(), ~TmWord{0});
    }
  }
}

/// The fast commit loads the clock and stamps clock + 1, but stores the
/// clock cell under no GvMode and counts no global publish: two fast
/// commits in a row stamp the same version.
void fast_commit_leaves_clock(NumaMode numa) {
  for (const GvMode mode : {GvMode::kGv1, GvMode::kGv4, GvMode::kGv6}) {
    UniverseConfig ucfg;
    ucfg.gv_mode = mode;
    TmUniverse<HtmSim> u(with_numa(ucfg, numa));
    HybridTm<HtmSim>::Config cfg;
    cfg.slow_retry_percent = 0;  // fast path only
    HybridTm<HtmSim> tm(u, cfg);
    HybridTm<HtmSim>::ThreadCtx ctx(tm);
    u.htm().nontx_store(u.clock().cell(), 7);
    TVar<TmWord> a(1);
    TVar<TmWord> b(2);
    tm.atomically(ctx, [&](auto& tx) { a.write(tx, b.read(tx) + 1); });
    tm.atomically(ctx, [&](auto& tx) { b.write(tx, a.read(tx) + 1); });
    CHECK_EQ(commits_on(ctx.stats, ExecPath::kRh1Fast), 2u);
    CHECK_EQ(a.unsafe_read(), 3u);
    CHECK_EQ(b.unsafe_read(), 4u);
    CHECK_EQ(u.clock().read(), 7u);
    CHECK_EQ(u.clock().global_publishes(), 0u);
    for (const TVar<TmWord>* v : {&a, &b}) {
      const TmWord w = u.stripes().word(u.stripes().index_of(&v->cell())).unsafe_load();
      CHECK(!StripeTable::is_locked(w));
      CHECK_EQ(StripeTable::version_of(w), 8u);
    }
  }
}

/// Thrown by a transaction body past its invocation budget, so a software
/// retry loop that never commits fails the test instead of hanging it.
struct NoProgress {};
constexpr unsigned kMaxBodyCalls = 64;

/// A stripe stamped above the clock — what a fast commit leaves (clock +
/// 1), or, further up, what emul leaves when its non-atomic clock update
/// falls back — must not starve the software paths: the abort step lifts
/// the clock past each rejected read-version. A write-only RH2 transaction,
/// whose commit rejects the stamp without running a read barrier, and a
/// slow-path reader each commit within kMaxBodyCalls body invocations.
void stamp_above_clock_is_admitted(NumaMode numa) {
  for (const TmWord ahead : {TmWord{1}, TmWord{8}}) {
    TmUniverse<HtmSim> u(with_numa(UniverseConfig{}, numa));
    StripeTable& st = u.stripes();
    TVar<TmWord> cell(1);
    const std::size_t s = st.index_of(&cell.cell());
    const auto stamp_ahead = [&] { st.unlock_to(s, u.clock().read() + ahead); };
    HybridTm<HtmSim>::Config writer_cfg;
    writer_cfg.force_rh2 = true;
    HybridTm<HtmSim>::Config reader_cfg;
    reader_cfg.force_slow_path = true;
    HybridTm<HtmSim> writer(u, writer_cfg);
    HybridTm<HtmSim> reader(u, reader_cfg);
    HybridTm<HtmSim>::ThreadCtx wctx(writer);
    HybridTm<HtmSim>::ThreadCtx rctx(reader);
    unsigned calls = 0;
    const auto count_call = [&] {
      if (++calls > kMaxBodyCalls) throw NoProgress{};
    };
    try {
      stamp_ahead();
      writer.atomically(wctx, [&](auto& tx) {
        count_call();
        cell.write(tx, 2);
      });
      CHECK_EQ(commits_on(wctx.stats, ExecPath::kRh2Slow), 1u);
      CHECK_EQ(cell.unsafe_read(), 2u);
      calls = 0;
      stamp_ahead();
      TmWord seen = 0;
      reader.atomically(rctx, [&](auto& tx) {
        count_call();
        seen = cell.read(tx);
      });
      CHECK_EQ(commits_on(rctx.stats, ExecPath::kRh1Slow), 1u);
      CHECK_EQ(seen, 2u);
    } catch (const NoProgress&) {
      CHECK(false && "no commit within kMaxBodyCalls body invocations");
    }
    CHECK_EQ(writer.rh2_active(), 0u);
  }
}

/// True when constructing a thread context of `tm` throws the stripe-lock
/// rule's std::logic_error.
template <class Tm>
bool ctx_refused(Tm& tm) {
  try {
    typename Tm::ThreadCtx ctx(tm);
  } catch (const std::logic_error&) {
    return true;
  }
  return false;
}

/// TmUniverse::claim_stripe_use: on a non-durable universe, HybridTm
/// contexts and contexts of a stripe-locking protocol (Tl2, PhasedTm,
/// StandardHytm with its TL2 fallback) are never live at once, whichever
/// comes first. Protocols that lock no stripes mix with either kind, a
/// refused or destroyed context frees its claim, and a durable universe
/// accepts any mix.
void stripe_lock_rule_is_enforced() {
  TmUniverse<HtmSim> u;
  HybridTm<HtmSim> rh(u);
  Tl2<HtmSim> tl2(u);
  PhasedTm<HtmSim> phased(u);
  StandardHytm<HtmSim> hytm(u);
  StandardHytm<HtmSim>::Config hw_only_cfg;
  hw_only_cfg.hardware_only = true;
  StandardHytm<HtmSim> hytm_hw_only(u, hw_only_cfg);
  HtmOnly<HtmSim> htm(u);
  {
    HybridTm<HtmSim>::ThreadCtx live(rh);
    CHECK(ctx_refused(tl2));
    CHECK(ctx_refused(phased));
    CHECK(ctx_refused(hytm));
    CHECK(!ctx_refused(hytm_hw_only));
    CHECK(!ctx_refused(htm));
    CHECK(!ctx_refused(rh));
  }
  {
    Tl2<HtmSim>::ThreadCtx live(tl2);
    CHECK(ctx_refused(rh));
    CHECK(!ctx_refused(phased));
    CHECK(!ctx_refused(hytm));
  }
  CHECK(!ctx_refused(rh));
  CHECK(!ctx_refused(tl2));

  UniverseConfig durable_cfg;
  durable_cfg.durable = true;
  TmUniverse<HtmSim> du(durable_cfg);
  HybridTm<HtmSim> durable_rh(du);
  Tl2<HtmSim> durable_tl2(du);
  HybridTm<HtmSim>::ThreadCtx live(durable_rh);
  CHECK(!ctx_refused(durable_tl2));
}

}  // namespace
}  // namespace rhtm

int main() {
  using rhtm::test::TestCase;
  using rhtm::NumaMode;
  return rhtm::test::run_tests({
      TestCase{"large_write_set_tl2_commit",
               [] { rhtm::large_write_set_tl2_commit(NumaMode::kOff); }},
      TestCase{"large_write_set_tl2_commit_numa_shard",
               [] { rhtm::large_write_set_tl2_commit(NumaMode::kShard); }},
      TestCase{"reduced_commit_footprint_is_distinct_stripes",
               [] { rhtm::reduced_commit_footprint_is_distinct_stripes(NumaMode::kOff); }},
      TestCase{"reduced_commit_footprint_is_distinct_stripes_numa_shard",
               [] { rhtm::reduced_commit_footprint_is_distinct_stripes(NumaMode::kShard); }},
      TestCase{"reduced_commit_dedup_sim",
               [] { rhtm::reduced_commit_dedup_sim(NumaMode::kOff); }},
      TestCase{"reduced_commit_dedup_sim_numa_shard",
               [] { rhtm::reduced_commit_dedup_sim(NumaMode::kShard); }},
      TestCase{"rh2_slow_slow_respects_own_masks",
               [] { rhtm::rh2_slow_slow_respects_own_masks(NumaMode::kOff); }},
      TestCase{"rh2_slow_slow_respects_own_masks_numa_shard",
               [] { rhtm::rh2_slow_slow_respects_own_masks(NumaMode::kShard); }},
      TestCase{"fast_path_stamps_distinct_stripes",
               [] { rhtm::fast_path_stamps_distinct_stripes(NumaMode::kOff); }},
      TestCase{"fast_path_stamps_distinct_stripes_numa_shard",
               [] { rhtm::fast_path_stamps_distinct_stripes(NumaMode::kShard); }},
      TestCase{"hand_locked_stripe_is_not_stamped_over",
               [] { rhtm::hand_locked_stripe_is_not_stamped_over(NumaMode::kOff); }},
      TestCase{"hand_locked_stripe_is_not_stamped_over_numa_shard",
               [] { rhtm::hand_locked_stripe_is_not_stamped_over(NumaMode::kShard); }},
      TestCase{"fast_commit_leaves_clock",
               [] { rhtm::fast_commit_leaves_clock(NumaMode::kOff); }},
      TestCase{"fast_commit_leaves_clock_numa_shard",
               [] { rhtm::fast_commit_leaves_clock(NumaMode::kShard); }},
      TestCase{"stamp_above_clock_is_admitted",
               [] { rhtm::stamp_above_clock_is_admitted(NumaMode::kOff); }},
      TestCase{"stamp_above_clock_is_admitted_numa_shard",
               [] { rhtm::stamp_above_clock_is_admitted(NumaMode::kShard); }},
      TestCase{"stripe_lock_rule_is_enforced", rhtm::stripe_lock_rule_is_enforced},
  });
}
