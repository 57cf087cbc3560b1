// perfbench — the repository benchmark. One workload per invocation:
//
//   perfbench --workload tree-read|batch-write|bank-open --seed N --seconds S
//             --trace 0|1 [--trace-dir DIR]
//   perfbench --selftest
//
// Every workload runs on the sim substrate with library defaults
// (UniverseConfig{}, no abort injection) and 2 worker threads, for the four
// paper series: rh1 (HybridTm, Mixed-100), rh1_slow (force_slow_path), tl2
// and htm (HtmOnly). Each series gets its own universe and data. The run is
// cut into rounds; each round runs every series once on the same seeded
// inputs, so slow drift of the host hits all series alike. Throughput is
// the median over rounds; latency percentiles pool every sample. With
// --trace 0 the end-to-end metrics are printed; with --trace 1 every round
// also runs a traced slice, bank-open first climbs its rate ladder, and the
// per-layer metrics are printed. The last stdout line is one JSON object.
// README.md documents every metric.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdarg>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "core/rhtm.h"
#include "spans.h"
#include "watchdog.h"
#include "workloads.h"
#include "workloads/driver.h"
#include "workloads/open_loop.h"

namespace perfbench {
namespace {

using rhtm::AbortCause;
using rhtm::ExecPath;
using rhtm::LatencyHistogram;
using rhtm::TxStats;

constexpr unsigned kThreads = 2;          // half of the 4-core reference host
constexpr double kClosedSliceS = 0.25;    // one series' share of a closed-loop round
constexpr double kOpenSliceS = 0.5;       // one series' share of an open-loop round
constexpr double kRefRate = 1000;         // bank-open reference rate, req/s
constexpr double kFirstRung = 2000;       // rate ladder: 2k, 4k, 8k, ... 256k
constexpr double kLastRung = 256000;
constexpr double kFloorRung = 250;        // ... or 1k, 500, 250 when 2k misses
constexpr double kRungS = 3.0;
constexpr std::uint64_t kP99LimitNs = 5000000;  // a rung passes at p99 <= 5 ms, no drops
constexpr std::size_t kQueueCap = 1024;        // per-worker admission queue

enum class Series : unsigned { kRh1, kRh1Slow, kTl2, kHtm };
constexpr std::array<Series, 4> kSeries = {Series::kRh1, Series::kRh1Slow, Series::kTl2,
                                           Series::kHtm};

const char* name_of(Series s) {
  switch (s) {
    case Series::kRh1: return "rh1";
    case Series::kRh1Slow: return "rh1_slow";
    case Series::kTl2: return "tl2";
    case Series::kHtm: return "htm";
  }
  return "?";
}

using Universe = rhtm::TmUniverse<rhtm::HtmSim>;

/// Calls fn(tm) with a fresh protocol instance of series `s` over `u`.
template <class Fn>
void with_protocol(Series s, Universe& u, Fn&& fn) {
  switch (s) {
    case Series::kRh1: {
      rhtm::HybridTm<rhtm::HtmSim> tm(u);
      fn(tm);
      return;
    }
    case Series::kRh1Slow: {
      rhtm::HybridTm<rhtm::HtmSim>::Config cfg;
      cfg.force_slow_path = true;
      rhtm::HybridTm<rhtm::HtmSim> tm(u, cfg);
      fn(tm);
      return;
    }
    case Series::kTl2: {
      rhtm::Tl2<rhtm::HtmSim> tm(u);
      fn(tm);
      return;
    }
    case Series::kHtm: {
      rhtm::HtmOnly<rhtm::HtmSim> tm(u);
      fn(tm);
      return;
    }
  }
}

/// splitmix64 of (a, b): derives every input stream from --seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Watchdog& watchdog() {
  static Watchdog w;
  return w;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t commits_on(const TxStats& s, ExecPath p) {
  return s.commits_by_path[static_cast<std::size_t>(p)];
}
std::uint64_t aborts_of(const TxStats& s, AbortCause c) {
  return s.aborts_by_cause[static_cast<std::size_t>(c)];
}
double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// What one series run (a slice or a rung) produced.
struct SliceOut {
  std::uint64_t attempted = 0;  ///< closed: operations; open: requests offered
  std::uint64_t completed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failed = 0;     ///< check failures (+ drops at the reference rate)
  double seconds = 0;           ///< closed: wall time; open: generation window
  double ops_per_s = 0;         ///< closed: completed / seconds; open: service capacity
  LatencyHistogram lat;         ///< ns; closed: call to return; open: due to commit
  LatencyHistogram service;     ///< ns; open: service start -> commit
  LatencyHistogram audit_service;  ///< ns; open: the audits' share of `service`
  TxStats stats;
  std::uint64_t clock_advance = 0;
  std::uint64_t publishes = 0;
  std::uint64_t audits = 0;
  std::uint64_t audits_reduced = 0;  ///< audits committed through the reduced commit
  bool tripped = false;
};

/// Closed loop: each worker issues its next operation when the last returns,
/// for kClosedSliceS, timing each from call to return.
template <class W, class Tm>
SliceOut closed_slice(Tm& tm, typename W::Data& d, std::uint64_t seed, SpanRecorder* recs) {
  struct Worker {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    LatencyHistogram lat;
    TxStats stats;
  };
  std::array<Worker, kThreads> w;
  SliceOut out;
  out.seconds = rhtm::run_worker_pool(tm, kThreads, rhtm::PinMode::kNone,
                                      [&](auto& ctx, Xoshiro256&, unsigned tid) {
    Worker& me = w[tid];
    watchdog().watch(tid, &ctx.stats);
    Xoshiro256 rng(mix(seed, tid));
    SpanRecorder* rec = recs != nullptr ? &recs[tid] : nullptr;
    const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(kClosedSliceS * 1e9);
    while (!watchdog().stop_requested()) {
      const typename W::Op op = W::draw(rng);
      const std::uint64_t t0 = now_ns();
      if (t0 >= end) break;
      typename W::Result r{};
      run_tx(tm, ctx, rec, [&](auto& h) { r = W::apply(d, op, h); });
      me.lat.record(now_ns() - t0);
      ++me.ops;
      if (!W::check(d, op, r)) ++me.failed;
    }
    me.stats = ctx.stats;
    watchdog().watch(tid, nullptr);
  });
  for (Worker& x : w) {
    out.attempted += x.ops;
    out.completed += x.ops;
    out.failed += x.failed;
    out.lat.merge(x.lat);
    out.stats.merge(x.stats);
  }
  out.ops_per_s = static_cast<double>(out.completed) / out.seconds;
  return out;
}

/// Open loop over bank-open: per-worker Poisson arrivals at rate/kThreads
/// (the library's ArrivalSampler), a bounded FIFO of kQueueCap, one request
/// per transaction, latency timed from the scheduled arrival to commit —
/// the model of workloads/open_loop.h, with each request's phases exposed
/// to the tracer. Arrival times and request draws come from `seed`.
/// With `stop_on_drop`, the first drop ends generation (a failed rung).
template <class Tm>
SliceOut open_slice(Tm& tm, BankOpen::Data& d, double rate, double gen_s, std::uint64_t seed,
                    SpanRecorder* recs, bool stop_on_drop) {
  struct Req {
    std::uint64_t due;
    std::uint64_t admitted;
    BankOpen::Op op;
  };
  struct Worker {
    std::uint64_t offered = 0, dropped = 0, completed = 0, failed = 0, abandoned = 0;
    std::uint64_t audits = 0, reduced = 0;
    LatencyHistogram lat;
    LatencyHistogram service;
    LatencyHistogram audit_service;
    TxStats stats;
  };
  std::array<Worker, kThreads> w;
  std::atomic<bool> dropped_any{false};
  const auto window_ns = static_cast<std::uint64_t>(gen_s * 1e9);
  rhtm::run_worker_pool(tm, kThreads, rhtm::PinMode::kNone,
                        [&](auto& ctx, Xoshiro256&, unsigned tid) {
    Worker& me = w[tid];
    watchdog().watch(tid, &ctx.stats);
    Xoshiro256 arrivals(mix(seed, 2 * tid));
    Xoshiro256 draws(mix(seed, 2 * tid + 1));
    rhtm::ArrivalSampler sampler(rate / kThreads, /*deterministic=*/false);
    SpanRecorder* rec = recs != nullptr ? &recs[tid] : nullptr;
    std::vector<Req> ring(kQueueCap + 1);
    std::size_t head = 0, tail = 0, occupancy = 0;
    const std::uint64_t t0 = now_ns();
    const std::uint64_t window_end = t0 + window_ns;
    std::uint64_t next = t0 + sampler.next_gap_ns(arrivals);
    bool generating = next <= window_end;
    for (;;) {
      if (watchdog().stop_requested()) {
        me.abandoned += occupancy;
        break;
      }
      if (stop_on_drop && dropped_any.load(std::memory_order_relaxed)) generating = false;
      const std::uint64_t now = now_ns();
      while (generating && next <= now) {
        ++me.offered;
        const BankOpen::Op op = BankOpen::draw(draws);
        if (occupancy < kQueueCap) {
          ring[tail] = Req{next, now, op};
          tail = (tail + 1) % ring.size();
          ++occupancy;
        } else {
          ++me.dropped;
          if (stop_on_drop) dropped_any.store(true, std::memory_order_relaxed);
        }
        next += sampler.next_gap_ns(arrivals);
        if (next > window_end) generating = false;
      }
      if (now >= window_end) generating = false;
      if (occupancy == 0) {
        if (!generating) break;
        // Spin, never sleep: a sleeping worker wakes late by up to
        // milliseconds on a shared host, which would dominate the p99 of
        // low rates (run_open_loop sleeps while the next arrival is far).
        rhtm::detail::cpu_relax();
        continue;
      }
      const Req& r = ring[head];
      const std::uint32_t service_span = rec != nullptr ? rec->begin_request() : 0;
      const std::uint64_t before = commits_on(ctx.stats, ExecPath::kRh1Slow);
      const std::uint64_t s0 = now_ns();
      BankOpen::Result res = 0;
      run_tx(tm, ctx, rec, [&](auto& h) { res = BankOpen::apply(d, r.op, h); }, service_span);
      const std::uint64_t done = now_ns();
      if (rec != nullptr) rec->end_request(r.due, r.admitted, s0, done);
      me.lat.record(done - r.due);
      me.service.record(done - s0);
      if (!BankOpen::check(d, r.op, res)) ++me.failed;
      if (r.op.audit) {
        me.audit_service.record(done - s0);
        ++me.audits;
        if (commits_on(ctx.stats, ExecPath::kRh1Slow) > before) ++me.reduced;
      }
      head = (head + 1) % ring.size();
      --occupancy;
      ++me.completed;
    }
    me.stats = ctx.stats;
    watchdog().watch(tid, nullptr);
  });
  SliceOut out;
  out.seconds = gen_s;
  for (Worker& x : w) {
    out.attempted += x.offered;
    out.completed += x.completed;
    out.dropped += x.dropped;
    out.failed += x.failed + x.abandoned;
    out.audits += x.audits;
    out.audits_reduced += x.reduced;
    out.lat.merge(x.lat);
    out.service.merge(x.service);
    out.audit_service.merge(x.audit_service);
    out.stats.merge(x.stats);
  }
  // The completion rate follows the seeded schedule; what the workers
  // sustain is kThreads over the mean service time (audits included).
  out.ops_per_s = ratio(kThreads * 1e9, out.service.mean());
  // A refused request misses every latency limit.
  for (std::uint64_t i = 0; i < out.dropped; ++i) out.lat.record(LatencyHistogram::kMaxTrackable);
  return out;
}

/// One series' universe and data.
template <class W>
struct Bed {
  Universe u{rhtm::UniverseConfig{}};
  typename W::Data data;
};

/// Everything measured for one series across the run's rounds.
struct SeriesAcc {
  explicit SeriesAcc(Series s) : series(s) {
    for (unsigned t = 0; t < kThreads; ++t) recs.emplace_back(t);
  }
  Series series;
  std::vector<double> rate;    ///< untraced slices: SliceOut::ops_per_s
  LatencyHistogram latency;    ///< untraced slices, every sample
  LatencyHistogram audit_service;  ///< untraced slices, open loop
  std::vector<double> traced_rate;
  std::uint64_t attempted = 0, failed = 0;
  TxStats stats;
  std::uint64_t clock_advance = 0, publishes = 0;
  std::uint64_t audits = 0, audits_reduced = 0;
  std::vector<SpanRecorder> recs;  ///< one per worker, kept across traced slices
  bool tripped = false;

  void add(SliceOut& o, bool traced) {
    if (traced) {
      traced_rate.push_back(o.ops_per_s);
    } else {
      rate.push_back(o.ops_per_s);
      latency.merge(o.lat);
      audit_service.merge(o.audit_service);
    }
    attempted += o.attempted;
    failed += o.failed;
    stats.merge(o.stats);
    clock_advance += o.clock_advance;
    publishes += o.publishes;
    audits += o.audits;
    audits_reduced += o.audits_reduced;
    tripped = tripped || o.tripped;
  }

  [[nodiscard]] SpanTotals span_totals() const {
    SpanTotals t;
    for (const SpanRecorder& r : recs) t.merge(r.totals);
    return t;
  }
};

/// Runs one slice under the watchdog, recording the clock traffic of `u`
/// around it. An overrun fails every operation of the slice.
template <class Run>
SliceOut watched(const char* what, double planned_s, Universe& u, Run&& run) {
  watchdog().arm(what, planned_s);
  const rhtm::TmWord clock0 = u.clock().read();
  const std::uint64_t pubs0 = u.clock().global_publishes();
  SliceOut o = run();
  o.clock_advance = u.clock().read() - clock0;
  o.publishes = u.clock().global_publishes() - pubs0;
  o.tripped = watchdog().disarm();
  if (o.tripped) o.failed = std::max<std::uint64_t>(o.attempted, 1);
  return o;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(std::string name, double value, const char* unit) {
    metrics.push_back(Metric{std::move(name), value, unit});
  }
  void note(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    notes.emplace_back(buf);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_dir = ".bench_build/traces";
  bool selftest = false;
};

/// Builds every series' universe and data, appending the time it took.
template <class W>
std::vector<std::unique_ptr<Bed<W>>> set_up(std::vector<double>& setup_s) {
  std::vector<std::unique_ptr<Bed<W>>> beds(kSeries.size());
  const std::uint64_t t0 = now_ns();
  for (auto& bed : beds) bed = std::make_unique<Bed<W>>();
  setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  return beds;
}

/// The substrate's primitives, timed directly on one series' universe
/// after the run: execute() of the workload's own operation, an execute()
/// that aborts at once, and a nontx_publish of one operation's writes.
struct SubstrateCosts {
  double execute_ns = 0, abort_ns = 0, publish_ns = 0;
};

template <class W>
SubstrateCosts substrate_costs(Bed<W>& bed, std::uint64_t seed) {
  constexpr int kBatches = 9;
  constexpr int kCalls = 2000;
  rhtm::HtmSim& htm = bed.u.htm();
  rhtm::HtmSim::Tx tx(htm);
  struct Plain {
    rhtm::HtmSim::Tx& t;
    TmWord load(const rhtm::TmCell& c) { return t.load(c); }
    void store(rhtm::TmCell& c, TmWord v) { t.store(c, v); }
  };
  struct Entry {
    rhtm::TmCell* cell;
    TmWord value;
  };
  std::vector<rhtm::TmCell> scratch(W::kWritesPerOp);  // publish targets outside the data
  std::vector<Entry> entries;
  for (auto& c : scratch) entries.push_back(Entry{&c, 1});
  Xoshiro256 rng(mix(seed, 0x5b));
  std::vector<typename W::Op> ops(kCalls);
  for (auto& op : ops) op = W::draw(rng);
  std::vector<double> ex, ab, pu;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t t0 = now_ns();
    for (const auto& op : ops) {
      (void)htm.execute(tx, [&](rhtm::HtmSim::Tx& t) {
        Plain h{t};
        (void)W::apply(bed.data, op, h);
      });
    }
    ex.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      (void)htm.execute(tx, [](rhtm::HtmSim::Tx& t) { t.abort_explicit(); });
    }
    ab.push_back(static_cast<double>(now_ns() - t0) / kCalls);
    t0 = now_ns();
    for (int i = 0; i < kCalls; ++i) htm.nontx_publish(entries);
    pu.push_back(static_cast<double>(now_ns() - t0) / kCalls);
  }
  return SubstrateCosts{median(ex), median(ab), median(pu)};
}

/// Ends a series' run: the end-of-run check fails every operation of it.
template <class W>
void end_of_run(SeriesAcc& acc, const Bed<W>& bed, Report& rep) {
  if (!W::end_check(bed.data)) {
    rep.note("end-of-run check FAILED for %s: all %llu operations counted failed",
             name_of(acc.series), static_cast<unsigned long long>(acc.attempted));
    acc.failed = acc.attempted;
  }
}

/// The rh1 rate ladder of bank-open: rungs 2k, 4k, 8k, ... req/s, each
/// run for kRungS, passing at p99 <= 5 ms with no drop (a request queued
/// behind one audit waits about a millisecond). Climbs until a rung misses
/// and reports the achieved rate of the last rung that passed. When the
/// first rung already misses, it halves down to kFloorRung so the cliff
/// below 2k is still located; 0 only when every rung misses.
template <class Tm>
double climb_ladder(Tm& tm, Bed<BankOpen>& bed, SeriesAcc& acc, std::uint64_t seed, Report& rep) {
  double best = 0;
  bool down = false;
  for (double rate = kFirstRung; rate >= kFloorRung && rate <= kLastRung;
       rate = down ? rate / 2 : rate * 2) {
    char what[96];
    std::snprintf(what, sizeof what, "bank-open rh1 ladder rung %.0f req/s", rate);
    SliceOut o = watched(what, kRungS, bed.u, [&] {
      return open_slice(tm, bed.data, rate, kRungS, mix(seed, static_cast<std::uint64_t>(rate)),
                        nullptr, /*stop_on_drop=*/true);
    });
    const double p99 = static_cast<double>(o.lat.quantile(0.99));
    const bool pass = !o.tripped && o.dropped == 0 && p99 <= static_cast<double>(kP99LimitNs);
    const double achieved = static_cast<double>(o.completed) / o.seconds;
    rep.note("ladder rung %7.0f req/s: achieved %9.1f/s p99 %10.1f us dropped %llu audits %llu -> %s",
             rate, achieved, p99 / 1e3, static_cast<unsigned long long>(o.dropped),
             static_cast<unsigned long long>(o.audits), pass ? "pass" : "miss");
    // Ladder drops are the rung failing, not failed operations.
    acc.attempted += o.attempted;
    acc.failed += o.failed;
    acc.tripped = acc.tripped || o.tripped;
    if (pass) best = achieved;
    if (!pass && !down && rate == kFirstRung) {
      down = true;
      continue;
    }
    if (down == pass) break;  // climbing: first miss; descending: first pass
  }
  return best;
}

std::string what_of(const char* workload, Series s, int round, bool traced) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "%s %s round %d%s", workload, name_of(s), round,
                traced ? " (traced)" : "");
  return buf;
}

/// Runs workload W: set-up, rounds of slices over every series, checks.
template <class W>
void run_workload(const Args& a, Report& rep) {
  constexpr bool kOpen = std::is_same_v<W, BankOpen>;
  const bool traced = a.trace == 1;
  const std::uint64_t t_start = now_ns();
  std::vector<double> setup_s;
  auto beds = set_up<W>(setup_s);
  std::vector<SeriesAcc> acc;
  acc.reserve(kSeries.size());
  for (Series s : kSeries) acc.emplace_back(s);

  double max_rate = 0;
  if constexpr (kOpen) {
    if (traced) {
      with_protocol(Series::kRh1, beds[0]->u, [&](auto& tm) {
        max_rate = climb_ladder(tm, *beds[0], acc[0], a.seed, rep);
      });
    }
  }
  const double slice_s = kOpen ? kOpenSliceS : kClosedSliceS;
  const double per_round = slice_s * static_cast<double>(kSeries.size()) * (traced ? 2 : 1);
  const double left = a.seconds - static_cast<double>(now_ns() - t_start) / 1e9;
  const int rounds = std::max(2, static_cast<int>(left / per_round));
  for (int r = 0; r < rounds; ++r) {
    // One set-up takes milliseconds, so a single one samples the host's
    // speed at one instant. A throwaway set-up per round spreads the
    // samples over the run like the throughput's; setup_s is their median.
    (void)set_up<W>(setup_s);
    const std::uint64_t round_seed = mix(a.seed, static_cast<std::uint64_t>(r));
    for (std::size_t i = 0; i < kSeries.size(); ++i) {
      const std::size_t si = (static_cast<std::size_t>(r) + i) % kSeries.size();
      Bed<W>& bed = *beds[si];
      with_protocol(kSeries[si], bed.u, [&](auto& tm) {
        for (int pass = 0; pass < (traced ? 2 : 1); ++pass) {
          const bool traced_pass = traced && ((pass + r) % 2 == 1);
          SpanRecorder* recs = traced_pass ? acc[si].recs.data() : nullptr;
          const std::string what = what_of(W::kName, kSeries[si], r, traced_pass);
          SliceOut o = watched(what.c_str(), slice_s, bed.u, [&] {
            if constexpr (kOpen) {
              return open_slice(tm, bed.data, kRefRate, slice_s, round_seed, recs, false);
            } else {
              return closed_slice<W>(tm, bed.data, round_seed, recs);
            }
          });
          if (kOpen) o.failed += o.dropped;  // at the reference rate a drop is a failure
          acc[si].add(o, traced_pass);
        }
      });
    }
  }
  for (std::size_t i = 0; i < kSeries.size(); ++i) end_of_run(acc[i], *beds[i], rep);

  for (SeriesAcc& s : acc) {
    rep.attempted += s.attempted;
    rep.failed += s.failed;
    if (s.tripped) rep.correct = false;
  }
  const auto& rh1 = acc[0];
  // Median over rounds of SliceOut::ops_per_s: closed loop, committed
  // ops/s; open loop, service capacity at the reference load.
  const auto ops = [](const SeriesAcc& s) { return median(s.rate); };
  std::array<double, kSeries.size()> p50_us{}, p99_us{};
  for (std::size_t i = 0; i < acc.size(); ++i) {
    SeriesAcc& s = acc[i];
    p50_us[i] = static_cast<double>(s.latency.quantile(0.50)) / 1e3;
    p99_us[i] = static_cast<double>(s.latency.quantile(0.99)) / 1e3;
    const double aborts = static_cast<double>(s.stats.aborts);
    rep.note("%-8s %s %11.1f/s  p50 %8.3f us  p99 %9.3f us  (n=%llu over %zu rounds)  abort_ratio %.4f  failed %llu/%llu",
             name_of(s.series), kOpen ? "capacity" : "ops", ops(s), p50_us[i], p99_us[i],
             static_cast<unsigned long long>(s.latency.count()), s.rate.size(),
             ratio(aborts, aborts + static_cast<double>(s.stats.commits)),
             static_cast<unsigned long long>(s.failed),
             static_cast<unsigned long long>(s.attempted));
    if (kOpen && s.audits != 0) {
      rep.note("%-8s audits %llu, through the reduced commit %llu, mean service %.3f ms (untraced n=%llu)",
               name_of(s.series), static_cast<unsigned long long>(s.audits),
               static_cast<unsigned long long>(s.audits_reduced), s.audit_service.mean() / 1e6,
               static_cast<unsigned long long>(s.audit_service.count()));
    }
  }
  rep.note("failed_frac %.6g (%llu of %llu operations)",
           ratio(static_cast<double>(rep.failed), static_cast<double>(rep.attempted)),
           static_cast<unsigned long long>(rep.failed),
           static_cast<unsigned long long>(rep.attempted));

  if (!traced) {
    rep.add("rh1.ops_per_s", ops(rh1), "1/s");
    rep.add("rh1_slow.ops_per_s", ops(acc[1]), "1/s");
    rep.add("tl2.ops_per_s", ops(acc[2]), "1/s");
    rep.add("htm.ops_per_s", ops(acc[3]), "1/s");
    rep.add("setup_s", median(setup_s), "s");
    return;
  }

  // ---- per-layer metrics (traced pass) ----
  const double clock_ns = clock_read_ns();
  // Latency percentiles (from this pass's untraced slices) and the rate
  // ladder swing by more than any end-to-end bound between runs on a shared
  // host (README.md), so they are reported here, ungated.
  rep.add("rh1.p50_us", p50_us[0], "us");
  rep.add("rh1.p99_us", p99_us[0], "us");
  rep.add("tl2.p99_us", p99_us[2], "us");
  rep.add("htm.p99_us", p99_us[3], "us");
  // A closed loop runs at the highest rate the system sustains.
  rep.add("rh1.max_rate_per_s", kOpen ? max_rate : ops(rh1), "1/s");
  std::vector<std::pair<const char*, const SpanRecorder*>> kept;
  for (const SeriesAcc& s : acc) {
    const SpanTotals t = s.span_totals();
    const std::string p = name_of(s.series);
    const double o = static_cast<double>(t.ops);
    const auto per = [](std::uint64_t num, std::uint64_t den) {
      return ratio(static_cast<double>(num), static_cast<double>(den));
    };
    rep.add(p + ".barrier.read_ns", per(t.load_ns, t.loads) - clock_ns, "ns");
    rep.add(p + ".barrier.write_ns", per(t.store_ns, t.stores) - clock_ns, "ns");
    rep.add(p + ".protocol.overhead_ns", ratio(static_cast<double>(t.op_ns - t.attempt_ns), o), "ns");
    rep.add(p + ".workload.body_self_ns",
            per(t.final_self_ns, t.detailed_ops) -
                clock_ns * per(t.final_loads + t.final_stores, t.detailed_ops),
            "ns");
    std::uint64_t attempts = 0;
    for (std::uint64_t x : s.stats.attempts_by_path) attempts += x;
    rep.add(p + ".protocol.attempts_per_commit",
            ratio(static_cast<double>(attempts), static_cast<double>(s.stats.commits)), "ratio");
    for (const SpanRecorder& r : s.recs) kept.emplace_back(name_of(s.series), &r);
  }
  {
    const SpanTotals t = rh1.span_totals();
    const double detailed = static_cast<double>(t.detailed_ops);
    rep.add("barrier.reads_per_op", ratio(static_cast<double>(t.final_loads), detailed), "count");
    rep.add("barrier.writes_per_op", ratio(static_cast<double>(t.final_stores), detailed), "count");
  }
  const auto share = [&](const SeriesAcc& s, std::uint64_t n) {
    return ratio(static_cast<double>(n), static_cast<double>(s.stats.commits));
  };
  const TxStats& r1 = rh1.stats;
  const std::uint64_t rh2 = commits_on(r1, ExecPath::kRh2Slow) + commits_on(r1, ExecPath::kRh2SlowSlow);
  rep.add("rh1.protocol.commit_share.rh1_fast", share(rh1, commits_on(r1, ExecPath::kRh1Fast)), "ratio");
  rep.add("rh1.protocol.commit_share.rh1_slow", share(rh1, commits_on(r1, ExecPath::kRh1Slow)), "ratio");
  rep.add("rh1.protocol.commit_share.rh2", share(rh1, rh2), "ratio");
  rep.add("rh1_slow.protocol.commit_share.rh1_slow",
          share(acc[1], commits_on(acc[1].stats, ExecPath::kRh1Slow)), "ratio");
  {
    // HtmOnly counts lock-fallback commits on the htm path too: every
    // hardware attempt either commits or aborts, the rest took the lock.
    const TxStats& h = acc[3].stats;
    const std::uint64_t hw_attempts = h.attempts_by_path[static_cast<std::size_t>(ExecPath::kHtm)];
    const std::uint64_t hw_commits = hw_attempts - std::min(hw_attempts, h.aborts);
    rep.add("htm.protocol.commit_share.fallback_lock",
            share(acc[3], h.commits - std::min(h.commits, hw_commits)), "ratio");
  }
  const auto per_commit = [&](const SeriesAcc& s, AbortCause c) {
    return share(s, aborts_of(s.stats, c));
  };
  const std::array<std::pair<std::size_t, std::vector<AbortCause>>, 4> causes = {{
      {0, {AbortCause::kHtmConflict, AbortCause::kHtmCapacity, AbortCause::kHtmExplicit,
           AbortCause::kStmValidation, AbortCause::kStmLocked}},
      {1, {AbortCause::kHtmCapacity, AbortCause::kStmValidation, AbortCause::kStmLocked}},
      {2, {AbortCause::kStmValidation, AbortCause::kStmLocked}},
      {3, {AbortCause::kHtmConflict, AbortCause::kHtmCapacity, AbortCause::kHtmExplicit}},
  }};
  for (const auto& [i, list] : causes) {
    for (AbortCause c : list) {
      rep.add(std::string(name_of(acc[i].series)) + ".protocol.aborts_per_commit." + rhtm::to_string(c),
              per_commit(acc[i], c), "ratio");
    }
  }
  for (std::size_t i : {0, 1, 3}) {
    // The bench's wasted_speculation_pct: hardware aborts per hardware
    // abort + commit.
    const TxStats& s = acc[i].stats;
    const double hw = static_cast<double>(
        aborts_of(s, AbortCause::kHtmConflict) + aborts_of(s, AbortCause::kHtmCapacity) +
        aborts_of(s, AbortCause::kHtmExplicit) + aborts_of(s, AbortCause::kInjected));
    rep.add(std::string(name_of(acc[i].series)) + ".protocol.wasted_speculation_pct",
            100.0 * ratio(hw, hw + static_cast<double>(s.commits)), "%");
  }
  for (std::size_t i : {0, 1, 2}) {
    const std::string p = name_of(acc[i].series);
    const double c = static_cast<double>(acc[i].stats.commits);
    rep.add(p + ".clock.advance_per_commit", ratio(static_cast<double>(acc[i].clock_advance), c), "ratio");
    rep.add(p + ".clock.global_publishes_per_commit", ratio(static_cast<double>(acc[i].publishes), c), "ratio");
  }
  const SubstrateCosts sc = substrate_costs(*beds[3], a.seed);
  rep.add("substrate.execute_ns", sc.execute_ns, "ns");
  rep.add("substrate.abort_ns", sc.abort_ns, "ns");
  rep.add("substrate.publish_ns", sc.publish_ns, "ns");
  {
    // Closed loops have no admission queue: their driver metrics are 0.
    SpanTotals t = rh1.span_totals();
    rep.add("driver.admission_wait_p50_us", static_cast<double>(t.admission.quantile(0.50)) / 1e3, "us");
    rep.add("driver.admission_wait_p99_us", static_cast<double>(t.admission.quantile(0.99)) / 1e3, "us");
    rep.add("driver.service_p99_us", static_cast<double>(t.service.quantile(0.99)) / 1e3, "us");
    rep.add("driver.generator_lag_us",
            ratio(static_cast<double>(t.lag_ns), static_cast<double>(t.requests)) / 1e3, "us");
  }
  {
    const double untraced = ops(rh1);
    const double with_trace = median(rh1.traced_rate);
    rep.add("trace.overhead_pct", 100.0 * ratio(untraced - with_trace, untraced), "%");
  }
  rep.add("claim.fast_over_htm", ratio(ops(acc[0]), ops(acc[3])), "ratio");
  rep.add("claim.slow_over_tl2", ratio(ops(acc[1]), ops(acc[2])), "ratio");
  if (kOpen) {
    rep.add("claim.audit_reduced_commit_share",
            ratio(static_cast<double>(rh1.audits_reduced), static_cast<double>(rh1.audits)), "ratio");
  } else {
    // Without audits: of the rh1 transactions that left the fast path, the
    // share the reduced commit still took.
    const double off_fast = static_cast<double>(commits_on(r1, ExecPath::kRh1Slow) + rh2);
    rep.add("claim.audit_reduced_commit_share",
            ratio(static_cast<double>(commits_on(r1, ExecPath::kRh1Slow)), off_fast), "ratio");
  }

  std::error_code ec;
  std::filesystem::create_directories(a.trace_dir, ec);
  const std::string path = a.trace_dir + "/spans-" + W::kName + "-seed" + std::to_string(a.seed) + ".csv";
  if (!write_spans(path.c_str(), kept)) {
    rep.note("could not write spans to %s", path.c_str());
    rep.correct = false;
  } else {
    rep.note("spans written to %s", path.c_str());
  }
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload tree-read|batch-write|bank-open --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n"
               "       perfbench --selftest\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') usage("--seed takes a whole number");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (k == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) usage("--trace takes 0 or 1");
      a.trace = v[0] - '0';
    } else if (k == "--trace-dir") {
      a.trace_dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  if (a.selftest) return a;
  if (a.workload.empty() || a.seconds <= 0 || a.trace < 0) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

void print_json(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              rep.correct ? "true" : "false", static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
    const Metric& m = rep.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), v, m.unit);
  }
  std::printf("}}\n");
}

int main_impl(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const int missed = checks::selftest();
  if (a.selftest) {
    std::printf("selftest: %s\n", missed == 0 ? "every check caught its corrupted result" : "FAILED");
    // The watchdog must stop a run that overruns its plan.
    watchdog().arm("selftest run planned for 0 s", 0.0);
    const std::uint64_t give_up = now_ns() + static_cast<std::uint64_t>(10e9);
    while (!watchdog().stop_requested() && now_ns() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const bool tripped = watchdog().disarm();
    std::printf("selftest: watchdog %s\n", tripped ? "stopped the overrunning run" : "FAILED to trip");
    return missed == 0 && tripped ? 0 : 1;
  }
  Report rep;
  if (a.workload == TreeRead::kName) {
    run_workload<TreeRead>(a, rep);
  } else if (a.workload == BatchWrite::kName) {
    run_workload<BatchWrite>(a, rep);
  } else if (a.workload == BankOpen::kName) {
    run_workload<BankOpen>(a, rep);
  } else {
    usage(("unknown workload " + a.workload).c_str());
  }
  if (missed != 0) rep.correct = false;
  if (rep.failed != 0) rep.correct = false;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d substrate=sim threads=%u compiler=%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds, a.trace,
              kThreads, PERFBENCH_COMPILER);
  for (const std::string& n : rep.notes) std::printf("  %s\n", n.c_str());
  for (const Metric& m : rep.metrics) {
    std::printf("  %-48s %16.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  print_json(rep);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
