#pragma once

// In-memory span recording for the traced pass. Spans are taken from the
// benchmark's own code around its calls into each library layer:
//
//   request ─┬─ admission                    (open loop only)
//            └─ service ── op ── attempt ─┬─ load
//                                         └─ store
//
// `op` is one atomically() call, `attempt` one invocation of the body as
// seen from outside the protocol, `load`/`store` one handle access. Each
// span carries its operation id, its own id and its parent's id. Access
// spans cost two clock reads per load, which would multiply the cost of a
// short read-mostly transaction, so they are taken on one operation in
// kDetailEvery; the other spans on every operation. Every span feeds the
// per-thread aggregates that the per-layer metrics are computed from; the
// first kKeepSpans of each recorder are also kept verbatim and written out
// as CSV when the benchmark ends.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cell.h"
#include "core/latency_histogram.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since a process-wide epoch; every span timestamp uses it.
inline std::uint64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch).count());
}

enum class SpanName : std::uint8_t { kRequest, kAdmission, kService, kOp, kAttempt, kLoad, kStore };

inline const char* to_string(SpanName n) {
  switch (n) {
    case SpanName::kRequest: return "request";
    case SpanName::kAdmission: return "admission";
    case SpanName::kService: return "service";
    case SpanName::kOp: return "op";
    case SpanName::kAttempt: return "attempt";
    case SpanName::kLoad: return "load";
    case SpanName::kStore: return "store";
  }
  return "?";
}

struct Span {
  std::uint64_t op;
  std::uint32_t id;
  std::uint32_t parent;  ///< 0 = root
  SpanName name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

/// The cost of one now_ns() call. An access span holds about one, which
/// the per-layer metrics subtract.
inline double clock_read_ns() {
  std::vector<double> per_call;
  for (int batch = 0; batch < 31; ++batch) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 1000; ++i) (void)now_ns();
    per_call.push_back(static_cast<double>(now_ns() - t0) / 1001.0);
  }
  std::nth_element(per_call.begin(), per_call.begin() + 15, per_call.end());
  return per_call[15];
}

/// Sums over every traced operation of one recorder. Self times are span
/// durations minus the durations of their child spans.
struct SpanTotals {
  std::uint64_t ops = 0;
  std::uint64_t detailed_ops = 0;     ///< operations with access spans
  std::uint64_t op_ns = 0;            ///< whole atomically() calls
  std::uint64_t attempt_ns = 0;       ///< every body invocation
  // Detailed operations only:
  std::uint64_t final_self_ns = 0;    ///< committing invocation minus its accesses
  std::uint64_t final_loads = 0;      ///< accesses of the committing invocation
  std::uint64_t final_stores = 0;
  std::uint64_t loads = 0;            ///< every access, wasted attempts included
  std::uint64_t load_ns = 0;
  std::uint64_t stores = 0;
  std::uint64_t store_ns = 0;
  // Open loop only: request phases.
  std::uint64_t requests = 0;
  rhtm::LatencyHistogram admission;  ///< ns, arrival -> service start
  rhtm::LatencyHistogram service;    ///< ns, service start -> commit
  std::uint64_t lag_ns = 0;          ///< sum of (admitted at - due at)

  void merge(const SpanTotals& o) {
    ops += o.ops;
    detailed_ops += o.detailed_ops;
    op_ns += o.op_ns;
    attempt_ns += o.attempt_ns;
    final_self_ns += o.final_self_ns;
    final_loads += o.final_loads;
    final_stores += o.final_stores;
    loads += o.loads;
    load_ns += o.load_ns;
    stores += o.stores;
    store_ns += o.store_ns;
    requests += o.requests;
    admission.merge(o.admission);
    service.merge(o.service);
    lag_ns += o.lag_ns;
  }
};

/// One worker thread's recorder. Not shared between threads.
class SpanRecorder {
 public:
  static constexpr std::size_t kKeepSpans = 16384;
  static constexpr std::uint64_t kDetailEvery = 16;

  explicit SpanRecorder(std::uint64_t thread_tag) : tag_(thread_tag << 48) {
    kept_.reserve(kKeepSpans);
  }

  SpanTotals totals;
  [[nodiscard]] const std::vector<Span>& kept() const { return kept_; }
  /// Whether the current operation records access spans.
  [[nodiscard]] bool detailed() const { return detailed_; }

  /// Opens an operation (and, when `parent` is non-zero, parents it there).
  void begin_op(std::uint32_t parent = 0) {
    op_ = tag_ | ++op_seq_;
    op_id_ = next_id();
    op_parent_ = parent;
    op_start_ = now_ns();
    have_attempt_ = false;
    detailed_ = op_seq_ % kDetailEvery == 0;
  }

  void end_op() {
    const std::uint64_t end = now_ns();
    if (have_attempt_ && detailed_) {  // the last body invocation committed
      ++totals.detailed_ops;
      totals.final_self_ns += last_.self_ns;
      totals.final_loads += last_.loads;
      totals.final_stores += last_.stores;
    }
    ++totals.ops;
    totals.op_ns += end - op_start_;
    keep({op_, op_id_, op_parent_, SpanName::kOp, op_start_, end});
  }

  void begin_attempt() {
    cur_ = Attempt{};
    cur_.id = next_id();
    cur_.start = now_ns();
  }

  void end_attempt() {
    const std::uint64_t end = now_ns();
    cur_.dur_ns = end - cur_.start;
    cur_.self_ns = cur_.dur_ns - cur_.child_ns;
    totals.attempt_ns += cur_.dur_ns;
    keep({op_, cur_.id, op_id_, SpanName::kAttempt, cur_.start, end});
    last_ = cur_;
    have_attempt_ = true;
  }

  void access(SpanName name, std::uint64_t start, std::uint64_t end) {
    const std::uint64_t d = end - start;
    cur_.child_ns += d;
    if (name == SpanName::kLoad) {
      ++cur_.loads;
      ++totals.loads;
      totals.load_ns += d;
    } else {
      ++cur_.stores;
      ++totals.stores;
      totals.store_ns += d;
    }
    keep({op_, next_id(), cur_.id, name, start, end});
  }

  /// Open-loop request phases around one served request. Returns the
  /// service span's id, which parents the operation span.
  std::uint32_t begin_request() {
    req_id_ = next_id();
    svc_id_ = next_id();
    return svc_id_;
  }
  void end_request(std::uint64_t due, std::uint64_t admitted, std::uint64_t service_start,
                   std::uint64_t done) {
    ++totals.requests;
    totals.lag_ns += admitted - due;
    totals.admission.record(service_start - due);
    totals.service.record(done - service_start);
    keep({op_, req_id_, 0, SpanName::kRequest, due, done});
    keep({op_, next_id(), req_id_, SpanName::kAdmission, due, service_start});
    keep({op_, svc_id_, req_id_, SpanName::kService, service_start, done});
  }

 private:
  struct Attempt {
    std::uint32_t id = 0;
    std::uint64_t start = 0;
    std::uint64_t dur_ns = 0;
    std::uint64_t child_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
  };

  std::uint32_t next_id() { return ++id_seq_; }
  void keep(const Span& s) {
    if (kept_.size() < kKeepSpans) kept_.push_back(s);
  }

  std::uint64_t tag_;
  std::uint64_t op_seq_ = 0;
  std::uint32_t id_seq_ = 0;
  std::uint64_t op_ = 0;
  std::uint32_t op_id_ = 0;
  std::uint32_t op_parent_ = 0;
  std::uint64_t op_start_ = 0;
  std::uint32_t req_id_ = 0;
  std::uint32_t svc_id_ = 0;
  bool have_attempt_ = false;
  bool detailed_ = false;
  Attempt cur_;
  Attempt last_;
  std::vector<Span> kept_;
};

/// Times every access of the protocol handle it wraps.
template <class Inner>
struct TracedHandle {
  Inner& inner;
  SpanRecorder& rec;

  rhtm::TmWord load(const rhtm::TmCell& c) {
    if (!rec.detailed()) return inner.load(c);
    const std::uint64_t t0 = now_ns();
    const rhtm::TmWord v = inner.load(c);  // an abort unwinds past the span: not recorded
    rec.access(SpanName::kLoad, t0, now_ns());
    return v;
  }
  void store(rhtm::TmCell& c, rhtm::TmWord v) {
    if (!rec.detailed()) {
      inner.store(c, v);
      return;
    }
    const std::uint64_t t0 = now_ns();
    inner.store(c, v);
    rec.access(SpanName::kStore, t0, now_ns());
  }
};

/// Closes the attempt span however the body leaves: by return, or by the
/// abort exception a simulated-HTM or software barrier throws.
class AttemptScope {
 public:
  explicit AttemptScope(SpanRecorder& rec) : rec_(rec) { rec_.begin_attempt(); }
  ~AttemptScope() { rec_.end_attempt(); }
  AttemptScope(const AttemptScope&) = delete;
  AttemptScope& operator=(const AttemptScope&) = delete;

 private:
  SpanRecorder& rec_;
};

/// One transaction through `tm`, traced when `rec` is non-null. `body` is a
/// generic callable taking the protocol handle.
template <class Tm, class Body>
void run_tx(Tm& tm, typename Tm::ThreadCtx& ctx, SpanRecorder* rec, Body&& body,
            std::uint32_t parent = 0) {
  if (rec == nullptr) {
    tm.atomically(ctx, body);
    return;
  }
  rec->begin_op(parent);
  tm.atomically(ctx, [&](auto& h) {
    AttemptScope scope(*rec);
    TracedHandle<std::remove_reference_t<decltype(h)>> th{h, *rec};
    body(th);
  });
  rec->end_op();
}

/// Writes kept spans as CSV: series,thread_op,id,parent,name,start_ns,end_ns.
inline bool write_spans(const char* path, const std::vector<std::pair<const char*, const SpanRecorder*>>& recs) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return false;
  std::fprintf(f, "series,op,id,parent,name,start_ns,end_ns\n");
  for (const auto& [series, rec] : recs) {
    for (const Span& s : rec->kept()) {
      std::fprintf(f, "%s,%llu,%u,%u,%s,%llu,%llu\n", series,
                   static_cast<unsigned long long>(s.op), s.id, s.parent, to_string(s.name),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
