#pragma once

// The three benchmark workloads. Each defines its data, one operation drawn
// from a seeded stream, the operation's transaction body (`apply`, generic
// over the protocol handle) and its output check. README.md gives the
// reasons for each shape.

#include <cstdint>

#include "checks.h"
#include "core/cell.h"
#include "core/rng.h"
#include "workloads/account_store.h"
#include "workloads/constant_rbtree.h"

namespace perfbench {

using rhtm::TmWord;
using rhtm::Xoshiro256;

/// Paper Fig. 1: a 100K-node constant red-black tree, 20% updates.
struct TreeRead {
  static constexpr const char* kName = "tree-read";
  static constexpr std::uint64_t kNodes = 100000;
  static constexpr unsigned kUpdatePct = 20;
  static constexpr std::size_t kWritesPerOp = 1;  ///< for the substrate publish timing

  struct Data {
    rhtm::ConstantRbTree tree{kNodes};
  };
  struct Op {
    std::uint64_t key;
    bool update;
  };
  struct Result {
    bool hit;       ///< key present
    TmWord value;   ///< lookup hit: the node's value
  };

  static Op draw(Xoshiro256& rng) {
    Op op{};
    op.key = rng.below(2 * kNodes);
    op.update = rng.below(100) < kUpdatePct;
    return op;
  }

  template <class H>
  static Result apply(const Data& d, const Op& op, H& h) {
    if (op.update) {
      thread_local Xoshiro256 unused;  // update()'s rng parameter is not drawn from
      return Result{d.tree.update(h, op.key, checks::tree_tag(op.key), unused), 0};
    }
    Result r{};
    r.hit = d.tree.lookup(h, op.key, &r.value);
    return r;
  }

  static bool check(const Data&, const Op& op, const Result& r) {
    if (!checks::tree_hit_ok(op.key, r.hit)) return false;
    return op.update || !r.hit || checks::tree_value_ok(op.key, r.value);
  }

  static bool end_check(const Data& d) {
    rhtm::UnsafeHandle h;
    return checks::tree_shape_ok(kNodes, [&](std::uint64_t key, TmWord* value) {
      return d.tree.lookup(h, key, value);
    });
  }
};

/// Write-heavy: one transaction = one batch_transfer of 16 random transfers
/// (32 reads, 32 writes) over 131072 accounts.
struct BatchWrite {
  static constexpr const char* kName = "batch-write";
  static constexpr std::size_t kAccounts = 131072;
  static constexpr std::size_t kItems = 16;
  static constexpr TmWord kInitial = TmWord{1} << 20;
  static constexpr TmWord kMaxAmount = 64;
  static constexpr std::size_t kWritesPerOp = 2 * kItems;

  struct Data {
    rhtm::AccountStore store{kAccounts, kInitial};
  };
  struct Op {
    rhtm::AccountStore::Transfer items[kItems];
  };
  using Result = std::size_t;  ///< items applied; every one applies (checks.h)

  static Op draw(Xoshiro256& rng) {
    Op op{};
    for (auto& t : op.items) {
      t.from = rng.below(kAccounts);
      t.to = rng.below(kAccounts);
      t.amount = 1 + rng.below(kMaxAmount);
    }
    return op;
  }

  template <class H>
  static Result apply(const Data& d, const Op& op, H& h) {
    return d.store.batch_transfer(h, op.items, kItems);
  }

  /// No per-operation output to check: end_check's conservation covers
  /// every write.
  static bool check(const Data&, const Op&, Result) { return true; }

  static bool end_check(const Data& d) {
    return checks::conservation_ok(d.store.unsafe_total(), d.store.total_minted());
  }
};

/// Open-loop service: single transfers, plus 5 in 100 audit-and-record
/// requests (sum every account, write the sum to a record cell).
struct BankOpen {
  static constexpr const char* kName = "bank-open";
  static constexpr std::size_t kAccounts = 16384;
  static constexpr TmWord kInitial = TmWord{1} << 20;
  static constexpr TmWord kMaxAmount = 64;
  static constexpr std::uint64_t kAuditPer10k = 500;  ///< hundreds of audits per series and run
  static constexpr std::size_t kWritesPerOp = 2;

  struct Data {
    rhtm::AccountStore store{kAccounts, kInitial};
    rhtm::TVar<TmWord> audit_record;
  };
  struct Op {
    bool audit;
    std::uint64_t from;
    std::uint64_t to;
    TmWord amount;
  };
  using Result = TmWord;  ///< audit: the sum; transfer: 1 when applied

  static Op draw(Xoshiro256& rng) {
    Op op{};
    op.audit = rng.below(10000) < kAuditPer10k;
    op.from = rng.below(kAccounts);
    op.to = rng.below(kAccounts);
    op.amount = 1 + rng.below(kMaxAmount);
    return op;
  }

  template <class H>
  static Result apply(const Data& d, const Op& op, H& h) {
    if (op.audit) {
      const TmWord sum = d.store.audit(h);
      d.audit_record.write(h, sum);
      return sum;
    }
    return d.store.transfer(h, op.from, op.to, op.amount) ? 1 : 0;
  }

  /// Audits are checked here; transfers by end_check's conservation.
  static bool check(const Data& d, const Op& op, Result r) {
    return !op.audit || checks::audit_ok(r, d.store.total_minted());
  }

  static bool end_check(const Data& d) {
    return checks::conservation_ok(d.store.unsafe_total(), d.store.total_minted());
  }
};

}  // namespace perfbench
