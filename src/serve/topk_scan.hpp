// The one top-k scan executor behind every retrieval path.
//
// Flat logits, the sharded scatter/gather, the IVF probe and the cascade
// rerank are all the same computation: score a set of prototype rows for a
// batch of queries, apply the GZSL seen-penalty, keep the best k per query
// under one order. They differ only in *which rows* each query reads, so a
// front-end describes that as a ScanPlan — a list of row ranges over a
// plane of positions — and this executor runs it:
//
//   flat      1 range [0, C), identity positions
//   sharded   S ranges (the shards), identity positions, shared by every
//             query: each range is swept once for the whole batch
//             (hdc::hamming_many_packed_multi / one GEMM per range), and
//             the ranges fan out across util::parallel_for workers
//   IVF       one query's ranges (its probed inverted lists) over positions
//             in list order, read through the list-order row→label map
//   rerank    one query's range over its candidate store rows
//
// Shared plans run through scan_topk, which fans the ranges out across
// util::parallel_for workers. Per-query plans run through scan_query on the
// calling thread, so the IVF front-end keeps probe, scan and rerank of a
// query in one task and the batch fans out once.
//
// Two scorers: a float scorer (cosine against the store's normalized rows —
// one GEMM per range when positions are store rows, a double-accumulated
// row dot, the naive GEMM kernel's exact summation, when they are mapped)
// and a packed-Hamming scorer. The Hamming scorer sweeps a `wp`-word prefix
// of every row first; a row whose prefix count already exceeds the k-heap
// threshold cannot enter the top-k (the remaining `ws` suffix words only
// add), so its suffix is never read. The exact path is the case ws == 0.
//
// The penalty is applied once per scored row, in the form SeenPenalty
// documents: s·cos − p on the float path; on the binary path h + Δ when the
// handicap is integer-exact (selection then stays on (h << 32) | label u64
// keys, with cross-range cutoff hints and the prefix early exit), else the
// float subtract form scale·(1 − 2h/D) − p over full-width counts.
//
// Results are ordered by detail::better (score desc, label asc). Every
// score is the expression the flat logits materialize for that row, so a
// plan's result equals the flat argsort of the rows it covers — the basis
// of the sharded-vs-flat and full-probe-vs-exact bit-identity suites.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/prototype_store.hpp"
#include "tensor/tensor.hpp"

namespace hdczsc::obs {
class Histogram;
}

namespace hdczsc::serve {

/// One retrieval hit: a prototype-store row and its logit under the
/// requested scoring path (same value the flat score_* path produces).
struct TopK {
  std::size_t label = 0;
  float score = 0.0f;
};

namespace detail {

/// The one retrieval order every path shares: score descending, label
/// ascending on exact score ties.
inline bool better(const TopK& a, const TopK& b) {
  return a.score > b.score || (a.score == b.score && a.label < b.label);
}

/// Throws std::invalid_argument naming `who` unless `embeddings` is [B, d]
/// for the store's d.
void check_embeddings(const PrototypeStore& store, const tensor::Tensor& embeddings,
                      const char* who);

/// Positions [begin, end) of a scan plane.
struct RowRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Which rows each query scans, and where their codes live.
struct ScanPlan {
  /// Position → store row; nullptr means position i is store row i.
  const std::uint32_t* labels = nullptr;
  /// Packed codes by position: `wp` prefix words at prefix + i·wp, then
  /// `ws` suffix words at suffix + i·ws. Binary scans only; ws == 0 is the
  /// exact path (no early exit).
  const std::uint64_t* prefix = nullptr;
  std::size_t wp = 0;
  const std::uint64_t* suffix = nullptr;
  std::size_t ws = 0;
  std::vector<RowRange> ranges;
  /// Records the wall time of each scan_topk range task (profiling-gated),
  /// or null.
  obs::Histogram* task_hist = nullptr;
};

/// The query batch: unit rows [n, d] for a float scan, or packed codes
/// [n, words_per_row] for a binary scan (exactly one is set).
struct ScanQueries {
  std::size_t n = 0;
  const float* unit = nullptr;
  const std::uint64_t* codes = nullptr;
};

/// Per-range telemetry, added to by the executor.
struct ScanTally {
  std::uint64_t queries = 0;  ///< queries that scanned the range
  std::uint64_t swept = 0;    ///< (query, row) pairs whose prefix was scored
  std::uint64_t pruned = 0;   ///< of those, rows the Hamming threshold
                              ///< rejected before they were offered
};

/// Top-k of every query over every plan range — the shared plans (flat,
/// sharded): each range is one util::parallel_for task that sweeps it once
/// for the whole batch. result[b] holds up to k hits ordered by better().
/// `tally`, when non-null, has one entry per plan range. k == 0 yields
/// empty results. Shared plans must have ws == 0.
std::vector<std::vector<TopK>> scan_topk(const PrototypeStore& store, const ScanQueries& q,
                                         const ScanPlan& plan, std::size_t k,
                                         const SeenPenalty* penalty, ScanTally* tally = nullptr);

/// Top-k of query b alone over the plan's ranges — the per-query plans
/// (IVF probed lists, cascade candidates), run on the calling thread so a
/// front-end can pipeline probe, scan and rerank in one task per query.
/// Same order, tally and k contract as scan_topk.
std::vector<TopK> scan_query(const PrototypeStore& store, const ScanQueries& q, std::size_t b,
                             const ScanPlan& plan, std::size_t k, const SeenPenalty* penalty,
                             ScanTally* tally = nullptr);

/// Full logits [n, C] of every store row (the flat plan), with the same
/// scorer and penalty step as scan_topk.
tensor::Tensor scan_logits(const PrototypeStore& store, const ScanQueries& q,
                           const SeenPenalty* penalty);

/// Top min(k, n) of one materialized logits row [n], ordered by better().
std::vector<TopK> topk_row(const float* logits, std::size_t n, std::size_t k);

}  // namespace detail
}  // namespace hdczsc::serve
