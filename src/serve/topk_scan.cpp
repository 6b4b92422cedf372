#include "serve/topk_scan.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "hdc/hypervector.hpp"
#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"

namespace hdczsc::serve::detail {

namespace {

/// Rows per block-skip test: once a cutoff is known, a whole block is
/// skipped with one vectorizable compare-reduce over its scores. 16 keeps
/// the reduce inside two SSE registers.
constexpr std::size_t kSelectBlock = 16;

/// k-bounded selection over caller storage: a binary heap with the worst
/// kept entry (under `Before`) on top, so a scanned row that cannot enter
/// costs one compare.
template <typename T, typename Before>
class BoundedHeap {
 public:
  BoundedHeap(T* slot, std::size_t k) : slot_(slot), k_(k) {}

  void offer(const T& c) {
    if (n_ < k_) {
      slot_[n_++] = c;
      std::push_heap(slot_, slot_ + n_, Before{});
    } else if (Before{}(c, slot_[0])) {
      std::pop_heap(slot_, slot_ + n_, Before{});
      slot_[n_ - 1] = c;
      std::push_heap(slot_, slot_ + n_, Before{});
    }
  }
  bool full() const { return n_ == k_; }
  const T& worst() const { return slot_[0]; }
  std::size_t size() const { return n_; }

 private:
  T* slot_;
  std::size_t k_;
  std::size_t n_ = 0;
};

using FloatHeap =
    BoundedHeap<TopK, decltype([](const TopK& a, const TopK& b) { return better(a, b); })>;

/// Scores strictly below it cannot enter (equal ones can, via the label).
float cutoff(const FloatHeap& heap) {
  return heap.full() ? heap.worst().score : -std::numeric_limits<float>::infinity();
}

/// Integer-key selection for the binary path: (h << 32) | label keys, so
/// (score desc, label asc) is one u64 compare (h asc, label asc). The two
/// orders coincide because the store guarantees scale > 0 and D < 2²⁴
/// (h + Δ included), where distinct counts never round to one logit.
struct KeyHeap {
  BoundedHeap<std::uint64_t, std::less<>> heap;
  /// The key to beat: a cutoff hint from other ranges (a key with at least
  /// k better keys there) until the local k-th best is tighter. Keys are
  /// unique, so dropping keys at or above it never loses a tie.
  std::uint64_t bound;

  /// Counts strictly above it cannot beat the bound (equal ones can, via
  /// the label bits). Suffix words only add to a count, so the same test
  /// on a prefix count is an admissible early exit.
  std::uint32_t threshold() const { return static_cast<std::uint32_t>(bound >> 32); }
  void offer(std::uint32_t h, std::size_t label) {
    const std::uint64_t key = (std::uint64_t{h} << 32) | static_cast<std::uint64_t>(label);
    if (key >= bound) return;
    heap.offer(key);
    if (heap.full()) bound = heap.worst();  // every kept key is below the old bound
  }
};

/// Call row(j) for j in [0, n), except across each whole block of
/// kSelectBlock rows for which admits(j, bound()) holds nowhere — one
/// vectorizable compare-reduce per block, the bound read once per block.
/// Returns the rows skipped.
template <typename Bound, typename Admits, typename Row>
std::uint64_t block_skip(std::size_t n, Bound&& bound, Admits&& admits, Row&& row) {
  std::uint64_t skipped = 0;
  std::size_t j = 0;
  for (; j + kSelectBlock <= n; j += kSelectBlock) {
    const auto b = bound();
    std::uint32_t any = 0;
    for (std::size_t t = j; t < j + kSelectBlock; ++t) any |= admits(t, b) ? 1u : 0u;
    if (!any) skipped += kSelectBlock;
    for (std::size_t t = j; any && t < j + kSelectBlock; ++t) row(t);
  }
  for (; j < n; ++j) row(j);
  return skipped;
}

/// Offer (label(j), score(j)) for j in [0, n), skipping blocks that cannot
/// beat the heap's cutoff.
template <typename Label, typename Score>
void select_float(FloatHeap& kept, std::size_t n, Label&& label, Score&& score) {
  FloatHeap heap = kept;  // a local heap keeps the hot loop in registers
  block_skip(
      n, [&] { return cutoff(heap); }, [&](std::size_t j, float cut) { return score(j) >= cut; },
      [&](std::size_t j) { heap.offer(TopK{label(j), score(j)}); });
  kept = heap;
}

/// One scan: the store, the queries, the plan and the resolved penalty.
class Scan {
 public:
  Scan(const PrototypeStore& store, const ScanQueries& q, const ScanPlan& plan,
       const SeenPenalty* penalty)
      : store_(store), q_(q), plan_(plan) {
    if (penalty && penalty->active()) {
      if (q.codes && penalty->integer_exact)
        offset_ = penalty->row_offset.data();
      else
        subtract_ = penalty->row_penalty.data();
    }
  }

  /// Integer-key selection: binary queries whose penalty, if any, is an
  /// exact Hamming offset.
  bool keys() const { return q_.codes && !subtract_; }

  std::size_t label(std::size_t pos) const { return plan_.labels ? plan_.labels[pos] : pos; }

  /// Logits of queries [q0, q0 + nq) against range r into out[i·len + j]:
  /// s·cos, or the binary logit of the full-width count h + Δ; then − p.
  void logits(std::size_t q0, std::size_t nq, RowRange r, float* out) const {
    const std::size_t d = store_.dim(), len = r.end - r.begin;
    if (q_.codes) {
      const auto h = std::make_unique_for_overwrite<std::uint32_t[]>(nq * len);
      hamming_counts(q0, nq, r, /*full=*/true, h.get());
      for (std::size_t i = 0; i < nq * len; ++i) out[i] = store_.hamming_logit(h[i]);
    } else {
      const float* E = q_.unit + q0 * d;
      const float* P = store_.float_rows();
      std::fill(out, out + nq * len, 0.0f);
      if (!plan_.labels)
        tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, nq, len, d, E, d,
                                P + r.begin * d, d, out, len);
      else  // mapped rows: the naive GEMM kernel's double-accumulated dot
        for (std::size_t i = 0; i < nq; ++i)
          for (std::size_t j = 0; j < len; ++j) {
            const float* p = P + label(r.begin + j) * d;
            double acc = 0.0;
            for (std::size_t t = 0; t < d; ++t) acc += E[i * d + t] * p[t];
            out[i * len + j] += static_cast<float>(acc);
          }
      for (std::size_t i = 0; i < nq * len; ++i) out[i] = store_.scale() * out[i];
    }
    if (subtract_)
      for (std::size_t i = 0; i < nq; ++i)
        for (std::size_t j = 0; j < len; ++j) out[i * len + j] -= subtract_[label(r.begin + j)];
  }

  /// Hamming counts of queries [q0, q0 + nq) against the prefix words of
  /// range r into h[i·len + j], Δ folded in; with `full`, suffix words too.
  void hamming_counts(std::size_t q0, std::size_t nq, RowRange r, bool full,
                      std::uint32_t* h) const {
    const std::size_t len = r.end - r.begin;
    const std::uint64_t* codes = q_.codes + q0 * store_.words_per_row();
    const std::uint64_t* rows = plan_.prefix + r.begin * plan_.wp;
    if (nq == 1)
      hdc::hamming_many_packed(codes, rows, len, plan_.wp, h);
    else
      hdc::hamming_many_packed_multi(codes, nq, rows, len, plan_.wp, h);
    if (offset_)
      for (std::size_t i = 0; i < nq; ++i)
        for (std::size_t j = 0; j < len; ++j) h[i * len + j] += offset_[label(r.begin + j)];
    if (!full || plan_.ws == 0) return;
    const auto hs = std::make_unique_for_overwrite<std::uint32_t[]>(len);
    for (std::size_t i = 0; i < nq; ++i) {
      suffix_counts(q0 + i, r.begin, len, hs.get());
      for (std::size_t j = 0; j < len; ++j) h[i * len + j] += hs[j];
    }
  }

  /// Suffix-word counts of query `qi` against positions [pos, pos + n).
  void suffix_counts(std::size_t qi, std::size_t pos, std::size_t n, std::uint32_t* out) const {
    hdc::hamming_many_packed(q_.codes + qi * store_.words_per_row() + plan_.wp,
                             plan_.suffix + pos * plan_.ws, n, plan_.ws, out);
  }

  /// Offer range r's rows to `heap` from their prefix counts h: rows above
  /// the threshold are pruned; with suffix words the survivors' suffixes
  /// are counted (one batched sweep when most survive, else row by row
  /// against the tightening threshold). Returns the rows pruned.
  std::uint64_t select_keys(KeyHeap& kept, std::size_t qi, RowRange r, const std::uint32_t* h,
                            std::uint32_t* survivors, std::uint32_t* hs) const {
    // A local heap and label base keep the hot loops in registers.
    KeyHeap heap = kept;
    const std::uint32_t* labels = plan_.labels ? plan_.labels + r.begin : nullptr;
    const auto label_of = [&](std::size_t i) { return labels ? labels[i] : r.begin + i; };
    const std::size_t len = r.end - r.begin;
    std::uint64_t pruned = 0;
    if (plan_.ws == 0) {
      pruned = block_skip(
          len, [&] { return heap.threshold(); },
          [h](std::size_t j, std::uint32_t t) { return h[j] <= t; },
          [&](std::size_t j) { heap.offer(h[j], label_of(j)); });
    } else {
      // The heap does not move during the prefix pass: one threshold for all.
      const std::uint32_t t0 = heap.threshold();
      std::size_t n_sur = 0;
      for (std::size_t j = 0; j < len; ++j) {
        if (h[j] > t0)
          ++pruned;
        else
          survivors[n_sur++] = static_cast<std::uint32_t>(j);
      }
      if (3 * n_sur > len) {  // dense: one batched suffix sweep
        suffix_counts(qi, r.begin, len, hs);
        for (std::size_t s = 0; s < n_sur; ++s)
          heap.offer(h[survivors[s]] + hs[survivors[s]], label_of(survivors[s]));
      } else {
        for (std::size_t s = 0; s < n_sur; ++s) {
          const std::uint32_t i = survivors[s];
          if (h[i] > heap.threshold()) {
            ++pruned;
            continue;
          }
          std::uint32_t hsuf = 0;
          suffix_counts(qi, r.begin + i, 1, &hsuf);
          heap.offer(h[i] + hsuf, label_of(i));
        }
      }
    }
    kept = heap;
    return pruned;
  }

  /// One task: queries [q0, q0 + nq) over plan ranges [r0, r1), one heap
  /// per query in slot[i·k …] starting from cutoff hint hints[i];
  /// n_out[i] receives each heap's size.
  void run_task(std::size_t q0, std::size_t nq, std::size_t r0, std::size_t r1, std::size_t k,
                TopK* slot, std::uint32_t* n_out, std::atomic<std::uint64_t>* hints,
                ScanTally* tally) const {
    std::size_t max_len = 0;
    for (std::size_t ri = r0; ri < r1; ++ri)
      max_len = std::max(max_len, plan_.ranges[ri].end - plan_.ranges[ri].begin);
    // Scratch for the longest range, never value-initialized: every slot
    // read back is written first.
    const bool k_mode = keys();
    std::unique_ptr<std::uint32_t[]> h, survivors;
    std::unique_ptr<float[]> f;
    std::vector<std::uint64_t> key_slots(k_mode ? nq * k : 0);
    std::vector<KeyHeap> kheaps;
    std::vector<FloatHeap> fheaps;
    if (k_mode) {
      h = std::make_unique_for_overwrite<std::uint32_t[]>(nq * max_len);
      survivors = std::make_unique_for_overwrite<std::uint32_t[]>(2 * max_len);
      kheaps.reserve(nq);
    } else {
      f = std::make_unique_for_overwrite<float[]>(nq * max_len);
      fheaps.reserve(nq);
    }
    for (std::size_t i = 0; i < nq; ++i) {
      if (k_mode)
        kheaps.push_back({{key_slots.data() + i * k, k}, hints[i].load(std::memory_order_relaxed)});
      else
        fheaps.emplace_back(slot + i * k, k);
    }
    for (std::size_t ri = r0; ri < r1; ++ri) {
      const RowRange r = plan_.ranges[ri];
      const std::size_t len = r.end - r.begin;
      if (len == 0) continue;
      std::uint64_t pruned = 0;
      if (k_mode) {
        hamming_counts(q0, nq, r, /*full=*/false, h.get());
        for (std::size_t i = 0; i < nq; ++i)
          pruned += select_keys(kheaps[i], q0 + i, r, h.get() + i * len, survivors.get(),
                                survivors.get() + max_len);
      } else {
        logits(q0, nq, r, f.get());
        for (std::size_t i = 0; i < nq; ++i)
          select_float(fheaps[i], len, [&](std::size_t j) { return label(r.begin + j); },
                       [&](std::size_t j) { return f[i * len + j]; });
      }
      if (tally) {
        tally[ri].queries += nq;
        tally[ri].swept += nq * len;
        tally[ri].pruned += pruned;
      }
    }
    for (std::size_t i = 0; i < nq; ++i) {
      if (!k_mode) {
        n_out[i] = static_cast<std::uint32_t>(fheaps[i].size());
        continue;
      }
      // Publish this heap's k-th best key if it tightens the query's hint.
      const std::uint64_t cut = kheaps[i].bound;
      std::uint64_t seen = hints[i].load(std::memory_order_relaxed);
      while (cut < seen && !hints[i].compare_exchange_weak(seen, cut, std::memory_order_relaxed)) {
      }
      n_out[i] = static_cast<std::uint32_t>(kheaps[i].heap.size());
      for (std::size_t s = 0; s < n_out[i]; ++s) {
        const std::uint64_t key = key_slots[i * k + s];
        slot[i * k + s] = TopK{static_cast<std::size_t>(key & 0xffffffffu),
                               store_.hamming_logit(static_cast<std::uint32_t>(key >> 32))};
      }
    }
  }

 private:
  const PrototypeStore& store_;
  const ScanQueries& q_;
  const ScanPlan& plan_;
  const std::uint32_t* offset_ = nullptr;  // binary, integer-exact: score h + Δ
  const float* subtract_ = nullptr;        // otherwise: logit − p
};

}  // namespace

void check_embeddings(const PrototypeStore& store, const tensor::Tensor& embeddings,
                      const char* who) {
  if (embeddings.dim() != 2 || embeddings.size(1) != store.dim())
    throw std::invalid_argument(std::string(who) + ": need [B, " +
                                std::to_string(store.dim()) + "] embeddings, got " +
                                tensor::shape_str(embeddings.shape()));
}

std::vector<std::vector<TopK>> scan_topk(const PrototypeStore& store, const ScanQueries& q,
                                         const ScanPlan& plan, std::size_t k,
                                         const SeenPenalty* penalty, ScanTally* tally) {
  std::vector<std::vector<TopK>> out(q.n);
  k = std::min(k, store.n_classes());
  if (k == 0 || q.n == 0) return out;
  const Scan scan(store, q, plan, penalty);
  // One task per range over the whole batch, each with one k-heap per
  // query. Cutoff hints, one per query: a task that fills a key heap
  // publishes its k-th best key, and tasks that start later on the same
  // query begin with that bound (conservative whatever the interleaving).
  const std::size_t n_ranges = plan.ranges.size();
  std::vector<TopK> hits(n_ranges * q.n * k);
  std::vector<std::uint32_t> n_hits(n_ranges * q.n, 0);
  const auto hints = std::make_unique<std::atomic<std::uint64_t>[]>(q.n);
  for (std::size_t b = 0; b < q.n; ++b) hints[b].store(~std::uint64_t{0});
  util::parallel_for(
      0, n_ranges,
      [&](std::size_t t) {
        const obs::ScopedTimer timer(plan.task_hist);
        scan.run_task(0, q.n, t, t + 1, k, hits.data() + t * q.n * k, n_hits.data() + t * q.n,
                      hints.get(), tally);
      },
      /*grain=*/1);
  // Merge every range's heap for a query under the retrieval order.
  for (std::size_t b = 0; b < q.n; ++b) {
    std::vector<TopK>& merged = out[b];
    for (std::size_t t = 0; t < n_ranges; ++t) {
      const std::size_t s = t * q.n + b;
      merged.insert(merged.end(), hits.begin() + s * k, hits.begin() + s * k + n_hits[s]);
    }
    std::sort(merged.begin(), merged.end(), better);
    if (merged.size() > k) merged.resize(k);
  }
  return out;
}

std::vector<TopK> scan_query(const PrototypeStore& store, const ScanQueries& q, std::size_t b,
                             const ScanPlan& plan, std::size_t k, const SeenPenalty* penalty,
                             ScanTally* tally) {
  std::vector<TopK> out(std::min(k, store.n_classes()));
  if (out.empty()) return out;
  std::uint32_t n = 0;
  std::atomic<std::uint64_t> hint{~std::uint64_t{0}};
  Scan(store, q, plan, penalty)
      .run_task(b, 1, 0, plan.ranges.size(), out.size(), out.data(), &n, &hint, tally);
  out.resize(n);
  std::sort(out.begin(), out.end(), better);
  return out;
}

tensor::Tensor scan_logits(const PrototypeStore& store, const ScanQueries& q,
                           const SeenPenalty* penalty) {
  ScanPlan flat;
  flat.prefix = store.packed_data();
  flat.wp = store.words_per_row();
  tensor::Tensor out({q.n, store.n_classes()});
  Scan(store, q, flat, penalty).logits(0, q.n, {0, store.n_classes()}, out.data());
  return out;
}

std::vector<TopK> topk_row(const float* logits, std::size_t n, std::size_t k) {
  std::vector<TopK> out(std::min(k, n));
  if (out.empty()) return out;
  FloatHeap heap(out.data(), out.size());
  select_float(
      heap, n, [](std::size_t j) { return j; }, [logits](std::size_t j) { return logits[j]; });
  std::sort(out.begin(), out.end(), better);
  return out;
}

}  // namespace hdczsc::serve::detail
