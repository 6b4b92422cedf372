#include "serve/ann_store.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "hdc/hypervector.hpp"
#include "obs/metrics.hpp"
#include "serve/topk_scan.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdczsc::serve {

namespace {

/// Rows per k-means assignment chunk: bounds the gathered-row and dot
/// scratch to a few MB regardless of store size, and gives the worker pool
/// enough chunks to balance.
constexpr std::size_t kAssignChunk = 1024;

/// Automatic early-exit split: score a quarter of the words up front, keep
/// the early exit off for codes too narrow for a meaningful prefix (the
/// prune test would cost more than the skipped words).
std::size_t auto_prefix_words(std::size_t words_per_row) {
  return words_per_row <= 2 ? words_per_row
                            : std::max<std::size_t>(1, words_per_row / 4);
}

}  // namespace

std::string retrieval_mode_name(RetrievalMode mode) {
  switch (mode) {
    case RetrievalMode::kIvf:
      return "ivf";
    case RetrievalMode::kCascade:
      return "cascade";
    case RetrievalMode::kExact:
      break;
  }
  return "exact";
}

RetrievalMode retrieval_mode_from_name(const std::string& name) {
  if (name == "exact") return RetrievalMode::kExact;
  if (name == "ivf") return RetrievalMode::kIvf;
  if (name == "cascade") return RetrievalMode::kCascade;
  throw std::invalid_argument("unknown retrieval mode '" + name +
                              "' (expected exact, ivf or cascade)");
}

IvfIndex::IvfIndex(const PrototypeStore& base, std::size_t n_centroids, std::size_t iters,
                   std::uint64_t seed)
    : base_(&base) {
  const std::size_t rows = base.n_classes();
  const std::size_t d = base.dim();
  std::size_t cc =
      n_centroids == 0
          ? static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(rows))))
          : n_centroids;
  cc = std::clamp<std::size_t>(cc, 1, rows);

  const float* P = base.float_rows();
  util::Rng rng(seed);
  const std::vector<std::size_t> perm = rng.permutation(rows);

  // Init: Cc distinct random rows (already unit-norm).
  centroids_ = tensor::Tensor({cc, d});
  float* Cm = centroids_.data();
  for (std::size_t c = 0; c < cc; ++c)
    std::copy(P + perm[c] * d, P + (perm[c] + 1) * d, Cm + c * d);

  // Nearest-centroid assignment by chunked GEMM: gather (for sampled ids)
  // or slice (ids == nullptr: the contiguous range [0, n)) a chunk of
  // rows, one [chunk, Cc] dot block, argmax per row under (dot desc, id
  // asc). Centroids are read-only during a pass, so chunks fan out across
  // the worker pool.
  const auto assign_rows = [&](const std::size_t* ids, std::size_t n,
                               std::uint32_t* out_assign) {
    const std::size_t n_chunks = (n + kAssignChunk - 1) / kAssignChunk;
    util::parallel_for(
        0, n_chunks,
        [&](std::size_t ch) {
          const std::size_t lo = ch * kAssignChunk;
          const std::size_t hi = std::min(n, lo + kAssignChunk);
          const std::size_t cn = hi - lo;
          std::vector<float> gathered;
          const float* src;
          if (ids) {
            gathered.resize(cn * d);
            for (std::size_t r = 0; r < cn; ++r)
              std::copy(P + ids[lo + r] * d, P + (ids[lo + r] + 1) * d,
                        gathered.data() + r * d);
            src = gathered.data();
          } else {
            src = P + lo * d;
          }
          std::vector<float> dots(cn * cc, 0.0f);
          tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, cn, cc, d, src, d, Cm, d,
                                  dots.data(), cc);
          for (std::size_t r = 0; r < cn; ++r) {
            const float* row = dots.data() + r * cc;
            std::size_t best = 0;
            for (std::size_t c = 1; c < cc; ++c)
              if (row[c] > row[best]) best = c;
            out_assign[lo + r] = static_cast<std::uint32_t>(best);
          }
        },
        /*grain=*/1);
  };

  // Spherical k-means on a bounded sample (kSamplePerCentroid rows per
  // centroid, FAISS-style): the coarse quantizer needs Voronoi structure,
  // not convergence, and the sample keeps build cost sublinear in C for
  // huge stores. Only the final assignment pass below touches every row.
  const std::size_t sample_n = std::min(rows, cc * kSamplePerCentroid);
  std::vector<std::uint32_t> sassign(sample_n);
  std::vector<double> sums(cc * d);
  std::vector<std::uint32_t> counts(cc);
  for (std::size_t it = 0; it < iters; ++it) {
    assign_rows(perm.data(), sample_n, sassign.data());
    std::fill(sums.begin(), sums.end(), 0.0);
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t s = 0; s < sample_n; ++s) {
      const float* row = P + perm[s] * d;
      double* acc = sums.data() + sassign[s] * d;
      for (std::size_t j = 0; j < d; ++j) acc[j] += row[j];
      ++counts[sassign[s]];
    }
    for (std::size_t c = 0; c < cc; ++c) {
      float* dst = Cm + c * d;
      double norm2 = 0.0;
      const double* acc = sums.data() + c * d;
      for (std::size_t j = 0; j < d; ++j) norm2 += acc[j] * acc[j];
      if (counts[c] == 0 || norm2 < 1e-20) {
        // Empty (or degenerate) cluster: reseed to a random sample row so
        // every centroid keeps earning rows.
        const std::size_t r = perm[rng.next_below(sample_n)];
        std::copy(P + r * d, P + (r + 1) * d, dst);
        continue;
      }
      const double inv = 1.0 / std::sqrt(norm2);
      for (std::size_t j = 0; j < d; ++j) dst[j] = static_cast<float>(acc[j] * inv);
    }
  }

  assignments_.resize(rows);
  assign_rows(nullptr, rows, assignments_.data());
  prefix_words_ = auto_prefix_words(base.words_per_row());
  build_lists();
}

IvfIndex IvfIndex::from_parts(const PrototypeStore& base, tensor::Tensor centroids,
                              std::vector<std::uint32_t> assignments) {
  if (centroids.dim() != 2 || centroids.size(0) == 0 || centroids.size(1) != base.dim())
    throw std::invalid_argument("IvfIndex::from_parts: centroids are " +
                                tensor::shape_str(centroids.shape()) + ", expected [Cc, " +
                                std::to_string(base.dim()) + "]");
  if (assignments.size() != base.n_classes())
    throw std::invalid_argument(
        "IvfIndex::from_parts: " + std::to_string(assignments.size()) + " assignments for " +
        std::to_string(base.n_classes()) + " prototype rows");
  const std::size_t cc = centroids.size(0);
  for (std::uint32_t a : assignments)
    if (a >= cc)
      throw std::invalid_argument("IvfIndex::from_parts: assignment " + std::to_string(a) +
                                  " out of range for " + std::to_string(cc) + " centroids");
  IvfIndex idx;
  idx.base_ = &base;
  idx.centroids_ = std::move(centroids);
  idx.assignments_ = std::move(assignments);
  idx.prefix_words_ = auto_prefix_words(base.words_per_row());
  idx.build_lists();
  return idx;
}

void IvfIndex::build_lists() {
  const std::size_t rows = base_->n_classes();
  const std::size_t cc = centroids_.size(0);

  // Packed centroid codes (the binary path's probe targets), encoded by the
  // store's own encoder so expansion/LSH behave identically.
  centroid_codes_ = base_->encode_rows(centroids_);

  // Inverted lists: counting sort of row ids by centroid — rows stay
  // ascending within each list, so a full probe enumerates labels in the
  // same per-list order every time.
  std::vector<std::size_t> counts(cc, 0);
  for (std::uint32_t a : assignments_) ++counts[a];
  list_offsets_.assign(cc + 1, 0);
  for (std::size_t c = 0; c < cc; ++c) list_offsets_[c + 1] = list_offsets_[c] + counts[c];
  list_rows_.resize(rows);
  std::vector<std::size_t> cursor(list_offsets_.begin(), list_offsets_.end() - 1);
  for (std::size_t r = 0; r < rows; ++r)
    list_rows_[cursor[assignments_[r]]++] = static_cast<std::uint32_t>(r);
  repack_codes();
}

void IvfIndex::repack_codes() {
  const std::size_t rows = base_->n_classes();
  const std::size_t wpr = base_->words_per_row();
  const std::size_t wp = prefix_words_;
  const std::size_t ws = wpr - wp;
  const std::uint64_t* packed = base_->packed_data();
  codes_prefix_.resize(rows * wp);
  codes_suffix_.resize(rows * ws);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::uint64_t* src = packed + list_rows_[i] * wpr;
    std::copy(src, src + wp, codes_prefix_.data() + i * wp);
    if (ws) std::copy(src + wp, src + wpr, codes_suffix_.data() + i * ws);
  }
}

void IvfIndex::set_prefix_words(std::size_t words) {
  const std::size_t wpr = base_->words_per_row();
  prefix_words_ =
      words == 0 ? auto_prefix_words(wpr) : std::clamp<std::size_t>(words, 1, wpr);
  repack_codes();
}

std::size_t IvfIndex::resolve_nprobe(std::size_t nprobe) const {
  if (nprobe == 0) nprobe = default_nprobe();
  return std::clamp<std::size_t>(nprobe, 1, n_centroids());
}

std::vector<std::uint32_t> IvfIndex::probe(const float* dots, const std::uint64_t* code,
                                           std::size_t nprobe) const {
  const std::size_t cc = n_centroids();
  // Closeness as one float per centroid: the dot, or −h (exact for
  // h < 2²⁴), so both domains rank by (closeness desc, id asc).
  std::vector<float> negh(dots ? 0 : cc);
  if (!dots) {
    std::vector<std::uint32_t> h(cc);
    hdc::hamming_many_packed(code, centroid_codes_.data(), cc, base_->words_per_row(), h.data());
    for (std::size_t c = 0; c < cc; ++c) negh[c] = -static_cast<float>(h[c]);
  }
  const float* close = dots ? dots : negh.data();
  std::vector<std::uint32_t> ids(cc);
  std::iota(ids.begin(), ids.end(), 0u);
  std::partial_sort(ids.begin(), ids.begin() + nprobe, ids.end(),
                    [close](std::uint32_t x, std::uint32_t y) {
                      return close[x] > close[y] || (close[x] == close[y] && x < y);
                    });
  ids.resize(nprobe);
  return ids;
}

IvfIndex::ProbeStats IvfIndex::probe_stats() const {
  const Counters& c = *counters_;
  return {c.queries.load(std::memory_order_relaxed),
          c.centroids_probed.load(std::memory_order_relaxed),
          c.rows_swept.load(std::memory_order_relaxed),
          c.rows_pruned.load(std::memory_order_relaxed),
          c.rows_reranked.load(std::memory_order_relaxed)};
}

std::vector<std::vector<TopK>> IvfIndex::search(Scan scan, const tensor::Tensor& embeddings,
                                                std::size_t k, std::size_t nprobe,
                                                std::size_t rerank, const SeenPenalty* penalty,
                                                const char* who) const {
  detail::check_embeddings(*base_, embeddings, who);
  const std::size_t batch = embeddings.size(0);
  std::vector<std::vector<TopK>> out(batch);
  if (k == 0 || batch == 0) return out;

  const tensor::Tensor unit =
      scan == Scan::kBinary ? tensor::Tensor() : tensor::l2_normalize_rows(embeddings);
  const std::vector<std::uint64_t> codes =
      scan == Scan::kFloat ? std::vector<std::uint64_t>() : base_->encode_rows(embeddings);
  const detail::ScanQueries fq{batch, scan == Scan::kBinary ? nullptr : unit.data(), nullptr};
  const detail::ScanQueries bq{batch, nullptr, codes.data()};
  const std::size_t cc = n_centroids(), d = base_->dim(), wpr = base_->words_per_row();
  const std::size_t np = resolve_nprobe(nprobe), kk = std::min(k, n_rows());
  // Float probes rank centroids for the whole batch in one GEMM.
  std::vector<float> dots(fq.unit ? batch * cc : 0, 0.0f);
  if (fq.unit)
    tensor::gemm_accumulate(tensor::Trans::N, tensor::Trans::T, batch, cc, d, fq.unit, d,
                            centroids_.data(), d, dots.data(), cc);
  // The cascade prefilter folds an integer-exact handicap in; any other
  // one is left to the float rerank (the prefilter then ranks unpenalized
  // Hamming keys).
  const SeenPenalty* pre = penalty && penalty->integer_exact ? penalty : nullptr;
  std::atomic<std::uint64_t> swept{0}, pruned{0}, reranked{0};

  // One task per query: probe, scan the probed lists, and for the cascade
  // rerank the survivors — each scan a per-query plan for the executor.
  util::parallel_for(
      0, batch,
      [&](std::size_t b) {
        detail::ScanPlan plan;
        plan.labels = list_rows_.data();
        plan.prefix = codes_prefix_.data();
        plan.wp = prefix_words_;
        plan.suffix = codes_suffix_.data();
        plan.ws = wpr - prefix_words_;
        plan.ranges.reserve(np);
        std::size_t total = 0;
        for (std::uint32_t c : probe(fq.unit ? dots.data() + b * cc : nullptr,
                                     codes.data() + (fq.unit ? 0 : b * wpr), np)) {
          plan.ranges.push_back({list_offsets_[c], list_offsets_[c + 1]});
          total += list_size(c);
        }
        std::vector<detail::ScanTally> tally(plan.ranges.size());
        if (scan != Scan::kCascade) {
          out[b] = detail::scan_query(*base_, scan == Scan::kFloat ? fq : bq, b, plan, k, penalty,
                                      tally.data());
        } else {
          // Prefilter only when the rerank budget (rerank·k, 0 = unbounded)
          // is below the probed rows; otherwise rerank every probed row —
          // with nprobe == Cc exactly the exact float top-k.
          std::vector<std::uint32_t> cands;
          cands.reserve(std::min(total, rerank == 0 ? total : rerank * kk));
          if (rerank != 0 && rerank < (total + kk - 1) / kk) {
            for (const TopK& hit :
                 detail::scan_query(*base_, bq, b, plan, rerank * kk, pre, tally.data()))
              cands.push_back(static_cast<std::uint32_t>(hit.label));
          } else {
            for (const detail::RowRange& r : plan.ranges)
              cands.insert(cands.end(), list_rows_.begin() + r.begin, list_rows_.begin() + r.end);
          }
          detail::ScanPlan rescore;
          rescore.labels = cands.data();
          rescore.ranges.push_back({0, cands.size()});
          out[b] = detail::scan_query(*base_, fq, b, rescore, k, penalty);
          reranked.fetch_add(cands.size(), std::memory_order_relaxed);
        }
        for (const detail::ScanTally& t : tally) {
          swept.fetch_add(t.swept, std::memory_order_relaxed);
          pruned.fetch_add(t.pruned, std::memory_order_relaxed);
        }
      },
      /*grain=*/1);

  // Process-wide totals in obs::default_registry(), the approximate-tier
  // mirror of the serve_shard_* counters (registered once).
  static const auto probed_total = obs::default_registry().counter(
      "serve_ivf_centroids_probed_total", {}, "inverted lists opened by IVF probes");
  static const auto swept_total = obs::default_registry().counter(
      "serve_ivf_rows_swept_total", {}, "prototype rows prefix-scored by IVF scans");
  static const auto pruned_total = obs::default_registry().counter(
      "serve_ivf_rows_pruned_total", {},
      "rows early-exited by the Hamming prefix bound before their suffix was read");
  static const auto reranked_total = obs::default_registry().counter(
      "serve_ivf_rows_reranked_total", {}, "binary candidates re-scored in float by the cascade");
  counters_->queries.fetch_add(batch, std::memory_order_relaxed);
  counters_->centroids_probed.fetch_add(batch * np, std::memory_order_relaxed);
  counters_->rows_swept.fetch_add(swept, std::memory_order_relaxed);
  counters_->rows_pruned.fetch_add(pruned, std::memory_order_relaxed);
  counters_->rows_reranked.fetch_add(reranked, std::memory_order_relaxed);
  probed_total->add(batch * np);
  swept_total->add(swept);
  pruned_total->add(pruned);
  reranked_total->add(reranked);
  return out;
}

}  // namespace hdczsc::serve
