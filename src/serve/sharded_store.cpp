#include "serve/sharded_store.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "tensor/ops.hpp"

namespace hdczsc::serve {

ShardedPrototypeStore::ShardedPrototypeStore(const PrototypeStore& base, std::size_t n_shards)
    : base_(&base) {
  const std::size_t c = base.n_classes();
  const std::size_t s = std::clamp<std::size_t>(n_shards, 1, c);
  const std::size_t rows = c / s, extra = c % s;
  std::size_t begin = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::size_t end = begin + rows + (i < extra ? 1 : 0);
    plan_.ranges.push_back({begin, end});
    begin = end;
  }
  plan_.prefix = base.packed_data();
  plan_.wp = base.words_per_row();
  // Per-shard scan wall time (profiling-gated, see obs::ScopedTimer).
  static const auto scan_hist = obs::default_registry().histogram(
      "serve_shard_scan_ms", {}, "wall time of one (shard, batch) scatter scan");
  plan_.task_hist = scan_hist.get();
  counters_ = std::make_unique<Counters[]>(s);
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::topk_float(
    const tensor::Tensor& embeddings, std::size_t k, const SeenPenalty* penalty) const {
  detail::check_embeddings(*base_, embeddings, "ShardedPrototypeStore::topk_float");
  const tensor::Tensor unit = tensor::l2_normalize_rows(embeddings);
  return scan({embeddings.size(0), unit.data(), nullptr}, k, penalty);
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::topk_binary(
    const tensor::Tensor& embeddings, std::size_t k, const SeenPenalty* penalty) const {
  detail::check_embeddings(*base_, embeddings, "ShardedPrototypeStore::topk_binary");
  const std::vector<std::uint64_t> codes = base_->encode_rows(embeddings);
  return scan({embeddings.size(0), nullptr, codes.data()}, k, penalty);
}

std::vector<std::vector<TopK>> ShardedPrototypeStore::scan(const detail::ScanQueries& q,
                                                           std::size_t k,
                                                           const SeenPenalty* penalty) const {
  // Process-wide totals across every sharded store (registered once).
  static const auto swept_total = obs::default_registry().counter(
      "serve_shard_rows_swept_total", {}, "prototype rows swept by sharded scatter scans");
  static const auto pruned_total = obs::default_registry().counter(
      "serve_shard_rows_pruned_total", {},
      "binary-scan rows in 16-row blocks the Hamming threshold skipped whole");
  std::vector<detail::ScanTally> tally(plan_.ranges.size());
  auto out = detail::scan_topk(*base_, q, plan_, k, penalty, tally.data());
  for (std::size_t s = 0; s < tally.size(); ++s) {
    counters_[s].scans.fetch_add(tally[s].queries, std::memory_order_relaxed);
    counters_[s].rows_swept.fetch_add(tally[s].swept, std::memory_order_relaxed);
    counters_[s].rows_pruned.fetch_add(tally[s].pruned, std::memory_order_relaxed);
    swept_total->add(tally[s].swept);
    pruned_total->add(tally[s].pruned);
  }
  return out;
}

std::vector<ShardedPrototypeStore::ShardInfo> ShardedPrototypeStore::shard_stats() const {
  std::vector<ShardInfo> out(plan_.ranges.size());
  for (std::size_t s = 0; s < out.size(); ++s)
    out[s] = {plan_.ranges[s].begin, plan_.ranges[s].end - plan_.ranges[s].begin,
              counters_[s].scans.load(std::memory_order_relaxed),
              counters_[s].rows_swept.load(std::memory_order_relaxed),
              counters_[s].rows_pruned.load(std::memory_order_relaxed)};
  return out;
}

}  // namespace hdczsc::serve
