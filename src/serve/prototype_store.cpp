#include "serve/prototype_store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "serve/topk_scan.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdczsc::serve {

namespace {

/// Encode scratch: one [kEncodeRows, kEncodeTile] float block on the stack
/// (8 KiB) whatever the batch; a tile packs into whole 64-bit words.
constexpr std::size_t kEncodeRows = 8;
constexpr std::size_t kEncodeTile = 256;

/// Set bit j of the pre-zeroed `words` for every negative v[j], j < n.
void or_signs(const float* v, std::size_t n, std::uint64_t* words) {
  for (std::size_t j = 0; j < n; ++j)
    words[j / 64] |= std::uint64_t{v[j] < 0.0f} << (j % 64);
}

/// Sign-LSH codes of `nr` ≤ kEncodeRows rows x [nr, d] through Rᵀ [d, D],
/// OR-ed into pre-zeroed codes. Component j is Σ R[j, k]·x[k] summed in k
/// order from +0.0f (the scalar definition) while the j loop vectorizes.
/// Cache-line aligned so the hot loop's placement, and with it its speed,
/// does not move with unrelated code in the link.
__attribute__((aligned(64))) void project_block(const float* rt, std::size_t d, std::size_t D, const float* x,
                   std::size_t nr, std::size_t wpr, std::uint64_t* codes) {
  float acc[kEncodeRows][kEncodeTile] = {};
  for (std::size_t j0 = 0; j0 < D; j0 += kEncodeTile) {
    const std::size_t jn = std::min(kEncodeTile, D - j0);
    for (std::size_t b = 0; b < nr; ++b) std::fill(acc[b], acc[b] + jn, 0.0f);
    for (std::size_t k = 0; k < d; ++k) {
      const float* __restrict rk = rt + k * D + j0;
      for (std::size_t b = 0; b < nr; ++b) {
        const float xk = x[b * d + k];
        float* __restrict a = acc[b];
        for (std::size_t j = 0; j < jn; ++j) a[j] += rk[j] * xk;
      }
    }
    for (std::size_t b = 0; b < nr; ++b) or_signs(acc[b], jn, codes + b * wpr + j0 / 64);
  }
}

}  // namespace

void PrototypeStore::init_geometry(std::size_t expansion, const char* who) {
  // Checked before Rᵀ [d, D] is allocated: a positive finite scale and
  // D < 2²⁴ are what make every binary scan's integer keys exact.
  if (!std::isfinite(scale_) || !(scale_ > 0.0f))
    throw std::invalid_argument(std::string(who) + ": scale must be finite and > 0, got " +
                                std::to_string(scale_));
  expansion_ = expansion == 0 ? 1 : expansion;
  if (dim_ != 0 && expansion_ > ((std::size_t{1} << 24) - 1) / dim_)
    throw std::invalid_argument(std::string(who) + ": code width D = d·expansion = " +
                                std::to_string(dim_) + "·" + std::to_string(expansion_) +
                                " must be < 2^24 bits");
  code_bits_ = dim_ * expansion_;
  words_per_row_ = (code_bits_ + 63) / 64;
  inv_code_bits_ = 1.0f / static_cast<float>(code_bits_);
  if (expansion_ == 1) return;
  // The same draw sequence as Tensor::rademacher({D, d}) — row-major over
  // R[j, k] — written straight into the transposed layout, so persisted
  // codes made from lsh_seed stay valid and no second [D, d] copy exists.
  projection_t_ = tensor::Tensor({dim_, code_bits_});
  util::Rng rng(lsh_seed_);
  float* rt = projection_t_.data();
  for (std::size_t j = 0; j < code_bits_; ++j)
    for (std::size_t k = 0; k < dim_; ++k)
      rt[k * code_bits_ + j] = static_cast<float>(rng.rademacher());
}

void PrototypeStore::encode_rows(const float* rows, std::size_t n,
                                 std::uint64_t* codes) const {
  const std::size_t wpr = words_per_row_;
  std::fill(codes, codes + n * wpr, std::uint64_t{0});
  if (expansion_ == 1) {
    // Signs are norm-invariant; pack the raw components directly.
    for (std::size_t r = 0; r < n; ++r) or_signs(rows + r * dim_, dim_, codes + r * wpr);
    return;
  }
  // Row blocks are independent: fanning them out changes nothing bitwise.
  util::parallel_for(
      0, (n + kEncodeRows - 1) / kEncodeRows,
      [&](std::size_t blk) {
        const std::size_t r0 = blk * kEncodeRows;
        project_block(projection_t_.data(), dim_, code_bits_, rows + r0 * dim_,
                      std::min(kEncodeRows, n - r0), wpr, codes + r0 * wpr);
      },
      /*grain=*/1);
}

std::vector<std::uint64_t> PrototypeStore::encode_rows(const tensor::Tensor& rows) const {
  std::vector<std::uint64_t> codes(rows.size(0) * words_per_row_);
  encode_rows(rows.data(), rows.size(0), codes.data());
  return codes;
}

hdc::BinaryHV PrototypeStore::encode_query(const float* row) const {
  std::vector<std::uint64_t> words(words_per_row_);
  encode_rows(row, 1, words.data());
  return hdc::BinaryHV::from_words(code_bits_, std::move(words));
}

PrototypeStore::PrototypeStore(const tensor::Tensor& prototypes, float scale,
                               std::size_t expansion, std::uint64_t lsh_seed)
    : lsh_seed_(lsh_seed), scale_(scale) {
  if (prototypes.dim() != 2 || prototypes.size(0) == 0)
    throw std::invalid_argument("PrototypeStore: prototypes must be a non-empty [C, d] matrix");
  n_classes_ = prototypes.size(0);
  dim_ = prototypes.size(1);
  init_geometry(expansion, "PrototypeStore");

  // The initial slabs hold exactly the C rows (capacity == C); the first
  // append grows them geometrically.
  float_plane_ = tensor::l2_normalize_rows(prototypes);
  capacity_rows_ = n_classes_;
  packed_plane_ = std::make_shared<std::vector<std::uint64_t>>(n_classes_ * words_per_row_);
  committed_ = std::make_shared<std::atomic<std::size_t>>(n_classes_);
  encode_rows(prototypes.data(), n_classes_, packed_plane_->data());
}

PrototypeStore PrototypeStore::from_parts(tensor::Tensor normalized_rows,
                                          std::vector<std::uint64_t> packed_words, float scale,
                                          std::size_t expansion, std::uint64_t lsh_seed) {
  if (normalized_rows.dim() != 2 || normalized_rows.size(0) == 0)
    throw std::invalid_argument(
        "PrototypeStore::from_parts: normalized rows must be a non-empty [C, d] matrix");
  PrototypeStore s;
  s.lsh_seed_ = lsh_seed;
  s.scale_ = scale;
  s.n_classes_ = normalized_rows.size(0);
  s.dim_ = normalized_rows.size(1);
  s.init_geometry(expansion, "PrototypeStore::from_parts");
  if (packed_words.size() != s.n_classes_ * s.words_per_row_)
    throw std::invalid_argument(
        "PrototypeStore::from_parts: packed words/shape disagree (" +
        std::to_string(packed_words.size()) + " words for " + std::to_string(s.n_classes_) +
        " rows x " + std::to_string(s.words_per_row_) + " words/row)");
  s.float_plane_ = std::move(normalized_rows);
  s.capacity_rows_ = s.n_classes_;
  s.packed_plane_ =
      std::make_shared<std::vector<std::uint64_t>>(std::move(packed_words));
  s.committed_ = std::make_shared<std::atomic<std::size_t>>(s.n_classes_);
  return s;
}

PrototypeStore PrototypeStore::append_rows(const tensor::Tensor& raw_rows) const {
  if (raw_rows.dim() != 2 || raw_rows.size(0) == 0 || raw_rows.size(1) != dim_)
    throw std::invalid_argument("PrototypeStore::append_rows: need non-empty [n, " +
                                std::to_string(dim_) + "] rows, got " +
                                tensor::shape_str(raw_rows.shape()));
  return append_impl(tensor::l2_normalize_rows(raw_rows), encode_rows(raw_rows));
}

PrototypeStore PrototypeStore::append_parts(
    const tensor::Tensor& normalized_rows, const std::vector<std::uint64_t>& packed_words) const {
  if (normalized_rows.dim() != 2 || normalized_rows.size(0) == 0 ||
      normalized_rows.size(1) != dim_)
    throw std::invalid_argument("PrototypeStore::append_parts: need non-empty [n, " +
                                std::to_string(dim_) + "] rows, got " +
                                tensor::shape_str(normalized_rows.shape()));
  if (packed_words.size() != normalized_rows.size(0) * words_per_row_)
    throw std::invalid_argument(
        "PrototypeStore::append_parts: packed words/shape disagree (" +
        std::to_string(packed_words.size()) + " words for " +
        std::to_string(normalized_rows.size(0)) + " rows x " +
        std::to_string(words_per_row_) + " words/row)");
  return append_impl(normalized_rows, packed_words);
}

PrototypeStore PrototypeStore::append_impl(
    const tensor::Tensor& normalized_rows, const std::vector<std::uint64_t>& packed_words) const {
  const std::size_t n_new = normalized_rows.size(0);
  const std::size_t total = n_classes_ + n_new;

  PrototypeStore out = *this;  // O(1): shares the slabs
  out.n_classes_ = total;

  // Fast path: claim rows [n_classes_, total) of the shared slabs with one
  // CAS and write in place. Those addresses are past every published
  // value's visible prefix, so no reader can observe the write; the new
  // value is published through a shared_ptr swap whose release/acquire
  // edge orders these stores for its readers.
  std::size_t expected = n_classes_;
  if (total <= capacity_rows_ &&
      committed_->compare_exchange_strong(expected, total)) {
    std::copy(normalized_rows.data(), normalized_rows.data() + n_new * dim_,
              out.float_plane_.data() + n_classes_ * dim_);
    std::copy(packed_words.begin(), packed_words.end(),
              out.packed_plane_->data() + n_classes_ * words_per_row_);
    return out;
  }

  // Slow path: capacity exhausted (or a concurrent appender claimed the
  // tail first) — reallocate with geometric headroom and copy the prefix.
  // The old value keeps its slabs; its readers are untouched.
  std::size_t cap = std::max<std::size_t>(capacity_rows_, 1);
  while (cap < total) cap *= 2;
  out.capacity_rows_ = cap;
  out.float_plane_ = tensor::Tensor({cap, dim_});
  std::copy(float_rows(), float_rows() + n_classes_ * dim_, out.float_plane_.data());
  std::copy(normalized_rows.data(), normalized_rows.data() + n_new * dim_,
            out.float_plane_.data() + n_classes_ * dim_);
  out.packed_plane_ =
      std::make_shared<std::vector<std::uint64_t>>(cap * words_per_row_, 0);
  std::copy(packed_data(), packed_data() + n_classes_ * words_per_row_,
            out.packed_plane_->data());
  std::copy(packed_words.begin(), packed_words.end(),
            out.packed_plane_->data() + n_classes_ * words_per_row_);
  out.committed_ = std::make_shared<std::atomic<std::size_t>>(total);
  return out;
}

tensor::Tensor PrototypeStore::normalized_copy() const {
  tensor::Tensor out({n_classes_, dim_});
  std::copy(float_rows(), float_rows() + n_classes_ * dim_, out.data());
  return out;
}

std::vector<std::uint64_t> PrototypeStore::packed_copy() const {
  const std::uint64_t* p = packed_data();
  return std::vector<std::uint64_t>(p, p + n_classes_ * words_per_row_);
}

SeenPenalty PrototypeStore::resolve_penalty(float penalty,
                                            const std::vector<std::uint8_t>& seen_mask) const {
  if (!seen_mask.empty() && seen_mask.size() != n_classes_)
    throw std::invalid_argument("PrototypeStore::resolve_penalty: seen mask has " +
                                std::to_string(seen_mask.size()) + " entries for " +
                                std::to_string(n_classes_) + " classes");
  SeenPenalty p;
  p.penalty = penalty;
  if (penalty == 0.0f) return p;  // inactive: no per-row tables needed

  // Hamming-domain translation: penalty == scale · 2Δ/D for an integer
  // Δ ≥ 0 makes the handicap an exact integer offset on the seen rows'
  // Hamming counts. The double products below are exact (f32 values times
  // a < 2²⁴ integer), so `delta` is integral iff the real quotient is —
  // up to one part in 2⁵³, far beyond float resolution either way. The
  // offset must also keep h + Δ ≤ D + Δ < 2²⁴, the range where distinct
  // integer scores cannot round to the same float logit.
  if (penalty > 0.0f) {
    const double delta = static_cast<double>(penalty) * static_cast<double>(code_bits_) /
                         (2.0 * static_cast<double>(scale_));
    if (delta == std::floor(delta) &&
        static_cast<double>(code_bits_) + delta < static_cast<double>(1u << 24)) {
      p.integer_exact = true;
      p.offset = static_cast<std::uint32_t>(delta);
    }
  }

  const auto seen = [&](std::size_t c) { return seen_mask.empty() || seen_mask[c] != 0; };
  p.row_penalty.resize(n_classes_, 0.0f);
  p.row_offset.resize(n_classes_, 0);
  for (std::size_t c = 0; c < n_classes_; ++c) {
    if (!seen(c)) continue;
    p.row_penalty[c] = penalty;
    p.row_offset[c] = p.offset;
  }
  return p;
}

tensor::Tensor PrototypeStore::score_float(const tensor::Tensor& embeddings,
                                           const SeenPenalty* penalty) const {
  detail::check_embeddings(*this, embeddings, "PrototypeStore::score_float");
  const tensor::Tensor unit = tensor::l2_normalize_rows(embeddings);
  return detail::scan_logits(*this, {embeddings.size(0), unit.data(), nullptr}, penalty);
}

tensor::Tensor PrototypeStore::score_binary(const tensor::Tensor& embeddings,
                                            const SeenPenalty* penalty) const {
  detail::check_embeddings(*this, embeddings, "PrototypeStore::score_binary");
  const std::vector<std::uint64_t> codes = encode_rows(embeddings);
  return detail::scan_logits(*this, {embeddings.size(0), nullptr, codes.data()}, penalty);
}

hdc::BinaryHV PrototypeStore::binary_prototype(std::size_t i) const {
  if (i >= n_classes_)
    throw std::out_of_range("PrototypeStore::binary_prototype: index out of range");
  const std::uint64_t* row = packed_data() + i * words_per_row_;
  return hdc::BinaryHV::from_words(code_bits_,
                                   std::vector<std::uint64_t>(row, row + words_per_row_));
}

}  // namespace hdczsc::serve
