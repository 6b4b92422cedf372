#include "serve/prototype_store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "serve/topk_scan.hpp"
#include "tensor/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hdczsc::serve {

namespace {

/// Encode scratch: one [kEncodeRows, kEncodeLanes] float block on the stack
/// (2 KiB) whatever the batch; a 64-lane tile makes exactly one code word.
constexpr std::size_t kEncodeRows = 8;
constexpr std::size_t kEncodeLanes = 64;

/// Set bit j of the pre-zeroed `words` for every negative v[j], j < n.
void or_signs(const float* v, std::size_t n, std::uint64_t* words) {
  for (std::size_t j = 0; j < n; ++j)
    words[j / 64] |= std::uint64_t{v[j] < 0.0f} << (j % 64);
}

using EncodeFn = void (*)(const std::uint32_t* planes, std::size_t d, std::size_t wpr,
                          const float* x, std::size_t nr, std::uint64_t* codes);

// Sign-LSH codes of `nr` ≤ kEncodeRows rows x [nr, d] through the bit-plane
// R (see init_geometry), written to codes [nr, wpr]. Component j is
// Σ R[j, k]·x[k] summed in k order from +0.0f. With R[j, k] = ±1 the product
// is exactly ±x[k], so it is formed by XOR-ing R's sign bit into x[k]'s
// bits: the float a multiply would give, so no FMA contraction or vector
// width can change a sum, and every variant yields the scalar definition's
// bits. A tile's sign words are shifted once per k and applied to every
// row. Stamped per ISA like tensor/gemm.cpp; each variant is cache-line
// aligned so its speed does not move with unrelated code in the link.
#define HDCZSC_DEFINE_ENCODE_KERNEL(suffix, attrs)                                         \
  attrs __attribute__((aligned(64))) static void encode_block_##suffix(                    \
      const std::uint32_t* planes, std::size_t d, std::size_t wpr, const float* x,         \
      std::size_t nr, std::uint64_t* codes) {                                              \
    const std::size_t lanes = wpr * kEncodeLanes;                                          \
    float acc[kEncodeRows][kEncodeLanes];                                                  \
    for (std::size_t w = 0; w < wpr; ++w) {                                                \
      for (std::size_t b = 0; b < nr; ++b) std::fill(acc[b], acc[b] + kEncodeLanes, 0.0f); \
      for (std::size_t k0 = 0; k0 < d; k0 += 32) {                                         \
        const std::uint32_t* __restrict plane = planes + k0 / 32 * lanes + w * kEncodeLanes; \
        const std::size_t kn = std::min<std::size_t>(32, d - k0);                          \
        for (std::size_t kk = 0; kk < kn; ++kk) {                                          \
          const unsigned shift = 31 - static_cast<unsigned>(kk);                           \
          for (std::size_t b = 0; b < nr; ++b) {                                           \
            const std::uint32_t xk = std::bit_cast<std::uint32_t>(x[b * d + k0 + kk]);     \
            float* __restrict a = acc[b];                                                  \
            for (std::size_t j = 0; j < kEncodeLanes; ++j)                                 \
              a[j] += std::bit_cast<float>(xk ^ ((plane[j] << shift) & 0x80000000u));      \
          }                                                                                \
        }                                                                                  \
      }                                                                                    \
      for (std::size_t b = 0; b < nr; ++b) {                                               \
        std::uint64_t code = 0;                                                            \
        for (std::size_t j = 0; j < kEncodeLanes; ++j)                                     \
          code |= std::uint64_t{acc[b][j] < 0.0f} << j;                                    \
        codes[b * wpr + w] = code;                                                         \
      }                                                                                    \
    }                                                                                      \
  }

// Portable variant: no target annotation (baseline SSE2 on x86-64).
HDCZSC_DEFINE_ENCODE_KERNEL(portable, )

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_ENCODE_X86_DISPATCH 1
HDCZSC_DEFINE_ENCODE_KERNEL(avx2, __attribute__((target("avx2,fma"))))
HDCZSC_DEFINE_ENCODE_KERNEL(avx512,
                            __attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,fma"))))
#endif

struct EncodeKernel {
  EncodeFn fn;
  const char* name;
};

constexpr EncodeKernel kPortable{encode_block_portable, "portable"};
#if defined(HDCZSC_ENCODE_X86_DISPATCH)
constexpr EncodeKernel kAvx2{encode_block_avx2, "avx2"};
constexpr EncodeKernel kAvx512{encode_block_avx512, "avx512"};
/// Widest first: the pick is the first one the CPU supports.
constexpr const EncodeKernel* kEncodeKernels[] = {&kAvx512, &kAvx2, &kPortable};

bool cpu_supports(const EncodeKernel* k) {
  __builtin_cpu_init();
  if (k == &kAvx2) return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (k == &kAvx512)
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") &&
           __builtin_cpu_supports("avx512bw") && __builtin_cpu_supports("avx512vl") &&
           __builtin_cpu_supports("fma");
  return true;
}
#else
constexpr const EncodeKernel* kEncodeKernels[] = {&kPortable};
bool cpu_supports(const EncodeKernel*) { return true; }
#endif

const EncodeKernel* detect_encode_kernel() {
  for (const EncodeKernel* k : kEncodeKernels)
    if (cpu_supports(k)) return k;
  return &kPortable;
}

/// Current selection: picked once, re-pinned only by set_encode_kernel.
/// Atomic, so pinning a variant does not race a concurrent encode.
std::atomic<const EncodeKernel*>& encode_kernel() {
  static std::atomic<const EncodeKernel*> active{detect_encode_kernel()};
  return active;
}

}  // namespace

const char* encode_kernel_name() { return encode_kernel().load()->name; }

bool set_encode_kernel(const char* name) {
  const std::string want = name ? name : "";
  if (want == "auto") {
    encode_kernel().store(detect_encode_kernel());
    return true;
  }
  for (const EncodeKernel* k : kEncodeKernels)
    if (want == k->name && cpu_supports(k)) {
      encode_kernel().store(k);
      return true;
    }
  return false;
}

void PrototypeStore::init_geometry(std::size_t expansion, const char* who) {
  // Checked before R is drawn: a positive finite scale and D < 2²⁴ are what
  // make every binary scan's integer keys exact, and d·D < 2²⁶ caps R at
  // 8 MiB of sign bits, so a small store record cannot demand a large
  // allocation or a long draw.
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
  if (dim_ * code_bits_ >= (std::size_t{1} << 26))
    throw std::invalid_argument(std::string(who) + ": LSH projection size d·D = " +
                                std::to_string(dim_) + "·" + std::to_string(code_bits_) +
                                " must be < 2^26");
  // R as sign bits in lane-major planes: bit k % 32 of word [k / 32][j] is
  // set iff R[j, k] = −1. The lane stride pads D to whole code words with
  // R = +1 lanes that the encode computes and masks off. The draw order is
  // Tensor::rademacher({D, d})'s — row-major over R[j, k] — so persisted
  // codes made from lsh_seed stay valid.
  const std::size_t lanes = words_per_row_ * kEncodeLanes;
  auto planes = std::make_shared<std::vector<std::uint32_t>>((dim_ + 31) / 32 * lanes, 0u);
  util::Rng rng(lsh_seed_);
  for (std::size_t j = 0; j < code_bits_; ++j)
    for (std::size_t k = 0; k < dim_; ++k)
      if (rng.rademacher() < 0) (*planes)[k / 32 * lanes + j] |= std::uint32_t{1} << (k % 32);
  sign_planes_ = std::move(planes);
}

void PrototypeStore::encode_rows(const float* rows, std::size_t n,
                                 std::uint64_t* codes) const {
  const std::size_t wpr = words_per_row_;
  if (expansion_ == 1) {
    // Signs are norm-invariant; pack the raw components directly.
    std::fill(codes, codes + n * wpr, std::uint64_t{0});
    for (std::size_t r = 0; r < n; ++r) or_signs(rows + r * dim_, dim_, codes + r * wpr);
    return;
  }
  // Row blocks are independent: fanning them out changes nothing bitwise.
  const EncodeFn encode_block = encode_kernel().load()->fn;
  const std::uint32_t* planes = sign_planes_->data();
  util::parallel_for(
      0, (n + kEncodeRows - 1) / kEncodeRows,
      [&](std::size_t blk) {
        const std::size_t r0 = blk * kEncodeRows;
        encode_block(planes, dim_, wpr, rows + r0 * dim_, std::min(kEncodeRows, n - r0),
                     codes + r0 * wpr);
      },
      /*grain=*/1);
  // Bits at and past D come from the padding lanes: clear them.
  if (const std::size_t tail = code_bits_ % 64; tail != 0)
    for (std::size_t r = 0; r < n; ++r) codes[r * wpr + wpr - 1] &= (std::uint64_t{1} << tail) - 1;
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
