#include "hdc/hypervector.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace hdczsc::hdc {

namespace {
void check_same_dim(std::size_t a, std::size_t b, const char* op) {
  if (a != b)
    throw std::invalid_argument(std::string(op) + ": dimension mismatch " + std::to_string(a) +
                                " vs " + std::to_string(b));
}
}  // namespace

// ---------------------------------------------------------------------------
// BipolarHV
// ---------------------------------------------------------------------------

BipolarHV BipolarHV::random(std::size_t dim, util::Rng& rng) {
  std::vector<std::int8_t> v(dim);
  for (auto& x : v) x = static_cast<std::int8_t>(rng.rademacher());
  return BipolarHV(std::move(v));
}

BipolarHV BipolarHV::bind(const BipolarHV& other) const {
  check_same_dim(dim(), other.dim(), "BipolarHV::bind");
  std::vector<std::int8_t> out(dim());
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = static_cast<std::int8_t>(v_[i] * other.v_[i]);
  return BipolarHV(std::move(out));
}

BipolarHV BipolarHV::permute(long k) const {
  const long d = static_cast<long>(dim());
  if (d == 0) return *this;
  long shift = ((k % d) + d) % d;
  std::vector<std::int8_t> out(dim());
  for (long i = 0; i < d; ++i) out[static_cast<std::size_t>((i + shift) % d)] = v_[i];
  return BipolarHV(std::move(out));
}

long BipolarHV::dot(const BipolarHV& other) const {
  check_same_dim(dim(), other.dim(), "BipolarHV::dot");
  long s = 0;
  for (std::size_t i = 0; i < dim(); ++i) s += static_cast<long>(v_[i]) * other.v_[i];
  return s;
}

double BipolarHV::cosine(const BipolarHV& other) const {
  if (dim() == 0) return 0.0;
  return static_cast<double>(dot(other)) / static_cast<double>(dim());
}

BinaryHV BipolarHV::to_binary() const {
  BinaryHV b(dim());
  for (std::size_t i = 0; i < dim(); ++i) b.set(i, v_[i] < 0);
  return b;
}

tensor::Tensor BipolarHV::to_tensor() const {
  tensor::Tensor t({dim()});
  for (std::size_t i = 0; i < dim(); ++i) t[i] = static_cast<float>(v_[i]);
  return t;
}

// ---------------------------------------------------------------------------
// BundleAccumulator
// ---------------------------------------------------------------------------

void BundleAccumulator::add(const BipolarHV& hv) { add_weighted(hv, 1); }

void BundleAccumulator::add_weighted(const BipolarHV& hv, long weight) {
  check_same_dim(dim(), hv.dim(), "BundleAccumulator::add");
  for (std::size_t i = 0; i < sums_.size(); ++i) sums_[i] += weight * hv[i];
  ++count_;
}

BipolarHV BundleAccumulator::finalize(util::Rng& rng) const {
  std::vector<std::int8_t> out(sums_.size());
  for (std::size_t i = 0; i < sums_.size(); ++i) {
    if (sums_[i] > 0) out[i] = +1;
    else if (sums_[i] < 0) out[i] = -1;
    else out[i] = static_cast<std::int8_t>(rng.rademacher());
  }
  return BipolarHV(std::move(out));
}

// ---------------------------------------------------------------------------
// BinaryHV
// ---------------------------------------------------------------------------

BinaryHV::BinaryHV(std::size_t dim) : dim_(dim), words_((dim + 63) / 64, 0) {}

void BinaryHV::mask_tail() {
  const std::size_t tail = dim_ % 64;
  if (tail != 0 && !words_.empty())
    words_.back() &= (std::uint64_t{1} << tail) - 1;
}

BinaryHV BinaryHV::from_words(std::size_t dim, std::vector<std::uint64_t> words) {
  if (words.size() != (dim + 63) / 64)
    throw std::invalid_argument("BinaryHV::from_words: " + std::to_string(words.size()) +
                                " words for dim " + std::to_string(dim));
  BinaryHV b;
  b.dim_ = dim;
  b.words_ = std::move(words);
  b.mask_tail();
  return b;
}

BinaryHV BinaryHV::random(std::size_t dim, util::Rng& rng) {
  BinaryHV b(dim);
  for (auto& w : b.words_) w = rng.next_u64();
  b.mask_tail();
  return b;
}

bool BinaryHV::get(std::size_t i) const {
  if (i >= dim_) throw std::out_of_range("BinaryHV::get: index out of range");
  return (words_[i / 64] >> (i % 64)) & 1;
}

void BinaryHV::set(std::size_t i, bool value) {
  if (i >= dim_) throw std::out_of_range("BinaryHV::set: index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % 64);
  if (value) words_[i / 64] |= mask;
  else words_[i / 64] &= ~mask;
}

BinaryHV BinaryHV::bind(const BinaryHV& other) const {
  check_same_dim(dim_, other.dim_, "BinaryHV::bind");
  BinaryHV out(dim_);
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] = words_[i] ^ other.words_[i];
  return out;
}

std::size_t BinaryHV::hamming(const BinaryHV& other) const {
  check_same_dim(dim_, other.dim_, "BinaryHV::hamming");
  std::size_t h = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    h += static_cast<std::size_t>(std::popcount(words_[i] ^ other.words_[i]));
  return h;
}

double BinaryHV::similarity(const BinaryHV& other) const {
  if (dim_ == 0) return 0.0;
  return 1.0 - 2.0 * static_cast<double>(hamming(other)) / static_cast<double>(dim_);
}

BipolarHV BinaryHV::to_bipolar() const {
  std::vector<std::int8_t> v(dim_);
  for (std::size_t i = 0; i < dim_; ++i) v[i] = get(i) ? -1 : +1;
  return BipolarHV(std::move(v));
}

namespace {

// The packed-scan kernels are stamped per ISA, mirroring tensor/gemm.cpp:
// the build targets baseline x86-64 (no POPCNT instruction), where
// std::popcount lowers to a ~12-op bit-twiddling sequence. A variant
// compiled with the popcnt target attribute turns every count into one
// 1/cycle instruction; the best variant the CPU supports is picked once at
// runtime via __builtin_cpu_supports. Each kernel starts a cache line, as
// the GEMM and encode kernels do, so unrelated code motion cannot shift
// where its hot loop falls.
#define HDCZSC_DEFINE_HAMMING_KERNEL(suffix, attrs)                                         \
  attrs __attribute__((aligned(64))) static void hamming_rows_##suffix(                     \
      const std::uint64_t* query, const std::uint64_t* rows, std::size_t row_begin,         \
      std::size_t row_end, std::size_t words, std::uint32_t* out) {                         \
    for (std::size_t i = row_begin; i < row_end; ++i) {                                     \
      const std::uint64_t* row = rows + i * words;                                          \
      std::uint32_t h = 0;                                                                  \
      std::size_t w = 0;                                                                    \
      /* 4-way unroll: keeps four independent popcount chains in flight. */                 \
      for (; w + 4 <= words; w += 4) {                                                      \
        h += static_cast<std::uint32_t>(std::popcount(query[w] ^ row[w])) +                 \
             static_cast<std::uint32_t>(std::popcount(query[w + 1] ^ row[w + 1])) +         \
             static_cast<std::uint32_t>(std::popcount(query[w + 2] ^ row[w + 2])) +         \
             static_cast<std::uint32_t>(std::popcount(query[w + 3] ^ row[w + 3]));          \
      }                                                                                     \
      for (; w < words; ++w)                                                                \
        h += static_cast<std::uint32_t>(std::popcount(query[w] ^ row[w]));                  \
      out[i] = h;                                                                           \
    }                                                                                       \
  }                                                                                         \
  /* Query-blocked sweep: each prototype row is loaded once and scored      */              \
  /* against four queries while it sits in registers — four independent     */              \
  /* popcount chains (the single-query kernel is latency-bound on one       */              \
  /* chain at small `words`), and 1/4 the row-stream traffic.               */              \
  attrs __attribute__((aligned(64))) static void hamming_multi_##suffix(                    \
      const std::uint64_t* queries, std::size_t n_queries, const std::uint64_t* rows,       \
      std::size_t n_rows, std::size_t words, std::uint32_t* out) {                          \
    std::size_t q = 0;                                                                      \
    for (; q + 4 <= n_queries; q += 4) {                                                    \
      const std::uint64_t* q0 = queries + (q + 0) * words;                                  \
      const std::uint64_t* q1 = queries + (q + 1) * words;                                  \
      const std::uint64_t* q2 = queries + (q + 2) * words;                                  \
      const std::uint64_t* q3 = queries + (q + 3) * words;                                  \
      std::uint32_t* o0 = out + (q + 0) * n_rows;                                           \
      std::uint32_t* o1 = out + (q + 1) * n_rows;                                           \
      std::uint32_t* o2 = out + (q + 2) * n_rows;                                           \
      std::uint32_t* o3 = out + (q + 3) * n_rows;                                           \
      for (std::size_t i = 0; i < n_rows; ++i) {                                            \
        const std::uint64_t* row = rows + i * words;                                        \
        std::uint32_t h0 = 0, h1 = 0, h2 = 0, h3 = 0;                                       \
        for (std::size_t w = 0; w < words; ++w) {                                           \
          const std::uint64_t rw = row[w];                                                  \
          h0 += static_cast<std::uint32_t>(std::popcount(q0[w] ^ rw));                      \
          h1 += static_cast<std::uint32_t>(std::popcount(q1[w] ^ rw));                      \
          h2 += static_cast<std::uint32_t>(std::popcount(q2[w] ^ rw));                      \
          h3 += static_cast<std::uint32_t>(std::popcount(q3[w] ^ rw));                      \
        }                                                                                   \
        o0[i] = h0;                                                                         \
        o1[i] = h1;                                                                         \
        o2[i] = h2;                                                                         \
        o3[i] = h3;                                                                         \
      }                                                                                     \
    }                                                                                       \
    for (; q < n_queries; ++q)                                                              \
      hamming_rows_##suffix(queries + q * words, rows, 0, n_rows, words, out + q * n_rows); \
  }

HDCZSC_DEFINE_HAMMING_KERNEL(portable, )
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HDCZSC_HAMMING_X86_DISPATCH 1
HDCZSC_DEFINE_HAMMING_KERNEL(popcnt, __attribute__((target("popcnt"))))
#endif

using HammingRowsFn = void (*)(const std::uint64_t*, const std::uint64_t*, std::size_t,
                               std::size_t, std::size_t, std::uint32_t*);
using HammingMultiFn = void (*)(const std::uint64_t*, std::size_t, const std::uint64_t*,
                                std::size_t, std::size_t, std::uint32_t*);

struct HammingKernels {
  HammingRowsFn rows;
  HammingMultiFn multi;
  const char* name;
};

HammingKernels pick_hamming_kernels() {
#if defined(HDCZSC_HAMMING_X86_DISPATCH)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("popcnt"))
    return {hamming_rows_popcnt, hamming_multi_popcnt, "popcnt"};
#endif
  return {hamming_rows_portable, hamming_multi_portable, "portable"};
}

/// Current selection — runtime-dispatched once, overridable via
/// set_hamming_kernel (tests pin a variant to cover both code paths on
/// whatever CPU runs them).
HammingKernels& hamming_kernels() {
  static HammingKernels k = pick_hamming_kernels();
  return k;
}

}  // namespace

const char* hamming_kernel_name() { return hamming_kernels().name; }

bool set_hamming_kernel(const char* name) {
  const std::string want = name ? name : "";
  if (want == "auto") {
    hamming_kernels() = pick_hamming_kernels();
    return true;
  }
  if (want == "portable") {
    hamming_kernels() = {hamming_rows_portable, hamming_multi_portable, "portable"};
    return true;
  }
#if defined(HDCZSC_HAMMING_X86_DISPATCH)
  if (want == "popcnt" && __builtin_cpu_supports("popcnt")) {
    hamming_kernels() = {hamming_rows_popcnt, hamming_multi_popcnt, "popcnt"};
    return true;
  }
#endif
  return false;
}

namespace {
/// Profiling hook (obs::set_profiling_enabled): wall time of each top-level
/// packed-Hamming scan, single- and multi-query alike. With profiling off
/// the ScopedTimer reads no clock.
obs::Histogram* hamming_hist() {
  static const std::shared_ptr<obs::Histogram> h = obs::default_registry().histogram(
      "hdc_hamming_scan_ms", {}, "wall time of one packed-Hamming prototype scan");
  return h.get();
}
}  // namespace

void hamming_many_packed_multi(const std::uint64_t* queries, std::size_t n_queries,
                               const std::uint64_t* rows, std::size_t n_rows,
                               std::size_t words, std::uint32_t* out) {
  const obs::ScopedTimer profile(hamming_hist());
  hamming_kernels().multi(queries, n_queries, rows, n_rows, words, out);
}

void hamming_many_packed(const std::uint64_t* query, const std::uint64_t* rows,
                         std::size_t n_rows, std::size_t words, std::uint32_t* out) {
  const obs::ScopedTimer profile(hamming_hist());
  // Small scans (the common per-query serving case) stay on the calling
  // thread: the XOR+popcount sweep through a few KiB beats any hand-off.
  // Large label spaces — the prototype-store sharding regime — fan the
  // prototype rows out across workers in contiguous chunks.
  constexpr std::size_t kSequentialWords = std::size_t{1} << 15;  // 256 KiB of codes
  const HammingRowsFn sweep = hamming_kernels().rows;
  if (words == 0 || n_rows * words < kSequentialWords) {
    sweep(query, rows, 0, n_rows, words, out);
    return;
  }
  const std::size_t grain = std::max<std::size_t>(64, kSequentialWords / (4 * words));
  util::parallel_for_chunks(0, n_rows, [&](std::size_t i0, std::size_t i1) {
    sweep(query, rows, i0, i1, words, out);
  }, grain);
}

std::vector<std::size_t> hamming_many(const BinaryHV& query,
                                      const std::vector<BinaryHV>& prototypes) {
  // Each prototype's word buffer is scanned in place — no repacking; hot
  // paths that want one contiguous sweep pre-pack once (see
  // serve::PrototypeStore) and call hamming_many_packed directly.
  const std::size_t words = query.words().size();
  std::vector<std::size_t> out(prototypes.size());
  for (std::size_t i = 0; i < prototypes.size(); ++i) {
    check_same_dim(query.dim(), prototypes[i].dim(), "hamming_many");
    std::uint32_t h = 0;
    hamming_many_packed(query.words().data(), prototypes[i].words().data(), 1, words, &h);
    out[i] = h;
  }
  return out;
}

double mean_abs_pairwise_cosine(const std::vector<BipolarHV>& hvs) {
  if (hvs.size() < 2) return 0.0;
  double s = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < hvs.size(); ++i)
    for (std::size_t j = i + 1; j < hvs.size(); ++j) {
      s += std::abs(hvs[i].cosine(hvs[j]));
      ++pairs;
    }
  return s / static_cast<double>(pairs);
}

}  // namespace hdczsc::hdc
