// Cache-blocked single-precision GEMM over raw row-major buffers.
//
// This is the compute core every dense hot path routes through:
// tensor::matmul / matmul_nt / matmul_tn, Linear forward/backward, the
// per-image im2col convolution, and the served projection (through the
// once-packed entry below). The design is the classic three-level blocking
// scheme (BLIS-style):
//
//   * B is packed into NR-wide column panels (KC x NC block),
//   * A is packed into MR-tall row panels (MC x KC block),
//     — each (column-block, row-block) task packs both panels into its own
//     thread-local scratch, so B panels are re-packed once per row block of
//     the same column block (redundancy that is O(k*n) against the O(m*n*k)
//     compute it parallelizes race-free),
//   * a register-tiled MR x NR micro-kernel runs down the shared KC dimension
//     with a local accumulator array the compiler keeps in vector registers.
//
// The micro-kernel is stamped out once per ISA (portable / AVX2+FMA /
// AVX-512) with plain autovectorizable loops — no intrinsics — and the best
// variant the CPU supports is selected once at runtime. Row blocks fan out
// across util::parallel_for workers; transposed operands are handled inside
// the packing routines so all variants share one kernel.
//
// A right-hand operand that many calls share (a served model's frozen
// projection weight) can be packed once into a PackedB;
// gemm_accumulate_packed then runs the same blocking and micro-kernel on
// the stored panels instead of re-packing them per call.
#pragma once

#include <cstddef>
#include <vector>

namespace hdczsc::tensor {

enum class Trans : unsigned char { N, T };

/// C[m,n] += op(A) * op(B) with op(X) = X or X^T.
///
/// All matrices are dense row-major with explicit leading dimensions:
/// op(A)(i,p) reads A[i*lda + p] (Trans::N, A is [m,k]) or A[p*lda + i]
/// (Trans::T, A is [k,m]); op(B) analogously. C is always [m, ldc>=n].
/// Accumulates into C — callers wanting C = A*B zero C first.
///
/// Accumulation is single precision, but structured: each C element is the
/// sum of KC-deep register partial sums spread across NR vector lanes, so
/// rounding error grows with k/KC rather than k (measured ~2e-5 relative at
/// k=65536 on N(0,1) data — tighter than a serial float loop, looser than
/// the old matmul_nt double path; tests pin 1e-4 at k=16384).
void gemm_accumulate(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
                     const float* A, std::size_t lda, const float* B, std::size_t ldb, float* C,
                     std::size_t ldc);

/// op(B) [k, n] packed once into the blocked kernel's NR-wide panels, in
/// the layout gemm_accumulate packs into scratch per call. Packing only
/// moves data, so gemm_accumulate_packed gives the same bits as
/// gemm_accumulate on the source operand. The source must outlive the
/// pack and stay unchanged: products below the blocking cutoff run
/// gemm_naive on it directly, exactly as gemm_accumulate does.
class PackedB {
 public:
  PackedB() = default;
  /// Pack op(B) with op as in gemm_accumulate: B is [k, n] (Trans::N) or
  /// [n, k] (Trans::T) with leading dimension ldb.
  PackedB(Trans tb, std::size_t k, std::size_t n, const float* B, std::size_t ldb);

  std::size_t k() const { return k_; }
  std::size_t n() const { return n_; }

 private:
  friend void gemm_accumulate_packed(Trans ta, std::size_t m, const float* A, std::size_t lda,
                                     const PackedB& B, float* C, std::size_t ldc);
  /// Start of the panels for op(B)[pc:pc+KC, jc:jc+NC].
  std::size_t offset(std::size_t pc, std::size_t jc) const;

  Trans tb_ = Trans::N;
  std::size_t k_ = 0, n_ = 0, ldb_ = 0;
  const float* src_ = nullptr;
  std::size_t nr_ = 0;
  std::vector<float> panels_;
};

/// C[m, n] += op(A) * B for a once-packed B — same contract, bits and
/// threading as gemm_accumulate(ta, tb, m, B.n(), B.k(), A, lda, src, ldb,
/// C, ldc).
void gemm_accumulate_packed(Trans ta, std::size_t m, const float* A, std::size_t lda,
                            const PackedB& B, float* C, std::size_t ldc);

/// Reference implementation with the same contract (triple loop, no packing,
/// no threading). Kept for equivalence tests and speedup benchmarks.
void gemm_naive(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k, const float* A,
                std::size_t lda, const float* B, std::size_t ldb, float* C, std::size_t ldc);

/// Name of the micro-kernel variant selected for this CPU
/// ("avx512" / "avx2" / "portable") — surfaced in benches and logs.
const char* gemm_kernel_name();

}  // namespace hdczsc::tensor
