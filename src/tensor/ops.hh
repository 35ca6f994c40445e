/**
 * @file
 * The tensor operator library.
 *
 * Every operator performs the functional computation on the CPU and
 * emits one KernelEvent describing the equivalent GPU kernel launch
 * (kernel class per the Fig. 8 taxonomy, FLOPs, bytes moved). The
 * mapping of operators to kernel classes is:
 *
 *   Conv    — conv2d (forward and the two backward kernels)
 *   BNorm   — batchnorm2d, layernorm
 *   Elewise — binary/unary pointwise math, dropout, sigmoid/tanh/gelu
 *   Pooling — max/avg pooling, nearest-neighbour upsampling
 *   Relu    — relu forward/backward (its own class in the paper)
 *   Gemm    — matmul / batched matmul / outer products
 *   Reduce  — sums, means, maxima, argmax, softmax
 *   Other   — data movement: transpose, concat, slice, pad, gather
 */

#ifndef MMBENCH_TENSOR_OPS_HH
#define MMBENCH_TENSOR_OPS_HH

#include <cmath>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "tensor/tensor.hh"

namespace mmbench {
namespace tensor {

/**
 * @name Fused-epilogue support
 *
 * Activation applied inside a producer kernel's write-back (the
 * solver registry's fused GEMM/conv/norm variants). applyAct must
 * stay expression-identical to the standalone unary kernels in
 * ops_elementwise.cc: the fused kernels read the fully accumulated
 * output element and apply the very same float operations, so a
 * fused ReLU epilogue is bitwise identical to the separate pass.
 * @{
 */
enum class ActKind : uint8_t
{
    None,
    Relu,
    Sigmoid,
    Tanh,
    Gelu,
};

/** Short name ("relu", ...); "none" for ActKind::None. */
const char *actKindName(ActKind act);

/** FLOPs per element the standalone activation kernel reports. */
inline uint64_t
actFlops(ActKind act)
{
    switch (act) {
      case ActKind::None:    return 0;
      case ActKind::Relu:    return 1;
      case ActKind::Sigmoid: return 4;
      case ActKind::Tanh:    return 4;
      case ActKind::Gelu:    return 8;
    }
    return 0;
}

/** The exact per-element math of the standalone activation kernels. */
inline float
applyAct(ActKind act, float x)
{
    switch (act) {
      case ActKind::None:
        return x;
      case ActKind::Relu:
        return x > 0.0f ? x : 0.0f;
      case ActKind::Sigmoid:
        return 1.0f / (1.0f + std::exp(-x));
      case ActKind::Tanh:
        return std::tanh(x);
      case ActKind::Gelu: {
        // tanh approximation of GELU, as used by most frameworks.
        const float c = 0.7978845608f; // sqrt(2/pi)
        const float inner = c * (x + 0.044715f * x * x * x);
        return 0.5f * x * (1.0f + std::tanh(inner));
      }
    }
    return x;
}

/**
 * Call `fn` with the activation kind lifted to a compile-time
 * constant (a `std::integral_constant<ActKind, A>`). Epilogue loops
 * dispatch once per row/plane so applyAct's switch constant-folds
 * away; a runtime `act` inside the hot loop drags the transcendental
 * branches in and defeats vectorization of the cheap activations.
 */
template <typename Fn>
inline void
dispatchAct(ActKind act, Fn &&fn)
{
    switch (act) {
      case ActKind::None:
        fn(std::integral_constant<ActKind, ActKind::None>{});
        break;
      case ActKind::Relu:
        fn(std::integral_constant<ActKind, ActKind::Relu>{});
        break;
      case ActKind::Sigmoid:
        fn(std::integral_constant<ActKind, ActKind::Sigmoid>{});
        break;
      case ActKind::Tanh:
        fn(std::integral_constant<ActKind, ActKind::Tanh>{});
        break;
      case ActKind::Gelu:
        fn(std::integral_constant<ActKind, ActKind::Gelu>{});
        break;
    }
}

/** GEMM implementation selector (solver-registry candidates). */
enum class GemmAlgo : uint8_t
{
    Auto,   ///< production heuristic: blocked, tiny-shape direct path
    Direct, ///< plain i-k-j loop at any size (tiny-shape candidate)
};

/** Convolution implementation selector (solver-registry candidates). */
enum class ConvAlgo : uint8_t
{
    Auto,   ///< production heuristic (direct below the MAC limit)
    Im2col, ///< force im2col + blocked GEMM
    Direct, ///< force the direct loop
};
/** @} */

/** @name Elementwise binary (NumPy broadcasting) @{ */
Tensor add(const Tensor &a, const Tensor &b);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor mul(const Tensor &a, const Tensor &b);
Tensor div(const Tensor &a, const Tensor &b);
/** @} */

/** @name Elementwise with scalar @{ */
Tensor addScalar(const Tensor &a, float s);
Tensor mulScalar(const Tensor &a, float s);
/** @} */

/** @name Elementwise unary @{ */
Tensor neg(const Tensor &a);
Tensor reluF(const Tensor &a);
Tensor sigmoidF(const Tensor &a);
Tensor tanhF(const Tensor &a);
Tensor geluF(const Tensor &a);
Tensor expF(const Tensor &a);
Tensor logF(const Tensor &a);
Tensor sqrtF(const Tensor &a);
Tensor squareF(const Tensor &a);
Tensor absF(const Tensor &a);
Tensor clampF(const Tensor &a, float lo, float hi);
/** Elementwise mask: 1.0 where a > 0, else 0.0 (relu backward). */
Tensor gtZeroMask(const Tensor &a);
/** @} */

/** @name Matrix multiplication @{
 * Supported shapes: (M,K)x(K,N); (B,M,K)x(B,K,N); (B,M,K)x(K,N);
 * higher-rank batched forms with matching leading dimensions.
 */
Tensor matmul(const Tensor &a, const Tensor &b);
/**
 * a @ b^T with b stored (..., N, K). Equivalent to
 * matmul(a, swapDims(b, -2, -1)) but reads b through strides instead
 * of materializing the transpose (cuBLAS op_t analog).
 */
Tensor matmulNT(const Tensor &a, const Tensor &b);
/** a^T @ b with a stored (..., K, M); strided, no transpose copy. */
Tensor matmulTN(const Tensor &a, const Tensor &b);
/** Batched outer product: (B,m) x (B,n) -> (B,m,n). */
Tensor outerBatch(const Tensor &a, const Tensor &b);
/** @} */

/** @name Layout @{ */
/** 2-D transpose (copies). */
Tensor transpose2d(const Tensor &a);
/** General dimension permutation (copies). */
Tensor permute(const Tensor &a, const std::vector<int> &order);
/** Swap two dimensions (copies). */
Tensor swapDims(const Tensor &a, int d0, int d1);
/** @} */

/** @name Reductions @{ */
Tensor sumAll(const Tensor &a);
Tensor meanAll(const Tensor &a);
/** Reduce one axis; result drops the axis unless keepdim. */
Tensor sumAxis(const Tensor &a, int axis, bool keepdim = false);
Tensor meanAxis(const Tensor &a, int axis, bool keepdim = false);
Tensor maxAxis(const Tensor &a, int axis, bool keepdim = false);
/** Index of the max element along the last axis. */
Tensor argmaxLast(const Tensor &a);
/** Numerically stable softmax over the last axis. */
Tensor softmaxLast(const Tensor &a);
/** Numerically stable log-softmax over the last axis. */
Tensor logSoftmaxLast(const Tensor &a);
/** @} */

/** @name Shape manipulation (copying) @{ */
Tensor concat(const std::vector<Tensor> &parts, int axis);
/** Split into n equal chunks along axis. */
std::vector<Tensor> chunk(const Tensor &a, int n, int axis);
/** Contiguous sub-range [start, start+len) of one axis. */
Tensor narrow(const Tensor &a, int axis, int64_t start, int64_t len);
/** Zero-pad the two innermost (spatial) dimensions of an NCHW tensor. */
Tensor pad2d(const Tensor &a, int pad);
/** Broadcast-expand a tensor to a target shape (copies). */
Tensor expandTo(const Tensor &a, const Shape &target);
/** @} */

/** @name Convolution / pooling (NCHW) @{ */
/**
 * 2-D convolution. x: (N,C,H,W), w: (OC,C,KH,KW), optional bias (OC).
 * Emitted as a single Conv-class kernel (implicit-GEMM style).
 */
Tensor conv2d(const Tensor &x, const Tensor &w, const Tensor &b,
              int stride, int pad);
/** Gradient of conv2d w.r.t. its input. */
Tensor conv2dGradInput(const Tensor &grad_out, const Tensor &w,
                       const Shape &x_shape, int stride, int pad);
/** Gradient of conv2d w.r.t. its weight. */
Tensor conv2dGradWeight(const Tensor &grad_out, const Tensor &x,
                        const Shape &w_shape, int stride, int pad);

/** Max pooling; indices receives flat argmax positions for backward. */
Tensor maxpool2d(const Tensor &x, int kernel, int stride,
                 Tensor *indices = nullptr);
/** Scatter grad back through recorded maxpool indices. */
Tensor maxpool2dBackward(const Tensor &grad_out, const Tensor &indices,
                         const Shape &x_shape);
Tensor avgpool2d(const Tensor &x, int kernel, int stride);
Tensor avgpool2dBackward(const Tensor &grad_out, const Shape &x_shape,
                         int kernel, int stride);
/** Global average over spatial dims: (N,C,H,W) -> (N,C). */
Tensor globalAvgPool(const Tensor &x);
/** Nearest-neighbour 2x spatial upsampling. */
Tensor upsampleNearest2x(const Tensor &x);
Tensor upsampleNearest2xBackward(const Tensor &grad_out);
/** @} */

/** @name Normalization @{ */
/**
 * Batch normalization over (N,H,W) per channel of an NCHW tensor.
 * In training mode computes batch statistics (returned via saved_mean
 * / saved_invstd and folded into running stats); in inference mode
 * uses the running statistics.
 */
Tensor batchnorm2d(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                   Tensor &running_mean, Tensor &running_var, bool training,
                   float momentum, float eps, Tensor *saved_mean = nullptr,
                   Tensor *saved_invstd = nullptr);
/** Layer normalization over the last dimension. */
Tensor layernorm(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 float eps, Tensor *saved_mean = nullptr,
                 Tensor *saved_invstd = nullptr);

/**
 * Training-mode batchnorm2d backward from saved batch statistics.
 * Returns grad_x; accumulates parameter grads into grad_gamma/grad_beta
 * (which must be zero-initialized (C) tensors).
 */
Tensor batchnorm2dBackward(const Tensor &grad_out, const Tensor &x,
                           const Tensor &gamma, const Tensor &saved_mean,
                           const Tensor &saved_invstd, Tensor &grad_gamma,
                           Tensor &grad_beta);

/** Layernorm backward from saved row statistics; same contract. */
Tensor layernormBackward(const Tensor &grad_out, const Tensor &x,
                         const Tensor &gamma, const Tensor &saved_mean,
                         const Tensor &saved_invstd, Tensor &grad_gamma,
                         Tensor &grad_beta);
/** @} */

/** @name Fused kernels (solver-registry candidates) @{
 * One pass over the output instead of two or three: bias and/or
 * activation are applied at the producer kernel's write-back while the
 * tile is cache-hot. Each emits a single `fused:<pattern>` KernelEvent
 * under the producer's kernel class (Gemm / Conv / BNorm) so the
 * Fig. 8 class breakdown stays comparable across --fusion-kernels on|off.
 * With GemmAlgo/ConvAlgo::Auto and ActKind::Relu the results are
 * bitwise identical to the unfused kernel sequence (the epilogue reads
 * the fully accumulated element and applies the exact same float ops);
 * other activations and non-default algos are epsilon-equivalent.
 */
/**
 * act(x @ w + b): fused GEMM + bias + activation. b may be undefined
 * (no bias). Same shape rules as matmul with a rank-1 (N) bias
 * broadcast over rows.
 */
Tensor linearAct(const Tensor &x, const Tensor &w, const Tensor &b,
                 ActKind act, GemmAlgo algo = GemmAlgo::Auto);
/** act(conv2d(x, w, b)): activation fused into the conv write-back. */
Tensor conv2dAct(const Tensor &x, const Tensor &w, const Tensor &b,
                 int stride, int pad, ActKind act,
                 ConvAlgo algo = ConvAlgo::Auto);
/** act(layernorm(x)): activation fused into the normalization write. */
Tensor layernormAct(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                    float eps, ActKind act);
/**
 * act(batchnorm2d(x)) using running statistics (inference mode only —
 * the fused path never runs in training, where batch statistics and
 * running-stat updates are required).
 */
Tensor batchnorm2dEvalAct(const Tensor &x, const Tensor &gamma,
                          const Tensor &beta, const Tensor &running_mean,
                          const Tensor &running_var, float eps, ActKind act);
/** @} */

/** @name Reduced precision (the dtype axis; see dtype.hh) @{
 * Explicit cast/quantize operators plus mixed-input GEMM and conv
 * entry points over reduced-precision operands. bf16/f16 kernels
 * convert while packing and accumulate in f32; the i8 conv forward
 * quantizes both operands and accumulates in i32 (the MIOpen
 * support-matrix approach). Casts emit one Elewise-class event each;
 * the GEMM/conv variants emit Gemm/Conv events named after the dtype
 * so bench/ops_micro can attribute the bandwidth saving.
 */
/** Deterministic symmetric per-tensor i8 scale: maxAbs(a) / 127. */
float quantScaleFor(const Tensor &a);
/** Cast an f32 tensor to `dt` (per-tensor quantization for I8). */
Tensor castTo(const Tensor &a, DType dt);
/** Cast / dequantize any tensor back to f32 (f32 input: deep copy). */
Tensor castFrom(const Tensor &a);
/** Quantize f32 -> i8; scale <= 0 selects quantScaleFor(a). */
Tensor quantizeI8(const Tensor &a, float scale = 0.0f);
/**
 * Process-wide cache of weight casts keyed by (storage, dtype). The
 * entry pins the source storage so the key cannot be recycled, and
 * the cache is dropped on DTypeScope install/teardown. Safe to call
 * from concurrent serve workers.
 */
Tensor castWeightCached(const Tensor &w, DType dt);
/**
 * act(x @ w + b): mixed-input GEMM. x may be f32 or reduced, w any
 * dtype; both are read through converting pack loops and accumulated
 * in f32. The bias is f32 and the output is f32.
 */
Tensor linearActDt(const Tensor &x, const Tensor &w, const Tensor &b,
                   ActKind act);
/**
 * Reduced-precision conv2d forward. x is f32, w must be reduced.
 * `cast_input` additionally lowers the im2col operand to w's dtype
 * (halving the dominant GEMM-operand bandwidth); otherwise the
 * columns stay f32 (weights-only mixed input). bf16/f16 accumulate
 * in f32; i8 always quantizes the input and accumulates in i32.
 * Bias and output are f32.
 */
Tensor conv2dActDt(const Tensor &x, const Tensor &w, const Tensor &b,
                   int stride, int pad, ActKind act, bool cast_input);
/** Elementwise add of two same-dtype reduced tensors (f32 math). */
Tensor addDt(const Tensor &a, const Tensor &b);
/** ReLU on a reduced tensor (same dtype out; exact for i8). */
Tensor reluDt(const Tensor &a);
/** Layernorm over the last dim: f32 statistics, reduced in/out. */
Tensor layernormDt(const Tensor &x, const Tensor &gamma,
                   const Tensor &beta, float eps);
/** @} */

/** @name Lookup @{ */
/** Gather rows of weight (V,D) by ids (any shape) -> ids.shape x D. */
Tensor embedding(const Tensor &weight, const Tensor &ids);
/** Scatter-add grad rows into a (V,D) weight-gradient tensor. */
Tensor embeddingBackward(const Tensor &grad_out, const Tensor &ids,
                         int64_t vocab);
/** @} */

/** @name Stochastic @{ */
/** Bernoulli keep-mask scaled by 1/(1-p) (inverted dropout). */
Tensor dropoutMask(const Shape &shape, float p, Rng &rng);
/** @} */

/** @name Test/debug helpers (no kernel events) @{ */
/** Max |a - b| over all elements; shapes must match. */
float maxAbsDiff(const Tensor &a, const Tensor &b);
/** True if max |a - b| <= tol. */
bool allClose(const Tensor &a, const Tensor &b, float tol = 1e-5f);
/**
 * Naive single-threaded GEMM (same shape rules as matmul). The
 * numerical reference the blocked kernel is tested against, and the
 * seed-era baseline bench/ops_micro measures speedups against.
 */
Tensor matmulReference(const Tensor &a, const Tensor &b);
/** Naive single-threaded direct convolution (same contract as conv2d). */
Tensor conv2dReference(const Tensor &x, const Tensor &w, const Tensor &b,
                       int stride, int pad);
/** @} */

} // namespace tensor
} // namespace mmbench

#endif // MMBENCH_TENSOR_OPS_HH
