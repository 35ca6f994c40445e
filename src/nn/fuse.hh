/**
 * @file
 * Fusion planning over Sequential layer chains.
 *
 * Modeled on MIOpen's Fusion API: walk the op sequence once, rewrite
 * supported adjacent patterns (Linear+act, Conv2d+act, norm+act) into
 * fused-solver calls, record every combo that looked fusable but is
 * not supported, and fall back per-op for everything else. The plan
 * is built once per Sequential and executed on the inference path
 * whenever solver::fusionActive() is set.
 */

#ifndef MMBENCH_NN_FUSE_HH
#define MMBENCH_NN_FUSE_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/module.hh"
#include "tensor/ops.hh"

namespace mmbench {
namespace nn {

class Linear;
class Conv2d;
class BatchNorm2d;
class LayerNorm;

/** Fused patterns the planner can rewrite. */
enum class FusePattern : uint8_t
{
    None,         ///< plain per-layer step
    LinearAct,    ///< Linear (GEMM+bias) + activation
    ConvAct,      ///< Conv2d (bias folded) + activation
    BatchNormAct, ///< eval-mode BatchNorm2d + activation
    LayerNormAct, ///< LayerNorm + activation
    ConvBnAct,    ///< Conv2d + eval BatchNorm2d folded (+ activation)
};

/**
 * Lazily folded conv+bn constants (MIOpen's CBA fusion): the eval-mode
 * batchnorm is absorbed into the conv as W' = W * gamma/sqrt(var+eps)
 * and b' = (b - mean) * scale + beta. Folded once on first eval
 * execution and cached; a training forward bumps the BatchNorm2d
 * stats version, which invalidates the cache on the next eval run.
 */
struct ConvBnFold
{
    std::mutex mu;
    bool valid = false;
    int64_t statsVersion = -1; ///< BatchNorm2d::statsVersion() at fold
    Tensor weight;             ///< W' (OIHW, same shape as conv weight)
    Tensor bias;               ///< b' (always defined, length OC)
};

/** One executable step of a fusion plan. */
struct FusedStep
{
    FusePattern pattern = FusePattern::None;
    Layer *single = nullptr; ///< the layer, when pattern == None

    // Fused group (the producer, by concrete type, plus its act).
    Linear *linear = nullptr;
    Conv2d *conv = nullptr;
    BatchNorm2d *bn = nullptr;
    LayerNorm *ln = nullptr;
    Layer *act = nullptr; ///< the activation layer (fallback execution)
    tensor::ActKind actKind = tensor::ActKind::None;

    /** Fold cache, allocated only for ConvBnAct steps. */
    std::shared_ptr<ConvBnFold> fold;
};

/** What the planner found (the MIOpen-style explicit fusion report). */
struct FusionReport
{
    int totalLayers = 0;
    int fusedGroups = 0; ///< adjacent pairs rewritten into one kernel
    int fusedLayers = 0; ///< layers absorbed into those groups
    /** Canonical pattern name per fused group ("linear+bias+relu"). */
    std::vector<std::string> patterns;
    /**
     * Adjacent combos that looked fusable but are unsupported; each
     * entry names the pair and why it falls back per-op.
     */
    std::vector<std::string> unsupported;
};

/** The compiled plan for one Sequential. */
struct FusionPlan
{
    std::vector<FusedStep> steps;
    FusionReport report;
};

/** Walk the chain once and compile its plan. */
std::shared_ptr<const FusionPlan> buildFusionPlan(Sequential &seq);

/**
 * Execute a plan. Must run with gradients disabled (the fused ops
 * return leaf Vars). Training-mode BatchNorm steps fall back to the
 * unfused pair — batch statistics and running-stat updates cannot
 * fuse — as does any step whose producer currently has no applicable
 * fused solver.
 */
Var runFusionPlan(const FusionPlan &plan, const Var &x);

/**
 * Hand-forward fusion helpers: producer + activation as one fused
 * solver call whenever the fused path is active (solver::fusionActive()
 * with gradients disabled), the exact unfused pair otherwise. These
 * cover the workloads whose forwards are hand-written expressions
 * rather than Sequential chains (medical-seg skip selects, transfuser
 * hidden init, the residual/UNet encoder norms) — without them those
 * graphs plan zero fused groups and `--fusion-kernels on` is a no-op. ReLU
 * epilogues are bitwise identical to the unfused pair; modules using
 * these should declareFusedPair(fusedPairName(...)) at construction so
 * the graph-level fusion report counts the site. @{
 */
Var fusedLinearAct(Linear &fc, const Var &x, tensor::ActKind act);
Var fusedConv2dAct(Conv2d &conv, const Var &x, tensor::ActKind act);
Var fusedBatchNormAct(BatchNorm2d &bn, const Var &x,
                      tensor::ActKind act);

/** Canonical pattern names for declareFusedPair(). @{ */
std::string fusedPairName(const Linear &fc, tensor::ActKind act);
std::string fusedPairName(const Conv2d &conv, tensor::ActKind act);
std::string fusedPairName(const BatchNorm2d &bn, tensor::ActKind act);
/** @} @} */

} // namespace nn
} // namespace mmbench

#endif // MMBENCH_NN_FUSE_HH
