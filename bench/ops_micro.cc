/**
 * @file
 * Microbenchmarks of the tensor operator library — the CPU reference
 * backend's own performance (not the simulated device). Reports
 * GFLOP/s (or GB/s for bandwidth-bound kernels) per kernel, measures
 * the blocked/parallel hot paths against the naive seed-era reference
 * kernels, and emits a CSV so the perf trajectory can be tracked
 * across PRs.
 *
 * Usage: ops_micro [--csv <path>] [--json <path>] [--quick]
 *   --csv    output CSV path (default: ops_micro.csv)
 *   --json   also emit JSON Lines in the runner's
 *            "mmbench-result-v1" schema (kind "micro"), so kernel
 *            microbenchmarks land in the same trajectory file as
 *            `mmbench run --json` workload results
 *   --quick  fewer repetitions (CI smoke mode)
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <fstream>

#include "common.hh"
#include "core/csv.hh"
#include "core/json.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/table.hh"
#include "runner/experiment.hh"
#include "runner/runresult.hh"
#include "runner/sink.hh"
#include "tensor/ops.hh"

using namespace mmbench;
using tensor::Shape;
using tensor::Tensor;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Result
{
    std::string kernel;
    std::string shape;
    std::string dtype = "f32"; ///< compute dtype of the kernel
    double ms = 0.0;      ///< best-of-reps wall time
    double gflops = 0.0;  ///< 0 when the kernel is bandwidth-bound
    double gbps = 0.0;    ///< 0 when the kernel is compute-bound
    /** All repetition wall times (us) for the JSON percentiles. */
    runner::LatencyStats latencyUs;
};

/**
 * Time fn (already warmed up once) for up to `budget_s` seconds or
 * `max_reps` repetitions; returns every per-rep wall time in
 * microseconds. Throughput is still reported from the best run — the
 * least-disturbed sample on a shared machine.
 */
template <typename F>
std::vector<double>
sampleUs(F fn, double budget_s, int max_reps)
{
    fn(); // warmup (page faults, pool spin-up)
    std::vector<double> samples;
    const double t_end = now() + budget_s;
    for (int rep = 0; rep < max_reps; ++rep) {
        const double t0 = now();
        fn();
        samples.push_back((now() - t0) * 1e6);
        if (now() > t_end && rep >= 2)
            break;
    }
    return samples;
}

class Harness
{
  public:
    explicit Harness(bool quick)
        : quick_(quick), budgetS_(quick ? 0.1 : 0.5),
          maxReps_(quick ? 3 : 20)
    {
    }

    /** Compute-bound kernel: reported as GFLOP/s. */
    template <typename F>
    void
    compute(const std::string &kernel, const std::string &shape,
            double flops, F fn)
    {
        record(kernel, shape, flops, 0.0, fn);
    }

    /** Compute-bound reduced-precision kernel (dtype column). */
    template <typename F>
    void
    computeDt(const std::string &kernel, const std::string &shape,
              tensor::DType dt, double flops, F fn)
    {
        record(kernel, shape, flops, 0.0, fn);
        results_.back().dtype = tensor::dtypeName(dt);
    }

    /** Bandwidth-bound kernel: reported as GB/s. */
    template <typename F>
    void
    bandwidth(const std::string &kernel, const std::string &shape,
              double bytes, F fn)
    {
        record(kernel, shape, 0.0, bytes, fn);
    }

    template <typename F>
    void
    record(const std::string &kernel, const std::string &shape,
           double flops, double bytes, F fn)
    {
        Result r;
        r.kernel = kernel;
        r.shape = shape;
        r.latencyUs =
            runner::LatencyStats::fromSamples(sampleUs(fn, budgetS_,
                                                       maxReps_));
        r.ms = r.latencyUs.min * 1e-3;
        const double seconds = r.ms * 1e-3;
        r.gflops = flops > 0.0 ? flops / seconds / 1e9 : 0.0;
        r.gbps = bytes > 0.0 ? bytes / seconds / 1e9 : 0.0;
        results_.push_back(r);
    }

    const Result *
    find(const std::string &kernel) const
    {
        for (const auto &r : results_) {
            if (r.kernel == kernel)
                return &r;
        }
        return nullptr;
    }

    void
    print() const
    {
        TextTable table({"kernel", "shape", "dtype", "ms", "GFLOP/s",
                         "GB/s"});
        for (const auto &r : results_) {
            table.addRow({r.kernel, r.shape, r.dtype,
                          benchutil::f3(r.ms),
                          r.gflops > 0 ? benchutil::f2(r.gflops) : "-",
                          r.gbps > 0 ? benchutil::f2(r.gbps) : "-"});
        }
        table.print(std::cout);
    }

    bool
    writeCsv(const std::string &path) const
    {
        CsvWriter csv({"kernel", "shape", "dtype", "threads", "time_ms",
                       "gflops", "gbps"});
        const std::string threads = strfmt("%d", core::numThreads());
        for (const auto &r : results_) {
            csv.addRow({r.kernel, r.shape, r.dtype, threads,
                        benchutil::f3(r.ms), benchutil::f2(r.gflops),
                        benchutil::f2(r.gbps)});
        }
        return csv.writeFile(path);
    }

    /**
     * Emit one "mmbench-result-v1" record per kernel (kind "micro"),
     * schema-compatible with the runner's JSON sink so workload runs
     * and kernel microbenchmarks share one trajectory file.
     */
    bool
    writeJsonl(const std::string &path) const
    {
        // Append like runner::JsonlSink: trajectory files accumulate
        // across passes (CI starts them from rm -f, not truncation).
        std::ofstream os(path, std::ios::app);
        if (!os) {
            warn("cannot open '%s' for writing", path.c_str());
            return false;
        }
        for (const auto &r : results_) {
            core::JsonValue obj = core::JsonValue::object();
            obj.set("schema", runner::kResultSchema);
            obj.set("kind", "micro");
            obj.set("name", r.kernel);
            obj.set("device", "cpu");
            obj.set("threads",
                    static_cast<int64_t>(core::numThreads()));
            obj.set("shape", r.shape);
            // Additive key, non-default only: f32 records stay
            // byte-identical to pre-dtype output.
            if (r.dtype != "f32")
                obj.set("dtype", r.dtype);
            obj.set("latency_us", r.latencyUs.toJson());
            obj.set("gflops", r.gflops);
            obj.set("gbps", r.gbps);
            runner::JsonlSink::writeRecord(os, obj);
        }
        return true;
    }

    bool quick_;
    double budgetS_;
    int maxReps_;
    std::vector<Result> results_;
};

void
speedupNote(const Harness &h, const std::string &fast,
            const std::string &ref)
{
    const Result *f = h.find(fast);
    const Result *r = h.find(ref);
    if (f && r && f->ms > 0.0) {
        benchutil::note(strfmt("%s is %.1fx the seed-era %s",
                               fast.c_str(), r->ms / f->ms,
                               ref.c_str()));
    }
}

} // namespace

namespace mmbench {
namespace benchutil {

int
opsMicroMain(int argc, char **argv)
{
    std::string csv_path = "ops_micro.csv";
    std::string json_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--csv") && i + 1 < argc)
            csv_path = argv[++i];
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (!std::strcmp(argv[i], "--quick"))
            quick = true;
    }

    benchutil::printTitle(
        "ops_micro",
        strfmt("tensor kernel throughput (threads=%d)",
               core::numThreads()));

    Harness h(quick);
    Rng rng(1);

    // --- GEMM: blocked/parallel vs the naive seed-era loop ----------
    for (int64_t n : {256L, 512L, 1024L}) {
        Tensor a = Tensor::randn(Shape{n, n}, rng);
        Tensor b = Tensor::randn(Shape{n, n}, rng);
        const double flops = 2.0 * n * n * n;
        h.compute(strfmt("gemm_%lld", static_cast<long long>(n)),
                  strfmt("%lldx%lldx%lld", static_cast<long long>(n),
                         static_cast<long long>(n),
                         static_cast<long long>(n)),
                  flops, [&] { tensor::matmul(a, b); });
        if (n == 1024) {
            h.compute("gemm_1024_seed_ref", "1024x1024x1024", flops,
                      [&] { tensor::matmulReference(a, b); });
        }
    }
    {
        // Attention-shaped batched NT product.
        Tensor q = Tensor::randn(Shape{16, 128, 64}, rng);
        Tensor k = Tensor::randn(Shape{16, 128, 64}, rng);
        h.compute("gemm_batched_nt", "16x(128x64)^T",
                  2.0 * 16 * 128 * 128 * 64,
                  [&] { tensor::matmulNT(q, k); });
    }

    // --- Reduced-precision GEMM/conv (the dtype axis) ---------------
    // Operands pre-lowered outside the timed region, so the rows
    // measure the converting pack loops + f32-accumulating (i8 conv:
    // i32) micro-kernel at the reduced payload width — the 2-4x
    // traffic reduction the dtype axis claims.
    {
        const int64_t n = 512;
        Tensor a = Tensor::randn(Shape{n, n}, rng);
        Tensor b = Tensor::randn(Shape{n, n}, rng);
        const double flops = 2.0 * n * n * n;
        for (const tensor::DType dt :
             {tensor::DType::BF16, tensor::DType::I8}) {
            Tensor aq = tensor::castTo(a, dt);
            Tensor bq = tensor::castTo(b, dt);
            h.computeDt(strfmt("gemm_512_%s", tensor::dtypeName(dt)),
                        "512x512x512", dt, flops, [&] {
                            tensor::linearActDt(aq, bq, Tensor(),
                                                tensor::ActKind::None);
                        });
        }
    }
    {
        // Same body conv as conv3x3_56, weights pre-lowered; the input
        // lowers inside the timed region (cast_input), as it does on
        // the solver registry's cast-both candidate.
        Tensor x = Tensor::randn(Shape{1, 64, 56, 56}, rng);
        Tensor w = Tensor::randn(Shape{64, 64, 3, 3}, rng);
        Tensor b = Tensor::zeros(Shape{64});
        const double flops = 2.0 * 64 * 56 * 56 * 64 * 9;
        for (const tensor::DType dt :
             {tensor::DType::BF16, tensor::DType::I8}) {
            Tensor wq = tensor::castTo(w, dt);
            h.computeDt(strfmt("conv3x3_56_%s", tensor::dtypeName(dt)),
                        "1x64x56x56 k3s1p1", dt, flops, [&] {
                            tensor::conv2dActDt(x, wq, b, 1, 1,
                                                tensor::ActKind::None,
                                                /*cast_input=*/true);
                        });
        }
    }

    // --- Conv2d: im2col+GEMM vs the direct seed-era loop ------------
    {
        // ResNet-style body conv: 64ch 56x56, 3x3.
        Tensor x = Tensor::randn(Shape{1, 64, 56, 56}, rng);
        Tensor w = Tensor::randn(Shape{64, 64, 3, 3}, rng);
        Tensor b = Tensor::zeros(Shape{64});
        const double flops = 2.0 * 64 * 56 * 56 * 64 * 9;
        h.compute("conv3x3_56", "1x64x56x56 k3s1p1", flops,
                  [&] { tensor::conv2d(x, w, b, 1, 1); });
        h.compute("conv3x3_56_seed_ref", "1x64x56x56 k3s1p1", flops,
                  [&] { tensor::conv2dReference(x, w, b, 1, 1); });
    }
    {
        // 1x1 projection conv (pure-GEMM fast path).
        Tensor x = Tensor::randn(Shape{1, 256, 28, 28}, rng);
        Tensor w = Tensor::randn(Shape{64, 256, 1, 1}, rng);
        h.compute("conv1x1_28", "1x256x28x28 k1",
                  2.0 * 64 * 28 * 28 * 256,
                  [&] { tensor::conv2d(x, w, Tensor(), 1, 0); });
    }

    // --- Fused epilogue kernels (solver-registry candidates) --------
    // Each fused kernel is measured against its unfused multi-pass
    // expression: the fused variant applies bias+activation in the
    // producer's write-back, one pass over the output instead of
    // two or three.
    {
        const int64_t n = 512;
        Tensor x = Tensor::randn(Shape{n, n}, rng);
        Tensor w = Tensor::randn(Shape{n, n}, rng);
        Tensor b = Tensor::randn(Shape{n}, rng);
        const double flops = 2.0 * n * n * n + 2.0 * n * n;
        h.compute("fused_linear_bias_relu_512", "512x512x512+b", flops,
                  [&] {
                      tensor::linearAct(x, w, b,
                                        tensor::ActKind::Relu);
                  });
        h.compute("linear_bias_relu_512_unfused", "512x512x512+b",
                  flops, [&] {
                      tensor::reluF(tensor::add(tensor::matmul(x, w),
                                                b));
                  });
    }
    {
        // Same body conv as conv3x3_56, with the bias+ReLU epilogue.
        Tensor x = Tensor::randn(Shape{1, 64, 56, 56}, rng);
        Tensor w = Tensor::randn(Shape{64, 64, 3, 3}, rng);
        Tensor b = Tensor::randn(Shape{64}, rng);
        const double flops =
            2.0 * 64 * 56 * 56 * 64 * 9 + 64 * 56 * 56;
        h.compute("fused_conv_bias_relu_56", "1x64x56x56 k3s1p1",
                  flops, [&] {
                      tensor::conv2dAct(x, w, b, 1, 1,
                                        tensor::ActKind::Relu);
                  });
        h.compute("conv_bias_relu_56_unfused", "1x64x56x56 k3s1p1",
                  flops, [&] {
                      tensor::reluF(tensor::conv2d(x, w, b, 1, 1));
                  });
    }
    {
        Tensor x = Tensor::randn(Shape{8, 64, 28, 28}, rng);
        Tensor g = Tensor::ones(Shape{64});
        Tensor bt = Tensor::zeros(Shape{64});
        Tensor rm = Tensor::zeros(Shape{64});
        Tensor rv = Tensor::ones(Shape{64});
        const double flops = 5.0 * 8 * 64 * 28 * 28;
        h.compute("fused_batchnorm_relu", "8x64x28x28", flops, [&] {
            tensor::batchnorm2dEvalAct(x, g, bt, rm, rv, 1e-5f,
                                       tensor::ActKind::Relu);
        });
        h.compute("batchnorm_relu_unfused", "8x64x28x28", flops, [&] {
            tensor::reluF(tensor::batchnorm2d(x, g, bt, rm, rv, false,
                                              0.1f, 1e-5f));
        });
    }

    // --- Bandwidth-bound kernels ------------------------------------
    {
        const int64_t n = 1 << 20;
        Tensor a = Tensor::randn(Shape{n}, rng);
        Tensor b = Tensor::randn(Shape{n}, rng);
        h.bandwidth("elementwise_add", "1M", 12.0 * n,
                    [&] { tensor::add(a, b); });
        h.compute("gelu", "1M", 8.0 * n, [&] { tensor::geluF(a); });
    }
    {
        Tensor a = Tensor::randn(Shape{64, 256}, rng);
        Tensor b = Tensor::randn(Shape{256}, rng);
        h.bandwidth("bias_add", "64x256+256", 12.0 * 64 * 256,
                    [&] { tensor::add(a, b); });
    }
    {
        Tensor a = Tensor::randn(Shape{256, 1024}, rng);
        h.compute("softmax", "256x1024", 5.0 * 256 * 1024,
                  [&] { tensor::softmaxLast(a); });
    }
    {
        Tensor x = Tensor::randn(Shape{512, 768}, rng);
        Tensor g = Tensor::ones(Shape{768});
        Tensor b = Tensor::zeros(Shape{768});
        h.compute("layernorm", "512x768", 4.0 * 512 * 768,
                  [&] { tensor::layernorm(x, g, b, 1e-5f); });
    }
    {
        Tensor x = Tensor::randn(Shape{8, 64, 28, 28}, rng);
        Tensor g = Tensor::ones(Shape{64});
        Tensor bt = Tensor::zeros(Shape{64});
        Tensor rm = Tensor::zeros(Shape{64});
        Tensor rv = Tensor::ones(Shape{64});
        h.compute("batchnorm", "8x64x28x28", 4.0 * 8 * 64 * 28 * 28,
                  [&] {
                      tensor::batchnorm2d(x, g, bt, rm, rv, true, 0.1f,
                                          1e-5f);
                  });
    }
    {
        Tensor a = Tensor::randn(Shape{1024, 1024}, rng);
        h.bandwidth("reduce_sum_axis", "1024x1024 ax1",
                    4.0 * 1024 * 1024,
                    [&] { tensor::sumAxis(a, 1); });
    }
    {
        Tensor x = Tensor::randn(Shape{8, 64, 56, 56}, rng);
        h.bandwidth("maxpool2x2", "8x64x56x56",
                    4.0 * 8 * 64 * 56 * 56,
                    [&] { tensor::maxpool2d(x, 2, 2); });
    }

    // --- Serve batch fan-in (concat along rows) -------------------
    // The open-loop dispatcher coalesces queued requests into one
    // batch (runner::coalesceBatches), concatenating each modality's
    // inputs along dim 0: a pure row copy (read + write every float),
    // measured at a raw modality input geometry ([B, 4096]).
    {
        Tensor a = Tensor::randn(Shape{4, 4096}, rng);
        Tensor b = Tensor::randn(Shape{4, 4096}, rng);
        std::vector<Tensor> parts = {a, b};
        h.bandwidth("concat_rows_input", "2x(4x4096)",
                    8.0 * 2 * 4 * 4096,
                    [&] { tensor::concat(parts, 0); });
    }

    h.print();
    speedupNote(h, "gemm_1024", "gemm_1024_seed_ref");
    speedupNote(h, "conv3x3_56", "conv3x3_56_seed_ref");
    if (!csv_path.empty() && h.writeCsv(csv_path))
        benchutil::note("csv written to " + csv_path);
    if (!json_path.empty() && h.writeJsonl(json_path))
        benchutil::note("json written to " + json_path);
    return 0;
}

} // namespace benchutil
} // namespace mmbench

namespace {

int
runQuick()
{
    // Empty --csv suppresses the default ops_micro.csv so the
    // registered experiment stays side-effect free in the cwd.
    const char *argv[] = {"ops_micro", "--quick", "--csv", ""};
    return mmbench::benchutil::opsMicroMain(
        4, const_cast<char **>(argv));
}

} // namespace

MMBENCH_REGISTER_EXPERIMENT(ops_micro,
    "Kernel microbenchmarks of the CPU tensor backend (quick mode)",
    runQuick);
