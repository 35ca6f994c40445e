/**
 * @file
 * mmperf: the measurement engine behind perfbench/run.py.
 *
 * One process serves one benchmark workload, so its set-up time and
 * peak resident set belong to that workload alone. run.py starts it
 * with MMBENCH_NUM_THREADS=2 and drives it over a line protocol: every
 * line on stdin is one JSON command, every reply one JSON line on
 * stdout.
 *
 *   {"op":"setup"}                           build model, inputs, warmup
 *   {"op":"infer","passes":N,"traced":B}     N profiled passes over the
 *                                            workload's batch
 *   {"op":"train","steps":N,"traced":B}      N Adam training steps
 *   {"op":"serve","rate":R,"requests":N,"seed":S,"traced":B}
 *                                            one open-loop serve stream
 *   {"op":"runner","rate":R,"requests":N}    the same mode through
 *                                            runner::runOne
 *   {"op":"exit"}                            peak RSS, then exit
 *
 * Everything timed here is a call into the library's public API, and
 * the per-layer numbers come from spans this file opens around those
 * calls plus the records the calls already return (GraphRun node
 * times, captured KernelEvents, MemoryPool::stats(), RequestTiming).
 * Nothing is instrumented inside src/. Statistics, output checks that
 * need no tensors, and the serve streams' rates live in run.py: this file
 * only measures and returns raw samples.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "autograd/optim.hh"
#include "autograd/var.hh"
#include "core/json.hh"
#include "core/parallel.hh"
#include "data/loader.hh"
#include "models/registry.hh"
#include "pipeline/scheduler.hh"
#include "pipeline/serve.hh"
#include "runner/runner.hh"
#include "sim/device.hh"
#include "sim/timeline.hh"
#include "tensor/pool.hh"
#include "trace/event.hh"

using namespace mmbench;
using core::JsonValue;

namespace {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Process start on the steady clock. Spans are written relative to it:
 * the JSON writer keeps 10 significant digits, which would round
 * absolute clock readings on a long-running host.
 */
double g_epochUs = 0.0;

/** One benchmark workload: which app, in which mode, at which size. */
struct WorkloadDef
{
    const char *name;
    const char *app;
    const char *mode; ///< "infer" / "train" / "serve"
    int64_t batch;
    float scale;
};

const WorkloadDef kWorkloads[] = {
    {"infer-transfuser", "transfuser", "infer", 8, 1.0f},
    {"serve-transfuser", "transfuser", "serve", 1, 1.0f},
    {"train-transfuser", "transfuser", "train", 16, 0.35f},
};

/** Distinct per-request inputs a serve stream cycles through. */
constexpr int kServeInputs = 32;
/** Serve: dispatcher batch cap and concurrent in-flight slots. */
constexpr int kMaxBatch = 8;
constexpr int kInflight = 2;
/** Train: samples held by the in-memory training set (runner geometry). */
constexpr int64_t kTrainSet = 64;

/**
 * In-memory span log: name, start, end, parent span and the pass or
 * request id. Appends are locked because serve callbacks run on every
 * in-flight slot; the log is returned to run.py with the reply.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool on) : on_(on) {}

    bool on() const { return on_; }

    /** Record a finished span; returns its index (or -1 when off). */
    int add(const char *name, double start, double end, int parent,
            int id)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, start, end, parent, id});
        return static_cast<int>(spans_.size()) - 1;
    }

    /** Reserve an index for a parent span whose end is not known yet. */
    int open(const char *name, double start, int parent, int id)
    {
        return add(name, start, start, parent, id);
    }

    void close(int index, double end)
    {
        if (index < 0)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(index)].end = end;
    }

    JsonValue toJson() const
    {
        JsonValue out = JsonValue::array();
        for (const Span &s : spans_) {
            JsonValue o = JsonValue::object();
            o.set("name", s.name);
            o.set("start_us", s.start - g_epochUs);
            o.set("end_us", s.end - g_epochUs);
            o.set("parent", s.parent);
            o.set("id", s.id);
            out.push(std::move(o));
        }
        return out;
    }

  private:
    struct Span
    {
        const char *name;
        double start;
        double end;
        int parent;
        int id;
    };

    bool on_;
    std::mutex mu_;
    std::vector<Span> spans_;
};

/** Log a GraphRun's node times as children of span `parent`. */
void
logNodes(SpanLog &log, models::MultiModalWorkload &model,
         const pipeline::GraphRun &run, int parent, int id)
{
    if (!log.on())
        return;
    const pipeline::StageGraph &graph = model.stageGraph();
    for (size_t n = 0; n < run.nodes.size(); ++n)
        log.add(trace::stageName(graph.node(n).stage), run.nodes[n].startUs,
                run.nodes[n].endUs, parent, id);
}

JsonValue
numbers(const std::vector<double> &values)
{
    JsonValue out = JsonValue::array();
    for (double v : values)
        out.push(v);
    return out;
}

std::vector<float>
copyOut(const tensor::Tensor &t)
{
    return std::vector<float>(t.data(), t.data() + t.numel());
}

bool
sameBits(const std::vector<float> &a, const tensor::Tensor &b)
{
    return static_cast<int64_t>(a.size()) == b.numel() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Arena accounting over one measured window. */
class PoolWindow
{
  public:
    PoolWindow()
    {
        tensor::MemoryPool::instance().resetPeak();
        before_ = tensor::MemoryPool::instance().stats();
    }

    JsonValue finish() const
    {
        const tensor::PoolStats after =
            tensor::MemoryPool::instance().stats();
        JsonValue o = JsonValue::object();
        o.set("requests", after.requests - before_.requests);
        o.set("hits", after.poolHits - before_.poolHits);
        o.set("peak_bytes", after.peakBytes);
        return o;
    }

  private:
    tensor::PoolStats before_;
};

class Bench
{
  public:
    Bench(const WorkloadDef &def, uint64_t seed)
        : def_(def), seed_(seed), timeline_(sim::DeviceModel::rtx2080ti())
    {
    }

    JsonValue setup();
    JsonValue infer(int passes, bool traced);
    JsonValue train(int steps, bool traced);
    JsonValue serve(double rate, int requests, uint64_t seed, bool traced);
    JsonValue runnerCheck(double rate, int requests);

  private:
    /**
     * Profiled pass over batch_: forward with capture, merge, replay,
     * split. Runs in whatever train/eval mode the workload is in.
     */
    tensor::Tensor profiledPass(SpanLog &log, int id, double *sim_us,
                                trace::RecordingSink *merged,
                                pipeline::NodeTraceIndex *index);
    /** One Adam step on the next loader batch; returns the loss. */
    double trainStep(SpanLog &log, int id);

    const WorkloadDef &def_;
    uint64_t seed_;
    sim::Timeline timeline_;

    std::unique_ptr<models::MultiModalWorkload> model_;
    std::unique_ptr<data::SyntheticTask> task_;
    /** One operation's input: the infer batch, a training batch or
     *  one serve request. Profiled passes run over it in every mode. */
    data::Batch batch_;
    // infer
    std::vector<float> warmOut_;
    // train
    std::unique_ptr<data::InMemoryDataset> trainSet_;
    std::unique_ptr<data::DataLoader> loader_;
    std::unique_ptr<autograd::Adam> optim_;
    int64_t nextBatch_ = 0;
    // serve
    std::vector<data::Batch> inputs_;
};

JsonValue
Bench::setup()
{
    // Tear the previous set-up down first so repeated set-ups never
    // hold two models at once (peak RSS stays one workload's).
    optim_.reset();
    loader_.reset();
    trainSet_.reset();
    inputs_.clear();
    batch_ = data::Batch();
    warmOut_.clear();
    task_.reset();
    model_.reset();
    nextBatch_ = 0;

    JsonValue out = JsonValue::object();
    int checks = 0, check_failures = 0;
    const double t0 = nowUs();

    const models::WorkloadEntry *entry =
        models::WorkloadRegistry::instance().find(def_.app);
    models::WorkloadConfig config;
    config.fusionKind = entry->defaultFusion;
    config.sizeScale = def_.scale;
    config.seed = seed_;
    model_ = models::WorkloadRegistry::instance().create(def_.app, config);
    const double t_construct = nowUs();

    task_ = std::make_unique<data::SyntheticTask>(model_->makeTask(seed_));
    const std::string mode = def_.mode;
    if (mode == "infer") {
        batch_ = task_->sample(def_.batch);
    } else if (mode == "train") {
        trainSet_ =
            std::make_unique<data::InMemoryDataset>(*task_, kTrainSet);
        loader_ = std::make_unique<data::DataLoader>(
            *trainSet_, def_.batch, /*shuffle=*/true, seed_ + 1);
        batch_ = trainSet_->slice(0, def_.batch);
    } else {
        inputs_.reserve(kServeInputs);
        for (int i = 0; i < kServeInputs; ++i)
            inputs_.push_back(task_->sample(def_.batch));
        batch_ = inputs_.front();
    }
    const double t_sample = nowUs();

    double t_warm = t_sample, t_ref = t_sample;
    if (mode == "infer") {
        model_->train(false);
        SpanLog off(false);
        double sim_us = 0.0;
        tensor::Tensor out_t;
        for (int i = 0; i < 2; ++i)
            out_t = profiledPass(off, i, &sim_us, nullptr, nullptr);
        warmOut_ = copyOut(out_t);
        t_warm = nowUs();
        // The cross-thread invariant: the pool's result must equal a
        // 1-thread forward of the same batch, bit for bit.
        tensor::Tensor serial;
        {
            core::ScopedNumThreads one(1);
            autograd::NoGradGuard no_grad;
            pipeline::ScheduleOptions opts;
            serial = model_->forwardGraph(batch_, opts).value();
        }
        t_ref = nowUs();
        ++checks;
        if (!sameBits(warmOut_, serial))
            ++check_failures;
    } else if (mode == "train") {
        optim_ = std::make_unique<autograd::Adam>(model_->parameters(),
                                                  0.01f);
        model_->train(true);
        SpanLog off(false);
        for (int i = 0; i < 2; ++i) {
            ++checks;
            if (!std::isfinite(trainStep(off, i)))
                ++check_failures;
        }
        t_warm = t_ref = nowUs();
    } else {
        model_->train(false);
        {
            // Warmup request on its own input, as the runner does: it
            // builds the stage graph and primes the arena.
            autograd::NoGradGuard no_grad;
            data::Batch warm = task_->sample(def_.batch);
            model_->forward(warm);
        }
        // Lazy plan construction is single-threaded by contract.
        model_->memoryPlan(pipeline::SchedPolicy::Sequential);
        t_warm = t_ref = nowUs();
    }

    out.set("construct_ms", (t_construct - t0) / 1e3);
    out.set("sample_ms", (t_sample - t_construct) / 1e3);
    out.set("warmup_ms", (t_warm - t_sample) / 1e3);
    out.set("reference_ms", (t_ref - t_warm) / 1e3);
    out.set("total_ms", (t_ref - t0) / 1e3);
    out.set("checks", checks);
    out.set("check_failures", check_failures);
    return out;
}

tensor::Tensor
Bench::profiledPass(SpanLog &log, int id, double *sim_us,
                    trace::RecordingSink *merged_out,
                    pipeline::NodeTraceIndex *index_out)
{
    const double t0 = nowUs();
    const int pass = log.open("pass", t0, -1, id);

    pipeline::ScheduleOptions options;
    options.captureTraces = true;
    pipeline::GraphRun run;
    tensor::Tensor out;
    {
        autograd::NoGradGuard no_grad;
        out = model_->forwardGraph(batch_, options, &run).value();
    }
    const double t1 = nowUs();
    logNodes(log, *model_, run, log.add("forward_capture", t0, t1, pass, id),
             id);

    pipeline::NodeTraceIndex index;
    trace::RecordingSink merged = pipeline::mergeNodeTraces(run, &index);
    const double t2 = nowUs();
    log.add("merge", t1, t2, pass, id);

    const sim::TimelineResult timeline = timeline_.replay(merged);
    const double t3 = nowUs();
    log.add("replay", t2, t3, pass, id);

    // The runner attributes the replay back to nodes; the benchmark
    // times that step but has no use for its result.
    sim::splitByNodes(timeline, index.kernelStart, index.runtimeStart);
    const double t4 = nowUs();
    log.add("split", t3, t4, pass, id);
    log.close(pass, t4);

    *sim_us = timeline.totalUs;
    if (merged_out)
        *merged_out = std::move(merged);
    if (index_out)
        *index_out = std::move(index);
    return out;
}

JsonValue
Bench::infer(int passes, bool traced)
{
    SpanLog log(traced);
    std::vector<double> lat_us;
    lat_us.reserve(static_cast<size_t>(passes));
    // Outputs are checked against the infer warmup; a training model's
    // outputs move with its batch-norm statistics, a serve profile has
    // no warmup output, and both are checked elsewhere.
    const bool check_out = !warmOut_.empty();
    int mismatches = 0, sim_mismatches = 0;
    double sim_first = 0.0;

    // Kernel-class counts and per-node flops of one captured pass: the
    // trace is a pure function of the graph and shapes, so one pass
    // stands for all (run.py checks the counts repeat across runs).
    trace::RecordingSink merged;
    pipeline::NodeTraceIndex index;

    PoolWindow pool;
    for (int i = 0; i < passes; ++i) {
        double sim_us = 0.0;
        const double t0 = nowUs();
        const tensor::Tensor out =
            profiledPass(log, i, &sim_us,
                         traced && i == 0 ? &merged : nullptr,
                         traced && i == 0 ? &index : nullptr);
        lat_us.push_back(nowUs() - t0);
        if (check_out && !sameBits(warmOut_, out))
            ++mismatches;
        if (i == 0)
            sim_first = sim_us;
        else if (std::memcmp(&sim_us, &sim_first, sizeof(double)) != 0)
            ++sim_mismatches;

        if (traced) {
            // The same forward without capture: its time is the graph
            // itself, and the difference to the captured forward is
            // the cost of trace capture.
            pipeline::ScheduleOptions options;
            pipeline::GraphRun run;
            const double f0 = nowUs();
            {
                autograd::NoGradGuard no_grad;
                model_->forwardGraph(batch_, options, &run);
            }
            const double f1 = nowUs();
            logNodes(log, *model_, run, log.add("forward", f0, f1, -1, i), i);
        }
    }
    JsonValue pool_json = pool.finish();

    JsonValue out = JsonValue::object();
    out.set("lat_us", numbers(lat_us));
    out.set("sim_us", sim_first);
    out.set("checked", check_out ? passes : 0);
    out.set("mismatches", mismatches);
    out.set("sim_mismatches", sim_mismatches);
    out.set("pool", std::move(pool_json));
    if (traced) {
        JsonValue classes = JsonValue::object();
        std::map<std::string, std::pair<int64_t, double>> per_class;
        for (int k = 0;
             k < static_cast<int>(trace::KernelClass::NumClasses); ++k)
            per_class[trace::kernelClassName(
                static_cast<trace::KernelClass>(k))] = {0, 0.0};
        for (const trace::KernelEvent &ev : merged.kernels) {
            auto &c = per_class[trace::kernelClassName(ev.kclass)];
            c.first += 1;
            c.second += static_cast<double>(ev.flops);
        }
        for (const auto &kv : per_class) {
            JsonValue c = JsonValue::object();
            c.set("calls", kv.second.first);
            c.set("flops", kv.second.second);
            classes.set(kv.first, std::move(c));
        }
        out.set("classes", std::move(classes));
        out.set("events", static_cast<int64_t>(merged.kernels.size() +
                                               merged.runtimes.size()));

        // Flops per stage, attributed through the merge index.
        JsonValue stage_flops = JsonValue::object();
        std::map<std::string, double> flops;
        const pipeline::StageGraph &graph = model_->stageGraph();
        for (size_t n = 0; n + 1 < index.kernelStart.size(); ++n) {
            double f = 0.0;
            for (size_t k = index.kernelStart[n];
                 k < index.kernelStart[n + 1]; ++k)
                f += static_cast<double>(merged.kernels[k].flops);
            flops[trace::stageName(graph.node(n).stage)] += f;
        }
        for (const auto &kv : flops)
            stage_flops.set(kv.first, kv.second);
        out.set("stage_flops", std::move(stage_flops));
        out.set("spans", log.toJson());
    }
    return out;
}

double
Bench::trainStep(SpanLog &log, int id)
{
    const double t0 = nowUs();
    const int step = log.open("step", t0, -1, id);
    if (nextBatch_ == loader_->batchesPerEpoch()) {
        loader_->nextEpoch();
        nextBatch_ = 0;
    }
    data::Batch batch = loader_->batch(nextBatch_++);
    const double t1 = nowUs();
    log.add("loader", t0, t1, step, id);

    optim_->zeroGrad();
    const double t2 = nowUs();
    // MultiModalWorkload::forward is this call under the sequential
    // policy; the GraphRun adds the node times.
    pipeline::ScheduleOptions options;
    options.policy = pipeline::SchedPolicy::Sequential;
    pipeline::GraphRun run;
    autograd::Var y = model_->forwardGraph(batch, options, &run);
    const double t3 = nowUs();
    autograd::Var loss = model_->loss(y, batch.targets);
    const double t4 = nowUs();
    autograd::backward(loss);
    const double t5 = nowUs();
    optim_->clipGradNorm(5.0f);
    optim_->step();
    const double t6 = nowUs();
    log.add("zero_grad", t1, t2, step, id);
    logNodes(log, *model_, run, log.add("forward", t2, t3, step, id), id);
    log.add("loss", t3, t4, step, id);
    log.add("backward", t4, t5, step, id);
    log.add("optim", t5, t6, step, id);
    log.close(step, t6);
    return static_cast<double>(loss.value().data()[0]);
}

JsonValue
Bench::train(int steps, bool traced)
{
    SpanLog log(traced);
    std::vector<double> step_us, losses;
    PoolWindow pool;
    for (int i = 0; i < steps; ++i) {
        const double t0 = nowUs();
        const double loss = trainStep(log, i);
        step_us.push_back(nowUs() - t0);
        losses.push_back(loss);
    }
    JsonValue out = JsonValue::object();
    out.set("step_us", numbers(step_us));
    out.set("loss", numbers(losses));
    out.set("batch", def_.batch);
    out.set("pool", pool.finish());
    if (traced)
        out.set("spans", log.toJson());
    return out;
}

JsonValue
Bench::serve(double rate, int requests, uint64_t seed, bool traced)
{
    SpanLog log(traced);
    model_->train(false);

    // Only the settings the serving interface keeps: arrival process,
    // rate, seed, in-flight slots and batch cap. Everything else stays
    // at its default.
    pipeline::ServeLoopOptions loop;
    loop.arrival = pipeline::ArrivalKind::Poisson;
    loop.rateRps = rate;
    loop.seed = seed;
    loop.inflight = kInflight;
    loop.maxBatch = kMaxBatch;

    pipeline::ScheduleOptions options;
    options.policy = pipeline::SchedPolicy::Sequential;

    PoolWindow pool;
    const pipeline::ServeLoopResult stream = pipeline::runServeLoop(
        requests, loop,
        [&](const pipeline::ServiceCall &call) -> pipeline::ServiceResult {
            // The runner's unpipelined service path: per-request arena
            // scope, batch assembly, one forward over the batch.
            const double t0 = nowUs();
            tensor::RequestArenaScope arena;
            autograd::NoGradGuard no_grad;
            std::vector<int> ids;
            ids.reserve(call.ids.size());
            for (int id : call.ids)
                ids.push_back(id % kServeInputs);
            data::Batch fused;
            const data::Batch *input = &inputs_[static_cast<size_t>(
                ids.front())];
            const double t1 = nowUs();
            if (call.count > 1) {
                fused = runner::coalesceBatches(inputs_, ids,
                                                /*include_targets=*/false);
                input = &fused;
            }
            const double t2 = nowUs();
            pipeline::GraphRun run;
            model_->forwardGraph(*input, options, log.on() ? &run : nullptr);
            const double t3 = nowUs();
            if (log.on()) {
                const int c = log.add("call", t0, t3, -1, call.first);
                if (call.count > 1) {
                    log.add("assembly", t1, t2, c, call.first);
                    log.add("forward_batch", t2, t3, c, call.first);
                } else {
                    // One request: the same batch as the profiled passes.
                    logNodes(log, *model_, run,
                             log.add("forward", t2, t3, c, call.first),
                             call.first);
                }
            }
            return pipeline::ServiceResult();
        });
    JsonValue pool_json = pool.finish();

    std::vector<double> latency, queue, service, arrival;
    JsonValue ok = JsonValue::array();
    for (size_t i = 0; i < stream.requests.size(); ++i) {
        const pipeline::RequestTiming &t = stream.requests[i];
        latency.push_back(t.latencyUs());
        queue.push_back(t.queueUs());
        service.push_back(t.serviceUs());
        arrival.push_back(t.arrivalUs);
        ok.push(stream.outcomes[i] == pipeline::RequestOutcome::Ok);
    }
    JsonValue outcomes = JsonValue::object();
    outcomes.set("ok", stream.ok);
    outcomes.set("degraded", stream.degraded);
    outcomes.set("shed", stream.shed);
    outcomes.set("timeouts", stream.timeouts);
    outcomes.set("failed", stream.failed);

    JsonValue out = JsonValue::object();
    out.set("lat_us", numbers(latency));
    out.set("queue_us", numbers(queue));
    out.set("service_us", numbers(service));
    out.set("arrival_us", numbers(arrival));
    out.set("ok", std::move(ok));
    out.set("outcomes", std::move(outcomes));
    out.set("calls", stream.serviceCalls);
    out.set("wall_us", stream.wallUs);
    out.set("inflight", std::min(kInflight, core::numThreads()));
    out.set("pool", std::move(pool_json));
    if (traced)
        out.set("spans", log.toJson());
    return out;
}

/**
 * The workload's mode through runner::runOne: a cross-check that the
 * calls this file times are the runner's own path. Infer returns the
 * simulated latency (it must equal the profiled passes' bit for bit),
 * serve its outcome counters, train its step count.
 */
JsonValue
Bench::runnerCheck(double rate, int requests)
{
    runner::RunSpec spec;
    spec.workload = def_.app;
    spec.batch = def_.batch;
    spec.sizeScale = def_.scale;
    spec.seed = seed_;
    const std::string mode = def_.mode;
    if (mode == "infer") {
        spec.mode = runner::RunMode::Infer;
        spec.warmup = 1;
        spec.repeat = 2;
    } else if (mode == "train") {
        spec.mode = runner::RunMode::Train;
        spec.warmup = 0;
        spec.repeat = 1;
    } else {
        spec.mode = runner::RunMode::Serve;
        spec.arrival = pipeline::ArrivalKind::Poisson;
        spec.rateRps = rate;
        spec.maxBatch = kMaxBatch;
        spec.inflight = kInflight;
        spec.requests = requests;
    }
    const runner::RunResult result = runner::runOne(spec);
    JsonValue out = JsonValue::object();
    out.set("sim_us", result.simLatencyUs.p50);
    out.set("timed", result.hostLatencyUs.count);
    out.set("ok", result.serve.ok);
    return out;
}

/** Peak resident set of this process, from /proc/self/status. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

int
fail(const std::string &why)
{
    std::fprintf(stderr, "mmperf: %s\n", why.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const double main_us = nowUs();
    g_epochUs = main_us;
    if (argc != 3)
        return fail("usage: mmperf <workload> <seed>");
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (std::strcmp(w.name, argv[1]) == 0)
            def = &w;
    if (!def)
        return fail(std::string("unknown workload '") + argv[1] + "'");
    Bench bench(*def, std::strtoull(argv[2], nullptr, 10));

    {
        JsonValue hello = JsonValue::object();
        hello.set("main_us", main_us);
        hello.set("threads", core::numThreads());
        hello.set("batch", def->batch);
        std::cout << hello.dump() << std::endl;
    }

    std::string line;
    while (std::getline(std::cin, line)) {
        std::string error;
        const JsonValue cmd = JsonValue::parse(line, &error);
        const JsonValue *op = cmd.find("op");
        if (!error.empty() || !op || !op->isString())
            return fail("bad command: " + line);
        auto num = [&](const char *key) {
            const JsonValue *v = cmd.find(key);
            return v && v->isNumber() ? v->numberValue() : 0.0;
        };
        const JsonValue *traced_v = cmd.find("traced");
        const bool traced = traced_v && traced_v->boolValue();

        JsonValue reply;
        const std::string &name = op->stringValue();
        if (name == "setup") {
            reply = bench.setup();
        } else if (name == "infer") {
            reply = bench.infer(static_cast<int>(num("passes")), traced);
        } else if (name == "train") {
            reply = bench.train(static_cast<int>(num("steps")), traced);
        } else if (name == "serve") {
            reply = bench.serve(num("rate"),
                                static_cast<int>(num("requests")),
                                static_cast<uint64_t>(num("seed")),
                                traced);
        } else if (name == "runner") {
            reply = bench.runnerCheck(num("rate"),
                                      static_cast<int>(num("requests")));
        } else if (name == "exit") {
            reply = JsonValue::object();
            reply.set("peak_rss_mb", peakRssMb());
            std::cout << reply.dump() << std::endl;
            return 0;
        } else {
            return fail("unknown op: " + name);
        }
        std::cout << reply.dump() << std::endl;
    }
    return fail("stdin closed before exit");
}
