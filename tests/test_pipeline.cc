/**
 * @file
 * Stage-graph execution tests: graph construction for every
 * registered workload, scheduler unit behavior, parallel-vs-
 * sequential bit-exactness across thread counts, trace equivalence of
 * the merged node timeline, serve-mode statistics, sweep-spec
 * expansion and the serve fields of the JSON sink schema.
 *
 * CMake runs this binary with MMBENCH_NUM_THREADS=4 so the worker
 * pool has real workers even on single-core CI hosts.
 */

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

#include "core/json.hh"
#include "core/parallel.hh"
#include "models/registry.hh"
#include "pipeline/faults.hh"
#include "pipeline/graph.hh"
#include "pipeline/scheduler.hh"
#include "pipeline/stagepipe.hh"
#include "profile/profiler.hh"
#include "runner/runner.hh"
#include "runner/runspec.hh"
#include "runner/sink.hh"
#include "trace/scope.hh"

using namespace mmbench;
using autograd::Var;
using core::JsonValue;
using pipeline::SchedPolicy;

namespace {

/**
 * A file under the gtest temp dir named per process, so concurrent
 * copies of this binary (ctest -j, stress loops) never share a file.
 */
std::string
tempPath(const std::string &stem, const std::string &ext)
{
    return ::testing::TempDir() + "/" + stem + "_" +
           std::to_string(::getpid()) + ext;
}

} // namespace

// ------------------------------------------------------------ StageGraph

TEST(StageGraph, LevelsAndSinks)
{
    pipeline::StageGraph graph;
    auto noop = [](pipeline::ExecContext &) {};
    pipeline::StageNode a;
    a.name = "a";
    a.body = noop;
    pipeline::StageNode b = a;
    b.name = "b";
    const size_t ia = graph.addNode(std::move(a));
    const size_t ib = graph.addNode(std::move(b));
    pipeline::StageNode c;
    c.name = "c";
    c.deps = {ia, ib};
    c.body = noop;
    const size_t ic = graph.addNode(std::move(c));
    pipeline::StageNode d;
    d.name = "d";
    d.deps = {ic};
    d.body = noop;
    const size_t id = graph.addNode(std::move(d));

    EXPECT_EQ(graph.size(), 4u);
    EXPECT_EQ(graph.numLevels(), 3);
    EXPECT_EQ(graph.levelNodes(0), (std::vector<size_t>{ia, ib}));
    EXPECT_EQ(graph.levelNodes(1), (std::vector<size_t>{ic}));
    EXPECT_EQ(graph.levelNodes(2), (std::vector<size_t>{id}));
    EXPECT_EQ(graph.sinks(), (std::vector<size_t>{id}));
}

TEST(StageGraphDeathTest, ForwardDependencyPanics)
{
    pipeline::StageGraph graph;
    pipeline::StageNode n;
    n.name = "bad";
    n.deps = {3};
    n.body = [](pipeline::ExecContext &) {};
    EXPECT_DEATH(graph.addNode(std::move(n)), "topological");
}

TEST(Scheduler, PolicyNamesRoundTrip)
{
    SchedPolicy policy;
    EXPECT_TRUE(pipeline::tryParseSchedPolicy("parallel", &policy));
    EXPECT_EQ(policy, SchedPolicy::Parallel);
    EXPECT_TRUE(pipeline::tryParseSchedPolicy("SEQ", &policy));
    EXPECT_EQ(policy, SchedPolicy::Sequential);
    EXPECT_FALSE(pipeline::tryParseSchedPolicy("bogus", &policy));
    EXPECT_STREQ(pipeline::schedPolicyName(SchedPolicy::Parallel),
                 "parallel");
}

TEST(Scheduler, ExecutesAllNodesUnderBothPolicies)
{
    // slots[i] = i for leaves; join sums its dependencies.
    pipeline::StageGraph graph;
    std::vector<size_t> leaves;
    for (size_t i = 0; i < 5; ++i) {
        pipeline::StageNode leaf;
        leaf.name = "leaf";
        const size_t id = i;
        leaf.body = [id](pipeline::ExecContext &ctx) {
            ctx.slots[id] =
                Var(tensor::Tensor::full(tensor::Shape{1},
                                         static_cast<float>(id)));
        };
        leaves.push_back(graph.addNode(std::move(leaf)));
    }
    pipeline::StageNode join;
    join.name = "join";
    join.deps = leaves;
    const size_t join_id = graph.size();
    join.body = [join_id, leaves](pipeline::ExecContext &ctx) {
        float sum = 0.0f;
        for (size_t leaf : leaves)
            sum += ctx.slots[leaf].value().at(0);
        ctx.slots[join_id] =
            Var(tensor::Tensor::full(tensor::Shape{1}, sum));
    };
    graph.addNode(std::move(join));

    for (SchedPolicy policy :
         {SchedPolicy::Sequential, SchedPolicy::Parallel}) {
        pipeline::ExecContext ctx;
        pipeline::ScheduleOptions options;
        options.policy = policy;
        pipeline::GraphRun run = pipeline::runGraph(graph, ctx, options);
        ASSERT_EQ(ctx.slots.size(), graph.size());
        EXPECT_FLOAT_EQ(ctx.slots[join_id].value().at(0), 10.0f);
        ASSERT_EQ(run.nodes.size(), graph.size());
        for (const pipeline::NodeRun &node : run.nodes)
            EXPECT_GE(node.endUs, node.startUs);
    }
}

// --------------------------------------- graph construction per workload

TEST(WorkloadGraph, AllNineWorkloadsBuildTheCanonicalShape)
{
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        const pipeline::StageGraph &graph = w->stageGraph();
        const size_t m = w->numModalities();
        ASSERT_EQ(graph.size(), 2 * m + 2) << name;

        for (size_t i = 0; i < m; ++i) {
            const pipeline::StageNode &pre = graph.node(2 * i);
            const pipeline::StageNode &enc = graph.node(2 * i + 1);
            const std::string mod =
                w->dataSpec().modalities[i].name;
            EXPECT_EQ(pre.name, "preprocess:" + mod) << name;
            EXPECT_EQ(pre.stage, trace::Stage::Preprocess) << name;
            EXPECT_EQ(pre.modality, static_cast<int>(i)) << name;
            EXPECT_TRUE(pre.deps.empty()) << name;
            EXPECT_EQ(enc.name, "encoder:" + mod) << name;
            EXPECT_EQ(enc.stage, trace::Stage::Encoder) << name;
            EXPECT_EQ(enc.modality, static_cast<int>(i)) << name;
            EXPECT_EQ(enc.deps, (std::vector<size_t>{2 * i})) << name;
        }
        const pipeline::StageNode &fuse = graph.node(2 * m);
        EXPECT_EQ(fuse.name, "fusion") << name;
        EXPECT_EQ(fuse.stage, trace::Stage::Fusion) << name;
        EXPECT_EQ(fuse.deps.size(), m) << name;
        const pipeline::StageNode &head = graph.node(2 * m + 1);
        EXPECT_EQ(head.name, "head") << name;
        EXPECT_EQ(head.stage, trace::Stage::Head) << name;
        // Every encoder is at level 1: the encoders form one parallel
        // wave, fusion is the join, the head is the only sink.
        EXPECT_EQ(graph.numLevels(), 4) << name;
        EXPECT_EQ(graph.sinks(), (std::vector<size_t>{2 * m + 1}))
            << name;
    }
}

// -------------------------------------------- bit-exactness across policies

namespace {

/** Forward under a policy and thread count; returns the output. */
tensor::Tensor
forwardWith(models::MultiModalWorkload &workload,
            const data::Batch &batch, SchedPolicy policy, int threads)
{
    core::ScopedNumThreads guard(threads);
    autograd::NoGradGuard no_grad;
    return workload.forward(batch, policy).value();
}

void
expectBitwiseEqual(const tensor::Tensor &a, const tensor::Tensor &b,
                   const std::string &what)
{
    ASSERT_EQ(a.numel(), b.numel()) << what;
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(),
                             static_cast<size_t>(a.numel()) *
                                 sizeof(float)))
        << what;
}

} // namespace

TEST(SchedulerDeterminism, ParallelMatchesSequentialBitwiseAllWorkloads)
{
    // Every registered workload, scaled down so the full matrix
    // stays fast. The serial single-thread pass is the pre-refactor
    // reference schedule.
    for (const std::string &name :
         models::WorkloadRegistry::instance().names()) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        w->train(false);
        auto task = w->makeTask(7);
        data::Batch batch = task.sample(2);

        const tensor::Tensor reference =
            forwardWith(*w, batch, SchedPolicy::Sequential, 1);
        for (int threads : {1, 4}) {
            expectBitwiseEqual(
                reference,
                forwardWith(*w, batch, SchedPolicy::Sequential, threads),
                name + " sequential t" + std::to_string(threads));
            expectBitwiseEqual(
                reference,
                forwardWith(*w, batch, SchedPolicy::Parallel, threads),
                name + " parallel t" + std::to_string(threads));
        }

        // Task metrics follow from identical outputs.
        const double metric = w->metric(reference, batch.targets);
        const tensor::Tensor par =
            forwardWith(*w, batch, SchedPolicy::Parallel, 4);
        EXPECT_DOUBLE_EQ(metric, w->metric(par, batch.targets)) << name;
    }
}

TEST(SchedulerDeterminism, MoreThreadsThanEncoders)
{
    // Thread counts exceeding both the encoder count and the pool
    // maximum must clamp, not misbehave.
    auto w = models::WorkloadRegistry::instance().createDefault(
        "mujoco-push", 0.35f);
    w->train(false);
    auto task = w->makeTask(9);
    data::Batch batch = task.sample(2);
    const tensor::Tensor reference =
        forwardWith(*w, batch, SchedPolicy::Sequential, 1);
    expectBitwiseEqual(reference,
                       forwardWith(*w, batch, SchedPolicy::Parallel, 64),
                       "mujoco-push parallel t64");
}

// --------------------------------------------- node-timeline equivalence

TEST(NodeTimeline, MergedTraceMatchesAmbientForward)
{
    auto w = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    w->train(false);
    auto task = w->makeTask(11);
    data::Batch batch = task.sample(2);

    // Historical path: one ambient sink around the sequential pass.
    trace::RecordingSink ambient;
    {
        trace::ScopedSink guard(ambient);
        autograd::NoGradGuard no_grad;
        w->forward(batch);
    }

    for (SchedPolicy policy :
         {SchedPolicy::Sequential, SchedPolicy::Parallel}) {
        pipeline::ScheduleOptions options;
        options.policy = policy;
        options.captureTraces = true;
        pipeline::GraphRun run;
        {
            autograd::NoGradGuard no_grad;
            w->forwardGraph(batch, options, &run);
        }
        pipeline::NodeTraceIndex index;
        trace::RecordingSink merged =
            pipeline::mergeNodeTraces(run, &index);

        ASSERT_EQ(merged.kernels.size(), ambient.kernels.size());
        ASSERT_EQ(merged.runtimes.size(), ambient.runtimes.size());
        ASSERT_EQ(merged.unified.size(), ambient.unified.size());
        for (size_t i = 0; i < merged.kernels.size(); ++i) {
            EXPECT_STREQ(merged.kernels[i].name, ambient.kernels[i].name);
            EXPECT_EQ(merged.kernels[i].stage, ambient.kernels[i].stage);
            EXPECT_EQ(merged.kernels[i].modality,
                      ambient.kernels[i].modality);
            EXPECT_EQ(merged.kernels[i].flops, ambient.kernels[i].flops);
        }
        for (size_t i = 0; i < merged.runtimes.size(); ++i) {
            EXPECT_EQ(merged.runtimes[i].kind, ambient.runtimes[i].kind);
            EXPECT_EQ(merged.runtimes[i].stage,
                      ambient.runtimes[i].stage);
        }
        for (size_t i = 0; i < merged.unified.size(); ++i) {
            EXPECT_EQ(merged.unified[i].kind, ambient.unified[i].kind);
            EXPECT_EQ(merged.unified[i].index, ambient.unified[i].index);
        }
        // Boundaries cover the whole stream, one range per node.
        ASSERT_EQ(index.kernelStart.size(), run.nodes.size() + 1);
        EXPECT_EQ(index.kernelStart.back(), merged.kernels.size());
        EXPECT_EQ(index.runtimeStart.back(), merged.runtimes.size());
    }
}

TEST(NodeTimeline, ProfilerAttributesStagesPerNode)
{
    auto w = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    auto task = w->makeTask(3);
    data::Batch batch = task.sample(2);

    profile::Profiler profiler(sim::DeviceModel::rtx2080ti());
    profile::ProfileResult seq =
        profiler.profileGraph(*w, batch, SchedPolicy::Sequential);
    profile::ProfileResult par =
        profiler.profileGraph(*w, batch, SchedPolicy::Parallel);

    ASSERT_EQ(seq.nodes.size(), w->stageGraph().size());
    // Encoder nodes carry device time; preprocess nodes only host ops.
    double encoder_gpu = 0.0;
    for (const profile::NodeProfile &np : seq.nodes) {
        if (np.stage == trace::Stage::Encoder) {
            EXPECT_GT(np.gpuUs, 0.0) << np.name;
            encoder_gpu += np.gpuUs;
        }
        if (np.stage == trace::Stage::Preprocess)
            EXPECT_EQ(np.gpuUs, 0.0) << np.name;
        EXPECT_GE(np.hostUs, 0.0) << np.name;
    }
    // Node attribution is a partition of the replayed timeline.
    double node_gpu = 0.0;
    for (const profile::NodeProfile &np : seq.nodes)
        node_gpu += np.gpuUs;
    EXPECT_DOUBLE_EQ(node_gpu, seq.timeline.gpuBusyUs);
    EXPECT_GT(encoder_gpu, 0.0);

    // The simulated timeline is policy-independent: the replay
    // consumes the canonical merged node stream either way.
    EXPECT_DOUBLE_EQ(seq.timeline.totalUs, par.timeline.totalUs);
    EXPECT_DOUBLE_EQ(seq.timeline.gpuBusyUs, par.timeline.gpuBusyUs);
}

// ------------------------------------------------------------ serve mode

TEST(ServeMode, StatsAndThroughputMonotonicity)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = runner::RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.requests = 16;

    spec.inflight = 1;
    const runner::RunResult serial = runner::runOne(spec);
    spec.inflight = 4;
    const runner::RunResult concurrent = runner::runOne(spec);

    for (const runner::RunResult *r : {&serial, &concurrent}) {
        EXPECT_EQ(r->hostLatencyUs.count, 16);
        EXPECT_GT(r->hostLatencyUs.p50, 0.0);
        EXPECT_GT(r->throughputSps, 0.0);
        EXPECT_EQ(r->serve.requests, 16);
        EXPECT_GT(r->serve.wallUs, 0.0);
        EXPECT_TRUE(r->hasMetric);
    }
    EXPECT_EQ(serial.serve.inflight, 1);
    EXPECT_GE(concurrent.serve.inflight, 1);

    // Monotonicity: more in-flight slots must not lose throughput.
    // The 0.85 slack absorbs scheduler noise on loaded CI hosts; with
    // 4 pool threads the observed ratio is typically 2-3x.
    if (concurrent.serve.inflight > 1) {
        EXPECT_GE(concurrent.throughputSps,
                  0.85 * serial.throughputSps);
    }
}

TEST(ServeMode, JsonSchemaCarriesServeFields)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = runner::RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 4;

    const std::string path =
        tempPath("mmbench_test_pipeline", ".jsonl");
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;

    EXPECT_EQ(record.find("schema")->stringValue(), "mmbench-result-v1");
    const JsonValue *spec_json = record.find("spec");
    ASSERT_NE(spec_json, nullptr);
    EXPECT_EQ(spec_json->find("mode")->stringValue(), "serve");
    EXPECT_EQ(spec_json->find("sched")->stringValue(), "sequential");
    EXPECT_EQ(spec_json->find("inflight")->intValue(), 2);
    EXPECT_EQ(spec_json->find("requests")->intValue(), 4);

    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    for (const char *key :
         {"inflight", "requests", "wall_us", "arrival", "offered_rps",
          "achieved_rps", "coalesce", "batches", "queue_us",
          "service_us"})
        EXPECT_TRUE(serve->has(key)) << key;
    EXPECT_EQ(serve->find("requests")->intValue(), 4);
    EXPECT_GT(serve->find("wall_us")->numberValue(), 0.0);
    EXPECT_EQ(record.find("latency_us")->find("count")->intValue(), 4);

    // Closed loop: no queue, no offered rate, one batch per request.
    EXPECT_EQ(serve->find("arrival")->stringValue(), "closed");
    EXPECT_DOUBLE_EQ(serve->find("offered_rps")->numberValue(), 0.0);
    EXPECT_GT(serve->find("achieved_rps")->numberValue(), 0.0);
    EXPECT_EQ(serve->find("batches")->intValue(), 4);
    const JsonValue *queue = serve->find("queue_us");
    for (const char *key :
         {"p50", "p95", "p99", "mean", "min", "max", "count"})
        EXPECT_TRUE(queue->has(key)) << key;
    EXPECT_EQ(queue->find("count")->intValue(), 4);
    EXPECT_DOUBLE_EQ(queue->find("max")->numberValue(), 0.0);
    EXPECT_GT(serve->find("service_us")->find("p50")->numberValue(),
              0.0);

    // Spec block round-trips the arrival configuration.
    for (const char *key : {"arrival", "rate_rps", "coalesce"})
        EXPECT_TRUE(spec_json->has(key)) << key;
    EXPECT_EQ(spec_json->find("arrival")->stringValue(), "closed");
}

TEST(ServeMode, OpenLoopJsonSchemaCarriesQueueFields)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.mode = runner::RunMode::Serve;
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.inflight = 2;
    spec.requests = 6;
    spec.arrival = pipeline::ArrivalKind::Poisson;
    spec.rateRps = 400.0;

    const std::string path =
        tempPath("mmbench_test_pipeline_open", ".jsonl");
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;
    const JsonValue *spec_json = record.find("spec");
    ASSERT_NE(spec_json, nullptr);
    EXPECT_EQ(spec_json->find("arrival")->stringValue(), "poisson");
    EXPECT_DOUBLE_EQ(spec_json->find("rate_rps")->numberValue(), 400.0);

    const JsonValue *serve = record.find("serve");
    ASSERT_NE(serve, nullptr);
    EXPECT_EQ(serve->find("arrival")->stringValue(), "poisson");
    EXPECT_DOUBLE_EQ(serve->find("offered_rps")->numberValue(), 400.0);
    EXPECT_GT(serve->find("achieved_rps")->numberValue(), 0.0);
    EXPECT_EQ(serve->find("queue_us")->find("count")->intValue(), 6);
    EXPECT_GE(serve->find("queue_us")->find("min")->numberValue(), 0.0);
    EXPECT_GT(serve->find("service_us")->find("p50")->numberValue(),
              0.0);
}

TEST(ServeMode, DefaultScheduleOptionsCaptureNoTraces)
{
    // Regression pin for the serve hot path: ScheduleOptions defaults
    // to captureTraces = false, and an uncaptured run must leave every
    // per-node trace sink empty — serve requests allocate no trace
    // storage.
    EXPECT_FALSE(pipeline::ScheduleOptions().captureTraces);

    auto workload = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    auto task = workload->makeTask(5);
    data::Batch batch = task.sample(2);
    workload->train(false);

    autograd::NoGradGuard no_grad;
    pipeline::ScheduleOptions options; // serve-path defaults
    pipeline::GraphRun run;
    workload->forwardGraph(batch, options, &run);
    ASSERT_FALSE(run.nodes.empty());
    for (const pipeline::NodeRun &node : run.nodes) {
        EXPECT_TRUE(node.trace.kernels.empty());
        EXPECT_TRUE(node.trace.runtimes.empty());
        EXPECT_TRUE(node.trace.allocs.empty());
        EXPECT_TRUE(node.trace.unified.empty());
    }
}

TEST(InferMode, JsonSchemaCarriesNodeTimeline)
{
    runner::RunSpec spec;
    spec.workload = "av-mnist";
    spec.batch = 2;
    spec.sizeScale = 0.35f;
    spec.warmup = 0;
    spec.repeat = 1;
    spec.sched = SchedPolicy::Parallel;

    const std::string path =
        tempPath("mmbench_test_pipeline_infer", ".jsonl");
    std::remove(path.c_str());
    {
        runner::JsonlSink sink(path);
        std::vector<runner::ResultSink *> sinks = {&sink};
        runner::runOne(spec, sinks);
        sink.flush();
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    std::remove(path.c_str());

    std::string error;
    const JsonValue record = JsonValue::parse(line, &error);
    ASSERT_TRUE(error.empty()) << error;
    EXPECT_EQ(record.find("spec")->find("sched")->stringValue(),
              "parallel");
    const JsonValue *nodes = record.find("nodes");
    ASSERT_NE(nodes, nullptr);
    ASSERT_EQ(nodes->size(), 6u); // av-mnist: 2*(pre+enc) + fusion + head
    EXPECT_EQ(nodes->at(0).find("name")->stringValue(),
              "preprocess:image");
    EXPECT_EQ(nodes->at(5).find("name")->stringValue(), "head");
    for (const char *key :
         {"name", "stage", "modality", "host_us", "gpu_us", "cpu_us"})
        EXPECT_TRUE(nodes->at(1).has(key)) << key;
    EXPECT_GT(nodes->at(1).find("gpu_us")->numberValue(), 0.0);
}

// ------------------------------------------------------------ spec sweeps

TEST(RunSpecSweep, CommaListsExpandToCrossProduct)
{
    std::vector<runner::RunSpec> specs;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "8,64,256", "--threads",
         "1,4", "--scale", "0.5"},
        &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 6u);
    // Batch-major, then threads, then scale.
    EXPECT_EQ(specs[0].batch, 8);
    EXPECT_EQ(specs[0].threads, 1);
    EXPECT_EQ(specs[1].batch, 8);
    EXPECT_EQ(specs[1].threads, 4);
    EXPECT_EQ(specs[4].batch, 256);
    EXPECT_EQ(specs[4].threads, 1);
    for (const runner::RunSpec &spec : specs) {
        EXPECT_EQ(spec.workload, "av-mnist");
        EXPECT_FLOAT_EQ(spec.sizeScale, 0.5f);
    }
}

TEST(RunSpecSweep, SingleValuesYieldOneSpec)
{
    std::vector<runner::RunSpec> specs;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecs(
        {"--workload", "transfuser", "--batch", "4"}, &specs, &error))
        << error;
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_EQ(specs[0].batch, 4);
}

TEST(RunSpecSweep, MalformedListEntriesFail)
{
    std::vector<runner::RunSpec> specs;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "8,,16"}, &specs, &error));
    EXPECT_NE(error.find("--batch"), std::string::npos);
    EXPECT_FALSE(runner::parseRunSpecs(
        {"--workload", "av-mnist", "--batch", "8,x"}, &specs, &error));
}

TEST(RunSpecParse, ServeFlagsRoundTrip)
{
    runner::RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--inflight", "8",
         "--requests", "32"},
        &spec, &error))
        << error;
    EXPECT_EQ(spec.mode, runner::RunMode::Serve);
    EXPECT_EQ(spec.inflight, 8);
    EXPECT_EQ(spec.requests, 32);

    runner::RunSpec reparsed;
    ASSERT_TRUE(runner::parseRunSpec(spec.toArgs(), &reparsed, &error))
        << error;
    EXPECT_EQ(reparsed.mode, spec.mode);
    EXPECT_EQ(reparsed.sched, spec.sched);
    EXPECT_EQ(reparsed.inflight, spec.inflight);
    EXPECT_EQ(reparsed.requests, spec.requests);

    // The intra-request parallel policy never runs in serve mode;
    // the combination is rejected instead of silently mislabeled.
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--mode", "serve", "--sched",
         "parallel"},
        &spec, &error));
    EXPECT_NE(error.find("serve"), std::string::npos);

    // Infer mode still accepts the parallel policy, whatever the
    // flag order.
    runner::RunSpec infer;
    ASSERT_TRUE(runner::parseRunSpec(
        {"--sched", "parallel", "--workload", "av-mnist"}, &infer,
        &error))
        << error;
    EXPECT_EQ(infer.sched, SchedPolicy::Parallel);
}

TEST(RunSpecParse, DeviceErrorEnumeratesAliases)
{
    runner::RunSpec spec;
    std::string error;
    EXPECT_FALSE(runner::parseRunSpec(
        {"--workload", "av-mnist", "--device", "tpu"}, &spec, &error));
    // The single alias table feeds both validation and the message.
    for (const char *alias :
         {"2080ti", "rtx2080ti", "server", "nano", "jetson-nano",
          "orin", "jetson-orin"}) {
        EXPECT_NE(error.find(alias), std::string::npos) << alias;
        EXPECT_TRUE(runner::isKnownDevice(alias)) << alias;
    }
}

TEST(RunSpecParse, TemplateAllowsMissingWorkload)
{
    runner::RunSpec spec;
    std::string error;
    ASSERT_TRUE(runner::parseRunSpecTemplate(
        {"--mode", "serve", "--inflight", "4"}, &spec, &error))
        << error;
    EXPECT_TRUE(spec.workload.empty());
    EXPECT_EQ(spec.mode, runner::RunMode::Serve);
    // Unknown workloads still fail.
    EXPECT_FALSE(runner::parseRunSpecTemplate(
        {"--workload", "nope"}, &spec, &error));
}

// ------------------------------------------------------------- StagePipe

TEST(StagePipe, BitwiseMatchesUnpipelinedAcrossThreadCounts)
{
    // The serving pipeline work-shares node tasks across in-flight
    // requests (one request's encoders overlap another's fusion/head).
    // Node bodies are deterministic functions of their slot inputs, so
    // every request's output must stay bitwise identical to the
    // ambient unpipelined forward, whatever the slot count. Two inputs
    // per workload: four full-fidelity requests, and six concurrent
    // requests mixing drop masks, so pruned and unpruned jobs share
    // the ready list.
    const std::vector<std::vector<uint32_t>> mask_sets = {
        {0, 0, 0, 0}, {0, 0, 0b0010, 0, 0b0010, 0}};
    for (const char *name : {"transfuser", "medical-seg"}) {
        auto w = models::WorkloadRegistry::instance().createDefault(
            name, 0.35f);
        w->train(false);
        // Lazy graph/plan/imputation construction is single-threaded
        // by contract: prime all three before requests race in.
        w->primeDegraded();
        const pipeline::StageGraph &graph = w->stageGraph();
        const pipeline::MemoryPlan &plan =
            w->memoryPlan(SchedPolicy::Parallel);
        auto task = w->makeTask(11);

        for (const std::vector<uint32_t> &masks : mask_sets) {
            const int requests = static_cast<int>(masks.size());
            std::vector<data::Batch> batches;
            for (int r = 0; r < requests; ++r)
                batches.push_back(task.sample(2));

            std::vector<tensor::Tensor> reference;
            for (int r = 0; r < requests; ++r) {
                core::ScopedNumThreads guard(1);
                autograd::NoGradGuard no_grad;
                pipeline::ScheduleOptions opts;
                opts.policy = SchedPolicy::Sequential;
                opts.dropMask = masks[static_cast<size_t>(r)];
                reference.push_back(
                    w->forwardGraph(batches[static_cast<size_t>(r)],
                                    opts)
                        .value());
            }

            for (int threads : {1, 4}) {
                core::ScopedNumThreads guard(threads);
                pipeline::StagePipe pipe(graph, &plan, w->stashSlots());
                std::vector<tensor::Tensor> outputs(
                    static_cast<size_t>(requests));
                core::parallelFor(
                    0, requests, 1, [&](int64_t begin, int64_t end) {
                        autograd::NoGradGuard no_grad;
                        for (int64_t r = begin; r < end; ++r) {
                            pipeline::PipeRequest req;
                            req.batch = &batches[static_cast<size_t>(r)];
                            req.dropMask = masks[static_cast<size_t>(r)];
                            outputs[static_cast<size_t>(r)] =
                                pipe.execute(req).output.value();
                        }
                    });
                for (int r = 0; r < requests; ++r)
                    expectBitwiseEqual(
                        reference[static_cast<size_t>(r)],
                        outputs[static_cast<size_t>(r)],
                        std::string(name) + " pipelined n" +
                            std::to_string(requests) + " t" +
                            std::to_string(threads) + " r" +
                            std::to_string(r));
                EXPECT_EQ(pipe.activeJobs(), 0);
            }
        }
    }
}

TEST(StagePipe, DropMaskPrunesAndZeroImputesLikeTheScheduler)
{
    // A request with dropped modalities must produce the same output
    // through the pipe as through the (sequential) scheduler's
    // degraded path.
    auto w = models::WorkloadRegistry::instance().createDefault(
        "medical-seg", 0.35f);
    w->train(false);
    w->primeDegraded();
    auto task = w->makeTask(13);
    data::Batch batch = task.sample(2);
    const uint32_t mask = 0b0110; // drop T1c and T2

    autograd::NoGradGuard no_grad;
    pipeline::ScheduleOptions opts;
    opts.policy = SchedPolicy::Sequential;
    opts.dropMask = mask;
    const tensor::Tensor reference =
        w->forwardGraph(batch, opts).value();

    pipeline::StagePipe pipe(w->stageGraph(),
                             &w->memoryPlan(SchedPolicy::Parallel),
                             w->stashSlots());
    pipeline::PipeRequest req;
    req.batch = &batch;
    req.dropMask = mask;
    const pipeline::PipeCompletion done = pipe.execute(req);
    expectBitwiseEqual(reference, done.output.value(),
                       "medical-seg degraded pipelined");
    // Two modalities dropped: preprocess + encoder pruned for each.
    EXPECT_EQ(done.prunedNodes, 4);
}

TEST(StagePipe, InjectedFailureRethrowsOnTheOwningRequest)
{
    auto w = models::WorkloadRegistry::instance().createDefault(
        "av-mnist", 0.35f);
    w->train(false);
    auto task = w->makeTask(3);
    data::Batch batch = task.sample(2);

    pipeline::FaultPlan plan;
    std::string error;
    ASSERT_TRUE(pipeline::parseFaultPlan("fail:node=fusion:p=1", 5,
                                         &plan, &error))
        << error;

    autograd::NoGradGuard no_grad;
    pipeline::StagePipe pipe(w->stageGraph(),
                             &w->memoryPlan(SchedPolicy::Parallel),
                             w->stashSlots());
    pipeline::PipeRequest req;
    req.batch = &batch;
    req.faults = &plan;
    req.faultRequest = 0;
    req.faultAttempt = 0;
    EXPECT_THROW(pipe.execute(req), pipeline::FaultError);
    // The failed job retired: the pipe is reusable and a fault-free
    // request still completes.
    EXPECT_EQ(pipe.activeJobs(), 0);
    pipeline::PipeRequest clean;
    clean.batch = &batch;
    EXPECT_NO_THROW(pipe.execute(clean));

    // Executor parity: the pipe and the scheduler run every node
    // through the same runNode, so a slow fault on every node injects
    // the same count through both and leaves the output bitwise equal.
    pipeline::FaultPlan slow;
    ASSERT_TRUE(pipeline::parseFaultPlan("slow:node=*:p=1:x=1.5", 5,
                                         &slow, &error))
        << error;
    pipeline::ScheduleOptions opts;
    opts.policy = SchedPolicy::Sequential;
    opts.faults = &slow;
    pipeline::GraphRun run;
    const tensor::Tensor reference =
        w->forwardGraph(batch, opts, &run).value();
    pipeline::PipeRequest slowed;
    slowed.batch = &batch;
    slowed.faults = &slow;
    const pipeline::PipeCompletion done = pipe.execute(slowed);
    EXPECT_EQ(run.injectedSlowdowns,
              static_cast<int>(w->stageGraph().size()));
    EXPECT_EQ(done.injectedSlowdowns, run.injectedSlowdowns);
    expectBitwiseEqual(reference, done.output.value(),
                       "av-mnist slowed pipelined");
}

// ------------------------------------------------ ready-list ordering

namespace {

/**
 * Three jobs with distinct priorities on a two-encoder graph, driven
 * by per-job gates so every interesting pick happens while the ready
 * list provably holds more than one job. Jobs are identified by their
 * batch row count (A=1, B=2, C=3); encoder bodies record their start
 * and then spin on their job's gate, head bodies just record. The
 * recorded start order pins the ready list's priority-then-FIFO rank.
 */
struct PriorityProbeGraph
{
    pipeline::StageGraph graph;
    std::atomic<bool> gate[3] = {{false}, {false}, {false}};
    std::mutex mu;
    std::vector<std::string> starts;

    PriorityProbeGraph()
    {
        auto record = [this](pipeline::ExecContext &ctx,
                             const char *node, bool latch) {
            const size_t job =
                static_cast<size_t>(ctx.batch->size) - 1;
            {
                std::lock_guard<std::mutex> hold(mu);
                starts.push_back(std::string(1, "ABC"[job]) + ":" +
                                 node);
            }
            if (!latch)
                return;
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::seconds(30);
            while (!gate[job] &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
        };
        pipeline::StageNode n0;
        n0.name = "enc0";
        n0.modality = 0;
        n0.body = [=](pipeline::ExecContext &ctx) {
            record(ctx, "enc0", true);
            ctx.slots[0] =
                Var(tensor::Tensor::zeros({ctx.batch->size, 4}));
        };
        pipeline::StageNode n1;
        n1.name = "enc1";
        n1.modality = 1;
        n1.body = [=](pipeline::ExecContext &ctx) {
            record(ctx, "enc1", true);
            ctx.slots[1] =
                Var(tensor::Tensor::zeros({ctx.batch->size, 4}));
        };
        const size_t i0 = graph.addNode(std::move(n0));
        const size_t i1 = graph.addNode(std::move(n1));
        pipeline::StageNode head;
        head.name = "head";
        head.deps = {i0, i1};
        head.body = [=](pipeline::ExecContext &ctx) {
            record(ctx, "head", false);
            ctx.slots[2] =
                Var(tensor::Tensor::zeros({ctx.batch->size, 4}));
        };
        graph.addNode(std::move(head));
    }

    bool waitForStart(const std::string &what)
    {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (std::chrono::steady_clock::now() < deadline) {
            {
                std::lock_guard<std::mutex> hold(mu);
                for (const std::string &s : starts)
                    if (s == what)
                        return true;
            }
            std::this_thread::yield();
        }
        return false;
    }

    size_t indexOf(const std::string &what)
    {
        std::lock_guard<std::mutex> hold(mu);
        for (size_t i = 0; i < starts.size(); ++i)
            if (starts[i] == what)
                return i;
        return starts.size();
    }
};

data::Batch makeLatchBatch(int64_t rows, uint64_t seed)
{
    Rng rng(seed);
    data::Batch b;
    b.modalities.push_back(tensor::Tensor::randn({rows, 512}, rng));
    b.modalities.push_back(tensor::Tensor::randn({rows, 512}, rng));
    b.size = rows;
    return b;
}

} // namespace

TEST(StagePipe, ReadyListPicksPriorityThenFifoAcrossJobs)
{
    PriorityProbeGraph g;
    const data::Batch a = makeLatchBatch(1, 201);
    const data::Batch b = makeLatchBatch(2, 202);
    const data::Batch c = makeLatchBatch(3, 203);

    pipeline::StagePipe pipe(g.graph, nullptr, 0);
    auto submit = [&](const data::Batch &batch, int priority) {
        autograd::NoGradGuard no_grad;
        pipeline::PipeRequest req;
        req.batch = &batch;
        req.priority = priority;
        pipe.execute(req);
    };

    // A (prio 0) starts its own enc0 and latches on gate A.
    std::thread t1([&] { submit(a, 0); });
    ASSERT_TRUE(g.waitForStart("A:enc0"));
    // B (prio 2) outranks A's pending enc1, so t2 picks B:enc0.
    std::thread t2([&] { submit(b, 2); });
    ASSERT_TRUE(g.waitForStart("B:enc0"));
    // t3's own job C (prio 1) is outranked by B's remaining encoder:
    // the pick crosses jobs by priority, not submission order.
    std::thread t3([&] { submit(c, 1); });
    ASSERT_TRUE(g.waitForStart("B:enc1"));

    // Open gate B: its encoders finish and the freed threads pick
    // B:head (prio 2) and then C's encoders (prio 1) — never A:enc1.
    g.gate[1] = true;
    ASSERT_TRUE(g.waitForStart("B:head"));
    ASSERT_TRUE(g.waitForStart("C:enc0"));
    g.gate[2] = true;
    ASSERT_TRUE(g.waitForStart("C:head"));
    g.gate[0] = true;
    t1.join();
    t2.join();
    t3.join();

    EXPECT_EQ(pipe.activeJobs(), 0);
    ASSERT_EQ(g.starts.size(), 9u);
    // Deterministic prefix: each submission's pick happened alone.
    EXPECT_EQ(g.starts[0], "A:enc0");
    EXPECT_EQ(g.starts[1], "B:enc0");
    EXPECT_EQ(g.starts[2], "B:enc1");
    // Race-free partial orders: whenever a thread chose among ready
    // jobs, the higher-priority job's task started first even though
    // A was submitted before both B and C.
    EXPECT_LT(g.indexOf("C:enc0"), g.indexOf("A:enc1"));
    EXPECT_LT(g.indexOf("C:enc1"), g.indexOf("A:enc1"));
    EXPECT_LT(g.indexOf("B:head"), g.indexOf("C:enc1"));
}
