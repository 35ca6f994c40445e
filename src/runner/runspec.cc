#include "runner/runspec.hh"

#include <sys/stat.h>

#include <cstdlib>

#include "core/logging.hh"
#include "core/string_utils.hh"
#include "models/registry.hh"

namespace mmbench {
namespace runner {

const char *
runModeName(RunMode mode)
{
    switch (mode) {
      case RunMode::Infer: return "infer";
      case RunMode::Train: return "train";
      case RunMode::Serve: return "serve";
    }
    MM_PANIC("invalid run mode");
}

namespace {

/**
 * The one accepted-alias table: parse, validation and the error
 * message all read it, so adding a device model is a one-line change.
 */
struct DeviceAlias
{
    const char *alias;
    sim::DeviceModel (*model)();
};

const DeviceAlias kDeviceAliases[] = {
    {"2080ti", &sim::DeviceModel::rtx2080ti},
    {"rtx2080ti", &sim::DeviceModel::rtx2080ti},
    {"server", &sim::DeviceModel::rtx2080ti},
    {"nano", &sim::DeviceModel::jetsonNano},
    {"jetson-nano", &sim::DeviceModel::jetsonNano},
    {"orin", &sim::DeviceModel::jetsonOrin},
    {"jetson-orin", &sim::DeviceModel::jetsonOrin},
};

const DeviceAlias *
findDevice(const std::string &name)
{
    const std::string d = toLower(name);
    for (const DeviceAlias &alias : kDeviceAliases) {
        if (d == alias.alias)
            return &alias;
    }
    return nullptr;
}

} // namespace

const std::string &
knownDeviceNames()
{
    static const std::string names = [] {
        std::vector<std::string> aliases;
        for (const DeviceAlias &alias : kDeviceAliases)
            aliases.push_back(alias.alias);
        return join(aliases, ", ");
    }();
    return names;
}

sim::DeviceModel
RunSpec::deviceModel() const
{
    const DeviceAlias *alias = findDevice(device);
    if (!alias)
        MM_FATAL("unknown device '%s' (known: %s)", device.c_str(),
                 knownDeviceNames().c_str());
    return alias->model();
}

bool
isKnownDevice(const std::string &name)
{
    return findDevice(name) != nullptr;
}

std::vector<std::string>
RunSpec::toArgs() const
{
    std::vector<std::string> args = {
        "--workload", workload,
    };
    if (hasFusion) {
        args.push_back("--fusion");
        args.push_back(fusion::fusionKindName(fusionKind));
    }
    args.push_back("--mode");
    args.push_back(runModeName(mode));
    args.push_back("--batch");
    args.push_back(strfmt("%lld", static_cast<long long>(batch)));
    args.push_back("--threads");
    args.push_back(strfmt("%d", threads));
    args.push_back("--scale");
    args.push_back(strfmt("%g", static_cast<double>(sizeScale)));
    args.push_back("--seed");
    args.push_back(strfmt("%llu", static_cast<unsigned long long>(seed)));
    args.push_back("--warmup");
    args.push_back(strfmt("%d", warmup));
    args.push_back("--repeat");
    args.push_back(strfmt("%d", repeat));
    args.push_back("--device");
    args.push_back(device);
    args.push_back("--sched");
    args.push_back(pipeline::schedPolicyName(sched));
    args.push_back("--inflight");
    args.push_back(strfmt("%d", inflight));
    args.push_back("--requests");
    args.push_back(strfmt("%d", requests));
    args.push_back("--arrival");
    args.push_back(pipeline::arrivalKindName(arrival));
    args.push_back("--rate");
    args.push_back(strfmt("%.17g", rateRps));
    args.push_back("--max-batch");
    args.push_back(strfmt("%d", maxBatch));
    if (batchWaitUs > 0) {
        args.push_back("--batch-wait-us");
        args.push_back(strfmt("%d", batchWaitUs));
    }
    if (!classes.empty()) {
        args.push_back("--classes");
        args.push_back(classes);
    }
    if (pipelineServe) {
        args.push_back("--pipeline");
        args.push_back("on");
    }
    if (!faults.empty()) {
        args.push_back("--faults");
        args.push_back(faults);
    }
    args.push_back("--queue-cap");
    args.push_back(strfmt("%d", queueCap));
    args.push_back("--deadline-ms");
    args.push_back(strfmt("%.17g", deadlineMs));
    args.push_back("--retries");
    args.push_back(strfmt("%d", retries));
    args.push_back("--shed");
    args.push_back(shed ? "on" : "off");
    if (fuseKernels) {
        args.push_back("--fusion-kernels");
        args.push_back("on");
    }
    if (autotune != solver::AutotuneMode::Off) {
        args.push_back("--autotune");
        args.push_back(solver::autotuneModeName(autotune));
    }
    if (!perfdb.empty()) {
        args.push_back("--perfdb");
        args.push_back(perfdb);
    }
    if (dtype != tensor::DType::F32) {
        args.push_back("--dtype");
        args.push_back(tensor::dtypeName(dtype));
    }
    return args;
}

std::string
RunSpec::toString() const
{
    std::string text = strfmt(
        "%s fusion=%s mode=%s batch=%lld threads=%d scale=%g seed=%llu "
        "warmup=%d repeat=%d device=%s sched=%s inflight=%d requests=%d "
        "arrival=%s rate=%g max_batch=%d faults=%s "
        "queue_cap=%d deadline_ms=%g retries=%d shed=%s",
        workload.c_str(),
        hasFusion ? fusion::fusionKindName(fusionKind) : "default",
        runModeName(mode), static_cast<long long>(batch), threads,
        static_cast<double>(sizeScale),
        static_cast<unsigned long long>(seed), warmup, repeat,
        device.c_str(), pipeline::schedPolicyName(sched), inflight,
        requests, pipeline::arrivalKindName(arrival), rateRps, maxBatch,
        faults.empty() ? "none" : faults.c_str(), queueCap,
        deadlineMs, retries, shed ? "on" : "off");
    if (batchWaitUs > 0)
        text += strfmt(" batch_wait_us=%d", batchWaitUs);
    if (!classes.empty())
        text += strfmt(" classes=%s", classes.c_str());
    if (pipelineServe)
        text += " pipeline=on";
    if (fuseKernels)
        text += strfmt(" fuse_kernels=on autotune=%s",
                       solver::autotuneModeName(autotune));
    if (!perfdb.empty())
        text += strfmt(" perfdb=%s", perfdb.c_str());
    if (dtype != tensor::DType::F32)
        text += strfmt(" dtype=%s", tensor::dtypeName(dtype));
    return text;
}

namespace {

bool
parseInt64(const std::string &text, int64_t *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

bool
parseFloat(const std::string &text, float *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    *out = static_cast<float>(v);
    return true;
}

bool
parseDouble(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        return false;
    *out = v;
    return true;
}

/** Parse an on/off switch value (also true/false and 1/0). */
bool
parseOnOff(const std::string &text, bool *out)
{
    const std::string v = toLower(text);
    if (v == "on" || v == "true" || v == "1") {
        *out = true;
        return true;
    }
    if (v == "off" || v == "false" || v == "0") {
        *out = false;
        return true;
    }
    return false;
}

/** The flag grammar shared by spec and template parsing. */
bool
parseSpecFlags(const std::vector<std::string> &args, RunSpec *spec,
               std::string *error)
{
    error->clear();
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        if (i + 1 >= args.size()) {
            *error = strfmt("flag '%s' is missing its value",
                            flag.c_str());
            return false;
        }
        const std::string &value = args[++i];
        if (flag == "--workload") {
            spec->workload = toLower(value);
        } else if (flag == "--fusion") {
            fusion::FusionKind kind;
            if (!fusion::tryParseFusionKind(value, &kind)) {
                *error = strfmt(
                    "unknown fusion '%s' (expected a modality fusion "
                    "kind: zero, sum, concat, tensor, attention, "
                    "linearglu, transformer, late_lstm; kernel fusion "
                    "is --fusion-kernels on|off)",
                    value.c_str());
                return false;
            }
            spec->hasFusion = true;
            spec->fusionKind = kind;
        } else if (flag == "--fusion-kernels") {
            if (!parseOnOff(value, &spec->fuseKernels)) {
                *error = strfmt("--fusion-kernels expects on or off, "
                                "got '%s'", value.c_str());
                return false;
            }
        } else if (flag == "--autotune") {
            solver::AutotuneMode mode;
            if (!solver::tryParseAutotuneMode(value, &mode)) {
                *error = strfmt("unknown --autotune value '%s' "
                                "(expected off, on or force)",
                                value.c_str());
                return false;
            }
            spec->autotune = mode;
        } else if (flag == "--perfdb") {
            if (value.empty()) {
                *error = "--perfdb expects a file path";
                return false;
            }
            spec->perfdb = value;
        } else if (flag == "--dtype") {
            tensor::DType dt;
            if (!tensor::tryParseDType(value, &dt)) {
                *error = strfmt("unknown --dtype '%s' (expected f32, "
                                "bf16, f16 or i8)", value.c_str());
                return false;
            }
            spec->dtype = dt;
        } else if (flag == "--mode") {
            const std::string m = toLower(value);
            if (m == "infer") {
                spec->mode = RunMode::Infer;
            } else if (m == "train") {
                spec->mode = RunMode::Train;
            } else if (m == "serve") {
                spec->mode = RunMode::Serve;
            } else {
                *error = strfmt(
                    "unknown mode '%s' (expected infer, train or serve)",
                    value.c_str());
                return false;
            }
        } else if (flag == "--batch") {
            int64_t v;
            if (!parseInt64(value, &v) || v <= 0) {
                *error = strfmt("--batch expects a positive integer, "
                                "got '%s'", value.c_str());
                return false;
            }
            spec->batch = v;
        } else if (flag == "--threads") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--threads expects a non-negative "
                                "integer, got '%s'", value.c_str());
                return false;
            }
            spec->threads = static_cast<int>(v);
        } else if (flag == "--scale") {
            float v;
            if (!parseFloat(value, &v) || !(v > 0.0f)) {
                *error = strfmt("--scale expects a positive number, "
                                "got '%s'", value.c_str());
                return false;
            }
            spec->sizeScale = v;
        } else if (flag == "--seed") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--seed expects a non-negative integer, "
                                "got '%s'", value.c_str());
                return false;
            }
            spec->seed = static_cast<uint64_t>(v);
        } else if (flag == "--warmup") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--warmup expects a non-negative "
                                "integer, got '%s'", value.c_str());
                return false;
            }
            spec->warmup = static_cast<int>(v);
        } else if (flag == "--repeat") {
            int64_t v;
            if (!parseInt64(value, &v) || v <= 0) {
                *error = strfmt("--repeat expects a positive integer, "
                                "got '%s'", value.c_str());
                return false;
            }
            spec->repeat = static_cast<int>(v);
        } else if (flag == "--device") {
            if (!isKnownDevice(value)) {
                *error = strfmt("unknown device '%s' (known: %s)",
                                value.c_str(),
                                knownDeviceNames().c_str());
                return false;
            }
            spec->device = toLower(value);
        } else if (flag == "--sched") {
            pipeline::SchedPolicy policy;
            if (!pipeline::tryParseSchedPolicy(value, &policy)) {
                *error = strfmt("unknown scheduler policy '%s' "
                                "(expected sequential or parallel)",
                                value.c_str());
                return false;
            }
            spec->sched = policy;
        } else if (flag == "--inflight") {
            int64_t v;
            if (!parseInt64(value, &v) || v <= 0) {
                *error = strfmt("--inflight expects a positive integer, "
                                "got '%s'", value.c_str());
                return false;
            }
            spec->inflight = static_cast<int>(v);
        } else if (flag == "--requests") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--requests expects a non-negative "
                                "integer, got '%s'", value.c_str());
                return false;
            }
            spec->requests = static_cast<int>(v);
        } else if (flag == "--arrival") {
            pipeline::ArrivalKind kind;
            if (!pipeline::tryParseArrivalKind(value, &kind)) {
                *error = strfmt(
                    "unknown arrival process '%s' (expected closed, "
                    "poisson or fixed)", value.c_str());
                return false;
            }
            spec->arrival = kind;
        } else if (flag == "--rate") {
            double v;
            if (!parseDouble(value, &v) || v < 0.0) {
                *error = strfmt("--rate expects a non-negative number "
                                "(requests/second), got '%s'",
                                value.c_str());
                return false;
            }
            spec->rateRps = v;
        } else if (flag == "--max-batch") {
            int64_t v;
            if (!parseInt64(value, &v) || v <= 0) {
                *error = strfmt("--max-batch expects a positive "
                                "integer, got '%s'", value.c_str());
                return false;
            }
            spec->maxBatch = static_cast<int>(v);
        } else if (flag == "--batch-wait-us") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--batch-wait-us expects a non-negative "
                                "integer (microseconds), got '%s'",
                                value.c_str());
                return false;
            }
            spec->batchWaitUs = static_cast<int>(v);
        } else if (flag == "--classes") {
            // Grammar-checked after the loop (seed-independent), so
            // flag order can't change whether a spec parses.
            spec->classes = value;
        } else if (flag == "--pipeline") {
            if (!parseOnOff(value, &spec->pipelineServe)) {
                *error = strfmt("--pipeline expects on or off, got "
                                "'%s'", value.c_str());
                return false;
            }
        } else if (flag == "--faults") {
            // Grammar-checked after the loop (seed-independent), so
            // flag order can't change whether a spec parses.
            spec->faults = value;
        } else if (flag == "--queue-cap") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--queue-cap expects a non-negative "
                                "integer (0 = unbounded), got '%s'",
                                value.c_str());
                return false;
            }
            spec->queueCap = static_cast<int>(v);
        } else if (flag == "--deadline-ms") {
            double v;
            if (!parseDouble(value, &v) || v < 0.0) {
                *error = strfmt("--deadline-ms expects a non-negative "
                                "number (0 = no deadline), got '%s'",
                                value.c_str());
                return false;
            }
            spec->deadlineMs = v;
        } else if (flag == "--retries") {
            int64_t v;
            if (!parseInt64(value, &v) || v < 0) {
                *error = strfmt("--retries expects a non-negative "
                                "integer, got '%s'", value.c_str());
                return false;
            }
            spec->retries = static_cast<int>(v);
        } else if (flag == "--shed") {
            if (!parseOnOff(value, &spec->shed)) {
                *error = strfmt("--shed expects on or off, got '%s'",
                                value.c_str());
                return false;
            }
        } else {
            *error = strfmt("unknown flag '%s'", flag.c_str());
            return false;
        }
    }
    if (spec->mode == RunMode::Serve &&
        spec->sched == pipeline::SchedPolicy::Parallel) {
        // Serve requests already occupy the worker pool, so the
        // intra-request parallel policy always degrades to sequential
        // there; reject the combination instead of emitting records
        // labeled with a policy that never ran.
        *error = "--sched parallel has no effect in serve mode "
                 "(in-flight requests already occupy the worker "
                 "pool); use the default sequential";
        return false;
    }
    if (pipeline::isOpenLoop(spec->arrival)) {
        if (spec->mode != RunMode::Serve) {
            *error = strfmt(
                "--arrival %s only applies to --mode serve",
                pipeline::arrivalKindName(spec->arrival));
            return false;
        }
        if (!(spec->rateRps > 0.0)) {
            *error = strfmt(
                "--arrival %s needs an offered rate: pass --rate R "
                "(requests/second, > 0)",
                pipeline::arrivalKindName(spec->arrival));
            return false;
        }
    } else {
        if (spec->maxBatch > 1) {
            *error = "--max-batch batches queued requests, which "
                     "only exist under open-loop arrivals; add "
                     "--arrival poisson or --arrival fixed";
            return false;
        }
        if (spec->batchWaitUs > 0) {
            *error = "--batch-wait-us holds an under-filled open-loop "
                     "batch; add --arrival poisson or --arrival fixed";
            return false;
        }
        if (!spec->classes.empty()) {
            *error = "--classes schedules the open-loop admission "
                     "queue; add --arrival poisson or --arrival fixed";
            return false;
        }
        if (spec->rateRps > 0.0) {
            // A closed loop has no arrival schedule, so a rate would
            // be silently ignored — and its record would still carry
            // spec.rate_rps, fabricating a flat rate-vs-latency curve.
            *error = "--rate sets the open-loop offered rate, which a "
                     "closed loop ignores; add --arrival poisson or "
                     "--arrival fixed";
            return false;
        }
        if (spec->queueCap > 0) {
            *error = "--queue-cap bounds the open-loop admission "
                     "queue; a closed loop has no queue — add "
                     "--arrival poisson or --arrival fixed";
            return false;
        }
    }
    if (!spec->classes.empty()) {
        // Grammar check at parse time, same contract as --faults.
        pipeline::ClassPlan plan;
        std::string class_error;
        if (!pipeline::parseClassPlan(spec->classes, &plan,
                                      &class_error)) {
            *error = strfmt("--classes: %s", class_error.c_str());
            return false;
        }
    }
    // Fault-tolerance flags are serve-mode features; rejecting them
    // elsewhere keeps every emitted record honest about what ran.
    if (spec->mode != RunMode::Serve) {
        if (spec->pipelineServe) {
            *error = "--pipeline overlaps serve-mode requests across "
                     "pipeline stages; add --mode serve";
            return false;
        }
        if (!spec->faults.empty()) {
            *error = "--faults injects into serve-mode requests; add "
                     "--mode serve";
            return false;
        }
        if (spec->deadlineMs > 0.0) {
            *error = "--deadline-ms sets a serve-mode request "
                     "deadline; add --mode serve";
            return false;
        }
        if (spec->retries > 0) {
            *error = "--retries is the serve-mode retry budget; add "
                     "--mode serve";
            return false;
        }
        if (!spec->shed) {
            *error = "--shed off disables serve-mode load shedding; "
                     "add --mode serve";
            return false;
        }
    }
    if (!spec->fuseKernels) {
        // Autotuning and the perf-db only exist on the fused path;
        // rejecting them keeps records honest about what ran.
        if (spec->autotune != solver::AutotuneMode::Off) {
            *error = strfmt("--autotune %s searches over fused-kernel "
                            "solvers; add --fusion-kernels on",
                            solver::autotuneModeName(spec->autotune));
            return false;
        }
        if (!spec->perfdb.empty()) {
            *error = "--perfdb names the fused-kernel autotuning "
                     "cache; add --fusion-kernels on";
            return false;
        }
    }
    if (spec->mode == RunMode::Train &&
        (spec->dtype == tensor::DType::I8 ||
         spec->dtype == tensor::DType::F16)) {
        // i8/f16 have no backward kernels and no master-weight story;
        // rejecting the combination keeps every emitted record honest.
        // bf16 is allowed: training keeps f32 master weights and only
        // the eval passes reduce.
        *error = strfmt("--dtype %s is inference-only; use --mode "
                        "infer/serve, or --dtype bf16 (f32 master "
                        "weights) for reduced-precision training",
                        tensor::dtypeName(spec->dtype));
        return false;
    }
    if (spec->autotune == solver::AutotuneMode::Force) {
        // Force always re-searches and re-writes the perf-db, so an
        // unwritable existing db can only end in lost results — fail
        // at parse time with a clear message instead. Permission bits
        // via stat(), not access(): access(W_OK) is always 0 for root.
        const std::string path = solver::resolvePerfDbPath(spec->perfdb);
        struct stat st;
        if (::stat(path.c_str(), &st) == 0 &&
            (st.st_mode & (S_IWUSR | S_IWGRP | S_IWOTH)) == 0) {
            *error = strfmt(
                "--autotune force must rewrite the perf-db, but '%s' "
                "is read-only; make it writable or pass --perfdb with "
                "a writable path", path.c_str());
            return false;
        }
    }
    if (!spec->faults.empty()) {
        // Grammar check at parse time: the seed doesn't affect whether
        // a spec parses, so any seed validates the grammar.
        pipeline::FaultPlan plan;
        std::string fault_error;
        if (!pipeline::parseFaultPlan(spec->faults, spec->seed, &plan,
                                      &fault_error)) {
            *error = strfmt("--faults: %s", fault_error.c_str());
            return false;
        }
    }
    if (!spec->workload.empty() &&
        !models::WorkloadRegistry::instance().find(spec->workload)) {
        *error = strfmt(
            "unknown workload '%s' (known: %s)", spec->workload.c_str(),
            join(models::WorkloadRegistry::instance().names(), ", ")
                .c_str());
        return false;
    }
    return true;
}

} // namespace

bool
parseRunSpec(const std::vector<std::string> &args, RunSpec *spec,
             std::string *error)
{
    if (!parseSpecFlags(args, spec, error))
        return false;
    if (spec->workload.empty()) {
        *error = "missing --workload";
        return false;
    }
    return true;
}

bool
parseRunSpecTemplate(const std::vector<std::string> &args, RunSpec *spec,
                     std::string *error)
{
    return parseSpecFlags(args, spec, error);
}

bool
parseRunSpecs(const std::vector<std::string> &args,
              std::vector<RunSpec> *specs, std::string *error)
{
    specs->clear();
    error->clear();

    // Locate sweepable flags and split their comma lists; everything
    // else passes through untouched.
    std::vector<std::string> batches = {""};
    std::vector<std::string> threads = {""};
    std::vector<std::string> scales = {""};
    std::vector<std::string> rates = {""};
    std::vector<std::string> dtypes = {""};
    std::vector<std::string> rest;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &flag = args[i];
        const bool sweepable = flag == "--batch" || flag == "--threads" ||
                               flag == "--scale" || flag == "--rate" ||
                               flag == "--dtype";
        if (!sweepable) {
            rest.push_back(flag);
            continue;
        }
        if (i + 1 >= args.size()) {
            *error = strfmt("flag '%s' is missing its value",
                            flag.c_str());
            return false;
        }
        const std::vector<std::string> values = split(args[++i], ',');
        if (values.empty()) {
            *error = strfmt("flag '%s' has an empty value", flag.c_str());
            return false;
        }
        for (const std::string &value : values) {
            if (value.empty()) {
                *error = strfmt("flag '%s' has an empty sweep entry",
                                flag.c_str());
                return false;
            }
        }
        if (flag == "--batch")
            batches = values;
        else if (flag == "--threads")
            threads = values;
        else if (flag == "--scale")
            scales = values;
        else if (flag == "--rate")
            rates = values;
        else
            dtypes = values;
    }

    // Cross-product, batch-major: every sink sees batches grouped
    // together, then threads, then scales, then offered rates, then
    // dtypes (innermost, so precision variants of one configuration
    // land adjacent in the stream).
    for (const std::string &b : batches) {
        for (const std::string &t : threads) {
            for (const std::string &s : scales) {
                for (const std::string &r : rates) {
                    for (const std::string &d : dtypes) {
                        std::vector<std::string> single = rest;
                        if (!b.empty()) {
                            single.push_back("--batch");
                            single.push_back(b);
                        }
                        if (!t.empty()) {
                            single.push_back("--threads");
                            single.push_back(t);
                        }
                        if (!s.empty()) {
                            single.push_back("--scale");
                            single.push_back(s);
                        }
                        if (!r.empty()) {
                            single.push_back("--rate");
                            single.push_back(r);
                        }
                        if (!d.empty()) {
                            single.push_back("--dtype");
                            single.push_back(d);
                        }
                        RunSpec spec;
                        if (!parseRunSpec(single, &spec, error))
                            return false;
                        specs->push_back(std::move(spec));
                    }
                }
            }
        }
    }
    return true;
}

} // namespace runner
} // namespace mmbench
