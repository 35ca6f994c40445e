#include "pipeline/stagepipe.hh"

#include <algorithm>

#include "autograd/var.hh"
#include "core/logging.hh"
#include "pipeline/scheduler.hh"
#include "tensor/ops.hh"

namespace mmbench {
namespace pipeline {

/**
 * One in-flight request. Guarded by StagePipe::mu_ except where noted:
 * `ctx` is written only by the task currently executing one of the
 * job's nodes; the per-job wave barrier guarantees tasks of one wave
 * never write the same slot, and cross-wave visibility rides on mu_
 * (every task start/finish passes through the lock).
 */
struct StagePipe::Job
{
    /** One absorbed request riding a merged batch. */
    struct Member
    {
        Job *job = nullptr;
        int64_t rowOffset = 0; ///< its rows' start in the merged batch
        int64_t rows = 0;      ///< its own batch rows
    };

    PipeRequest req;
    ExecContext ctx;
    uint64_t seq = 0;   ///< submission order (FIFO within priority)
    int wave = -1;      ///< current graph level
    std::vector<size_t> waveIds; ///< live node ids of the current wave
    size_t nextTask = 0; ///< next unstarted index into waveIds
    size_t running = 0;  ///< started-but-unfinished tasks of the wave
    bool failed = false; ///< a task hit an injected failure
    bool done = false;   ///< job retired (owner may collect)
    /** Captured fault identity (valid when failed). */
    std::string faultNode;
    int injectedSlowdowns = 0;
    int prunedNodes = 0;

    /** Intrusive ready-list links (guarded by mu_). */
    Job *readyPrev = nullptr;
    Job *readyNext = nullptr;
    bool inReady = false;

    /** Re-merge state (guarded by mu_ except while `merging`). */
    int64_t rows = 0;       ///< current batch rows (grows on merge)
    int64_t ownRows = 0;    ///< this request's own rows (offset 0)
    int requestCountTotal = 1; ///< queue requests riding this batch
    bool merging = false;   ///< fenced off by an in-progress merge
    bool absorbed = false;  ///< riding another job's batch until split
    /**
     * Frontier hold: this job is parked off the ready list awaiting
     * `holdingFor`'s imminent arrival at the same wave frontier (its
     * wave is fully started, so it lands within one task span). The
     * target is mid-wave and thus absorb-immune, so it always arrives
     * and either merges with or releases every holder.
     */
    Job *holdingFor = nullptr;
    std::vector<Member> members; ///< jobs this one absorbed
    /** Merged input batch (replaces req.batch after a merge). */
    std::unique_ptr<data::Batch> ownedBatch;

    bool hasRunnable() const
    {
        return !done && !merging && !absorbed &&
               nextTask < waveIds.size();
    }
};

StagePipe::StagePipe(const StageGraph &graph, const MemoryPlan *plan,
                     size_t stash_slots)
    : graph_(graph), plan_(plan), stashSlots_(stash_slots)
{
    MM_ASSERT(!plan_ || plan_->releaseAfter.size() == graph_.size(),
              "memory plan built for a different graph");
    levels_.reserve(static_cast<size_t>(graph_.numLevels()));
    for (int level = 0; level < graph_.numLevels(); ++level)
        levels_.push_back(graph_.levelNodes(level));
    const std::vector<size_t> sinks = graph_.sinks();
    MM_ASSERT(sinks.size() == 1, "stage graph must have one sink");
    sinkId_ = sinks[0];
}

int
StagePipe::activeJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(active_.size());
}

int
StagePipe::heldJobs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    int held = 0;
    for (const Job *job : active_)
        if (job->holdingFor != nullptr)
            ++held;
    return held;
}

uint64_t
StagePipe::remergedWaves() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return remergedWaves_;
}

uint64_t
StagePipe::remergedRequests() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return remergedRequests_;
}

void
StagePipe::readyInsert(Job *job)
{
    MM_ASSERT(!job->inReady, "ready-list double insert");
    // Rank: priority desc, then FIFO by seq. New jobs carry the
    // highest seq of their priority, so scanning from the tail makes
    // the common insert O(1); re-inserts after a wave keep the job's
    // original seq, so the scan restores its FIFO slot exactly as the
    // old full scan would have picked it.
    Job *at = readyTail_;
    while (at != nullptr &&
           (at->req.priority < job->req.priority ||
            (at->req.priority == job->req.priority &&
             at->seq > job->seq)))
        at = at->readyPrev;
    job->readyPrev = at;
    job->readyNext = at ? at->readyNext : readyHead_;
    if (job->readyNext)
        job->readyNext->readyPrev = job;
    else
        readyTail_ = job;
    if (at)
        at->readyNext = job;
    else
        readyHead_ = job;
    job->inReady = true;
}

void
StagePipe::readyRemove(Job *job)
{
    if (!job->inReady)
        return;
    if (job->readyPrev)
        job->readyPrev->readyNext = job->readyNext;
    else
        readyHead_ = job->readyNext;
    if (job->readyNext)
        job->readyNext->readyPrev = job->readyPrev;
    else
        readyTail_ = job->readyPrev;
    job->readyPrev = job->readyNext = nullptr;
    job->inReady = false;
}

void
StagePipe::advanceWave(Job *job)
{
    for (;;) {
        if (job->failed ||
            job->wave + 1 >= static_cast<int>(levels_.size())) {
            job->done = true;
            return;
        }
        ++job->wave;
        job->waveIds.clear();
        for (size_t id :
             levels_[static_cast<size_t>(job->wave)]) {
            if (prunedByDropMask(graph_.node(id), job->req.dropMask))
                ++job->prunedNodes;
            else
                job->waveIds.push_back(id);
        }
        if (!job->waveIds.empty()) {
            job->nextTask = 0;
            job->running = 0;
            return;
        }
        // Every node of the wave was pruned: fall through to the next.
    }
}

StagePipe::Job *
StagePipe::pickJob()
{
    return readyHead_;
}

/** Concatenate two defined-or-both-undefined Vars along batch dim 0. */
static autograd::Var
concatVars(const autograd::Var &a, const autograd::Var &b,
           const char *what, size_t idx)
{
    MM_ASSERT(a.defined() == b.defined(),
              "re-merge: live %s sets diverge at %zu", what, idx);
    if (!a.defined())
        return autograd::Var();
    return autograd::Var(tensor::concat({a.value(), b.value()}, 0));
}

void
StagePipe::tryMerge(Job *job, std::unique_lock<std::mutex> &lock)
{
    if (!job->req.remerge || job->req.faults != nullptr)
        return;
    for (;;) {
        // `job` sits at a wave frontier: advanceWave just reset its
        // cursor and no task of the new wave has started.
        MM_ASSERT(job->nextTask == 0 && job->running == 0,
                  "tryMerge off the wave frontier");
        Job *peer = nullptr;
        for (Job *cand : active_) {
            if (cand == job || !cand->req.remerge || cand->done ||
                cand->failed || cand->merging || cand->absorbed ||
                cand->req.faults != nullptr)
                continue;
            // Frontier-stalled at the same wave, nothing started yet.
            if (cand->wave != job->wave || cand->nextTask != 0 ||
                cand->running != 0 || cand->waveIds.empty())
                continue;
            // Same request shape: drop-mask (hence identical live
            // node/slot sets), SLO class and priority. The pipe is
            // per-workload, which pins the graph and the dtype.
            if (cand->req.dropMask != job->req.dropMask ||
                cand->req.classId != job->req.classId ||
                cand->req.priority != job->req.priority)
                continue;
            if (job->requestCountTotal + cand->requestCountTotal >
                std::min(job->req.mergeCap, cand->req.mergeCap))
                continue;
            if (!peer || cand->seq < peer->seq)
                peer = cand;
        }
        if (peer == nullptr)
            return;

        // Absorb into the lower seq so the merged batch keeps the
        // older request's place in the FIFO order.
        Job *a = job->seq < peer->seq ? job : peer;
        Job *b = a == job ? peer : job;
        MM_ASSERT(a->waveIds == b->waveIds,
                  "re-merge: wave task lists diverge");
        MM_ASSERT(a->prunedNodes == b->prunedNodes,
                  "re-merge: pruning histories diverge");
        a->merging = true;
        b->merging = true;
        readyRemove(a);
        readyRemove(b);
        const int64_t arows = a->rows;
        lock.unlock();

        // Both jobs are quiescent (no task running, none can start
        // while `merging` holds them off the ready list), so their
        // tensors are safe to read unlocked. All allocations and the
        // member's releases happen on this thread — the one driving
        // the absorbing batch — so storage recycles through the
        // absorbing side's arena shard (RequestArenaScope handoff).
        auto merged = std::make_unique<data::Batch>();
        const data::Batch &ab = *a->ctx.batch;
        const data::Batch &bb = *b->ctx.batch;
        MM_ASSERT(ab.modalities.size() == bb.modalities.size(),
                  "re-merge: modality counts diverge");
        merged->modalities.reserve(ab.modalities.size());
        for (size_t m = 0; m < ab.modalities.size(); ++m)
            merged->modalities.push_back(tensor::concat(
                {ab.modalities[m], bb.modalities[m]}, 0));
        // targets stay undefined: never read on the inference path.
        merged->size = ab.size + bb.size;

        std::vector<autograd::Var> slots(graph_.size());
        for (size_t i = 0; i < graph_.size(); ++i)
            slots[i] = concatVars(a->ctx.slots[i], b->ctx.slots[i],
                                  "slot", i);
        std::vector<autograd::Var> stash(stashSlots_);
        for (size_t i = 0; i < stashSlots_; ++i)
            stash[i] = concatVars(a->ctx.stash[i], b->ctx.stash[i],
                                  "stash", i);

        // Release the member's superseded buffers here (this thread's
        // shard) before anything else can touch the jobs again.
        b->ctx.slots.assign(graph_.size(), autograd::Var());
        b->ctx.stash.assign(stashSlots_, autograd::Var());
        b->ownedBatch.reset();

        lock.lock();
        a->ownedBatch = std::move(merged);
        a->ctx.batch = a->ownedBatch.get();
        a->ctx.slots = std::move(slots);
        a->ctx.stash = std::move(stash);
        a->members.push_back(Job::Member{b, arows, b->ownRows});
        for (Job::Member &m : b->members) {
            m.rowOffset += arows;
            a->members.push_back(m);
        }
        b->members.clear();
        a->rows += b->rows;
        a->requestCountTotal += b->requestCountTotal;
        b->absorbed = true;
        b->waveIds.clear();
        b->nextTask = 0;
        b->holdingFor = nullptr; // rode a merge instead of the hold
        active_.erase(std::find(active_.begin(), active_.end(), b));
        ++remergedWaves_;
        remergedRequests_ +=
            static_cast<uint64_t>(b->requestCountTotal);
        a->merging = false;
        b->merging = false;
        // A holding absorber stays parked: its trailer is still about
        // to arrive, and releaseHolders() re-inserts it if that merge
        // falls through.
        if (a->holdingFor == nullptr)
            readyInsert(a);
        cv_.notify_all();

        // The absorber may keep absorbing: loop from its frontier.
        job = a;
    }
}

void
StagePipe::holdForTrailer(Job *job)
{
    if (!job->req.remerge || job->req.faults != nullptr)
        return;
    // Only a still-parked frontier job can hold: tryMerge may just
    // have absorbed it (or grown it) and re-ranked the ready list.
    if (!job->inReady || job->done || job->absorbed || job->merging ||
        job->nextTask != 0 || job->running != 0)
        return;
    for (Job *cand : active_) {
        if (cand == job || !cand->req.remerge || cand->done ||
            cand->failed || cand->merging || cand->absorbed ||
            cand->req.faults != nullptr)
            continue;
        // One wave behind with every task started: it lands on this
        // frontier within one task span, the bounded stall the hold
        // trades for a merge.
        if (cand->wave != job->wave - 1 ||
            cand->nextTask < cand->waveIds.size() ||
            cand->running == 0)
            continue;
        if (cand->req.dropMask != job->req.dropMask ||
            cand->req.classId != job->req.classId ||
            cand->req.priority != job->req.priority)
            continue;
        // Both parties are quiescent or mid-wave (absorb-immune), so
        // neither side's request count can change before the arrival:
        // a cap check now still holds at merge time.
        if (job->requestCountTotal + cand->requestCountTotal >
            std::min(job->req.mergeCap, cand->req.mergeCap))
            continue;
        readyRemove(job);
        job->holdingFor = cand;
        return;
    }
}

void
StagePipe::releaseHolders(Job *arrived)
{
    for (Job *held : active_) {
        if (held->holdingFor != arrived)
            continue;
        held->holdingFor = nullptr;
        if (!held->absorbed && !held->done && !held->merging &&
            !held->inReady && held->hasRunnable())
            readyInsert(held);
    }
}

void
StagePipe::splitOutputs(Job *job)
{
    MM_ASSERT(!job->failed,
              "merged jobs are fault-free by compatibility rule");
    const autograd::Var &sink_var = job->ctx.slots[sinkId_];
    MM_ASSERT(sink_var.defined(), "merged job retired without a sink");
    const tensor::Tensor &sink = sink_var.value();
    MM_ASSERT(sink.size(0) == job->rows,
              "merged sink rows diverge from batch rows");
    for (const Job::Member &m : job->members) {
        m.job->ctx.slots[sinkId_] = autograd::Var(
            tensor::narrow(sink, 0, m.rowOffset, m.rows));
        m.job->prunedNodes = job->prunedNodes;
        m.job->injectedSlowdowns = job->injectedSlowdowns;
        m.job->done = true;
    }
    job->members.clear();
    job->ctx.slots[sinkId_] =
        autograd::Var(tensor::narrow(sink, 0, 0, job->ownRows));
}

void
StagePipe::runTask(Job *job, std::unique_lock<std::mutex> &lock)
{
    const size_t node_id = job->waveIds[job->nextTask++];
    ++job->running;
    if (job->nextTask >= job->waveIds.size())
        readyRemove(job); // wave fully started: nothing left to pick
    lock.unlock();

    // Serving is inference-only, so grad is force-disabled on whichever
    // slot runs the task; trace capture stays off on the serve hot
    // path. The plan's releases stay within the job: the parallel-
    // policy plan guarantees no same-wave node reads a dropped slot,
    // and the per-job barrier covers cross-wave reads.
    const NodeRequest node_request{job->req.tag, job->req.faults,
                                   job->req.faultRequest,
                                   job->req.faultAttempt, plan_,
                                   /*gradEnabled=*/false};
    bool faulted = false;
    std::string fault_node;
    int slowdowns = 0;
    try {
        slowdowns = runNode(node_id, graph_.node(node_id), job->ctx,
                            node_request, nullptr, /*capture=*/false);
    } catch (const FaultError &e) {
        faulted = true;
        fault_node = e.node();
    }

    lock.lock();
    job->injectedSlowdowns += slowdowns;
    if (faulted) {
        // Abort the job: no new tasks start; already-running tasks of
        // this wave drain, then the job retires failed and the owner
        // rethrows. First failure wins (matches sequential order only
        // when one node of a wave faults, which is how plans are
        // written; any failure fails the whole request regardless).
        if (!job->failed) {
            job->failed = true;
            job->faultNode = fault_node;
        }
        job->nextTask = job->waveIds.size();
        readyRemove(job); // aborting: unstarted tasks never run
    }
    --job->running;
    if (job->nextTask >= job->waveIds.size() && job->running == 0) {
        advanceWave(job);
        if (job->done) {
            if (!job->members.empty())
                splitOutputs(job); // under mu_: owners see the split
        } else {
            readyInsert(job);
            tryMerge(job, lock); // no-op unless the request opted in
            holdForTrailer(job); // park briefly for an imminent peer
        }
        // The job reached its new frontier (or retired): anyone that
        // held for this arrival either merged in tryMerge or resumes.
        releaseHolders(job);
        // Wave boundary: new tasks became runnable (or the job
        // retired and its owner must wake) — either way, waiters
        // need a fresh look.
        cv_.notify_all();
    }
}

PipeCompletion
StagePipe::execute(const PipeRequest &request)
{
    MM_ASSERT(request.batch != nullptr, "pipe request without a batch");
    MM_ASSERT(!autograd::GradMode::enabled(),
              "StagePipe serves inference only (grad must be disabled)");

    Job job;
    job.req = request;
    job.ctx.batch = request.batch;
    job.ctx.slots.assign(graph_.size(), autograd::Var());
    job.ctx.stash.assign(stashSlots_, autograd::Var());
    job.rows = request.batch->size;
    job.ownRows = job.rows;
    job.requestCountTotal = request.requestCount > 0
                                ? request.requestCount
                                : 1;

    std::unique_lock<std::mutex> lock(mu_);
    job.seq = nextSeq_++;
    advanceWave(&job);
    active_.push_back(&job);
    if (job.hasRunnable()) {
        readyInsert(&job);
        tryMerge(&job, lock); // submission-time frontier merge
        cv_.notify_all();     // idle slots can help immediately
    }

    while (!job.done) {
        Job *runnable = pickJob();
        if (runnable)
            runTask(runnable, lock); // unlocks while the body runs
        else
            cv_.wait(lock);
    }
    // Absorbed jobs were already dropped from active_ at merge time.
    for (size_t i = 0; i < active_.size(); ++i) {
        if (active_[i] == &job) {
            active_.erase(active_.begin() +
                          static_cast<ptrdiff_t>(i));
            break;
        }
    }
    lock.unlock();

    if (job.failed)
        throw FaultError(job.faultNode, request.faultRequest,
                         request.faultAttempt);

    PipeCompletion completion;
    completion.output = job.ctx.slots[sinkId_];
    completion.injectedSlowdowns = job.injectedSlowdowns;
    completion.prunedNodes = job.prunedNodes;
    return completion;
}

} // namespace pipeline
} // namespace mmbench
