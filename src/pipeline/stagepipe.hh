/**
 * @file
 * StagePipe: the cross-request stage-level serving scheduler.
 *
 * The historical serve path executes each request's StageGraph as one
 * indivisible unit on its slot — while request N runs its fusion and
 * head stages (one node per wave), every other slot's encoder-capable
 * capacity idles. StagePipe breaks requests into their graph waves and
 * lets the serving slots work-share node tasks across every in-flight
 * request: the encoder wave of request N+1 runs concurrently with the
 * fusion/head stages of request N, on exactly the thread budget the
 * serve loop already owns (no extra threads are created).
 *
 * Model: each slot calls execute() with its request. The call submits
 * a Job — an ExecContext plus a wave cursor over the graph's level
 * partition — and the calling slot becomes a generic task runner: it
 * repeatedly picks the highest-priority runnable node task from ANY
 * active job (its own or a neighbour's), parks on a condition variable
 * when nothing is runnable, and returns once its own job retires. A
 * job's waves execute with a per-job barrier (wave k starts only when
 * wave k-1 fully finished), which preserves the parallel-policy memory
 * plan's release rule and the graph's dependency order.
 *
 * Each node task calls the scheduler's runNode (scheduler.hh), the
 * same executor runGraph uses: fault consultation before the body (an
 * injected failure aborts the job's remaining waves and execute()
 * rethrows FaultError on the owning slot, so the runner's retry loop
 * is untouched), grad disabled, tag/stage/modality trace scopes,
 * injected-straggler busy-extension and planned buffer releases after
 * the node; waves skip nodes by the shared prunedByDropMask rule. Node
 * bodies are deterministic functions of their slot inputs, so outputs
 * are bitwise identical to unpipelined execution for any slot count.
 *
 * Task order is priority-aware (request-class priority, FIFO by
 * submission within a priority), so SLO classes keep their dequeue
 * order advantage inside the execution engine, not just in the
 * admission queue. Runnable jobs live on an intrusive ready list kept
 * in that order, so picking the next task is O(1) instead of a scan
 * over every in-flight job under the pipe lock.
 *
 * Re-merge (opt-in per request): batch membership is normally frozen
 * at dispatch — whatever batch the admission queue formed runs all its
 * waves as one unit, so the wide fusion/head waves execute at whatever
 * size the queue happened to produce. With `PipeRequest::remerge` set,
 * a job that reaches a wave boundary may absorb a compatible job
 * stalled at the same wave frontier: the live stage tensors of both
 * jobs are re-concatenated along batch dim 0 and the absorbed job
 * rides the merged batch until retirement, when the sink output is
 * split back per request (each request still observes its own output,
 * outcome and latency). Compatibility is strict — same graph (the
 * pipe is per-workload, which also pins the dtype), same wave index,
 * same drop-mask, same SLO class and priority, fault-free requests
 * only, and the merged request count stays within `mergeCap` — and
 * node kernels are row-stable (a row's value does not depend on the
 * batch size around it), so merged outputs are bitwise identical to
 * the un-merged pipelined engine.
 *
 * Merges trigger at two instants: when a request is submitted (it may
 * join a compatible batch parked at the wave-0 frontier) and when a
 * job's wave completes (the arriving job may absorb peers parked at
 * the same frontier). Because a parked frontier lasts only while every
 * runner is busy, an arriving job additionally *holds* — parks off the
 * ready list — when a compatible job one wave behind has its whole
 * wave started: that trailer reaches the same frontier within one task
 * span (mid-wave jobs are absorb-immune, so it always arrives) and
 * either merges with or releases the holder. The hold trades a bounded
 * single-task stall for the batching win, the same bet an iteration-
 * level scheduler makes at its step boundary. Buffers follow an arena
 * handoff:
 * the thread performing the merge allocates the concatenated tensors
 * and releases the member's superseded ones, so storage lands in the
 * shard of the thread driving the absorbing batch and nothing leaks
 * past a request's `RequestArenaScope`.
 */

#ifndef MMBENCH_PIPELINE_STAGEPIPE_HH
#define MMBENCH_PIPELINE_STAGEPIPE_HH

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "pipeline/faults.hh"
#include "pipeline/graph.hh"
#include "pipeline/memplan.hh"

namespace mmbench {
namespace pipeline {

/** One request submitted to the pipe. */
struct PipeRequest
{
    /** Input batch (not owned; must outlive the execute() call). */
    const data::Batch *batch = nullptr;
    /** Modalities dropped from this request (scheduler drop mask). */
    uint32_t dropMask = 0;
    /** Trace tag for the request's node scopes ("" = none). */
    std::string tag;
    /** Fault plan (nullptr/empty = fault-free) and its keying. */
    const FaultPlan *faults = nullptr;
    int faultRequest = 0;
    int faultAttempt = 0;
    /** Task priority (request-class priority; higher runs first). */
    int priority = 0;
    /** SLO class id (re-merge compatibility key). */
    int classId = 0;
    /** Opt into wave-boundary re-merge with compatible in-flight jobs. */
    bool remerge = false;
    /** Queue requests coalesced into this batch (merge accounting). */
    int requestCount = 1;
    /** Max requests a merged batch may hold (--max-batch). */
    int mergeCap = 1;
};

/** What one retired request produced. */
struct PipeCompletion
{
    autograd::Var output;     ///< the head node's slot value
    int injectedSlowdowns = 0; ///< straggler faults absorbed
    int prunedNodes = 0;       ///< nodes skipped by the drop mask
};

class StagePipe
{
  public:
    /**
     * Build a pipe over one workload's graph. `plan` is the buffer-
     * reuse plan to execute per job (computed for the *parallel*
     * policy, whose wave structure matches the pipe's per-job
     * barriers), or nullptr for no planned releases. `stashSlots` is
     * MultiModalWorkload::stashSlots() — every job's ExecContext gets
     * that many stash entries. The graph, plan and any fault plan must
     * outlive the pipe.
     */
    StagePipe(const StageGraph &graph, const MemoryPlan *plan,
              size_t stashSlots);

    /**
     * Run one request through the graph, work-sharing node tasks with
     * every other slot currently inside execute(). Blocks until this
     * request retires; while blocked, the calling thread executes
     * runnable tasks of any active job. Grad must be disabled (serving
     * is inference-only). Throws FaultError when an injected failure
     * aborted the request (after its in-flight tasks drained), exactly
     * like the sequential scheduler.
     */
    PipeCompletion execute(const PipeRequest &request);

    /** Requests currently inside execute() (test introspection). */
    int activeJobs() const;

    /** Jobs parked in a frontier hold (test introspection). */
    int heldJobs() const;

    /** Wave-boundary merges performed (one per absorbed job). */
    uint64_t remergedWaves() const;
    /** Queue requests absorbed into an in-flight batch. */
    uint64_t remergedRequests() const;

  private:
    struct Job;

    /** Advance `job` past finished waves; caller holds mu_. */
    void advanceWave(Job *job);
    /** Pick the best runnable (job, task); caller holds mu_. */
    Job *pickJob();
    /** Run one node task of `job`; called with `lock` held. */
    void runTask(Job *job, std::unique_lock<std::mutex> &lock);

    /** Link `job` into the ready list at its (priority, seq) rank. */
    void readyInsert(Job *job);
    /** Unlink `job` from the ready list (no-op when not linked). */
    void readyRemove(Job *job);
    /**
     * Merge `job` — which must sit at a wave frontier (no task of its
     * current wave started) — with every compatible job stalled at the
     * same frontier, absorbing into the lowest-seq participant. Called
     * with `lock` held; unlocks while concatenating tensors (both jobs
     * are quiescent and fenced off the ready list by their `merging`
     * flags while unlocked).
     */
    void tryMerge(Job *job, std::unique_lock<std::mutex> &lock);
    /**
     * Park `job` (off the ready list) when a compatible job one wave
     * behind has every task of that wave started: it arrives at this
     * frontier within one task span, and the arrival either merges
     * with or releases every holder. Caller holds mu_.
     */
    void holdForTrailer(Job *job);
    /** Re-ready every job whose held-for target just arrived. */
    void releaseHolders(Job *arrived);
    /** Split a retiring merged job's sink rows back per request. */
    void splitOutputs(Job *job);

    const StageGraph &graph_;
    const MemoryPlan *plan_;
    size_t stashSlots_;
    /** Node ids per dependency level, precomputed once. */
    std::vector<std::vector<size_t>> levels_;
    size_t sinkId_ = 0; ///< the head node (the graph's single sink)

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Job *> active_; ///< jobs the pipe still drives
    /** Intrusive ready list: priority desc, then FIFO by seq. */
    Job *readyHead_ = nullptr;
    Job *readyTail_ = nullptr;
    uint64_t nextSeq_ = 0;
    uint64_t remergedWaves_ = 0;
    uint64_t remergedRequests_ = 0;
};

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_STAGEPIPE_HH
