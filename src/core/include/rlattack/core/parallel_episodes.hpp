// Episode-parallel execution layer for the experiment drivers.
//
// The paper's evaluation grids (Figures 4-9) are embarrassingly parallel:
// every episode is a pure function of (victim weights, approximator
// weights, attack kind, budget, policy, episode seed) because
// AttackSession::run_episode reseeds the environment, the rollout FIFO and
// the attack RNG from the episode seed alone. This module flattens a grid
// into a job list, fans the jobs out across worker clones on
// util::ThreadPool::global(), and returns outcomes indexed by job position
// so callers can reduce in run order — bit-identical results at any thread
// count (the same determinism contract the GEMM kernels established).
//
// Layering rule: episode workers run *on* the global pool, and the GEMM
// kernels underneath each episode also target that pool — the pool's
// nested-parallelism guard (ThreadPool::inside_worker) makes those inner
// loops run caller-inline, so one episode never oversubscribes the machine.
#pragma once

#include "rlattack/core/pipeline.hpp"

namespace rlattack::core {

/// One self-contained unit of episode work.
struct EpisodeJob {
  attack::Kind attack = attack::Kind::kGaussian;
  attack::Budget budget;
  AttackPolicy policy;
  std::uint64_t seed = 0;
};

/// Wall-clock record of one driver invocation, surfaced in the bench CSVs
/// and BENCH_experiments.json.
struct ExperimentTiming {
  double wall_seconds = 0.0;
  std::size_t threads = 1;   ///< resolved episode-worker count
  std::size_t episodes = 0;  ///< total episodes executed
  /// Concurrent-host count of the episode-batched evaluation substrate
  /// (0 = per-step victim/approximator queries ran single-row).
  std::size_t eval_batch = 0;
};

/// Episode-worker count an experiment driver should use. `requested` > 0
/// wins; otherwise the RLATTACK_EXPERIMENT_THREADS env var (a positive
/// integer) if set; otherwise the global thread-pool size, which is itself
/// RLATTACK_THREADS-aware. A result of 1 selects the historical serial
/// code path (no clones, no pool dispatch).
std::size_t resolve_experiment_threads(std::size_t requested);

/// Concurrent-host count of the episode-batched evaluation substrate:
/// min(32, jobs.size()) when the substrate is enabled
/// (attack::eval_batch_enabled(), RLATTACK_EVAL_BATCH) and the job list has
/// at least two episodes — every episode queries the victim policy every
/// step, so every job benefits from the fused act_batch forwards. 0 means
/// run_episode_jobs takes the serial or pooled-clone path.
std::size_t resolve_eval_batch(const std::vector<EpisodeJob>& jobs);

/// Runs every job against (victim, model) for `game`, returning outcomes
/// indexed by job position.
///
/// Path selection, in precedence order:
///   1. Episode-batched evaluation (resolve_eval_batch(jobs) > 0): that
///      many host threads share ONE attack::BatchedCraftPlanner bound to
///      the ORIGINAL victim and model — no clones at all. Per-step victim
///      policy queries fuse into shared act_batch forwards through the
///      planner's victim handler, and every approximator query (forensics
///      probes and crafts) batches through the same rendezvous into shared
///      tail GEMMs. The host count comes from the rendezvous width, not
///      `threads` — on a single-core machine the win is arithmetic
///      intensity, not parallelism.
///   2. threads == 1: jobs run in order on the calling thread against the
///      original victim and model (serial path).
///   3. threads > 1: min(threads, jobs) workers — each with its own pooled
///      victim/model clone and a per-job AttackSession + attack instance —
///      pull jobs from a shared queue over the global pool.
///
/// The pooled-clone path's victim/model clones persist across invocations
/// in a process-lifetime pool and are re-synchronized in place (reset_from)
/// instead of reconstructed; concurrent invocations serialize on that
/// pool. Outcomes land at their job index and every episode is a pure
/// function of its seed, so the result vector is bit-identical across all
/// three paths and any thread count.
std::vector<EpisodeOutcome> run_episode_jobs(
    rl::Agent& victim, env::Game game, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs, std::size_t threads);

}  // namespace rlattack::core
