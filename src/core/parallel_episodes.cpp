#include "rlattack/core/parallel_episodes.hpp"

#include <algorithm>
#include <atomic>
#include <thread>

#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/rl/batch.hpp"
#include "rlattack/util/check.hpp"
#include "rlattack/util/env.hpp"
#include "rlattack/util/thread_pool.hpp"
#include "rlattack/util/thread_safety.hpp"

namespace rlattack::core {

namespace {

/// Host-thread count upper bound of the episode-batched driver (the
/// rendezvous width). Batching is an arithmetic-intensity win, so the width
/// is decoupled from the machine's thread count: on the 1-core reference
/// box 32 beat 16 on every fig5/fig6 row, and widths beyond ~32 were flat.
constexpr std::size_t kEvalBatchWidth = 32;

}  // namespace

std::size_t resolve_experiment_threads(std::size_t requested) {
  if (requested > 0) return requested;
  if (const std::optional<long> v =
          util::env::get_long(util::env::Var::kExperimentThreads);
      v && *v > 0)
    return static_cast<std::size_t>(*v);
  return util::ThreadPool::global().size();
}

std::size_t resolve_eval_batch(const std::vector<EpisodeJob>& jobs) {
  if (!attack::eval_batch_enabled()) return 0;
  // Every episode queries the victim every step, so every job can enroll —
  // a rendezvous just needs two of them.
  if (jobs.size() < 2) return 0;
  return std::min(kEvalBatchWidth, jobs.size());
}

namespace {

EpisodeOutcome run_one_job(rl::Agent& victim, env::Game game,
                           seq2seq::Seq2SeqModel& model, const EpisodeJob& job,
                           attack::BatchedCraftPlanner* planner = nullptr) {
  static obs::SpanStat& episode_span =
      obs::MetricsRegistry::global().span("phase.episode");
  obs::Span span(episode_span);
  obs::TraceScope trace("episode.job", "seed", static_cast<double>(job.seed));
  // Attacks hold only immutable configuration (steps, coefficients), so a
  // fresh default-configured instance per job matches the shared instance
  // the serial drivers historically used.
  attack::AttackPtr attacker = attack::make_attack(job.attack);
  AttackSession session(victim, game, model, *attacker, job.budget);
  return session.run_episode(job.policy, job.seed, planner);
}

/// Number of Rng draws hashed per job when cross-checking stream purity in
/// checked builds. Enough to cover the seed-derived splits an episode
/// performs up front; cheap enough to recompute on every worker.
constexpr std::size_t kCheckedRngDraws = 32;

/// Order-sensitive hash of every parameter tensor of a model/agent clone.
/// Clones must be bit-identical to their source before any job runs —
/// divergent weights would silently break the run-order reduction's
/// bit-identical-rows contract.
std::uint64_t hash_params(const std::vector<nn::Param>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const nn::Param& p : params) {
    const std::uint64_t t = util::hash_floats(p.value->data());
    h ^= t + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

/// Process-lifetime worker pool of the pooled-clone path: one victim clone
/// and one model clone per slot, re-synchronized in place on every
/// acquisition instead of reconstructed. Clone construction costs a full
/// set of network allocations per episode batch; experiment grids invoke
/// run_episode_jobs hundreds of times against the same victim/model, so
/// after warm-up the pool makes those invocations allocation-free (pinned
/// by the agent/model construction counters in checked tests).
struct PooledWorker {
  rl::AgentPtr victim;
  std::unique_ptr<seq2seq::Seq2SeqModel> model;
};

struct WorkerPool {
  util::Mutex mu;  ///< held for the whole pooled run, not just acquisition
  /// Clone slots; stable addresses only while mu is held (sync may resize).
  std::vector<PooledWorker> workers RLATTACK_GUARDED_BY(mu);
};

WorkerPool& worker_pool() {
  static WorkerPool pool;
  return pool;
}

/// Ensures slots [0, count) hold a victim clone of `victim` and a model
/// clone of `model`, reusing existing clones via reset_from and rebuilding
/// only on architecture mismatch.
void sync_workers_locked(WorkerPool& pool, rl::Agent& victim,
                         seq2seq::Seq2SeqModel& model, std::size_t count)
    RLATTACK_REQUIRES(pool.mu) {
  if (pool.workers.size() < count) pool.workers.resize(count);
  for (std::size_t w = 0; w < count; ++w) {
    PooledWorker& slot = pool.workers[w];
    if (slot.victim != nullptr) {
      try {
        slot.victim->reset_from(victim);
      } catch (const std::logic_error&) {
        slot.victim = victim.clone();  // architecture changed; rebuild
      }
    } else {
      slot.victim = victim.clone();
    }
    if (slot.model != nullptr) {
      try {
        slot.model->reset_from(model);
      } catch (const std::logic_error&) {
        slot.model = model.clone();
      }
    } else {
      slot.model = model.clone();
    }
  }
}

/// Checked build: every pooled clone must leave sync bit-identical to its
/// source — a stale or partially reset clone would silently break the
/// run-order reduction's bit-identical-rows contract.
void verify_workers_locked(WorkerPool& pool, rl::Agent& victim,
                           seq2seq::Seq2SeqModel& model, std::size_t count)
    RLATTACK_REQUIRES(pool.mu) {
  const std::uint64_t victim_hash = hash_params(victim.network().params());
  const std::uint64_t model_hash = hash_params(model.params());
  for (std::size_t w = 0; w < count; ++w) {
    RLATTACK_CHECK(
        hash_params(pool.workers[w].victim->network().params()) == victim_hash,
        "run_episode_jobs: victim clone " + std::to_string(w) +
            " diverges from source parameters before any job ran");
    RLATTACK_CHECK(
        hash_params(pool.workers[w].model->params()) == model_hash,
        "run_episode_jobs: model clone " + std::to_string(w) +
            " diverges from source parameters before any job ran");
  }
}

std::vector<std::uint64_t> checked_stream_hashes(
    const std::vector<EpisodeJob>& jobs) {
  std::vector<std::uint64_t> hashes;
  if constexpr (util::kCheckedBuild) {
    hashes.reserve(jobs.size());
    for (const EpisodeJob& job : jobs)
      hashes.push_back(util::hash_rng_stream(job.seed, kCheckedRngDraws));
  }
  return hashes;
}

void checked_stream_purity(const EpisodeJob& job, std::size_t index,
                           const std::vector<std::uint64_t>& expected) {
  if constexpr (util::kCheckedBuild) {
    // Re-derive the job's RNG stream on the worker that will run it: any
    // seed-plumbing or shared-state bug that makes the stream depend on
    // *which* thread executes the job is caught before the episode
    // contaminates the result vector.
    RLATTACK_CHECK(
        util::hash_rng_stream(job.seed, kCheckedRngDraws) == expected[index],
        "run_episode_jobs: job " + std::to_string(index) +
            " RNG stream is not a pure function of its seed");
  }
}

/// Episode-batched evaluation: `hosts` plain threads share one planner
/// bound to the ORIGINAL victim and model — no clones, no worker pool. The
/// planner's victim handler fuses the concurrent episodes' per-step policy
/// queries into one act_batch forward, and their approximator queries batch
/// through the same rendezvous into shared tail GEMMs. All victim and model
/// access happens inside the flush, one thread at a time; host threads only
/// ever block at the rendezvous. Hosts must NOT be global-pool workers —
/// with a pool of one thread the first host would block inside the
/// rendezvous waiting for hosts that never get scheduled; the inner GEMMs
/// still reach the global pool through its external-submitter path.
std::vector<EpisodeOutcome> run_jobs_eval_batched(
    rl::Agent& victim, env::Game game, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs, std::size_t hosts) {
  std::vector<EpisodeOutcome> outcomes(jobs.size());
  obs::TraceScope trace("episodes.dispatch", "jobs",
                        static_cast<double>(jobs.size()), "hosts",
                        static_cast<double>(hosts));
  const std::vector<std::uint64_t> expected = checked_stream_hashes(jobs);

  attack::BatchedCraftPlanner planner(model);
  planner.set_victim_handler(
      [&victim](
          std::span<attack::BatchedCraftPlanner::EvalProbe* const> probes) {
        std::vector<const nn::Tensor*> rows(probes.size());
        for (std::size_t r = 0; r < probes.size(); ++r)
          rows[r] = probes[r]->observation;
        const std::vector<std::size_t> actions = victim.act_batch(
            rl::batch_observations(rows), /*explore=*/false);
        for (std::size_t r = 0; r < probes.size(); ++r)
          probes[r]->action = actions[r];
      });

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  {
    std::vector<std::thread> host_threads;
    host_threads.reserve(hosts);
    for (std::size_t h = 0; h < hosts; ++h) {
      host_threads.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= jobs.size()) return;
          checked_stream_purity(jobs[i], i, expected);
          outcomes[i] = run_one_job(victim, game, model, jobs[i], &planner);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& t : host_threads) t.join();
  }
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(completed.load(std::memory_order_relaxed) == jobs.size(),
                   "run_episode_jobs: " + std::to_string(completed.load()) +
                       " of " + std::to_string(jobs.size()) +
                       " jobs completed — outcome vector has holes");
  }
  return outcomes;
}

}  // namespace

std::vector<EpisodeOutcome> run_episode_jobs(
    rl::Agent& victim, env::Game game, seq2seq::Seq2SeqModel& model,
    const std::vector<EpisodeJob>& jobs, std::size_t threads) {
  std::vector<EpisodeOutcome> outcomes(jobs.size());
  if (jobs.empty()) return outcomes;

  const std::size_t eval_hosts = resolve_eval_batch(jobs);
  if (eval_hosts > 0) {
    obs::MetricsRegistry::global()
        .gauge("experiment.workers")
        .set(static_cast<double>(eval_hosts));
    return run_jobs_eval_batched(victim, game, model, jobs, eval_hosts);
  }

  const std::size_t workers =
      std::min(threads == 0 ? std::size_t{1} : threads, jobs.size());
  obs::MetricsRegistry::global()
      .gauge("experiment.workers")
      .set(static_cast<double>(workers));
  if (workers <= 1) {
    // Historical serial path: original victim/model, no pool dispatch.
    for (std::size_t i = 0; i < jobs.size(); ++i)
      outcomes[i] = run_one_job(victim, game, model, jobs[i]);
    return outcomes;
  }

  // Threaded path: pooled clone pair per worker, jobs pulled dynamically
  // (episode lengths vary wildly — a successful attack ends CartPole
  // episodes early — so static slices would load-imbalance).
  obs::TraceScope trace("episodes.dispatch", "jobs",
                        static_cast<double>(jobs.size()), "workers",
                        static_cast<double>(workers));
  WorkerPool& pool = worker_pool();
  util::MutexLock pool_lock(pool.mu);
  {
    obs::TraceScope sync_trace("episodes.sync_workers", "count",
                               static_cast<double>(workers));
    sync_workers_locked(pool, victim, model, workers);
  }
  if constexpr (util::kCheckedBuild)
    verify_workers_locked(pool, victim, model, workers);
  const std::vector<std::uint64_t> expected = checked_stream_hashes(jobs);

  // Hoist each worker's clones out of the guarded pool while the lock is
  // held: the chunk workers run without the lock this function keeps held
  // across the join, so they must not touch pool.workers themselves.
  std::vector<rl::Agent*> worker_victims(workers);
  std::vector<seq2seq::Seq2SeqModel*> worker_models(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    worker_victims[w] = pool.workers[w].victim.get();
    worker_models[w] = pool.workers[w].model.get();
  }

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> completed{0};
  util::ThreadPool::global().parallel_for_chunks(
      workers, 1, [&](std::size_t w, std::size_t, std::size_t) {
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= jobs.size()) return;
          checked_stream_purity(jobs[i], i, expected);
          outcomes[i] =
              run_one_job(*worker_victims[w], game, *worker_models[w], jobs[i]);
          completed.fetch_add(1, std::memory_order_relaxed);
        }
      });
  if constexpr (util::kCheckedBuild) {
    RLATTACK_CHECK(completed.load(std::memory_order_relaxed) == jobs.size(),
                   "run_episode_jobs: " +
                       std::to_string(completed.load()) + " of " +
                       std::to_string(jobs.size()) +
                       " jobs completed — outcome vector has holes");
  }
  return outcomes;
}

}  // namespace rlattack::core
