// Determinism contract of the episode-parallel experiment layer: every
// driver must produce bit-identical result rows at experiment_threads = 1
// (the historical serial path: original victim/model, no pool dispatch)
// and = 4 (cloned workers pulling jobs from the global pool). Registered
// with CTest twice — RLATTACK_THREADS=1 and =4 — like kernels_test, so the
// comparison runs both with a serial pool (clone/index bookkeeping only)
// and with real concurrent workers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "rlattack/attack/batch_planner.hpp"
#include "rlattack/core/experiments.hpp"
#include "rlattack/core/parallel_episodes.hpp"
#include "rlattack/env/factory.hpp"
#include "rlattack/obs/forensics.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/rl/agent.hpp"
#include "rlattack/rl/factory.hpp"
#include "rlattack/seq2seq/model.hpp"

namespace rlattack::core {
namespace {

class ExperimentsParallelTest : public ::testing::Test {
 protected:
  // One artefact cache for the whole suite: the first test trains the tiny
  // victims/approximators, later tests load them from checkpoints.
  static void SetUpTestSuite() {
    // Per-process path: CTest runs the .threads1 and .threads4 registrations
    // of this binary concurrently, and they must not share (and delete) one
    // training cache under each other.
    cache_ = ::testing::TempDir() + "rlattack_parallel_cache_" +
             std::to_string(::getpid());
    std::filesystem::remove_all(cache_);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(cache_);
    std::filesystem::remove_all(cache_ + "_timebomb");
  }

  static Zoo make_tiny_zoo() {
    ZooConfig cfg;
    cfg.cache_dir = cache_;
    cfg.scale = 0.02;  // ~8 training episodes, 2 seq2seq epochs
    cfg.seed = 7;
    cfg.verbose = false;
    return Zoo(cfg);
  }

  static std::string cache_;
};

std::string ExperimentsParallelTest::cache_;

TEST_F(ExperimentsParallelTest, RewardExperimentBitIdenticalAcrossThreads) {
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kGaussian, attack::Kind::kFgsm};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 1000;

  zoo.set_experiment_threads(1);
  ExperimentTiming serial_timing;
  const auto serial = run_reward_experiment(zoo, cfg, &serial_timing);
  zoo.set_experiment_threads(4);
  ExperimentTiming parallel_timing;
  const auto parallel = run_reward_experiment(zoo, cfg, &parallel_timing);

  EXPECT_EQ(serial_timing.threads, 1u);
  EXPECT_EQ(parallel_timing.threads, 4u);
  EXPECT_EQ(parallel_timing.episodes, 2u * 2u * 3u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attack, parallel[i].attack) << "row " << i;
    EXPECT_EQ(serial[i].l2_budget, parallel[i].l2_budget) << "row " << i;
    EXPECT_EQ(serial[i].mean_reward, parallel[i].mean_reward) << "row " << i;
    EXPECT_EQ(serial[i].stddev_reward, parallel[i].stddev_reward)
        << "row " << i;
    EXPECT_EQ(serial[i].mean_realised_l2, parallel[i].mean_realised_l2)
        << "row " << i;
    EXPECT_EQ(serial[i].sequence_variant, parallel[i].sequence_variant)
        << "row " << i;
  }
}

TEST_F(ExperimentsParallelTest,
       TransferabilityExperimentBitIdenticalAcrossThreads) {
  Zoo zoo = make_tiny_zoo();
  TransferabilityConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kGaussian, attack::Kind::kFgsm};
  cfg.l2_budgets = {0.5, 1.0};
  cfg.runs = 3;
  cfg.seed = 2000;

  zoo.set_experiment_threads(1);
  const auto serial = run_transferability_experiment(zoo, cfg);
  zoo.set_experiment_threads(4);
  const auto parallel = run_transferability_experiment(zoo, cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].attack, parallel[i].attack) << "row " << i;
    EXPECT_EQ(serial[i].l2_budget, parallel[i].l2_budget) << "row " << i;
    EXPECT_EQ(serial[i].transfer_rate, parallel[i].transfer_rate)
        << "row " << i;
    EXPECT_EQ(serial[i].samples, parallel[i].samples) << "row " << i;
  }
}

TEST_F(ExperimentsParallelTest, TimebombExperimentBitIdenticalAcrossThreads) {
  // The time-bomb driver trains the m = max(delay)+1 approximator, whose
  // length search needs observation episodes of >= n + m steps — more than
  // the 0.02 zoo's single short episode provides. Use a slightly larger zoo
  // with its own cache (checkpoint keys do not encode the scale).
  ZooConfig zcfg;
  zcfg.cache_dir = cache_ + "_timebomb";
  zcfg.scale = 0.1;
  zcfg.seed = 7;
  zcfg.verbose = false;
  Zoo zoo(zcfg);
  TimeBombConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.victim_algorithm = rl::Algorithm::kDqn;
  cfg.approximator_source = rl::Algorithm::kDqn;
  cfg.attack_kind = attack::Kind::kFgsm;
  cfg.epsilon_linf = 0.3f;
  cfg.delays = {1, 2, 3};
  cfg.runs = 3;
  cfg.seed = 3000;

  zoo.set_experiment_threads(1);
  const auto serial = run_timebomb_experiment(zoo, cfg);
  zoo.set_experiment_threads(4);
  ExperimentTiming timing;
  const auto parallel = run_timebomb_experiment(zoo, cfg, &timing);

  // 3 delays x 3 runs x (clean + attacked) episodes.
  EXPECT_EQ(timing.episodes, 3u * 3u * 2u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].delay, parallel[i].delay) << "row " << i;
    EXPECT_EQ(serial[i].trials, parallel[i].trials) << "row " << i;
    EXPECT_EQ(serial[i].success_rate, parallel[i].success_rate)
        << "row " << i;
  }
}

TEST_F(ExperimentsParallelTest, ZooEpisodeLoopsBitIdenticalAcrossThreads) {
  // Zoo::victim_score and Zoo::episodes fan their independently seeded
  // episodes over the same runner; scores and traces must not depend on
  // the worker count.
  Zoo serial_zoo = make_tiny_zoo();
  serial_zoo.set_experiment_threads(1);
  Zoo parallel_zoo = make_tiny_zoo();  // same cache: identical artefacts
  parallel_zoo.set_experiment_threads(4);

  const double serial_score =
      serial_zoo.victim_score(env::Game::kCartPole, rl::Algorithm::kDqn, 6);
  const double parallel_score =
      parallel_zoo.victim_score(env::Game::kCartPole, rl::Algorithm::kDqn, 6);
  EXPECT_EQ(serial_score, parallel_score);

  const auto& serial_eps =
      serial_zoo.episodes(env::Game::kCartPole, rl::Algorithm::kDqn);
  const auto& parallel_eps =
      parallel_zoo.episodes(env::Game::kCartPole, rl::Algorithm::kDqn);
  ASSERT_EQ(serial_eps.size(), parallel_eps.size());
  for (std::size_t e = 0; e < serial_eps.size(); ++e) {
    ASSERT_EQ(serial_eps[e].steps.size(), parallel_eps[e].steps.size())
        << "episode " << e;
    for (std::size_t s = 0; s < serial_eps[e].steps.size(); ++s) {
      const auto& a = serial_eps[e].steps[s];
      const auto& b = parallel_eps[e].steps[s];
      EXPECT_EQ(a.action, b.action) << "episode " << e << " step " << s;
      EXPECT_EQ(a.reward, b.reward) << "episode " << e << " step " << s;
      EXPECT_EQ(a.done, b.done) << "episode " << e << " step " << s;
      ASSERT_EQ(a.observation.size(), b.observation.size());
      for (std::size_t i = 0; i < a.observation.size(); ++i)
        ASSERT_EQ(a.observation[i], b.observation[i])
            << "episode " << e << " step " << s << " obs " << i;
    }
  }
}

TEST_F(ExperimentsParallelTest, CloneContractHoldsForAgentsAndModel) {
  Zoo zoo = make_tiny_zoo();
  rl::Agent& victim = zoo.victim(env::Game::kCartPole, rl::Algorithm::kDqn);
  rl::AgentPtr copy = victim.clone();
  nn::Tensor probe({4}, {0.05f, -0.2f, 0.11f, 0.4f});
  EXPECT_EQ(copy->action_count(), victim.action_count());
  EXPECT_EQ(copy->algorithm(), victim.algorithm());
  EXPECT_EQ(copy->act(probe, false), victim.act(probe, false));

  ApproximatorInfo approx =
      zoo.approximator(env::Game::kCartPole, rl::Algorithm::kDqn, 1);
  auto model_copy = approx.model->clone();
  const auto& mc = approx.model->config();
  nn::Tensor actions({1, mc.input_steps, mc.actions});
  nn::Tensor history({1, mc.input_steps, mc.frame_size()});
  nn::Tensor current({1, mc.frame_size()});
  for (std::size_t i = 0; i < history.size(); ++i)
    history[i] = 0.01f * static_cast<float>(i % 17);
  for (std::size_t i = 0; i < current.size(); ++i)
    current[i] = 0.3f - 0.1f * static_cast<float>(i);
  nn::Tensor original_out = approx.model->forward(actions, history, current);
  nn::Tensor clone_out = model_copy->forward(actions, history, current);
  ASSERT_EQ(original_out.size(), clone_out.size());
  for (std::size_t i = 0; i < original_out.size(); ++i)
    ASSERT_EQ(original_out[i], clone_out[i]) << "logit " << i;
}

// Telemetry must only observe: result rows are bit-identical with metrics
// enabled and disabled, at both experiment_threads settings. (Registered
// under RLATTACK_THREADS=1 and =4 like the rest of this suite, so the
// global-pool dimension is covered too.)
TEST_F(ExperimentsParallelTest, MetricsOnOffRowsBitIdentical) {
  const bool saved = obs::metrics_enabled();
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm, attack::Kind::kPgd};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 1000;

  std::vector<std::vector<RewardPoint>> results;  // [on/off][threads 1/4]
  for (bool enabled : {true, false}) {
    obs::set_metrics_enabled(enabled);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      zoo.set_experiment_threads(threads);
      results.push_back(run_reward_experiment(zoo, cfg, nullptr));
    }
  }
  obs::set_metrics_enabled(saved);

  const auto& reference = results.front();
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), reference.size()) << "variant " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[v][i].attack, reference[i].attack)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].l2_budget, reference[i].l2_budget)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_reward, reference[i].mean_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].stddev_reward, reference[i].stddev_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_realised_l2, reference[i].mean_realised_l2)
          << "variant " << v << " row " << i;
    }
  }
}

// The tracing layer has the same only-observe contract as metrics: result
// rows must be bit-identical with tracing enabled and disabled, at both
// experiment_threads settings. A disabled TraceScope takes no clock reading;
// an enabled one records wall-clock but must never feed back into RNG,
// environment or model state.
TEST_F(ExperimentsParallelTest, TraceOnOffRowsBitIdentical) {
  const bool saved = obs::trace_enabled();
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm, attack::Kind::kPgd};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 1500;

  std::vector<std::vector<RewardPoint>> results;  // [on/off][threads 1/4]
  for (bool enabled : {true, false}) {
    obs::set_trace_enabled(enabled);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      zoo.set_experiment_threads(threads);
      results.push_back(run_reward_experiment(zoo, cfg, nullptr));
    }
  }
  obs::set_trace_enabled(saved);
  // The traced variants actually recorded a timeline (episode.run spans at
  // minimum) — this test must not pass vacuously with tracing broken.
  EXPECT_FALSE(obs::TraceLog::global().events().empty());
  obs::TraceLog::global().reset();

  const auto& reference = results.front();
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), reference.size()) << "variant " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[v][i].attack, reference[i].attack)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].l2_budget, reference[i].l2_budget)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_reward, reference[i].mean_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].stddev_reward, reference[i].stddev_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_realised_l2, reference[i].mean_realised_l2)
          << "variant " << v << " row " << i;
    }
  }
}

// Episode-batched evaluation on/off parity: fusing every concurrent
// episode's per-step victim policy query (and its approximator probes) into
// shared rendezvous forwards must leave every experiment row bit-identical
// to the single-row paths — at experiment threads 1 and 4. The driver-level
// timing also has to show the substrate actually engaged when enabled and
// stood down under the RLATTACK_EVAL_BATCH kill switch.
TEST_F(ExperimentsParallelTest, EvalBatchOnOffRowsBitIdentical) {
  const bool saved = attack::eval_batch_enabled();
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  // Query-free Gaussian, single-query FGSM and the iterative PGD, CW and
  // JSMA: the eval rendezvous must stay bit-identical whether the enrolled
  // episodes also craft through the planner or only evaluate through it,
  // and the iterative attacks reuse one cached encoding the most.
  cfg.attacks = {attack::Kind::kGaussian, attack::Kind::kFgsm,
                 attack::Kind::kPgd, attack::Kind::kCw, attack::Kind::kJsma};
  cfg.l2_budgets = {0.0, 0.5};
  cfg.runs = 3;
  cfg.seed = 3000;

  std::vector<std::vector<RewardPoint>> results;  // [on/off][threads 1/4]
  std::vector<std::size_t> eval_batches;
  for (bool enabled : {true, false}) {
    attack::set_eval_batch_enabled(enabled);
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      zoo.set_experiment_threads(threads);
      ExperimentTiming timing;
      results.push_back(run_reward_experiment(zoo, cfg, &timing));
      eval_batches.push_back(timing.eval_batch);
    }
  }
  attack::set_eval_batch_enabled(saved);

  // The substrate host count is independent of experiment_threads: the
  // rendezvous width bounds it, the job count fills it.
  EXPECT_GT(eval_batches[0], 1u);
  EXPECT_GT(eval_batches[1], 1u);
  EXPECT_EQ(eval_batches[2], 0u);
  EXPECT_EQ(eval_batches[3], 0u);

  const auto& reference = results.front();
  for (std::size_t v = 1; v < results.size(); ++v) {
    ASSERT_EQ(results[v].size(), reference.size()) << "variant " << v;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[v][i].attack, reference[i].attack)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].l2_budget, reference[i].l2_budget)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_reward, reference[i].mean_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].stddev_reward, reference[i].stddev_reward)
          << "variant " << v << " row " << i;
      EXPECT_EQ(results[v][i].mean_realised_l2, reference[i].mean_realised_l2)
          << "variant " << v << " row " << i;
    }
  }
}

// Eval-batched forensics attribution: with rows from B concurrent episodes
// fused into shared forwards, every per-step forensics record must still
// land on the episode that owns the step, with per-step query deltas
// unchanged. The serial single-row run is the oracle; the export is sorted
// by (episode_key, seed, step), so the comparison is byte-exact.
TEST_F(ExperimentsParallelTest, EvalBatchForensicsAttributionBitIdentical) {
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm, attack::Kind::kPgd};
  cfg.l2_budgets = {0.5};
  cfg.runs = 2;
  cfg.seed = 5000;
  // Zoo artefacts must exist before forensics turns on: training also steps
  // pipelines and would otherwise pollute the record stream.
  (void)zoo.victim(cfg.game, cfg.algorithm);
  (void)zoo.approximator(cfg.game, rl::Algorithm::kDqn, 1);

  const bool saved_eval = attack::eval_batch_enabled();
  const bool saved_forensics = obs::forensics_enabled();
  obs::forensics_detail::g_forensics_enabled.store(true,
                                                   std::memory_order_relaxed);
  const auto run_and_export = [&](bool eval_batched, std::size_t threads) {
    attack::set_eval_batch_enabled(eval_batched);
    zoo.set_experiment_threads(threads);
    obs::forensics_reset();
    (void)run_reward_experiment(zoo, cfg, nullptr);
    std::string jsonl = obs::forensics_to_jsonl();
    obs::forensics_reset();
    return jsonl;
  };
  const std::string serial = run_and_export(false, 1);
  const std::string batched1 = run_and_export(true, 1);
  const std::string batched4 = run_and_export(true, 4);
  obs::forensics_detail::g_forensics_enabled.store(
      saved_forensics, std::memory_order_relaxed);
  attack::set_eval_batch_enabled(saved_eval);

  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(batched1, serial);
  EXPECT_EQ(batched4, serial);
}

// Worker-pool pinning: after a warm-up invocation has populated the
// process-lifetime clone pool, further run_episode_jobs invocations against
// the same victim/model must construct NO new agents or models — workers
// are re-synchronized in place (reset_from), not rebuilt. Eval batching is
// switched off so the grid takes the pooled-clone path at 4 experiment
// threads (the eval-batched path never clones).
TEST_F(ExperimentsParallelTest, WorkerPoolStopsCloningOnceWarm) {
  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm};
  cfg.l2_budgets = {0.5};
  cfg.runs = 4;
  cfg.seed = 4000;
  zoo.set_experiment_threads(4);
  // Train/load the zoo artefacts first, so the counters below see only
  // the driver's own clones.
  (void)zoo.victim(cfg.game, cfg.algorithm);
  ApproximatorInfo approx = zoo.approximator(cfg.game, rl::Algorithm::kDqn, 1);

  const bool saved = attack::eval_batch_enabled();
  attack::set_eval_batch_enabled(false);
  // Occupy the pool with a victim of another architecture (an untrained
  // A2C agent), so the cold call below must rebuild its clones no matter
  // what earlier tests in this process left in the pool.
  const env::EnvPtr probe_env = env::make_agent_environment(cfg.game, 1);
  rl::AgentPtr other = rl::make_agent(rl::Algorithm::kA2c,
                                      rl::obs_spec_of(*probe_env),
                                      probe_env->action_count(), 1);
  std::vector<EpisodeJob> clean_jobs(4);
  for (std::size_t i = 0; i < clean_jobs.size(); ++i) {
    clean_jobs[i].policy.mode = AttackPolicy::Mode::kNone;
    clean_jobs[i].seed = 4100 + i;
  }
  (void)run_episode_jobs(*other, cfg.game, *approx.model, clean_jobs, 4);

  const std::uint64_t agents_cold = rl::agent_constructions();
  const auto reference = run_reward_experiment(zoo, cfg, nullptr);
  const std::uint64_t agents_before = rl::agent_constructions();
  const std::uint64_t models_before = seq2seq::Seq2SeqModel::constructions();
  const auto warm = run_reward_experiment(zoo, cfg, nullptr);
  const std::uint64_t agents_after = rl::agent_constructions();
  const std::uint64_t models_after = seq2seq::Seq2SeqModel::constructions();
  attack::set_eval_batch_enabled(saved);

  EXPECT_GT(agents_before, agents_cold)
      << "cold experiment invocation did not clone victim agents — the "
         "grid never reached the worker pool";
  EXPECT_EQ(agents_after, agents_before)
      << "warm experiment invocation cloned victim agents";
  EXPECT_EQ(models_after, models_before)
      << "warm experiment invocation cloned approximator models";

  // Reused workers must behave exactly like freshly cloned ones.
  ASSERT_EQ(warm.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_EQ(warm[i].mean_reward, reference[i].mean_reward) << "row " << i;
}

// The eval-batched path's host count: the job count up to the fixed
// rendezvous width of 32, none for fewer than two jobs (nothing to fuse),
// and none at all under the RLATTACK_EVAL_BATCH=0 switch.
TEST_F(ExperimentsParallelTest, ResolveEvalBatchCapsAtRendezvousWidth) {
  const bool saved = attack::eval_batch_enabled();
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 0}, {1, 0}, {2, 2}, {5, 5}, {32, 32}, {33, 32}, {100, 32}};
  attack::set_eval_batch_enabled(true);
  for (const auto& [jobs, hosts] : expected)
    EXPECT_EQ(resolve_eval_batch(std::vector<EpisodeJob>(jobs)), hosts)
        << jobs << " jobs";
  attack::set_eval_batch_enabled(false);
  for (const auto& [jobs, hosts] : expected)
    EXPECT_EQ(resolve_eval_batch(std::vector<EpisodeJob>(jobs)), 0u)
        << jobs << " jobs, eval batching off";
  attack::set_eval_batch_enabled(saved);
}

// run_episode_jobs has three paths — eval-batched, serial and pooled
// clones — and every outcome field is bit-identical across them, for every
// attack and every policy mode in one mixed job list. Neither the
// eval-batched nor the serial path may construct an agent or a model.
TEST_F(ExperimentsParallelTest, RunEpisodeJobsThreePathsBitIdentical) {
  Zoo zoo = make_tiny_zoo();
  const env::Game game = env::Game::kCartPole;
  rl::Agent& victim = zoo.victim(game, rl::Algorithm::kDqn);
  ApproximatorInfo approx = zoo.approximator(game, rl::Algorithm::kDqn, 1);

  std::vector<EpisodeJob> jobs;
  std::uint64_t seed = 6000;
  for (attack::Kind kind :
       {attack::Kind::kGaussian, attack::Kind::kFgsm, attack::Kind::kPgd,
        attack::Kind::kCw, attack::Kind::kJsma}) {
    for (AttackPolicy::Mode mode :
         {AttackPolicy::Mode::kEveryStep, AttackPolicy::Mode::kSingleStep}) {
      EpisodeJob job;
      job.attack = kind;
      job.budget.epsilon = 0.5f;
      job.policy.mode = mode;
      job.policy.trigger_step = 3;
      job.seed = seed++;
      jobs.push_back(job);
    }
  }
  EpisodeJob clean;
  clean.seed = seed;
  jobs.push_back(clean);

  const bool saved = attack::eval_batch_enabled();
  struct Path {
    const char* name;
    bool eval_batched;
    std::size_t threads;
  };
  const Path paths[] = {{"eval-batched", true, 4},
                        {"serial", false, 1},
                        {"pooled clones", false, 4}};
  std::vector<std::vector<EpisodeOutcome>> outcomes;
  for (const Path& path : paths) {
    attack::set_eval_batch_enabled(path.eval_batched);
    const std::uint64_t agents = rl::agent_constructions();
    const std::uint64_t models = seq2seq::Seq2SeqModel::constructions();
    outcomes.push_back(
        run_episode_jobs(victim, game, *approx.model, jobs, path.threads));
    if (path.eval_batched || path.threads == 1) {
      EXPECT_EQ(rl::agent_constructions(), agents) << path.name;
      EXPECT_EQ(seq2seq::Seq2SeqModel::constructions(), models) << path.name;
    }
  }
  attack::set_eval_batch_enabled(saved);

  const auto& reference = outcomes.front();
  ASSERT_EQ(reference.size(), jobs.size());
  for (std::size_t p = 1; p < outcomes.size(); ++p) {
    ASSERT_EQ(outcomes[p].size(), reference.size()) << paths[p].name;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const EpisodeOutcome& got = outcomes[p][i];
      const EpisodeOutcome& want = reference[i];
      const std::string where =
          std::string(paths[p].name) + " job " + std::to_string(i);
      EXPECT_EQ(got.total_reward, want.total_reward) << where;
      EXPECT_EQ(got.steps, want.steps) << where;
      EXPECT_EQ(got.attacks_attempted, want.attacks_attempted) << where;
      EXPECT_EQ(got.immediate_flips, want.immediate_flips) << where;
      EXPECT_EQ(got.actions, want.actions) << where;
      EXPECT_EQ(got.mean_l2, want.mean_l2) << where;
      EXPECT_EQ(got.mean_linf, want.mean_linf) << where;
      EXPECT_EQ(got.fired_step, want.fired_step) << where;
    }
  }
  // The mixed list really attacked: every attacked job perturbed at least
  // one step, and the clean job none.
  for (std::size_t i = 0; i + 1 < jobs.size(); ++i)
    EXPECT_GT(reference[i].attacks_attempted, 0u) << "job " << i;
  EXPECT_EQ(reference.back().attacks_attempted, 0u);
}

// The instrumentation that rode along with the experiment above actually
// fired: crafting gradient queries and pipeline step counters are non-zero
// after an attacked episode ran with metrics enabled.
TEST_F(ExperimentsParallelTest, MetricsInstrumentationObservesExperiment) {
  const bool saved = obs::metrics_enabled();
  obs::set_metrics_enabled(true);
  auto& registry = obs::MetricsRegistry::global();
  obs::Counter& gradient_queries =
      registry.counter("attack.queries.gradient");
  obs::Counter& steps = registry.counter("pipeline.steps");
  obs::Counter& gemm_flops = registry.counter("nn.gemm.flops");
  const std::uint64_t gradient_before = gradient_queries.value();
  const std::uint64_t steps_before = steps.value();
  const std::uint64_t flops_before = gemm_flops.value();

  Zoo zoo = make_tiny_zoo();
  RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = rl::Algorithm::kDqn;
  cfg.attacks = {attack::Kind::kFgsm};
  cfg.l2_budgets = {0.5};
  cfg.runs = 2;
  cfg.seed = 1000;
  zoo.set_experiment_threads(2);
  (void)run_reward_experiment(zoo, cfg, nullptr);
  obs::set_metrics_enabled(saved);

  EXPECT_GT(gradient_queries.value(), gradient_before);
  EXPECT_GT(steps.value(), steps_before);
  EXPECT_GT(gemm_flops.value(), flops_before);
  EXPECT_GT(registry.span("experiment.reward").snapshot().count(), 0u);
  EXPECT_GT(registry.span("seq2seq.forward").snapshot().count(), 0u);
}

}  // namespace
}  // namespace rlattack::core
