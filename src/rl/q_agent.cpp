#include "rlattack/rl/q_agent.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "rlattack/nn/loss.hpp"
#include "rlattack/nn/ops.hpp"
#include "rlattack/rl/batch.hpp"

namespace rlattack::rl {

QAgent::QAgent(ObsSpec obs, std::size_t actions, Config config,
               std::uint64_t seed)
    : obs_(std::move(obs)),
      actions_(actions),
      config_(config),
      seed_(seed),
      rng_(seed) {
  if (actions_ == 0) throw std::logic_error("QAgent: zero actions");
  if (config_.n_step == 0) throw std::logic_error("QAgent: n_step must be >= 1");
  if (config_.use_distributional) {
    if (config_.use_dueling || config_.use_noisy)
      throw std::logic_error(
          "QAgent: use_distributional excludes dueling/noisy (see Config)");
    if (config_.atoms < 2)
      throw std::logic_error("QAgent: need at least 2 atoms");
    if (config_.v_max <= config_.v_min)
      throw std::logic_error("QAgent: v_max must exceed v_min");
  }
  util::Rng init_rng = rng_.split();
  auto build = [&]() -> nn::LayerPtr {
    if (config_.use_dueling)
      return make_rainbow_net(obs_, actions_, config_.hidden,
                              config_.use_noisy, init_rng,
                              config_.noisy_sigma0);
    const std::size_t outputs = config_.use_distributional
                                    ? actions_ * config_.atoms
                                    : actions_;
    return make_net(obs_, outputs, config_.hidden, init_rng);
  };
  online_ = build();
  target_ = build();
  nn::copy_parameters(*target_, *online_);
  // The target network only ever computes bootstrap targets.
  target_->set_mode(nn::Mode::kBootstrap);
  optimizer_ = std::make_unique<nn::Adam>(*online_, config_.lr);
  if (config_.use_per) {
    PrioritizedReplayBuffer::Config prc;
    prc.capacity = config_.replay_capacity;
    per_replay_.emplace(prc);
  } else {
    uniform_replay_.emplace(config_.replay_capacity);
  }
}

float QAgent::epsilon() const noexcept {
  const float frac = std::min(
      1.0f, static_cast<float>(env_steps_) /
                static_cast<float>(std::max<std::size_t>(
                    1, config_.eps_decay_steps)));
  if (config_.use_noisy)  // decaying floor; parameter noise takes over
    return config_.noisy_eps_start * (1.0f - frac);
  return config_.eps_start + frac * (config_.eps_end - config_.eps_start);
}

AgentPtr QAgent::clone() {
  // Rebuild from the original construction inputs (identical architecture),
  // then overwrite the freshly initialised weights with the live ones.
  // Replay/optimizer state is deliberately left fresh (see Agent::clone).
  auto copy = std::make_unique<QAgent>(obs_, actions_, config_, seed_);
  nn::copy_parameters(*copy->online_, *online_);
  nn::copy_parameters(*copy->target_, *target_);
  copy->env_steps_ = env_steps_;  // keeps the epsilon schedule aligned
  return copy;
}

void QAgent::reset_from(const Agent& src) {
  Agent::reset_from(src);  // validates compatibility, copies online_
  const auto* q = dynamic_cast<const QAgent*>(&src);
  if (q == nullptr)
    throw std::logic_error("QAgent::reset_from: source is not a QAgent");
  auto& mutable_src = const_cast<QAgent&>(*q);  // NOLINT (see base)
  nn::copy_parameters(*target_, *mutable_src.target_);
  env_steps_ = q->env_steps_;  // keeps the epsilon schedule aligned
}

std::size_t QAgent::act(const nn::Tensor& observation, bool explore) {
  if (explore && rng_.bernoulli(epsilon()))
    return rng_.uniform_int(actions_);
  const bool noisy = explore && config_.use_noisy;
  online_->set_mode(noisy ? nn::Mode::kTraining : nn::Mode::kEvaluation);
  if (noisy) online_->resample_noise(rng_);
  nn::Tensor out =
      online_->forward(as_batch_of_one_into(observation, obs_scratch_));
  online_->set_mode(nn::Mode::kTraining);
  if (config_.use_distributional) out = expected_q(out);
  return nn::argmax(out.data());
}

std::vector<std::size_t> QAgent::act_batch(const nn::Tensor& observations,
                                           bool explore) {
  // NoisyNet exploration resamples parameter noise per act() call, which a
  // shared forward cannot reproduce — defer to the defining per-row loop.
  if (explore && config_.use_noisy) return Agent::act_batch(observations, explore);

  const std::size_t batch = observations.dim(0);
  std::vector<std::size_t> actions(batch);
  std::vector<unsigned char> is_random(batch, 0);
  if (explore) {
    // Epsilon draws happen in row order BEFORE the forward, exactly as B
    // serial act() calls would consume the stream (the forward itself draws
    // nothing). Random rows still ride the batched forward; their greedy
    // result is discarded.
    for (std::size_t b = 0; b < batch; ++b) {
      if (rng_.bernoulli(epsilon())) {
        is_random[b] = 1;
        actions[b] = rng_.uniform_int(actions_);
      }
    }
  }
  online_->set_mode(nn::Mode::kEvaluation);  // == act()'s mode here
  nn::Tensor out = online_->forward(observations);
  online_->set_mode(nn::Mode::kTraining);
  if (config_.use_distributional) out = expected_q(out);
  const std::vector<std::size_t> greedy = nn::argmax_rows(out);
  for (std::size_t b = 0; b < batch; ++b)
    if (is_random[b] == 0) actions[b] = greedy[b];
  return actions;
}

nn::Tensor QAgent::expected_q(const nn::Tensor& dist_logits) const {
  const std::size_t batch = dist_logits.dim(0);
  const std::size_t atoms = config_.atoms;
  const float dz = (config_.v_max - config_.v_min) /
                   static_cast<float>(atoms - 1);
  nn::Tensor q({batch, actions_});
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t a = 0; a < actions_; ++a) {
      // Softmax over this action's atom block, then expectation over the
      // support.
      const float* block = dist_logits.raw() + (b * actions_ + a) * atoms;
      float mx = block[0];
      for (std::size_t j = 1; j < atoms; ++j) mx = std::max(mx, block[j]);
      float sum = 0.0f, expv = 0.0f;
      for (std::size_t j = 0; j < atoms; ++j) {
        const float p = std::exp(block[j] - mx);
        sum += p;
        expv += p * (config_.v_min + dz * static_cast<float>(j));
      }
      q.at2(b, a) = expv / sum;
    }
  }
  return q;
}

void QAgent::begin_episode() { nstep_queue_.clear(); }

std::size_t QAgent::sample_count() const {
  return config_.use_per ? per_replay_->size() : uniform_replay_->size();
}

void QAgent::push_to_replay(Replayed r) {
  if (config_.use_per)
    per_replay_->push(std::move(r));
  else
    uniform_replay_->push(std::move(r));
}

void QAgent::flush_nstep(bool episode_end) {
  // The queue front has accumulated rewards from its own step plus every
  // later queued step, discounted; `episode_end` flushes the whole queue.
  while (!nstep_queue_.empty()) {
    const bool full = nstep_queue_.size() == config_.n_step;
    if (!full && !episode_end) break;
    // Aggregate discounted reward over the queue.
    float ret = 0.0f;
    float discount = 1.0f;
    for (const Pending& p : nstep_queue_) {
      ret += discount * p.reward;
      discount *= config_.gamma;
    }
    Replayed r;
    r.observation = nstep_queue_.front().observation;
    r.action = nstep_queue_.front().action;
    r.reward = ret;
    r.next_observation = nstep_bootstrap_;
    r.done = episode_end && nstep_queue_.size() <= config_.n_step;
    // The bootstrap discount for s_{t+n} is gamma^k where k = queue length.
    push_to_replay(std::move(r));
    nstep_queue_.pop_front();
  }
}

void QAgent::learn(const nn::Tensor& observation, std::size_t action,
                   double reward, const nn::Tensor& next_observation,
                   bool done) {
  ++env_steps_;
  nstep_queue_.push_back(
      {observation, action, static_cast<float>(reward)});
  nstep_bootstrap_ = next_observation;
  flush_nstep(done);
  if (done) nstep_queue_.clear();

  if (sample_count() >= std::max<std::size_t>(config_.warmup_steps,
                                              config_.batch_size) &&
      env_steps_ % config_.train_interval == 0)
    train_step();
  if (env_steps_ % config_.target_sync_interval == 0)
    nn::copy_parameters(*target_, *online_);
}

void QAgent::train_step_distributional() {
  const std::size_t batch = config_.batch_size;
  const std::size_t atoms = config_.atoms;
  const float dz =
      (config_.v_max - config_.v_min) / static_cast<float>(atoms - 1);

  std::vector<std::size_t> indices;
  std::vector<float> weights;
  if (config_.use_per) {
    auto s = per_replay_->sample(batch, rng_);
    indices = std::move(s.indices);
    weights = std::move(s.weights);
  } else {
    indices = uniform_replay_->sample_indices(batch, rng_);
  }
  auto transition = [&](std::size_t i) -> const Replayed& {
    return config_.use_per ? (*per_replay_)[indices[i]]
                           : (*uniform_replay_)[indices[i]];
  };

  std::vector<const nn::Tensor*> obs_ptrs(batch), next_ptrs(batch);
  std::vector<std::size_t> actions(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    obs_ptrs[i] = &transition(i).observation;
    next_ptrs[i] = &transition(i).next_observation;
    actions[i] = transition(i).action;
  }
  nn::Tensor obs_batch = batch_observations(obs_ptrs);
  nn::Tensor next_batch = batch_observations(next_ptrs);

  // Next-state distribution from the target network; action selection by
  // the online network's expected Q when double-Q is on.
  nn::Tensor next_dist_logits = target_->forward(next_batch);
  std::vector<std::size_t> next_actions(batch);
  if (config_.use_double) {
    next_actions = nn::argmax_rows(expected_q(online_->forward(next_batch)));
  } else {
    next_actions = nn::argmax_rows(expected_q(next_dist_logits));
  }

  const float bootstrap_discount =
      std::pow(config_.gamma, static_cast<float>(config_.n_step));

  // Projected target distribution m for each sample (C51 projection).
  nn::Tensor projected({batch, atoms});
  std::vector<float> td_proxy(batch);  // KL-ish priority proxy
  for (std::size_t i = 0; i < batch; ++i) {
    const Replayed& t = transition(i);
    // Softmax of the chosen next action's atom block.
    std::vector<float> next_p(atoms, 0.0f);
    if (!t.done) {
      const float* block =
          next_dist_logits.raw() + (i * actions_ + next_actions[i]) * atoms;
      float mx = block[0];
      for (std::size_t j = 1; j < atoms; ++j) mx = std::max(mx, block[j]);
      float sum = 0.0f;
      for (std::size_t j = 0; j < atoms; ++j) {
        next_p[j] = std::exp(block[j] - mx);
        sum += next_p[j];
      }
      for (float& p : next_p) p /= sum;
    } else {
      next_p[0] = 1.0f;  // all mass shifts to the reward atom below
    }
    for (std::size_t j = 0; j < atoms; ++j) {
      if (next_p[j] == 0.0f) continue;
      const float z = config_.v_min + dz * static_cast<float>(j);
      const float tz = std::clamp(
          t.reward + (t.done ? 0.0f : bootstrap_discount * z),
          config_.v_min, config_.v_max);
      const float pos = (tz - config_.v_min) / dz;
      const auto lo = static_cast<std::size_t>(pos);
      const std::size_t hi = std::min(lo + 1, atoms - 1);
      const float frac = pos - static_cast<float>(lo);
      projected.at2(i, lo) += next_p[j] * (1.0f - frac);
      projected.at2(i, hi) += next_p[j] * frac;
    }
  }

  // Cross-entropy between the projected target and the online logits of
  // the taken action's block; gradient = softmax - m, IS-weighted.
  nn::Tensor online_logits = online_->forward(obs_batch);
  nn::Tensor grad(online_logits.shape());
  const float inv_b = 1.0f / static_cast<float>(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const float* block =
        online_logits.raw() + (i * actions_ + actions[i]) * atoms;
    float mx = block[0];
    for (std::size_t j = 1; j < atoms; ++j) mx = std::max(mx, block[j]);
    float sum = 0.0f;
    std::vector<float> p(atoms);
    for (std::size_t j = 0; j < atoms; ++j) {
      p[j] = std::exp(block[j] - mx);
      sum += p[j];
    }
    double ce = 0.0;
    const float w = config_.use_per ? weights[i] : 1.0f;
    float* grow = grad.raw() + (i * actions_ + actions[i]) * atoms;
    for (std::size_t j = 0; j < atoms; ++j) {
      p[j] /= sum;
      grow[j] = w * inv_b * (p[j] - projected.at2(i, j));
      if (projected.at2(i, j) > 0.0f)
        ce -= projected.at2(i, j) * std::log(std::max(p[j], 1e-12f));
    }
    td_proxy[i] = static_cast<float>(ce);
  }
  if (config_.use_per) per_replay_->update_priorities(indices, td_proxy);

  online_->backward(grad);
  optimizer_->clip_grad_norm(config_.grad_clip);
  optimizer_->step();
  ++updates_;
}

void QAgent::train_step() {
  if (config_.use_distributional) {
    train_step_distributional();
    return;
  }
  const std::size_t batch = config_.batch_size;
  std::vector<std::size_t> indices;
  std::vector<float> weights;
  if (config_.use_per) {
    auto s = per_replay_->sample(batch, rng_);
    indices = std::move(s.indices);
    weights = std::move(s.weights);
  } else {
    indices = uniform_replay_->sample_indices(batch, rng_);
  }

  auto transition = [&](std::size_t i) -> const Replayed& {
    return config_.use_per ? (*per_replay_)[indices[i]]
                           : (*uniform_replay_)[indices[i]];
  };

  std::vector<const nn::Tensor*> obs_ptrs(batch), next_ptrs(batch);
  std::vector<std::size_t> actions(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    obs_ptrs[i] = &transition(i).observation;
    next_ptrs[i] = &transition(i).next_observation;
    actions[i] = transition(i).action;
  }
  nn::Tensor obs_batch = batch_observations(obs_ptrs);
  nn::Tensor next_batch = batch_observations(next_ptrs);

  // Bootstrap targets. Double Q-learning selects the argmax with the online
  // network and evaluates it with the target network.
  if (config_.use_noisy) online_->set_mode(nn::Mode::kBootstrap);
  nn::Tensor next_q_target = target_->forward(next_batch);  // [B, A]
  std::vector<std::size_t> next_actions(batch);
  if (config_.use_double) {
    nn::Tensor next_q_online = online_->forward(next_batch);
    next_actions = nn::argmax_rows(next_q_online);
  } else {
    next_actions = nn::argmax_rows(next_q_target);
  }

  const float bootstrap_discount =
      std::pow(config_.gamma, static_cast<float>(config_.n_step));
  std::vector<float> td_targets(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    const Replayed& t = transition(i);
    float target = t.reward;
    if (!t.done)
      target += bootstrap_discount * next_q_target.at2(i, next_actions[i]);
    td_targets[i] = target;
  }

  // Q(s, a) regression on the taken actions.
  if (config_.use_noisy) {
    online_->set_mode(nn::Mode::kTraining);
    online_->resample_noise(rng_);
  }
  nn::Tensor q = online_->forward(obs_batch);
  nn::LossResult loss = nn::q_learning_loss(q, actions, td_targets);

  if (config_.use_per) {
    // Scale each row's gradient by its IS weight, and feed TD errors back
    // as new priorities.
    std::vector<float> td_errors(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      td_errors[i] = q.at2(i, actions[i]) - td_targets[i];
      for (std::size_t a = 0; a < actions_; ++a)
        loss.grad.at2(i, a) *= weights[i];
    }
    per_replay_->update_priorities(indices, td_errors);
  }

  online_->backward(loss.grad);
  optimizer_->clip_grad_norm(config_.grad_clip);
  optimizer_->step();
  ++updates_;
}

AgentPtr make_dqn_agent(const ObsSpec& obs, std::size_t actions,
                        std::uint64_t seed) {
  QAgent::Config c;
  return std::make_unique<QAgent>(obs, actions, c, seed);
}

AgentPtr make_rainbow_agent(const ObsSpec& obs, std::size_t actions,
                            std::uint64_t seed) {
  QAgent::Config c;
  c.use_double = true;
  c.use_dueling = true;
  c.use_noisy = true;
  c.use_per = true;
  c.n_step = 3;
  return std::make_unique<QAgent>(obs, actions, c, seed);
}

AgentPtr make_c51_agent(const ObsSpec& obs, std::size_t actions,
                        std::uint64_t seed) {
  QAgent::Config c;
  c.use_double = true;
  c.use_per = true;
  c.n_step = 3;
  c.use_distributional = true;
  return std::make_unique<QAgent>(obs, actions, c, seed);
}

}  // namespace rlattack::rl
