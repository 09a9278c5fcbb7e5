// Attack-pipeline benchmark harness: one process runs one measured unit of
// one workload and writes a JSON result file. ledger/run.py drives it, one
// child process per unit, and turns the files into the benchmark metrics.
//
//   ledger_harness prepare --cache DIR
//       Trains every victim and approximator the episode workloads load.
//   ledger_harness run --workload W --seed N --grids K --cache DIR
//                      --mode timed|traced|reference --seconds T --out FILE
//       timed      setup repeated, then grid passes, cycling through the K
//                  grids, while half a pass still fits in T s from the
//                  first setup
//       traced     one untraced and one traced pass of grid 0, plus a
//                  registry dump
//       reference  each grid once on the serial path (experiment_threads
//                  = 1)
//   Grid k of a run is the workload's grid at seed N * kMaxGrids + k.
//
// Only public drivers are called: core::Zoo, core::run_reward_experiment and
// core::run_timebomb_experiment, at their defaults. The workload seed feeds
// each driver config's seed; the zoo seed is fixed at 42.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rlattack/core/experiments.hpp"
#include "rlattack/core/zoo.hpp"
#include "rlattack/nn/kernels/gemm.hpp"
#include "rlattack/obs/metrics.hpp"
#include "rlattack/obs/trace.hpp"
#include "rlattack/util/log.hpp"
#include "rlattack/util/thread_pool.hpp"

namespace {

using namespace rlattack;
using Clock = std::chrono::steady_clock;

/// The zoo seed is fixed, so every episode workload shares one cache; the
/// bench scale multiplies all training budgets (ZooConfig::scale).
constexpr std::uint64_t kZooSeed = 42;
constexpr double kBenchScale = 0.25;
/// Episodes per Fig 4 grid point: the figure bench's count at scale 1. At
/// its scale-0.25 count (4) the grid's work moved by about 15 % from seed to
/// seed, which a run cannot average out.
constexpr std::size_t kCartpoleRuns = 12;
/// Setup repeats in one timed process: warm loads take milliseconds, a fit
/// tens of seconds (run.py repeats fits across processes instead).
constexpr std::size_t kLoadSetups = 10;
/// Most grids one run may cycle through (see the usage above).
constexpr std::size_t kMaxGrids = 100;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// FNV-1a over the exact bytes of every result field.
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  void add(double v) { add_bytes(&v, sizeof v); }
  void add(std::uint64_t v) { add_bytes(&v, sizeof v); }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void digest_rows(Digest& d, const std::vector<core::RewardPoint>& rows) {
  for (const auto& p : rows) {
    d.add(static_cast<std::uint64_t>(p.attack));
    d.add(p.l2_budget);
    d.add(p.mean_reward);
    d.add(p.stddev_reward);
    d.add(p.mean_realised_l2);
    d.add(static_cast<std::uint64_t>(p.sequence_variant));
  }
}

void digest_rows(Digest& d, const std::vector<core::TimeBombPoint>& rows) {
  for (const auto& p : rows) {
    d.add(static_cast<std::uint64_t>(p.delay));
    d.add(p.success_rate);
    d.add(static_cast<std::uint64_t>(p.trials));
  }
}

/// Per-point episode runs at the bench scale, the rule the figure benches
/// use.
std::size_t scaled_runs(std::size_t paper_runs) {
  const auto runs =
      static_cast<std::size_t>(static_cast<double>(paper_runs) * kBenchScale);
  return std::max<std::size_t>(4, runs);
}

/// One workload: the artefacts its setup loads and the grid it runs.
struct Workload {
  std::function<void(core::Zoo&)> setup;
  /// Runs the whole grid once; returns the result digest.
  std::function<std::string(core::Zoo&)> grid;
};

std::vector<core::RewardPoint> cartpole_algo(core::Zoo& zoo,
                                             rl::Algorithm algo,
                                             std::uint64_t seed) {
  core::RewardExperimentConfig cfg;
  cfg.game = env::Game::kCartPole;
  cfg.algorithm = algo;
  cfg.l2_budgets = {0.0, 0.25, 0.5, 1.0, 2.0};
  cfg.runs = kCartpoleRuns;
  cfg.seed = seed * 1000 + static_cast<std::uint64_t>(algo);
  return core::run_reward_experiment(zoo, cfg);
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  using env::Game;
  using rl::Algorithm;
  if (name == "cartpole_reward") {
    return {[](core::Zoo& zoo) {
              for (auto a : {Algorithm::kDqn, Algorithm::kA2c,
                             Algorithm::kRainbow})
                zoo.victim(Game::kCartPole, a);
              zoo.approximator(Game::kCartPole, Algorithm::kDqn, 1);
            },
            [seed](core::Zoo& zoo) {
              Digest d;
              for (auto a : {Algorithm::kDqn, Algorithm::kA2c,
                             Algorithm::kRainbow})
                digest_rows(d, cartpole_algo(zoo, a, seed));
              return d.hex();
            }};
  }
  if (name == "cartpole_fit") {
    // Setup trains into an empty cache; the grid is the DQN slice of the
    // Fig 4 sweep on the freshly fitted artefacts, so the digest also pins
    // that training is deterministic.
    return {[](core::Zoo& zoo) {
              zoo.victim(Game::kCartPole, Algorithm::kDqn);
              zoo.approximator(Game::kCartPole, Algorithm::kDqn, 1);
            },
            [seed](core::Zoo& zoo) {
              Digest d;
              digest_rows(d, cartpole_algo(zoo, Algorithm::kDqn, seed));
              return d.hex();
            }};
  }
  if (name == "invaders_reward") {
    return {[](core::Zoo& zoo) {
              zoo.victim(Game::kMiniInvaders, Algorithm::kDqn);
              zoo.approximator(Game::kMiniInvaders, Algorithm::kDqn, 1);
              zoo.approximator(Game::kMiniInvaders, Algorithm::kDqn, 10);
            },
            [seed](core::Zoo& zoo) {
              Digest d;
              for (bool seq : {false, true}) {
                core::RewardExperimentConfig cfg;
                cfg.game = Game::kMiniInvaders;
                cfg.algorithm = Algorithm::kDqn;
                cfg.l2_budgets = {0.0, 0.5, 1.0, 2.0, 4.0};
                cfg.runs = scaled_runs(12);
                cfg.sequence_variant = seq;
                cfg.seed = seed * 1000 + (seq ? 1 : 0);
                digest_rows(d, core::run_reward_experiment(zoo, cfg));
              }
              return d.hex();
            }};
  }
  if (name == "pong_timebomb") {
    return {[](core::Zoo& zoo) {
              zoo.victim(Game::kMiniPong, Algorithm::kA2c);
              zoo.victim(Game::kMiniPong, Algorithm::kRainbow);
              zoo.approximator(Game::kMiniPong, Algorithm::kDqn, 10);
            },
            [seed](core::Zoo& zoo) {
              Digest d;
              for (auto victim : {Algorithm::kA2c, Algorithm::kRainbow}) {
                for (float eps : {0.3f, 0.7f}) {
                  core::TimeBombConfig cfg;
                  cfg.game = Game::kMiniPong;
                  cfg.victim_algorithm = victim;
                  cfg.approximator_source = Algorithm::kDqn;
                  cfg.epsilon_linf = eps;
                  cfg.runs = scaled_runs(20);
                  cfg.seed = seed * 1000 +
                             static_cast<std::uint64_t>(victim) * 10 +
                             static_cast<std::uint64_t>(eps * 10);
                  digest_rows(d, core::run_timebomb_experiment(zoo, cfg));
                }
              }
              return d.hex();
            }};
  }
  throw std::invalid_argument("unknown workload: " + name);
}

core::ZooConfig zoo_config(const std::string& cache_dir,
                           std::size_t experiment_threads) {
  core::ZooConfig config;
  config.cache_dir = cache_dir;
  config.scale = kBenchScale;
  config.seed = kZooSeed;
  config.verbose = false;
  config.experiment_threads = experiment_threads;
  return config;
}

std::string json_list(const std::vector<double>& xs) {
  std::ostringstream out;
  out.precision(17);
  out << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) out << (i ? ", " : "") << xs[i];
  out << ']';
  return out.str();
}

std::string json_strings(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i)
    out += (i ? ", \"" : "\"") + xs[i] + "\"";
  return out + "]";
}

struct Args {
  std::string command, workload, cache, mode = "timed", out;
  std::uint64_t seed = 1;
  std::size_t grids = 1;
  double seconds = 10.0;
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) throw std::invalid_argument("missing command");
  a.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--cache") a.cache = val;
    else if (key == "--mode") a.mode = val;
    else if (key == "--out") a.out = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--grids") a.grids = std::stoul(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else throw std::invalid_argument("unknown flag " + key);
  }
  if (a.cache.empty()) throw std::invalid_argument("--cache is required");
  if (a.grids < 1 || a.grids > kMaxGrids)
    throw std::invalid_argument("--grids must be 1.." +
                                std::to_string(kMaxGrids));
  return a;
}

/// Setup on a fresh Zoo: warm checkpoint loads for the episode workloads,
/// a full training run into an emptied cache for cartpole_fit.
double timed_setup(const Args& a, const Workload& w, const std::string& dir,
                   std::unique_ptr<core::Zoo>& zoo) {
  if (a.workload == "cartpole_fit") {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
  }
  zoo = std::make_unique<core::Zoo>(zoo_config(dir, 0));
  auto& span = obs::MetricsRegistry::global().span(
      a.workload == "cartpole_fit" ? "ledger.fit" : "ledger.zoo_load");
  const auto start = Clock::now();
  {
    obs::Span s(span);
    w.setup(*zoo);
  }
  return seconds_since(start);
}

int run(const Args& a) {
  std::vector<Workload> grids;
  for (std::size_t k = 0; k < a.grids; ++k)
    grids.push_back(make_workload(a.workload, a.seed * kMaxGrids + k));
  const Workload& w = grids.front();  // setup is the same for every grid
  const bool fit = a.workload == "cartpole_fit";
  // cartpole_fit trains into its own directory, emptied before each fit.
  const std::string dir = fit ? a.out + ".fitcache" : a.cache;
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
      << ", \"mode\": \"" << a.mode << "\", \"scale\": " << kBenchScale
      << ", \"simd_kernel\": \""
      << nn::kernels::simd_kernel_name(nn::kernels::active_simd_kernel())
      << "\", \"build_type\": \"" << LEDGER_BUILD_TYPE
      << "\", \"pool_threads\": " << util::ThreadPool::global().size();

  auto& registry = obs::MetricsRegistry::global();
  auto& steps = registry.counter("pipeline.steps");
  std::unique_ptr<core::Zoo> zoo;

  if (a.mode == "reference") {
    // The determinism contract: one serial pass per grid (the runner also
    // disables both batching substrates through the environment).
    zoo = std::make_unique<core::Zoo>(zoo_config(a.cache, 1));
    w.setup(*zoo);
    std::vector<std::string> digests;
    for (const Workload& g : grids) digests.push_back(g.grid(*zoo));
    out << ", \"digests\": " << json_strings(digests);
  } else if (a.mode == "timed") {
    // --seconds covers setup too, so a fit's tens of seconds come out of
    // the run's time rather than adding to it.
    const auto start = Clock::now();
    std::vector<double> setup_s;
    for (std::size_t i = 0; i < (fit ? 1 : kLoadSetups); ++i)
      setup_s.push_back(timed_setup(a, w, dir, zoo));

    std::vector<double> episodes_s, victim_steps, cpu_s, grid_index;
    std::vector<std::string> digests;
    // Grid passes while at least half a pass still fits in --seconds, at
    // least one, so the run ends close to --seconds.
    do {
      const std::size_t k = episodes_s.size() % grids.size();
      grid_index.push_back(static_cast<double>(k));
      const std::uint64_t steps0 = steps.value();
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      digests.push_back(grids[k].grid(*zoo));
      episodes_s.push_back(seconds_since(t0));
      cpu_s.push_back(cpu_seconds() - cpu0);
      victim_steps.push_back(static_cast<double>(steps.value() - steps0));
    } while (seconds_since(start) + episodes_s.back() / 2 < a.seconds);
    out << ", \"setup_s\": " << json_list(setup_s)
        << ", \"episodes_s\": " << json_list(episodes_s)
        << ", \"cpu_s\": " << json_list(cpu_s)
        << ", \"victim_steps\": " << json_list(victim_steps)
        << ", \"grids\": " << json_list(grid_index)
        << ", \"digests\": " << json_strings(digests);
  } else if (a.mode == "traced") {
    // Untraced pass first, on artefacts loaded from the shared cache: it
    // fills lazy state and is the base of the trace overhead. Then the
    // registry is zeroed and setup plus one grid pass run traced.
    zoo = std::make_unique<core::Zoo>(zoo_config(a.cache, 0));
    w.setup(*zoo);
    const auto t0 = Clock::now();
    const std::string untraced_digest = w.grid(*zoo);
    const double untraced_s = seconds_since(t0);

    registry.reset();
    obs::set_trace_enabled(true);
    const double setup_s = timed_setup(a, w, dir, zoo);
    const double cpu0 = cpu_seconds();
    const auto t1 = Clock::now();
    std::string traced_digest;
    {
      obs::Span s(registry.span("ledger.grid"));
      traced_digest = w.grid(*zoo);
    }
    const double traced_s = seconds_since(t1);
    const double cpu = cpu_seconds() - cpu0;
    obs::set_trace_enabled(false);
    out << ", \"setup_s\": " << json_list({setup_s})
        << ", \"untraced_episodes_s\": " << untraced_s
        << ", \"episodes_s\": " << json_list({traced_s})
        << ", \"cpu_s\": " << json_list({cpu})
        << ", \"digests\": "
        << json_strings({untraced_digest, traced_digest})
        << ", \"registry\": " << registry.to_json("ledger_harness");
  } else {
    throw std::invalid_argument("unknown mode: " + a.mode);
  }
  if (fit) std::filesystem::remove_all(dir);
  out << ", \"peak_rss_mb\": " << peak_rss_mb() << "}\n";

  const std::string tmp = a.out + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    f << out.str();
    if (!f) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, a.out);
  return 0;
}

int prepare(const Args& a) {
  core::Zoo zoo(zoo_config(a.cache, 0));
  for (const char* name : {"cartpole_reward", "invaders_reward",
                           "pong_timebomb"})
    make_workload(name, 1).setup(zoo);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::set_log_level(util::LogLevel::kWarn);
    const Args a = parse_args(argc, argv);
    if (a.command == "prepare") return prepare(a);
    if (a.command == "run") {
      if (a.workload.empty() || a.out.empty())
        throw std::invalid_argument("run needs --workload and --out");
      return run(a);
    }
    throw std::invalid_argument("unknown command: " + a.command);
  } catch (const std::exception& e) {
    std::cerr << "ledger_harness: " << e.what() << '\n';
    return 2;
  }
}
