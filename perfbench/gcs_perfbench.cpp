// gcs_perfbench: ONE iteration of one end-to-end benchmark workload.
//
//   gcs_perfbench --workload=grid-1024|churn-sweep|rt-tcp-chaos --seed=N
//                 [--trace=0|1] [--size=full|tiny] [--spans=FILE]
//
// Prints one JSON object on stdout: the iteration's end-to-end numbers, its
// trajectory digest(s), the output checks that failed and, with --trace=1,
// the per-layer numbers. perfbench/run.py runs this binary once per
// iteration (so peak RSS belongs to one iteration of one workload) and
// aggregates; see perfbench/README.md for the metric -> layer -> workload map.
//
// Everything goes through the library's public entry points (Scenario,
// SweepRunner, RtCluster, IslandRunner, metrics/*); the benchmark only times
// the calls and reads counters and trace hooks the modules already expose.
// Every spec seed is derived from --seed.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/partition.h"
#include "metrics/diameter.h"
#include "metrics/fingerprint.h"
#include "metrics/legality.h"
#include "metrics/recorder.h"
#include "metrics/skew.h"
#include "rt/chaos.h"
#include "rt/rt_cluster.h"
#include "rt/wire.h"
#include "runner/island_runner.h"
#include "runner/scenario.h"
#include "runner/sweep.h"
#include "util/flags.h"
#include "util/rng.h"

namespace {

using namespace gcs;
using SteadyClock = std::chrono::steady_clock;

double since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return TrajectoryFingerprinter::mix(seed * 0x9e3779b97f4a7c15ULL + stream) | 1u;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return TrajectoryFingerprinter::mix(h ^ (word + 0x9e3779b97f4a7c15ULL + (h << 6)));
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Trajectory digest of a finished simulated scenario: fired_count plus the
/// bit pattern of every final logical clock (read without advancing the
/// lazy integration state, so taking it cannot perturb the run).
std::uint64_t scenario_digest(Scenario& s) {
  std::uint64_t h = fold(0x5eed, s.sim().fired_count());
  for (NodeId u = 0; u < s.engine().size(); ++u) {
    h = fold(h, std::bit_cast<std::uint64_t>(s.engine().peek_logical(u)));
  }
  return h;
}

// ------------------------------------------------------------------ spans

/// In-memory span recorder. Spans are opened and closed by the benchmark's
/// own code around calls into the library; nothing inside src/ is touched.
/// Disabled (the timed runs), a Span still measures its duration — that is
/// how the end-to-end numbers are taken — but records nothing.
class Tracer {
 public:
  struct Rec {
    int id = 0;
    int parent = -1;
    int thread = 0;
    std::string name;
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }
  int next_id() { return next_id_.fetch_add(1); }
  [[nodiscard]] double at(SteadyClock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  void record(Rec rec) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(rec));
  }
  [[nodiscard]] const std::vector<Rec>& spans() const { return spans_; }

  static int thread_index() {
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
  }
  /// The innermost open span on this thread (-1 = none).
  static int& current() {
    thread_local int id = -1;
    return id;
  }

 private:
  bool enabled_;
  SteadyClock::time_point epoch_ = SteadyClock::now();
  std::atomic<int> next_id_{0};
  std::mutex mu_;
  std::vector<Rec> spans_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), name_(name), t0_(SteadyClock::now()) {
    if (tracer_.enabled()) {
      parent_ = Tracer::current();
      id_ = tracer_.next_id();
      Tracer::current() = id_;
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stop(); }

  /// Close the span (idempotent) and return its duration in seconds.
  double stop() {
    if (!open_) return seconds_;
    open_ = false;
    const auto t1 = SteadyClock::now();
    seconds_ = std::chrono::duration<double>(t1 - t0_).count();
    if (tracer_.enabled()) {
      tracer_.record({id_, parent_, Tracer::thread_index(), name_, tracer_.at(t0_),
                      tracer_.at(t1)});
      Tracer::current() = parent_;
    }
    return seconds_;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  SteadyClock::time_point t0_;
  int id_ = -1;
  int parent_ = -1;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// Length of the union of [start, end) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

// ---------------------------------------------------------------- results

/// What one iteration reports. `metrics` holds the end-to-end numbers and,
/// traced, the per-layer ones; `digests` one trajectory digest per operation
/// (a scenario, a sweep run or a cluster run); `failures` the output checks
/// that failed and `failed_ops` the operations they belong to.
struct Report {
  std::map<std::string, double> metrics;
  std::vector<std::string> digests;
  long long ops = 0;
  std::vector<std::string> failures;
  std::set<int> failed_ops;

  void check(bool ok, const std::string& what, int op = 0) {
    if (ok) return;
    failures.push_back(what);
    failed_ops.insert(op);
  }
  void set(const std::string& key, double value) { metrics[key] = value; }
  void add(const std::string& key, double value) { metrics[key] += value; }
};

/// Kernel trace sink + engine observer counting work by kind (traced only).
class WorkCounter final : public KernelTraceSink, public EngineObserver {
 public:
  void on_event_fired(Time, NodeId, EventKind kind) override {
    ++by_kind_[static_cast<std::size_t>(kind)];
  }
  void on_logical_jump(Time, NodeId, ClockValue, ClockValue) override { ++jumps_; }
  void on_max_estimate_raised(Time, NodeId, ClockValue) override { ++max_raises_; }

  void attach(Engine& engine, Transport& transport) {
    engine.set_kernel_trace(this);
    engine.set_observer(this);
    transport.set_kernel_trace(this);
  }
  void report(Report& r) const {
    static constexpr std::pair<EventKind, const char*> kNames[] = {
        {EventKind::kTick, "tick"},          {EventKind::kBeacon, "beacon"},
        {EventKind::kDelivery, "delivery"},  {EventKind::kDriftChange, "drift"},
        {EventKind::kMLockCatch, "mlock"},   {EventKind::kLogicalTarget, "target"},
        {EventKind::kProbe, "probe"},        {EventKind::kClosure, "closure"},
    };
    for (const auto& [kind, name] : kNames) {
      r.add(std::string("sim.events.") + name,
            static_cast<double>(by_kind_[static_cast<std::size_t>(kind)]));
    }
    r.add("core.jumps", static_cast<double>(jumps_));
    r.add("core.max_raises", static_cast<double>(max_raises_));
  }

 private:
  std::uint64_t by_kind_[256] = {};
  std::uint64_t jumps_ = 0;
  std::uint64_t max_raises_ = 0;
};

void report_scenario_counters(Scenario& s, Report& r) {
  r.add("sim.events", static_cast<double>(s.sim().fired_count()));
  r.add("net.sent", static_cast<double>(s.transport().sent_count()));
  r.add("net.delivered", static_cast<double>(s.transport().delivered_count()));
  r.add("net.dropped", static_cast<double>(s.transport().dropped_count()));
  if (s.spec().algo.kind == "aopt") {
    for (NodeId u = 0; u < s.engine().size(); ++u) {
      r.add("core.mode_switches", static_cast<double>(s.aopt(u).mode_switches()));
    }
  }
  if (s.adversary() != nullptr) {
    r.add("graph.adversary_ops", s.adversary()->operations());
  }
}

/// Standalone graph-layer probes on a spec: materialize_topology and
/// suggest_gtilde, outside the timed iteration (traced runs only).
void probe_graph(Tracer& tracer, const ScenarioSpec& spec, Report& r) {
  TopologyResult topo;
  {
    Span sp(tracer, "graph.topology");
    topo = materialize_topology(spec);
    r.add("graph.topology_s", sp.stop());
  }
  Span sp(tracer, "graph.gtilde");
  const double g = suggest_gtilde(topo.n, topo.edges, spec.edge_params, spec.aopt);
  r.add("graph.gtilde_s", sp.stop());
  r.check(std::isfinite(g) && g > 0.0, "suggest_gtilde returned a non-positive G~");
}

/// Per-call timing summary: median and the highest percentile with at least
/// ten samples beyond it (p50 when there are too few calls for that).
void report_calls(Report& r, const std::string& prefix, std::vector<double> calls) {
  r.set(prefix + ".calls", static_cast<double>(calls.size()));
  if (calls.empty()) {
    r.set(prefix + ".p50_ms", 0.0);
    r.set(prefix + ".phi_ms", 0.0);
    r.set(prefix + ".phi_pct", 0.0);
    return;
  }
  std::sort(calls.begin(), calls.end());
  const auto pick = [&](double q) {
    const auto i = static_cast<std::size_t>(std::floor(q * static_cast<double>(calls.size() - 1)));
    return calls[i] * 1e3;
  };
  const double k = static_cast<double>(calls.size());
  const double q = k > 20.0 ? std::floor(100.0 * (1.0 - 10.0 / k)) / 100.0 : 0.5;
  r.set(prefix + ".p50_ms", pick(0.5));
  r.set(prefix + ".phi_ms", pick(q));
  r.set(prefix + ".phi_pct", 100.0 * q);
}

// ------------------------------------------------------------- grid-1024

struct GridSize {
  int side = 32;
  double horizon = 20.0;
  double sample = 2.5;
};

ScenarioSpec grid_spec(std::uint64_t seed, const GridSize& size) {
  ScenarioSpec spec;
  spec.name = "grid-1024";
  spec.seed = derive_seed(seed, 1);
  spec.set("topo", "grid:rows=" + std::to_string(size.side) +
                       ",cols=" + std::to_string(size.side));
  spec.set("estimates", "beacon");
  spec.set("delays", "edge-uniform");
  spec.set("drift", "spread");
  spec.set("gtilde", "auto");
  return spec;
}

/// Island evidence (traced only): plan_islands, IslandRunner construction
/// and run at 4 workers on the workload's spec, against a serial run of the
/// same spec with no sampler attached (sampling advances clocks, so only an
/// unsampled serial run is the island engine's reference trajectory).
void grid_islands(Tracer& tracer, const ScenarioSpec& spec, double horizon, Report& r) {
  Span top(tracer, "runner.islands");
  double serial_s = 0.0;
  std::vector<std::uint64_t> serial_bits;
  {
    Span sp(tracer, "runner.islands.serial");
    Scenario s(spec);
    s.start();
    s.run_until(horizon);
    serial_s = sp.stop();
    for (NodeId u = 0; u < s.engine().size(); ++u) {
      serial_bits.push_back(std::bit_cast<std::uint64_t>(s.engine().peek_logical(u)));
    }
  }
  IslandExecutionPlan plan;
  {
    Span sp(tracer, "runner.islands.plan");
    plan = plan_islands(spec, 4);
    r.set("runner.islands.plan_s", sp.stop());
  }
  r.check(plan.islands_enabled, "plan_islands fell back to serial: " + plan.fallback_reason);
  if (!plan.islands_enabled) return;
  r.set("runner.islands.cut_edges", static_cast<double>(plan.partition.cut.size()));
  double construct_s = 0.0;
  double run_s = 0.0;
  std::unique_ptr<IslandRunner> runner;
  {
    Span sp(tracer, "runner.islands.construct");
    runner = std::make_unique<IslandRunner>(spec, plan);
    construct_s = sp.stop();
  }
  {
    Span sp(tracer, "runner.islands.run");
    runner->run(horizon);
    run_s = sp.stop();
  }
  r.set("runner.islands.construct_s", construct_s);
  r.set("runner.islands.run_s", run_s);
  r.set("runner.islands.speedup", serial_s / (construct_s + run_s));
  double max_fired = 0.0;
  double sum_fired = 0.0;
  for (int i = 0; i < runner->shards(); ++i) {
    const double fired = static_cast<double>(runner->shard(i).sim().fired_count());
    max_fired = std::max(max_fired, fired);
    sum_fired += fired;
  }
  r.set("runner.islands.shard_imbalance", max_fired * runner->shards() / sum_fired);
  bool same = true;
  for (NodeId u = 0; u < static_cast<NodeId>(serial_bits.size()); ++u) {
    Scenario& owner = runner->shard(plan.partition.island_of[static_cast<std::size_t>(u)]);
    same = same && std::bit_cast<std::uint64_t>(owner.engine().peek_logical(u)) ==
                       serial_bits[static_cast<std::size_t>(u)];
  }
  r.check(same, "island trajectory differs from the serial one");
}

void run_grid(Tracer& tracer, std::uint64_t seed, bool tiny, Report& r) {
  const GridSize size = tiny ? GridSize{8, 40.0, 5.0} : GridSize{};
  const ScenarioSpec spec = grid_spec(seed, size);
  r.ops = 1;

  std::unique_ptr<WorkCounter> counter;
  std::vector<double> skew_calls;
  double skew_total = 0.0;
  double ratio = 0.0;
  TimeSeries global_series;

  Span iteration(tracer, "iteration");
  Span construct(tracer, "runner.construct");
  Scenario s(spec);
  const double construct_s = construct.stop();

  Span start(tracer, "runner.start");
  if (tracer.enabled()) {
    counter = std::make_unique<WorkCounter>();
    counter->attach(s.engine(), s.transport());
  }
  s.start();
  const double ghat = s.spec().aopt.gtilde_static;
  const double sigma = s.spec().aopt.sigma();
  // The simulate_cli measurement: a skew sample every `sample` model seconds.
  PeriodicSampler sampler(s.sim(), size.sample, [&](Time t) {
    Span sp(tracer, "metrics.skew");
    const SkewSnapshot snap = measure_skew(s.engine());
    global_series.add(t, snap.global);
    if (snap.worst_local_edge.a != kNoNode) {
      const double bound =
          gradient_bound(metric_kappa(s.engine(), snap.worst_local_edge), ghat, sigma);
      ratio = std::max(ratio, snap.worst_local / bound);
    }
    const double dt = sp.stop();
    skew_calls.push_back(dt);
    skew_total += dt;
  });
  sampler.start(size.sample);
  const double start_s = start.stop();

  Span run(tracer, "sim.run");
  s.run_until(size.horizon);
  const double run_s = run.stop();

  {
    Span sp(tracer, "bench.digest");
    r.digests.push_back(hex(scenario_digest(s)));
  }
  double dhat = 0.0;
  {
    Span sp(tracer, "metrics.diameter");
    dhat = estimate_dynamic_diameter(s.engine());
    r.set("metrics.diameter_s", sp.stop());
  }
  LegalityReport legality;
  {
    Span sp(tracer, "metrics.legality");
    legality = check_legality(s.engine(), ghat);
    r.set("metrics.legality_s", sp.stop());
  }
  const double total_s = iteration.stop();

  r.check(legality.legal(), "grid: check_legality reports an illegal state");
  r.check(ratio > 0.0 && ratio <= 1.0, "grid: skew_bound_ratio outside (0, 1]");
  r.check(std::isfinite(dhat) && dhat > 0.0, "grid: D^ estimate not finite");
  r.check(global_series.points().size() ==
              static_cast<std::size_t>(std::floor(size.horizon / size.sample)),
          "grid: skew series has the wrong sample count");

  r.set("total_s", total_s);
  r.set("setup_s", construct_s + start_s);
  r.set("frames_per_s", static_cast<double>(s.transport().delivered_count()) / total_s);
  r.set("skew_bound_ratio", ratio);

  if (!tracer.enabled()) return;
  r.set("runner.construct_s", construct_s);
  r.set("runner.start_s", start_s);
  r.set("sim.run_s", run_s - skew_total);
  r.set("metrics.skew_s", skew_total);
  report_calls(r, "metrics.skew", skew_calls);
  report_scenario_counters(s, r);
  counter->report(r);
  probe_graph(tracer, spec, r);
  grid_islands(tracer, spec, size.horizon, r);
}

// ----------------------------------------------------------- churn-sweep

/// Eight seeds per size rather than four: the median per-run skew ratio
/// over 24 runs is steady across workload seeds, over 12 it is not.
struct ChurnSize {
  std::vector<int> n{128, 256, 512};
  int seeds = 8;
  double horizon = 20.0;
  double sample = 5.0;
};

/// Per-run values the sweep body writes (indexed by RunResult::index, so
/// each worker writes only its own slots).
struct ChurnRun {
  double construct_s = 0.0;
  double start_s = 0.0;
  double run_s = 0.0;
  double skew_s = 0.0;
  double legality_s = 0.0;
  double gradient_s = 0.0;
  double ratio = 0.0;
  std::uint64_t digest = 0;
  std::size_t gradient_points = 0;
  double delivered = 0.0;
  std::vector<double> skew_calls;
  std::map<std::string, double> counters;  ///< traced only
};

struct ChurnGrid {
  Sweep sweep;
  SweepOptions options;
};

ChurnGrid churn_grid(std::uint64_t seed, bool tiny) {
  ChurnSize size;
  if (tiny) size = ChurnSize{{16, 24}, 2, 40.0, 5.0};
  ScenarioSpec base;
  base.name = "churn-sweep";
  base.set("topo", "geometric:radius=0.15");
  base.set("adversary", "churn:rate=0.5,start=5");
  base.set("estimates", "beacon");
  base.set("gskew", "distributed");
  base.set("delays", "uniform");
  base.set("gtilde", "auto");
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < size.seeds; ++i) seeds.push_back(derive_seed(seed, 100 + i));
  ChurnGrid grid{Sweep(base), SweepOptions{}};
  grid.sweep.axis("n", size.n).seeds(seeds);
  grid.options.threads = 4;
  grid.options.horizon = size.horizon;
  grid.options.sample_period = size.sample;
  return grid;
}

std::vector<RunResult> run_churn(Tracer& tracer, std::uint64_t seed, bool tiny, Report& r) {
  const ChurnGrid grid = churn_grid(seed, tiny);
  const Sweep& sweep = grid.sweep;
  const SweepOptions& options = grid.options;
  SweepRunner runner(options);

  std::vector<ChurnRun> runs(sweep.size());
  int sweep_span = -1;
  // Time from the end of the spec transform (the last thing SweepRunner does
  // before constructing the Scenario) to the run body's entry is the
  // construction time; the runner constructs on the worker thread.
  thread_local SteadyClock::time_point constructed_from;
  runner.set_spec_fn([&](ScenarioSpec&) {
    if (tracer.enabled()) Tracer::current() = sweep_span;
    constructed_from = SteadyClock::now();
  });
  // SweepRunner::default_run_fn's steps (start, a skew sample every
  // sample_period, legality at the horizon), each timed, plus
  // measure_gradient at the horizon. perfbench/smoke_test.py checks that
  // this body reproduces the default body's RunResult.
  runner.set_run_fn([&](Scenario& s, RunResult& res) {
    ChurnRun& run = runs[static_cast<std::size_t>(res.index)];
    run.construct_s = since(constructed_from);
    if (tracer.enabled()) {
      tracer.record({tracer.next_id(), sweep_span, Tracer::thread_index(),
                     "runner.construct", tracer.at(constructed_from),
                     tracer.at(SteadyClock::now())});
    }
    WorkCounter counter;
    {
      Span sp(tracer, "runner.start");
      if (tracer.enabled()) counter.attach(s.engine(), s.transport());
      s.start();
      run.start_s = sp.stop();
    }
    double max_global = 0.0;
    double max_local = 0.0;
    double last_global = 0.0;
    double last_local = 0.0;
    Time t = 0.0;
    while (t < options.horizon) {
      t = std::min(t + options.sample_period, options.horizon);
      {
        Span sp(tracer, "sim.run");
        s.run_until(t);
        run.run_s += sp.stop();
      }
      Span sp(tracer, "metrics.skew");
      const auto snap = measure_skew(s.engine());
      last_global = snap.global;
      last_local = snap.worst_local;
      max_global = std::max(max_global, snap.global);
      max_local = std::max(max_local, snap.worst_local);
      const double dt = sp.stop();
      run.skew_s += dt;
      run.skew_calls.push_back(dt);
    }
    res.final_global = last_global;
    res.final_local = last_local;
    res.max_global = max_global;
    res.max_local = max_local;
    {
      Span sp(tracer, "bench.digest");
      run.digest = scenario_digest(s);
    }
    {
      Span sp(tracer, "metrics.legality");
      const auto report =
          check_legality(s.engine(), s.spec().aopt.gtilde_static, options.level_cap);
      res.legal = report.legal();
      res.legality_margin = report.worst_margin;
      run.legality_s = sp.stop();
    }
    {
      Span sp(tracer, "metrics.gradient");
      const auto points = measure_gradient(s.engine(), 0.25 * options.horizon);
      run.gradient_s = sp.stop();
      run.gradient_points = points.size();
      const double ghat = s.spec().aopt.gtilde_static;
      const double sigma = s.spec().aopt.sigma();
      for (const GradientPoint& p : points) {
        run.ratio = std::max(run.ratio, p.skew / gradient_bound(p.kappa_dist, ghat, sigma));
      }
    }
    run.delivered = static_cast<double>(s.transport().delivered_count());
    if (tracer.enabled()) {
      Report counters;
      report_scenario_counters(s, counters);
      counter.report(counters);
      run.counters = std::move(counters.metrics);
      // The runner destroys the scenario after this body returns.
      s.engine().set_kernel_trace(nullptr);
      s.engine().set_observer(nullptr);
      s.transport().set_kernel_trace(nullptr);
    }
  });

  Span iteration(tracer, "iteration");
  Span sweep_sp(tracer, "runner.sweep");
  sweep_span = sweep_sp.id();
  const std::vector<RunResult> results = runner.run(sweep);
  const double sweep_s = sweep_sp.stop();
  const double total_s = iteration.stop();

  r.ops = static_cast<long long>(results.size());
  double setup_s = 0.0;
  std::vector<double> ratios;
  double busy = 0.0;
  double delivered = 0.0;
  double run_s = 0.0;
  std::vector<double> skew_calls;
  for (const RunResult& res : results) {
    const ChurnRun& run = runs[static_cast<std::size_t>(res.index)];
    const std::string tag = "churn run " + std::to_string(res.index) + " (n=" +
                            std::to_string(res.n) + ")";
    r.check(res.ok(), tag + ": " + res.error, res.index);
    r.check(res.legal, tag + ": illegal at the horizon", res.index);
    r.check(run.ratio > 0.0 && run.ratio <= 1.0, tag + ": skew_bound_ratio outside (0, 1]",
            res.index);
    r.check(run.gradient_points > 0, tag + ": no stable pairs for measure_gradient", res.index);
    r.digests.push_back(hex(run.digest));
    setup_s += run.construct_s + run.start_s;
    ratios.push_back(run.ratio);
    busy += res.wall_seconds;
    run_s += run.run_s;
    skew_calls.insert(skew_calls.end(), run.skew_calls.begin(), run.skew_calls.end());
    delivered += run.delivered;
    for (const auto& [key, value] : run.counters) r.add(key, value);
  }
  r.set("total_s", total_s);
  r.set("setup_s", setup_s);
  // Each run's worst ratio is checked above; the workload reports their
  // median, which (unlike their max) is steady across workload seeds.
  std::sort(ratios.begin(), ratios.end());
  const std::size_t mid = ratios.size() / 2;
  r.set("skew_bound_ratio", ratios.size() % 2 ? ratios[mid] : 0.5 * (ratios[mid - 1] + ratios[mid]));
  r.set("frames_per_s", delivered / total_s);

  if (!tracer.enabled()) return results;
  r.set("runner.sweep_utilization", busy / (options.threads * sweep_s));
  double construct_s = 0.0;
  double start_s = 0.0;
  double skew_s = 0.0;
  double legality_s = 0.0;
  double gradient_s = 0.0;
  for (const ChurnRun& run : runs) {
    construct_s += run.construct_s;
    start_s += run.start_s;
    skew_s += run.skew_s;
    legality_s += run.legality_s;
    gradient_s += run.gradient_s;
  }
  r.set("runner.construct_s", construct_s);
  r.set("runner.start_s", start_s);
  r.set("sim.run_s", run_s);
  r.set("metrics.skew_s", skew_s);
  r.set("metrics.legality_s", legality_s);
  r.set("metrics.gradient_s", gradient_s);
  report_calls(r, "metrics.skew", skew_calls);
  // The graph probes on the largest cell of the grid.
  probe_graph(tracer, sweep.expand().back().spec, r);
  return results;
}

/// The benchmark's sweep body must be SweepRunner::default_run_fn plus
/// timing: on the tiny grid both give bit-identical RunResults.
int check_default_body(std::uint64_t seed) {
  Tracer tracer(false);
  Report report;
  const std::vector<RunResult> timed = run_churn(tracer, seed, /*tiny=*/true, report);
  const ChurnGrid grid = churn_grid(seed, /*tiny=*/true);
  const std::vector<RunResult> plain = SweepRunner(grid.options).run(grid.sweep);
  bool same = timed.size() == plain.size();
  for (std::size_t i = 0; same && i < plain.size(); ++i) {
    const RunResult& a = timed[i];
    const RunResult& b = plain[i];
    same = a.ok() && b.ok() && a.n == b.n && a.seed == b.seed && a.events == b.events &&
           a.adversary_ops == b.adversary_ops && a.legal == b.legal &&
           a.legality_margin == b.legality_margin && a.final_global == b.final_global &&
           a.max_global == b.max_global && a.final_local == b.final_local &&
           a.max_local == b.max_local;
  }
  std::cout << "default-body check: " << (same ? "same RunResults" : "RunResults DIFFER") << "\n";
  return same ? 0 : 1;
}

// ---------------------------------------------------------- rt-tcp-chaos

struct RtSize {
  int nodes = 8;
  double horizon = 600.0;
  double step = 0.25;
  double sample = 1.0;
};

/// The rt_loopback preset: ring, constant-ppm oscillators, RTT estimates.
ScenarioSpec rt_spec(std::uint64_t seed, const RtSize& size) {
  ScenarioSpec spec;
  spec.name = "rt-tcp-chaos";
  spec.n = size.nodes;
  spec.seed = derive_seed(seed, 2);
  spec.set("topo", "ring");
  spec.set("drift", "osc-const:ppm=120/-180/60/-90/150/-40");
  spec.set("estimates", "rtt:probe=0.25");
  spec.edge_params.eps = 0.1;
  spec.edge_params.tau = 0.5;
  spec.edge_params.msg_delay_max = 0.5;
  spec.edge_params.msg_delay_min = 0.0;
  spec.engine.beacon_period = 0.25;
  spec.engine.tick_period = 0.25;
  spec.gtilde_auto = true;
  return spec;
}

/// Fold of the self-sampled (t, node, live, logical, hardware) series, raw
/// bits: the lockstep run is bit-reproducible for a fixed (spec, script).
std::uint64_t samples_digest(const RtCluster& cluster) {
  std::uint64_t h = 0x5eed;
  for (std::size_t u = 0; u < cluster.samples().size(); ++u) {
    for (const RtSample& s : cluster.samples()[u]) {
      h = fold(h, std::bit_cast<std::uint64_t>(s.t));
      h = fold(h, (static_cast<std::uint64_t>(u) << 1) | (s.live ? 1u : 0u));
      h = fold(h, std::bit_cast<std::uint64_t>(s.logical));
      h = fold(h, std::bit_cast<std::uint64_t>(s.hardware));
    }
  }
  return h;
}

/// The wire codec on the rt-tcp-chaos frame mix: per directed edge and
/// probe period one Beacon, two TimeRequests and two TimeResponses (the RTT
/// source's two requests per round; the run's ~5 frames per directed edge
/// and period agree), plus a LivenessPing per 64 frames for the detector.
/// Times encode, decode and the CRC32C alone, per frame; checks every frame
/// round-trips.
void codec_ceiling(Tracer& tracer, std::uint64_t seed, Report& r) {
  Span top(tracer, "rt.wire");
  Rng rng(derive_seed(seed, 4));
  constexpr std::size_t kFrames = 4096;
  std::vector<WireMsg> msgs(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    WireMsg& m = msgs[i];
    m.from = static_cast<NodeId>(rng.next() % 8);
    m.to = static_cast<NodeId>(rng.next() % 8);
    m.sent_at = 100.0 * rng.uniform01();
    const auto id = static_cast<std::uint32_t>(rng.next());
    switch (i % 64 == 63 ? 5 : i % 5) {
      case 0: m.payload = Beacon{m.sent_at, m.sent_at + rng.uniform01(), m.sent_at - 1.0}; break;
      case 1:
      case 2: m.payload = TimeRequest{id, m.sent_at * 1.0001}; break;
      case 3:
      case 4: m.payload = TimeResponse{id, m.sent_at, m.sent_at + rng.uniform01()}; break;
      default: m.payload = LivenessPing{id, id & 1u}; break;
    }
  }
  std::vector<std::uint8_t> bufs(kFrames * kWireMax);
  std::vector<std::size_t> lens(kFrames);
  std::size_t frames = 0;
  const auto timed = [&](const char* name, auto&& body) {
    Span sp(tracer, name);
    frames = 0;
    const auto t0 = SteadyClock::now();
    do {
      body();
      frames += kFrames;
    } while (since(t0) < 0.05);
    return 1e9 * sp.stop() / static_cast<double>(frames);
  };
  r.set("rt.wire.encode_ns", timed("rt.wire.encode", [&] {
    for (std::size_t i = 0; i < kFrames; ++i) lens[i] = wire_encode(msgs[i], &bufs[i * kWireMax]);
  }));
  std::size_t bad = 0;
  WireMsg out;
  r.set("rt.wire.decode_ns", timed("rt.wire.decode", [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      bad += wire_decode(&bufs[i * kWireMax], lens[i], out) ? 0 : 1;
    }
  }));
  std::uint32_t crc = 0;
  r.set("rt.wire.crc_ns", timed("rt.wire.crc", [&] {
    for (std::size_t i = 0; i < kFrames; ++i) {
      crc += crc32c(&bufs[i * kWireMax], lens[i] - kWireCrcBytes);
    }
  }));
  // Round trip: every frame decodes and re-encodes to the same bytes, and
  // the CRC passes summed exactly the trailers the encoder wrote.
  const auto crc_passes = static_cast<std::uint32_t>(frames / kFrames);
  std::uint32_t trailers = 0;
  std::uint8_t again[kWireMax];
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::uint8_t* frame = &bufs[i * kWireMax];
    std::uint32_t trailer = 0;
    for (std::size_t b = 0; b < kWireCrcBytes; ++b) {
      trailer |= static_cast<std::uint32_t>(frame[lens[i] - kWireCrcBytes + b]) << (8 * b);
    }
    trailers += trailer;
    const bool ok = wire_decode(frame, lens[i], out) && wire_encode(out, again) == lens[i] &&
                    std::equal(again, again + lens[i], frame);
    bad += ok ? 0 : 1;
  }
  r.check(bad == 0, "rt: wire codec failed to round-trip a frame");
  r.check(crc == crc_passes * trailers, "rt: crc32c disagrees with the encoded trailers");
}

std::unique_ptr<RtCluster> make_tcp_cluster(const ScenarioSpec& spec, VirtualClock& clock,
                                            const FaultSpec& faults) {
  // Listener ports never enter an RNG, so the trajectory does not depend on
  // them; spread them by pid and retry on a collision.
  for (int attempt = 0;; ++attempt) {
    const auto port = static_cast<std::uint16_t>(
        20000 + ((static_cast<unsigned>(getpid()) + 977u * attempt) % 2000u) * 16u);
    try {
      return std::make_unique<RtCluster>(spec, clock, faults, 1024, RtBackend::kTcp, port);
    } catch (const std::exception&) {
      if (attempt == 7) throw;
    }
  }
}

void run_rt(Tracer& tracer, std::uint64_t seed, bool tiny, Report& r) {
  RtSize size;
  if (tiny) size = RtSize{4, 40.0, 0.25, 1.0};
  const ScenarioSpec spec = rt_spec(seed, size);
  r.ops = 1;

  WorkCounter counter;
  VirtualClock clock;  // must outlive the cluster
  Span iteration(tracer, "iteration");
  Span construct(tracer, "runner.construct");
  FaultSpec faults;  // only the seed matters on TCP: chaos and backoff jitter
  faults.seed = derive_seed(seed, 3);
  std::unique_ptr<RtCluster> cluster = make_tcp_cluster(spec, clock, faults);
  DetectorConfig detector;
  detector.suspect_after = 1.5;
  detector.evict_after = 4.0;
  detector.probe_interval = 0.5;
  cluster->enable_detector(detector);
  const ChaosScript script = ChaosScript::preset("corrupt", cluster->size(), cluster->edges(),
                                                 size.horizon, spec.seed);
  cluster->arm_chaos(script);
  const double construct_s = construct.stop();

  Span start(tracer, "runner.start");
  if (tracer.enabled()) {
    for (NodeId u = 0; u < cluster->size(); ++u) {
      counter.attach(cluster->node(u).engine(), cluster->node(u).scenario().transport());
    }
  }
  cluster->start();
  cluster->schedule_samples(size.horizon, size.sample);
  const double start_s = start.stop();

  Span run(tracer, "rt.run");
  cluster->run_lockstep(clock, size.horizon, size.step);
  const double run_s = run.stop();
  Span drain(tracer, "rt.drain");
  cluster->drain();
  const double drain_s = drain.stop();

  {
    Span sp(tracer, "bench.digest");
    r.digests.push_back(hex(samples_digest(*cluster)));
  }
  double ratio = 0.0;
  int gated = 0;
  {
    Span sp(tracer, "rt.report");
    for (const ChaosPhase& phase : script.phases(size.horizon, 0.1 * size.horizon)) {
      if (!phase.gateable()) continue;
      ++gated;
      for (const RtEdgeReport& e : cluster->edge_report_window(phase.gate_begin, phase.gate_end)) {
        r.check(e.samples > 0 && e.max_abs_skew <= e.bound,
                "rt: edge " + e.edge.str() + " outside its bound in quiet phase '" +
                    phase.label + "'");
        ratio = std::max(ratio, e.max_abs_skew / e.bound);
      }
    }
    r.set("rt.report_s", sp.stop());
  }
  const double total_s = iteration.stop();

  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  for (NodeId u = 0; u < cluster->size(); ++u) {
    frames_in += cluster->node(u).ingress_count();
    frames_out += cluster->node(u).egress_count();
  }
  r.check(gated > 0, "rt: the chaos script left no gateable quiet phase");
  r.check(cluster->total_corrupted() > 0, "rt: corruption chaos flipped no frame");
  r.check(cluster->total_rejected() == cluster->total_corrupted(),
          "rt: " + std::to_string(cluster->total_corrupted()) + " corrupted frames but " +
              std::to_string(cluster->total_rejected()) + " rejected");
  r.check(ratio > 0.0 && ratio <= 1.0, "rt: skew_bound_ratio outside (0, 1]");

  r.set("total_s", total_s);
  r.set("setup_s", construct_s + start_s);
  r.set("frames_per_s", static_cast<double>(frames_in) / total_s);
  r.set("skew_bound_ratio", ratio);

  if (!tracer.enabled()) return;
  r.set("runner.construct_s", construct_s);
  r.set("runner.start_s", start_s);
  r.set("rt.run_s", run_s);
  r.set("rt.drain_s", drain_s);
  r.set("rt.frames_in", static_cast<double>(frames_in));
  r.set("rt.frames_out", static_cast<double>(frames_out));
  r.set("rt.corrupted", static_cast<double>(cluster->total_corrupted()));
  r.set("rt.rejected", static_cast<double>(cluster->total_rejected()));
  for (NodeId u = 0; u < cluster->size(); ++u) {
    const TcpTransport& tcp = cluster->tcp(u);
    r.add("rt.tcp.backpressure", static_cast<double>(tcp.backpressure()));
    r.add("rt.tcp.resets", static_cast<double>(tcp.resets()));
    r.add("rt.tcp.reconnects", static_cast<double>(tcp.reconnects()));
    r.add("rt.tcp.conn_down", static_cast<double>(tcp.conn_down()));
    report_scenario_counters(cluster->node(u).scenario(), r);
  }
  counter.report(r);
  probe_graph(tracer, spec, r);
  codec_ceiling(tracer, seed, r);
  r.set("rt.wire.share", 1e-9 * (r.metrics["rt.wire.encode_ns"] + r.metrics["rt.wire.decode_ns"]) *
                             static_cast<double>(frames_in) / run_s);
}

// ----------------------------------------------------------------- output

/// Self time per layer (span name up to the first '.'; the iteration root
/// and the benchmark's own checks count as "bench") and the share of the
/// iteration its direct children cover.
void analyse_spans(const Tracer& tracer, Report& r) {
  const auto& spans = tracer.spans();
  std::map<int, std::vector<std::pair<double, double>>> children;
  for (const auto& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start, s.end);
  }
  for (const char* layer : {"runner", "graph", "sim", "metrics", "rt", "bench"}) {
    r.set(std::string(layer) + ".self_s", 0.0);
  }
  for (const auto& s : spans) {
    const double covered = children.count(s.id) ? union_length(children[s.id]) : 0.0;
    const double self = std::max(0.0, (s.end - s.start) - covered);
    std::string layer = s.name.substr(0, s.name.find('.'));
    if (layer == "iteration") layer = "bench";
    r.add(layer + ".self_s", self);
    if (s.name == "iteration") r.set("trace.coverage", covered / (s.end - s.start));
  }
  r.set("trace.spans", static_cast<double>(spans.size()));
}

/// Ratios of counters, where their base is non-zero.
void derive_ratios(Report& r) {
  const auto ratio = [&](const char* key, const char* num, const char* den) {
    const double d = r.metrics[den];
    r.set(key, d > 0.0 ? r.metrics[num] / d : 0.0);
  };
  ratio("sim.events_per_s", "sim.events", "sim.run_s");
  ratio("net.fanout", "net.delivered", "net.sent");
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  for (const auto& s : tracer.spans()) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"name\":\"" << s.name << "\",\"start_s\":" << s.start << ",\"end_s\":" << s.end
        << "}\n";
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

/// This process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss,
/// it starts afresh at exec, so the launching interpreter does not count.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_report(const Report& r) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"ops\":" << r.ops << ",\"digests\":[";
  for (std::size_t i = 0; i < r.digests.size(); ++i) os << (i ? "," : "") << json_string(r.digests[i]);
  os << "],\"failures\":[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) os << (i ? "," : "") << json_string(r.failures[i]);
  os << "],\"failed_ops\":[";
  bool first_op = true;
  for (const int op : r.failed_ops) {
    os << (first_op ? "" : ",") << op;
    first_op = false;
  }
  os << "],\"metrics\":{";
  bool first = true;
  for (const auto& [key, value] : r.metrics) {
    os << (first ? "" : ",") << json_string(key) << ":" << (std::isfinite(value) ? value : -1.0);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string workload = flags.get("workload", std::string());
  const auto seed = static_cast<std::uint64_t>(flags.get("seed", 1LL));
  const bool traced = flags.get("trace", 0) != 0;
  const bool tiny = flags.get("size", std::string("full")) == "tiny";
  const std::string spans_path = flags.get("spans", std::string());
  if (flags.has("check-default-body")) return check_default_body(seed);

  Tracer tracer(traced);
  Report report;
  try {
    if (workload == "grid-1024") {
      run_grid(tracer, seed, tiny, report);
    } else if (workload == "churn-sweep") {
      (void)run_churn(tracer, seed, tiny, report);
    } else if (workload == "rt-tcp-chaos") {
      run_rt(tracer, seed, tiny, report);
    } else {
      std::cerr << "unknown --workload='" << workload
                << "' (grid-1024|churn-sweep|rt-tcp-chaos)\n";
      return 2;
    }
    if (traced) {
      derive_ratios(report);
      analyse_spans(tracer, report);
      if (!spans_path.empty()) write_spans(tracer, spans_path);
    }
  } catch (const std::exception& e) {
    report.ops = std::max(report.ops, 1LL);
    report.check(false, std::string("exception: ") + e.what());
  }
  report.set("peak_rss_mb", peak_rss_mb());
  print_report(report);
  return 0;
}
