// sadpbench_driver — one benchmark run of one workload, in one process.
//
//   sadpbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//   sadpbench_driver --workload route_serial|route_partitioned --scan-pool 1
//
// Workloads (see README.md for the make-up of each one's inputs):
//   route_serial       full jobs through api::dispatch, workers=1, ecc_10x
//   route_partitioned  the same on ecc_10x_ramp at partitions=4
//   eco_edits          small edits through api::dispatch_delta on a routed base
//   service_mix        hit / miss / delta requests to an in-process RouteServer
//
// Every run times its operations for --seconds after set-up and a warm-up
// and reports each operation's fastest repeat (route and eco scale each time
// by a calibration kernel timed just before it; service_mix reports its
// fastest one-second slice, scaled by a loopback probe), checks every
// distinct output with the independent checker (checker.hpp) and the
// workload's own properties, and
// prints one JSON result line on stdout: end-to-end metrics with --trace 0,
// per-layer metrics with --trace 1 (which also records spans and writes
// them to --trace-out).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/flow_api.hpp"
#include "api/flow_delta.hpp"
#include "checker.hpp"
#include "core/dvic.hpp"
#include "core/eco.hpp"
#include "core/solution_io.hpp"
#include "netlist/bench_gen.hpp"
#include "obs/trace.hpp"
#include "server/route_client.hpp"
#include "server/route_server.hpp"
#include "util/json.hpp"

namespace {

using namespace sadp;
using Clock = std::chrono::steady_clock;

const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return splitmix(splitmix(seed) ^ salt);
}

/// A generator seed that survives the request wire, which carries numbers
/// as doubles: 31 bits, never 0 (0 asks the generator to hash the name).
std::uint64_t spec_seed(std::uint64_t seed, std::uint64_t salt) {
  return (mix(seed, salt) & 0x7fffffffULL) | 1ULL;
}

struct Rng {
  std::uint64_t state;
  std::uint64_t next() { return state = splitmix(state); }
  int uniform(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// The fastest sample of each operation, median over the operations: a
/// route block's or an edit's repeats.  The fastest repeat stands for the
/// operation, and operation cost is heavy-tailed, so the median over them.
double median_of_fastest(const std::vector<std::vector<double>>& per_op) {
  std::vector<double> fastest;
  for (const auto& times : per_op) {
    if (!times.empty()) fastest.push_back(*std::min_element(times.begin(), times.end()));
  }
  return median(fastest);
}

/// A VmRSS / VmHWM field of /proc/self/status, in MB.
double proc_status_mb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Host-speed calibration.

/// A fixed computation timed just before each operation: Dijkstra from a
/// seeded source over a 1536x1536 grid of seeded weights (about 19 MB, like
/// the maze search's scratch on a route block), stopped after 40000 pops.
/// It calls none of the router's code.  The host's speed drifts by up to a
/// third within minutes as other tenants load the shared caches and memory,
/// and the kernel slows in step with the router: a time multiplied by
/// kReferenceKernelSeconds / (the kernel's time just before it) reads the
/// same whatever the host's state, where the raw time does not.
class Calibration {
 public:
  Calibration() : weight_(kCells), dist_(kCells) {
    std::uint64_t r = 7;
    for (std::uint32_t& w : weight_) w = 1 + static_cast<std::uint32_t>((r = splitmix(r)) % 97);
  }

  /// The fastest of three back-to-back runs of the kernel, in seconds: an
  /// interrupt or a page fault during one run does not lower the scale.
  double seconds() { return std::min({run(), run(), run()}); }

  /// Resident size of the kernel's buffers, which it touches in full; the
  /// memory metrics leave it out.
  static double resident_mb() { return 2.0 * kCells * sizeof(std::uint32_t) / (1024.0 * 1024.0); }

 private:
  /// One timed run of the kernel, in seconds.
  double run() {
    const auto t0 = Clock::now();
    std::fill(dist_.begin(), dist_.end(), UINT32_MAX);
    using Entry = std::pair<std::uint32_t, std::uint32_t>;  // (distance, cell)
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    const auto source = static_cast<std::uint32_t>((source_ = splitmix(source_)) % kCells);
    dist_[source] = 0;
    heap.push({0, source});
    for (int pops = 0; !heap.empty() && pops < kPops;) {
      const auto [d, cell] = heap.top();
      heap.pop();
      if (d != dist_[cell]) continue;
      ++pops;
      const int x = static_cast<int>(cell % kSide);
      const int y = static_cast<int>(cell / kSide);
      const auto relax = [&](int nx, int ny) {
        if (nx < 0 || ny < 0 || nx >= kSide || ny >= kSide) return;
        const auto next = static_cast<std::uint32_t>(ny * kSide + nx);
        if (d + weight_[next] < dist_[next]) heap.push({dist_[next] = d + weight_[next], next});
      };
      relax(x + 1, y);
      relax(x - 1, y);
      relax(x, y + 1);
      relax(x, y - 1);
    }
    return seconds_since(t0);
  }

  static constexpr int kSide = 1536;
  static constexpr std::size_t kCells = static_cast<std::size_t>(kSide) * kSide;
  static constexpr int kPops = 40000;
  std::vector<std::uint32_t> weight_;
  std::vector<std::uint32_t> dist_;
  std::uint64_t source_ = 1;
};

/// The kernel's time on the 4-vCPU Xeon host the benchmark was tuned on,
/// uncontended: scaled times read as milliseconds of that host.
constexpr double kReferenceKernelSeconds = 0.0055;

// ---------------------------------------------------------------------------
// The result line.

/// Per-layer metrics: every name is printed on every traced run; a layer
/// the workload does not exercise reads 0.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"netlist.generate_s", "s"},
    {"core.maze.pops", "count"},
    {"core.maze.relaxations", "count"},
    {"core.maze.searches", "count"},
    {"core.maze.pops_p95", "count"},
    {"core.maze.pops_max", "count"},
    {"core.maze.ns_per_pop", "ns"},
    {"core.router.route_s", "s"},
    {"core.router.initial_routing_s", "s"},
    {"core.router.congestion_rr_s", "s"},
    {"core.router.tpl_rr_s", "s"},
    {"core.router.coloring_s", "s"},
    {"core.router.rr_iterations", "count"},
    {"core.router.fvp_cache_hits", "count"},
    {"core.dvi.s", "s"},
    {"core.dvi.single_vias", "count"},
    {"core.partition.boundary_s", "s"},
    {"core.partition.region_max_s", "s"},
    {"core.partition.region_mean_s", "s"},
    {"core.partition.merge_s", "s"},
    {"core.partition.reconcile_s", "s"},
    {"core.partition.boundary_nets", "count"},
    {"core.eco.load_s", "s"},
    {"core.eco.route_s", "s"},
    {"core.eco.dvi_s", "s"},
    {"core.eco.nets_ripped", "count"},
    {"core.eco.maze_pops", "count"},
    {"core.solution_io.parse_s", "s"},
    {"core.solution_io.serialize_s", "s"},
    {"core.solution_io.bytes", "bytes"},
    {"engine.overhead_ms", "ms"},
    {"api.request_bytes", "bytes"},
    {"api.response_bytes", "bytes"},
    {"api.parse_us", "us"},
    {"api.serialize_us", "us"},
    {"server.admission_p50_ms", "ms"},
    {"server.run_p50_ms", "ms"},
    {"server.flush_p50_ms", "ms"},
    {"server.cache_hits", "count"},
    {"server.cache_misses", "count"},
    {"server.cache_hit_ratio", "ratio"},
    {"server.rejections", "count"},
    {"client.hit_p50_ms", "ms"},
    {"client.miss_p50_ms", "ms"},
    {"client.delta_p50_ms", "ms"},
    {"client.op_p90_ms", "ms"},
    {"mem.rss_after_setup_mb", "MB"},
    {"mem.rss_growth_mb", "MB"},
    {"bench.op_wall_ms", "ms"},
    {"bench.kernel_ms", "ms"},
};

struct Report {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  double setup_s = 0.0;
  double rss_after_setup_mb = 0.0;
  std::vector<double> op_seconds;  ///< raw wall time of each timed operation
  std::vector<double> kernel_seconds;  ///< each calibration of the window
  double op_s = 0.0;       ///< the run's operation time, as each workload defines it
  /// op_s without its correction for the host: unscaled on route and eco,
  /// the median over the whole window on service_mix.
  double op_wall_s = 0.0;
  double ops_per_s = 0.0;  ///< the run's operation rate
  double window_s = 0.0;
  long long wirelength = 0;
  long long vias = 0;
  long long redundant_vias = 0;
  /// Resident memory that is the benchmark's own (the calibration kernel),
  /// left out of the memory metrics.
  double own_mb = 0.0;
  std::map<std::string, double> layer;

  void fail(const std::string& why) {
    if (correct || errors < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
    ++errors;
    correct = false;
  }
  void mark_setup_done() {
    setup_s = seconds_since(g_process_start);
    rss_after_setup_mb = proc_status_mb("VmRSS") - own_mb;
  }

  int errors = 0;
};

void print_result(const Report& r, bool traced) {
  std::string metrics;
  const auto add = [&](const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  };
  if (traced) {
    for (const auto& [name, unit] : kLayerMetrics) {
      const auto it = r.layer.find(name);
      add(name, it == r.layer.end() ? 0.0 : it->second, unit);
    }
  } else {
    add("setup_s", r.setup_s, "s");
    add("op_ms", r.op_s * 1e3, "ms");
    add("ops_per_s", r.ops_per_s, "1/s");
    add("wirelength", static_cast<double>(r.wirelength), "grid");
    add("vias", static_cast<double>(r.vias), "count");
    add("redundant_vias", static_cast<double>(r.redundant_vias), "count");
    add("peak_rss_mb", proc_status_mb("VmHWM") - r.own_mb, "MB");
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed, metrics.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Per-layer accumulation from the program's own counters.

struct StageSums {
  int ops = 0;
  double generate = 0, route = 0, initial = 0, congestion = 0, tpl = 0, coloring = 0,
         dvi = 0, total = 0, boundary = 0, region_max = 0, region_mean = 0, merge = 0,
         reconcile = 0;
  double pops = 0, relaxations = 0, searches = 0, pops_p95 = 0, pops_max = 0,
         rr_iterations = 0, fvp_hits = 0, single_vias = 0, boundary_nets = 0;

  void add(const engine::JobOutcome& o) {
    const engine::StageMetrics& m = o.metrics;
    ++ops;
    generate += m.generate_seconds;
    route += m.route_seconds;
    initial += m.initial_routing_seconds;
    congestion += m.congestion_rr_seconds;
    tpl += m.tpl_rr_seconds;
    coloring += m.coloring_seconds;
    dvi += m.dvi_seconds;
    total += m.total_seconds;
    boundary += m.boundary_seconds;
    region_max += m.region_seconds_max;
    region_mean += m.region_seconds_mean;
    merge += m.merge_seconds;
    reconcile += m.reconcile_seconds;
    pops += static_cast<double>(m.maze_pops);
    relaxations += static_cast<double>(m.maze_relaxations);
    searches += static_cast<double>(m.maze_searches);
    pops_p95 += static_cast<double>(m.maze_pops_p95);
    pops_max = std::max(pops_max, static_cast<double>(m.maze_pops_max));
    rr_iterations += static_cast<double>(m.rr_iterations);
    fvp_hits += static_cast<double>(m.fvp_cache_hits);
    single_vias += o.result.single_vias;
    boundary_nets += m.boundary_nets;
  }

  /// Means per operation into the ledger.
  void publish(std::map<std::string, double>& layer) const {
    if (ops == 0) return;
    const double n = ops;
    layer["netlist.generate_s"] = generate / n;
    layer["core.maze.pops"] = pops / n;
    layer["core.maze.relaxations"] = relaxations / n;
    layer["core.maze.searches"] = searches / n;
    layer["core.maze.pops_p95"] = pops_p95 / n;
    layer["core.maze.pops_max"] = pops_max;
    layer["core.maze.ns_per_pop"] = pops > 0 ? route / pops * 1e9 : 0.0;
    layer["core.router.route_s"] = route / n;
    layer["core.router.initial_routing_s"] = initial / n;
    layer["core.router.congestion_rr_s"] = congestion / n;
    layer["core.router.tpl_rr_s"] = tpl / n;
    layer["core.router.coloring_s"] = coloring / n;
    layer["core.router.rr_iterations"] = rr_iterations / n;
    layer["core.router.fvp_cache_hits"] = fvp_hits / n;
    layer["core.dvi.s"] = dvi / n;
    layer["core.dvi.single_vias"] = single_vias / n;
    layer["core.partition.boundary_s"] = boundary / n;
    layer["core.partition.region_max_s"] = region_max / n;
    layer["core.partition.region_mean_s"] = region_mean / n;
    layer["core.partition.merge_s"] = merge / n;
    layer["core.partition.reconcile_s"] = reconcile / n;
    layer["core.partition.boundary_nets"] = boundary_nets / n;
  }
};

/// Mean of samples pushed under a name, for the api/solution_io layers.
struct Means {
  std::map<std::string, std::pair<double, int>> sums;
  void add(const std::string& name, double v) {
    auto& [sum, n] = sums[name];
    sum += v;
    ++n;
  }
  void publish(std::map<std::string, double>& layer) const {
    for (const auto& [name, s] : sums) layer[name] = s.first / s.second;
  }
};

// ---------------------------------------------------------------------------
// Certification of one routed result.

using Pins = std::vector<std::vector<sadpbench::Pt>>;

Pins pins_of(const netlist::PlacedNetlist& netlist) {
  Pins pins;
  for (const auto& net : netlist.nets) {
    auto& list = pins.emplace_back();
    for (const auto& pin : net.pins) list.push_back({pin.at.x, pin.at.y});
  }
  return pins;
}

/// What a routed result looks like to the checker: its canonical text and
/// the redundant vias DVI placed.
struct Certificate {
  std::string text;
  std::vector<sadpbench::RedundantVia> redundant;
  sadpbench::Totals totals;
};

/// Capture a router's solution and DVI insertions.  `dvi_nets` are the nets
/// the DVI problem was built from (all nets, or the ECO re-routed subset).
Certificate capture(const core::SadpRouter& router, const std::string& name,
                    grid::SadpStyle style, const std::vector<core::RoutedNet>& dvi_nets,
                    const core::ExperimentResult& result,
                    const std::vector<grid::Point>& inserted_at, Report& report,
                    Means& means) {
  Certificate cert;
  const auto t0 = Clock::now();
  {
    obs::Span span("bench.serialize_solution");
    cert.text = core::solution_to_text(
        core::capture_solution(name, router.routing_grid(), style, router.nets()));
  }
  means.add("core.solution_io.serialize_s", seconds_since(t0));
  means.add("core.solution_io.bytes", static_cast<double>(cert.text.size()));
  cert.totals = {result.routing.wirelength, result.routing.via_count};
  const core::DviProblem problem =
      core::build_dvi_problem(dvi_nets, router.routing_grid(), router.turn_rules());
  if (problem.vias.size() != result.dvi.inserted.size() ||
      inserted_at.size() != result.dvi.inserted.size()) {
    report.fail("DVI result does not line up with its problem (" +
                std::to_string(problem.vias.size()) + " vias, " +
                std::to_string(result.dvi.inserted.size()) + " decisions)");
    return cert;
  }
  for (std::size_t i = 0; i < problem.vias.size(); ++i) {
    if (result.dvi.inserted[i] < 0) continue;
    const core::SingleVia& via = problem.vias[i];
    cert.redundant.push_back({via.net, via.via_layer, {via.at.x, via.at.y},
                              {inserted_at[i].x, inserted_at[i].y}});
  }
  return cert;
}

/// Run the checker plus the routing report's own guarantees.
std::optional<sadpbench::Solution> certify(const Certificate& cert, const Pins& pins,
                                           const core::ExperimentResult& result,
                                           const std::string& what, Report& report) {
  const auto& routing = result.routing;
  if (!routing.routed_all || routing.unrouted_nets != 0 ||
      routing.remaining_congestion != 0 || routing.uncolorable_vias != 0 ||
      result.dvi.uncolorable != 0) {
    report.fail(what + ": report not clean (routed_all " +
                std::to_string(routing.routed_all) + ", congestion " +
                std::to_string(routing.remaining_congestion) + ", uncolorable " +
                std::to_string(routing.uncolorable_vias) + "/" +
                std::to_string(result.dvi.uncolorable) + ")");
  }
  obs::Span span("bench.check");
  std::string error;
  auto parsed = sadpbench::parse_solution_text(cert.text, &error);
  if (!parsed) {
    report.fail(what + ": solution text: " + error);
    return std::nullopt;
  }
  const sadpbench::CheckReport checked =
      sadpbench::check_solution(*parsed, pins, cert.redundant, &cert.totals);
  if (!checked.ok()) report.fail(what + ": " + checked.summary());
  if (cert.redundant.size() != static_cast<std::size_t>(result.single_vias - result.dvi.dead_vias)) {
    report.fail(what + ": " + std::to_string(cert.redundant.size()) +
                " redundant vias, report says " +
                std::to_string(result.single_vias - result.dvi.dead_vias));
  }
  return parsed;
}

/// The counters two runs of one deterministic job must agree on.
std::string fingerprint(const engine::JobOutcome& o) {
  const auto& r = o.result;
  return std::to_string(r.routing.wirelength) + "/" + std::to_string(r.routing.via_count) +
         "/" + std::to_string(r.single_vias) + "/" + std::to_string(r.dvi.dead_vias) +
         "/" + std::to_string(o.metrics.maze_pops) + "/" +
         std::to_string(o.metrics.rr_iterations);
}

bool job_ok(const engine::JobOutcome& o) { return o.status == engine::JobStatus::kOk; }

long long inserted_count(const core::ExperimentResult& r) {
  return r.single_vias - r.dvi.dead_vias;
}

/// Time the api layer on one request/response pair (traced runs only).
template <typename Request, typename Serialize, typename Parse>
void time_api(const Request& request, Serialize serialize, Parse parse,
              const engine::JobOutcome& outcome, Means& means) {
  auto t0 = Clock::now();
  const std::string line = serialize(request);
  double serialize_s = seconds_since(t0);
  t0 = Clock::now();
  const bool parsed = parse(line);
  double parse_s = seconds_since(t0);
  t0 = Clock::now();
  const std::string row = api::response_row_line(outcome, 1, 1);
  serialize_s += seconds_since(t0);
  t0 = Clock::now();
  const bool row_parsed = api::parse_response_line(row).has_value();
  parse_s += seconds_since(t0);
  if (parsed && row_parsed) {
    means.add("api.request_bytes", static_cast<double>(line.size()));
    means.add("api.response_bytes", static_cast<double>(row.size()));
    means.add("api.serialize_us", serialize_s * 1e6);
    means.add("api.parse_us", parse_s * 1e6);
  }
}

// ---------------------------------------------------------------------------
// route_serial / route_partitioned

/// Route blocks are the ecc_10x family at a quarter of its area (scale 2.5
/// instead of 10: 1045 nets), so that a run times each of several blocks
/// several times.  Search effort varies by up to ~2x between seeded blocks of
/// one shape; with full-size blocks (3 s a job) a run could time three
/// blocks twice, and its figures followed the seed and the host's slow
/// stretches (spread 0.24 over ten seeds).
constexpr double kRouteScale = 2.5;
constexpr int kRouteBlocks = 12;
constexpr int kJobsPerBlock = 3;

/// A run's blocks are drawn by --seed from a fixed pool per family: the
/// generator seeds spec_seed(kPoolKey, i) for i < kPoolSize.  Partitioned
/// routing does not converge on a few ramp blocks (its reconcile R&R runs
/// for thousands of iterations where serial routing finishes; see
/// CHANGES.md), so the pool is fixed and checked: `--scan-pool` routes every
/// candidate once, and every candidate of both families routes, in at most
/// 0.55 s on the 4-vCPU host.  A job that does not route is a failed operation.
constexpr std::uint64_t kPoolKey = 0x5adb10c;
constexpr int kPoolSize = 64;

/// Far above the slowest job in either pool, so only a router that no
/// longer converges reaches it.
constexpr double kJobDeadlineSeconds = 20.0;

api::FlowRequest route_request(bool partitioned, int candidate) {
  netlist::BenchSpec spec = *netlist::spec_for(partitioned ? "ecc_10x_ramp" : "ecc_10x", true);
  spec.scale = kRouteScale;
  spec.seed = spec_seed(kPoolKey, static_cast<std::uint64_t>(candidate));
  api::JobRequest job;
  job.label = spec.name + "_" + std::to_string(spec.seed);
  job.spec = spec;
  job.partitions = partitioned ? 4 : 1;
  job.deadline_seconds = kJobDeadlineSeconds;
  api::FlowRequest request;
  request.workers = 1;
  request.jobs = {job};
  return request;
}

/// The pool candidates a run routes, drawn by --seed.
std::vector<int> draw_blocks(std::uint64_t seed) {
  std::vector<int> pool(kPoolSize);
  std::iota(pool.begin(), pool.end(), 0);
  Rng rng{mix(seed, 10)};
  for (std::size_t i = 0; i < static_cast<std::size_t>(kRouteBlocks); ++i) {
    std::swap(pool[i], pool[i + rng.next() % (pool.size() - i)]);
  }
  pool.resize(kRouteBlocks);
  return pool;
}

/// Route every pool candidate once and print how it went: the check that
/// the pool holds only blocks the router finishes.
int scan_pool(bool partitioned) {
  int unrouted = 0;
  for (int i = 0; i < kPoolSize; ++i) {
    const api::FlowRequest request = route_request(partitioned, i);
    const auto t0 = Clock::now();
    const api::DispatchResult run = api::dispatch(request, {});
    const double wall = seconds_since(t0);
    const bool ok = run.status.is_ok() && run.batch.outcomes.size() == 1 &&
                    job_ok(run.batch.outcomes[0]) &&
                    run.batch.outcomes[0].result.routing.routed_all;
    if (!ok) ++unrouted;
    std::printf("candidate %2d  %-28s %-7s %7.3f s  %6lld R&R iterations\n", i,
                request.jobs[0].label.c_str(), ok ? "routed" : "FAILED", wall,
                run.batch.outcomes.empty()
                    ? 0LL
                    : static_cast<long long>(run.batch.outcomes[0].metrics.rr_iterations));
    std::fflush(stdout);
  }
  std::printf("%d of %d candidates not routed\n", unrouted, kPoolSize);
  return 0;
}

void run_route(bool partitioned, std::uint64_t seed, double seconds, bool traced,
               Report& report) {
  Calibration calibration;
  report.own_mb = Calibration::resident_mb();
  struct Block {
    netlist::PlacedNetlist netlist;
    api::FlowRequest request;
    bool seen = false;
    std::string print;
    Certificate cert;
    core::ExperimentResult result;
  };
  const int num_blocks = kRouteBlocks;
  std::vector<Block> blocks(static_cast<std::size_t>(num_blocks));
  const std::vector<int> drawn = draw_blocks(seed);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    blocks[b].request = route_request(partitioned, drawn[b]);
    obs::Span span("bench.generate");
    blocks[b].netlist = netlist::generate(*blocks[b].request.jobs[0].spec);
  }
  api::DispatchOptions options;
  options.keep_router = true;

  StageSums sums;
  Means means;
  std::vector<double> overhead_ms;
  // Timed jobs per block, raw and scaled.
  std::vector<std::vector<double>> block_wall(blocks.size());
  std::vector<std::vector<double>> block_scaled(blocks.size());
  const auto run_one = [&](long long id, bool warmup) {
    const auto b = static_cast<std::size_t>(id % num_blocks);
    Block& block = blocks[b];
    ++report.attempted;
    const double kernel = warmup ? 0.0 : calibration.seconds();
    const auto t0 = Clock::now();
    api::DispatchResult run;
    {
      obs::Span span("bench.dispatch", id);
      run = api::dispatch(block.request, options);
    }
    const double wall = seconds_since(t0);

    const std::string what = "job " + std::to_string(id) + " (block " +
                             std::to_string(id % num_blocks) + ")";
    if (!run.status.is_ok() || run.batch.outcomes.size() != 1 ||
        !job_ok(run.batch.outcomes[0]) || !run.batch.outcomes[0].router) {
      ++report.failed;
      report.fail(what + " failed: " +
                  (run.status.is_ok() && !run.batch.outcomes.empty()
                       ? run.batch.outcomes[0].error.to_string()
                       : run.status.to_string()));
      return;
    }
    engine::JobOutcome& outcome = run.batch.outcomes[0];
    if (!warmup) {
      report.op_seconds.push_back(wall);
      report.kernel_seconds.push_back(kernel);
      block_wall[b].push_back(wall);
      block_scaled[b].push_back(wall * kReferenceKernelSeconds / kernel);
      sums.add(outcome);
      overhead_ms.push_back((wall - outcome.metrics.total_seconds) * 1e3);
    }
    if (traced && warmup) {
      time_api(block.request, api::serialize_request,
               [](const std::string& line) { return api::parse_request(line).has_value(); },
               outcome, means);
    }
    Certificate cert = capture(*outcome.router, block.netlist.name, outcome.style,
                               outcome.router->nets(), outcome.result,
                               outcome.dvi_inserted_at, report, means);
    outcome.router.reset();
    if (!block.seen) {
      // First result of a block: kept for certification after the window;
      // every later job on the block must reproduce it exactly.
      block.seen = true;
      block.print = fingerprint(outcome);
      block.cert = std::move(cert);
      block.result = outcome.result;
      report.wirelength += outcome.result.routing.wirelength;
      report.vias += outcome.result.routing.via_count;
      report.redundant_vias += inserted_count(outcome.result);
    } else if (fingerprint(outcome) != block.print || cert.text != block.cert.text) {
      report.fail(what + " differs from the first job on the block: " + fingerprint(outcome) +
                  " vs " + block.print);
    }
  };

  // Set-up ends with a first, cold job on every block: the time to the
  // first results, which also serve as the references below.
  for (long long id = 0; id < num_blocks; ++id) run_one(id, true);
  report.mark_setup_done();
  const auto window = Clock::now();
  // Timed jobs cycle through the blocks, each of which must reproduce its
  // warm-up result.
  for (long long id = 0; id < num_blocks * kJobsPerBlock || seconds_since(window) < seconds;
       ++id) {
    run_one(id, false);
    report.window_s = seconds_since(window);
  }
  report.op_s = median_of_fastest(block_scaled);
  report.op_wall_s = median_of_fastest(block_wall);
  report.ops_per_s = report.op_s > 0.0 ? 1.0 / report.op_s : 0.0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    if (traced) {
      const auto p0 = Clock::now();
      if (core::parse_solution(blocks[b].cert.text).has_value()) {
        means.add("core.solution_io.parse_s", seconds_since(p0));
      }
    }
    certify(blocks[b].cert, pins_of(blocks[b].netlist), blocks[b].result,
            "block " + std::to_string(b), report);
  }
  sums.publish(report.layer);
  means.publish(report.layer);
  report.layer["engine.overhead_ms"] = median(overhead_ms);
  report.layer["client.op_p90_ms"] = percentile(report.op_seconds, 0.9) * 1e3;
}

// ---------------------------------------------------------------------------
// eco_edits

/// Pin cells of a netlist, for keeping edits at the generator's pin spacing.
class PinMap {
 public:
  explicit PinMap(const netlist::PlacedNetlist& n) : width_(n.width), height_(n.height) {
    cells_.assign(static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_), 0);
    for (const auto& net : n.nets) {
      for (const auto& pin : net.pins) ++at(pin.at.x, pin.at.y);
    }
  }
  bool inside(int x, int y, int margin = 0) const {
    return x >= margin && y >= margin && x < width_ - margin && y < height_ - margin;
  }
  /// No pin within Chebyshev distance `radius` of (x, y), not counting
  /// `skip` pins at `skip_at`.
  bool clear(int x, int y, int radius, grid::Point skip_at = {-1, -1}) const {
    for (int dy = -radius; dy <= radius; ++dy) {
      for (int dx = -radius; dx <= radius; ++dx) {
        if (!inside(x + dx, y + dy)) continue;
        int count = cells_[index(x + dx, y + dy)];
        if (x + dx == skip_at.x && y + dy == skip_at.y) --count;
        if (count > 0) return false;
      }
    }
    return true;
  }

 private:
  std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(width_) +
           static_cast<std::size_t>(x);
  }
  int& at(int x, int y) { return cells_[index(x, y)]; }
  int width_;
  int height_;
  std::vector<int> cells_;
};

/// Keeps every pin at Chebyshev distance >= 3 from every other pin, the
/// spacing the generator guarantees (closer pin vias can form FVPs that no
/// routing can fix).
constexpr int kPinClearance = 2;

core::EcoChange random_move(const netlist::PlacedNetlist& base, const PinMap& pins, Rng& rng) {
  for (;;) {
    const auto& net = base.nets[static_cast<std::size_t>(rng.uniform(0, base.num_nets() - 1))];
    const int pin = rng.uniform(0, net.num_pins() - 1);
    const grid::Point from = net.pins[static_cast<std::size_t>(pin)].at;
    const int dx = rng.uniform(-3, 3);
    const int dy = rng.uniform(-3, 3);
    const int reach = std::abs(dx) + std::abs(dy);
    if (reach == 0 || reach > 3) continue;
    const grid::Point to{from.x + dx, from.y + dy};
    if (!pins.inside(to.x, to.y, 1) || !pins.clear(to.x, to.y, kPinClearance, from)) continue;
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kMovePin;
    change.net = net.id;
    change.pin = pin;
    change.to = to;
    return change;
  }
}

core::EcoChange random_add(const netlist::PlacedNetlist& base, const PinMap& pins, Rng& rng,
                           int radius, const std::string& name) {
  for (;;) {
    const grid::Point center{rng.uniform(radius + 1, base.width - radius - 2),
                             rng.uniform(radius + 1, base.height - radius - 2)};
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kAddNet;
    change.name = name;
    const int want = rng.uniform(2, 3);
    for (int tries = 0; tries < 200 && static_cast<int>(change.pins.size()) < want; ++tries) {
      const grid::Point p{center.x + rng.uniform(-radius, radius),
                          center.y + rng.uniform(-radius, radius)};
      bool spaced = pins.clear(p.x, p.y, kPinClearance);
      for (const grid::Point q : change.pins) {
        spaced = spaced && std::max(std::abs(p.x - q.x), std::abs(p.y - q.y)) > kPinClearance;
      }
      if (spaced) change.pins.push_back(p);
    }
    if (static_cast<int>(change.pins.size()) == want) return change;
  }
}

core::EcoChange random_blockage(const netlist::PlacedNetlist& base, const PinMap& pins,
                                Rng& rng) {
  for (;;) {
    const int w = rng.uniform(2, 4);
    const int h = rng.uniform(2, 4);
    const grid::Point lo{rng.uniform(2, base.width - w - 3), rng.uniform(2, base.height - h - 3)};
    bool clear = true;
    for (int y = lo.y; y < lo.y + h && clear; ++y) {
      for (int x = lo.x; x < lo.x + w && clear; ++x) clear = pins.clear(x, y, kPinClearance);
    }
    if (!clear) continue;
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kAddBlockage;
    change.rect_lo = lo;
    change.rect_hi = {lo.x + w - 1, lo.y + h - 1};
    return change;
  }
}

/// The edited netlist's pins and the base id of each edited net (-1 for an
/// added net), derived from the change without the program's edit code.
struct EditedView {
  Pins pins;
  std::vector<int> base_of;
  int changed = -1;  ///< edited id of the moved or added net, or -1
};

EditedView edited_view(const netlist::PlacedNetlist& base, const core::EcoChange& change) {
  EditedView view;
  for (const auto& net : base.nets) {
    if (change.kind == core::EcoChange::Kind::kRemoveNet && net.id == change.net) continue;
    auto& list = view.pins.emplace_back();
    for (const auto& pin : net.pins) list.push_back({pin.at.x, pin.at.y});
    if (change.kind == core::EcoChange::Kind::kMovePin && net.id == change.net) {
      list[static_cast<std::size_t>(change.pin)] = {change.to.x, change.to.y};
      view.changed = static_cast<int>(view.base_of.size());
    }
    view.base_of.push_back(net.id);
  }
  if (change.kind == core::EcoChange::Kind::kAddNet) {
    auto& list = view.pins.emplace_back();
    for (const grid::Point p : change.pins) list.push_back({p.x, p.y});
    view.changed = static_cast<int>(view.base_of.size());
    view.base_of.push_back(-1);
  }
  return view;
}

/// One net's geometry in a canonical (sorted) form, independent of the
/// order the writer emitted it in.
std::string canonical(const sadpbench::SolutionNet& net) {
  std::vector<std::string> lines;
  for (const auto& m : net.metal) {
    lines.push_back("m" + std::to_string(m.layer) + "," + std::to_string(m.at.x) + "," +
                    std::to_string(m.at.y) + "," + std::to_string(m.arms));
  }
  for (const auto& v : net.vias) {
    lines.push_back("v" + std::to_string(v.via_layer) + "," + std::to_string(v.at.x) + "," +
                    std::to_string(v.at.y));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l + ";";
  return out;
}

bool in_rect(sadpbench::Pt p, const core::EcoChange& c) {
  return p.x >= c.rect_lo.x && p.x <= c.rect_hi.x && p.y >= c.rect_lo.y && p.y <= c.rect_hi.y;
}

/// Edits per round: the fixed mix every seed gets, in a seeded order.  A
/// window repeats each edit about five times.
constexpr int kEcoMoves = 7;
constexpr int kEcoRemoves = 1;
constexpr int kEcoAdds = 1;
constexpr int kEcoBlockages = 1;

void run_eco(std::uint64_t seed, double seconds, bool traced, Report& report) {
  Calibration calibration;
  report.own_mb = Calibration::resident_mb();
  netlist::BenchSpec spec = *netlist::spec_for("ecc_10x", true);
  spec.seed = spec_seed(seed, 2);
  netlist::PlacedNetlist base;
  {
    obs::Span span("bench.generate");
    base = netlist::generate(spec);
  }
  api::JobRequest job;
  job.label = spec.name;
  job.spec = spec;
  api::FlowRequest base_request;
  base_request.workers = 1;
  base_request.jobs = {job};
  api::DispatchOptions keep;
  keep.keep_router = true;
  api::DispatchResult base_run;
  {
    obs::Span span("bench.dispatch", 0);
    base_run = api::dispatch(base_request, keep);
  }
  if (!base_run.status.is_ok() || base_run.batch.outcomes.size() != 1 ||
      !job_ok(base_run.batch.outcomes[0]) || !base_run.batch.outcomes[0].router) {
    report.fail("base route failed");
    return;
  }
  // The base's redundant vias count once; each edit then adds those its
  // incremental DVI inserts on the re-routed nets.
  report.redundant_vias = inserted_count(base_run.batch.outcomes[0].result);
  const std::string base_text = core::solution_to_text(core::capture_solution(
      base.name, base_run.batch.outcomes[0].router->routing_grid(),
      base_run.batch.outcomes[0].style, base_run.batch.outcomes[0].router->nets()));
  base_run = {};

  Rng rng{mix(seed, 3)};
  const PinMap pin_map(base);
  std::vector<core::EcoChange> edits;
  for (int i = 0; i < kEcoMoves; ++i) edits.push_back(random_move(base, pin_map, rng));
  for (int i = 0; i < kEcoRemoves; ++i) {
    core::EcoChange change;
    change.kind = core::EcoChange::Kind::kRemoveNet;
    change.net = rng.uniform(0, base.num_nets() - 1);
    edits.push_back(change);
  }
  for (int i = 0; i < kEcoAdds; ++i) {
    edits.push_back(random_add(base, pin_map, rng, 6, "eco_add_" + std::to_string(i)));
  }
  for (int i = 0; i < kEcoBlockages; ++i) edits.push_back(random_blockage(base, pin_map, rng));
  for (std::size_t i = edits.size(); i > 1; --i) {
    std::swap(edits[i - 1], edits[static_cast<std::size_t>(rng.next() % i)]);
  }

  api::FlowDeltaRequest request;
  request.base = job;
  request.base_solution = base_text;
  api::DeltaDispatchOptions options;
  options.keep_router = true;

  // The base geometry per net, for the untouched-net check.
  std::vector<std::string> base_nets;
  {
    std::string error;
    const auto parsed = sadpbench::parse_solution_text(base_text, &error);
    if (!parsed) {
      report.fail("base solution: " + error);
      return;
    }
    for (const auto& net : parsed->nets) base_nets.push_back(canonical(net));
  }

  StageSums sums;
  Means means;
  std::vector<double> overhead_ms;
  std::vector<std::string> reference(edits.size());
  std::vector<std::vector<double>> edit_wall(edits.size());
  std::vector<std::vector<double>> edit_scaled(edits.size());
  const auto run_one = [&](long long id, bool first_round) {
    const core::EcoChange& change = edits[static_cast<std::size_t>(id) % edits.size()];
    request.changes = {change};
    ++report.attempted;
    const double kernel = first_round ? 0.0 : calibration.seconds();
    const auto t0 = Clock::now();
    api::DeltaDispatchResult run;
    {
      obs::Span span("bench.dispatch_delta", id);
      run = api::dispatch_delta(request, options);
    }
    const double wall = seconds_since(t0);
    const std::string what = "edit " + std::to_string(id) + " (" +
                             core::eco_change_kind_name(change.kind) + ")";
    if (!run.status.is_ok() || !job_ok(run.outcome) || !run.outcome.router) {
      ++report.failed;
      report.fail(what + " failed: " +
                  (run.status.is_ok() ? run.outcome.error.to_string() : run.status.to_string()));
      return;
    }
    const engine::JobOutcome& outcome = run.outcome;
    const std::string print = fingerprint(outcome) + "/" + [&] {
      std::string ids;
      for (const auto i : run.summary.ripped_ids) ids += std::to_string(i) + ",";
      return ids;
    }();
    if (!first_round) {
      report.op_seconds.push_back(wall);
      report.kernel_seconds.push_back(kernel);
      edit_wall[static_cast<std::size_t>(id) % edits.size()].push_back(wall);
      edit_scaled[static_cast<std::size_t>(id) % edits.size()].push_back(
          wall * kReferenceKernelSeconds / kernel);
      sums.add(outcome);
      overhead_ms.push_back((wall - outcome.metrics.total_seconds) * 1e3);
      means.add("core.eco.load_s", run.summary.load_seconds);
      means.add("core.eco.route_s", outcome.metrics.route_seconds);
      means.add("core.eco.dvi_s", outcome.metrics.dvi_seconds);
      means.add("core.eco.nets_ripped", run.summary.nets_ripped);
      means.add("core.eco.maze_pops", static_cast<double>(outcome.metrics.maze_pops));
      if (print != reference[static_cast<std::size_t>(id) % edits.size()]) {
        report.fail(what + " differs from the same edit earlier in the run");
      }
      return;
    }
    // First round: certify every distinct edit in full.
    reference[static_cast<std::size_t>(id)] = print;
    if (traced) {
      time_api(request, api::serialize_delta_request,
               [](const std::string& line) { return api::parse_delta_request(line).has_value(); },
               outcome, means);
      const auto p0 = Clock::now();
      if (core::parse_solution(base_text).has_value()) {
        means.add("core.solution_io.parse_s", seconds_since(p0));
      }
    }
    std::vector<core::RoutedNet> subset;
    for (const auto i : run.summary.ripped_ids) {
      subset.push_back(outcome.router->nets()[static_cast<std::size_t>(i)]);
    }
    const Certificate cert = capture(*outcome.router, base.name, outcome.style, subset,
                                     outcome.result, outcome.dvi_inserted_at, report, means);
    const EditedView view = edited_view(base, change);
    const auto solution = certify(cert, view.pins, outcome.result, what, report);
    report.wirelength += outcome.result.routing.wirelength;
    report.vias += outcome.result.routing.via_count;
    report.redundant_vias += inserted_count(outcome.result);

    const auto& summary = run.summary;
    const int total = static_cast<int>(view.pins.size());
    if (summary.nets_total != total || summary.nets_ripped + summary.nets_untouched != total ||
        static_cast<int>(summary.ripped_ids.size()) != summary.nets_ripped) {
      report.fail(what + ": ripped " + std::to_string(summary.nets_ripped) + " + untouched " +
                  std::to_string(summary.nets_untouched) + " != total " + std::to_string(total));
    }
    const std::set<int> ripped(summary.ripped_ids.begin(), summary.ripped_ids.end());
    if (view.changed >= 0 && !ripped.contains(view.changed)) {
      report.fail(what + ": changed net " + std::to_string(view.changed) + " was not ripped");
    }
    if (!solution || static_cast<int>(solution->nets.size()) != total) return;
    for (int id2 = 0; id2 < total; ++id2) {
      const auto& net = solution->nets[static_cast<std::size_t>(id2)];
      const int base_id = view.base_of[static_cast<std::size_t>(id2)];
      if (change.kind == core::EcoChange::Kind::kAddBlockage &&
          std::any_of(net.metal.begin(), net.metal.end(), [&](const auto& m) {
            return m.layer >= 2 && in_rect(m.at, change);
          })) {
        report.fail(what + ": net " + std::to_string(id2) + " has metal inside the blockage");
      }
      if (ripped.contains(id2)) continue;
      if (base_id < 0 || canonical(net) != base_nets[static_cast<std::size_t>(base_id)]) {
        report.fail(what + ": untouched net " + std::to_string(id2) +
                    " does not keep its base geometry");
      }
    }
  };

  // Set-up ends after the base route and a first, certified round of edits.
  for (long long id = 0; id < static_cast<long long>(edits.size()); ++id) run_one(id, true);
  report.mark_setup_done();
  const auto window = Clock::now();
  for (long long id = static_cast<long long>(edits.size()); seconds_since(window) < seconds;
       ++id) {
    run_one(id, false);
    report.window_s = seconds_since(window);
  }
  report.op_s = median_of_fastest(edit_scaled);
  report.op_wall_s = median_of_fastest(edit_wall);
  report.ops_per_s = report.op_s > 0.0 ? 1.0 / report.op_s : 0.0;
  sums.publish(report.layer);
  means.publish(report.layer);
  report.layer["engine.overhead_ms"] = median(overhead_ms);
  report.layer["client.op_p90_ms"] = percentile(report.op_seconds, 0.9) * 1e3;
}

// ---------------------------------------------------------------------------
// service_mix

/// One request over loopback: connect, send the line, read until the server
/// closes.  Returns false on a transport error.  The benchmark's own client
/// rather than server::run_remote, because the hit check compares raw row
/// bytes.
bool round_trip(int port, const std::string& line, std::string* response) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  const std::string framed = line + "\n";
  for (std::size_t sent = 0; ok && sent < framed.size();) {
    const ssize_t n = ::send(fd, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) ok = false;
    else sent += static_cast<std::size_t>(n);
  }
  response->clear();
  char buf[65536];
  while (ok) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n < 0) ok = false;
    if (n <= 0) break;
    response->append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return ok;
}

struct Lines {
  std::string row;
  std::string delta;
  std::string batch;
  std::string error;
};

Lines split_response(const std::string& response) {
  Lines lines;
  std::istringstream in(response);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"row\"") != std::string::npos) lines.row = line;
    else if (line.find("\"type\":\"delta\"") != std::string::npos) lines.delta = line;
    else if (line.find("\"type\":\"batch\"") != std::string::npos) lines.batch = line;
    else lines.error = line;
  }
  return lines;
}

/// p50 of a Prometheus histogram series in the exposition text, by linear
/// interpolation inside the bucket holding the median, in ms.
double histogram_p50_ms(const std::string& exposition, const std::string& name) {
  std::vector<std::pair<double, double>> buckets;  // (upper edge s, cumulative)
  std::istringstream in(exposition);
  std::string line;
  const std::string prefix = name + "_bucket{";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) != 0) continue;
    const std::size_t le = line.find("le=\"");
    const std::size_t close = line.find("\"}", le);
    if (le == std::string::npos || close == std::string::npos) continue;
    const std::string edge = line.substr(le + 4, close - le - 4);
    const double count = std::strtod(line.c_str() + close + 2, nullptr);
    buckets.emplace_back(edge == "+Inf" ? INFINITY : std::strtod(edge.c_str(), nullptr), count);
  }
  if (buckets.empty() || buckets.back().second <= 0) return 0.0;
  const double half = buckets.back().second / 2.0;
  double lower = 0.0;
  double below = 0.0;
  for (const auto& [edge, cumulative] : buckets) {
    if (cumulative >= half) {
      if (std::isinf(edge)) return lower * 1e3;
      const double share = cumulative > below ? (half - below) / (cumulative - below) : 0.0;
      return (lower + share * (edge - lower)) * 1e3;
    }
    lower = edge;
    below = cumulative;
  }
  return 0.0;
}

enum class Kind { kHit, kMiss, kDelta };

/// One client's round: 6 cache hits, 1 fresh job, 1 ECO delta.  The mix is
/// assumed, not measured: nothing in the repository records the traffic a
/// daemon serves.  Its basis: the result cache exists to answer repeats
/// (bench_service's closed loop is all hits once warm), while misses and
/// deltas are the requests that route.  Claims on service_mix are claims
/// about this mix.
constexpr Kind kRound[] = {Kind::kHit, Kind::kHit,  Kind::kHit, Kind::kMiss,
                           Kind::kHit, Kind::kHit, Kind::kHit, Kind::kDelta};
/// Two clients, the server's event loop and its one pool worker: four
/// threads, one per core of the 4-vCPU host, so none waits for a core.
constexpr int kClients = 2;
/// bench_service's default pool size.
constexpr int kHotJobs = 16;
/// Distinct edits the deltas cycle through.
constexpr int kDeltaEdits = 32;
/// Misses and deltas per client routed in-process as references.  The
/// quality counts sum the hot set, the delta base and these misses: over
/// the 17 set-up jobs alone, the seed moved them by a spread of 0.07.
constexpr std::size_t kVerifiedPerClient = 32;
/// The window is cut into slices by reply time.  The run reports its
/// fastest slice, as route runs report each block's fastest job: the host
/// slows the loopback path by up to half, in stretches of seconds.
constexpr double kSliceSeconds = 1.0;
/// The loopback probe's median round trip on the 4-vCPU host, quiet: the
/// service's request time is scaled by this over the probe's time, as
/// route and eco times are by the calibration kernel's, which does not
/// track the loopback path (it stayed put while two memory-copying
/// processes slowed hits by half; the probe slowed with them).
constexpr double kReferenceProbeSeconds = 0.000065;
constexpr double kProbeSeconds = 0.5;

/// The shape of bench_service's request pool: 36x36 cells, 12 nets.
netlist::BenchSpec pool_spec(const std::string& name, std::uint64_t seed) {
  netlist::BenchSpec spec;
  spec.name = name;
  spec.width = 36;
  spec.height = 36;
  spec.num_nets = 12;
  spec.seed = seed;
  return spec;
}

api::FlowRequest one_job(const std::string& label, const netlist::BenchSpec& spec) {
  api::JobRequest job;
  job.label = label;
  job.spec = spec;
  api::FlowRequest request;
  request.workers = 1;
  request.jobs = {job};
  return request;
}

/// Whether a wire row reports the same routed result as an in-process run.
bool same_result(const engine::JobOutcome& wire, const engine::JobOutcome& local) {
  return wire.status == local.status && fingerprint(wire) == fingerprint(local) &&
         wire.result.routing.routed_all == local.result.routing.routed_all &&
         wire.result.dvi.uncolorable == local.result.dvi.uncolorable;
}

struct Sample {
  Kind kind;
  double seconds;
  double done_at;  ///< seconds from the window's start to the reply
};

/// The host's loopback speed, timed with none of the server's code: two
/// client threads send `request` to a plain blocking accept loop that
/// answers with `reply` and closes, for `seconds`.  Returns the median
/// round trip, or 0 when a socket call fails.
double loopback_probe(const std::string& request, const std::string& reply, double seconds) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  if (listener < 0 || ::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listener, 64) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    if (listener >= 0) ::close(listener);
    return 0.0;
  }
  const int port = ntohs(addr.sin_port);
  std::thread server([&] {
    std::string line;
    char buf[4096];
    for (;;) {
      const int fd = ::accept(listener, nullptr, nullptr);
      if (fd < 0) break;  // the listener was shut down
      line.clear();
      for (ssize_t n; line.find('\n') == std::string::npos &&
                      (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
        line.append(buf, static_cast<std::size_t>(n));
      }
      for (std::size_t sent = 0; sent < reply.size();) {
        const ssize_t n = ::send(fd, reply.data() + sent, reply.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        sent += static_cast<std::size_t>(n);
      }
      ::close(fd);
    }
  });
  std::vector<std::vector<double>> times(kClients);
  std::vector<std::thread> clients;
  const auto start = Clock::now();
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::string response;
      while (seconds_since(start) < seconds) {
        const auto t0 = Clock::now();
        if (!round_trip(port, request, &response)) return;
        times[static_cast<std::size_t>(c)].push_back(seconds_since(t0));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ::shutdown(listener, SHUT_RDWR);
  server.join();
  ::close(listener);
  std::vector<double> all;
  for (const auto& t : times) all.insert(all.end(), t.begin(), t.end());
  return median(all);
}

void run_service(std::uint64_t seed, double seconds, bool traced, Report& report) {
  server::ServerOptions server_options;
  server_options.pool_workers = 1;
  server_options.max_requests = 2 * kClients;
  server_options.quiet = true;
  server::RouteServer server(server_options);
  if (const util::Status started = server.start(); !started.is_ok()) {
    report.fail("cannot start the server: " + started.to_string());
    return;
  }
  const int port = server.port();

  // Hot set: routed once here, so every later request for it is a hit.
  std::vector<api::FlowRequest> hot_requests;
  std::vector<std::string> hot_rows;
  for (int h = 0; h < kHotJobs; ++h) {
    const std::string label = "hot" + std::to_string(h);
    hot_requests.push_back(
        one_job(label, pool_spec(label, spec_seed(seed, 100 + h))));
    std::string response;
    const Lines lines =
        round_trip(port, api::serialize_request(hot_requests.back()), &response)
            ? split_response(response)
            : Lines{};
    const auto event = api::parse_response_line(lines.row);
    if (!event || event->cache != "miss" || !job_ok(event->outcome)) {
      report.fail("warming hot job " + label + " failed: " + lines.error);
      return;
    }
    hot_rows.push_back(lines.row);
    report.wirelength += event->outcome.result.routing.wirelength;
    report.vias += event->outcome.result.routing.via_count;
    report.redundant_vias += inserted_count(event->outcome.result);
  }

  // Delta base: one more job of the pool's shape, routed in-process.
  const netlist::BenchSpec delta_spec = pool_spec("delta_base", spec_seed(seed, 200));
  const api::FlowRequest delta_base_request = one_job("delta_base", delta_spec);
  api::DispatchOptions keep;
  keep.keep_router = true;
  api::DispatchResult delta_base = api::dispatch(delta_base_request, keep);
  if (!delta_base.status.is_ok() || delta_base.batch.outcomes.size() != 1 ||
      !job_ok(delta_base.batch.outcomes[0])) {
    report.fail("delta base route failed");
    return;
  }
  const engine::JobOutcome& base_outcome = delta_base.batch.outcomes[0];
  const std::string delta_base_text = core::solution_to_text(core::capture_solution(
      delta_spec.name, base_outcome.router->routing_grid(), base_outcome.style,
      base_outcome.router->nets()));
  report.wirelength += base_outcome.result.routing.wirelength;
  report.vias += base_outcome.result.routing.via_count;
  report.redundant_vias += inserted_count(base_outcome.result);
  const netlist::PlacedNetlist delta_netlist = netlist::generate(delta_spec);
  delta_base = {};

  // A seeded list of edits: pin moves of up to 3 cells and small
  // blockages, as on eco_edits.  Delta k of client c carries edit
  // (k * kClients + c) mod kDeltaEdits under a label no earlier request
  // carried; the label is part of the cache key, so no delta is answered
  // from the cache and the supply never runs out.
  std::vector<core::EcoChange> delta_changes;
  {
    const PinMap pin_map(delta_netlist);
    Rng rng{mix(seed, 201)};
    for (int i = 0; i < kDeltaEdits; ++i) {
      delta_changes.push_back(i % 4 == 3 ? random_blockage(delta_netlist, pin_map, rng)
                                         : random_move(delta_netlist, pin_map, rng));
    }
  }
  const auto miss_request = [&](int client, int k) {
    const std::string label = "miss" + std::to_string(client) + "_" + std::to_string(k);
    return one_job(label, pool_spec(label, spec_seed(seed, 1000000 +
                                                           static_cast<std::uint64_t>(k) * kClients +
                                                           static_cast<std::uint64_t>(client))));
  };
  const auto delta_request = [&](int client, int k) {
    api::FlowDeltaRequest request;
    request.base = delta_base_request.jobs[0];
    request.base.label = "delta" + std::to_string(client) + "_" + std::to_string(k);
    request.base_solution = delta_base_text;
    const std::size_t at =
        (static_cast<std::size_t>(k) * kClients + static_cast<std::size_t>(client)) %
        delta_changes.size();
    request.changes = {delta_changes[at]};
    return request;
  };

  // In-process references for the first kVerifiedPerClient misses and
  // deltas of each client's window (indices from 1: the warm-up round takes
  // 0), routed and certified here, as route and eco runs certify their
  // references in set-up.  The wire rows are compared with them afterwards.
  StageSums sums;
  Means means;
  std::vector<double> overhead_ms;
  std::map<std::pair<int, int>, engine::JobOutcome> local_misses;
  std::map<std::pair<int, int>, api::DeltaDispatchResult> local_deltas;
  for (int c = 0; c < kClients; ++c) {
    for (int k = 1; k <= static_cast<int>(kVerifiedPerClient); ++k) {
      const api::FlowRequest request = miss_request(c, k);
      const auto t0 = Clock::now();
      api::DispatchResult local = api::dispatch(request, keep);
      const double wall = seconds_since(t0);
      const std::string what = "miss " + request.jobs[0].label;
      if (!local.status.is_ok() || local.batch.outcomes.size() != 1 ||
          !job_ok(local.batch.outcomes[0]) || !local.batch.outcomes[0].router) {
        report.fail(what + ": the in-process run failed");
        continue;
      }
      engine::JobOutcome& o = local.batch.outcomes[0];
      report.wirelength += o.result.routing.wirelength;
      report.vias += o.result.routing.via_count;
      report.redundant_vias += inserted_count(o.result);
      sums.add(o);
      overhead_ms.push_back((wall - o.metrics.total_seconds) * 1e3);
      const Certificate cert = capture(*o.router, request.jobs[0].spec->name, o.style,
                                       o.router->nets(), o.result, o.dvi_inserted_at, report,
                                       means);
      certify(cert, pins_of(netlist::generate(*request.jobs[0].spec)), o.result, what, report);
      o.router.reset();
      local_misses.emplace(std::make_pair(c, k), std::move(o));
    }
    for (int k = 1; k <= static_cast<int>(kVerifiedPerClient); ++k) {
      const api::FlowDeltaRequest request = delta_request(c, k);
      api::DeltaDispatchOptions delta_options;
      delta_options.keep_router = true;
      api::DeltaDispatchResult local = api::dispatch_delta(request, delta_options);
      const std::string what = "delta " + request.base.label;
      if (!local.status.is_ok() || !job_ok(local.outcome) || !local.outcome.router) {
        report.fail(what + ": the in-process run failed");
        continue;
      }
      means.add("core.eco.load_s", local.summary.load_seconds);
      means.add("core.eco.route_s", local.outcome.metrics.route_seconds);
      means.add("core.eco.dvi_s", local.outcome.metrics.dvi_seconds);
      means.add("core.eco.nets_ripped", local.summary.nets_ripped);
      means.add("core.eco.maze_pops", static_cast<double>(local.outcome.metrics.maze_pops));
      std::vector<core::RoutedNet> subset;
      for (const auto i : local.summary.ripped_ids) {
        subset.push_back(local.outcome.router->nets()[static_cast<std::size_t>(i)]);
      }
      const Certificate cert = capture(*local.outcome.router, delta_spec.name,
                                       local.outcome.style, subset, local.outcome.result,
                                       local.outcome.dvi_inserted_at, report, means);
      certify(cert, edited_view(delta_netlist, request.changes[0]).pins, local.outcome.result,
              what, report);
      local.outcome.router.reset();
      local_deltas.emplace(std::make_pair(c, k), std::move(local));
    }
  }
  report.mark_setup_done();

  struct Client {
    std::vector<Sample> samples;
    std::vector<std::pair<int, std::string>> miss_rows;   // (k, row line)
    std::vector<std::pair<int, Lines>> delta_lines;       // (k, lines)
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> errors;
    double serialize_s = 0, parse_s = 0, request_bytes = 0, response_bytes = 0;
    int api_samples = 0;
  };
  std::vector<Client> clients(kClients);

  // Per-client sequence numbers survive the warm-up round, so every miss
  // and delta of the window is a request the cache has not seen; the
  // window's first kVerifiedPerClient of each are compared with their
  // in-process references.
  std::vector<std::array<int, 3>> counters(kClients, {0, 0, 0});
  Clock::time_point window;
  // Whole rounds until the window has passed; one round when not timed.
  const auto client_loop = [&](int c, bool timed) {
    Client& me = clients[static_cast<std::size_t>(c)];
    auto& [hits, misses, deltas] = counters[static_cast<std::size_t>(c)];
    for (;;) {
      for (const Kind kind : kRound) {
        int index = -1;
        std::string line;
        ++me.attempted;
        const auto s0 = Clock::now();
        if (kind == Kind::kHit) {
          line = api::serialize_request(
              hot_requests[static_cast<std::size_t>((hits++ + c) % kHotJobs)]);
        } else if (kind == Kind::kMiss) {
          index = misses++;
          line = api::serialize_request(miss_request(c, index));
        } else {
          index = deltas++;
          line = api::serialize_delta_request(delta_request(c, index));
        }
        const double serialize_s = seconds_since(s0);
        std::string response;
        const auto t0 = Clock::now();
        bool ok;
        {
          obs::Span span("bench.request", static_cast<std::int64_t>(c) * 1000000 + me.attempted);
          ok = round_trip(port, line, &response);
        }
        const double wall = seconds_since(t0);
        const auto p0 = Clock::now();
        const Lines lines = split_response(response);
        const auto event = api::parse_response_line(lines.row);
        const double parse_s = seconds_since(p0);
        const char* want_cache = kind == Kind::kHit ? "hit" : "miss";
        if (!ok || !event || !job_ok(event->outcome) || event->cache != want_cache ||
            lines.batch.empty() || (kind == Kind::kDelta && lines.delta.empty())) {
          ++me.failed;
          me.errors.push_back("client " + std::to_string(c) + " request " +
                              std::to_string(me.attempted) + " failed: " +
                              (ok ? lines.error : "transport error"));
          continue;
        }
        if (timed) me.samples.push_back({kind, wall, seconds_since(window)});
        me.serialize_s += serialize_s;
        me.parse_s += parse_s;
        me.request_bytes += static_cast<double>(line.size());
        me.response_bytes += static_cast<double>(response.size());
        ++me.api_samples;
        if (kind == Kind::kHit) {
          std::string expected = hot_rows[static_cast<std::size_t>((hits - 1 + c) % kHotJobs)];
          const std::size_t at = expected.find("\"cache\":\"miss\"");
          if (at != std::string::npos) expected.replace(at, 14, "\"cache\":\"hit\"");
          if (lines.row != expected) {
            me.errors.push_back("client " + std::to_string(c) +
                                ": a hit row differs from its miss row beyond the cache tag");
          }
        } else if (timed && kind == Kind::kMiss && me.miss_rows.size() < kVerifiedPerClient) {
          me.miss_rows.emplace_back(index, lines.row);
        } else if (timed && kind == Kind::kDelta &&
                   me.delta_lines.size() < kVerifiedPerClient) {
          me.delta_lines.emplace_back(index, lines);
        }
      }
      if (!timed || (seconds_since(window) >= seconds &&
                     me.delta_lines.size() >= kVerifiedPerClient)) {
        break;
      }
    }
  };

  // Warm-up: one untimed round per client, then the timed window.
  for (int c = 0; c < kClients; ++c) client_loop(c, false);
  // The probe runs just before and just after the window, with the
  // request and reply of a hit.
  const std::string probe_request = api::serialize_request(hot_requests[0]);
  report.kernel_seconds.push_back(loopback_probe(probe_request, hot_rows[0] + "\n", kProbeSeconds));
  for (Client& c : clients) c = Client{};
  window = Clock::now();
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c, true);
    for (std::thread& t : threads) t.join();
  }
  report.window_s = seconds_since(window);
  report.kernel_seconds.push_back(loopback_probe(probe_request, hot_rows[0] + "\n", kProbeSeconds));

  // Whole slices only: the clients' last rounds run past the window.
  const auto num_slices = static_cast<std::size_t>(std::max(1.0, seconds / kSliceSeconds));
  std::vector<std::vector<double>> slices(num_slices);
  std::vector<double> hit, miss, delta;
  for (const Client& c : clients) {
    report.attempted += c.attempted;
    report.failed += c.failed;
    for (const auto& e : c.errors) report.fail(e);
    for (const Sample& s : c.samples) {
      report.op_seconds.push_back(s.seconds);
      const auto slice = static_cast<std::size_t>(s.done_at / kSliceSeconds);
      if (slice < num_slices) slices[slice].push_back(s.seconds);
      (s.kind == Kind::kHit ? hit : s.kind == Kind::kMiss ? miss : delta).push_back(s.seconds);
    }
    const auto add_all = [&](const char* name, double total) {
      auto& [sum, n] = means.sums[name];
      sum += total;
      n += c.api_samples;
    };
    add_all("api.serialize_us", c.serialize_s * 1e6);
    add_all("api.parse_us", c.parse_s * 1e6);
    add_all("api.request_bytes", c.request_bytes);
    add_all("api.response_bytes", c.response_bytes);
  }
  // The fastest slice's median request, scaled by the probe, and the
  // busiest slice's rate.
  report.op_wall_s = INFINITY;
  for (const auto& slice : slices) {
    if (slice.empty()) continue;
    report.op_wall_s = std::min(report.op_wall_s, median(slice));
    report.ops_per_s = std::max(report.ops_per_s, static_cast<double>(slice.size()) / kSliceSeconds);
  }
  const double probe = 0.5 * (report.kernel_seconds[0] + report.kernel_seconds[1]);
  if (std::isinf(report.op_wall_s) || probe <= 0.0) {
    report.fail("no timed request or no loopback probe");
    report.op_wall_s = 0.0;
  }
  report.op_s = probe > 0.0 ? report.op_wall_s * kReferenceProbeSeconds / probe : 0.0;

  // Server-side layers, scraped over the control plane.
  api::StatsReply stats;
  std::string exposition;
  if (!server::query_stats("127.0.0.1", port, &stats).is_ok() ||
      !server::query_metrics("127.0.0.1", port, &exposition).is_ok()) {
    report.fail("cannot scrape the server's stats/metrics");
  }
  server.stop();
  auto& layer = report.layer;
  layer["server.cache_hits"] = static_cast<double>(stats.cache_hits);
  layer["server.cache_misses"] = static_cast<double>(stats.cache_misses);
  layer["server.cache_hit_ratio"] =
      stats.cache_hits + stats.cache_misses > 0
          ? static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.cache_hits + stats.cache_misses)
          : 0.0;
  layer["server.rejections"] = static_cast<double>(stats.rejected);
  layer["server.admission_p50_ms"] =
      histogram_p50_ms(exposition, "sadp_server_request_admission_wait_seconds");
  layer["server.run_p50_ms"] = histogram_p50_ms(exposition, "sadp_server_request_run_seconds");
  layer["server.flush_p50_ms"] = histogram_p50_ms(exposition, "sadp_server_request_flush_seconds");
  layer["client.hit_p50_ms"] = median(hit) * 1e3;
  layer["client.miss_p50_ms"] = median(miss) * 1e3;
  layer["client.delta_p50_ms"] = median(delta) * 1e3;
  layer["client.op_p90_ms"] = percentile(report.op_seconds, 0.9) * 1e3;
  if (stats.rejected != 0) report.fail(std::to_string(stats.rejected) + " requests rejected");

  // Every sampled miss and delta must give the rows of its in-process
  // reference.
  for (int c = 0; c < kClients; ++c) {
    for (const auto& [k, row] : clients[static_cast<std::size_t>(c)].miss_rows) {
      const auto wire = api::parse_response_line(row);
      const auto local = local_misses.find({c, k});
      if (!wire || local == local_misses.end() || !same_result(wire->outcome, local->second)) {
        report.fail("miss " + std::to_string(c) + "_" + std::to_string(k) +
                    ": wire row differs from the in-process run");
      }
    }
    for (const auto& [k, lines] : clients[static_cast<std::size_t>(c)].delta_lines) {
      const auto wire = api::parse_response_line(lines.row);
      const auto wire_delta = api::parse_response_line(lines.delta);
      const auto local = local_deltas.find({c, k});
      if (!wire || !wire_delta || local == local_deltas.end() ||
          !same_result(wire->outcome, local->second.outcome) ||
          !std::equal(wire_delta->ripped_ids.begin(), wire_delta->ripped_ids.end(),
                      local->second.summary.ripped_ids.begin(),
                      local->second.summary.ripped_ids.end()) ||
          wire_delta->base_fingerprint != local->second.summary.base_fingerprint) {
        report.fail("delta " + std::to_string(c) + "_" + std::to_string(k) +
                    ": wire rows differ from the in-process run");
      }
    }
  }
  sums.publish(layer);
  means.publish(layer);
  layer["engine.overhead_ms"] = median(overhead_ms);
  if (traced) {
    const auto p0 = Clock::now();
    if (core::parse_solution(delta_base_text).has_value()) {
      layer["core.solution_io.parse_s"] = seconds_since(p0);
    }
  }
}

// ---------------------------------------------------------------------------
// Trace summary: count, busy and self time per span name.

void summarize_trace(const std::string& json) {
  const auto doc = util::parse_json(json);
  const util::JsonValue* events = doc ? doc->find("traceEvents") : nullptr;
  if (events == nullptr || !events->is_array()) return;
  struct Ev {
    std::string name;
    double ts, dur;
  };
  std::map<double, std::vector<Ev>> by_thread;
  for (const auto& e : events->array) {
    const auto* ph = e.find("ph");
    const auto* name = e.find("name");
    const auto* tid = e.find("tid");
    const auto* ts = e.find("ts");
    const auto* dur = e.find("dur");
    if (!ph || ph->string_value != "X" || !name || !tid || !ts || !dur) continue;
    // Per-job span names ("job:<label>") fold into one row.
    std::string key = name->string_value;
    if (const std::size_t colon = key.find(':'); colon != std::string::npos) {
      key = key.substr(0, colon) + ":*";
    }
    by_thread[tid->number_value].push_back({key, ts->number_value, dur->number_value});
  }
  struct Row {
    long long count = 0;
    double busy = 0, self = 0;
  };
  std::map<std::string, Row> rows;
  for (auto& [tid, evs] : by_thread) {
    std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.ts != b.ts ? a.ts < b.ts : a.dur > b.dur;
    });
    // Stack of open spans: a span's self time is its duration less its
    // direct children's.
    std::vector<std::pair<const Ev*, double>> stack;  // (span, child time)
    const auto close_until = [&](double t) {
      while (!stack.empty() && stack.back().first->ts + stack.back().first->dur <= t) {
        const auto [ev, child] = stack.back();
        stack.pop_back();
        Row& row = rows[ev->name];
        ++row.count;
        row.busy += ev->dur;
        row.self += ev->dur - child;
        if (!stack.empty()) stack.back().second += ev->dur;
      }
    };
    for (const Ev& ev : evs) {
      close_until(ev.ts);
      stack.emplace_back(&ev, 0.0);
    }
    close_until(INFINITY);
  }
  std::fprintf(stderr, "%-32s %10s %12s %12s\n", "span", "count", "busy_s", "self_s");
  for (const auto& [name, row] : rows) {
    std::fprintf(stderr, "%-32s %10lld %12.4f %12.4f\n", name.c_str(), row.count,
                 row.busy / 1e6, row.self / 1e6);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;
  bool scan = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (flag == "--seconds") seconds = std::strtod(value.c_str(), nullptr);
    else if (flag == "--trace") traced = value == "1";
    else if (flag == "--trace-out") trace_out = value;
    else if (flag == "--scan-pool") scan = value == "1";
    else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  if (scan && (workload == "route_serial" || workload == "route_partitioned")) {
    return scan_pool(workload == "route_partitioned");
  }
  obs::TraceSession session;
  if (traced) session.install();
  Report report;
  if (workload == "route_serial") run_route(false, seed, seconds, traced, report);
  else if (workload == "route_partitioned") run_route(true, seed, seconds, traced, report);
  else if (workload == "eco_edits") run_eco(seed, seconds, traced, report);
  else if (workload == "service_mix") run_service(seed, seconds, traced, report);
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  report.layer["mem.rss_after_setup_mb"] = report.rss_after_setup_mb;
  report.layer["mem.rss_growth_mb"] =
      proc_status_mb("VmHWM") - report.own_mb - report.rss_after_setup_mb;
  report.layer["bench.op_wall_ms"] = report.op_wall_s * 1e3;
  report.layer["bench.kernel_ms"] = median(report.kernel_seconds) * 1e3;
  if (report.attempted == 0) report.fail("no operation was attempted");
  std::vector<double> sorted = report.op_seconds;
  std::sort(sorted.begin(), sorted.end());
  std::fprintf(stderr,
               "%s: %lld ops attempted, %lld failed, %zu timed (min %.4fs, median %.4fs, "
               "max %.4fs), window %.2fs, setup %.3fs; op %.6fs scaled, %.6fs wall; "
               "kernel median %.3fms\n",
               workload.c_str(), report.attempted, report.failed, sorted.size(),
               sorted.empty() ? 0.0 : sorted.front(), median(sorted),
               sorted.empty() ? 0.0 : sorted.back(), report.window_s, report.setup_s,
               report.op_s, report.op_wall_s, median(report.kernel_seconds) * 1e3);
  if (traced) {
    session.uninstall();
    const std::string json = session.to_json();
    summarize_trace(json);
    if (!trace_out.empty()) {
      std::ofstream(trace_out) << json;
    }
  }
  print_result(report, traced);
  return report.correct ? 0 : 1;
}
