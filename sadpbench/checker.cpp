#include "checker.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <numeric>
#include <string_view>
#include <unordered_map>

namespace sadpbench {
namespace {

constexpr std::size_t kFaultsPerKind = 4;

/// Whitespace tokenizer over one line.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : rest_(line) {}
  bool next(std::string_view* token) {
    const std::size_t start = rest_.find_first_not_of(" \t\r");
    if (start == std::string_view::npos) return false;
    rest_.remove_prefix(start);
    const std::size_t end = rest_.find_first_of(" \t\r");
    *token = rest_.substr(0, end);
    rest_.remove_prefix(end == std::string_view::npos ? rest_.size() : end);
    return true;
  }
  bool next_int(long* value) {
    std::string_view token;
    if (!next(&token)) return false;
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, *value);
    return error == std::errc() && stop == end;
  }
  bool done() {
    std::string_view token;
    return !next(&token);
  }

 private:
  std::string_view rest_;
};

/// Cell key over (layer, x, y); layers and coordinates fit in 16/24 bits.
std::uint64_t key(int layer, Pt p) {
  return (static_cast<std::uint64_t>(layer) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.x)) << 24) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.y));
}

constexpr Pt kArmStep[4] = {{1, 0}, {-1, 0}, {0, 1}, {0, -1}};
constexpr unsigned kOppositeArm[4] = {1, 0, 3, 2};

struct UnionFind {
  std::vector<int> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    std::iota(parent.begin(), parent.end(), 0);
  }
  int find(int v) {
    while (parent[static_cast<std::size_t>(v)] != v) {
      const int up = parent[static_cast<std::size_t>(v)];
      parent[static_cast<std::size_t>(v)] = parent[static_cast<std::size_t>(up)];
      v = up;
    }
    return v;
  }
  void unite(int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); }
};

class Reporter {
 public:
  explicit Reporter(CheckReport* report) : report_(report) {}
  void add(Fault fault, std::string message) {
    std::size_t& seen = counts_[static_cast<int>(fault)];
    if (seen++ < kFaultsPerKind) {
      report_->faults.emplace_back(fault, std::move(message));
    }
  }

 private:
  CheckReport* report_;
  std::unordered_map<int, std::size_t> counts_;
};

std::string cell(int layer, Pt p) {
  return "(" + std::to_string(layer) + "," + std::to_string(p.x) + "," +
         std::to_string(p.y) + ")";
}

/// Backtracking state for three_colorable.
struct Colorer {
  const std::vector<std::vector<int>>& adj;
  std::vector<int> color;
  std::uint64_t steps = 0;
  std::uint64_t budget = 0;
  bool exhausted = false;

  int pick() const {
    int best = -1;
    int best_sat = -1;
    int best_deg = -1;
    for (std::size_t v = 0; v < adj.size(); ++v) {
      if (color[v] >= 0) continue;
      unsigned used = 0;
      for (const int u : adj[v]) {
        if (color[static_cast<std::size_t>(u)] >= 0) {
          used |= 1u << color[static_cast<std::size_t>(u)];
        }
      }
      const int sat = std::popcount(used);
      const int deg = static_cast<int>(adj[v].size());
      if (sat > best_sat || (sat == best_sat && deg > best_deg)) {
        best = static_cast<int>(v);
        best_sat = sat;
        best_deg = deg;
      }
    }
    return best;
  }

  bool solve() {
    const int v = pick();
    if (v < 0) return true;
    unsigned used = 0;
    for (const int u : adj[static_cast<std::size_t>(v)]) {
      if (color[static_cast<std::size_t>(u)] >= 0) {
        used |= 1u << color[static_cast<std::size_t>(u)];
      }
    }
    for (int c = 0; c < 3; ++c) {
      if (used & (1u << c)) continue;
      if (++steps > budget) {
        exhausted = true;
        return false;
      }
      color[static_cast<std::size_t>(v)] = c;
      if (solve()) return true;
      if (exhausted) return false;
    }
    color[static_cast<std::size_t>(v)] = -1;
    return false;
  }
};

}  // namespace

const char* fault_name(Fault fault) noexcept {
  switch (fault) {
    case Fault::kMalformed: return "malformed";
    case Fault::kSharedCell: return "shared_cell";
    case Fault::kDanglingArm: return "dangling_arm";
    case Fault::kViaLanding: return "via_landing";
    case Fault::kDisconnected: return "disconnected";
    case Fault::kTotals: return "totals";
    case Fault::kNotColorable: return "not_3_colorable";
    case Fault::kRedundantVia: return "redundant_via";
  }
  return "?";
}

bool CheckReport::has(Fault fault) const noexcept {
  return std::any_of(faults.begin(), faults.end(),
                     [fault](const auto& f) { return f.first == fault; });
}

std::string CheckReport::summary() const {
  std::string out;
  for (const auto& [fault, message] : faults) {
    if (!out.empty()) out += "; ";
    out += std::string(fault_name(fault)) + ": " + message;
  }
  return out;
}

std::optional<Solution> parse_solution_text(const std::string& text,
                                            std::string* error) {
  Solution solution;
  bool have_header = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = "line " + std::to_string(line_no) + ": " + what;
    return std::nullopt;
  };
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    std::string_view line(text.data() + pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (const std::size_t hash = line.find('#'); hash != std::string_view::npos) {
      line = line.substr(0, hash);
    }
    Tokens tokens(line);
    std::string_view tag;
    if (!tokens.next(&tag)) continue;
    long a = 0;
    long b = 0;
    long c = 0;
    long d = 0;
    if (tag == "solution") {
      std::string_view name;
      std::string_view style;
      if (have_header || !tokens.next(&name) || !tokens.next_int(&a) ||
          !tokens.next_int(&b) || !tokens.next_int(&c) || !tokens.next(&style) ||
          !tokens.done() || a <= 0 || b <= 0 || c < 2 || a > (1 << 20) ||
          b > (1 << 20) || c > 16) {
        return fail("bad solution header");
      }
      solution.name = std::string(name);
      solution.width = static_cast<int>(a);
      solution.height = static_cast<int>(b);
      solution.num_metal_layers = static_cast<int>(c);
      have_header = true;
    } else if (!have_header) {
      return fail("record before the solution header");
    } else if (tag == "net") {
      if (!tokens.next_int(&a) || !tokens.done() || a < 0 || a > (1 << 24)) {
        return fail("bad net record");
      }
      solution.nets.push_back(SolutionNet{static_cast<int>(a), {}, {}});
    } else if (tag == "m" || tag == "v") {
      if (solution.nets.empty()) return fail("geometry before any net");
      if (!tokens.next_int(&a) || !tokens.next_int(&b) || !tokens.next_int(&c) ||
          !tokens.next_int(&d) || !tokens.done()) {
        return fail("bad geometry record");
      }
      const Pt at{static_cast<int>(b), static_cast<int>(c)};
      if (at.x < 0 || at.y < 0 || at.x >= solution.width ||
          at.y >= solution.height) {
        return fail("point out of bounds");
      }
      if (tag == "m") {
        if (a < 1 || a > solution.num_metal_layers || d < 0 || d > 15) {
          return fail("bad metal layer or arm mask");
        }
        solution.nets.back().metal.push_back(
            MetalPoint{static_cast<int>(a), at, static_cast<unsigned>(d)});
      } else {
        if (a < 1 || a >= solution.num_metal_layers || (d != 0 && d != 1)) {
          return fail("bad via layer or pin flag");
        }
        solution.nets.back().vias.push_back(ViaPoint{static_cast<int>(a), at});
      }
    } else {
      return fail("unknown record '" + std::string(tag) + "'");
    }
  }
  if (!have_header) return fail("missing solution header");
  return solution;
}

std::optional<bool> three_colorable(const std::vector<std::vector<int>>& adjacency,
                                    std::uint64_t step_budget) {
  Colorer colorer{adjacency, std::vector<int>(adjacency.size(), -1), 0,
                  step_budget, false};
  const bool found = colorer.solve();
  if (colorer.exhausted) return std::nullopt;
  return found;
}

CheckReport check_solution(const Solution& solution,
                           const std::vector<std::vector<Pt>>& pins,
                           const std::vector<RedundantVia>& redundant,
                           const Totals* expected) {
  CheckReport report;
  Reporter faults(&report);

  // Ownership: metal cells and via sites, each held by at most one net.
  std::unordered_map<std::uint64_t, int> metal_owner;
  std::unordered_map<std::uint64_t, int> via_owner;
  std::unordered_map<int, const SolutionNet*> by_id;
  for (const SolutionNet& net : solution.nets) {
    if (!by_id.emplace(net.id, &net).second) {
      faults.add(Fault::kMalformed, "net " + std::to_string(net.id) + " listed twice");
    }
    for (const MetalPoint& m : net.metal) {
      const auto [it, fresh] = metal_owner.emplace(key(m.layer, m.at), net.id);
      if (!fresh && it->second != net.id) {
        faults.add(Fault::kSharedCell, "metal " + cell(m.layer, m.at) +
                                           " held by nets " + std::to_string(it->second) +
                                           " and " + std::to_string(net.id));
      }
    }
    for (const ViaPoint& v : net.vias) {
      const auto [it, fresh] = via_owner.emplace(key(v.via_layer, v.at), net.id);
      if (!fresh && it->second != net.id) {
        faults.add(Fault::kSharedCell, "via " + cell(v.via_layer, v.at) +
                                           " held by nets " + std::to_string(it->second) +
                                           " and " + std::to_string(net.id));
      }
    }
  }
  if (pins.size() != solution.nets.size()) {
    faults.add(Fault::kMalformed, std::to_string(solution.nets.size()) +
                                      " nets in the solution, " +
                                      std::to_string(pins.size()) + " in the netlist");
  }

  // Per net: arm consistency, via landings, pin connectivity, recount.
  for (const SolutionNet& net : solution.nets) {
    std::unordered_map<std::uint64_t, int> index;
    std::vector<unsigned> arms;
    for (const MetalPoint& m : net.metal) {
      const auto [it, fresh] =
          index.emplace(key(m.layer, m.at), static_cast<int>(arms.size()));
      if (fresh) {
        arms.push_back(m.arms);
      } else {
        arms[static_cast<std::size_t>(it->second)] |= m.arms;
      }
    }
    UnionFind components(arms.size());
    long long arm_bits = 0;
    for (const MetalPoint& m : net.metal) {
      const int self = index.at(key(m.layer, m.at));
      for (unsigned d = 0; d < 4; ++d) {
        if ((m.arms & (1u << d)) == 0) continue;
        const Pt next{m.at.x + kArmStep[d].x, m.at.y + kArmStep[d].y};
        const auto it = index.find(key(m.layer, next));
        if (it == index.end() ||
            (arms[static_cast<std::size_t>(it->second)] & (1u << kOppositeArm[d])) == 0) {
          faults.add(Fault::kDanglingArm, "net " + std::to_string(net.id) + " at " +
                                              cell(m.layer, m.at));
          continue;
        }
        components.unite(self, it->second);
      }
    }
    for (const auto& [k, slot] : index) {
      arm_bits += std::popcount(arms[static_cast<std::size_t>(slot)]);
    }
    report.wirelength += arm_bits / 2;
    report.vias += static_cast<long long>(net.vias.size());
    for (const ViaPoint& v : net.vias) {
      const auto lo = index.find(key(v.via_layer, v.at));
      const auto hi = index.find(key(v.via_layer + 1, v.at));
      if (lo == index.end() || hi == index.end()) {
        faults.add(Fault::kViaLanding, "net " + std::to_string(net.id) + " via " +
                                           cell(v.via_layer, v.at));
        continue;
      }
      components.unite(lo->second, hi->second);
    }
    if (net.id < 0 || static_cast<std::size_t>(net.id) >= pins.size()) {
      faults.add(Fault::kMalformed, "net " + std::to_string(net.id) + " not in the netlist");
      continue;
    }
    int root = -1;
    for (const Pt pin : pins[static_cast<std::size_t>(net.id)]) {
      const auto it = index.find(key(1, pin));
      const int here = it == index.end() ? -1 : components.find(it->second);
      if (here < 0 || (root >= 0 && here != root)) {
        faults.add(Fault::kDisconnected, "net " + std::to_string(net.id) + " pin " +
                                             cell(1, pin));
        continue;
      }
      root = here;
    }
  }
  if (expected != nullptr && (expected->wirelength != report.wirelength ||
                              expected->vias != report.vias)) {
    faults.add(Fault::kTotals,
               "recounted WL " + std::to_string(report.wirelength) + " vias " +
                   std::to_string(report.vias) + ", reported WL " +
                   std::to_string(expected->wirelength) + " vias " +
                   std::to_string(expected->vias));
  }

  // Redundant vias: a 4-neighbour of a via of the same net, on a site no
  // via occupies and on metal cells no other net holds.
  std::unordered_map<std::uint64_t, int> site_owner;
  for (const RedundantVia& rv : redundant) {
    const std::string where = "net " + std::to_string(rv.net) + " at " +
                              cell(rv.via_layer, rv.at);
    const auto owner = via_owner.find(key(rv.via_layer, rv.via));
    if (owner == via_owner.end() || owner->second != rv.net) {
      faults.add(Fault::kRedundantVia, where + ": no via of the net beside it");
      continue;
    }
    if (std::abs(rv.at.x - rv.via.x) + std::abs(rv.at.y - rv.via.y) != 1 ||
        rv.at.x < 0 || rv.at.y < 0 || rv.at.x >= solution.width ||
        rv.at.y >= solution.height) {
      faults.add(Fault::kRedundantVia, where + ": not a neighbour of its via");
      continue;
    }
    if (via_owner.contains(key(rv.via_layer, rv.at)) ||
        !site_owner.emplace(key(rv.via_layer, rv.at), rv.net).second) {
      faults.add(Fault::kRedundantVia, where + ": via site already taken");
      continue;
    }
    for (const int layer : {rv.via_layer, rv.via_layer + 1}) {
      const auto it = metal_owner.find(key(layer, rv.at));
      if (it != metal_owner.end() && it->second != rv.net) {
        faults.add(Fault::kRedundantVia,
                   where + ": metal " + cell(layer, rv.at) + " held by net " +
                       std::to_string(it->second));
      }
    }
  }

  // TPL: every via layer's conflict graph, original plus redundant vias,
  // coloured exactly per connected component.
  std::unordered_map<int, std::vector<Pt>> by_layer;
  for (const SolutionNet& net : solution.nets) {
    for (const ViaPoint& v : net.vias) by_layer[v.via_layer].push_back(v.at);
  }
  for (const RedundantVia& rv : redundant) by_layer[rv.via_layer].push_back(rv.at);
  for (auto& [layer, points] : by_layer) {
    std::unordered_map<std::uint64_t, int> at;
    for (std::size_t i = 0; i < points.size(); ++i) {
      at.emplace(key(0, points[i]), static_cast<int>(i));
    }
    std::vector<std::vector<int>> adj(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (int dx = -2; dx <= 2; ++dx) {
        for (int dy = -2; dy <= 2; ++dy) {
          const int d2 = dx * dx + dy * dy;
          if (d2 == 0 || d2 >= 8) continue;
          const auto it = at.find(key(0, {points[i].x + dx, points[i].y + dy}));
          if (it != at.end() && it->second != static_cast<int>(i)) {
            adj[i].push_back(it->second);
          }
        }
      }
    }
    std::vector<int> component_of(points.size(), -1);
    for (std::size_t seed = 0; seed < points.size(); ++seed) {
      if (component_of[seed] >= 0 || adj[seed].empty()) continue;
      std::vector<int> members{static_cast<int>(seed)};
      component_of[seed] = static_cast<int>(seed);
      for (std::size_t head = 0; head < members.size(); ++head) {
        for (const int u : adj[static_cast<std::size_t>(members[head])]) {
          if (component_of[static_cast<std::size_t>(u)] < 0) {
            component_of[static_cast<std::size_t>(u)] = static_cast<int>(seed);
            members.push_back(u);
          }
        }
      }
      std::unordered_map<int, int> local;
      for (std::size_t i = 0; i < members.size(); ++i) {
        local.emplace(members[i], static_cast<int>(i));
      }
      std::vector<std::vector<int>> sub(members.size());
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (const int u : adj[static_cast<std::size_t>(members[i])]) {
          sub[i].push_back(local.at(u));
        }
      }
      const std::optional<bool> colorable = three_colorable(sub);
      if (colorable != true) {
        const Pt p = points[seed];
        faults.add(Fault::kNotColorable,
                   "via layer " + std::to_string(layer) + " cluster of " +
                       std::to_string(members.size()) + " at (" + std::to_string(p.x) +
                       "," + std::to_string(p.y) + ")" +
                       (colorable ? "" : " (search budget exhausted)"));
      }
    }
  }
  return report;
}

}  // namespace sadpbench
