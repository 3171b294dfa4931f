// Independent certificate for one routed solution.
//
// The checker reads the canonical solution text (`solution` / `net` / `m` /
// `v` lines) and the list of redundant vias the DVI stage inserted, and
// re-derives every guarantee with its own code.  It shares no routine with
// the router: it has its own parser, its own union-find connectivity, its
// own wirelength/via recount and an exact (backtracking) 3-colouring of each
// via layer's conflict graph, in place of the router's Welsh-Powell pass.
//
// Conventions of the solution format it relies on:
//   * metal layer 1 carries the pins; via layer v joins metal v and v+1;
//   * a metal point's arm mask has bit 0 = east (+x), 1 = west (-x),
//     2 = north (+y), 3 = south (-y); a segment sets the facing arm on both
//     of its endpoints, so wirelength = total arm bits / 2;
//   * two vias of one via layer conflict (cannot share a TPL mask) when
//     0 < dx^2 + dy^2 < 8.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sadpbench {

struct Pt {
  int x = 0;
  int y = 0;
  friend bool operator==(Pt, Pt) = default;
};

struct MetalPoint {
  int layer = 0;
  Pt at;
  unsigned arms = 0;
};

struct ViaPoint {
  int via_layer = 0;
  Pt at;
};

struct SolutionNet {
  int id = -1;
  std::vector<MetalPoint> metal;
  std::vector<ViaPoint> vias;
};

struct Solution {
  std::string name;
  int width = 0;
  int height = 0;
  int num_metal_layers = 0;
  std::vector<SolutionNet> nets;
};

/// Parse the canonical solution text; nullopt + `error` on malformed input.
[[nodiscard]] std::optional<Solution> parse_solution_text(
    const std::string& text, std::string* error);

/// A redundant via placed by DVI next to via (`via_layer`, `via`) of `net`.
struct RedundantVia {
  int net = -1;
  int via_layer = 0;
  Pt via;
  Pt at;
};

enum class Fault {
  kMalformed,     ///< out-of-bounds point, bad layer, unknown net id
  kSharedCell,    ///< a metal point or via site held by two nets
  kDanglingArm,   ///< an arm with no facing arm on the neighbouring point
  kViaLanding,    ///< a via without metal on both layers it joins
  kDisconnected,  ///< a pin missing or not in the component of the others
  kTotals,        ///< recomputed wirelength/vias differ from the report
  kNotColorable,  ///< a via layer's conflict graph needs a 4th mask
  kRedundantVia,  ///< an inserted redundant via that is not legal
};

[[nodiscard]] const char* fault_name(Fault fault) noexcept;

struct CheckReport {
  std::vector<std::pair<Fault, std::string>> faults;  ///< first few per kind
  long long wirelength = 0;
  long long vias = 0;
  [[nodiscard]] bool ok() const noexcept { return faults.empty(); }
  [[nodiscard]] bool has(Fault fault) const noexcept;
  [[nodiscard]] std::string summary() const;
};

struct Totals {
  long long wirelength = 0;
  long long vias = 0;
};

/// Check `solution`.  `pins[i]` are the metal-1 pin cells of the net with id
/// i; `expected` (when non-null) holds the totals the router reported.
[[nodiscard]] CheckReport check_solution(
    const Solution& solution, const std::vector<std::vector<Pt>>& pins,
    const std::vector<RedundantVia>& redundant, const Totals* expected);

/// Exact 3-colourability of a graph given as adjacency lists, by
/// backtracking in DSATUR order.  Returns nullopt when the search exceeds
/// `step_budget` assignments.
[[nodiscard]] std::optional<bool> three_colorable(
    const std::vector<std::vector<int>>& adjacency,
    std::uint64_t step_budget = 50'000'000);

}  // namespace sadpbench
