// Tests of the independent solution checker: a hand-built valid solution
// passes, and each kind of broken solution is rejected for its own reason.
//
//   checker_test        exit status 0 when every case holds
#include <cstdio>
#include <string>
#include <vector>

#include "checker.hpp"

namespace {

using sadpbench::Fault;

int g_failures = 0;

void expect(bool condition, const char* what) {
  std::printf("%s %s\n", condition ? "ok  " : "FAIL", what);
  if (!condition) ++g_failures;
}

// Net 0: pins (1,1) and (4,1), joined by a 3-unit M2 wire.
// Net 1: pins (1,5) and (1,8), joined through M2 pads, two V2 vias and a
// 3-unit M3 wire.  Arm bits: E=1, W=2, N=4, S=8.
const char* const kNet0 =
    "net 0\n"
    "m 1 1 1 0\nm 1 4 1 0\n"
    "m 2 1 1 1\nm 2 2 1 3\nm 2 3 1 3\nm 2 4 1 2\n"
    "v 1 1 1 1\nv 1 4 1 1\n";
const char* const kNet1 =
    "net 1\n"
    "m 1 1 5 0\nm 1 1 8 0\nm 2 1 5 0\nm 2 1 8 0\n"
    "m 3 1 5 4\nm 3 1 6 12\nm 3 1 7 12\nm 3 1 8 8\n"
    "v 1 1 5 1\nv 1 1 8 1\nv 2 1 5 0\nv 2 1 8 0\n";

const std::vector<std::vector<sadpbench::Pt>> kPins = {{{1, 1}, {4, 1}},
                                                       {{1, 5}, {1, 8}}};

std::string solution(const std::string& net0, const std::string& net1,
                     const std::string& extra = {}) {
  return "solution t 16 16 3 SIM\n" + net0 + net1 + extra;
}

std::string replace(std::string text, const std::string& from,
                    const std::string& to) {
  const std::size_t at = text.find(from);
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

sadpbench::CheckReport check(const std::string& text,
                             const std::vector<std::vector<sadpbench::Pt>>& pins,
                             const std::vector<sadpbench::RedundantVia>& rvs = {},
                             sadpbench::Totals totals = {6, 6}) {
  std::string error;
  const auto parsed = sadpbench::parse_solution_text(text, &error);
  if (!parsed) {
    std::printf("parse error: %s\n", error.c_str());
    sadpbench::CheckReport report;
    report.faults.emplace_back(Fault::kMalformed, error);
    return report;
  }
  return sadpbench::check_solution(*parsed, pins, rvs, &totals);
}

std::vector<std::vector<int>> wheel(int rim) {
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(rim + 1));
  for (int i = 0; i < rim; ++i) {
    const int next = (i + 1) % rim;
    adj[static_cast<std::size_t>(i)].push_back(next);
    adj[static_cast<std::size_t>(next)].push_back(i);
    adj[static_cast<std::size_t>(i)].push_back(rim);
    adj[static_cast<std::size_t>(rim)].push_back(i);
  }
  return adj;
}

}  // namespace

int main() {
  const std::string valid = solution(kNet0, kNet1);
  {
    const auto report = check(valid, kPins);
    expect(report.ok() && report.wirelength == 6 && report.vias == 6,
           "valid solution passes with WL 6 and 6 vias");
  }
  {
    // Drop M2 (3,1) and the arms that pointed at it: pin (4,1) is cut off.
    std::string net0 = replace(kNet0, "m 2 3 1 3\n", "");
    net0 = replace(net0, "m 2 2 1 3\n", "m 2 2 1 2\n");
    net0 = replace(net0, "m 2 4 1 2\n", "m 2 4 1 0\n");
    const auto report = check(solution(net0, kNet1), kPins, {}, {4, 6});
    expect(report.has(Fault::kDisconnected) && !report.has(Fault::kDanglingArm) &&
               !report.has(Fault::kTotals),
           "a removed point that cuts a pin off is rejected as disconnected");
  }
  {
    const auto report = check(solution(replace(kNet0, "m 2 3 1 3\n", ""), kNet1), kPins);
    expect(report.has(Fault::kDanglingArm) && report.has(Fault::kDisconnected),
           "a removed point that leaves arms pointing at it is rejected");
  }
  {
    const auto report = check(solution(kNet0, kNet1 + std::string("m 2 3 1 0\n")), kPins);
    expect(report.has(Fault::kSharedCell), "a metal cell held by two nets is rejected");
  }
  {
    const auto report =
        check(solution(kNet0, kNet1 + std::string("v 1 4 1 0\nm 2 4 1 0\n")), kPins,
              {}, {6, 7});
    expect(report.has(Fault::kSharedCell), "a via site held by two nets is rejected");
  }
  {
    const auto report = check(valid, kPins, {}, {7, 6});
    expect(report.has(Fault::kTotals) && report.faults.size() == 1,
           "a reported wirelength that differs from the geometry is rejected");
    const auto vias = check(valid, kPins, {}, {6, 5});
    expect(vias.has(Fault::kTotals), "a reported via count that differs is rejected");
  }
  {
    // Net 2: pins (10,10) and (11,11), plus four V2 vias on a 2x2 block —
    // mutually within the same-mask pitch, so the cluster needs 4 masks.
    const std::string net2 =
        "net 2\n"
        "m 1 10 10 0\nm 1 11 11 0\nv 1 10 10 1\nv 1 11 11 1\n"
        "m 2 10 10 1\nm 2 11 10 6\nm 2 11 11 8\nm 2 10 11 0\n"
        "v 2 10 10 0\nv 2 11 10 0\nv 2 10 11 0\nv 2 11 11 0\n"
        "m 3 10 10 0\nm 3 11 10 0\nm 3 10 11 0\nm 3 11 11 0\n";
    auto pins = kPins;
    pins.push_back({{10, 10}, {11, 11}});
    const auto report = check(solution(kNet0, kNet1, net2), pins, {}, {8, 12});
    expect(report.has(Fault::kNotColorable) && report.faults.size() == 1,
           "a via cluster that is not 3-colourable is rejected");
    const std::string three = replace(replace(net2, "v 2 11 11 0\n", ""),
                                      "v 2 10 11 0\n", "");
    const auto fine = check(solution(kNet0, kNet1, three), pins, {}, {8, 10});
    expect(fine.ok(), "the same cluster less two vias passes");
  }
  {
    expect(sadpbench::three_colorable(wheel(6)) == true,
           "even wheel (hub + 6-cycle) is 3-colourable");
    expect(sadpbench::three_colorable(wheel(5)) == false,
           "odd wheel (hub + 5-cycle) is not 3-colourable");
  }
  {
    const std::vector<sadpbench::RedundantVia> legal = {{0, 1, {1, 1}, {1, 2}},
                                                        {1, 2, {1, 8}, {2, 8}}};
    expect(check(valid, kPins, legal).ok(), "legal redundant vias pass");
    const std::vector<sadpbench::RedundantVia> far = {{0, 1, {1, 1}, {1, 3}}};
    expect(check(valid, kPins, far).has(Fault::kRedundantVia),
           "a redundant via two cells from its via is rejected");
    const std::vector<sadpbench::RedundantVia> orphan = {{1, 1, {1, 1}, {1, 2}}};
    expect(check(valid, kPins, orphan).has(Fault::kRedundantVia),
           "a redundant via beside another net's via is rejected");
    const std::vector<sadpbench::RedundantVia> taken = {{1, 1, {1, 5}, {1, 4}}};
    const auto report = check(solution(kNet0 + std::string("m 2 1 4 0\n"), kNet1),
                              kPins, taken);
    expect(report.has(Fault::kRedundantVia),
           "a redundant via on metal another net holds is rejected");
  }
  {
    std::string error;
    expect(!sadpbench::parse_solution_text(valid + "m 2 99 1 0\n", &error),
           "an out-of-bounds point is a parse error");
  }
  std::printf("%s\n", g_failures == 0 ? "all checker tests passed"
                                       : "checker tests FAILED");
  return g_failures == 0 ? 0 : 1;
}
