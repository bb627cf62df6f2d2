// xmpsim — command-line front end to the library.
//
//   xmpsim <run|replay|verify|fluid|sweep|topo> [--flag=value ...]
//   xmpsim <command> --help     the flags a command takes, with defaults
//
// Every flag is one row of kFlags: its kind, default, range, the commands
// that take it and a help line. parse() walks the arguments once, and
// kRules lists the feature combinations the engines do not support. Both
// reject with one line on stderr and exit 2, as does every malformed or
// out-of-range value: never an assert, never a silently different run.
// DESIGN.md §16 describes the table, the rules and the sweep executor.

#include <csignal>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/export.hpp"
#include "core/job_manifest.hpp"
#include "core/orchestrator.hpp"
#include "core/xmp.hpp"
#include "model/fluid.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "trace/writers.hpp"

namespace {

using namespace xmp;

/// Flipped by the SIGTERM handler; polled by the engine at quiescent
/// points. Installed only when checkpointing is configured, so plain runs
/// keep the default (terminating) disposition.
std::atomic<bool> g_stop{false};

extern "C" void on_sigterm(int) { g_stop.store(true); }

/// Prints "xmpsim: <message>" as one line on stderr; returns false.
[[gnu::format(printf, 1, 2)]] bool fail(const char* fmt, ...) {
  std::fputs("xmpsim: ", stderr);
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stderr, fmt, ap);
  va_end(ap);
  std::fputc('\n', stderr);
  return false;
}

// --- the flag table --------------------------------------------------------

/// Commands, one bit each, so that a row names the set that takes it.
enum : unsigned { kRun = 1, kReplay = 2, kVerify = 4, kFluid = 8, kSweep = 16, kTopo = 32 };
/// Row bit: verify sets this flag on its legs itself and rejects it by name.
constexpr unsigned kOwned = 64;
/// What config_from reads: every command that builds a run.
constexpr unsigned kScenario = kRun | kReplay | kVerify | kSweep;
/// Per-run choices that verify makes for each leg.
constexpr unsigned kPerLeg = kRun | kReplay | kSweep | kOwned;
/// Run-only outputs and inputs that verify also makes for each leg.
constexpr unsigned kRunOnly = kRun | kReplay | kOwned;

/// In bit order: command_name() indexes it by bit position.
constexpr struct {
  const char* name;
  unsigned bit;
  const char* summary;
} kCommands[] = {
    {"run", kRun, "run one Fat-Tree evaluation and print the paper's summary metrics"},
    {"replay", kReplay, "run a snapshot to the end under extra observability, writing none"},
    {"verify", kVerify, "run a scenario sharded, checkpointed and killed+restored; byte-compare"},
    {"fluid", kFluid, "closed-form BOS equilibrium on a single bottleneck (paper §2.1)"},
    {"sweep", kSweep, "run a grid of runs crash-isolated and tabulate goodput (and FCT)"},
    {"topo", kTopo, "print Fat-Tree dimensions and the delay budget"},
};

enum class Kind : std::uint8_t { Int, Double, List, Enum, String, Bool };

/// One flag. `def` is the value an absent flag takes, spelt as on the
/// command line ("" = none); [lo, hi] bounds an Int or Double. `meta` names
/// the value in --help; for an Enum it lists the choices "a|b|c", and so it
/// does for the entries of a List, whose entries are numbers when it is null.
struct Flag {
  const char* name;
  Kind kind;
  unsigned cmds;
  const char* def;
  double lo;
  double hi;
  const char* meta;
  const char* help;
  const char* needs = nullptr;  ///< a flag without which this one means nothing
};

constexpr const char* kSchemeNames = "tcp|dctcp|xmp|lia|olia";
constexpr double kInt64Max = 9223372036854775807.0;  // rounds to 2^63; see read_value
constexpr double kTiB = 1099511627776.0;

using enum Kind;
constexpr Flag kFlags[] = {
    // Traffic and transport.
    {"pattern", Enum, kScenario, "random", 0, 0, "permutation|random|incast", "synthetic traffic"},
    {"workload", String, kScenario, "", 0, 0, "FILE", "empirical workload file, for --pattern"},
    {"load", Double, kScenario, "", 1e-4, 1.2, "X", "offered load (or the file's)", "workload"},
    {"scheme", Enum, kScenario, "xmp", 0, 0, kSchemeNames, "congestion control under study"},
    {"coexist", Enum, kScenario, "", 0, 0, kSchemeNames, "a second scheme on half the senders"},
    {"subflows", Int, kScenario, "2", 1, 64, "N", "subflows per multipath connection"},
    {"beta", Int, kScenario, "4", 1, 1000, "N", "XMP's BOS reduction factor"},
    {"rounds", Int, kScenario, "2", 1, 1000, "N", "permutation rounds"},
    {"scale", Int, kScenario, "1", 1, 1e6, "N", "multiplies every synthetic flow size"},
    {"seed", Int, kScenario, "1", 0, kInt64Max, "N", "simulation seed"},
    // Fabric and routing.
    {"k", Int, kScenario | kTopo, "8", 2, 64, "N", "Fat-Tree arity (even)"},
    {"duration", Double, kScenario, "0.5", 1e-6, 3600, "X", "simulated seconds"},
    {"queue", Int, kScenario, "100", 1, 1e6, "N", "queue capacity per port (packets)"},
    {"mark-k", Int, kScenario, "10", 1, 1e6, "N", "ECN marking threshold K (packets)"},
    {"routing", Enum, kScenario, "pinned", 0, 0, "pinned|ecmp|wcmp|flowlet", "up-port choice"},
    {"flowlet-gap", Int, kScenario, "100", 1, 1e9, "N", "flowlet idle gap (us)"},
    {"reroute-delay", Double, kScenario, "0.001", 0, 60, "X", "failure convergence delay (s)"},
    // Faults.
    {"faults", String, kScenario, "", 0, 0, "PLAN", "fault plan (src/faults/fault_plan.hpp)"},
    {"fault-seed", Int, kScenario, "1", 0, kInt64Max, "N", "seed of the fault layer's draws"},
    {"dead-after", Int, kScenario, "", 0, 1000, "N", "RTOs to subflow death (--faults: 3, else 0)"},
    {"rehome", Int, kScenario, "0", 0, 1000, "N", "move a dead subflow up to N times"},
    {"invariants", Bool, kScenario, "", 0, 0, "", "runtime invariant probe (exit 3 if violated)"},
    // Engines (DESIGN.md §11, §14).
    {"shards", Int, kPerLeg, "0", 0, 4096, "N", "sharded engine on N threads (0 = serial)"},
    {"hybrid", Bool, kScenario, "", 0, 0, "", "hybrid fluid/packet engine"},
    {"hybrid-bg", String, kScenario, "", 0, 0, "FLOWS[:BYTES]", "fluid flows (1000)", "hybrid"},
    {"hybrid-fg", String, kScenario, "", 0, 0, "FLOWS[:BYTES]", "packet flows (4:8e6)", "hybrid"},
    {"hybrid-promote-bytes", Int, kScenario, "0", 0, kTiB, "N", "packet tail bytes", "hybrid"},
    {"hybrid-tick", Int, kScenario, "200", 10, 1e6, "N", "fluid step (us)", "hybrid"},
    // Checkpoints (DESIGN.md §12).
    {"checkpoint-every", Double, kScenario, "", 1e-6, 3600, "X", "snapshot period (verify: 0.005)"},
    {"checkpoint-dir", String, kPerLeg, ".", 0, 0, "DIR", "existing directory for snapshots"},
    {"restore", String, kRunOnly, "", 0, 0, "FILE", "resume from a snapshot"},
    // Observation; in a sweep, trace.json becomes trace.<job>.json.
    {"trace", String, kPerLeg, "", 0, 0, "FILE", "Chrome trace-event JSON (Perfetto)"},
    {"trace-csv", String, kPerLeg, "", 0, 0, "FILE", "the timeline as CSV"},
    {"trace-filter", String, kScenario, "", 0, 0, "LIST", "timeline categories: cwnd,gain,..."},
    {"trace-capacity", Int, kScenario, "262144", 1, 1 << 26, "N", "timeline ring size"},
    {"metrics", String, kPerLeg, "", 0, 0, "FILE", "counters and histograms JSON"},
    {"fct-csv", String, kPerLeg, "", 0, 0, "FILE", "one row per flow", "workload"},
    {"csv", String, kRunOnly, "", 0, 0, "FILE", "per-flow results"},
    {"json", String, kRunOnly, "", 0, 0, "FILE", "summary JSON"},
    {"drops-csv", String, kRunOnly, "", 0, 0, "FILE", "per-link drops and impairments"},
    // verify.
    {"dir", String, kVerify, "", 0, 0, "DIR", "where the legs run (default: a temp dir)"},
    // sweep (DESIGN.md §10).
    {"param", Enum, kSweep, "mark-k", 0, 0, "mark-k|beta|subflows|queue|seed|load", "swept"},
    {"values", List, kSweep, "", 0, 0, nullptr, "swept values"},
    {"schemes", List, kSweep, "", 0, 0, kSchemeNames, "cross the values with these schemes"},
    {"jobs", Int, kSweep, "", 1, 4096, "N", "concurrent jobs (default: hardware cores)"},
    {"out", String, kSweep, "", 0, 0, "DIR", "keep the campaign in DIR (default: a temp dir)"},
    {"resume", String, kSweep, "", 0, 0, "DIR", "finish a campaign; flags given override it"},
    {"job-timeout", Double, kSweep, "0", 0, 86400, "X", "wall seconds per attempt (0 = none)"},
    {"retries", Int, kSweep, "2", 0, 100, "N", "extra attempts after a failed one"},
    {"backoff", Double, kSweep, "0.5", 0, 3600, "X", "retry backoff base (s)"},
    {"strict", Bool, kSweep, "", 0, 0, "", "exit 1 when a job exhausts its retries"},
    // fluid.
    {"capacity-gbps", Double, kFluid, "1", 0.001, 10000, "X", "bottleneck capacity"},
    {"flows", Int, kFluid, "3", 1, 1e6, "N", "flows sharing it"},
    {"beta", Double, kFluid, "4", 1, 1000, "X", "BOS reduction factor"},
    {"rtt-us", Double, kFluid, "300", 0.1, 1e7, "X", "round-trip time (us)"},
};
constexpr std::size_t kNumFlags = std::size(kFlags);

/// A row of kFlags, found at compile time: a misspelt name does not build
/// (the search runs off the end of the table). `cmd` picks among rows that
/// share a name.
struct Key {
  std::size_t i = 0;
  consteval Key(const char* name, unsigned cmd = ~0u) {  // NOLINT: implicit on purpose
    while (std::string_view{kFlags[i].name} != name || (kFlags[i].cmds & cmd) == 0) ++i;
  }
};

struct Value {
  bool given = false;
  std::string raw;           ///< as typed, or the row's default
  double num = 0;            ///< Int and Double rows
  std::int64_t integer = 0;  ///< Int rows
  std::vector<double> list;  ///< numeric List rows
};

/// The parsed arguments of one command: each row's value, given or default.
struct Flags {
  unsigned cmd = 0;
  std::vector<std::string> argv;  ///< the arguments as given
  std::array<Value, kNumFlags> v;

  [[nodiscard]] bool has(Key k) const { return v[k.i].given; }
  [[nodiscard]] const std::string& str(Key k) const { return v[k.i].raw; }
  [[nodiscard]] double num(Key k) const { return v[k.i].num; }
  [[nodiscard]] std::int64_t integer(Key k) const { return v[k.i].integer; }
  [[nodiscard]] const std::vector<double>& list(Key k) const { return v[k.i].list; }
};

/// Strict numeric parsing: the whole token must be consumed, no overflow.
bool parse_number(const std::string& v, double& out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtod(v.c_str(), &end);
  return errno == 0 && end != nullptr && *end == '\0';
}

bool parse_integer(const std::string& v, std::int64_t& out) {
  if (v.empty()) return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoll(v.c_str(), &end, 10);
  return errno == 0 && end != nullptr && *end == '\0';
}

/// "a,b,c" -> {a, b, c}; a trailing separator ends the list.
std::vector<std::string> split(const std::string& s, char sep = ',') {
  std::vector<std::string> out;
  for (std::size_t at = 0; at < s.size();) {
    const auto next = s.find(sep, at);
    out.push_back(s.substr(at, next == std::string::npos ? next : next - at));
    if (next == std::string::npos) break;
    at = next + 1;
  }
  return out;
}

/// Position of `v` among the choices "a|b|c", or npos.
std::size_t choice_index(const char* choices, const std::string& v) {
  const auto all = split(choices, '|');
  const auto it = std::find(all.begin(), all.end(), v);
  return it == all.end() ? std::string::npos : static_cast<std::size_t>(it - all.begin());
}

/// Reads `text` as row `f` demands; false after one line naming the flag,
/// the value and what it accepts.
bool read_value(const Flag& f, const std::string& text, Value& out) {
  out.raw = text;
  switch (f.kind) {
    case Kind::Int:
      if (parse_integer(text, out.integer) && out.integer >= f.lo && out.integer <= f.hi) {
        out.num = static_cast<double>(out.integer);
        return true;
      }
      // kInt64Max is 2^63 as a double; converting it back would overflow.
      return fail("bad --%s=%s (expected an integer in [%lld, %lld])", f.name, text.c_str(),
                  static_cast<long long>(f.lo),
                  f.hi >= kInt64Max ? LLONG_MAX : static_cast<long long>(f.hi));
    case Kind::Double:
      if (parse_number(text, out.num) && out.num >= f.lo && out.num <= f.hi) return true;
      return fail("bad --%s=%s (expected a number in [%g, %g])", f.name, text.c_str(), f.lo, f.hi);
    case Kind::Enum:
      if (choice_index(f.meta, text) != std::string::npos) return true;
      return fail("bad --%s=%s (expected %s)", f.name, text.c_str(), f.meta);
    case Kind::List:
      for (const std::string& entry : split(text)) {
        double x = 0;
        if (f.meta != nullptr ? choice_index(f.meta, entry) == std::string::npos
                              : !parse_number(entry, x)) {
          return fail("bad --%s entry '%s' (expected %s)", f.name, entry.c_str(),
                      f.meta != nullptr ? f.meta : "a number");
        }
        if (f.meta == nullptr) out.list.push_back(x);
      }
      return true;
    case Kind::String:
    case Kind::Bool:
      return true;
  }
  return true;
}

/// Index of the row called `name` that one of `cmds` takes, or kNumFlags.
std::size_t row_of(std::string_view name, unsigned cmds) {
  std::size_t i = 0;
  while (i < kNumFlags && (kFlags[i].name != name || (kFlags[i].cmds & cmds) == 0)) ++i;
  return i;
}

const char* command_name(unsigned cmd) { return kCommands[std::countr_zero(cmd)].name; }

/// Edit distance counting a swap of neighbours as one edit, so that
/// "shrads" is one step from "shards".
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::vector<std::size_t>> d(a.size() + 1, std::vector<std::size_t>(b.size() + 1));
  for (std::size_t i = 0; i <= a.size(); ++i) d[i][0] = i;
  for (std::size_t j = 0; j <= b.size(); ++j) d[0][j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      d[i][j] = std::min({d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1)});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        d[i][j] = std::min(d[i][j], d[i - 2][j - 2] + 1);
      }
    }
  }
  return d[a.size()][b.size()];
}

/// One line for a flag that `cmd` does not take: the commands that do, or
/// else the nearest name that `cmd` takes.
bool reject_unknown(const std::string& name, unsigned cmd) {
  std::string owners;
  for (const auto& c : kCommands) {
    if (row_of(name, c.bit) == kNumFlags) continue;
    owners += owners.empty() ? "" : ", ";
    owners += c.name;
  }
  if (!owners.empty()) {
    return fail("--%s is not a %s flag (it belongs to %s)", name.c_str(), command_name(cmd),
                owners.c_str());
  }
  const Flag* best = nullptr;
  std::size_t best_d = SIZE_MAX;
  for (const Flag& f : kFlags) {
    if ((f.cmds & cmd) == 0) continue;
    const std::size_t d = edit_distance(name, f.name);
    if (d < best_d) {
      best = &f;
      best_d = d;
    }
  }
  return fail("unknown flag --%s (did you mean --%s?)", name.c_str(), best->name);
}

/// Walks `argv` once for command `cmd`; false after one line on stderr for
/// a positional argument, a flag `cmd` does not take (with the nearest
/// name), a repeat, a value on a bare flag or none on another, a bad value,
/// or a flag that verify sets itself.
bool parse(unsigned cmd, std::vector<std::string> argv, Flags& out) {
  out.cmd = cmd;
  for (std::size_t i = 0; i < kNumFlags; ++i) {
    out.v[i] = Value{};
    if (*kFlags[i].def != '\0') read_value(kFlags[i], kFlags[i].def, out.v[i]);
  }
  const unsigned takes = cmd == kVerify ? kVerify | kOwned : cmd;
  for (const std::string& arg : argv) {
    if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
      return fail("unexpected argument '%s' (flags are --name=value)", arg.c_str());
    }
    const auto eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::size_t i = row_of(name, takes);
    if (i == kNumFlags) return reject_unknown(name, cmd);
    const Flag& f = kFlags[i];
    if (out.v[i].given) return fail("--%s given twice", f.name);
    if (f.kind == Kind::Bool) {
      if (eq != std::string::npos) return fail("--%s takes no value (got %s)", f.name, arg.c_str());
    } else if (eq == std::string::npos || eq + 1 == arg.size()) {
      return fail("--%s needs a value", f.name);
    } else {
      out.v[i] = Value{};
      if (!read_value(f, arg.substr(eq + 1), out.v[i])) return false;
    }
    out.v[i].given = true;
    if (cmd == kVerify && (f.cmds & kOwned) != 0) {
      return fail("verify drives --%s itself (drop it)", f.name);
    }
  }
  out.argv = std::move(argv);
  return true;
}

/// The command list (cmd 0) or the flags of one command, with defaults.
void usage(std::FILE* out, unsigned cmd) {
  if (cmd == 0) {
    std::fprintf(out, "usage: xmpsim <command> [--flag=value ...]\n");
    for (const auto& c : kCommands) std::fprintf(out, "  %-7s %s\n", c.name, c.summary);
    std::fprintf(out, "`xmpsim <command> --help` lists the flags of a command.\n");
    return;
  }
  std::fprintf(out, "usage: xmpsim %s [--flag=value ...]\n", command_name(cmd));
  for (const Flag& f : kFlags) {
    if ((f.cmds & cmd) == 0) continue;
    std::string spec = std::string{"--"} + f.name;
    if (f.kind == Kind::List) {
      spec += std::string{"="} + (f.meta != nullptr ? f.meta : "X") + ",...";
    } else if (f.kind != Kind::Bool) {
      spec += std::string{"="} + f.meta;
    }
    std::fprintf(out, "  %-36s %s", spec.c_str(), f.help);
    if (*f.def != '\0') std::fprintf(out, " [default %s]", f.def);
    if (f.needs != nullptr) std::fprintf(out, " [needs --%s]", f.needs);
    std::fprintf(out, "\n");
  }
}

// --- from flags to a run configuration ---------------------------------------

/// What a run is (modes) and what it combines them with (features), one bit
/// each, for kRules.
constexpr unsigned kReplaying = 1u << 0;
constexpr unsigned kVerifying = 1u << 1;
constexpr unsigned kSharded = 1u << 2;
constexpr unsigned kHybrid = 1u << 3;
constexpr unsigned kWorkload = 1u << 4;
constexpr unsigned kCheckpointed = 1u << 5;  ///< --checkpoint-every or --restore
constexpr unsigned kWritesSnapshots = 1u << 6;
constexpr unsigned kFresh = 1u << 7;  ///< no --restore
constexpr unsigned kCoexist = 1u << 8;
constexpr unsigned kFlowlet = 1u << 9;
constexpr unsigned kInvariants = 1u << 10;
constexpr unsigned kRehome = 1u << 11;
constexpr unsigned kFaults = 1u << 12;
constexpr unsigned kPattern = 1u << 13;  ///< --pattern given
constexpr unsigned kNotXmp = 1u << 14;
constexpr unsigned kNotPermutation = 1u << 15;

/// The combinations the engines do not support: a run with mode `when` and
/// feature `with` exits 2 with `msg`, whose %s is the feature's value. The
/// first match wins, so engine-level reasons come before generic ones.
constexpr struct Rule {
  unsigned when;
  unsigned with;
  const char* msg;
} kRules[] = {
    {kVerifying, kInvariants,
     "verify legs run under --shards; --invariants is serial-only (use `run --invariants` "
     "directly)"},
    {kVerifying, kHybrid, "--hybrid is serial-engine-only; verify needs --shards legs"},
    {kReplaying, kFresh, "replay needs --restore=FILE"},
    {kReplaying, kWritesSnapshots, "replay never writes checkpoints (drop --checkpoint-every)"},
    // The fluid ODEs implement the paper's §2 XMP dynamics only.
    {kHybrid, kNotXmp, "--hybrid requires --scheme=xmp (got %s)"},
    {kHybrid, kPattern, "--hybrid replaces --pattern (drop --pattern=%s)"},
    {kHybrid, kWorkload, "--hybrid is incompatible with --workload"},
    {kHybrid, kCoexist, "--hybrid is incompatible with --coexist"},
    {kHybrid, kFaults, "--hybrid is incompatible with --faults"},
    {kHybrid, kSharded, "--hybrid is incompatible with --shards (serial engine only)"},
    {kWorkload, kPattern, "--workload replaces --pattern (drop --pattern=%s)"},
    {kWorkload, kCoexist, "--workload is incompatible with --coexist"},
    // The sharded engine supports a precise subset of the serial features
    // (DESIGN.md §11), and checkpoint hooks another (§12).
    {kSharded, kNotPermutation, "--shards requires --pattern=permutation (got %s)"},
    {kSharded, kCoexist, "--shards is incompatible with --coexist"},
    {kSharded, kFlowlet, "--shards is incompatible with --routing=flowlet"},
    {kSharded, kInvariants, "--shards is incompatible with --invariants"},
    {kSharded, kRehome, "--shards is incompatible with --rehome"},
    {kCheckpointed, kCoexist, "checkpointing is incompatible with --coexist"},
    {kCheckpointed, kFlowlet, "checkpointing is incompatible with --routing=flowlet"},
    {kCheckpointed, kRehome, "checkpointing is incompatible with --rehome"},
    {kWritesSnapshots, kInvariants,
     "--invariants is incompatible with --checkpoint-every (use 'xmpsim replay --restore=FILE "
     "--invariants' instead)"},
};

workload::SchemeSpec::Kind scheme_kind(const std::string& name) {
  using K = workload::SchemeSpec::Kind;
  constexpr K kKinds[] = {K::Tcp, K::Dctcp, K::Xmp, K::Lia, K::Olia};  // as in kSchemeNames
  return kKinds[choice_index(kSchemeNames, name)];
}

bool even_k(std::int64_t k) {
  return k % 2 == 0 || fail("bad --k=%lld (expected an even integer in [2, 64])",
                            static_cast<long long>(k));
}

/// FLOWS[:BYTES], e.g. "--hybrid-bg=100000" or "--hybrid-bg=1000:64000000".
bool read_count(const Flags& f, Key key, int& count, std::int64_t& bytes) {
  if (!f.has(key)) return true;
  const std::string& v = f.str(key);
  const auto colon = v.find(':');
  std::int64_t n = 0;
  std::int64_t b = bytes;
  bool good = parse_integer(v.substr(0, colon), n) && n >= 1 && n <= 2'000'000;
  if (good && colon != std::string::npos) good = parse_integer(v.substr(colon + 1), b) && b >= 1;
  if (!good) {
    return fail("bad --%s=%s (expected FLOWS[:BYTES], flows in [1, 2000000], bytes >= 1)",
                kFlags[key.i].name, v.c_str());
  }
  count = static_cast<int>(n);
  bytes = b;
  return true;
}

/// Builds the run configuration; false after one line on stderr. parse()
/// checked each value alone, and kRules checks the combinations, so only
/// checks that depend on values in more than one flag, or on files, stay
/// here.
bool config_from(const Flags& f, core::ExperimentConfig& cfg) {
  for (std::size_t i = 0; i < kNumFlags; ++i) {
    const Flag& row = kFlags[i];
    if (row.needs == nullptr || !f.v[i].given) continue;
    const std::size_t j = row_of(row.needs, ~0u);
    if (!f.v[j].given) {
      const bool bare = kFlags[j].kind == Kind::Bool;
      return fail("--%s needs --%s%s%s", row.name, row.needs, bare ? "" : "=",
                  bare ? "" : kFlags[j].meta);
    }
  }

  constexpr core::Pattern kPatterns[] = {core::Pattern::Permutation, core::Pattern::Random,
                                         core::Pattern::Incast};  // as in kFlags
  cfg.pattern = kPatterns[choice_index(kFlags[Key{"pattern"}.i].meta, f.str("pattern"))];
  cfg.offered_load = f.num("load");
  if (f.has("workload")) {
    auto spec = std::make_shared<workload::WorkloadSpec>();
    std::string werr;
    if (!workload::WorkloadSpec::parse_file(f.str("workload"), *spec, &werr)) {
      return fail("bad --workload: %s", werr.c_str());
    }
    cfg.pattern = core::Pattern::Workload;
    cfg.workload = std::move(spec);
  }

  cfg.scheme.kind = scheme_kind(f.str("scheme"));
  cfg.scheme.subflows = static_cast<int>(f.integer("subflows"));
  cfg.scheme.beta = static_cast<int>(f.integer("beta"));
  if (f.has("coexist")) {
    cfg.scheme_b = cfg.scheme;
    cfg.scheme_b->kind = scheme_kind(f.str("coexist"));
  }

  if (!even_k(f.integer("k"))) return false;
  cfg.fat_tree_k = static_cast<int>(f.integer("k"));
  cfg.duration = sim::Time::seconds(f.num("duration"));
  cfg.queue_capacity = static_cast<std::size_t>(f.integer("queue"));
  cfg.mark_threshold = static_cast<std::size_t>(f.integer("mark-k"));
  cfg.permutation_rounds = static_cast<int>(f.integer("rounds"));
  cfg.seed = static_cast<std::uint64_t>(f.integer("seed"));

  if (f.has("faults")) {
    std::string error;
    if (!faults::FaultPlan::parse(f.str("faults"), cfg.fault_plan, &error)) {
      return fail("bad --faults: %s", error.c_str());
    }
  }
  cfg.fault_seed = static_cast<std::uint64_t>(f.integer("fault-seed"));
  // Subflow failover is on by default only under fault injection, so that
  // fault-free runs stay bit-identical to builds without the fault layer.
  cfg.scheme.dead_after_rtos = f.has("dead-after") ? static_cast<int>(f.integer("dead-after"))
                               : cfg.fault_plan.empty() ? 0
                                                        : 3;
  if (cfg.scheme_b) cfg.scheme_b->dead_after_rtos = cfg.scheme.dead_after_rtos;
  cfg.scheme.max_rehomes = static_cast<int>(f.integer("rehome"));
  if (cfg.scheme_b) cfg.scheme_b->max_rehomes = cfg.scheme.max_rehomes;

  (void)route::parse_policy(f.str("routing"), cfg.routing.kind);  // the table checked it
  cfg.routing.flowlet_gap = sim::Time::microseconds(f.integer("flowlet-gap"));
  cfg.routing.reroute_delay = sim::Time::seconds(f.num("reroute-delay"));
  cfg.check_invariants = f.has("invariants");

  const auto scale = f.integer("scale");
  cfg.perm_min_bytes *= scale;
  cfg.perm_max_bytes *= scale;
  cfg.rand_min_bytes *= scale;
  cfg.rand_max_bytes *= scale;

  // Workload-file cross-checks (the file itself already parsed clean).
  if (cfg.workload) {
    const int hosts = cfg.fat_tree_k * cfg.fat_tree_k * cfg.fat_tree_k / 4;
    if (cfg.workload->nodes > hosts) {
      return fail("workload needs %d hosts but --k=%d provides %d", cfg.workload->nodes,
                  cfg.fat_tree_k, hosts);
    }
    if (cfg.workload->span == workload::WorkloadSpan::InterRack &&
        cfg.workload->nodes <= cfg.fat_tree_k / 2) {
      return fail("workload span inter-rack needs nodes in >= 2 racks (%d nodes fit in one rack "
                  "of %d hosts)",
                  cfg.workload->nodes, cfg.fat_tree_k / 2);
    }
    if (cfg.workload->has_cdf && cfg.offered_load <= 0.0 && cfg.workload->default_load <= 0.0) {
      return fail("workload has a cdf but no offered load (give --load=0.X or a 'load' "
                  "directive)");
    }
    if (!cfg.workload->has_cdf && cfg.offered_load > 0.0) {
      return fail("--load has no effect on a trace-only workload");
    }
  }

  // verify's legs all run on the sharded engine.
  cfg.shards = f.cmd == kVerify ? 1 : static_cast<int>(f.integer("shards"));

  cfg.hybrid.enabled = f.has("hybrid");
  if (cfg.hybrid.enabled) {
    if (!read_count(f, "hybrid-bg", cfg.hybrid.bg_flows, cfg.hybrid.bg_bytes) ||
        !read_count(f, "hybrid-fg", cfg.hybrid.fg_flows, cfg.hybrid.fg_bytes)) {
      return false;
    }
    cfg.hybrid.promote_bytes = f.integer("hybrid-promote-bytes");
    cfg.hybrid.tick = sim::Time::microseconds(f.integer("hybrid-tick"));
  }

  cfg.obs.trace_json = f.str("trace");
  cfg.obs.trace_csv = f.str("trace-csv");
  cfg.obs.metrics_json = f.str("metrics");
  cfg.obs.fct_csv = f.str("fct-csv");
  cfg.obs.capacity = static_cast<std::size_t>(f.integer("trace-capacity"));
  std::string filter_error;
  if (!obs::TimelineTracer::parse_filter(f.str("trace-filter"), cfg.obs.categories,
                                         &filter_error)) {
    return fail("bad --trace-filter: %s", filter_error.c_str());
  }

  cfg.checkpoint.every = sim::Time::seconds(f.num("checkpoint-every"));
  cfg.checkpoint.dir = f.str("checkpoint-dir");
  if (struct stat st{}; ::stat(cfg.checkpoint.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    // Checked here, not at the first write: a missing directory would
    // otherwise lose every snapshot while the run still exits 0. Plain
    // stat(): std::filesystem on every run's path added ~140 KB of peak RSS.
    return fail("bad --checkpoint-dir=%s (not an existing directory)",
                cfg.checkpoint.dir.c_str());
  }
  cfg.checkpoint.restore_path = f.str("restore");

  const bool writes = cfg.checkpoint.every > sim::Time::zero();
  const bool restores = !cfg.checkpoint.restore_path.empty();
  const unsigned traits =
      (f.cmd == kReplay ? kReplaying : 0) | (f.cmd == kVerify ? kVerifying : 0) |
      (cfg.shards > 0 ? kSharded : 0) | (cfg.hybrid.enabled ? kHybrid : 0) |
      (cfg.workload ? kWorkload : 0) | (writes || restores ? kCheckpointed : 0) |
      (writes ? kWritesSnapshots : 0) | (restores ? 0 : kFresh) |
      (cfg.scheme_b ? kCoexist : 0) |
      (cfg.routing.kind == route::PolicyKind::Flowlet ? kFlowlet : 0) |
      (cfg.check_invariants ? kInvariants : 0) | (cfg.scheme.max_rehomes > 0 ? kRehome : 0) |
      (cfg.fault_plan.empty() ? 0 : kFaults) | (f.has("pattern") ? kPattern : 0) |
      (cfg.scheme.kind != workload::SchemeSpec::Kind::Xmp ? kNotXmp : 0) |
      (cfg.pattern != core::Pattern::Permutation ? kNotPermutation : 0);
  for (const Rule& r : kRules) {
    if ((traits & r.when) == 0 || (traits & r.with) == 0) continue;
    const char* value = r.with == kPattern  ? f.str("pattern").c_str()
                        : r.with == kNotXmp ? f.str("scheme").c_str()
                                            : core::pattern_name(cfg.pattern);
    std::fputs("xmpsim: ", stderr);
    std::fprintf(stderr, r.msg, value);
    std::fputc('\n', stderr);
    return false;
  }
  // In hybrid mode the pattern enum is inert (the engine replaces the
  // generators); Permutation keeps name/fingerprint output stable.
  if (cfg.hybrid.enabled) cfg.pattern = core::Pattern::Permutation;
  return true;
}

/// Derive a per-job output path for sweeps: "dir/trace.json" -> "dir/trace.3.json".
std::string per_job_path(const std::string& path, std::size_t job) {
  if (path.empty()) return path;
  const auto slash = path.find_last_of('/');
  const auto dot = path.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return path + "." + std::to_string(job);
  }
  return path.substr(0, dot) + "." + std::to_string(job) + path.substr(dot);
}

void print_summary(const core::ExperimentConfig& cfg, const core::ExperimentResults& res) {
  std::printf("pattern=%s scheme=%s%s%s k=%d sim=%.3fs events=%llu\n",
              core::pattern_name(cfg.pattern), cfg.scheme.name().c_str(),
              cfg.scheme_b ? " vs " : "", cfg.scheme_b ? cfg.scheme_b->name().c_str() : "",
              cfg.fat_tree_k, res.sim_duration.sec(),
              static_cast<unsigned long long>(res.events_dispatched));
  std::printf("large-flow goodput: mean %.1f Mbps over %zu flows\n", res.avg_goodput_mbps(),
              res.goodput.count());
  if (cfg.scheme_b) {
    std::printf("coexisting %s:     mean %.1f Mbps over %zu flows\n",
                cfg.scheme_b->name().c_str(), res.avg_goodput_b_mbps(), res.goodput_b.count());
  }
  for (int c = 2; c >= 0; --c) {
    const auto& d = res.goodput_by_category[c];
    if (d.empty()) continue;
    std::printf("  %-11s p50 %.1f Mbps (n=%zu)\n",
                topo::FatTree::category_name(static_cast<topo::FatTree::Category>(c)),
                d.percentile(50), d.count());
  }
  if (!res.jobs.empty()) {
    std::printf("incast jobs: %zu, avg completion %.1f ms, >300ms %.2f%%\n", res.jobs.size(),
                res.avg_job_completion_ms(), res.job_completion_over_ms(300) * 100);
  }
  if (res.hybrid.enabled) {
    std::printf("hybrid: %d fluid bg flows (%d still fluid at horizon), %d packet fg flows\n",
                res.hybrid.bg_flows, res.hybrid.active_fluid, res.hybrid.fg_flows);
    std::printf("  fluid ticks %llu, throughput %.1f Mbps, mean mark p %.4f, "
                "promotions %llu, fluid completions %llu\n",
                static_cast<unsigned long long>(res.hybrid.ticks),
                res.hybrid.fluid_throughput_mbps, res.hybrid.mean_mark_p,
                static_cast<unsigned long long>(res.hybrid.promotions),
                static_cast<unsigned long long>(res.hybrid.fluid_completions));
  }
  if (res.fct.enabled()) {
    std::printf("fct slowdown (load %.2f, %.0f flows/s offered): %llu completed, %llu censored\n",
                res.fct.offered_load, res.fct.arrival_rate,
                static_cast<unsigned long long>(res.fct.completed),
                static_cast<unsigned long long>(res.fct.censored));
    auto fct_row = [](const char* name, const stats::Distribution& d) {
      if (d.count() == 0) return;
      std::printf("  %-9s n=%-6zu p50 %6.2f  p95 %7.2f  p99 %7.2f\n", name, d.count(),
                  d.percentile(50), d.percentile(95), d.percentile(99));
    };
    fct_row("all", res.fct.slowdown_all);
    for (int b = 0; b < core::ExperimentResults::FctStats::kBins; ++b) {
      fct_row(core::ExperimentResults::FctStats::bin_name(b), res.fct.slowdown_by_bin[b]);
    }
  }
  for (int l = 0; l < 3; ++l) {
    const auto& d = res.utilization_by_layer[l];
    std::printf("util %-12s mean %.3f  p90 %.3f\n",
                topo::FatTree::layer_name(static_cast<topo::FatTree::Layer>(l)), d.mean(),
                d.percentile(90));
  }
  if (!cfg.fault_plan.empty() || res.drops.total_drops() > 0) {
    std::printf("drops: queue %llu, admin-down %llu, fault %llu, corrupt %llu "
                "(offered %llu, delivered %llu)\n",
                static_cast<unsigned long long>(res.drops.queue),
                static_cast<unsigned long long>(res.drops.admin_down),
                static_cast<unsigned long long>(res.drops.fault),
                static_cast<unsigned long long>(res.drops.corrupt),
                static_cast<unsigned long long>(res.drops.offered),
                static_cast<unsigned long long>(res.drops.delivered));
  }
  const std::uint64_t impaired =
      res.drops.duplicated + res.drops.delayed + res.drops.overmarked;
  if (!cfg.fault_plan.empty() || impaired > 0) {
    std::printf("impairments: duplicated %llu, delayed %llu, overmarked %llu\n",
                static_cast<unsigned long long>(res.drops.duplicated),
                static_cast<unsigned long long>(res.drops.delayed),
                static_cast<unsigned long long>(res.drops.overmarked));
  }
  std::printf("routing %s: forwarded %llu, unroutable %llu", route::policy_name(cfg.routing.kind),
              static_cast<unsigned long long>(res.switch_forwarded),
              static_cast<unsigned long long>(res.switch_unroutable));
  if (res.route_reroutes > 0) {
    std::printf(", reroutes %llu", static_cast<unsigned long long>(res.route_reroutes));
  }
  if (res.route_collisions > 0) {
    std::printf(", collisions %llu", static_cast<unsigned long long>(res.route_collisions));
  }
  if (res.flowlet_repaths > 0) {
    std::printf(", flowlet repaths %llu", static_cast<unsigned long long>(res.flowlet_repaths));
  }
  if (res.path_rehomes > 0) {
    std::printf(", subflow rehomes %llu", static_cast<unsigned long long>(res.path_rehomes));
  }
  std::printf("\n");
  if (res.sharded) {
    std::printf("sharded: %d logical shards, lookahead %.1f us, %llu epochs, %llu barriers, "
                "%llu handoff pkts, %llu micro-steps, %llu replays\n",
                res.shard.logical_shards, res.shard.lookahead_us,
                static_cast<unsigned long long>(res.shard.epochs),
                static_cast<unsigned long long>(res.shard.barriers),
                static_cast<unsigned long long>(res.shard.handoff_packets),
                static_cast<unsigned long long>(res.shard.micro_steps),
                static_cast<unsigned long long>(res.shard.replays));
  }
  // Lineage-cumulative totals: a resumed run inherits its ancestors'
  // counts, so this line is byte-identical to an uninterrupted run's.
  if (res.ckpt.written > 0) {
    std::printf("checkpoints: %llu written, %llu bytes, last %s\n",
                static_cast<unsigned long long>(res.ckpt.written),
                static_cast<unsigned long long>(res.ckpt.bytes), res.ckpt.last_path.c_str());
  }
  if (res.aborted_flows > 0) {
    std::printf("aborted flows (all subflows dead): %llu\n",
                static_cast<unsigned long long>(res.aborted_flows));
  }
  if (cfg.check_invariants) {
    std::printf("invariants: %llu checks, %zu violations\n",
                static_cast<unsigned long long>(res.invariant_checks),
                res.invariant_violations.size());
    for (const auto& v : res.invariant_violations) std::printf("  VIOLATION %s\n", v.c_str());
  }
}

/// `run` and `replay`.
int cmd_run(const Flags& f) {
  core::ExperimentConfig cfg;
  if (!config_from(f, cfg)) return 2;

  if (!cfg.checkpoint.restore_path.empty()) {
    // Probe before building the world: a truncated, bit-flipped or
    // mismatched snapshot is a one-line exit 2, not a deep engine error.
    core::ckpt::Header h;
    std::string err;
    if (!core::ckpt::probe_file(cfg.checkpoint.restore_path, core::ckpt::config_fingerprint(cfg),
                                h, &err)) {
      fail("restore failed: %s", err.c_str());
      return 2;
    }
    std::fprintf(stderr, "resuming from %s (seq %llu, t=%.6fs)\n",
                 cfg.checkpoint.restore_path.c_str(), static_cast<unsigned long long>(h.seq),
                 sim::Time::nanoseconds(h.t_ns).sec());
  }
  if (cfg.checkpoint.every > sim::Time::zero()) {
    struct sigaction sa = {};
    sa.sa_handler = on_sigterm;
    ::sigaction(SIGTERM, &sa, nullptr);
    cfg.checkpoint.stop_requested = &g_stop;
  }

  const auto res = core::run_experiment(cfg);
  if (!res.conservation_error.empty()) {
    std::fprintf(stderr, "xmpsim: %s\n", res.conservation_error.c_str());
    return 3;
  }
  print_summary(cfg, res);
  if (f.has("csv")) {
    core::export_flows_csv(res, f.str("csv"));
    std::printf("wrote %s\n", f.str("csv").c_str());
  }
  if (f.has("json")) {
    core::export_summary_json(cfg, res, f.str("json"));
    std::printf("wrote %s\n", f.str("json").c_str());
  }
  if (f.has("drops-csv")) {
    core::export_link_drops_csv(res, f.str("drops-csv"));
    std::printf("wrote %s\n", f.str("drops-csv").c_str());
  }
  if (res.ckpt.interrupted) {
    // The partial summary above covers [0, halt); 143 = "terminated by
    // SIGTERM" so wrappers distinguish an interrupted run from a finished
    // one. The final checkpoint is the resume point.
    std::fprintf(stderr, "xmpsim: interrupted at t=%.6fs; resume with --restore=%s\n",
                 res.sim_duration.sec(), res.ckpt.last_path.c_str());
    return 143;
  }
  // Surface invariant violations in the exit code so scripted chaos runs
  // fail loudly instead of silently shipping a broken summary.
  return res.invariant_violations.empty() ? 0 : 3;
}

/// The directory `named`, created if missing, or, when `named` is empty, a
/// fresh scratch directory $TMPDIR/<tag>.XXXXXX (`scratch` set). The caller
/// removes a scratch directory after success and keeps it for inspection
/// after a failure. Empty after a one-line error.
std::string open_dir(const char* flag, const std::string& named, const char* tag,
                     bool& scratch) {
  scratch = named.empty();
  if (!scratch) {
    std::error_code ec;
    std::filesystem::create_directories(named, ec);
    if (ec) {
      fail("cannot create --%s=%s: %s", flag, named.c_str(), ec.message().c_str());
      return {};
    }
    return named;
  }
  std::string dir = "/tmp";
  if (const char* t = std::getenv("TMPDIR"); t != nullptr && *t != '\0') dir = t;
  dir = dir + "/" + tag + ".XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    fail("mkdtemp(%s): %s", dir.c_str(), std::strerror(errno));
    return {};
  }
  return dir;
}

// --- verify: differential validation harness (DESIGN.md §15) ---------------

/// Fork a child that runs `xmpsim run <flags>` from inside `dir`, stdout
/// to out.txt and stderr to err.txt — each leg executes with relative
/// output paths so the stdout summaries are comparable byte for byte, and
/// resume notices on stderr never pollute the compared stream.
pid_t spawn_leg(const std::string& dir, const std::vector<std::string>& flags) {
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  if (::chdir(dir.c_str()) != 0) std::_Exit(127);
  if (std::freopen("out.txt", "w", stdout) == nullptr) std::_Exit(127);
  if (std::freopen("err.txt", "w", stderr) == nullptr) std::_Exit(127);
  Flags f;
  std::_Exit(parse(kRun, flags, f) ? cmd_run(f) : 2);
}

int wait_leg(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

bool read_all(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

int cmd_verify(const Flags& f) {
  namespace fs = std::filesystem;
  // Validate once up front so a malformed scenario is a clean exit 2 on
  // *this* process's stderr, before any leg forks (legs log to err.txt).
  // parse() already rejected the flags the harness owns end to end.
  core::ExperimentConfig probe;
  if (!config_from(f, probe)) return 2;
  const std::string every = f.has("checkpoint-every") ? f.str("checkpoint-every") : "0.005";

  // Scenario flags (verify's own removed), shared by every leg.
  std::vector<std::string> scenario;
  for (const auto& a : f.argv) {
    if (a.rfind("--dir=", 0) == 0 || a.rfind("--checkpoint-every=", 0) == 0) continue;
    scenario.push_back(a);
  }

  bool scratch = false;
  const std::string root = open_dir("dir", f.str("dir"), "xmpverify", scratch);
  if (root.empty()) return 2;

  auto leg_dir = [&](const char* name) { return root + "/" + name; };
  const std::vector<std::string> outputs = {"--json=summary.json", "--trace-csv=trace.csv",
                                            "--metrics=metrics.json", "--drops-csv=drops.csv"};
  auto make_flags = [&](std::vector<std::string> extra) {
    extra.insert(extra.end(), outputs.begin(), outputs.end());
    extra.insert(extra.end(), scenario.begin(), scenario.end());
    return extra;
  };
  auto fail = [&](const std::string& msg) {
    ::fail("verify FAIL: %s (legs kept in %s)", msg.c_str(), root.c_str());
    return 1;
  };

  const std::string ckpt_every = "--checkpoint-every=" + every;
  const struct {
    const char* name;
    std::vector<std::string> extra;
  } straight[] = {
      {"serial", {"--shards=1"}},
      {"shards2", {"--shards=2"}},
      {"ckpt", {"--shards=1", ckpt_every, "--checkpoint-dir=."}},
  };
  for (const auto& leg : straight) {
    const std::string dir = leg_dir(leg.name);
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::printf("verify: leg %-7s %s\n", leg.name, leg.extra.front().c_str());
    const pid_t pid = spawn_leg(dir, make_flags(leg.extra));
    if (pid < 0) return fail("fork failed");
    const int rc = wait_leg(pid);
    if (rc != 0) {
      return fail("leg " + std::string{leg.name} + " exited " + std::to_string(rc) + " (see " +
                  dir + "/err.txt)");
    }
  }

  // Kill leg: same flags as the checkpointed reference, SIGKILLed as soon
  // as the first snapshot is visible (atomic rename: any ckpt_*.bin on
  // disk is complete), then resumed from the newest one.
  {
    const std::string dir = leg_dir("kill");
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::printf("verify: leg kill    --shards=1 + SIGKILL mid-run + --restore\n");
    const std::vector<std::string> base = {"--shards=1", ckpt_every, "--checkpoint-dir=."};
    const pid_t pid = spawn_leg(dir, make_flags(base));
    if (pid < 0) return fail("fork failed");
    // Every leg's config has the probe's fingerprint: it leaves out the
    // outputs, the checkpoint settings and the shard count.
    const std::uint64_t fp = core::ckpt::config_fingerprint(probe);
    for (int i = 0; i < 400; ++i) {
      if (!core::ckpt::newest_valid(dir, fp).empty()) break;
      if (::kill(pid, 0) != 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    ::kill(pid, SIGKILL);
    const int rc = wait_leg(pid);
    std::string snap = core::ckpt::newest_valid(dir, fp);
    if (snap.empty()) {
      return fail("kill leg wrote no snapshot — raise --duration or lower --checkpoint-every");
    }
    // rc == 0 means the run beat the signal; the resume below still
    // re-runs the tail from the last snapshot, which must reproduce the
    // reference bytes either way.
    if (rc != 0 && rc != 137) {
      return fail("kill leg exited " + std::to_string(rc) + " before the signal (see " + dir +
                  "/err.txt)");
    }
    std::vector<std::string> resume = base;
    resume.push_back("--restore=" + snap.substr(snap.find_last_of('/') + 1));  // leg-relative
    const pid_t rpid = spawn_leg(dir, make_flags(resume));
    if (rpid < 0) return fail("fork failed");
    const int rrc = wait_leg(rpid);
    if (rrc != 0) {
      return fail("restore leg exited " + std::to_string(rrc) + " (see " + dir + "/err.txt)");
    }
  }

  // Byte-compare. summary.json and drops.csv must agree across ALL legs;
  // trace.csv/metrics.json/out.txt only within engine-config pairs,
  // because checkpointing legitimately adds CkptWrite timeline events,
  // harness.ckpt.* meters and a "checkpoints:" stdout line.
  auto compare = [&](const char* a, const char* b, const char* file) -> std::string {
    std::string ca;
    std::string cb;
    if (!read_all(leg_dir(a) + "/" + file, ca)) return std::string{a} + "/" + file + " unreadable";
    if (!read_all(leg_dir(b) + "/" + file, cb)) return std::string{b} + "/" + file + " unreadable";
    if (ca != cb) return std::string{file} + " differs between legs " + a + " and " + b;
    return {};
  };
  const struct {
    const char* a;
    const char* b;
    const char* file;
  } checks[] = {
      // Worker-count invariance: --shards=2 never changes one byte.
      {"serial", "shards2", "summary.json"},
      {"serial", "shards2", "drops.csv"},
      {"serial", "shards2", "trace.csv"},
      {"serial", "shards2", "metrics.json"},
      {"serial", "shards2", "out.txt"},
      // Checkpointing observes without perturbing.
      {"serial", "ckpt", "summary.json"},
      {"serial", "ckpt", "drops.csv"},
      // Crash + restore replays the exact trajectory.
      {"ckpt", "kill", "summary.json"},
      {"ckpt", "kill", "drops.csv"},
      {"ckpt", "kill", "trace.csv"},
      {"ckpt", "kill", "metrics.json"},
      {"ckpt", "kill", "out.txt"},
  };
  for (const auto& c : checks) {
    const std::string err = compare(c.a, c.b, c.file);
    if (!err.empty()) return fail(err);
  }

  std::printf("verify: PASS — serial, shards=2, checkpointed and kill+restore legs agree "
              "byte for byte\n");
  if (scratch) {
    std::error_code ec;
    fs::remove_all(root, ec);
  } else {
    std::printf("verify: legs kept in %s\n", root.c_str());
  }
  return 0;
}

int cmd_fluid(const Flags& f) {
  const double cap_gbps = f.num("capacity-gbps");
  const int n = static_cast<int>(f.integer("flows"));
  const double beta = f.num({"beta", kFluid});
  const double rtt_us = f.num("rtt-us");
  const double cap_sps = cap_gbps * 1e9 / (net::kDataPacketBytes * 8.0);

  std::vector<model::FluidFlow> flows(static_cast<std::size_t>(n),
                                      model::FluidFlow{1.0, beta, rtt_us * 1e-6});
  const auto res = model::solve_single_bottleneck(flows, cap_sps);
  std::printf("BOS equilibrium on %.2f Gbps, %d flows, beta=%.0f, RTT=%.0fus:\n", cap_gbps, n,
              beta, rtt_us);
  std::printf("  marking probability per round p = %.4f\n", res.p);
  std::printf("  per-flow window  w = %.1f segments\n", res.windows.empty() ? 0.0 : res.windows[0]);
  std::printf("  per-flow rate    x = %.1f Mbps\n",
              res.rates.empty() ? 0.0 : res.rates[0] * net::kDataPacketBytes * 8 / 1e6);
  std::printf("  Eq.1 marking threshold K >= BDP/(beta-1) = %.1f packets\n",
              model::min_marking_threshold(cap_sps * rtt_us * 1e-6, beta));
  return 0;
}

/// One parsed sweep request: the grid plus the metadata the manifest and
/// summary need. With --schemes the grid is schemes x values (scheme-major)
/// and `values`/`labels` are expanded to one entry per grid point.
struct SweepSpec {
  std::string param;
  std::vector<double> values;        ///< swept value per grid point
  std::vector<std::string> labels;   ///< scheme per grid point ("" = --scheme)
  std::vector<core::ExperimentConfig> grid;
  bool schemes_swept = false;
};

bool build_sweep_grid(const Flags& f, SweepSpec& spec) {
  spec.param = f.str("param");
  if (f.list("values").empty()) return fail("sweep needs --values=a,b,c");
  core::ExperimentConfig base;
  if (!config_from(f, base)) return false;

  const bool load = spec.param == "load";
  if (load && !base.workload) return fail("--param=load needs --workload=FILE");
  if (load && !base.workload->has_cdf) {
    return fail("--param=load needs a workload with a 'cdf' directive");
  }
  // Each entry must be a value the swept flag itself takes: --param=mark-k
  // --values=3.7 must not run K=3, nor --param=seed --values=1e30 cast an
  // out-of-range double to an integer.
  const Flag& swept = kFlags[row_of(spec.param, kSweep)];
  std::vector<Value> entries;
  for (const std::string& entry : split(f.str("values"))) {
    if (!read_value(swept, entry, entries.emplace_back())) return false;
  }

  // Optional scheme cross product: --schemes=xmp,dctcp,lia,olia multiplies
  // the grid (scheme-major order), which is how a full load-vs-FCT study
  // becomes one resumable campaign.
  std::vector<std::string> schemes = split(f.str("schemes"));
  spec.schemes_swept = !schemes.empty();
  if (schemes.empty()) schemes.emplace_back();  // sentinel: keep --scheme as given

  for (const std::string& sch : schemes) {
    for (const Value& e : entries) {
      const double v = e.num;
      core::ExperimentConfig cfg = base;
      if (spec.param == "mark-k") {
        cfg.mark_threshold = static_cast<std::size_t>(e.integer);
      } else if (spec.param == "beta") {
        cfg.scheme.beta = static_cast<int>(e.integer);
      } else if (spec.param == "subflows") {
        cfg.scheme.subflows = static_cast<int>(e.integer);
      } else if (spec.param == "queue") {
        cfg.queue_capacity = static_cast<std::size_t>(e.integer);
      } else if (load) {
        cfg.offered_load = v;
      } else {
        cfg.seed = static_cast<std::uint64_t>(e.integer);
      }
      // Swap the scheme kind, keeping every other knob (--subflows,
      // --beta, --dead-after, --rehome) exactly as config_from set it.
      if (!sch.empty()) cfg.scheme.kind = scheme_kind(sch);
      // Each job writes its own trace/metrics files ("trace.json" ->
      // "trace.<i>.json"); concurrent jobs must never share an output path.
      const std::size_t job = spec.grid.size();
      cfg.obs.trace_json = per_job_path(cfg.obs.trace_json, job);
      cfg.obs.trace_csv = per_job_path(cfg.obs.trace_csv, job);
      cfg.obs.metrics_json = per_job_path(cfg.obs.metrics_json, job);
      cfg.obs.fct_csv = per_job_path(cfg.obs.fct_csv, job);
      spec.values.push_back(v);
      spec.labels.push_back(sch);
      spec.grid.push_back(cfg);
    }
  }
  return true;
}

/// Aggregate campaign summary. Built ONLY from the salvaged per-job result
/// files (via CampaignOutcome), never from in-memory run state, and carries
/// no timing/attempt data — so an interrupted-and-resumed campaign writes a
/// summary byte-identical to an uninterrupted one.
void write_sweep_summary(const std::string& dir, const SweepSpec& spec,
                         const core::CampaignOutcome& outcome) {
  trace::JsonWriter json{dir + "/sweep_summary.json"};
  json.begin_object();
  json.kv("param", spec.param);
  json.kv("jobs", static_cast<std::uint64_t>(spec.grid.size()));
  json.kv("completed",
          static_cast<std::uint64_t>(spec.grid.size() - outcome.incomplete.size()));
  json.key("incomplete");
  json.begin_array();
  for (const std::size_t i : outcome.incomplete) json.value(static_cast<std::uint64_t>(i));
  json.end_array();
  json.key("table");
  json.begin_array();
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (!outcome.results[i]) continue;
    const core::JobResult& r = *outcome.results[i];
    json.begin_object();
    json.kv("index", static_cast<std::uint64_t>(i));
    json.kv("value", spec.values[i]);
    json.kv("goodput_mbps", r.goodput_mbps);
    json.kv("events", r.events);
    json.kv("flows", r.flows);
    json.kv("completed_flows", r.completed_flows);
    json.kv("aborted_flows", r.aborted_flows);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

/// Ready-to-plot load-vs-FCT table (`fct_summary.json`). Same discipline as
/// write_sweep_summary: built ONLY from the salvaged job_<i>.json files, so
/// a SIGKILLed-and-resumed campaign emits a byte-identical file.
void write_fct_summary(const std::string& dir, const SweepSpec& spec,
                       const core::CampaignOutcome& outcome) {
  trace::JsonWriter json{dir + "/fct_summary.json"};
  json.begin_object();
  json.kv("param", spec.param);
  json.key("table");
  json.begin_array();
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    if (!outcome.results[i] || !outcome.results[i]->has_fct) continue;
    const core::JobResult& r = *outcome.results[i];
    json.begin_object();
    json.kv("index", static_cast<std::uint64_t>(i));
    json.kv("value", spec.values[i]);
    json.kv("scheme", spec.labels[i].empty() ? spec.grid[i].scheme.name() : spec.labels[i]);
    json.kv("offered_load", r.fct_load);
    json.kv("completed", r.fct_completed);
    json.kv("censored", r.fct_censored);
    auto quantiles = [&](const char* name, const core::JobResult::FctQuantiles& q) {
      json.key(name);
      json.begin_object();
      json.kv("count", q.count);
      json.kv("mean", q.mean);
      json.kv("p50", q.p50);
      json.kv("p95", q.p95);
      json.kv("p99", q.p99);
      json.end_object();
    };
    quantiles("all", r.fct_all);
    json.key("bins");
    json.begin_object();
    for (int b = 0; b < core::ExperimentResults::FctStats::kBins; ++b) {
      quantiles(core::ExperimentResults::FctStats::bin_name(b), r.fct_bins[b]);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  json.end_object();
}


/// Every sweep runs as a crash-isolated campaign: in --out=DIR, in the
/// campaign --resume=DIR names, or else in a scratch directory that is
/// removed once every job succeeded. The table is printed from the
/// job_<i>.json files alone, so an interrupted and resumed campaign prints
/// what an uninterrupted one does.
int cmd_sweep(const Flags& cli) {
  core::JobManifest manifest;
  Flags args = cli;
  const bool resume = cli.has("resume");
  if (resume) {
    std::string err;
    if (!core::JobManifest::load(cli.str("resume"), manifest, &err)) {
      fail("cannot resume --resume=%s: %s", cli.str("resume").c_str(), err.c_str());
      return 2;
    }
    // The campaign's stored flags, each overridden by one given now.
    if (!parse(kSweep, manifest.argv, args)) return 2;
    for (std::size_t i = 0; i < kNumFlags; ++i) {
      if (cli.v[i].given) args.v[i] = cli.v[i];
    }
  }

  SweepSpec spec;
  if (!build_sweep_grid(args, spec)) return 2;

  bool scratch = false;
  std::string dir;
  if (resume) {
    dir = cli.str("resume");
    // The grid rebuilt from the merged flags must be the campaign's grid;
    // anything else would silently mix results from different experiments.
    bool same = manifest.param == spec.param && manifest.jobs.size() == spec.grid.size();
    for (std::size_t i = 0; same && i < manifest.jobs.size(); ++i) {
      same = manifest.jobs[i].value == spec.values[i];
    }
    if (!same) {
      fail("--resume=%s grid mismatch (manifest sweeps %s over %zu values); re-run without "
           "conflicting --param/--values",
           dir.c_str(), manifest.param.c_str(), manifest.jobs.size());
      return 2;
    }
  } else {
    dir = open_dir("out", args.str("out"), "xmpsweep", scratch);
    if (dir.empty()) return 2;
    manifest.param = spec.param;
    manifest.argv = cli.argv;
    manifest.jobs.resize(spec.grid.size());
    for (std::size_t i = 0; i < spec.grid.size(); ++i) {
      manifest.jobs[i].index = i;
      manifest.jobs[i].value = spec.values[i];
    }
  }

  core::OrchestratorConfig ocfg;
  ocfg.campaign_dir = dir;
  ocfg.workers = static_cast<unsigned>(args.integer("jobs"));
  ocfg.job_timeout_s = args.num("job-timeout");
  ocfg.retries = static_cast<int>(args.integer("retries"));
  ocfg.backoff_base_s = args.num("backoff");
  ocfg.strict = args.has("strict");

  obs::MetricsRegistry metrics;
  obs::TimelineTracer::Config tcfg;
  tcfg.capacity = 1u << 16;
  tcfg.categories = obs::cat::kHarness;
  obs::TimelineTracer tracer{tcfg};
  ocfg.metrics = &metrics;
  ocfg.tracer = &tracer;

  core::Orchestrator orch{ocfg};
  std::fprintf(stderr, "%s campaign in %s: %zu points, timeout=%gs, retries=%d\n",
               resume ? "resuming" : "starting", dir.c_str(), spec.grid.size(),
               ocfg.job_timeout_s, ocfg.retries);
  const core::CampaignOutcome outcome = orch.run(spec.grid, manifest);

  bool any_fct = false;
  for (const auto& r : outcome.results) {
    if (r && r->has_fct) any_fct = true;
  }
  // Extra columns only when the feature that produces them is in play, so
  // classic sweeps keep their exact historical stdout format.
  std::printf("%-12s", spec.param.c_str());
  if (spec.schemes_swept) std::printf(" %-8s", "scheme");
  std::printf(" %16s %16s", "goodput (Mbps)", "events");
  if (any_fct) std::printf(" %10s %10s", "fct p50", "fct p99");
  std::printf("\n");
  for (std::size_t i = 0; i < outcome.results.size(); ++i) {
    std::printf("%-12g", spec.values[i]);
    if (spec.schemes_swept) std::printf(" %-8s", spec.labels[i].c_str());
    if (outcome.results[i]) {
      const core::JobResult& r = *outcome.results[i];
      std::printf(" %16.1f %16llu", r.goodput_mbps, static_cast<unsigned long long>(r.events));
      if (any_fct) {
        if (r.has_fct && r.fct_all.count > 0) {
          std::printf(" %10.2f %10.2f", r.fct_all.p50, r.fct_all.p99);
        } else {
          std::printf(" %10s %10s", "-", "-");
        }
      }
      std::printf("\n");
    } else {
      std::printf(" %16s %16s", "-", "-");
      if (any_fct) std::printf(" %10s %10s", "-", "-");
      std::printf("  (%s after %d attempts)\n", outcome.jobs[i].last_error.c_str(),
                  outcome.jobs[i].attempts);
    }
  }

  write_sweep_summary(dir, spec, outcome);
  if (any_fct) write_fct_summary(dir, spec, outcome);
  metrics.dump_to_file(dir + "/harness_metrics.json");
  tracer.export_chrome_json(dir + "/harness_trace.json");

  if (!outcome.complete()) {
    std::fprintf(stderr, "xmpsim: %zu of %zu jobs incomplete after retries%s\n",
                 outcome.incomplete.size(), spec.grid.size(),
                 ocfg.strict ? "" : " (salvaged the rest; --strict to fail)");
    if (scratch) fail("campaign kept in %s", dir.c_str());
    if (ocfg.strict) return 1;
  } else if (scratch) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return 0;
}

int cmd_topo(const Flags& f) {
  if (!even_k(f.integer("k"))) return 2;
  const int k = static_cast<int>(f.integer("k"));
  sim::Scheduler sched;
  net::Network netw{sched};
  topo::FatTree::Config tc;
  tc.k = k;
  topo::FatTree tree{netw, tc};
  std::printf("Fat-Tree k=%d: %d hosts, %zu switches, %d equal-cost inter-pod paths\n", k,
              tree.n_hosts(), netw.switches().size(), tree.inter_pod_paths());
  std::printf("links per layer: rack %zu, aggregation %zu, core %zu (unidirectional)\n",
              tree.links(topo::FatTree::Layer::Rack).size(),
              tree.links(topo::FatTree::Layer::Aggregation).size(),
              tree.links(topo::FatTree::Layer::Core).size());
  const double inner = 4 * tc.rack_delay.us();
  const double pod = 2 * (2 * tc.rack_delay.us() + 2 * tc.agg_delay.us());
  const double inter = 2 * (2 * tc.rack_delay.us() + 2 * tc.agg_delay.us() + 2 * tc.core_delay.us());
  std::printf("base RTTs (no queueing): inner-rack %.0fus, inter-rack %.0fus, inter-pod %.0fus\n",
              inner, pod, inter);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned cmd = 0;
  for (const auto& c : kCommands) {
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) cmd = c.bit;
  }
  if (cmd == 0) {
    usage(stderr, 0);
    return 2;
  }
  const std::vector<std::string> args(argv + 2, argv + argc);
  if (std::find(args.begin(), args.end(), "--help") != args.end()) {
    usage(stdout, cmd);
    return 0;
  }
  Flags f;
  if (!parse(cmd, args, f)) return 2;
  switch (cmd) {
    case kRun:
    case kReplay:
      return cmd_run(f);
    case kVerify:
      return cmd_verify(f);
    case kFluid:
      return cmd_fluid(f);
    case kSweep:
      return cmd_sweep(f);
    default:
      return cmd_topo(f);
  }
}
