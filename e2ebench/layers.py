"""Per-layer rollup of gprof flat profiles.

Self time is grouped by the `xmp::<module>` namespace of each function.
Two groups cut across namespaces:

- `sim.callback`: the type-erased EventCallback trampolines. Their symbol
  names do not say which closure they invoke, yet they carry that
  closure's inlined body, so they are reported as their own share rather
  than charged to the scheduler.
- `ckpt`: the checkpoint codec (`xmp::core::ckpt`) and every module's
  save_state/restore_state hook.

Functions outside `xmp::` are charged to the first `xmp::<module>` named in
their template arguments (e.g. a std::function wrapping a module's
lambda), or to `other`.
"""

import re

_ROW = re.compile(
    r"^\s*(?P<pct>[\d.]+)\s+(?P<cum>[\d.]+)\s+(?P<self>[\d.]+)\s+"
    r"(?:(?P<calls>\d+)\s+[\d.]+\s+[\d.]+\s+)?(?P<name>\S.*)$"
)
_MODULE = re.compile(r"xmp::(\w+)::")

TRAMPOLINE = "xmp::sim::EventCallback::{lambda("

# Modules whose self-time share is reported as `<module>.self_share`.
SHARE_MODULES = ("sim", "net", "route", "transport", "mptcp", "workload", "ckpt", "model",
                 "obs", "topo")

# Exact gprof call counts at layer entry functions (name prefixes).
CALLS = {
    "sim.sift_down_calls": ("xmp::sim::Scheduler::sift_down(",),
    "net.dequeue_calls": ("xmp::net::Queue::dequeue(",),
    "route.select_up_port_calls": ("xmp::route::SwitchTable::select_up_port(",),
    "transport.arm_rto_calls": ("xmp::transport::TcpSender::arm_rto(",),
    "mptcp.gain_refresh_calls": ("xmp::mptcp::XmpCc::gain(",),
}


def parse_flat(text):
    """Rows of a `gprof -b -p` flat profile as (name, self_seconds, calls)."""
    rows = []
    for line in text.splitlines():
        m = _ROW.match(line)
        if m is None:
            continue
        calls = int(m["calls"]) if m["calls"] is not None else 0
        rows.append((m["name"].strip(), float(m["self"]), calls))
    return rows


def module_of(name):
    if name.startswith(TRAMPOLINE):
        return "sim.callback"
    if name.startswith("xmp::core::ckpt::") or "::save_state(" in name or "::restore_state(" in name:
        return "ckpt"
    m = _MODULE.search(name)
    return m.group(1) if m else "other"


def rollup(profiles):
    """Per-layer metrics from the flat profiles of one or more runs of the
    same command: self-time shares over all their samples, call counts as
    the mean per run."""
    self_s = {}
    calls = {metric: 0 for metric in CALLS}
    for rows in profiles:
        for name, seconds, n in rows:
            group = module_of(name)
            self_s[group] = self_s.get(group, 0.0) + seconds
            for metric, prefixes in CALLS.items():
                if name.startswith(prefixes):
                    calls[metric] += n
    total = sum(self_s.values())
    out = {}
    for group in SHARE_MODULES + ("sim.callback",):
        key = "sim.callback_share" if group == "sim.callback" else f"{group}.self_share"
        out[key] = self_s.get(group, 0.0) / total if total > 0 else 0.0
    runs = max(len(profiles), 1)
    for metric, n in calls.items():
        out[metric] = n / runs
    return out
