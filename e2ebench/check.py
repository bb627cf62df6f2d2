"""Per-run output check of one `xmpsim run`: exit status, packet
conservation and, on the reference seed, the simulated observables."""

import json
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Simulated observables pinned by the reference. Engine-cost counters
# (summary.events, the sharding block) are per-layer metrics instead, so a
# change that only alters how many events a packet costs is not a failure.
REFERENCE_BLOCKS = ("goodput_mbps", "rtt_ms", "utilization", "drops", "routing", "fct", "hybrid")

# Link-level drop causes. Unroutable packets are dropped inside a switch,
# after their inbound link counted them delivered, so they are not on the
# link's books.
LINK_DROP_CAUSES = ("queue", "admin_down", "fault", "corrupt")


def observables(summary):
    """The reference-compared part of a summary.json document."""
    out = {k: summary[k] for k in REFERENCE_BLOCKS if k in summary}
    out["flows"] = summary["summary"]["flows"]
    return out


def load_references():
    with open(REFERENCES) as f:
        return json.load(f)


def read_json(path):
    """A parsed JSON output file, or None when it is missing or unparseable."""
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def check_run(returncode, summary, reference=None):
    """Problems found in one run; an empty list means the run passed.

    Packet conservation: every packet a link was offered (plus clones it
    made) was delivered, dropped, or is still queued or on the wire at the
    horizon, so offered + duplicated >= delivered + drops. `reference` is
    the recorded observables() of the same command on the reference seed,
    or None on any other seed.
    """
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if summary is None:
        problems.append("summary.json missing or unparseable")
        return problems
    try:
        d = summary["drops"]
        dropped = sum(d[c] for c in LINK_DROP_CAUSES)
        duplicated = summary["impairments"]["duplicated"]
        if d["offered"] + duplicated < d["delivered"] + dropped:
            problems.append(
                f"conservation broken: offered {d['offered']} + duplicated {duplicated} < "
                f"delivered {d['delivered']} + dropped {dropped}"
            )
        got = observables(summary)
    except (KeyError, TypeError) as e:
        problems.append(f"summary.json lacks {e}")
        return problems
    if reference is not None:
        for key in sorted(set(reference) | set(got)):
            if got.get(key) != reference.get(key):
                problems.append(f"'{key}' differs from the reference")
    return problems
