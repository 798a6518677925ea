"""Per-layer numbers from the span files that tracer.py writes.

A layer is a lambda_sieve module; a span's name starts with the
module's name without its leading underscore ("kernels.mulmod" belongs
to `_kernels`), since metric names must start with a letter.  Self time is a span's
duration minus the time its direct child spans cover, so the self
times of one process add up to the time its root spans cover.
"""

from __future__ import annotations

import glob
import json
import os

import numpy as np

from tracer import LAYERS, TARGETS

LAYER_NAMES = [module.lstrip("_") for module in LAYERS]

# What each layer group should move, and where; printed beside the table
# so a later change can cite a layer's share before claiming a gain on it.
PREDICTIONS = (
    ("xi: gaussfact.xi_fq, modmath.wilson_quotient/harmonic_mod, kernels.fq_table/"
     "inverse_table/composite_fill, mulmod.elems_limb",
     "wall_s, items_per_s, cpu_s on exceptional-m3-1e5; no change elsewhere"),
    ("jacobi.*, kernels.powmod, mulmod.elems_direct",
     "wall_s, items_per_s on lambda-d7-4e4 (powmod also ~1/3 of exceptional via "
     "fq_table); no change on pell-q1500-w2, euler-6e3"),
    ("specialnums.euler_mod, mulmod.calls, kernels.cumprod_mod",
     "wall_s, items_per_s on euler-6e3; no change elsewhere"),
    ("pell.small_factor, modmath.is_probable_prime/mr_witness/strong_lucas",
     "cpu_s, wall_s on pell-q1500-w2; no change elsewhere (<1% there)"),
    ("pell.fanout, gaussfact.write_checkpoint",
     "wall_s on pell-q1500-w2 (pool start-up, stragglers); zero elsewhere"),
    ("cli.emit, kernels.primes_upto",
     "small share of wall_s everywhere; largest on exceptional (4784 rows) and "
     "pell (trial tables to 10**6)"),
)


def load(span_dir: str) -> list[dict]:
    """The span files of one traced run, one dict per process."""
    out = []
    for path in sorted(glob.glob(os.path.join(span_dir, "spans-*.npz"))):
        with np.load(path) as f:
            rec = {k: f[k] for k in ("name", "parent", "start", "end")}
            rec.update(json.loads(str(f["meta"])))
        out.append(rec)
    return out


def save(procs: list[dict], path: str) -> None:
    """Spans of several processes in one compressed file, written once."""
    cols = {}
    for i, rec in enumerate(procs):
        for key in ("name", "parent", "start", "end"):
            cols[f"{i}.{key}"] = rec[key]
    meta = [{k: rec[k] for k in ("run_id", "pid", "labels", "counts")} for rec in procs]
    np.savez_compressed(path, meta=np.array(json.dumps(meta)), **cols)


def _self_times(rec: dict) -> np.ndarray:
    dur = rec["end"] - rec["start"]
    has_parent = rec["parent"] >= 0
    covered = np.bincount(
        rec["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - covered


def per_name(procs: list[dict]) -> dict[str, dict]:
    """calls, self_s and per-call durations for every span name."""
    out: dict[str, dict] = {}
    for rec in procs:
        dur = rec["end"] - rec["start"]
        own = _self_times(rec)
        for k, label in enumerate(rec["labels"]):
            sel = rec["name"] == k
            if not sel.any():
                continue
            agg = out.setdefault(label, {"calls": 0, "self_s": 0.0, "durations": []})
            agg["calls"] += int(sel.sum())
            agg["self_s"] += float(own[sel].sum())
            agg["durations"].append(dur[sel])
    for agg in out.values():
        agg["durations"] = np.concatenate(agg["durations"])
    return out


def counts(procs: list[dict]) -> dict[str, int]:
    total: dict[str, int] = {}
    for rec in procs:
        for key, n in rec["counts"].items():
            total[key] = total.get(key, 0) + n
    return total


def _ratio(num: int, den: int) -> float | None:
    return num / den if den else None


def workload_metrics(procs: list[dict], wall_s: float, output_bytes: int) -> dict:
    """Every per-layer metric of one traced workload run (None: no base)."""
    names = per_name(procs)
    c = counts(procs)
    m: dict[str, float | None] = {}
    for label in [t[2] for t in TARGETS] + ["pell.fanout"]:
        m[f"{label}.calls"] = 0
        m[f"{label}.self_s"] = 0.0
    for label, agg in names.items():
        m[f"{label}.calls"] = agg["calls"]
        m[f"{label}.self_s"] = agg["self_s"]
    # the parent's time inside a pool is waiting on workers, not work
    m["pell.fanout.wait_s"] = m.pop("pell.fanout.self_s")
    del m["pell.fanout.calls"]  # same as pell.fanout.pools
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = sum(
            agg["self_s"]
            for label, agg in names.items()
            if label.split(".")[0] == layer and label != "pell.fanout"
        )
    for label in ("gaussfact.xi_fq", "specialnums.euler_mod"):
        d = names.get(label, {}).get("durations")
        m[f"{label}.p99_s"] = float(np.percentile(d, 99)) if d is not None else 0.0
    for key in ("mulmod.elems_direct", "mulmod.elems_limb", "powmod.elems"):
        m[f"kernels.{key}"] = c.get(key, 0)
    m["gaussfact.write_checkpoint.bytes"] = c.get("write_checkpoint.bytes", 0)
    m["pell.small_factor.kills"] = c.get("small_factor.kills", 0)
    composites = c.get("classify.composite", 0)
    candidates = sum(v for k, v in c.items() if k.startswith("classify."))
    m["pell.classify.survivors"] = candidates - composites
    m["pell.survivor_ratio"] = _ratio(candidates - composites, candidates)
    m["pell.trial_kill_ratio"] = _ratio(c.get("small_factor.kills", 0), composites)
    m["pell.fanout.pools"] = c.get("fanout.pools", 0)
    m["pell.fanout.tasks"] = c.get("fanout.tasks", 0)
    m["cli.output_bytes"] = output_bytes
    m["trace.wall_s"] = wall_s
    return m


def probe_metrics(procs: list[dict], probes: dict[str, int]) -> dict[str, float]:
    """Duration of each probe span and of its ξ parts (0.0 if the probe died)."""
    parts = ("modmath.wilson_quotient", "modmath.harmonic_mod", "kernels.fq_table")
    m = {}
    for tag in probes:
        m[f"gaussfact.xi_fq.probe_{tag}_s"] = 0.0
        m.update({f"gaussfact.xi_fq.probe_{tag}.{part.split('.')[1]}_s": 0.0 for part in parts})
    for rec in procs:
        labels = rec["labels"]
        for tag, p in probes.items():
            if f"probe.{p}" not in labels:
                continue
            i = int(np.flatnonzero(rec["name"] == labels.index(f"probe.{p}"))[0])
            lo, hi = rec["start"][i], rec["end"][i]
            inside = (rec["start"] >= lo) & (rec["end"] <= hi)
            dur = rec["end"] - rec["start"]
            m[f"gaussfact.xi_fq.probe_{tag}_s"] = float(hi - lo)
            for part in parts:
                if part in labels:
                    sel = inside & (rec["name"] == labels.index(part))
                    m[f"gaussfact.xi_fq.probe_{tag}.{part.split('.')[1]}_s"] = float(dur[sel].sum())
    return m


def table(metrics: dict, wall_s: float) -> list[str]:
    """Per-layer self time and share of the traced wall, with predictions."""
    lines = [f"{'layer':<12} {'self_s':>10} {'share':>7}"]
    for layer in LAYER_NAMES:
        s = metrics[f"{layer}.self_s"]
        lines.append(f"{layer:<12} {s:>10.4f} {s / wall_s:>7.1%}")
    lines.append(
        f"(shares of the traced wall {wall_s:.3f} s; pool workers run in parallel, "
        "so shares can add up to more than 100%; the parent waited "
        f"{metrics['pell.fanout.wait_s']:.4f} s on {metrics['pell.fanout.pools']} pools)"
    )
    spans = sorted(
        (t[2] for t in TARGETS if metrics[f"{t[2]}.calls"]),
        key=lambda label: -metrics[f"{label}.self_s"],
    )
    lines.append(f"{'span':<34} {'calls':>9} {'self_s':>10} {'share':>7}")
    for label in spans:
        s = metrics[f"{label}.self_s"]
        lines.append(f"{label:<34} {metrics[f'{label}.calls']:>9} {s:>10.4f} {s / wall_s:>7.1%}")
    lines.append("predicted movers:")
    lines.extend(f"  {who} -> {what}" for who, what in PREDICTIONS)
    return lines
