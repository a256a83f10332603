"""The three benchmark workloads: inputs, the timed command, output checks.

Each workload is led by a different layer (see README.md). Sizes live in
``SIZES`` so the self-test can run the same code paths at toy sizes. The
output checks use values computed here from the generators' definitions, or
properties the method must have, never a stored copy of earlier output.
"""

import csv
import json
import math
from dataclasses import dataclass
from typing import Callable

SIZES = {
    "cmnist-csv": {"n_per_env": 2000, "runs": 3, "iters": 1000, "mc_samples": 5000},
    "latent-kde": {"n_per_env": 4000, "runs": 3, "iters": 1000, "mc_samples": 10000},
    "compare-cmnist": {"n_per_env": 800, "runs": 1, "iters": 400, "mc_samples": 5000},
}

# irm-cmnist: colour flips against the label with probability 0.1 in the
# training environment and 0.9 in the test one, after 25% label noise.
IRM_RHO_TR, IRM_RHO_TE, IRM_LABEL_NOISE = 0.1, 0.9, 0.25
CMNIST_COR_BAND = (0.40, 0.85)
COMPARE_RHO_TES = (0.9, 0.7, 0.5, 0.3, 0.1)


class SetupError(RuntimeError):
    """The workload's inputs could not be built."""


def shift_from_tables(p_z, q_z, p_y, q_y):
    """d_div and d_cor summed straight from their definitions over a
    discrete latent: atoms one environment lacks count towards d_div, shared
    atoms weigh the label-conditional gap by sqrt(p q)."""
    d_div = d_cor = 0.0
    for p, q, py, qy in zip(p_z, q_z, p_y, q_y):
        if p == 0.0 or q == 0.0:
            d_div += 0.5 * abs(p - q)
        else:
            d_cor += 0.5 * math.sqrt(p * q) * sum(abs(a - b) for a, b in zip(py, qy))
    return d_div, d_cor


def latent_a_truth():
    from oodshift.datagen import latent_spec_a

    spec = latent_spec_a()
    return shift_from_tables(
        spec.p_z.tolist(), spec.q_z.tolist(),
        spec.p_y_given_z.tolist(), spec.q_y_given_z.tolist(),
    )


def colored_truth(rho_tr, rho_te, label_noise):
    """Shift of the coloured-digit generator seen through the latent
    z = (digit group, colour): the group is a fair coin, the label is the
    group flipped with probability label_noise, and the colour disagrees
    with the label with probability rho of the environment."""

    def tables(rho):
        z_probs, conds = [], []
        for group in (0, 1):
            for colour in (0, 1):
                joint = [
                    0.5
                    * (label_noise if y != group else 1.0 - label_noise)
                    * (rho if colour != y else 1.0 - rho)
                    for y in (0, 1)
                ]
                z_probs.append(sum(joint))
                conds.append([j / sum(joint) for j in joint])
        return z_probs, conds

    (p_z, p_y), (q_z, q_y) = tables(rho_tr), tables(rho_te)
    return shift_from_tables(p_z, q_z, p_y, q_y)


def _result(out):
    with open(out / "result.json") as fh:
        return json.load(fh)["result"]


def _finite(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)


def check_latent(out):
    res = _result(out)
    d_div, d_cor = res["d_div"], res["d_cor"]
    want_div, want_cor = latent_a_truth()
    if not _finite(d_div, d_cor):
        return [f"non-finite estimate ({d_div}, {d_cor})"]
    problems = []
    if abs(d_div - want_div) > 0.10:
        problems.append(f"d_div {d_div:.4f} not within 0.10 of {want_div:.4f}")
    if abs(d_cor - want_cor) > 0.10:
        problems.append(f"d_cor {d_cor:.4f} not within 0.10 of {want_cor:.4f}")
    return problems


def check_cmnist(out):
    res = _result(out)
    d_div, d_cor = res["d_div"], res["d_cor"]
    if not _finite(d_div, d_cor):
        return [f"non-finite estimate ({d_div}, {d_cor})"]
    lo, hi = CMNIST_COR_BAND
    truth = colored_truth(IRM_RHO_TR, IRM_RHO_TE, IRM_LABEL_NOISE)[1]
    problems = []
    if not d_div < 0.02:
        problems.append(f"d_div {d_div:.4f} >= 0.02 although both supports coincide")
    if not lo <= d_cor <= hi:
        problems.append(f"d_cor {d_cor:.4f} outside [{lo}, {hi}] around {truth:.3f}")
    return problems


def read_compare(out):
    with open(out / "compare.csv", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def check_compare(out):
    rows = read_compare(out)
    blue = [r for r in rows if r["blue"] == 1.0]
    cor = {r["rho_te"]: r for r in rows if r["blue"] == 0.0}
    if len(blue) != 1 or sorted(cor) != sorted(COMPARE_RHO_TES) or len(rows) != 6:
        return [f"unexpected rows: {[(r['rho_te'], r['blue']) for r in rows]}"]
    blue = blue[0]
    problems = []
    for r in rows:
        for key in ("emd", "mmd", "ni", "d_div", "d_cor"):
            if not _finite(r[key]) or (key in ("emd", "mmd", "ni") and r[key] < 0.0):
                problems.append(f"{key} = {r[key]} in row rho_te={r['rho_te']}")
    if problems:
        return problems
    if not cor[0.9]["d_cor"] > cor[0.5]["d_cor"] > cor[0.1]["d_cor"]:
        problems.append(
            "d_cor not falling along rho_te 0.9 > 0.5 > 0.1: "
            f"{cor[0.9]['d_cor']:.4f}, {cor[0.5]['d_cor']:.4f}, {cor[0.1]['d_cor']:.4f}"
        )
    if not cor[0.1]["d_cor"] < 0.05:
        problems.append(f"rho_te=0.1 row d_cor {cor[0.1]['d_cor']:.4f} >= 0.05")
    for rho, r in sorted(cor.items()):
        if not r["d_div"] < 0.02:
            problems.append(f"rho_te={rho} row d_div {r['d_div']:.4f} >= 0.02")
    if not blue["d_div"] >= 0.8:
        problems.append(f"blue row d_div {blue['d_div']:.4f} < 0.8")
    if not blue["d_cor"] < 0.05:
        problems.append(f"blue row d_cor {blue['d_cor']:.4f} >= 0.05")
    for key in ("mmd", "emd"):
        top = max(r[key] for r in cor.values())
        if not blue[key] > top:
            problems.append(f"blue row {key} {blue[key]:.4f} <= correlation max {top:.4f}")
    return problems


def _sized(size, rows=True):
    argv = ["--n-per-env", str(size["n_per_env"])] if rows else []
    return argv + [
        "--runs", str(size["runs"]), "--iters", str(size["iters"]),
        "--mc-samples", str(size["mc_samples"]),
    ]


def setup_cmnist(main, work, seed, size):
    argv = [
        "generate", "--preset", "irm-cmnist", "--n-per-env", str(size["n_per_env"]),
        "--seed", str(seed), "--out", str(work / "input"),
    ]
    if main(argv) != 0:
        raise SetupError(f"oodshift {' '.join(argv)} failed")
    return {"data": str(work / "input" / "data.csv")}


def no_setup(main, work, seed, size):
    return {}


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable  # (cli main, work dir, seed, size) -> inputs dict
    argv: Callable  # (inputs, op seed, out dir, size) -> oodshift argv
    check: Callable  # (out dir) -> list of problems, empty when correct


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cmnist-csv",
            setup_cmnist,
            lambda inputs, seed, out, size: [
                "estimate", "--data", inputs["data"], "--seed", str(seed), "--out", str(out),
                *_sized(size, rows=False),
            ],
            check_cmnist,
        ),
        Workload(
            "latent-kde",
            no_setup,
            lambda inputs, seed, out, size: [
                "estimate", "--preset", "latent-a", "--seed", str(seed), "--out", str(out),
                *_sized(size),
            ],
            check_latent,
        ),
        Workload(
            "compare-cmnist",
            no_setup,
            lambda inputs, seed, out, size: [
                "compare", "--seed", str(seed), "--out", str(out), *_sized(size),
            ],
            check_compare,
        ),
    )
}
