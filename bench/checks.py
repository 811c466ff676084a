"""Output checks for every benchmark job, made against exact theory kept in reference.json.

A job fails when its output breaks any of these:

- the documented format: the CSV header, or the JSON keys ``{config, results,
  metrics}``;
- conservation: detected + removed == emitted;
- the oracle column equals the exact theory in reference.json within 1e-12;
- ``jeong``/``compare``: the total variation (TV) from the frequency column to
  the exact distribution is within the bound in reference.json;
- ``robens --taps``: the two t2 panels re-sum exactly to the site counts;
- ``oracle``: probabilities sum to 1 and match the closed form within 1e-12;
- ``lgi``: the three-run verdict is ``violation`` with K inside its band, and
  the single-run K is inside its band around 1.

The single-run *verdict* (K - 1 > 3 stderr) is recorded but is not a pass
condition: it is a one-sided 3-sigma test on a handful of replicates, so on
correct code it reads ``violation`` for a few percent of jobs (about one job
in five at 2 replicates).  The single-run K band still fails a job whose K
moves toward the three-run value, which is what an invasive tap would do.
"""
from __future__ import annotations

import csv
import io
import json
import math

SITE_HEADER = "site,count,frequency,oracle_probability"
LGI_HEADER = ("protocol,K,stderr,q3_mean,q3q2_mean,p_plus,p_minus,"
              "replicates,verdict")
REPORT_KEYS = {"config", "results", "metrics"}
EXACT = 1e-12


def total_variation(p: dict, q: dict) -> float:
    """Half the L1 distance; computed here, not by qwalk, which is under test."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(x, 0.0) - q.get(x, 0.0)) for x in keys)


def check(kind: str, particles: int, data: bytes, ref: dict) -> tuple[list[str], dict]:
    """Problems found in one job's output (empty when it passes) and what was measured."""
    try:
        text = data.decode()
        if kind == "lgi":
            return _check_lgi(text, ref)
        if kind in ("robens_minus", "robens_taps"):
            return _check_robens(kind, particles, text, ref)
        if kind == "oracle5":
            return _check_oracle(text, ref)
        return _check_site_csv(kind, particles, text, ref)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def _site_rows(text: str) -> list[tuple[int, int, float, float]]:
    lines = text.splitlines()
    if not lines or lines[0] != SITE_HEADER:
        raise ValueError(f"header {lines[:1]!r} is not {SITE_HEADER!r}")
    return [(int(s), int(c), float(f), float(p))
            for s, c, f, p in (line.split(",") for line in lines[1:])]


def _oracle(ref: dict, kind: str) -> dict[int, float]:
    return {int(site): p for site, p in ref["oracles"][kind].items()}


def _check_sites(kind: str, rows: list[tuple[int, int, float, float]],
                 emitted: int, removed: int, ref: dict) -> tuple[list[str], dict]:
    problems = []
    oracle = _oracle(ref, kind)
    sites = [r[0] for r in rows]
    if sites != sorted(set(sites)) or not set(oracle) <= set(sites):
        problems.append(f"sites {sites} do not cover {sorted(oracle)} in order")
    detected = sum(r[1] for r in rows)
    if detected + removed != emitted:
        problems.append(f"conservation: {detected} detected + {removed} removed "
                        f"!= {emitted} emitted")
    for site, count, freq, prob in rows:
        if freq != count / emitted:
            problems.append(f"site {site}: frequency {freq!r} != {count}/{emitted}")
        if abs(prob - oracle.get(site, 0.0)) > EXACT:
            problems.append(f"site {site}: oracle {prob!r} != exact "
                            f"{oracle.get(site, 0.0)!r}")
    info: dict = {}
    bound = ref["tv_bounds"].get(kind)
    if bound is not None:
        tv = total_variation({r[0]: r[1] / emitted for r in rows}, oracle)
        info["total_variation"] = tv
        if tv > bound:
            problems.append(f"total variation {tv:.4f} > bound {bound}")
    return problems, info


def _check_site_csv(kind: str, particles: int, text: str,
                    ref: dict) -> tuple[list[str], dict]:
    return _check_sites(kind, _site_rows(text), particles, 0, ref)


def _check_robens(kind: str, particles: int, text: str,
                  ref: dict) -> tuple[list[str], dict]:
    report = json.loads(text)
    if set(report) != REPORT_KEYS:
        return [f"JSON keys {sorted(report)} are not {sorted(REPORT_KEYS)}"], {}
    results = report["results"]
    rows = [(r["site"], r["count"], r["frequency"], r["oracle_probability"])
            for r in results["sites"]]
    emitted, removed = results["emitted"], results["removed"]
    problems = []
    if emitted != particles:
        problems.append(f"emitted {emitted} != {particles} particles")
    more, info = _check_sites(kind, rows, emitted, removed, ref)
    problems += more
    if kind == "robens_minus" and removed == 0:
        problems.append("removal filter absorbed no particle")
    if kind == "robens_taps":
        merged: dict[int, int] = {}
        for panel in ("t2_minus", "t2_plus"):
            for r in results["panels"][panel]:
                merged[r["site"]] = merged.get(r["site"], 0) + r["count"]
        if merged != {r[0]: r[1] for r in rows}:
            problems.append("t2 panels do not re-sum to the site counts")
    return problems, info


def _check_oracle(text: str, ref: dict) -> tuple[list[str], dict]:
    rows = _site_rows(text)
    problems = []
    total = sum(r[3] for r in rows)
    if abs(total - 1.0) > EXACT:
        problems.append(f"probabilities sum to {total!r}")
    if any(r[1] != 0 or r[2] != 0.0 for r in rows):
        problems.append("oracle report has nonzero count or frequency")
    closed = {int(s): p for s, p in ref["closed_form"]["oracle5"].items()}
    if sorted(closed) != [r[0] for r in rows]:
        problems.append("oracle sites differ from the closed form's")
    diff = max(abs(r[3] - closed.get(r[0], 0.0)) for r in rows)
    if diff > EXACT:
        problems.append(f"closed-form diff {diff!r} > {EXACT}")
    return problems, {"closed_form_max_abs_diff": diff}


def _check_lgi(text: str, ref: dict) -> tuple[list[str], dict]:
    if text.splitlines()[:1] != [LGI_HEADER]:
        return [f"header is not {LGI_HEADER!r}"], {}
    rows = {r["protocol"]: r for r in csv.DictReader(io.StringIO(text))}
    if sorted(rows) != ["single_run", "three_run"]:
        return [f"protocols {sorted(rows)}"], {}
    problems = []
    info = {}
    for protocol, row in rows.items():
        k = float(row["K"])
        info[f"{protocol}_K"] = k
        info[f"{protocol}_verdict"] = row["verdict"]
        lo, hi = ref["k_bands"][protocol]
        if not lo <= k <= hi:
            problems.append(f"{protocol} K {k:.4f} outside [{lo}, {hi}]")
        p_sum = float(row["p_plus"]) + float(row["p_minus"])
        if not math.isclose(p_sum, 1.0, abs_tol=1e-9):
            problems.append(f"{protocol} p_plus + p_minus = {p_sum!r}")
    if rows["three_run"]["verdict"] != "violation":
        problems.append(f"three_run verdict {rows['three_run']['verdict']!r}")
    return problems, info
