#!/usr/bin/env python3
"""Pin every value ear_paper prints against tests/golden/paper.json.

Runs `ear_paper all --json` at EAR_SIM_JOBS=1 and at EAR_SIM_JOBS=4 and
requires the two files to be byte-identical, then compares the cells
with the golden file, keyed by entry / table / row / column:

  * GHz           within 0.05 GHz
  * %             within 1 percentage point
  * count, text   exactly
  * other         within 2 % relative, or 0.05 absolute near zero

A value that reads n/a must stay n/a, the quoted paper value and the
unit must not change, and a missing or an extra cell fails. Each
failing cell is printed with its key, the golden value, the new value
and the tolerance. Stdlib only:

    python3 tests/check_paper_golden.py EAR_PAPER GOLDEN WORKDIR

Exit 0 = every cell within tolerance, 1 = a cell moved, 2 = bad input.
After an intended change, regenerate the golden file with
`ear_paper all --json tests/golden/paper.json` and explain the moved
cells in CHANGES.md.
"""

import json
import math
import os
import subprocess
import sys


def tolerance(unit, golden):
    if unit == "GHz":
        return 0.05
    if unit == "%":
        return 1.0
    if unit in ("count", "text"):
        return 0.0
    return max(0.02 * abs(golden), 0.05)


def number(v):
    """A cell value as a float; quoted non-finite spellings give NaN."""
    return float(v) if isinstance(v, (int, float)) else float("nan")


def run_paper(binary, jobs, out_path):
    env = dict(os.environ, EAR_SIM_JOBS=str(jobs))
    r = subprocess.run([binary, "all", "--json", out_path], env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                       text=True)
    if r.returncode != 0:
        print(f"check_paper_golden: {binary} all exited {r.returncode} at "
              f"EAR_SIM_JOBS={jobs}: {r.stderr.strip()}", file=sys.stderr)
        return None
    with open(out_path, "rb") as f:
        return f.read()


def cells_by_key(doc, label):
    """Map each cell's "entry/table/row/column" key (empty parts left
    out) to the cell."""
    out = {}
    for c in doc["cells"]:
        parts = (c["entry"], c["table"], c["row"], c["column"])
        key = "/".join(p for p in parts if p)
        if key in out:
            raise ValueError(f"{label} has two cells keyed {key!r}")
        out[key] = c
    return out


def compare(golden, now):
    """Return one message per cell that moved, went missing or appeared."""
    failures = []
    for key, g in golden.items():
        n = now.get(key)
        if n is None:
            failures.append(f"{key}: missing (golden {g['value']!r})")
            continue
        if n["unit"] != g["unit"] or n.get("paper") != g.get("paper"):
            failures.append(
                f"{key}: unit/paper {n['unit']!r}/{n.get('paper')!r}, "
                f"golden {g['unit']!r}/{g.get('paper')!r}")
            continue
        if g["unit"] == "text":
            if n["value"] != g["value"]:
                failures.append(f"{key}: golden {g['value']!r}, now "
                                f"{n['value']!r} (exact)")
            continue
        gv, nv = number(g["value"]), number(n["value"])
        tol = tolerance(g["unit"], gv)
        if math.isnan(gv) or math.isnan(nv):
            ok = math.isnan(gv) and math.isnan(nv)
        else:
            ok = abs(nv - gv) <= tol
        if not ok:
            unit = "pp" if g["unit"] == "%" else g["unit"]
            failures.append(f"{key}: golden {g['value']!r}, now "
                            f"{n['value']!r} (tolerance ±{tol:g} {unit})")
    for key in now.keys() - golden.keys():
        failures.append(f"{key}: extra cell (now {now[key]['value']!r})")
    return failures


def main(argv):
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    binary, golden_path, workdir = argv[1:]
    os.makedirs(workdir, exist_ok=True)
    serial = run_paper(binary, 1, os.path.join(workdir, "paper_j1.json"))
    parallel = run_paper(binary, 4, os.path.join(workdir, "paper_j4.json"))
    if serial is None or parallel is None:
        return 2
    if serial != parallel:
        print("check_paper_golden: FAIL — the JSON at EAR_SIM_JOBS=1 and "
              "EAR_SIM_JOBS=4 differs (results must not depend on the "
              "worker count)", file=sys.stderr)
        return 1
    try:
        with open(golden_path) as f:
            golden = cells_by_key(json.load(f), golden_path)
        now = cells_by_key(json.loads(serial), "ear_paper output")
    except (OSError, ValueError, KeyError) as e:
        print(f"check_paper_golden: bad input: {e}", file=sys.stderr)
        return 2

    failures = compare(golden, now)
    for msg in failures:
        print(f"check_paper_golden: {msg}", file=sys.stderr)
    if failures:
        print(f"check_paper_golden: FAIL — {len(failures)} of "
              f"{len(golden)} cells", file=sys.stderr)
        return 1
    print(f"check_paper_golden: OK — {len(now)} cells within tolerance, "
          "identical at 1 and 4 workers")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
