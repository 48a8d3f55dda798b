"""Write bench/reference.json: the exact and closed-form values that the
benchmark's correctness checks compare against.

Exact math must not change, so regenerate this file only when a change
is meant to alter an exact result, and say so where the change is
recorded.  Run from the repository root:

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from treefactor.bounds import normalized_mi_bound, sharpness_report  # noqa: E402
from treefactor.processes import (  # noqa: E402
    RULES,
    GaussianSignSpec,
    exact_joint,
    gaussian_sign_closed_form,
)

import jobs  # noqa: E402  (bench/ is on sys.path as the script's directory)


def main() -> None:
    measure = {}
    for process, d, k in jobs.EXACT_MEASURES + jobs.MC_BLOCK_RULES:
        pm = exact_joint(RULES[process](d), d, k)
        measure[jobs.measure_key(process, d, k)] = {
            "H": pm.entropy_v.value,
            "I": pm.mi.value,
            "nmi": pm.nmi.value,
            "corr": pm.corr.value,
            "joint": [list(row) for row in pm.joint.matrix],
        }
    closed_form = {}
    for d, eps, D, k in jobs.CLOSED_FORMS:
        cf = gaussian_sign_closed_form(GaussianSignSpec(d, eps, D, tail_tol=None), k)
        closed_form[jobs.gaussian_key(d, eps, D, k)] = {"corr": cf["corr"], "mi": cf["mi"]}
    sharpness = {}
    for d, kmax, rmax in jobs.SHARPNESS:
        for row in sharpness_report(d, kmax, rmax):
            sharpness[jobs.sharpness_key(d, rmax, row.k)] = row.ratio
    payload = {
        "measure": measure,
        "gaussian": closed_form,
        "sharpness": sharpness,
        "listing_nmi_bound": float(normalized_mi_bound(3, jobs.LISTING_K)),
    }
    path = Path(__file__).with_name("reference.json")
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
