"""Independent reference for every op's exit code and JSON payload.

Generic specs are checked against closed forms taken from the paper, not
from `hhdeform.homcomplex`:

* P^n has one summand A e_i (x) e_j A per generator (n, r, i), with
  j = i + n - 2r mod m, and Hom of that summand into A is the corner
  e_i A e_j.  So dim Hom(P^n, A) is a sum of corner dimensions.
* dim HH^n is m+1, 2, 1 and then 0 when zeta is not a root of unity.
* With im^0 = 0, rank-nullity gives ker^n = hh^n + im^n and
  im^{n+1} = hom^n - ker^n, so the kernel and image columns follow.

Non-generic `compute` payloads are checked against a table of raw
dimensions keyed by (m, zeta), recorded by `record.py`.  It does not
depend on q because rescaling the arrows makes the algebra depend on zeta
alone.
"""

import json
import re
from fractions import Fraction

from workloads import ROOTS_OF_UNITY, product

PAYLOAD_KEYS = {"spec", "degrees", "ring", "checks"}


def corner_dim(i, j, m):
    """dim e_i A e_j: e_i and z_i on the diagonal, a_i into i+1, abar into i-1."""
    dim = 2 if i == j else 0
    dim += (j == (i + 1) % m) + (j == (i - 1) % m)
    return dim


def hom_dim(n, m):
    return sum(corner_dim(i, (i + n - 2 * r) % m, m) for i in range(m) for r in range(n + 1))


def hh_dim(n, m):
    return (m + 1, 2, 1)[n] if n < 3 else 0


def generic_rows(m, top):
    rows = []
    im = 0
    for n in range(top + 1):
        hom, hh = hom_dim(n, m), hh_dim(n, m)
        ker = hh + im
        rows.append({"n": n, "hom_dim": hom, "ker": ker, "im": im, "hh": hh})
        im = hom - ker
    return rows


def ring_relations(m):
    """Relations every generic ring report must verify; further entries may
    only be "dim HH^n = 0" for n >= 3."""
    names = {"dim HH^0 = m+1", "dim HH^1 = 2", "dim HH^2 = 1", "u1, u2 independent",
             "u1 u1 = 0", "u2 u2 = 0", "u1 u2 != 0", "u1 u2 + u2 u1 = 0",
             "total dimension = m+4"}
    names |= {f"x{i} x{j} = 0" for i in range(m) for j in range(m)}
    names |= {f"x{i} u{k} = 0" for i in range(m) for k in (1, 2)}
    return names


def table_key(m, zeta):
    return f"{m},{zeta}"


def _spec_problems(o, spec):
    q = [Fraction(v) for v in o["q"]]
    zeta = product(q)
    want = {"m": o["m"], "q": o["q"], "zeta": str(zeta), "generic": zeta not in ROOTS_OF_UNITY}
    return [] if spec == want else [f"spec {spec} != {want}"]


def _compute_problems(o, payload, table):
    m = o["m"]
    top = o["max_degree"] if o["max_degree"] is not None else 2 * m + 6
    problems = _spec_problems(o, payload["spec"])
    if payload["ring"] is not None:
        problems.append("compute returned a ring")
    if o["non_generic"]:
        zeta = product(Fraction(v) for v in o["q"])
        recorded = table.get(table_key(m, zeta), [])
        if len(recorded) <= top:
            return problems + [f"no recorded raw dimensions for m={m}, zeta={zeta} to degree {top}"]
        want_rows, want_checks = recorded[: top + 1], []
    else:
        want_rows = generic_rows(m, top)
        want_checks = [{"name": "closed-form-comparison", "pass": True, "detail": ""}]
    for got, want in zip(payload["degrees"], want_rows):
        if got != want:
            problems.append(f"degree {want['n']}: {got} != {want}")
            break
    if len(payload["degrees"]) != len(want_rows):
        problems.append(f"{len(payload['degrees'])} degrees, expected {len(want_rows)}")
    if payload["checks"] != want_checks:
        problems.append(f"checks {payload['checks']} != {want_checks}")
    return problems


def _ring_problems(m, ring):
    if ring is None:
        return ["ring check ran but the payload has no ring"]
    problems = []
    if ring.get("generators") != [f"x{i}" for i in range(m)] + ["u1", "u2"]:
        problems.append(f"ring generators {ring.get('generators')}")
    if ring.get("total_dim") != m + 4 or not ring.get("passed") or ring.get("failures"):
        problems.append(f"ring total {ring.get('total_dim')}, failures {ring.get('failures')}")
    verified = set(ring.get("relations_verified", ()))
    missing = ring_relations(m) - verified
    extra = {r for r in verified - ring_relations(m)
             if not re.fullmatch(r"dim HH\^([3-9]|[1-9]\d+) = 0", r)}
    if missing or extra:
        problems.append(f"ring relations missing {sorted(missing)}, unexpected {sorted(extra)}")
    return problems


def _verify_problems(o, payload, table):
    problems = _spec_problems(o, payload["spec"])
    if payload["degrees"] != []:
        problems.append("verify returned degree rows")
    names = [c.get("name") for c in payload["checks"]]
    if names != o["checks"]:
        problems.append(f"checks ran {names}, asked for {o['checks']}")
    problems += [f"check {c.get('name')} failed: {c.get('detail')}"
                 for c in payload["checks"] if c.get("pass") is not True]
    if "ring" in o["checks"]:
        problems += _ring_problems(o["m"], payload["ring"])
    elif payload["ring"] is not None:
        problems.append("ring payload without a ring check")
    return problems


def _sweep_problems(o, payload, table):
    lo, hi = (int(p) for p in o["m_range"].split(":"))
    problems = []
    if payload["spec"].get("m") != o["m_range"]:
        problems.append(f"sweep spec {payload['spec']}")
    want = [(m, Fraction(z)) for m in range(lo, hi + 1) for z in o["zetas"]]
    names = [c.get("name") for c in payload["checks"]]
    if names != [f"m={m}, zeta={z}" for m, z in want]:
        return problems + [f"sweep entries {names}"]
    for (m, zeta), chk in zip(want, payload["checks"]):
        detail = chk.get("detail", "")
        if zeta in ROOTS_OF_UNITY:
            if not detail.startswith("skipped"):
                problems.append(f"{chk['name']}: root of unity not skipped ({detail})")
            continue
        total = re.match(r"total dim (\d+)", detail)
        if chk.get("pass") is not True or not total or int(total.group(1)) != m + 4:
            problems.append(f"{chk['name']}: {detail}, closed form {m + 4}")
    return problems


CHECKERS = {"compute": _compute_problems, "verify": _verify_problems, "sweep": _sweep_problems}


def problems(o, code, text, table):
    """Ways in which one op's result disagrees with the reference; empty
    when the op agrees."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(payload, dict) or set(payload) != PAYLOAD_KEYS:
        return ["payload keys differ from {spec, degrees, ring, checks}"]
    return CHECKERS[o["cmd"]](o, payload, table)
