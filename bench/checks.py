"""Exact output checks that do not reuse the library's own algorithms.

Each check returns None when the output is right and a one-line reason
otherwise.  They run outside the timed region.  Where the expected value
is a closed form or a published count it is written here as a constant;
where it is a table transformation (retraction, lambda/rho form) the
benchmark computes it with its own short code below.
"""

from __future__ import annotations

import hashlib
import json


def dumps(payload) -> str:
    """The CLI's wire format: compact JSON plus the newline print adds."""
    return json.dumps(payload, separators=(",", ":")) + "\n"


def axiom_fails(t, x: int, y: int, z: int) -> bool:
    return t[t[x][y]][t[x][z]] != t[t[y][x]][t[y][z]]


def first_violation(t):
    """The least (x, y, z) where the cycle-set axiom fails, or None."""
    n = len(t)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if axiom_fails(t, x, y, z):
                    return (x, y, z)
    return None


def own_retract_payload(t) -> dict:
    """The `retract` payload: classes numbered by least member, per level."""
    sizes, steps = [len(t)], []
    while len(t) > 1:
        class_of: dict = {}
        proj = [class_of.setdefault(tuple(row), len(class_of)) for row in t]
        m = len(class_of)
        if m == len(t):
            break
        q = [[0] * m for _ in range(m)]
        for x in range(len(t)):
            for y in range(len(t)):
                q[proj[x]][proj[y]] = proj[t[x][y]]
        steps.append({"projection": proj, "quotient": {"n": m, "table": q}})
        sizes.append(m)
        t = q
    mpl = len(sizes) - 1 if sizes[-1] == 1 else None
    return {"sizes": sizes, "mpl": mpl, "steps": steps}


def own_solution_payload(t) -> dict:
    """lambda_x = sigma_x^{-1} and rho_y(x) = lambda_x(y) . x."""
    n = len(t)
    lam = []
    for row in t:
        inv = [0] * n
        for y, v in enumerate(row):
            inv[v] = y
        lam.append(inv)
    rho = [[t[lam[x][y]][x] for x in range(n)] for y in range(n)]
    return {"n": n, "lambda": lam, "rho": rho}


def is_homomorphism(f, left, right) -> bool:
    """f is a bijection with f(x . y) = f(x) . f(y)."""
    n = len(left)
    if sorted(f) != list(range(n)) or len(right) != n:
        return False
    return all(
        f[left[x][y]] == right[f[x]][f[y]] for x in range(n) for y in range(n)
    )


def _parse(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, TypeError):
        return None


# -- cli-session ------------------------------------------------------------


def check_verify_valid(op, code, text):
    if code != 0:
        return f"exit code {code}, expected 0"
    got = _parse(text)
    if got != op["expect"]:
        return f"invariants {got!r} differ from {op['expect']!r}"
    return None


def check_verify_corrupt(op, code, text):
    if code != 1:
        return f"exit code {code}, expected 1"
    got = _parse(text)
    if not isinstance(got, dict) or set(got) != {"valid", "violations"} or got["valid"] is not False:
        return "rejection payload malformed"
    vs = got["violations"]
    if not isinstance(vs, list) or not 1 <= len(vs) <= 100:
        return f"violation list of length {len(vs) if isinstance(vs, list) else '?'}"
    t, last = op["table"], None
    for v in vs:
        if not isinstance(v, dict) or v.get("kind") != "axiom" or set(v) != {"kind", "x", "y", "z"}:
            return f"unexpected violation entry {v!r}"
        xyz = (v["x"], v["y"], v["z"])
        if not all(isinstance(c, int) and 0 <= c < len(t) for c in xyz) or not axiom_fails(t, *xyz):
            return f"reported violation {xyz} does not fail"
        if last is not None and xyz <= last:
            return f"violations out of order at {xyz}"
        last = xyz
    first = (vs[0]["x"], vs[0]["y"], vs[0]["z"])
    if first != op["first"]:
        return f"first violation {first}, least is {op['first']}"
    return None


def check_iso_pair(op, code, text):
    if code != 0:
        return f"exit code {code}, expected 0"
    got = _parse(text)
    if not isinstance(got, dict) or set(got) != {"isomorphic", "witness"} or got["isomorphic"] is not True:
        return "isomorphism payload malformed"
    if not is_homomorphism(got["witness"], op["left"], op["right"]):
        return "witness is not an isomorphism"
    return None


def check_non_iso_pair(op, code, text):
    if code != 1:
        return f"exit code {code}, expected 1"
    if _parse(text) != {"isomorphic": False}:
        return "non-isomorphic payload malformed"
    return None


def check_exact_bytes(op, code, text):
    if code != 0:
        return f"exit code {code}, expected 0"
    if text != op["expect_text"]:
        return "output bytes differ from the expected payload"
    return None


SESSION_CHECKS = {
    "verify": check_verify_valid,
    "verify-corrupt": check_verify_corrupt,
    "iso": check_iso_pair,
    "iso-non": check_non_iso_pair,
    "retract": check_exact_bytes,
    "solution": check_exact_bytes,
    "solution-invert": check_exact_bytes,
}


def check_session_op(op, code, text):
    return SESSION_CHECKS[op["kind"]](op, code, text)


# -- classify-reports -------------------------------------------------------


def check_report(op, code, text):
    if code != 0:
        return f"exit code {code}, expected 0"
    got = _parse(text)
    classes = got.get("classes") if isinstance(got, dict) else None
    if not isinstance(classes, list) or len(classes) != op["classes"]:
        return f"class count {len(classes) if isinstance(classes, list) else '?'}, expected {op['classes']}"
    if hashlib.sha256(text.encode()).hexdigest() != op["sha256"]:
        return "report bytes differ from the recorded digest"
    return None
