"""Answer checking against the committed references (references.json).

A response fails when it is an error or missing, when a BER or flux-based
mean time between slips is more than REL_TOL off its reference, or when its
first-passage mean time to slip differs from its own flux mean by more than
PASSAGE_GAP where that mean is at least PASSAGE_MIN_BITS bits. A degraded
response that is right counts as ok.

Only the first two are reference mismatches; first passage has no committed
reference (it is checked against the response's own flux mean), so a run
whose only failures are passage disagreements still reports correct=true.
"""

import json
import math
import os

REL_TOL = 1e-4
PASSAGE_GAP = 0.10
PASSAGE_MIN_BITS = 1e3
BACKEND_TOL = 1e-6  # CSR and Kronecker references must agree this well

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def rel_gap(got, ref):
    if not (isinstance(got, (int, float)) and math.isfinite(got) and math.isfinite(ref)):
        return math.inf
    return abs(got - ref) / max(abs(ref), 1e-300)


def load_refs(path=REFS_PATH):
    with open(path) as f:
        return json.load(f)["items"]


def stale_items(items, refs):
    """Pool items with no reference, or whose request changed since the
    references were generated."""
    return [it.name for it in items if it.name not in refs or refs[it.name]["request"] != it.template()]


def numbers(answers):
    """(label, value) for every reference-checked number of a payload."""
    if "points" in answers:
        return [(f"points[{i}].ber", p["ber"]) for i, p in enumerate(answers["points"])]
    return [(k, answers[k]) for k in ("ber", "mean_bits_between_slips") if k in answers]


def check(ref_answers, response):
    """(ok, reasons, reference_mismatch) for one response."""
    if response is None:
        return False, ["no answer before the client deadline"], False
    if not response.get("ok"):
        code = response.get("error", {}).get("code", "?")
        return False, [f"error {code}"], False
    result = response.get("result", {})
    reasons = []
    got = dict(numbers(result))
    for label, ref in numbers(ref_answers):
        gap = rel_gap(got.get(label), ref)
        if gap > REL_TOL:
            reasons.append(f"{label} {got.get(label)!r} vs reference {ref!r} (rel {gap:.2e})")
    mismatch = bool(reasons)
    gap = passage_gap(result)
    if gap is not None and gap > PASSAGE_GAP:
        reasons.append(
            f"first passage {result['mean_bits_to_first_slip']:.4g} vs flux mean "
            f"{result['mean_bits_between_slips']:.4g} bits (rel {gap:.2f})"
        )
    return not reasons, reasons, mismatch


def passage_gap(result):
    """Relative gap between a slip answer's first-passage mean and its own
    flux mean; None where the rule does not apply (no passage answer, or a
    flux mean under PASSAGE_MIN_BITS bits)."""
    first = result.get("mean_bits_to_first_slip")
    flux = result.get("mean_bits_between_slips")
    if first is None or flux is None or flux < PASSAGE_MIN_BITS:
        return None
    return rel_gap(first, flux)


def same_answers(a, b):
    """Replay-vs-served agreement: the same error code, or every checked
    number within REL_TOL."""
    if a is None or b is None:
        return False
    if not a.get("ok") or not b.get("ok"):
        return a.get("error", {}).get("code") == b.get("error", {}).get("code")
    ra, rb = a.get("result", {}), b.get("result", {})
    na, nb = dict(numbers(ra)), dict(numbers(rb))
    if na.keys() != nb.keys():
        return False
    if any(rel_gap(na[k], nb[k]) > REL_TOL for k in na):
        return False
    fa, fb = ra.get("mean_bits_to_first_slip"), rb.get("mean_bits_to_first_slip")
    return (fa is None) == (fb is None) and (fa is None or rel_gap(fa, fb) <= REL_TOL)
