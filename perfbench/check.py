"""Answer checks against the truth in `inputs`. No check runs the pipeline
again; each compares a reported value with one fixed by construction."""

from __future__ import annotations

from dataclasses import dataclass

from inputs import Truth

# A refusal `bound_from_wedderburn` documents: it needs a matrix size the
# search could not certify (UnknownIndexError, CLI exit code 3).
REFUSAL_TEXT = "uncertified matrix size"


@dataclass
class Verdict:
    ok: bool = True
    uncertified: int = 0
    known: int = 0
    refused: bool = False
    why: str = ""

    def fail(self, why: str) -> "Verdict":
        self.ok = False
        self.why = self.why or why
        return self

    def record(self, name: str, seconds: float) -> dict:
        """One operation as the benchmark reports it."""
        return {"name": name, "s": seconds, "ok": self.ok, "unc": self.uncertified, "known": self.known, "why": self.why}


def check_structure(
    truth: Truth,
    radical_dim: int,
    nilpotency_index: int | None,
    factors: list[tuple[int, int, int, int | None]],
    v: Verdict,
) -> Verdict:
    """Radical data and (factor_dim, center_dim, degree, size) per factor;
    a size of None is uncertified, any other size must be the true one."""
    v.known += len(truth.factors)
    if radical_dim != truth.radical_dim:
        return v.fail(f"radical dim {radical_dim}, expected {truth.radical_dim}")
    if nilpotency_index is not None and nilpotency_index != truth.nilpotency_index:
        return v.fail(f"nilpotency index {nilpotency_index}, expected {truth.nilpotency_index}")
    shapes = sorted(f[:3] for f in factors)
    if shapes != [t[:3] for t in truth.factors]:
        return v.fail(f"factor shapes {shapes}, expected {[t[:3] for t in truth.factors]}")
    # Sizes are matched within each shape: factors of one shape are
    # interchangeable, so compare the certified sizes as multisets.
    for shape in set(shapes):
        true_sizes = sorted(t[3] for t in truth.factors if t[:3] == shape)
        reported = [f[3] for f in factors if f[:3] == shape]
        v.uncertified += sum(1 for s in reported if s is None)
        remaining = list(true_sizes)
        for s in reported:
            if s is None:
                continue
            if s not in remaining:
                return v.fail(f"certified matrix size {s} for shape {shape}, true sizes {true_sizes}")
            remaining.remove(s)
    return v


def check_ed(truth: Truth, value: str | None, refusal: str | None, v: Verdict) -> Verdict:
    """`value` is the reported bound ("-infinity" for minus infinity);
    `refusal` is the error text when the bound was refused."""
    if refusal is not None:
        if REFUSAL_TEXT not in refusal:
            return v.fail(f"undocumented refusal: {refusal}")
        v.refused = True
        return v
    if value != truth.ed2:
        return v.fail(f"ed value {value}, expected {truth.ed2}")
    return v
