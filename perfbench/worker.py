"""One benchmark process: sets up a workload, then (in `run` mode) runs its
operations in-process, closed loop, one at a time.

    python3 perfbench/worker.py WORKLOAD SEED MODE ROUNDS WORKDIR [TRACE_FILE]

MODE is `setup` (set up, report, exit) or `run` (set up, then run ROUNDS
rounds). The parent passes `src` on PYTHONPATH. Output is JSON lines on stdout: a
`ready` line when set-up is done, then one line with every operation.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from fractions import Fraction
from itertools import permutations
from math import gcd

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from check import Verdict, check_ed, check_structure  # noqa: E402
from inputs import CLI_STANDARD, LIBRARY_TWISTED, SPECS, Twister, totient, untwist_vector  # noqa: E402
from qalg.algebra import FDAlgebra  # noqa: E402
from qalg.corpus import symmetric3_table  # noqa: E402
from qalg.edbounds import bound_from_wedderburn  # noqa: E402
from qalg.errors import UnknownIndexError  # noqa: E402
from qalg.linalg import rat_to_str  # noqa: E402
from qalg import modules, structure  # noqa: E402

perf = time.perf_counter


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# cli-standard: the worker only writes the input files.


def setup_cli(workdir: str) -> None:
    os.makedirs(workdir, exist_ok=True)
    for name in CLI_STANDARD:
        with open(os.path.join(workdir, name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(SPECS[name].build().to_json_dict(), fh)


# ---------------------------------------------------------------------------
# In-process workloads


class Runner:
    """Runs rounds of operations; `todo(rnd)` lists the arguments of each
    operation of round `rnd`, in order. A tracer, when set, is told which
    operation is running."""

    tracer = None

    def round(self, rnd: int) -> list[dict]:
        out = []
        for args in self.todo(rnd):
            if self.tracer:
                self.tracer.op += 1
            out.append(self.op(*args))
        return out


class Library(Runner):
    """Each round runs every base algebra once, under a twist no earlier
    round of this process used."""

    def __init__(self, seed: int):
        self.seed = seed
        self.twister = Twister(seed)
        self.first = self._inputs(0)

    def _inputs(self, rnd: int) -> list[tuple[str, dict]]:
        names = list(LIBRARY_TWISTED)
        random.Random(f"{self.seed}/order/{rnd}").shuffle(names)
        return [(n, self.twister.draw(n, str(rnd))[0].to_json_dict()) for n in names]

    def todo(self, rnd: int) -> list[tuple[str, dict]]:
        # Round 0 is generated in set-up; later rounds between rounds.
        return [(f"{name}@{rnd}", name, obj) for name, obj in (self.first if rnd == 0 else self._inputs(rnd))]

    @staticmethod
    def op(op_id: str, name: str, obj: dict) -> dict:
        truth = SPECS[name].truth
        v = Verdict()
        refusal = None
        t0 = perf()
        try:
            a = FDAlgebra.from_json_dict(obj)
            a.validate()
            rad = structure.jacobson_radical(a)
            w = structure.wedderburn_decomposition(a)
            try:
                ed = bound_from_wedderburn(w, 2)
            except UnknownIndexError as exc:
                refusal = str(exc)
            seconds = perf() - t0
        except Exception as exc:  # any other exception is a failed operation
            return v.fail(f"{type(exc).__name__}: {exc}").record(op_id, perf() - t0)
        shapes = [(f.factor_dim, f.center_dim, f.degree_over_center, f.matrix_size) for f in w.factors]
        check_structure(truth, rad.radical.dim, rad.nilpotency_index, shapes, v)
        value = None if refusal else ("-infinity" if ed.value is None else rat_to_str(ed.value))
        check_ed(truth, value, refusal, v)
        if v.refused and not v.uncertified:
            v.fail("ed bound refused although every matrix size is certified")
        return v.record(op_id, seconds)


# ---------------------------------------------------------------------------
# modules-lift


def _ramanujan(d: int, k: int) -> int:
    """Sum of the k-th powers of the primitive d-th roots of unity."""
    g = gcd(d, k)
    q = d // g
    mu = _mobius(q)
    return mu * totient(d) // totient(q) if mu else 0


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def _basis(dim: int, *indices: int, coeff: Fraction = Fraction(1)) -> list[Fraction]:
    v = [Fraction(0)] * dim
    for i in indices:
        v[i] += coeff
    return v


def _known_idempotents(name: str) -> tuple[dict, list]:
    """Central primitive idempotents by factor label, and non-central
    primitive ones as (vector, factor label, rank in that factor), all in the
    standard basis of the algebra, from how the algebra is built."""
    if name in ("UT4", "UT5"):
        n = int(name[2:])
        pairs = [(p, q) for p in range(n) for q in range(p, n)]
        return {f"E{p}{p}": _basis(len(pairs), pairs.index((p, p))) for p in range(n)}, []
    if name in ("M2dual", "M3dual"):
        n = int(name[1])

        def idx(p, q):  # E_pq (x) 1 in matrix_over's (p, q, t) order
            return (p * n + q) * 2

        unit = _basis(2 * n * n, *(idx(p, p) for p in range(n)))
        noncentral = [(_basis(2 * n * n, idx(0, 0)), "M", Fraction(1, n))]
        if n == 3:
            noncentral.append((_basis(18, idx(0, 0), idx(1, 1)), "M", Fraction(2, 3)))
        return {"M": unit}, noncentral
    if name == "M2UT2":

        def idx(p, q, t):  # UT_2 basis: E11, E12, E22
            return (p * 2 + q) * 3 + t

        central = {"top": _basis(12, idx(0, 0, 0), idx(1, 1, 0)), "bottom": _basis(12, idx(0, 0, 2), idx(1, 1, 2))}
        noncentral = [(_basis(12, idx(0, 0, 0)), "top", Fraction(1, 2)), (_basis(12, idx(1, 1, 2)), "bottom", Fraction(1, 2))]
        return central, noncentral
    if name == "QS3":
        table = symmetric3_table()
        perms = sorted(permutations(range(3)))
        sign = [(-1) ** sum(1 for i in range(3) for j in range(i) if p[j] > p[i]) for p in perms]
        identity = next(i for i in range(6) if all(table[i][j] == j for j in range(6)))
        transposition = next(i for i in range(6) if sign[i] == -1 and table[i][i] == identity)
        triv = [Fraction(1, 6)] * 6
        sgn = [Fraction(s, 6) for s in sign]
        two = [Fraction(int(i == identity)) - x - y for i, (x, y) in enumerate(zip(triv, sgn))]
        half = _basis(6, identity, transposition, coeff=Fraction(1, 2))  # (1 + t)/2
        return (
            {"triv": triv, "sgn": sgn, "two": two},
            [([h - x for h, x in zip(half, triv)], "two", Fraction(1, 2))],
        )
    if name == "QC12":
        n = 12
        return {f"d{d}": [Fraction(_ramanujan(d, k), n) for k in range(n)] for d in range(1, n + 1) if n % d == 0}, []
    raise KeyError(name)


MODULE_ALGEBRAS = ("UT4", "UT5", "M2dual", "M3dual", "M2UT2", "QS3", "QC12", "UT4-twisted")
MATRICES_PER_ALGEBRA = 8


class Modules(Runner):
    """Algebras built and decomposed once; each operation lifts one
    idempotent matrix over the semisimple quotient and compares the module
    with the previous one on the same algebra."""

    def __init__(self, seed: int):
        self.seed = seed
        self.cases: list[tuple] = []  # (algebra label, quotient presentation, matrix, true rank vector)
        twister = Twister(seed)
        for label in MODULE_ALGEBRAS:
            base = label.split("-")[0]
            central, noncentral = _known_idempotents(base)
            if label.endswith("-twisted"):
                a, _, p_inv = twister.draw(base, "modules")
                central = {k: untwist_vector(p_inv, v) for k, v in central.items()}
                noncentral = [(untwist_vector(p_inv, v), f, r) for v, f, r in noncentral]
            else:
                a = SPECS[base].build()
            self._add_cases(label, base, a, central, noncentral)
        self.prev: dict[str, tuple] = {}

    def _add_cases(self, label, base, a, central, noncentral) -> None:
        rad = structure.jacobson_radical(a)
        w = structure.wedderburn_decomposition(a)
        shapes = [(f.factor_dim, f.center_dim, f.degree_over_center, f.matrix_size) for f in w.factors]
        v = check_structure(SPECS[base].truth, rad.radical.dim, rad.nilpotency_index, shapes, Verdict())
        if not v.ok or v.uncertified:
            raise RuntimeError(f"{label}: set-up decomposition is wrong: {v.why or 'uncertified size'}")
        qp = rad.quotient
        s = qp.quotient
        order = [f.central_idempotent for f in w.factors]
        position = {}
        for key, vec in central.items():
            e = qp.project(vec)
            if e not in order:
                raise RuntimeError(f"{label}: central idempotent {key} is not a reported factor")
            position[key] = order.index(e)
        # Idempotents over the quotient, each with its rank per factor.
        pool = []
        for key, vec in central.items():
            pool.append((qp.project(vec), {key: Fraction(1)}))
        keys = list(central)
        for i in range(len(keys) - 1):
            pool.append((qp.project([x + y for x, y in zip(central[keys[i]], central[keys[i + 1]])]), {keys[i]: Fraction(1), keys[i + 1]: Fraction(1)}))
        pool.append((s.unit, {k: Fraction(1) for k in keys}))
        for vec, key, r in noncentral:
            pool.append((qp.project(vec), {key: r}))
        rng = random.Random(f"{self.seed}/matrices/{label}")
        for k in range(MATRICES_PER_ALGEBRA):
            size = 1 + k % 4
            rows = [[s.zero() for _ in range(size)] for _ in range(size)]
            ranks = [Fraction(0)] * len(order)
            u = 0
            while u < size:
                e, e_ranks = rng.choice(pool)
                rows[u][u] = e
                picked = [e_ranks]
                if u + 1 < size and rng.random() < 0.5:
                    # [[e, f - e], [0, f]] is idempotent for idempotents e, f
                    # and has the rank of diag(e, f).
                    f, f_ranks = rng.choice(pool)
                    rows[u][u + 1] = tuple(y - x for x, y in zip(e, f))
                    rows[u + 1][u + 1] = f
                    picked.append(f_ranks)
                    u += 1
                u += 1
                for rk in picked:
                    for key, r in rk.items():
                        ranks[position[key]] += r
            self.cases.append((label, qp, modules.IdempotentMatrix(s, rows), tuple(ranks)))

    def todo(self, rnd: int) -> list[tuple]:
        order = list(range(len(self.cases)))
        random.Random(f"{self.seed}/order/{rnd}").shuffle(order)
        return [(i,) + self.cases[i] for i in order]

    def op(self, case, label, qp, matrix, truth) -> dict:
        v = Verdict()
        prev = self.prev.get(label)
        t0 = perf()
        try:
            lifted = modules.lift_idempotent_matrix(matrix, qp)
            module = modules.projective_module(lifted)
            same = modules.modules_isomorphic(module, prev[0]) if prev else None
            seconds = perf() - t0
        except Exception as exc:  # any exception is a failed operation
            return v.fail(f"{type(exc).__name__}: {exc}").record(f"{label}#{case}", perf() - t0)
        if module.rank_vector != truth:
            v.fail(f"rank vector {module.rank_vector}, expected {truth}")
        elif prev and same != (truth == prev[1]):
            v.fail(f"modules_isomorphic returned {same}")
        self.prev[label] = (module, truth)
        return v.record(f"{label}#{case}", seconds)


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    workload, seed, mode, rounds, workdir = argv[0], int(argv[1]), argv[2], int(argv[3]), argv[4]
    trace_file = argv[5] if len(argv) > 5 else None
    if workload == "cli-standard":
        setup_cli(workdir)
        emit({"ready": True})
        return 0
    runner = Library(seed) if workload == "library-twisted" else Modules(seed)
    emit({"ready": True})
    if mode == "setup":
        return 0
    if trace_file:
        from tracer import Tracer

        runner.tracer = Tracer()
        runner.tracer.install()
    ops: list[dict] = []
    for rnd in range(rounds):
        ops.extend(runner.round(rnd))
    if trace_file:
        runner.tracer.dump(trace_file)
    emit({"ops": ops})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
