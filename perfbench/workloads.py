"""The benchmark's three workloads: seeded inputs, ops and their checks.

A warm op is a pair (thunk, check).  The runner times ``thunk()`` alone and
calls ``check(result)`` outside the timed window; an op passes when the check
returns True.  Inputs depend only on the seed and the op's position in the
stream, so a seed always yields the same ops.

cli-sweep     the README's CLI catalogue, each command a fresh process timed
              by ``child.py``; ``cli_check`` compares its report with the
              JSON golden captured from the engine.
normalize-stream
              ``prolong.normalize_ctorsion`` on random degree-k 2-cochains,
              checked by the exact round trip and residual membership.
tube-points   pointwise CR evaluations at random rational cone points,
              checked against the paper's facts (Levi rank 1, real Levi rank
              2, kernel = rib, Freeman ranks (2, 1, 0), cubic form nonzero).
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"
NORMALIZE_INPUT = "perfbench/inputs/normalize_k2.json"  # relative to ROOT

WORKLOADS = ("cli-sweep", "normalize-stream", "tube-points")
CHILD = HERE / "child.py"

# (golden name, CLI arguments): the catalogue of README.md, in its order
CLI_COMMANDS = (
    ("verify-jacobi", ["verify", "jacobi"]),
    ("verify-table1", ["verify", "table1"]),
    ("verify-structeq", ["verify", "structeq"]),
    ("cohomology", ["cohomology", "--ell", "2", "--k", "2"]),
    ("hodge", ["hodge", "--ell", "2", "--k", "3"]),
    ("prolong", ["prolong", "--step", "all"]),
    ("normalize", ["normalize", "--k", "2", "--input", NORMALIZE_INPUT]),
    ("model-quadric", ["model", "quadric", "--point",
                       "0,-1/2,3,0,4,0,5,0,0,-1/2"]),
    ("model-embed", ["model", "embed", "--z", "3,4,5,0,0,0"]),
    ("model-levi", ["model", "levi", "--z", "1,0,1,0,0,0"]),
    ("model-cubic", ["model", "cubic", "--z", "3,4,5,1/2,-2,1"]),
    ("model-freeman", ["model", "freeman", "--z", "5,12,13,0,1,-1/3"]),
    ("model-identities", ["model", "identities"]),
    ("constraints", ["constraints"]),
)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def setup(workload: str):
    """Import so32cr and fill the caches the workload's first op needs."""
    import so32cr.cli  # noqa: F401  (imports every module, as the CLI does)
    if workload == "normalize-stream":
        from so32cr import cochains, prolong
        for k in (1, 2, 3):
            prolong.normalize_ctorsion(cochains.Cochain.zero(2, k))
    elif workload == "tube-points":
        from so32cr import tube
        tube.rho()
        tube.cone_fields()


# ---------------------------------------------------------------------------
# cli-sweep
# ---------------------------------------------------------------------------

def cli_sweep_order(rng: random.Random):
    """One sweep: the 14 commands in a seeded order."""
    order = list(CLI_COMMANDS)
    rng.shuffle(order)
    return order


def cli_check(name, proc, json_path: Path):
    """A command passes when it exits 0 and its --json report equals the
    golden byte for byte."""
    if proc.returncode != 0:
        sys.stderr.write(f"{name}: exit {proc.returncode}\n"
                         + proc.stderr.decode(errors="replace"))
        return False
    if (not json_path.exists() or json_path.read_bytes()
            != (GOLDENS / f"{name}.json").read_bytes()):
        sys.stderr.write(f"{name}: report differs from its golden\n")
        return False
    return True


# ---------------------------------------------------------------------------
# normalize-stream
# ---------------------------------------------------------------------------

def _rational(rng: random.Random, height: str) -> Fraction:
    if height == "small":
        return Fraction(rng.randint(-3, 3))
    if height == "medium":
        return Fraction(rng.randint(-10**3, 10**3), rng.randint(1, 10**3))
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**20))


def random_ctorsion(rng: random.Random):
    """A degree-k 2-cochain, k in {1, 2, 3} (slices of dimension 4, 8, 10).

    The op draws one coefficient height: small Gaussian integers, rationals
    of three-digit height, or rationals of 20- to 30-digit height; about a
    quarter of the coefficients are zero."""
    from so32cr.cochains import Cochain, cochain_dim
    from so32cr.scalars import GQ
    k = rng.choice((1, 2, 3))
    height = rng.choice(("small", "medium", "large"))
    coords = [
        GQ(0) if rng.random() < 0.25
        else GQ(_rational(rng, height), _rational(rng, height))
        for _ in range(cochain_dim(2, k))
    ]
    return Cochain(2, k, coords)


def normalize_op(rng: random.Random):
    from so32cr import cochains, prolong
    from so32cr.carriers import Carrier
    c = random_ctorsion(rng)

    def thunk():
        return prolong.normalize_ctorsion(c)

    def check(result):
        b, residual = result
        carrier = Carrier(prolong.STEP_CARRIERS[c.k])
        back = cochains.coboundary(
            prolong.cochain_of_endo(carrier, b, c.k)) + residual
        return (back.coords == c.coords
                and prolong.normalization_space(c.k).contains(residual.coords))

    return thunk, check


# ---------------------------------------------------------------------------
# tube-points
# ---------------------------------------------------------------------------

def random_cone_point(rng: random.Random):
    """x = s * (a, b, c) for a Pythagorean triple and a positive rational s,
    legs signed and ordered at random, plus a rational imaginary part.
    ``tube.ConePoint`` rejects any point off the future cone."""
    from so32cr import tube
    from so32cr.scalars import GQ
    m = rng.randint(2, 9)
    n = rng.randint(1, m - 1)
    a, b, c = m * m - n * n, 2 * m * n, m * m + n * n
    if rng.random() < 0.5:
        a, b = b, a
    a *= rng.choice((1, -1))
    b *= rng.choice((1, -1))
    s = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    y = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(3)]
    return tube.ConePoint(tuple(GQ(s * x, yi) for x, yi in zip((a, b, c), y)))


def _cubic_value(p):
    """The cubic form on the first frame field where it is nonzero, chosen
    as ``so32cr.cli.run_model_cubic`` does; None when all vanish."""
    from so32cr import tube
    l12, l13, l23, r = tube.cone_fields()
    for L in (l12, l13, l23):
        v = tube.cubic_form_at(p, r, L.conj(), L.conj())
        if v:
            return v
    return None


def _tube_kinds():
    # module attributes are looked up per call, so the span recorder's
    # wrappers see the calls in a traced run
    from so32cr import tube
    from so32cr.linalg import rank
    return (
        (lambda p: tube.levi_hermitian_rank(p), lambda r: r == 1),
        (lambda p: rank(tube.levi_real_gram(p)), lambda r: r == 2),
        (lambda p: (tube.levi_kernel_at(p), tube.rib_span_at(p)),
         lambda r: r[0] == r[1]),
        (lambda p: tube.freeman_ranks_at(p), lambda r: r == (2, 1, 0)),
        (_cubic_value, lambda v: v is not None and not v.is_zero()),
    )


def tube_batch(rng: random.Random):
    """One cone point and the five kinds at it, in a seeded order: each op's
    kind is uniform, and every batch holds the same mix of kinds."""
    kinds = list(_tube_kinds())
    rng.shuffle(kinds)
    p = random_cone_point(rng)
    return [((lambda fn=fn: fn(p)), check) for fn, check in kinds]
