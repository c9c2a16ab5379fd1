"""The four benchmark workloads: inputs from a seed, the timed job, and the
correctness gate that every repetition of the job must pass.

Each workload is a ``Workload`` with

  * ``setup(seed)``   -> inputs (called once per process, outside timing);
  * ``run(inputs)``   -> the job's result (the timed region);
  * ``gate(inputs, result)`` -> Outcome (outside timing, after every run);
  * ``control(inputs)``      -> Outcome (outside timing, once per invocation);
  * ``layer_extras(result)`` -> per-layer numbers the spans cannot give;
  * ``info(inputs)``  -> (per-layer numbers, Outcome) timed only in the
    traced run, for information.

The job calls ``adg2`` only through module attributes (``maxsec.solve_dirichlet``,
never a name bound by ``from adg2.maxsec import ...``), so the traced run can
wrap every layer function by patching the module attribute.

An operation is one suite check, one solve, or one gauge evaluation.  It
fails if it raises or if its gate fails; a run with a failed operation is
reported as incorrect, never as a plain timing.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402,F401  (imported lazily by the maxsec kernels)
import scipy.sparse.linalg  # noqa: E402,F401  (likewise)

# every layer module is imported here, so set-up time covers all of adg2
from adg2 import (excalc, exact, fueter, g2lin, gauge, hk, maxsec,  # noqa: E402,F401
                  spin, verify)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        """Count one operation; record why it failed when it did."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(reason)

    def __iadd__(self, other: "Outcome") -> "Outcome":
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons)
        return self


def attempt(fn, *args, **kwargs):
    """Call fn; an exception becomes the result so the gate can count it."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # any failure of the program is a failed op
        return exc


class Workload:
    why = ""
    # the pace.py kernels whose speed tracks this job's speed (run.py rescales
    # the job's time by them); chosen by how well each mix tracked the job
    # through the host's speed phases
    kernels = ("python", "matmul")

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def run(self, inputs: dict):
        raise NotImplementedError

    def gate(self, inputs: dict, result) -> Outcome:
        raise NotImplementedError

    def control(self, inputs: dict) -> Outcome:
        return Outcome()

    def layer_extras(self, result) -> dict:
        return {}

    def info(self, inputs: dict):
        return {}, Outcome()


# ----------------------------------------------------------------------------
# exact-suites


class ExactSuites(Workload):
    """The whole exact half: one ``verify.run_suite(suite, seed)``.

    ``controls`` names the suites that must fail under ``corrupt="i2_sign"``.
    """

    why = ("the whole exact half (excalc, g2lin, hk, spin suites) and no grid "
           "code; the spinor model and jet kernels dominate")

    def __init__(self, suite: str = "all", controls=("hk", "spin")):
        self.suite = suite
        self.controls = tuple(controls)

    def setup(self, seed: int) -> dict:
        return {"seed": seed}

    def run(self, inputs: dict):
        return attempt(verify.run_suite, self.suite, inputs["seed"])

    def gate(self, inputs: dict, reports) -> Outcome:
        out = Outcome()
        if isinstance(reports, Exception):
            out.check(False, f"run_suite raised {reports!r}")
            return out
        for report in reports:
            for c in report.checks:
                out.check(c.status == "pass",
                          f"{c.id} failed (residual {c.max_residual})")
        if not reports:
            out.check(False, "run_suite returned no reports")
        return out

    def control(self, inputs: dict) -> Outcome:
        corrupted = {name: attempt(verify.run_suite, name, inputs["seed"],
                                   corrupt="i2_sign")
                     for name in self.controls}
        return self.control_gate(corrupted)

    @staticmethod
    def control_gate(corrupted: dict) -> Outcome:
        """Each run given here was made with corrupt="i2_sign" and must fail."""
        out = Outcome()
        for name, reports in corrupted.items():
            if isinstance(reports, Exception):
                out.check(False, f"corrupted {name} suite raised {reports!r}")
                continue
            out.check(not all(r.passed for r in reports),
                      f"the {name} suite passed with corrupt='i2_sign'")
        return out

    def layer_extras(self, reports) -> dict:
        if isinstance(reports, Exception):
            return {}
        return {f"verify.check.{c.id}.ms": float(c.runtime_ms)
                for report in reports for c in report.checks}


# ----------------------------------------------------------------------------
# maxsec-rough and maxsec-smooth


class _Solve(Workload):
    """Shared job and gate of the two maximal-section workloads: the job
    solves each section of ``inputs["inits"]`` in turn."""

    tol = 1e-8
    kernels = ("python", "fft")

    def __init__(self, n: int = 11):
        self.n = n

    def dims_spacing(self):
        dims = (self.n,) * 3
        return dims, tuple(1.0 / (k - 1) for k in dims)

    def run(self, inputs: dict) -> list:
        return [attempt(maxsec.solve_dirichlet, init, tol=self.tol)
                for init in inputs["inits"]]

    def gate(self, inputs: dict, outs: list) -> Outcome:
        res = Outcome()
        for k, (init, out) in enumerate(zip(inputs["inits"], outs)):
            if isinstance(out, Exception):
                res.check(False, f"solve {k}: solve_dirichlet raised {out!r}")
                continue
            reasons = self.solution_errors(inputs, init, out)
            res.check(not reasons, f"solve {k}: " + "; ".join(reasons))
        return res

    def solution_errors(self, inputs: dict, init, out) -> list:
        errors = []
        if not out.converged:
            errors.append(f"not converged: {out.message or out.residual}")
        fresh = attempt(maxsec.residual_norm, out.grid)
        if isinstance(fresh, Exception) or not fresh <= self.tol:
            errors.append(f"fresh residual_norm {fresh!r} above {self.tol}")
        mask = init.interior_mask()
        if not np.array_equal(out.grid.values[~mask], init.values[~mask]):
            errors.append("boundary values changed")
        return errors

    def layer_extras(self, outs: list) -> dict:
        """Newton steps of the whole job, over all its solves."""
        steps = [out.iterations for out in outs if not isinstance(out, Exception)]
        return {"maxsec.newton_steps": float(sum(steps))} if steps else {}


class MaxsecRough(_Solve):
    """Affine section plus seeded Gaussian interior noise (amp 2e-3), in
    ``solves`` independent draws from the seed's generator; the discrete
    solution of each is the affine section itself.

    The Newton step count depends on the draw: 32 to 37 steps over seeds
    0-19 on the default 11^3 grid (twice the smooth workload's count), 42 to
    49 on 13^3, where run_s spread with it by 11% of its median between
    seeds.  Two draws per job halve the variance of that spread.
    """

    why = ("rough seeded noise on an affine section drives Newton-MINRES into "
           "its slow linear tail, so the Newton step count shows most here")
    amp = 2e-3

    def __init__(self, n: int = 11, solves: int = 2):
        super().__init__(n)
        self.solves = solves

    def setup(self, seed: int) -> dict:
        dims, spacing = self.dims_spacing()
        affine = maxsec.affine_section(dims, spacing)
        mask = affine.interior_mask()
        rng = np.random.default_rng(seed)
        inits = []
        for _ in range(self.solves):
            init = affine.copy()
            bump = rng.normal(size=init.values.shape) * self.amp
            init.values[mask] += bump[mask]
            inits.append(init)
        return {"inits": inits, "affine": affine}

    def solution_errors(self, inputs: dict, init, out) -> list:
        errors = super().solution_errors(inputs, init, out)
        dev = float(np.abs(out.grid.values - inputs["affine"].values).max())
        if not dev <= 1e-6:
            errors.append(f"solution is {dev:.3e} from the affine section")
        return errors


class MaxsecSmooth(_Solve):
    """Smooth graphical boundary u = 0.05 sin(pi t1) cos(pi t2) t3 added to
    the first negative component (index SIG_PLUS) of the affine section.

    The seed picks the sign of u: the two signs are mirror images of one
    problem, with the same Newton steps and residuals.  The seed does not
    pick the component: the nineteen components are Q-isometric copies, but
    rounding differs between them, and with it the Newton step count (15 to
    17 steps at 11^3), so a component per seed would add a spread of its own
    to run_s.

    The 11^3 grid (17 Newton steps, a third of the 13^3 time) lets a run
    take the median of several solves.
    """

    why = ("the same solver on a curved, non-affine solution, so a change "
           "tuned on near-affine data that costs curved data shows here")

    def setup(self, seed: int) -> dict:
        dims, spacing = self.dims_spacing()
        init = maxsec.affine_section(dims, spacing)
        axes = [np.arange(k) * h for k, h in zip(dims, spacing)]
        t1, t2, t3 = np.meshgrid(*axes, indexing="ij")
        sign = 1.0 if seed % 2 == 0 else -1.0
        u = 0.05 * np.sin(np.pi * t1) * np.cos(np.pi * t2) * t3
        init.values[..., maxsec.SIG_PLUS] += sign * u
        return {"inits": [init]}


# ----------------------------------------------------------------------------
# gauge-paths


def _linear_theta_components(grid, a: float, b: float, tau: float) -> np.ndarray:
    """theta(tau, t) = tau (a t2, b t1, 0, 0) as the abelian connection
    i theta_a dx_a; returns the (7, grid) complex coefficient array."""
    t1, t2 = grid.coordinates()[:2]
    comps = np.zeros((7,) + grid.shape, dtype=complex)
    comps[3] = np.broadcast_to(1j * tau * a * t2, grid.shape)
    comps[4] = np.broadcast_to(1j * tau * b * t1, grid.shape)
    return comps


def _rank1(grid, comps) -> "gauge.LatticeConnection":
    return gauge.LatticeConnection(grid, comps[..., None, None])


def _conjugated_diag(u: np.ndarray, d0: np.ndarray, d1: np.ndarray) -> np.ndarray:
    """U diag(d0, d1) U^dagger at every node, as a sum of the two projectors."""
    p0, p1 = (np.outer(u[:, k], u[:, k].conj()) for k in (0, 1))
    return d0[..., None, None] * p0 + d1[..., None, None] * p1


class GaugePaths(Workload):
    """Two 3-snapshot linear-theta paths on a periodic fibre.

    Rank 1: theta = tau (a1 t2, b1 t1, 0, 0).  Rank 2: the abelian factors
    (a1, b1) and (a2, b2) on the diagonal, conjugated by a seeded constant
    unitary U.  Closed forms: CS = -sum_k a_k b_k / (16 pi^2); the rank-2
    residual is U diag(rank-1 residuals) U^dagger; the holonomy section of
    the rank-1 snapshot at tau is (tau a1 t2, tau b1 t1, 0, 0).

    The default grid, LatticeGrid.unit(4, 4), has 16,384 nodes; it keeps the
    job near 4 s so that a run takes the median of several jobs.
    """

    why = ("the gauge half: residuals and the path functional at rank 1 and "
           "rank 2, where the rank-2 path functional dominates")
    times = (0.0, 0.5, 1.0)
    kernels = ("matmul",)

    def __init__(self, nb: int = 4, nf: int = 4):
        self.nb = nb
        self.nf = nf

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        grid = gauge.LatticeGrid.unit(self.nb, self.nf, fibre_periodic=True)
        coeffs = rng.uniform(0.3, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4)
        (a1, b1), (a2, b2) = coeffs[:2], coeffs[2:]
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        u, r = np.linalg.qr(z)
        u = u * (np.diag(r) / np.abs(np.diag(r)))
        rank1, factor2, rank2 = [], [], []
        for tau in self.times:
            c1 = _linear_theta_components(grid, a1, b1, tau)
            c2 = _linear_theta_components(grid, a2, b2, tau)
            rank1.append(_rank1(grid, c1))
            factor2.append(_rank1(grid, c2))
            rank2.append(gauge.LatticeConnection(grid, _conjugated_diag(u, c1, c2)))
        return {
            "grid": grid, "coeffs": ((a1, b1), (a2, b2)), "u": u,
            "path1": gauge.ConnectionPath(list(self.times), rank1),
            "path2": gauge.ConnectionPath(list(self.times), rank2),
            "factor2": factor2,
        }

    def run(self, inputs: dict) -> dict:
        p1, p2 = inputs["path1"], inputs["path2"]
        return {
            "res1": [attempt(gauge.instanton_residual, a) for a in p1.fields],
            "holonomy": [attempt(fueter.holonomy_section, a) for a in p1.fields],
            "cs1": attempt(gauge.cs_instanton, p1),
            "res2": [attempt(gauge.instanton_residual, a) for a in p2.fields],
            "cs2": attempt(gauge.cs_instanton, p2),
        }

    @staticmethod
    def cs_reference(coeffs) -> float:
        return -sum(a * b for a, b in coeffs) / (16 * math.pi ** 2)

    @staticmethod
    def residual_reference(a: float, b: float, tau: float) -> np.ndarray:
        """Closed-form rank-1 rho_horiz (rho_fibre is zero) of the linear-theta
        connection: F(t2, x1) = i tau a and F(t1, x2) = i tau b, contracted with
        the standard triple I_1 = -w_1, I_2 = -w_2 gives components
        (-i tau b, 0, i tau a, 0)."""
        return np.array([-1j * tau * b, 0.0, 1j * tau * a, 0.0])

    def gate(self, inputs: dict, got: dict, cs_want=None) -> Outcome:
        """cs_want overrides the closed-form CS pair (rank 1, rank 2)."""
        out = Outcome()
        (a1, b1), (a2, b2) = inputs["coeffs"]
        u = inputs["u"]
        if cs_want is None:
            cs_want = (self.cs_reference([(a1, b1)]),
                       self.cs_reference([(a1, b1), (a2, b2)]))

        for name, value, want in (("rank-1", got["cs1"], cs_want[0]),
                                  ("rank-2", got["cs2"], cs_want[1])):
            ok = (not isinstance(value, Exception)
                  and abs(value - want) <= 1e-12 * abs(want))
            out.check(ok, f"{name} cs_instanton {value!r} != closed form {want!r}")

        period = None
        for k, tau in enumerate(self.times):
            res = got["res1"][k]
            ok = not isinstance(res, Exception)
            if ok:
                fib, hor = res
                want = self.residual_reference(a1, b1, tau)
                ok = (float(np.abs(fib).max()) <= 1e-12 and float(np.abs(
                    hor[..., 0, 0] - want.reshape((4,) + (1,) * 7)).max()) <= 1e-12)
            out.check(ok, f"rank-1 instanton_residual at tau={tau} off closed form")

            sec = got["holonomy"][k]
            ok = not isinstance(sec, Exception)
            if ok:
                t1, t2, _ = np.meshgrid(*(np.arange(n) * h for n, h in zip(
                    inputs["grid"].dims_base, inputs["grid"].spacing_base)),
                    indexing="ij")
                want = np.stack([tau * a1 * t2, tau * b1 * t1,
                                 np.zeros_like(t1), np.zeros_like(t1)], axis=-1)
                period = sec.period
                ok = float(np.abs(fueter.minimal_image(
                    sec.values - want, period)).max()) <= 1e-12
            out.check(ok, f"holonomy section at tau={tau} off (tau a t2, tau b t1, 0, 0)")

            res2 = got["res2"][k]
            ok = not isinstance(res2, Exception) and not isinstance(res, Exception)
            if ok:
                f2 = attempt(gauge.instanton_residual, inputs["factor2"][k])
                ok = not isinstance(f2, Exception)
            if ok:
                for part2, part1, partf in zip(res2, res, f2):
                    want = _conjugated_diag(u, part1[..., 0, 0], partf[..., 0, 0])
                    ok = ok and float(np.abs(part2 - want).max()) <= 1e-12
            out.check(ok, f"rank-2 instanton_residual at tau={tau} is not "
                          "U diag(rank-1 residuals) U^dagger")
        return out

    def info(self, inputs: dict):
        """The rank-2 path functional through the ADG2_THREADS thread pool."""
        t0 = time.perf_counter()
        value = attempt(gauge.cs_instanton, inputs["path2"], workers=2)
        seconds = time.perf_counter() - t0
        want = self.cs_reference(inputs["coeffs"])
        out = Outcome()
        out.check(not isinstance(value, Exception)
                  and abs(value - want) <= 1e-12 * abs(want),
                  f"cs_instanton(workers=2) {value!r} != closed form {want!r}")
        return {"gauge.cs_instanton.r2.workers2_s": seconds}, out


WORKLOADS = {
    "exact-suites": ExactSuites(),
    "maxsec-rough": MaxsecRough(),
    "maxsec-smooth": MaxsecSmooth(),
    "gauge-paths": GaugePaths(),
}
