"""Frank-Wolfe over geodesically convex feasible sets.

Each iteration asks the set's oracle for the vertex maximizing
<-grad f, log_x(.)>, records the dual gap <-grad f, log_x(v)>, and
moves along the geodesic toward the vertex.  The short step
s = clip(gap / (L d^2), 0, 1) minimizes the smoothness upper model; on
strongly convex sets with a gradient-norm lower bound it yields a
linear rate, which contraction_check verifies against a trace.
"""

import json
import numpy as np
from dataclasses import dataclass, field
from enum import Enum

from .convexity import ConvexSet, _finite_or_none
from .errors import ConfigError, ContractError, RfwError
from .manifolds import Manifold
from .scalars import minimize_1d

GAP_TOL_DEFAULT = 1e-10
CONTRACTION_SLACK = 1e-6  # ratio allowed above the factor: roundoff in h
H_FLOOR = 1e-13  # h_t at or below this is roundoff, and goes unchecked
CSV_HEADER = "iter,f,dual_gap,step,dist_xv"


class StepRule(str, Enum):
    SHORT_STEP = "short-step"
    FIXED_SCHEDULE = "fixed-schedule"
    LINE_SEARCH = "line-search"


@dataclass
class RfwProblem:
    kernel: Manifold
    objective: object  # needs value_grad(x) -> (float, tangent)
    cset: ConvexSet
    L: float
    x0: np.ndarray

    def __post_init__(self):
        if self.cset.lmo is None:
            raise ConfigError("RfwProblem: feasible set has no oracle")
        if not self.L > 0.0:
            raise ConfigError("RfwProblem: L must be positive")
        if not self.cset.membership(self.x0):
            raise ContractError("RfwProblem: x0 is not feasible")


@dataclass
class RfwTrace:
    iters: list = field(default_factory=list)
    f: list = field(default_factory=list)
    dual_gap: list = field(default_factory=list)
    step: list = field(default_factory=list)
    dist_xv: list = field(default_factory=list)
    status: str = "running"

    def append(self, t, fval, gap, s, d):
        self.iters.append(int(t))
        self.f.append(float(fval))
        self.dual_gap.append(float(gap))
        self.step.append(float(s))
        self.dist_xv.append(float(d))

    def __len__(self):
        return len(self.iters)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in zip(self.iters, self.f, self.dual_gap, self.step,
                           self.dist_xv):
                fh.write("%d,%.17g,%.17g,%.17g,%.17g\n" % row)

    def to_json(self):
        """Strict JSON: a non-finite value (f = NaN on an error run, say)
        is written as null."""
        return json.dumps(_finite_or_none({
            "status": self.status, "iters": self.iters, "f": self.f,
            "dual_gap": self.dual_gap, "step": self.step,
            "dist_xv": self.dist_xv}), allow_nan=False)


def load_trace_csv(path):
    """Read back a trace written by to_csv (status is not stored)."""
    trace = RfwTrace()
    with open(path, "r") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected trace header: {header!r}")
        for line in fh:
            t, fval, gap, s, d = line.strip().split(",")
            trace.append(int(t), float(fval), float(gap), float(s), float(d))
    return trace


def short_step(gap, L, dist2):
    """Minimizer of the quadratic upper model over s in [0, 1]."""
    if dist2 <= 0.0:
        return 0.0
    return float(np.clip(gap / (L * dist2), 0.0, 1.0))


def fw_vertex(problem, x, grad=None):
    """Oracle call at x: returns (v, dual_gap, log_x(v)).  A vanishing
    gradient short-circuits to v = x with zero gap; a NaN or infinite
    one, which the oracle rejects, to a NaN vertex, gap and log."""
    k = problem.kernel
    if grad is None:
        _, grad = problem.objective.value_grad(x)
    w = -grad
    norm_w = k.norm(x, w)
    if norm_w < 1e-15:
        return x, 0.0, np.zeros_like(grad)
    if not norm_w < np.inf:
        nan = np.full_like(grad, np.nan)
        return nan, np.nan, nan
    res = problem.cset.lmo(w, x)
    return res.vertex, res.objective, res.log


def rfw_run(problem, rule=StepRule.SHORT_STEP, max_iter=500,
            gap_tol=GAP_TOL_DEFAULT):
    """Run Frank-Wolfe from problem.x0; one trace row per iteration
    visited (the row for a converged iterate carries step 0).  Objective
    failures (at the iterate or in the line search), oracle or geometry
    failures, a non-finite value or gap, and a negative gap close the
    trace with status 'error' instead of propagating."""
    rule = StepRule(rule)
    k = problem.kernel
    x = np.array(problem.x0, copy=True)
    trace = RfwTrace()
    trace.status = "max_iter"
    for t in range(max_iter):
        try:
            fval, grad = problem.objective.value_grad(x)
            v, gap, lx = fw_vertex(problem, x, grad)
        except RfwError:
            trace.status = "error"
            break
        d = k.dist(x, v)
        if not (np.isfinite(fval) and np.isfinite(gap)) or gap < -1e-9:
            trace.append(t, fval, gap, 0.0, d)
            trace.status = "error"
            break
        if gap <= gap_tol:
            trace.append(t, fval, gap, 0.0, d)
            trace.status = "converged"
            break
        if rule is StepRule.SHORT_STEP:
            s = short_step(gap, problem.L, d * d)
        elif rule is StepRule.FIXED_SCHEDULE:
            s = 2.0 / (t + 2.0)
        else:
            try:
                s, _ = minimize_1d(lambda u: problem.objective.value_grad(
                    k.exp(x, u * lx))[0], 0.0, 1.0, tol=1e-10)
            except RfwError:
                trace.append(t, fval, gap, 0.0, d)
                trace.status = "error"
                break
        trace.append(t, fval, gap, s, d)
        if s > 0.0:
            x = k.exp(x, s * lx)
            if not problem.cset.membership(x):
                trace.status = "error"
                break
    return trace, x


@dataclass
class ContractionReport:
    factor: float
    threshold_dist2: float
    checked: list
    violations: list
    max_ratio: float

    @property
    def passed(self):
        return len(self.violations) == 0


def contraction_check(trace, alpha, c, L, fstar, diameter=None, c_tilde=0.0):
    """Verify the per-iteration contraction of h_t = f(x_t) - fstar
    against the factor max{1/2, 1 - alpha c / (2L)}.

    With a curvature residual constant c_tilde > 0 the guarantee only
    kicks in once dist(x_t, v_t)^2 <= alpha c / (2 diameter L c_tilde);
    iterations before that burn-in, and those with h_t at roundoff
    level, are skipped."""
    factor = max(0.5, 1.0 - alpha * c / (2.0 * L))
    if c_tilde > 0.0:
        if diameter is None:
            raise ConfigError("contraction_check: c_tilde needs a diameter")
        threshold = alpha * c / (2.0 * diameter * L * c_tilde)
    else:
        threshold = np.inf
    h = np.asarray(trace.f, dtype=float) - fstar
    d2 = np.square(np.asarray(trace.dist_xv, dtype=float))
    checked, violations, max_ratio = [], [], 0.0
    for t in range(len(h) - 1):
        if d2[t] > threshold or h[t] <= H_FLOOR:
            continue
        checked.append(t)
        ratio = h[t + 1] / h[t]
        max_ratio = max(max_ratio, ratio)
        if ratio > factor + CONTRACTION_SLACK:
            violations.append(t)
    return ContractionReport(factor, threshold, checked, violations,
                             float(max_ratio))
