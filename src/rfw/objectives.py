"""Objectives used by the solver, the experiment harness and the
function-class checks."""

import numpy as np
from dataclasses import dataclass

from .convexity import SmoothStronglyConvexFn, delta, zeta
from .errors import ConfigError
from .manifolds import Euclidean, Manifold, Sphere


def gram_matrix(rng, rows, n):
    """Gram matrix of a rows x n Gaussian draw, spectral norm 1."""
    g = rng.standard_normal((rows, n))
    a = g.T @ g
    a /= np.linalg.norm(a, 2)
    return a


@dataclass
class QuadraticOnEmbedded:
    """f(x) = 0.5 (x - target)' A (x - target) restricted to an
    embedded-vector manifold (sphere or Euclidean space); the
    Riemannian gradient is the tangent projection of the ambient one.

    The random construction Gram-normalizes A to unit spectral norm, so
    the reported smoothness constant is L = norm(A, 2) = 1."""

    kernel: Manifold
    matrix: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        if not isinstance(self.kernel, (Sphere, Euclidean)):
            raise ConfigError(
                "QuadraticOnEmbedded: ambient-projection gradient is only "
                "metric-consistent on the sphere and Euclidean space")
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.target = np.asarray(self.target, dtype=float)
        if self.matrix.shape != (self.target.size, self.target.size):
            raise ConfigError("QuadraticOnEmbedded: matrix/target shape mismatch")
        w = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))
        self._eig_min, self._eig_max = float(w[0]), float(w[-1])
        if self._eig_min < -1e-12:
            raise ConfigError("QuadraticOnEmbedded: matrix must be PSD")

    @classmethod
    def random(cls, kernel, rows, rng):
        """Random Gram matrix (see gram_matrix), then a random target."""
        return cls(kernel, gram_matrix(rng, rows, kernel.n),
                   kernel.random_point(rng))

    @property
    def L(self):
        return self._eig_max

    @property
    def mu(self):
        """lambda_min(A); the strong-convexity constant on flat space
        (a Gram matrix with rows < n has mu = 0)."""
        return max(self._eig_min, 0.0)

    def value_grad(self, x):
        d = x - self.target
        ad = self.matrix @ d
        return 0.5 * float(d @ ad), self.kernel.project_tangent(x, ad)

    def as_smooth_fn(self, mu=None, L=None, fstar=None, xstar=None):
        return SmoothStronglyConvexFn(
            self.kernel, self.value_grad,
            mu=self.mu if mu is None else mu,
            L=self.L if L is None else L,
            fstar=fstar, xstar=xstar)


@dataclass
class SquaredDistanceObjective:
    """f(x) = 0.5 * dist(x, center)^2 with grad f(x) = -log_x(center).

    On a ball of radius r around the center this is delta_r-strongly
    convex and zeta_r-smooth, with the constants from the curvature
    bounds of the kernel."""

    kernel: Manifold
    center: np.ndarray

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.kernel.check_point(self.center)

    def value_grad(self, x):
        lx = self.kernel.log(x, self.center)
        return 0.5 * self.kernel.inner(x, lx, lx), -lx

    def mu_on(self, radius):
        return delta(radius, self.kernel.curvature.kappa_max)

    def L_on(self, radius):
        return zeta(radius, self.kernel.curvature.kappa_min)

    def as_smooth_fn(self, radius):
        """Constants instantiated for a ball of the given radius around
        the center; fstar = 0 is attained there."""
        return SmoothStronglyConvexFn(
            self.kernel, self.value_grad,
            mu=self.mu_on(radius), L=self.L_on(radius),
            fstar=0.0, xstar=self.center)
