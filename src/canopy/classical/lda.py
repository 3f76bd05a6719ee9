"""Fisher linear discriminant analysis.

Fit: build the within-class scatter S_w = sum of per-class scatters and the
between-class scatter S_b = sum of n_i (m_i - m)(m_i - m)^T, then keep the
top-k eigenvectors of (S_w + lambda I)^{-1} S_b. k is capped by
min(n_classes - 1, n_features). Classification assigns the nearest
projected class mean; probabilities come from the equal-variance Gaussian
posterior in the projected space (with class-prior weighting), which for
two classes is the sigmoid of a signed margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from ..data import check_int
from .tree import check_xy


@dataclass
class LdaModel:
    s_w: np.ndarray
    s_b: np.ndarray
    eigenvalues: np.ndarray  # all eigenvalues, descending
    projection: np.ndarray  # (n_features, k), unit columns
    class_means: np.ndarray  # (n_classes, k), projected
    classes: np.ndarray
    priors: np.ndarray
    pooled_var: float  # pooled within-class variance in projected space
    reg_lambda: float

    def transform(self, X) -> np.ndarray:
        return np.asarray(X, dtype=np.float64) @ self.projection

    def _log_posterior(self, X) -> np.ndarray:
        z = self.transform(X)
        d2 = ((z[:, None, :] - self.class_means[None, :, :]) ** 2).sum(axis=2)
        return -d2 / (2.0 * self.pooled_var) + np.log(self.priors)

    def predict(self, X) -> np.ndarray:
        """Nearest projected class mean, prior-weighted."""
        return self.classes[np.argmax(self._log_posterior(X), axis=1)]

    def predict_proba(self, X) -> np.ndarray:
        """Posterior class probabilities, columns ordered like .classes."""
        log_p = self._log_posterior(X)
        log_p -= log_p.max(axis=1, keepdims=True)
        p = np.exp(log_p)
        return p / p.sum(axis=1, keepdims=True)


def check_lda_params(k_components, reg_lambda) -> None:
    """lda_fit's checks on its settings that need no data (k_components is
    checked against the data's classes and features too)."""
    if k_components is not None:
        check_int("k_components", k_components, 1)
    if not (isinstance(reg_lambda, Real) and 0 <= reg_lambda < np.inf):
        raise ValueError(f"reg_lambda must be >= 0 and finite, got {reg_lambda!r}")


def lda_fit(X, y, k_components: int | None = None, reg_lambda: float = 1e-6) -> LdaModel:
    """Fit Fisher LDA. Every class needs at least 2 samples; a singular S_w
    with reg_lambda=0 is an error (raise it above 0 to ridge it out)."""
    check_lda_params(k_components, reg_lambda)
    X, y = check_xy(X, y)
    classes, counts = np.unique(y, return_counts=True)
    if len(classes) < 2:
        raise ValueError("LDA needs at least 2 classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 samples")
    n, f = X.shape
    max_k = min(len(classes) - 1, f)
    k = max_k if k_components is None else k_components
    if not 1 <= k <= max_k:
        raise ValueError(f"k_components must lie in [1, {max_k}]")

    overall_mean = X.mean(axis=0)
    s_w = np.zeros((f, f))
    s_b = np.zeros((f, f))
    means = np.empty((len(classes), f))
    for i, c in enumerate(classes):
        Xc = X[y == c]
        means[i] = Xc.mean(axis=0)
        centered = Xc - means[i]
        s_w += centered.T @ centered
        diff = (means[i] - overall_mean)[:, None]
        s_b += len(Xc) * (diff @ diff.T)

    ridge = s_w + reg_lambda * np.eye(f)
    try:
        m = np.linalg.solve(ridge, s_b)
    except np.linalg.LinAlgError:
        raise ValueError("within-class scatter is singular; set reg_lambda > 0") from None
    eigvals, eigvecs = np.linalg.eig(m)
    order = np.argsort(eigvals.real)[::-1]
    eigvals = eigvals.real[order]
    vectors = eigvecs.real[:, order[:k]]
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)

    z = X @ vectors
    class_means = means @ vectors
    pooled = 0.0
    for i, c in enumerate(classes):
        zc = z[y == c] - class_means[i]
        pooled += (zc * zc).sum()
    pooled_var = max(pooled / (k * max(n - len(classes), 1)), 1e-12)

    return LdaModel(s_w=s_w, s_b=s_b, eigenvalues=eigvals, projection=vectors,
                    class_means=class_means, classes=classes, priors=counts / n,
                    pooled_var=pooled_var, reg_lambda=reg_lambda)
