"""Shared test helpers."""

import numpy as np

from ideal_al import augment
from oracles import vat_perturbation_reference


def relu_kink_free(model, x, radius, margin=3.0):
    """True when no hidden ReLU boundary lies within `margin * radius` of x.

    Conservative per-unit bound: a unit with preactivation z and incoming
    weight column w can only switch state within distance |z| / ||w||.
    """
    a = np.asarray(x, dtype=float)
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ W + b
        if i == len(model.weights) - 1:
            break
        wn = np.linalg.norm(W, axis=0)
        if np.any(np.abs(z) < radius * margin * np.maximum(wn, 1e-12)):
            return False
        a = np.maximum(z, 0)
    return True


def vat_step(model, X_bar, Y_bar, epsilon, xi, normals):
    """The package's VAT step as its callers run it: `vat_probe_rows`, one
    `_trace` of the probe rows, `vat_perturbation_batch` from that trace.
    Returns (R, degenerate) once they equal, bit for bit,
    `oracles.vat_perturbation_reference` on the same normals."""
    X_bar = np.atleast_2d(np.asarray(X_bar, dtype=float))
    D = np.array(normals, dtype=float)
    acts = model._trace(augment.vat_probe_rows(X_bar, D, xi))
    R, degenerate = augment.vat_perturbation_batch(model, acts, Y_bar, epsilon, D)
    want, want_degenerate = vat_perturbation_reference(model, X_bar, Y_bar, epsilon, xi,
                                                       normals)
    assert np.array_equal(R, want) and np.array_equal(degenerate, want_degenerate)
    return R, degenerate
