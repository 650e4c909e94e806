"""Contract a statistical model must satisfy to be driven by the alternator.

A model wraps one realized dataset and exposes the random functional L, its
split gradient and Hessian, its two partial maximizers, `eta_argmax` and
`theta_argmax`, and a `default_start`.  A model provides both maximizers:
the engine alternates them and has no generic ascent to fall back on.  The
contract needs no truth: the experiments build the information at the
truth from the truth itself.
"""

from __future__ import annotations

from .statcore import ParameterPoint


class ModelDomainError(ValueError):
    """A point lies outside the model's admissible set; message names the constraint."""


class Model:
    """Base class; a subclass implements every operation below."""

    def evaluate(self, point: ParameterPoint) -> float:
        raise NotImplementedError

    def gradient(self, point: ParameterPoint):
        """Split gradient (grad_theta, grad_eta) of L at the point."""
        raise NotImplementedError

    def hessian(self, point: ParameterPoint):
        raise NotImplementedError

    def eta_argmax(self, theta):
        """argmax over eta of L(theta, .)."""
        raise NotImplementedError

    def theta_argmax(self, eta, theta_init=None):
        """argmax over theta of L(., eta); theta_init is the previous theta."""
        raise NotImplementedError

    def default_start(self) -> ParameterPoint:
        raise NotImplementedError
