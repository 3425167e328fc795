"""Built-in target fixtures and inline JSON fixture descriptions.

Fixtures bundle an oracle with the ground truth needed to grade it: the
mixture parameters, spread bound, and minimum weight.  The JSON format
covers translated-mixture targets; the adversarial and perturbed fixtures
exist only as builtins because they carry code, not just numbers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from importlib import resources

import jsonschema
import numpy as np

from .oracles import (
    AdversarialTwoGaussian,
    BaseFunction,
    DensityOracle,
    MixtureOracle,
    MixtureTarget,
    Perturbation,
    PerturbedOracle,
)

__all__ = [
    "Fixture",
    "FixtureError",
    "builtin_fixture_names",
    "get_fixture",
    "fixture_summaries",
    "target_from_dict",
]


class FixtureError(ValueError):
    """Unknown fixture name or invalid fixture description."""


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    kind: str  # "mixture", "adversarial", or "perturbed"
    dim: int
    oracle: DensityOracle
    target: MixtureTarget | None  # the oracle's exact density, or None when it has none
    D: float
    w_min: float

    @classmethod
    def from_target(cls, target: MixtureTarget, name: str, description: str) -> "Fixture":
        """A mixture fixture whose oracle, D and w_min all come from `target`."""
        return cls(
            name=name,
            description=description,
            kind="mixture",
            dim=target.dim,
            oracle=MixtureOracle(target),
            target=target,
            D=target.scale_bound(),
            w_min=target.w_min,
        )


def _mixture_fixture(name, description, weights, centers, sigma, dim) -> Fixture:
    target = MixtureTarget(
        weights=np.asarray(weights, dtype=float),
        centers=np.asarray(centers, dtype=float).reshape(len(weights), dim),
        base=BaseFunction.isotropic_gaussian(sigma),
        dim=dim,
    )
    return Fixture.from_target(target, name, description)


def _single_gaussian() -> Fixture:
    return _mixture_fixture(
        "single-gaussian",
        "one unit Gaussian centered at 3; the smallest honest end-to-end target",
        [1.0], [[3.0]], 1.0, 1,
    )


def _two_mode_symmetric() -> Fixture:
    return _mixture_fixture(
        "two-mode-symmetric",
        "equal unit Gaussians at -5 and 5; the classic metastable pair",
        [0.5, 0.5], [[-5.0], [5.0]], 1.0, 1,
    )


def _two_mode_asymmetric() -> Fixture:
    return _mixture_fixture(
        "two-mode-asymmetric",
        "unit Gaussians at 0 and 4 with weights 0.3 and 0.7",
        [0.3, 0.7], [[0.0], [4.0]], 1.0, 1,
    )


def _simplex_centers() -> Fixture:
    centers = [
        [6.0, 0.0, 0.0],
        [0.0, 6.0, 0.0],
        [0.0, 0.0, 6.0],
        [2.0, 2.0, 2.0],
    ]
    return _mixture_fixture(
        "simplex-centers",
        "four unit Gaussians: three simplex corners plus their centroid",
        [0.25, 0.25, 0.25, 0.25], centers, 1.0, 3,
    )


def _adversarial_two_variance() -> Fixture:
    cons = AdversarialTwoGaussian(dim=4)
    return Fixture(
        name="adversarial-two-variance",
        description=(
            "two-variance Gaussian pair whose far region is surgically "
            "replaced by the wide component; traps fixed-width ladders"
        ),
        kind="adversarial",
        dim=4,
        oracle=cons,
        target=None,
        D=max(cons.u_norm, math.sqrt(2.0)),
        w_min=0.5,
    )


def _perturbed_mixture() -> Fixture:
    base = _two_mode_symmetric()
    pert = Perturbation(
        value=lambda x: 0.1 * math.sin(float(x[0])),
        grad=lambda x: np.array([0.1 * math.cos(float(x[0]))]),
        delta=0.1,
        tau=0.1,
    )
    return Fixture(
        name="perturbed-mixture",
        description="two-mode-symmetric plus a bounded ripple 0.1 sin(x)",
        kind="perturbed",
        dim=1,
        oracle=PerturbedOracle(base.oracle, pert),
        target=None,  # the oracle samples base.target times exp(-0.1 sin x), not base.target
        D=base.D,
        w_min=base.w_min,
    )


_BUILTINS = {
    "single-gaussian": _single_gaussian,
    "two-mode-symmetric": _two_mode_symmetric,
    "two-mode-asymmetric": _two_mode_asymmetric,
    "simplex-centers": _simplex_centers,
    "adversarial-two-variance": _adversarial_two_variance,
    "perturbed-mixture": _perturbed_mixture,
}


def builtin_fixture_names() -> list:
    return sorted(_BUILTINS)


def get_fixture(name: str) -> Fixture:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise FixtureError(
            f"unknown fixture {name!r}; available: {', '.join(builtin_fixture_names())}"
        ) from None


def fixture_summaries() -> list:
    """(name, dim, components, D, kind, description) rows for the CLI listing."""
    rows = []
    for name in builtin_fixture_names():
        f = _BUILTINS[name]()
        m = f.target.m if f.target is not None else 2
        rows.append((f.name, f.dim, m, f.D, f.kind, f.description))
    return rows


@functools.cache
def _schema_validator(name: str):
    """Validator for the packaged schema `name`, built once per process.  The
    schema is not checked against its metaschema here; the test suite does."""
    schema = json.loads(resources.files("temperlab.data").joinpath(name).read_text())
    return jsonschema.validators.validator_for(schema)(schema)


def _validate(doc, schema_name: str) -> None:
    """Raise the error jsonschema.validate would pick for doc, if any."""
    error = jsonschema.exceptions.best_match(_schema_validator(schema_name).iter_errors(doc))
    if error is not None:
        raise error


def target_from_dict(doc: dict) -> MixtureTarget:
    """Validate a fixture document and build its mixture target."""
    _validate(doc, "fixture.schema.json")
    dim = int(doc["dim"])
    base_doc = doc["base"]
    if base_doc["kind"] == "isotropic-gaussian":
        base = BaseFunction.isotropic_gaussian(float(base_doc["sigma"]))
    else:
        base = BaseFunction.quadratic_form(
            np.asarray(base_doc["H"], dtype=float),
            kappa=base_doc.get("kappa"),
            K=base_doc.get("K"),
        )
    weights = np.asarray(doc["weights"], dtype=float)
    centers = np.asarray(doc["centers"], dtype=float)
    if centers.ndim != 2 or centers.shape != (weights.size, dim):
        raise FixtureError(
            f"centers must be a {weights.size} x {dim} array of numbers"
        )
    return MixtureTarget(weights=weights, centers=centers, base=base, dim=dim)
