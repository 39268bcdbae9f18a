"""Run configuration for the verification suite and CLI.

A RunConfig carries the surface, the analytic field roster, the seed and an
optional report path; ``default_config()`` reproduces the acceptance setup
(unit icosphere, level 5, the 11 built-in fields). The eigenpair count and
every tolerance are frozen constants of :mod:`hodgelab.verify`, not config
values. ``RunConfig.from_json_dict`` reads a JSON config file (unknown keys
are rejected); CLI flags override its fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import SurfaceSpec
from . import fields as field_mod


class ConfigError(Exception):
    pass


CONFIG_KEYS = ("surface", "fields", "seed", "report_path")
SURFACE_KEYS = ("kind", "level", "radius", "a", "c")


def _reject_unknown_keys(data: dict, known: tuple, where: str) -> None:
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown {where} key {key!r}")


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: str
    parameters: dict

    def build(self, surface: SurfaceSpec):
        if self.kind == "killing_rotation":
            return field_mod.KillingRotation(np.asarray(self.parameters["axis"], float), surface)
        if self.kind == "conformal_gradient":
            return field_mod.ConformalGradient(np.asarray(self.parameters["direction"], float), surface)
        if self.kind == "projective_gradient":
            return field_mod.ProjectiveGradient(np.asarray(self.parameters["Q"], float), surface)
        raise ConfigError(f"unknown field kind {self.kind!r}")


def builtin_fields() -> list:
    """The 11 built-in fields: 3 rotations, 3 linear gradients, 5 quadratic."""
    rot = [FieldSpec(f"rotation_{ax}", "killing_rotation", {"axis": v})
           for ax, v in (("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1]))]
    grad = [FieldSpec(f"gradient_{ax}", "conformal_gradient", {"direction": v})
            for ax, v in (("x", [1, 0, 0]), ("y", [0, 1, 0]), ("z", [0, 0, 1]))]
    quads = [
        ("quadratic_xy", [[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]),
        ("quadratic_xz", [[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]]),
        ("quadratic_yz", [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]]),
        ("quadratic_x2_y2", [[1, 0, 0], [0, -1, 0], [0, 0, 0]]),
        ("quadratic_z2", [[-0.5, 0, 0], [0, -0.5, 0], [0, 0, 1.0]]),
    ]
    quad = [FieldSpec(name, "projective_gradient", {"Q": Q}) for name, Q in quads]
    return rot + grad + quad


@dataclass(frozen=True)
class RunConfig:
    surface: SurfaceSpec
    fields: tuple = tuple(builtin_fields())
    seed: int = 0
    report_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "fields", tuple(self.fields))
        # a field that cannot be built is rejected here, not mid-run
        for spec in self.fields:
            try:
                spec.build(self.surface)
            except KeyError as exc:
                raise ConfigError(f"field {spec.name}: missing parameter {exc}") from exc
            except (ConfigError, field_mod.FieldError, TypeError, ValueError) as exc:
                raise ConfigError(f"field {spec.name}: {exc}") from exc

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        try:
            surf = dict(data["surface"])
            _reject_unknown_keys(data, CONFIG_KEYS, "config")
            _reject_unknown_keys(surf, SURFACE_KEYS, "surface")
            surface = SurfaceSpec(
                kind=surf["kind"],
                level=int(surf["level"]),
                radius=surf.get("radius"),
                a=surf.get("a"),
                c=surf.get("c"),
            )
            # an empty list is an empty roster; missing or null means the default
            fspecs = builtin_fields() if data.get("fields") is None else []
            for item in data.get("fields") or ():
                item = dict(item)
                kind = item.pop("kind")
                name = item.pop("name", kind)
                fspecs.append(FieldSpec(name=name, kind=kind, parameters=item))
            return cls(
                surface=surface,
                fields=tuple(fspecs),
                seed=int(data.get("seed", 0)),
                report_path=data.get("report_path"),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


def default_config() -> RunConfig:
    return RunConfig(surface=SurfaceSpec(kind="icosphere", level=5, radius=1.0))
