"""Run configuration for the verification suite and CLI.

A RunConfig carries the surface, the analytic field roster, the seed and an
optional report path; ``default_config()`` reproduces the acceptance setup
(unit icosphere, level 5, the 11 built-in fields). The eigenpair count and
every tolerance are frozen constants of :mod:`hodgelab.verify`, not config
values. ``RunConfig.from_json_dict`` reads a JSON config file: unknown and
missing keys are rejected, and so are a level or seed that is not a JSON
integer, a radius or semi-axis that is not a number, a field name or report
path that is not a string, a config, surface or field entry that is not an
object, a roster that is not a list and a field parameter that the field's
kind does not take. CLI flags override its fields. ``FieldSpec.build()``
makes the field from its parameter alone: a field carries no surface, and
sampling it uses the surface of the mesh it is sampled on.
"""

from __future__ import annotations

import json
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


def _required(data: dict, key: str, where: str):
    if key not in data:
        raise ConfigError(f"missing {where} key {key!r}")
    return data[key]


def _json_typed(value, types: tuple, expected: str, what: str):
    """``value`` if it is one of ``types``; JSON true and false never count."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{what} must be {expected}, got {json.dumps(value)}")
    return value


# each field kind's one parameter and its field family
FIELD_KINDS = {
    "killing_rotation": ("axis", field_mod.KillingRotation),
    "conformal_gradient": ("direction", field_mod.ConformalGradient),
    "projective_gradient": ("Q", field_mod.ProjectiveGradient),
}


@dataclass(frozen=True)
class FieldSpec:
    name: str
    kind: str
    parameters: dict

    def build(self):
        """The analytic field; it holds no surface, sampling uses the mesh's."""
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"unknown field kind {self.kind!r}")
        key, family = FIELD_KINDS[self.kind]
        for name in self.parameters:
            if name != key:
                raise ConfigError(f"unknown {self.kind} parameter {name!r} (it takes {key!r})")
        return family(np.asarray(self.parameters[key], float))


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
                spec.build()
            except KeyError as exc:
                raise ConfigError(f"field {spec.name}: missing parameter {exc}") from exc
            except (ConfigError, field_mod.FieldError, TypeError, ValueError) as exc:
                raise ConfigError(f"field {spec.name}: {exc}") from exc

    @classmethod
    def from_json_dict(cls, data: dict) -> "RunConfig":
        try:
            _json_typed(data, (dict,), "an object", "config")
            surf = dict(_json_typed(_required(data, "surface", "config"), (dict,),
                                    "an object", "surface"))
            _reject_unknown_keys(data, CONFIG_KEYS, "config")
            _reject_unknown_keys(surf, SURFACE_KEYS, "surface")
            # an unset radius or semi-axis stays None for SurfaceSpec to judge
            sizes = {key: _json_typed(surf[key], (int, float), "a number", f"surface {key}")
                     for key in ("radius", "a", "c") if surf.get(key) is not None}
            surface = SurfaceSpec(
                kind=_required(surf, "kind", "surface"),
                level=_json_typed(_required(surf, "level", "surface"), (int,),
                                  "an integer", "surface level"),
                **sizes,
            )
            # an empty list is an empty roster; missing or null means the default
            roster = data.get("fields")
            fspecs = builtin_fields() if roster is None else [
                _field_spec(item) for item in _json_typed(roster, (list,), "a list", "fields")]
            report_path = data.get("report_path")
            if report_path is not None:  # open() takes an integer as a file descriptor
                _json_typed(report_path, (str,), "a string", "report_path")
            return cls(
                surface=surface,
                fields=tuple(fspecs),
                seed=_json_typed(data.get("seed", 0), (int,), "an integer", "seed"),
                report_path=report_path,
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid config: {exc}") from exc


def _field_spec(item) -> FieldSpec:
    """The FieldSpec of one roster entry of a config file."""
    item = dict(_json_typed(item, (dict,), "an object", "each field"))
    kind = _required(item, "kind", "field")
    del item["kind"]
    name = _json_typed(item.pop("name", kind), (str,), "a string", "field name")
    return FieldSpec(name=name, kind=kind, parameters=item)


def default_config() -> RunConfig:
    return RunConfig(surface=SurfaceSpec(kind="icosphere", level=5, radius=1.0))
