"""Versioned persistence of fitted multilevel emulators.

Artifacts are JSON documents with sorted keys and no timestamps, so a
rerun with the same configuration produces byte-identical files. Floats
survive the round trip exactly (shortest-repr serialization), hence a
loaded emulator reproduces predictions to machine precision.
"""

from __future__ import annotations

import json

import numpy as np

from .emulator import LedgerEntry, LevelState, MultilevelEmulator
from .errors import ConfigError
from .gp import GPModel
from .kernels import KernelSpec

FORMAT = "mlasce-artifact"
FORMAT_VERSION = 1


def emulator_to_doc(emulator):
    lo, hi = emulator.domain
    doc = {
        "format": FORMAT,
        "format_version": FORMAT_VERSION,
        "domain": [np.atleast_1d(lo).tolist(), np.atleast_1d(hi).tolist()],
        "budget": float(emulator.budget),
        "spent": float(emulator.spent),
        "seed": emulator.seed,
        "levels": [
            {
                "level": lv.level,
                "nu": lv.model.spec.nu if np.isfinite(lv.model.spec.nu) else "inf",
                "lam": lv.model.spec.lam,
                "sigma2": lv.model.spec.sigma2,
                "nugget": lv.model.spec.nugget,
                "cost_per_eval": lv.cost_per_eval,
                "weight": lv.weight,
                "gamma": lv.gamma,
                "X": lv.model.X.tolist(),
                "y": lv.model.y.tolist(),
            }
            for lv in emulator.levels
        ],
        "ledger": [
            {
                "iteration": e.iteration,
                "level": e.level,
                "x": list(e.x),
                "delta": e.delta,
                "cost": e.cost,
            }
            for e in emulator.ledger
        ],
    }
    return doc


def emulator_from_doc(doc):
    """Rebuild an emulator; ConfigError if doc is not a valid artifact document."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ConfigError(f"not a {FORMAT} document")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported artifact version {doc.get('format_version')!r}"
        )
    try:
        lo, hi = (np.asarray(b, dtype=float) for b in doc["domain"])
        levels = []
        for entry in doc["levels"]:
            nu = float("inf") if entry["nu"] == "inf" else float(entry["nu"])
            spec = KernelSpec(
                nu=nu,
                lam=float(entry["lam"]),
                sigma2=float(entry["sigma2"]),
                nugget=float(entry["nugget"]),
            )
            model = GPModel.from_spec(entry["X"], entry["y"], spec)
            levels.append(
                LevelState(
                    level=int(entry["level"]),
                    model=model,
                    cost_per_eval=float(entry["cost_per_eval"]),
                    weight=float(entry["weight"]),
                    gamma=float(entry["gamma"]),
                    cands=None,
                )
            )
        ledger = [
            LedgerEntry(
                iteration=int(e["iteration"]),
                level=int(e["level"]),
                x=tuple(float(v) for v in e["x"]),
                delta=float(e["delta"]),
                cost=float(e["cost"]),
            )
            for e in doc["ledger"]
        ]
        return MultilevelEmulator(
            levels=levels,
            domain=(lo, hi),
            budget=float(doc["budget"]),
            spent=float(doc["spent"]),
            ledger=ledger,
            seed=doc.get("seed"),
        )
    except KeyError as exc:
        raise ConfigError(f"artifact is missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid artifact entry: {exc}") from None


def save_artifact(emulator, path):
    with open(path, "w") as fh:
        json.dump(emulator_to_doc(emulator), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_artifact(path):
    with open(path) as fh:
        try:
            return emulator_from_doc(json.load(fh))
        except (json.JSONDecodeError, ConfigError) as exc:
            raise ConfigError(f"malformed artifact {path}: {exc}") from exc
