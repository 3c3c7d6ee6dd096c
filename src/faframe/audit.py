"""Numeric symmetry audits: how invariant is a model, measured, not assumed.

For each system the model predicts the original and a set of transformed
copies; energy discrepancies are reported in meV and force discrepancies in
meV/angstrom. Rotation metrics sample det +1 rotations, reflection metrics
sample det -1 rigid motions. The ``pos`` flag records whether the
canonicalization machinery mapped every transformed copy to the same
representation: 1 means the canonical-view multisets coincide for all
sampled transforms. Systems whose frames are degenerate are counted and
left out of every metric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoForcesRequested
from .faenet import FAENetConfig, FAENetModel, forward
from .frames import canonicalize, compute_frame
from .geometry import (
    E3,
    SE3,
    SO3,
    AtomicSystem,
    EuclideanTransform,
    apply_transform,
    normalize_group,
    random_transform,
)

EV_TO_MEV = 1000.0
POS_TOLERANCE = 1e-8

# Method name -> (fa_mode, frame group) as used by compare_methods.
METHODS = {
    "full": ("full", E3),
    "stochastic": ("stochastic", E3),
    "se3_stochastic": ("stochastic", SE3),
    "data_augment": ("data_augment", E3),
    "none": ("none", E3),
}

POS_CONVENTION = "1 = canonical-view multisets coincide for all sampled transforms"


@dataclass(frozen=True)
class SymmetryReport:
    """Aggregated invariance/equivariance metrics for one model and mode."""

    pos: int
    rot_i: float
    refl_i: float
    pct_diff: float | None
    f_rot_e: float | None
    f_refl_e: float | None
    num_systems: int
    num_transforms: int
    degenerate_count: int
    fa_mode: str
    group: str

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "pos": self.pos,
            "pos_convention": POS_CONVENTION,
            "rot_i": self.rot_i,
            "refl_i": self.refl_i,
            "pct_diff": self.pct_diff,
            "f_rot_e": self.f_rot_e,
            "f_refl_e": self.f_refl_e,
            "units": "meV for energy metrics, meV/angstrom for force metrics",
            "num_systems": self.num_systems,
            "num_transforms": self.num_transforms,
            "degenerate_count": self.degenerate_count,
            "fa_mode": self.fa_mode,
            "group": self.group,
        }


def _random_reflection(rng: np.random.Generator) -> EuclideanTransform:
    """A rigid motion whose orthogonal part has det -1."""
    transform = random_transform(E3, rng)
    rotation = transform.rotation
    if np.linalg.det(rotation) > 0:
        rotation = rotation.copy()
        rotation[:, 0] = -rotation[:, 0]
    return EuclideanTransform(rotation, transform.translation)


def _representation(system: AtomicSystem, fa_mode: str, group: str):
    """What the model is shown of a system: positions plus cell rows, if any,
    of each canonical view, or of the raw input when nothing is canonicalized."""
    if fa_mode in ("full", "stochastic"):
        views = [canonicalize(system, el).system for el in compute_frame(system, group).elements]
    else:
        views = [system]
    return [
        view.positions if view.cell is None
        else np.concatenate([view.positions, view.cell], axis=0)
        for view in views
    ]


def _multisets_match(a, b, tol=POS_TOLERANCE) -> bool:
    if len(a) != len(b):
        return False
    unused = list(range(len(b)))
    for block in a:
        found = None
        for j in unused:
            if block.shape == b[j].shape and np.abs(block - b[j]).max() <= tol:
                found = j
                break
        if found is None:
            return False
        unused.remove(found)
    return True


def audit_model(model: FAENetModel, systems: list[AtomicSystem], *,
                fa_mode: str = "full", group: str = E3,
                targets: list[float] | None = None, num_transforms: int = 10,
                rng: np.random.Generator | None = None,
                force_metrics: bool | None = None) -> SymmetryReport:
    """Measure invariance and equivariance errors of a model.

    For every non-degenerate system, ``num_transforms`` rotations and as many
    reflections are sampled; the report aggregates mean absolute energy
    discrepancies (rot_i, refl_i, meV), the mean relative discrepancy against
    ``targets`` (pct_diff, percent), and mean max-norm force equivariance
    residuals (f_rot_e, f_refl_e, meV/angstrom) when the model has a force
    head.
    """
    group = normalize_group(group)
    if rng is None:
        rng = np.random.default_rng()
    if force_metrics is None:
        force_metrics = model.config.predict_forces
    if force_metrics and not model.config.predict_forces:
        raise NoForcesRequested("force metrics demanded of an energy-only model")
    if targets is not None and len(targets) != len(systems):
        raise ValueError(f"{len(targets)} targets for {len(systems)} systems")

    frame_group = group if fa_mode in ("full", "stochastic") else E3
    # One shared transform panel: every system is probed with the same
    # rotations and reflections, so the means do not depend on system order.
    rotations = [random_transform(SO3, rng) for _ in range(num_transforms)]
    reflections = [_random_reflection(rng) for _ in range(num_transforms)]
    assert all(t.det > 0 for t in rotations)
    assert all(t.det < 0 for t in reflections)

    rot_diffs: list[float] = []
    refl_diffs: list[float] = []
    f_rot: list[float] = []
    f_refl: list[float] = []
    pct: list[float] = []
    pos = 1
    degenerate_count = 0
    audited = 0

    for index, system in enumerate(systems):
        if compute_frame(system, frame_group).degenerate:
            degenerate_count += 1
            continue
        audited += 1
        base = forward(model, system, fa_mode=fa_mode, group=group, rng=rng)
        base_representation = _representation(system, fa_mode, group) if pos else None
        system_pct: list[float] = []
        for kind, panel in (("rotation", rotations), ("reflection", reflections)):
            for transform in panel:
                moved = apply_transform(system, transform)
                if pos and not _multisets_match(base_representation,
                                                _representation(moved, fa_mode, group)):
                    pos = 0
                prediction = forward(model, moved, fa_mode=fa_mode, group=group, rng=rng)
                gap = abs(prediction.energy - base.energy) * EV_TO_MEV
                if kind == "rotation":
                    rot_diffs.append(gap)
                    if targets is not None and abs(targets[index]) > 1e-12:
                        system_pct.append(
                            100.0 * abs(prediction.energy - base.energy) / abs(targets[index])
                        )
                else:
                    refl_diffs.append(gap)
                if force_metrics:
                    expected = base.forces @ transform.rotation.T
                    residual = np.abs(prediction.forces - expected).max() * EV_TO_MEV
                    (f_rot if kind == "rotation" else f_refl).append(residual)
        if system_pct:
            pct.append(float(np.mean(system_pct)))

    def _mean(values):
        return float(np.mean(values)) if values else 0.0

    return SymmetryReport(
        pos=pos,
        rot_i=_mean(rot_diffs),
        refl_i=_mean(refl_diffs),
        pct_diff=float(np.mean(pct)) if pct else None,
        f_rot_e=_mean(f_rot) if force_metrics else None,
        f_refl_e=_mean(f_refl) if force_metrics else None,
        num_systems=audited,
        num_transforms=num_transforms,
        degenerate_count=degenerate_count,
        fa_mode=fa_mode,
        group=group,
    )


def compare_methods(config: FAENetConfig, systems: list[AtomicSystem],
                    methods: list[str] | None = None, *, seed: int = 0,
                    targets: list[float] | None = None,
                    num_transforms: int = 10) -> dict[str, SymmetryReport]:
    """Audit several frame-averaging methods with matched seeds.

    Every method sees the same freshly initialized weights and the same
    transform stream, so differences in the reports come from the method
    alone.
    """
    if methods is None:
        methods = list(METHODS)
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
    reports = {}
    for method in methods:
        fa_mode, group = METHODS[method]
        model = FAENetModel(config, np.random.default_rng(seed))
        reports[method] = audit_model(
            model,
            systems,
            fa_mode=fa_mode,
            group=group,
            targets=targets,
            num_transforms=num_transforms,
            rng=np.random.default_rng(seed + 1),
        )
    return reports


def format_report_table(reports: dict[str, SymmetryReport]) -> str:
    """Aligned text table, one row per method."""
    headers = ["method", "Pos", "Rot-I", "%-diff", "Refl-I", "F-Rot-E", "F-Refl-E"]
    rows = []
    for name, report in reports.items():
        def fmt(value):
            return "-" if value is None else f"{value:.4f}"

        rows.append([
            name,
            str(report.pos),
            f"{report.rot_i:.4f}",
            fmt(report.pct_diff),
            f"{report.refl_i:.4f}",
            fmt(report.f_rot_e),
            fmt(report.f_refl_e),
        ])
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
              for i in range(len(headers))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
