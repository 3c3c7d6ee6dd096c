"""Numeric symmetry audits: how invariant is a model, measured, not assumed.

For each system the model predicts the original and a set of transformed
copies; energy discrepancies are reported in meV and force discrepancies in
meV/angstrom. Rotation metrics sample det +1 rotations, reflection metrics
sample det -1 rigid motions; one panel of both serves every system. The
``pos`` flag records whether the canonicalization machinery mapped every
transformed copy to the same representation: 1 means the canonical-view
multisets coincide for all sampled transforms. A system and its transformed
copies are one :func:`~faframe.frames.plan_views` plan, which draws from the
rng as planning each copy in turn would; each copy's canonical views are
compared with the system's own, and one :func:`~faframe.faenet.predict_views`
batch predicts them all. Systems whose frames are degenerate are counted and
left out of every metric. No systems, an unknown ``fa_mode``, a
``num_transforms`` that is not a positive integer or a target that is not a
finite number is an error.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import EmptyBatch, NonFiniteInput
from .faenet import FAENetConfig, FAENetModel, predict_views
from .frames import ViewPlan, canonical_views, check_fa_mode, compute_frames, plan_views
from .geometry import (
    E3,
    SE3,
    SO3,
    AtomicSystem,
    apply_transforms,
    normalize_group,
    positive_setting,
    random_transforms,
    with_det_sign,
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
        return {**asdict(self), "schema_version": 1, "pos_convention": POS_CONVENTION,
                "units": "meV for energy metrics, meV/angstrom for force metrics"}


def _probe_panel(rng: np.random.Generator, num_transforms: int) -> tuple[np.ndarray, np.ndarray]:
    """The audit's motions: ``num_transforms`` SO3 rotations (det +1), then as
    many E3 motions with column 0 negated where needed to make det -1."""
    rotations, translations = random_transforms(SO3, rng, num_transforms)
    reflections, shifts = random_transforms(E3, rng, num_transforms)
    return (np.concatenate([rotations, with_det_sign(reflections, -1.0)]),
            np.concatenate([translations, shifts]))


def _representation(plan: ViewPlan, index: int) -> np.ndarray:
    """What the model is shown of system ``index`` of ``plan``: a ``(views,
    rows, 3)`` stack of positions plus cell rows, if any, of each canonical
    view of its frame, or of the raw input when the plan frames nothing."""
    system = plan.systems[index]
    if plan.frames is None:
        positions = system.positions[None]
        cells = None if system.cell is None else system.cell[None]
    else:
        frame = plan.frames[index]
        positions, cells = canonical_views(system, frame.translation, frame.rotations)
    return positions if cells is None else np.concatenate([positions, cells], axis=1)


def _multisets_match(a: np.ndarray, b: np.ndarray, tol=POS_TOLERANCE) -> bool:
    """Whether every view of ``a`` matches a distinct view of ``b`` within
    ``tol``, pairing each with the first unused match."""
    if a.shape != b.shape:
        return False
    close = np.abs(a[:, None] - b[None]).max(axis=(2, 3)) <= tol
    unused = np.ones(len(b), dtype=bool)
    for row in close:
        found = np.flatnonzero(row & unused)
        if not len(found):
            return False
        unused[found[0]] = False
    return True


def audit_model(model: FAENetModel, systems: list[AtomicSystem], *,
                fa_mode: str = "full", group: str = E3,
                targets: list[float] | None = None, num_transforms: int = 10,
                rng: np.random.Generator | None = None) -> SymmetryReport:
    """Measure invariance and equivariance errors of a model.

    For every non-degenerate system, ``num_transforms`` rotations and as many
    reflections are sampled; the report aggregates mean absolute energy
    discrepancies (rot_i, refl_i, meV), the mean relative discrepancy against
    ``targets`` (pct_diff, percent), and mean max-norm force equivariance
    residuals (f_rot_e, f_refl_e, meV/angstrom). The force metrics are
    measured exactly when ``model.config.predict_forces`` gives the model a
    force head, and are None otherwise.
    """
    group = normalize_group(group)
    check_fa_mode(fa_mode)
    if not systems:
        raise EmptyBatch("empty batch: at least one system is needed")
    num_transforms = positive_setting("num_transforms", num_transforms, integer=True)
    if targets is not None and len(targets) != len(systems):
        raise ValueError(f"{len(targets)} targets for {len(systems)} systems")
    for index, target in enumerate(() if targets is None else targets):
        if not isinstance(target, numbers.Real) or not math.isfinite(target):
            raise NonFiniteInput(f"target {index} is not a finite number: {target!r}")
    if rng is None:
        rng = np.random.default_rng()
    force_metrics = model.config.predict_forces

    canonical = fa_mode in ("full", "stochastic")
    # One shared transform panel, rotations then reflections: every system
    # is probed with the same motions, so the means do not depend on system
    # order.
    rotations, translations = _probe_panel(rng, num_transforms)

    # Per probe, in eV: |energy shift| and the max-norm force residual.
    shifts: list[float] = []
    residuals: list[float] = []
    pct: list[float] = []
    pos = 1
    degenerate_count = 0

    for index, (system, frame) in enumerate(
            zip(systems, compute_frames(systems, group if canonical else E3))):
        if frame.degenerate:
            degenerate_count += 1
            continue
        copies = [system, *apply_transforms(system, rotations, translations)]
        # One plan in this order draws from rng as forward on each copy in turn.
        plan = plan_views(copies, fa_mode, group, rng)
        if pos:
            reference = _representation(plan, 0)
            pos = int(all(_multisets_match(reference, _representation(plan, copy))
                          for copy in range(1, len(copies))))
        base, *predictions = predict_views(model, plan)
        for rotation, prediction in zip(rotations, predictions):
            shifts.append(abs(prediction.energy - base.energy))
            if force_metrics:
                expected = base.forces @ rotation.T
                residuals.append(np.abs(prediction.forces - expected).max())
        if targets is not None and abs(targets[index]) > 1e-12:
            # this system's rotation probes
            rotated = np.array(shifts[-2 * num_transforms:-num_transforms])
            pct.append(float(np.mean(100.0 * rotated / abs(targets[index]))))

    def _means(values):
        """Mean over rotations and over reflections, in meV (0.0 when no
        system was audited)."""
        values = np.reshape(values, (-1, 2, num_transforms)) * EV_TO_MEV
        # ravel copies each kind into probe order, so the sums round as
        # they would over one flat list.
        return [float(np.mean(values[:, kind].ravel())) if len(values) else 0.0
                for kind in (0, 1)]

    rot_i, refl_i = _means(shifts)
    f_rot_e, f_refl_e = _means(residuals) if force_metrics else (None, None)
    return SymmetryReport(
        pos=pos,
        rot_i=rot_i,
        refl_i=refl_i,
        pct_diff=float(np.mean(pct)) if pct else None,
        f_rot_e=f_rot_e,
        f_refl_e=f_refl_e,
        num_systems=len(systems) - degenerate_count,
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
